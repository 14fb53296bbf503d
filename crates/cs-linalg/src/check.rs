//! A std-only property-check harness — the hermetic replacement for the
//! workspace's former external `proptest` dependency.
//!
//! The workspace's hermetic dependency policy (DESIGN.md §6) forbids
//! registry crates in the default feature set, so property tests run on
//! this harness instead: a seeded-RNG loop over the same generators the
//! proptest strategies used, with per-case failure reporting (the failing
//! case index and seed are printed so a shrunk repro is one constant away).
//!
//! ```
//! use cs_linalg::check::{run, Gen};
//!
//! run("addition_commutes", 64, |g| {
//!     let (a, b) = (g.f64_in(-10.0, 10.0), g.f64_in(-10.0, 10.0));
//!     assert_eq!(a + b, b + a);
//! });
//! ```
//!
//! Case counts scale in two ways:
//! - the `proptest-tests` cargo feature multiplies every suite's count by
//!   [`DEEP_MULTIPLIER`] (opt-in deep fuzzing, still dependency-free),
//! - the `CS_PROP_CASES` environment variable overrides the count exactly.

use crate::hash::Fnv1a;
use crate::{Matrix, SplitMix64, Xoshiro256};

/// Case-count multiplier applied when the `proptest-tests` feature is on.
pub const DEEP_MULTIPLIER: usize = 16;

/// Resolves the number of cases a suite should run: the explicit
/// `CS_PROP_CASES` environment override wins, otherwise `default`
/// (multiplied by [`DEEP_MULTIPLIER`] under the `proptest-tests` feature).
pub fn cases(default: usize) -> usize {
    let over = crate::config::env_knob(crate::config::PROP_CASES);
    cases_with_override(default, over.as_deref())
}

fn cases_with_override(default: usize, override_var: Option<&str>) -> usize {
    if let Some(n) = override_var.and_then(|s| s.trim().parse::<usize>().ok()) {
        return n.max(1);
    }
    if cfg!(feature = "proptest-tests") {
        default * DEEP_MULTIPLIER
    } else {
        default
    }
}

/// A seeded generator handed to every property case — the "strategy"
/// vocabulary the old proptest suites used, as plain methods.
#[derive(Debug)]
pub struct Gen {
    rng: Xoshiro256,
    /// The case's root seed, echoed in failure reports.
    seed: u64,
}

impl Gen {
    /// Creates a generator for one case.
    pub fn from_seed(seed: u64) -> Self {
        Self {
            rng: Xoshiro256::seed_from(seed),
            seed,
        }
    }

    /// The case's root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Direct access to the underlying RNG.
    pub fn rng(&mut self) -> &mut Xoshiro256 {
        &mut self.rng
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.uniform(lo, hi)
    }

    /// Uniform integer in `[lo, hi]` (inclusive on both ends).
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + self.rng.next_below(hi - lo + 1)
    }

    /// A `u64` in `[0, n)`.
    pub fn u64_below(&mut self, n: u64) -> u64 {
        self.rng.next_below(n as usize) as u64
    }

    /// A vector of uniform `f64` in `[lo, hi)`.
    pub fn vec_f64(&mut self, len: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..len).map(|_| self.f64_in(lo, hi)).collect()
    }

    /// A matrix with `1..=max_rows × 1..=max_cols` uniform entries in
    /// `[lo, hi)` — the old `matrix_strategy`.
    pub fn matrix(&mut self, max_rows: usize, max_cols: usize, lo: f64, hi: f64) -> Matrix {
        let r = self.usize_in(1, max_rows);
        let c = self.usize_in(1, max_cols);
        let data = self.vec_f64(r * c, lo, hi);
        Matrix::from_vec(r, c, data)
    }

    /// A square matrix with `1..=max_n` rows — the old
    /// `square_matrix_strategy`.
    pub fn square_matrix(&mut self, max_n: usize, lo: f64, hi: f64) -> Matrix {
        let n = self.usize_in(1, max_n);
        let data = self.vec_f64(n * n, lo, hi);
        Matrix::from_vec(n, n, data)
    }
}

/// Runs `property` for `cases(default_cases)` seeded cases. Each case gets
/// an independent [`Gen`]; a panicking case is re-raised after printing the
/// case index and seed, so failures reproduce with
/// `Gen::from_seed(<printed seed>)`.
pub fn run<F>(name: &str, default_cases: usize, mut property: F)
where
    F: FnMut(&mut Gen),
{
    let n = cases(default_cases);
    // Derive per-case seeds from the property name so suites are decorrelated
    // yet stable across runs and platforms.
    let mut name_hash = Fnv1a::with_basis(0xC51A_B057);
    name_hash.update(name.as_bytes());
    let mut root = SplitMix64::new(name_hash.finish());
    for case in 0..n {
        let seed = root.next_u64();
        let mut gen = Gen::from_seed(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut gen);
        }));
        if let Err(payload) = outcome {
            eprintln!(
                "property '{name}' failed at case {case}/{n} (seed {seed}); \
                 reproduce with Gen::from_seed({seed})"
            );
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_respect_bounds() {
        run("generators_respect_bounds", 32, |g| {
            let x = g.f64_in(-2.5, 7.0);
            assert!((-2.5..7.0).contains(&x));
            let k = g.usize_in(3, 9);
            assert!((3..=9).contains(&k));
            let v = g.vec_f64(5, 0.0, 1.0);
            assert_eq!(v.len(), 5);
            assert!(v.iter().all(|x| (0.0..1.0).contains(x)));
        });
    }

    #[test]
    fn matrix_generator_shapes() {
        run("matrix_generator_shapes", 32, |g| {
            let m = g.matrix(6, 9, -1.0, 1.0);
            assert!(m.rows() >= 1 && m.rows() <= 6);
            assert!(m.cols() >= 1 && m.cols() <= 9);
            let s = g.square_matrix(5, -1.0, 1.0);
            assert_eq!(s.rows(), s.cols());
        });
    }

    #[test]
    fn cases_env_override_wins() {
        assert_eq!(cases_with_override(100, Some("3")), 3);
        assert_eq!(cases_with_override(100, Some("0")), 1);
        let base = cases_with_override(100, Some("not a number"));
        assert!(base == 100 || base == 100 * DEEP_MULTIPLIER);
        let base = cases_with_override(100, None);
        assert!(base == 100 || base == 100 * DEEP_MULTIPLIER);
    }

    #[test]
    fn seeds_are_stable_per_name() {
        let mut a = Vec::new();
        run("stable_name", 4, |g| a.push(g.seed()));
        let mut b = Vec::new();
        run("stable_name", 4, |g| b.push(g.seed()));
        assert_eq!(a, b);
        let mut c = Vec::new();
        run("different_name", 4, |g| c.push(g.seed()));
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "deliberate")]
    fn failures_propagate() {
        run("failures_propagate", 8, |_| panic!("deliberate"));
    }
}
