//! SIM: exhaustive cosine-threshold matching.
//!
//! Enumerates the full Cartesian product of every schema pair (the
//! "Preparation" module of Zhang et al.) and keeps pairs whose cosine
//! similarity meets the threshold `t`.

use crate::{CandidatePair, ElementSet, Matcher};
use cs_linalg::vecops::norm;

/// Cosine-threshold matcher.
#[derive(Debug, Clone, Copy)]
pub struct SimMatcher {
    threshold: f64,
}

impl SimMatcher {
    /// Creates a matcher with threshold `t ∈ [-1, 1]`.
    pub fn new(threshold: f64) -> Self {
        assert!(
            (-1.0..=1.0).contains(&threshold),
            "cosine threshold must lie in [-1, 1]"
        );
        Self { threshold }
    }

    /// The configured threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }
}

impl Matcher for SimMatcher {
    fn name(&self) -> String {
        format!("SIM({})", self.threshold)
    }

    /// Bit for bit the per-pair [`cosine`](cs_linalg::vecops::cosine)
    /// loop: each row's `norm` is computed once, and every cross-schema
    /// `dot` comes from one
    /// [`Matrix::matmul_transposed`](cs_linalg::Matrix::matmul_transposed)
    /// per schema pair, which evaluates the same chain.
    fn match_pairs(&self, sets: &[ElementSet]) -> Vec<CandidatePair> {
        let norms: Vec<Vec<f64>> = sets
            .iter()
            .map(|s| s.signatures.rows_iter().map(norm).collect())
            .collect();
        let mut out = Vec::new();
        for i in 0..sets.len() {
            for j in (i + 1)..sets.len() {
                let (x, y) = (&sets[i], &sets[j]);
                let dots = x.signatures.matmul_transposed(&y.signatures);
                for (xi, xid) in x.ids.iter().enumerate() {
                    let na = norms[i][xi];
                    for (yi, yid) in y.ids.iter().enumerate() {
                        let nb = norms[j][yi];
                        // `cosine`'s expression on the precomputed parts.
                        let sim = if na == 0.0 || nb == 0.0 {
                            0.0
                        } else {
                            (dots[(xi, yi)] / (na * nb)).clamp(-1.0, 1.0)
                        };
                        if sim >= self.threshold {
                            out.push(CandidatePair::new(*xid, *yid));
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cs_linalg::vecops::cosine;
    use cs_linalg::Matrix;

    fn sets() -> Vec<ElementSet> {
        // Schema 0: two nearly orthogonal unit vectors.
        let s0 = Matrix::from_rows(&[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]);
        // Schema 1: one close to s0[0], one oblique, one orthogonal to both.
        let s1 = Matrix::from_rows(&[
            vec![0.95, 0.05, 0.0],
            vec![0.7, 0.7, 0.0],
            vec![0.0, 0.0, 1.0],
        ]);
        vec![ElementSet::full(0, s0), ElementSet::full(1, s1)]
    }

    #[test]
    fn high_threshold_keeps_only_near_duplicates() {
        let pairs = SimMatcher::new(0.9).match_pairs(&sets());
        assert_eq!(pairs.len(), 1);
        assert_eq!(pairs[0].a, cs_schema::ElementId::new(0, 0));
        assert_eq!(pairs[0].b, cs_schema::ElementId::new(1, 0));
    }

    #[test]
    fn lower_threshold_is_superset() {
        let hi: std::collections::HashSet<_> = SimMatcher::new(0.8)
            .match_pairs(&sets())
            .into_iter()
            .collect();
        let lo: std::collections::HashSet<_> = SimMatcher::new(0.4)
            .match_pairs(&sets())
            .into_iter()
            .collect();
        assert!(hi.is_subset(&lo));
        assert!(lo.len() > hi.len());
    }

    #[test]
    fn threshold_minus_one_enumerates_cartesian() {
        let pairs = SimMatcher::new(-1.0).match_pairs(&sets());
        assert_eq!(pairs.len(), 2 * 3);
    }

    #[test]
    fn three_schemas_cover_all_pairs() {
        let mut s = sets();
        s.push(ElementSet::full(
            2,
            Matrix::from_rows(&[vec![1.0, 0.0, 0.0]]),
        ));
        let pairs = SimMatcher::new(-1.0).match_pairs(&s);
        // 2·3 + 2·1 + 3·1 = 11.
        assert_eq!(pairs.len(), 11);
    }

    #[test]
    fn empty_sets_yield_nothing() {
        let empty = vec![
            ElementSet::full(0, Matrix::zeros(0, 3)),
            ElementSet::full(1, Matrix::zeros(0, 3)),
        ];
        assert!(SimMatcher::new(0.5).match_pairs(&empty).is_empty());
    }

    /// The reference: one `cosine` call per cross-schema pair.
    fn per_pair_cosine(sets: &[ElementSet], threshold: f64) -> Vec<CandidatePair> {
        let mut out = Vec::new();
        for i in 0..sets.len() {
            for j in (i + 1)..sets.len() {
                let (x, y) = (&sets[i], &sets[j]);
                for (xi, xid) in x.ids.iter().enumerate() {
                    for (yi, yid) in y.ids.iter().enumerate() {
                        let sim =
                            cs_linalg::vecops::cosine(x.signatures.row(xi), y.signatures.row(yi));
                        if sim >= threshold {
                            out.push(CandidatePair::new(*xid, *yid));
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn shared_product_equals_per_pair_cosine() {
        // Sizes on both sides of the blocked-kernel dispatch, all-zero
        // rows, and thresholds where ties and the clamp decide.
        let mut rng = cs_linalg::Xoshiro256::seed_from(0x51A);
        let shared: Vec<f64> = (0..150).map(|_| rng.next_gaussian()).collect();
        let sets: Vec<ElementSet> = [(3usize, 0usize), (140, 7), (0, 0), (9, 2), (130, 1)]
            .iter()
            .enumerate()
            .map(|(k, &(rows, zero_rows))| {
                let mut m = Matrix::from_fn(rows, 150, |_, _| rng.next_gaussian());
                for r in 0..zero_rows {
                    m.row_mut(r * rows / zero_rows).fill(0.0);
                }
                // A row shared across schemas: cosines at the top of the range.
                if rows > 4 {
                    m.row_mut(2).copy_from_slice(&shared);
                }
                ElementSet::full(k, m)
            })
            .collect();
        for t in [-1.0, -0.05, 0.0, 0.04, 0.1, 0.999, 1.0] {
            let got = SimMatcher::new(t).match_pairs(&sets);
            assert_eq!(got, per_pair_cosine(&sets, t), "threshold {t}");
        }
        assert!(!SimMatcher::new(0.1).match_pairs(&sets).is_empty());
        assert!(!SimMatcher::new(0.999).match_pairs(&sets).is_empty());
    }

    #[test]
    fn name_and_threshold() {
        let m = SimMatcher::new(0.6);
        assert_eq!(m.name(), "SIM(0.6)");
        assert_eq!(m.threshold(), 0.6);
    }

    #[test]
    #[should_panic(expected = "cosine threshold")]
    fn out_of_range_threshold_panics() {
        SimMatcher::new(1.5);
    }
}
