//! # cs-bench
//!
//! Micro-benchmark host crate. The [`emitter`] module times one group per
//! paper table/figure plus ablations; the `bench_json` binary runs it and
//! writes the machine-readable report. `scripts/verify.sh` exercises it
//! with `--smoke` and gates the PCA hot path against `BENCH_BUDGET.json`
//! via `--budget`.

pub mod emitter;

/// Standard explained-variance sweep used by the emitter, mirroring
/// the paper's `v ∈ (1..0)` grid.
pub fn variance_grid(steps: usize) -> Vec<f64> {
    assert!(steps >= 2, "need at least two grid points");
    (0..steps)
        .map(|i| {
            let t = i as f64 / (steps - 1) as f64;
            // from 0.99 down to 0.01
            0.99 - 0.98 * t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_descending_and_bounded() {
        let g = variance_grid(20);
        assert_eq!(g.len(), 20);
        assert!(g.windows(2).all(|w| w[0] > w[1]));
        assert!(g.iter().all(|&v| v > 0.0 && v < 1.0));
    }

    #[test]
    #[should_panic(expected = "two grid points")]
    fn tiny_grid_panics() {
        variance_grid(1);
    }
}
