//! Determinism contract for the ANN matching path (DESIGN.md §8, §14):
//! the ranked output of [`AnnMatcher`] and the RRF-fused
//! [`HybridMatcher`] must be bit-identical — pairs and scores — for
//! every worker count. `AnnConfig::threads = n` pins a
//! `cs_linalg::pool::ThreadPool::with_threads(n)` — the executor
//! `CS_THREADS` sizes for the global pool — so pinning it here
//! exercises the same chunk-deal scheduling the env var selects;
//! `scripts/verify.sh` additionally sweeps the env var itself over the
//! fault-matrix binaries, which run this matcher end to end.

use cs_linalg::{Matrix, Xoshiro256};
use cs_match::{AnnConfig, AnnMatcher, ElementSet, HybridMatcher, NamedSet};
use cs_schema::ElementId;

/// A seeded multi-schema workload: `schemas` gaussian signature blocks
/// plus synthetic display names with overlapping vocabulary so both the
/// dense and the lexical leg produce non-trivial rankings.
fn workload(schemas: usize, per: usize, dim: usize, seed: u64) -> (Vec<ElementSet>, Vec<NamedSet>) {
    let mut rng = Xoshiro256::seed_from(seed);
    let mut sets = Vec::new();
    let mut names = Vec::new();
    for k in 0..schemas {
        let m = Matrix::from_fn(per, dim, |_, _| rng.next_gaussian());
        sets.push(ElementSet::full(k, m));
        let ids: Vec<ElementId> = (0..per).map(|e| ElementId::new(k, e)).collect();
        let labels: Vec<String> = (0..per)
            .map(|e| format!("customer_order_{}_{k}", e % (per / 2).max(1)))
            .collect();
        names.push(NamedSet::new(k, ids, labels));
    }
    (sets, names)
}

/// Every thread count must reproduce the single-threaded ranking bit
/// for bit: the chunk-deal pool only changes who computes a query's
/// neighbors, never the result.
#[test]
fn ann_matcher_is_bit_identical_across_thread_counts() {
    let (sets, _) = workload(4, 40, 24, 0xDE7_1);
    let reference = AnnMatcher::with_config(AnnConfig {
        threads: 1,
        ..AnnConfig::with_k(5)
    })
    .ranked_pairs(&sets);
    assert!(!reference.is_empty());
    for threads in [2usize, 3, 8] {
        let got = AnnMatcher::with_config(AnnConfig {
            threads,
            ..AnnConfig::with_k(5)
        })
        .ranked_pairs(&sets);
        assert_eq!(
            reference, got,
            "AnnMatcher ranking diverged at threads={threads}"
        );
    }
}

/// The fused pipeline inherits the contract: RRF over the dense and
/// lexical rankings is deterministic, so the hybrid output must also be
/// bit-identical for every worker count.
#[test]
fn hybrid_pipeline_is_bit_identical_across_thread_counts() {
    let (sets, names) = workload(3, 30, 16, 0xF0_5E);
    let at = |threads: usize| {
        HybridMatcher::new(
            AnnConfig {
                threads,
                ..AnnConfig::with_k(4)
            },
            names.clone(),
        )
        .ranked_pairs(&sets)
    };
    let reference = at(1);
    assert!(!reference.is_empty());
    for threads in [2usize, 3, 8] {
        assert_eq!(
            reference,
            at(threads),
            "hybrid ranking diverged at threads={threads}"
        );
    }
}

/// Repeated runs of the same matcher instance are bit-identical — no
/// hidden state accumulates across calls.
#[test]
fn repeated_runs_are_bit_identical() {
    let (sets, names) = workload(3, 24, 16, 0x5EED_5);
    let ann = AnnMatcher::new(4);
    assert_eq!(ann.ranked_pairs(&sets), ann.ranked_pairs(&sets));
    let hybrid = HybridMatcher::new(AnnConfig::with_k(4), names);
    assert_eq!(hybrid.ranked_pairs(&sets), hybrid.ranked_pairs(&sets));
}
