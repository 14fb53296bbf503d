//! ANN query fan-out runs on the workspace's chunk-deal executor
//! (`cs_linalg::pool`), so the executor's fault hook reaches it: a panic
//! injected into a chunk of the pool `AnnConfig::threads` pins surfaces
//! on the caller thread with the injected message.
//!
//! This is its own test binary because the hook is process-global and
//! the pinned pool is created inside the matcher: the hook targets every
//! pool created after the test starts, which only this test creates.

use std::panic::{catch_unwind, AssertUnwindSafe};

use cs_linalg::pool::{fault, ThreadPool};
use cs_linalg::{Matrix, Xoshiro256};
use cs_match::{AnnConfig, AnnMatcher, AnnSimMatcher, ElementSet, Matcher};

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

#[test]
fn fault_hook_reaches_ann_query_fan_out() {
    let mut rng = Xoshiro256::seed_from(0xFA_017);
    let sets: Vec<ElementSet> = (0..3)
        .map(|k| ElementSet::full(k, Matrix::from_fn(12, 8, |_, _| rng.next_gaussian())))
        .collect();
    let config = AnnConfig {
        threads: 3,
        ..AnnConfig::with_k(3)
    };
    let healthy = AnnMatcher::with_config(config).ranked_pairs(&sets);
    assert!(!healthy.is_empty());

    let floor = ThreadPool::with_threads(0).tag();
    {
        let _armed = fault::armed(move |site| {
            if site.pool.is_some_and(|tag| tag > floor) && site.chunk == 1 {
                panic!("injected fault: ann query chunk");
            }
        });
        let dense = catch_unwind(AssertUnwindSafe(|| {
            AnnMatcher::with_config(config).ranked_pairs(&sets)
        }))
        .expect_err("AnnMatcher must re-raise the injected panic");
        assert!(
            panic_text(&*dense).contains("injected fault: ann query chunk"),
            "got {:?}",
            panic_text(&*dense)
        );
        let sim = catch_unwind(AssertUnwindSafe(|| {
            AnnSimMatcher::new(config, 0.0).match_pairs(&sets)
        }))
        .expect_err("AnnSimMatcher must re-raise the injected panic");
        assert!(panic_text(&*sim).contains("injected fault: ann query chunk"));
    }
    // Disarmed: a fresh pinned pool serves the same queries unchanged.
    assert_eq!(AnnMatcher::with_config(config).ranked_pairs(&sets), healthy);
}
