//! Integration tests for the runtime determinism sanitizer (DESIGN.md
//! §12) as wired into the pool: a seeded deadlock-potential fixture the
//! lock-order graph must flag, and a clean pool run it must pass.
//!
//! The evidence graph is process-global, so each test filters the report
//! down to its own lock-name prefix rather than resetting underneath the
//! other.

use std::thread;

use cs_core::pool::ThreadPool;
use cs_linalg::sanitize;

/// Two threads nest a pair of locks in opposite orders. No real deadlock
/// occurs (the threads run sequentially), but the union graph contains the
/// cycle `fxcore.a → fxcore.b → fxcore.a` — exactly the interleaving a
/// production run could hit, and exactly what the sanitizer exists to
/// surface before it ever does.
#[test]
fn deadlock_potential_fixture_is_flagged() {
    sanitize::force(true);

    let first = thread::spawn(|| {
        let _a = sanitize::trace("fxcore.a");
        let _b = sanitize::trace("fxcore.b");
    });
    first.join().expect("first fixture thread");

    let second = thread::spawn(|| {
        let _b = sanitize::trace("fxcore.b");
        let _a = sanitize::trace("fxcore.a");
    });
    second.join().expect("second fixture thread");

    let rep = sanitize::report().filtered("fxcore.");
    assert_eq!(
        rep.edges,
        vec![
            ("fxcore.a".to_string(), "fxcore.b".to_string()),
            ("fxcore.b".to_string(), "fxcore.a".to_string()),
        ],
        "both nesting orders recorded"
    );
    assert_eq!(
        rep.cycles,
        vec![vec!["fxcore.a".to_string(), "fxcore.b".to_string()]],
        "opposite-order nesting is a deadlock potential"
    );
    assert!(!rep.healthy(), "a cyclic lock graph must fail healthy()");
}

/// A real pool run under the sanitizer: without fault arming the pool's
/// instrumented locks never nest, so the `pool.` slice of the graph stays
/// empty and every worker's float-environment probe agrees.
#[test]
fn clean_pool_run_passes() {
    sanitize::force(true);

    let pool = ThreadPool::with_threads(4);
    let out = pool
        .run_slots(64, |slot| (slot as f64).sqrt())
        .expect("clean pool run");
    assert_eq!(out.len(), 64);

    let rep = sanitize::report().filtered("pool.");
    assert!(
        rep.edges.is_empty() && rep.cycles.is_empty(),
        "an unarmed pool run must record no lock nesting, got {:?}",
        rep.edges
    );
    assert!(
        !rep.probes.is_empty(),
        "worker threads must record float-environment probes"
    );
    assert!(
        rep.probes.len() <= 1,
        "float environments drifted across workers: {:?}",
        rep.probes
    );
    assert!(rep.healthy(), "a clean run must pass the sanitizer");
}
