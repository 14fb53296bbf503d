//! Fault-matrix smoke driver for `scripts/verify.sh`.
//!
//! Runs the full fault matrix under the sequential path, pinned pools of
//! 1/2/8 workers, and the global (`CS_THREADS`-sized) pool, requiring
//! byte-identical stage lines everywhere, then prints the per-case report
//! and a digest line:
//!
//! ```text
//! fault-matrix digest: 0123456789abcdef
//! ```
//!
//! verify.sh runs this binary under several `CS_THREADS` values and
//! compares the digests — the fault paths must be as deterministic as the
//! happy paths. Exits non-zero on any divergence, escaped panic, or
//! missing expected error.
//!
//! With the runtime sanitizer on (`CS_SANITIZE=1` or the `sanitize`
//! feature, DESIGN.md §12) a second digest line follows:
//!
//! ```text
//! sanitizer digest: fedcba9876543210 (edges=1 cycles=0 probes=1)
//! ```
//!
//! covering the lock-order graph recorded across the whole matrix plus
//! the per-worker float-environment probes. A lock-order cycle (deadlock
//! potential) or probe drift (float environments differ between workers)
//! fails the run outright; verify.sh additionally compares the digest
//! across `CS_THREADS` values — the nesting *set* must not depend on
//! worker count.

use std::sync::Arc;

use cs_core::pool::ExecPolicy;
use cs_core::ThreadPool;
use cs_fault::run_matrix;
use cs_linalg::sanitize;

fn main() {
    // Injected worker panics are expected here; keep stderr clean so the
    // only output is the report. The hook still aborts loudly for panics
    // that are not ours.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .map(|s| s.contains("injected fault"))
            .or_else(|| {
                info.payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains("injected fault"))
            })
            .unwrap_or(false);
        if !injected {
            default_hook(info);
        }
    }));

    let execs: Vec<(&str, ExecPolicy)> = vec![
        ("sequential", ExecPolicy::Sequential),
        (
            "pool-1",
            ExecPolicy::Pool(Arc::new(ThreadPool::with_threads(1))),
        ),
        (
            "pool-2",
            ExecPolicy::Pool(Arc::new(ThreadPool::with_threads(2))),
        ),
        (
            "pool-8",
            ExecPolicy::Pool(Arc::new(ThreadPool::with_threads(8))),
        ),
        ("global", ExecPolicy::Global),
    ];
    match run_matrix(&execs) {
        Ok(report) => {
            for (name, lines) in &report.cases {
                println!("case {name}");
                for line in lines {
                    println!("  {line}");
                }
            }
            println!("fault-matrix digest: {:016x}", report.digest);
        }
        Err(msg) => {
            eprintln!("fault matrix FAILED: {msg}");
            std::process::exit(1);
        }
    }

    if sanitize::enabled() {
        let san = sanitize::report();
        if !san.cycles.is_empty() {
            eprintln!("sanitizer FAILED: lock-order cycle(s) — deadlock potential:");
            for cycle in &san.cycles {
                eprintln!("  {}", cycle.join(" -> "));
            }
            std::process::exit(1);
        }
        if san.probes.len() > 1 {
            eprintln!(
                "sanitizer FAILED: float-environment drift — {} distinct probes: {:?}",
                san.probes.len(),
                san.probes
            );
            std::process::exit(1);
        }
        println!(
            "sanitizer digest: {:016x} (edges={} cycles={} probes={})",
            san.digest(),
            san.edges.len(),
            san.cycles.len(),
            san.probes.len()
        );
    }
}
