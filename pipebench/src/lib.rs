//! End-to-end pipeline benchmark for the collaborative-scoping workspace.
//!
//! One process runs one named workload as a single closed-loop caller:
//! each pipeline run starts only after the previous one returned. The
//! library's global pool keeps its default size and the benchmark starts
//! no threads of its own. See `README.md` for the workloads, the metrics
//! and which layer metric should move which end-to-end metric.

pub mod checks;
pub mod measure;
pub mod pipeline;
pub mod stats;
pub mod trace;
