//! The repository's one benchmark: time-to-solution of four workloads,
//! measured from outside the program, plus a traced pass that attributes a
//! solve to the layers of `ARCHITECTURE.md`. See `README.md` beside this
//! crate for the metric glossary and the workload rationale.
//!
//! Nothing here is linked into the program: layers are measured by timing
//! calls into their public functions.

#![warn(missing_docs)]

pub mod cli;
pub mod measured;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod solve;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod traced;
pub mod workloads;

/// Where the benchmark leaves its artifacts (Chrome traces, raw samples,
/// result sets): `out/` beside this crate's manifest, inside the checkout
/// whatever the working directory is.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
