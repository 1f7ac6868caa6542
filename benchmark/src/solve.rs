//! One timed, checked call of `run_on` — the unit both passes are built
//! from — and the progress events the passes send the watchdog.

use crate::metrics::Metrics;
use crate::sys;
use crate::workloads::{Reference, Spec};
use p2pdc::{run_on, RunConfig, RuntimeExperimentResult, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::Sender;
use std::time::Instant;

/// Untimed solves that precede every measured window.
pub const WARMUP_SOLVES: u64 = 5;

/// One `run_on` call: bootstrap + iterate + stop + assemble + residual.
pub struct Solve {
    /// Wall seconds from the call to its return.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, all threads) over the call.
    pub cpu_s: f64,
    /// The program's result, or the panic message.
    pub result: Result<RuntimeExperimentResult, String>,
}

/// Run one solve and time it from outside.
pub fn timed_solve(spec: &Spec, workload: &dyn Workload, config: &RunConfig) -> Solve {
    let cpu_before = sys::process_cpu_s();
    let started = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| run_on(workload, config, spec.runtime)));
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_s() - cpu_before;
    Solve {
        wall_s,
        cpu_s,
        result: result.map_err(|panic| {
            panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".to_string())
        }),
    }
}

impl Solve {
    /// The checked timing sample of this solve: a solve that panicked or
    /// fails the output check carries the reason in `failure`.
    pub fn sample(&self, spec: &Spec, reference: &Reference) -> Sample {
        Sample {
            wall_s: self.wall_s,
            cpu_s: self.cpu_s,
            setup_s: 0.0,
            downtime_s: self
                .result
                .as_ref()
                .map_or(0.0, |r| r.measurement.downtime_s),
            failure: match &self.result {
                Ok(result) => reference.check(spec, result).err(),
                Err(panic) => Some(format!("panicked: {panic}")),
            },
        }
    }
}

/// The timing sample of one measured solve.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Seconds of one workload construction timed right before the solve
    /// (measured pass only; 0 otherwise).
    pub setup_s: f64,
    /// `RunMeasurement.downtime_s`: crash → recovered (0 without a crash).
    pub downtime_s: f64,
    /// Why the solve failed its check, if it did.
    pub failure: Option<String>,
}

/// What a pass tells the watchdog. Every event is also a heartbeat: the
/// watchdog gives up on a pass that stays silent for longer than one solve
/// may take.
pub enum Event {
    /// Set-up or a warm-up solve finished.
    Progress,
    /// A measured (or traced) solve finished.
    Solved(Sample),
    /// The traced pass finished and computed its per-layer metrics.
    Layers(Box<Metrics>),
}

/// The sending half the passes report through.
pub type Progress = Sender<Event>;

/// Send an event; a closed channel means the watchdog already gave up and
/// the process is about to exit, so the error carries no information.
pub fn report(progress: &Progress, event: Event) {
    let _ = progress.send(event);
}
