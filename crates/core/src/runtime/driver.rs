//! The backend table: what a [`RuntimeKind`] is called and which drive
//! loop runs it, one `match` each — the only per-backend dispatch above the
//! drivers. There are three rows, one per clock: `sim` (virtual time),
//! `loopback` (an event count) and `reactor` (wall clock, over real
//! sockets).
//!
//! Every runtime backend consumes the shared [`RunConfig`] (plus its own
//! typed knobs from [`BackendExtras`](crate::runtime::BackendExtras)), runs
//! a per-rank task factory to completion, and reports the uniform
//! [`DriverOutcome`]. [`crate::experiment::run_on`], the bench grids and the
//! e2e helpers all iterate [`RuntimeKind::ALL`] — so adding a backend is one
//! module with a drive loop plus one row in each `match` here.

use crate::app::IterativeTask;
use crate::metrics::RunMeasurement;
use crate::runtime::{loopback, reactor, sim, RunConfig};
use netsim::NetStats;
use serde::{Deserialize, Serialize};

/// The runtime backend an experiment executes on: one virtual-time, one
/// event-count and one wall-clock backend. All three drive the same
/// [`crate::runtime::engine::PeerEngine`]; they differ only in the substrate
/// carrying the P2PSAP segments and in the clock behind the measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuntimeKind {
    /// Virtual-time discrete-event simulation over the netsim fabric
    /// (deterministic, models latency/bandwidth/loss — the evaluation
    /// harness default).
    Sim,
    /// The reactor's walk over in-memory queues on one thread, with instant
    /// delivery and an event-count clock (deterministic, fastest).
    Loopback,
    /// Real localhost UDP sockets with framing, bootstrap discovery and an
    /// optional loss/reorder shim, driven by readiness-polled event loops
    /// that each multiplex many peers (wall-clock). A handful of loops runs
    /// thousands of peers; one loop per provisioned peer
    /// ([`BackendExtras::Reactor`](crate::BackendExtras)) is the
    /// thread-per-peer shape of a small run.
    Reactor,
}

impl RuntimeKind {
    /// Every backend, in the order the bench matrix reports them.
    pub const ALL: [RuntimeKind; 3] = [
        RuntimeKind::Sim,
        RuntimeKind::Loopback,
        RuntimeKind::Reactor,
    ];

    /// Stable lowercase label (JSON artifacts, bench ids).
    pub fn label(&self) -> &'static str {
        match self {
            RuntimeKind::Sim => "sim",
            RuntimeKind::Loopback => "loopback",
            RuntimeKind::Reactor => "reactor",
        }
    }

    /// Run a distributed iterative computation on this backend.
    pub(crate) fn run(self, config: &RunConfig, task_factory: TaskFactory<'_>) -> DriverOutcome {
        match self {
            RuntimeKind::Sim => sim::run_iterative(config, task_factory),
            RuntimeKind::Loopback => loopback::run_iterative_loopback(config, task_factory),
            RuntimeKind::Reactor => reactor::run_sockets(config, task_factory).outcome,
        }
    }
}

impl std::fmt::Display for RuntimeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The clock a backend measures elapsed time with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockDomain {
    /// Simulated virtual time (deterministic, models the network): `sim`.
    Virtual,
    /// Real wall-clock time: `reactor`.
    Wall,
    /// A monotone engine-event counter (deterministic, not a duration):
    /// `loopback`.
    EventCount,
}

/// Per-rank task factory handed to a driver (the application's
/// `Calculate()` step, built per peer).
pub type TaskFactory<'a> = &'a (dyn Fn(usize) -> Box<dyn IterativeTask> + Send + Sync);

/// The uniform outcome every backend reports.
#[derive(Debug, Clone)]
pub struct DriverOutcome {
    /// Timing and relaxation measurements (clock per [`ClockDomain`]).
    pub measurement: RunMeasurement,
    /// Per-rank serialized results (from [`IterativeTask::result`]).
    pub results: Vec<(usize, Vec<u8>)>,
    /// Network statistics, when the backend models the fabric (`Some` on the
    /// simulated backend only; the reactor uses the real network stack).
    pub net: Option<NetStats>,
    /// Datagrams dropped by the deterministic loss shim (the reactor with
    /// impairment armed; zero everywhere else).
    pub datagrams_dropped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The labels are stable: they name JSON artifact rows and bench ids,
    /// so a rename is a data-compatibility break.
    #[test]
    fn every_runtime_kind_resolves_to_a_driver_with_a_stable_label() {
        let labels: Vec<&str> = RuntimeKind::ALL.iter().map(RuntimeKind::label).collect();
        assert_eq!(labels, ["sim", "loopback", "reactor"]);
    }
}
