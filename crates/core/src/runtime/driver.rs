//! The pluggable backend API: one trait, one registry, zero per-backend
//! dispatch arms anywhere else.
//!
//! Every runtime backend is a [`RuntimeDriver`]: it consumes the shared
//! [`RunConfig`] (plus its own typed knobs from
//! [`BackendExtras`](crate::runtime::BackendExtras)), runs a per-rank task
//! factory to completion, and reports the uniform [`DriverOutcome`]. The
//! [`DRIVERS`] registry holds one static driver per [`RuntimeKind`];
//! [`driver_for`] is the only lookup, and [`crate::experiment::run_on`], the
//! bench grids and the e2e helpers all iterate [`RuntimeKind::ALL`] — so
//! adding a backend is one module implementing the trait plus one registry
//! entry, with no dispatch edits anywhere else.

use crate::app::IterativeTask;
use crate::metrics::RunMeasurement;
use crate::runtime::{loopback, reactor, sim, threads, udp, RunConfig};
use netsim::NetStats;
use serde::{Deserialize, Serialize};

/// The runtime backend an experiment executes on. All five drive the same
/// [`crate::runtime::engine::PeerEngine`]; they differ only in the substrate
/// carrying the P2PSAP segments and in the clock behind the measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RuntimeKind {
    /// Virtual-time discrete-event simulation over the netsim fabric
    /// (deterministic, models latency/bandwidth/loss — the evaluation
    /// harness default).
    Sim,
    /// One OS thread per peer, channel-routed segments with scaled link
    /// latency (wall-clock).
    Threads,
    /// Single-threaded in-process round-robin with instant delivery
    /// (deterministic, fastest).
    Loopback,
    /// Real localhost UDP sockets with framing, bootstrap discovery and an
    /// optional loss/reorder shim: the reactor's drive loop at one event
    /// loop (one OS thread) per peer (wall-clock).
    Udp,
    /// Readiness-polled event loops multiplexing many peers per OS thread
    /// over nonblocking UDP sockets — the scale backend for hundreds to
    /// thousands of peers (wall-clock).
    Reactor,
}

impl RuntimeKind {
    /// Every backend, in the order the bench matrix reports them.
    pub const ALL: [RuntimeKind; 5] = [
        RuntimeKind::Sim,
        RuntimeKind::Threads,
        RuntimeKind::Loopback,
        RuntimeKind::Udp,
        RuntimeKind::Reactor,
    ];

    /// Stable lowercase label (JSON artifacts, bench ids) — delegated to the
    /// registered driver so the label and the implementation cannot drift.
    pub fn label(&self) -> &'static str {
        driver_for(*self).label()
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
    /// Simulated virtual time (deterministic, models the network).
    Virtual,
    /// Real wall-clock time.
    Wall,
    /// A monotone engine-event counter (deterministic, not a duration).
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
    /// simulated backend only; socket backends use the real network stack).
    pub net: Option<NetStats>,
    /// Datagrams dropped by the deterministic loss shim (socket backends
    /// with impairment armed; zero everywhere else).
    pub datagrams_dropped: u64,
}

/// One runtime backend, as the dispatch layer sees it: construct the
/// substrate from the shared [`RunConfig`] (reading its own
/// [`BackendExtras`](crate::runtime::BackendExtras) variant), drive the
/// per-rank engines to termination, report the uniform outcome and its
/// clock/determinism traits.
pub trait RuntimeDriver: Sync {
    /// The [`RuntimeKind`] this driver implements.
    fn kind(&self) -> RuntimeKind;

    /// Stable lowercase label (JSON artifacts, bench ids).
    fn label(&self) -> &'static str;

    /// The clock behind this backend's elapsed-time measurement.
    fn clock(&self) -> ClockDomain;

    /// Whether same-seed runs are bit-for-bit reproducible.
    fn deterministic(&self) -> bool;

    /// Run a distributed iterative computation on this backend.
    fn run(&self, config: &RunConfig, task_factory: TaskFactory<'_>) -> DriverOutcome;
}

/// The backend registry: one static driver per [`RuntimeKind`], in
/// [`RuntimeKind::ALL`] order.
pub static DRIVERS: [&dyn RuntimeDriver; 5] = [
    &sim::SimDriver,
    &threads::ThreadsDriver,
    &loopback::LoopbackDriver,
    &udp::UdpDriver,
    &reactor::ReactorDriver,
];

/// Resolve the registered driver of a [`RuntimeKind`].
pub fn driver_for(kind: RuntimeKind) -> &'static dyn RuntimeDriver {
    *DRIVERS
        .iter()
        .find(|driver| driver.kind() == kind)
        .expect("every RuntimeKind has a registered driver")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every kind resolves to a driver that agrees on its identity, and the
    /// labels are stable (they name JSON artifact rows and bench ids, so a
    /// rename is a data-compatibility break).
    #[test]
    fn every_runtime_kind_resolves_to_a_driver_with_a_stable_label() {
        let labels: Vec<&str> = RuntimeKind::ALL
            .iter()
            .map(|&kind| {
                let driver = driver_for(kind);
                assert_eq!(driver.kind(), kind, "registry entry mismatched");
                assert_eq!(driver.label(), kind.label());
                driver.label()
            })
            .collect();
        assert_eq!(labels, ["sim", "threads", "loopback", "udp", "reactor"]);
    }

    /// The registry and `ALL` stay in lockstep: same length, same order, no
    /// duplicate registrations.
    #[test]
    fn registry_covers_all_kinds_exactly_once() {
        assert_eq!(DRIVERS.len(), RuntimeKind::ALL.len());
        for (driver, &kind) in DRIVERS.iter().zip(RuntimeKind::ALL.iter()) {
            assert_eq!(driver.kind(), kind);
        }
    }

    /// Clock/determinism traits: the dispatch layer and bench grids rely on
    /// these to pick agreement baselines (deterministic backends) vs
    /// wall-clock rows.
    #[test]
    fn clock_and_determinism_traits_are_reported() {
        assert!(driver_for(RuntimeKind::Sim).deterministic());
        assert!(driver_for(RuntimeKind::Loopback).deterministic());
        assert!(!driver_for(RuntimeKind::Udp).deterministic());
        assert!(!driver_for(RuntimeKind::Reactor).deterministic());
        assert_eq!(driver_for(RuntimeKind::Sim).clock(), ClockDomain::Virtual);
        assert_eq!(
            driver_for(RuntimeKind::Loopback).clock(),
            ClockDomain::EventCount
        );
        assert_eq!(driver_for(RuntimeKind::Threads).clock(), ClockDomain::Wall);
        assert_eq!(driver_for(RuntimeKind::Udp).clock(), ClockDomain::Wall);
        assert_eq!(driver_for(RuntimeKind::Reactor).clock(), ClockDomain::Wall);
    }
}
