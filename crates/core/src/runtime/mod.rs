//! The P2PDC runtimes: one peer loop, one run scaffold, three substrates.
//!
//! # Engine / scaffold / transport split
//!
//! The paper's claim that the programming model is independent of the
//! execution substrate is enforced structurally here:
//!
//! * [`engine`] — the runtime-agnostic layer. [`engine::PeerEngine`] drives
//!   one peer's [`crate::app::IterativeTask`]: the relaxation loop, the
//!   P2PSAP sockets (`P2P_Send` / `P2P_Receive`), the scheme-dependent wait
//!   conditions (synchronous waits for every neighbour, asynchronous never
//!   waits, hybrid waits intra-cluster only), the per-neighbour update
//!   buffers, and the convergence / termination handshake against the shared
//!   [`stop::ConvergenceDetector`] (the stop rule both control planes
//!   evaluate lives in [`stop`]). The engine is sans-io: it never
//!   blocks, never sleeps, and reaches the substrate only through the
//!   [`engine::PeerTransport`] trait (transmit or broadcast an
//!   [`engine::Wire`], arm/cancel a protocol timer, schedule compute
//!   completion, pace an asynchronous send).
//!
//! * `scaffold` + `host` + `walk` — what every backend does *around* and
//!   *in* its drive loop, written once: the run's shared state and outcome,
//!   the hosted peer (engine and SWIM node) and its transitions — an
//!   inbound wire, due timers, the finished sweep, the gossip turn, the
//!   verdict polls, crash → grant → revive — and the one drive loop of the
//!   polled backends, which turns a shard of peers in rank order.
//!
//! A backend is then "deliver bytes, supply a clock, call the scaffold":
//!
//! * [`sim`] — the virtual-time substrate used by the evaluation harness:
//!   every peer is a [`desim::Process`], segments ride the [`netsim`]
//!   fabric (serialization, latency, loss, optional netem impairment), and
//!   relaxations charge virtual time through the
//!   [`crate::compute::ComputeModel`].
//!
//! * [`loopback`] — the zero-latency in-process substrate used by quick
//!   tests and the fuzzer: the walk over in-memory queues, an event
//!   counter for a clock. The cheapest way to exercise the full peer loop,
//!   in the order the reactor ships.
//!
//! * [`reactor`] — the wall-clock substrate: the walk on readiness-polled
//!   event loops (the vendored `polling` epoll wrapper) each multiplexing
//!   many peers over nonblocking localhost UDP sockets, relaxations costing
//!   their real kernel time. Its event-loop count is a setting
//!   ([`BackendExtras::Reactor`]), up to one loop per provisioned peer.
//!
//! * [`udp`] — the wire layer under the socket drive loop (P2PSAP segments
//!   framed into datagrams with reassembly, peer discovery over the socket
//!   itself, an optional deterministic loss/reorder shim so the protocol's
//!   reliability machinery meets a genuinely lossy network stack).
//!
//! Every backend is one row of the [`driver`] table (its label and its
//! drive loop); the dispatch layer, the bench grids and the e2e helpers
//! iterate [`RuntimeKind::ALL`] instead of matching on backends, so adding
//! a polled substrate is one module implementing [`engine::PeerTransport`]
//! and the walk's substrate, and one table row (see the "adding a backend"
//! recipe in ARCHITECTURE.md).

pub mod driver;
pub mod engine;
pub(crate) mod host;
pub mod loopback;
pub mod reactor;
pub mod report_cell;
pub(crate) mod scaffold;
pub mod sim;
pub mod stop;
pub mod udp;
pub(crate) mod walk;

pub use driver::{ClockDomain, DriverOutcome, RuntimeKind, TaskFactory};
pub use engine::{PeerEngine, PeerTransport, TimerKey, Wire};
pub use report_cell::{ReportBoard, ReportCell};
pub use stop::{ConvergenceDetector, DetectorHandle, SharedDetector};
pub use udp::{LossShim, Reassembler};

use crate::churn::ChurnPlan;
use crate::compute::ComputeModel;
use crate::workload::ReslicerHandle;
use desim::SimDuration;
use netsim::{ClusterId, Topology};
use p2psap::Scheme;

/// How membership and the stop decision are carried during a run.
///
/// `Centralized` (the default) keeps the original machinery: every peer
/// deposits convergence evidence into the shared [`ConvergenceDetector`]
/// fold, and a crashed rank is declared dead after the churn plan's
/// detection delay. `Gossip` replaces both for the run: membership travels
/// as SWIM-style probes and rumors ([`crate::gossip`]) piggy-backed on the
/// backend's own wire path, and the stop decision emerges from merged
/// convergence digests — each peer evaluates the same criterion over its
/// own merged copy and the first satisfied peer broadcasts the stop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ControlPlane {
    /// Modelled detection delay + shared detector fold (the original design).
    #[default]
    Centralized,
    /// SWIM-style gossip membership + distributed convergence detection.
    Gossip {
        /// Probe/dissemination fanout per gossip round.
        fanout: usize,
    },
}

impl ControlPlane {
    /// Whether this run gossips instead of using the central control plane.
    pub fn is_gossip(&self) -> bool {
        matches!(self, ControlPlane::Gossip { .. })
    }

    /// The gossip fanout (`None` under the centralized plane).
    pub fn fanout(&self) -> Option<usize> {
        match self {
            ControlPlane::Gossip { fanout } => Some(*fanout),
            ControlPlane::Centralized => None,
        }
    }
}

/// Typed per-backend knobs layered on the shared [`RunConfig`]. Each
/// backend reads its own variant through the accessor
/// methods (which fall back to the backend's defaults for every other
/// variant), so one `RunConfig` drives all three backends and a config built
/// for one backend degrades gracefully on another.
#[derive(Debug, Clone, Default)]
pub enum BackendExtras {
    /// Every backend's defaults (the common case).
    #[default]
    Default,
    /// Simulated backend: the virtual-time deadline capping a run.
    Sim {
        /// Virtual-time cap.
        deadline: SimDuration,
    },
    /// Reactor backend: event-loop sizing plus the deterministic
    /// loss/reorder shim of the wire layer ([`LossShim`]).
    Reactor {
        /// Number of event-loop threads (0 = size from the host's
        /// available parallelism; clamped to the provisioned peers, so
        /// [`RunConfig::provisioned_peers`] is one loop per peer).
        event_loops: usize,
        /// Probability that the shim drops an outgoing datagram.
        loss_probability: f64,
        /// Probability that the shim holds a datagram back one slot.
        reorder_probability: f64,
    },
}

impl BackendExtras {
    /// Virtual-time deadline of the evaluation harness: long enough that
    /// every paper experiment converges well before it.
    pub const DEFAULT_SIM_DEADLINE: SimDuration = SimDuration::from_secs(100_000);

    /// The simulated backend's virtual-time deadline.
    pub fn sim_deadline(&self) -> SimDuration {
        match self {
            BackendExtras::Sim { deadline } => *deadline,
            _ => Self::DEFAULT_SIM_DEADLINE,
        }
    }

    /// The reactor backend's `(loss, reorder)` shim probabilities.
    pub fn impairment(&self) -> (f64, f64) {
        match self {
            BackendExtras::Reactor {
                loss_probability,
                reorder_probability,
                ..
            } => (*loss_probability, *reorder_probability),
            _ => (0.0, 0.0),
        }
    }

    /// The reactor backend's event-loop count, if pinned explicitly.
    pub fn event_loops(&self) -> Option<usize> {
        match self {
            BackendExtras::Reactor { event_loops, .. } if *event_loops > 0 => Some(*event_loops),
            _ => None,
        }
    }
}

/// The configuration every runtime backend shares: the scheme of
/// computation, the topology (peer count, cluster split, link model), the
/// convergence tolerance and the relaxation cap. Backend-specific knobs
/// travel in the typed [`BackendExtras`] enum (`extras`); each driver reads
/// its own variant and falls back to its defaults for every other, so the
/// same config runs on all three backends.
///
/// `seed` and `compute` are shared here rather than duplicated per backend:
/// the seed drives every deterministic random source (the simulated fabric,
/// the UDP loss/reorder shim) and the compute model charges virtual time on
/// the simulated runtime (wall-clock backends run the kernel for real and
/// ignore it).
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Scheme of computation selected by the programmer.
    pub scheme: Scheme,
    /// Network topology (defines the peer count and cluster split).
    pub topology: Topology,
    /// Convergence tolerance on the local successive differences.
    pub tolerance: f64,
    /// Hard cap on relaxations per peer (guards non-convergent runs).
    pub max_relaxations: u64,
    /// Master seed of the run's deterministic random sources (simulated
    /// fabric, UDP loss/reorder shim).
    pub seed: u64,
    /// Compute-cost model (virtual time per relaxed point; simulated
    /// runtime only).
    pub compute: ComputeModel,
    /// Peer-volatility schedule (crashes, slowdowns, joins) injected into
    /// the run. `None` (the default) runs with fixed membership; `Some` arms
    /// the fault injector, live checkpointing and the recovery path on every
    /// backend (see [`crate::churn`]).
    pub churn: Option<ChurnPlan>,
    /// The workload's live-repartitioning handle
    /// ([`crate::workload::Workload::repartitioner`]). `None` disables
    /// re-slicing: recovery restores the original blocks and join events are
    /// ignored. [`crate::experiment::run_on`] fills this in automatically
    /// for churn-armed runs.
    pub repartitioner: Option<ReslicerHandle>,
    /// Typed backend-specific knobs (sim deadline, reactor event-loop
    /// count and socket impairment). The default variant means "every
    /// backend's defaults".
    pub extras: BackendExtras,
    /// How membership and the stop decision are carried (central ping
    /// server + detector fold, or SWIM-style gossip).
    pub control_plane: ControlPlane,
}

impl RunConfig {
    /// Default relaxation cap of full experiment runs (previously inlined as
    /// a magic `2_000_000` at every dispatch site).
    pub const DEFAULT_MAX_RELAXATIONS: u64 = 2_000_000;

    /// Relaxation cap of the `quick` configurations used by tests and
    /// examples.
    pub const QUICK_MAX_RELAXATIONS: u64 = 500_000;

    /// Default convergence tolerance.
    pub const DEFAULT_TOLERANCE: f64 = 1e-4;

    /// Default master seed.
    pub const DEFAULT_SEED: u64 = 42;

    /// A configuration with the experiment defaults: tolerance `1e-4`, the
    /// full relaxation cap, seed 42 and the paper's compute model.
    pub fn new(scheme: Scheme, topology: Topology) -> Self {
        Self {
            scheme,
            topology,
            tolerance: Self::DEFAULT_TOLERANCE,
            max_relaxations: Self::DEFAULT_MAX_RELAXATIONS,
            seed: Self::DEFAULT_SEED,
            compute: ComputeModel::default(),
            churn: None,
            repartitioner: None,
            extras: BackendExtras::Default,
            control_plane: ControlPlane::Centralized,
        }
    }

    /// Experiment defaults for `peers` peers in a single NICTA-style cluster.
    pub fn single_cluster(scheme: Scheme, peers: usize) -> Self {
        Self::new(scheme, Topology::nicta_single_cluster(peers))
    }

    /// Experiment defaults for `peers` peers split into two clusters joined
    /// by a 100 ms path.
    pub fn two_clusters(scheme: Scheme, peers: usize) -> Self {
        Self::new(scheme, Topology::nicta_two_clusters(peers))
    }

    /// Experiment defaults for `peers` peers in `clusters` clusters (1 or 2,
    /// the two configurations of the paper's evaluation).
    pub fn clustered(scheme: Scheme, peers: usize, clusters: usize) -> Self {
        match clusters {
            1 => Self::single_cluster(scheme, peers),
            2 => Self::two_clusters(scheme, peers),
            other => panic!("unsupported cluster count {other}"),
        }
    }

    /// Quick configuration for tests and examples: `peers` peers in a single
    /// cluster with a reduced relaxation cap.
    pub fn quick(scheme: Scheme, peers: usize) -> Self {
        Self {
            max_relaxations: Self::QUICK_MAX_RELAXATIONS,
            ..Self::single_cluster(scheme, peers)
        }
    }

    /// Quick two-cluster configuration (exercises the hybrid wait rule).
    pub fn quick_two_clusters(scheme: Scheme, peers: usize) -> Self {
        Self {
            topology: Topology::nicta_two_clusters(peers),
            ..Self::quick(scheme, peers)
        }
    }

    /// Arm the run with a peer-volatility schedule.
    pub fn with_churn(mut self, plan: ChurnPlan) -> Self {
        self.churn = Some(plan);
        self
    }

    /// Attach typed backend-specific knobs.
    pub fn with_extras(mut self, extras: BackendExtras) -> Self {
        self.extras = extras;
        self
    }

    /// Run membership and convergence detection over SWIM-style gossip with
    /// the given fanout instead of the centralized control plane.
    pub fn with_gossip(mut self, fanout: usize) -> Self {
        self.control_plane = ControlPlane::Gossip {
            fanout: fanout.max(1),
        };
        self
    }

    /// Number of peers the run *starts* with (joins may grow it).
    pub fn peers(&self) -> usize {
        self.topology.len()
    }

    /// Number of join events the churn plan schedules.
    pub fn planned_joins(&self) -> usize {
        self.churn.as_ref().map(ChurnPlan::join_count).unwrap_or(0)
    }

    /// Number of ranks the run provisions: the initial peers plus one
    /// dormant slot per scheduled join.
    pub fn provisioned_peers(&self) -> usize {
        self.peers() + self.planned_joins()
    }

    /// The run's topology extended with one pre-provisioned node (in the
    /// first cluster, at reference speed) per scheduled join event. Drivers
    /// size their substrate — channels, inboxes, the simulated fabric, the
    /// bootstrap table — from this, so a joining peer has a slot to occupy;
    /// the extra ranks stay dormant until their join fires.
    pub fn provisioned_topology(&self) -> Topology {
        let mut topology = self.topology.clone();
        for _ in 0..self.planned_joins() {
            topology.push_node(ClusterId(0), 1.0);
        }
        topology
    }
}
