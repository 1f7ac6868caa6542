//! The run scaffold: everything a backend does *around* its drive loop,
//! written once.
//!
//! A backend delivers bytes and supplies a clock. What the run is made of —
//! the shared convergence detector, the volatility coordinator and its
//! repartitioner, the choice between the central ping server and the gossip
//! control plane, how an engine is built or joins mid-run, the gossip turn,
//! and how the measurement is assembled — does not depend on the substrate,
//! so every `run_iterative_*` function builds one [`RunScaffold`] and calls
//! into it instead of repeating the wiring.

use crate::app::IterativeTask;
use crate::churn::{SharedVolatility, VolatilityState};
use crate::gossip::{GossipMessage, GossipNode, GossipTiming};
use crate::runtime::detection::{self, SharedTopologyManager};
use crate::runtime::driver::DriverOutcome;
use crate::runtime::engine::{ConvergenceDetector, PeerEngine, PeerTransport, SharedDetector};
use crate::runtime::RunConfig;
use netsim::{NetStats, Topology};
use p2psap::Scheme;
use std::sync::Arc;
use std::thread::Scope;
use std::time::Instant;

/// The substrate-independent state of one run.
pub(crate) struct RunScaffold {
    pub(crate) scheme: Scheme,
    pub(crate) max_relaxations: u64,
    pub(crate) seed: u64,
    /// Number of peers the run starts with.
    pub(crate) alpha: usize,
    /// The run's topology including one dormant slot per scheduled join
    /// ([`RunConfig::provisioned_topology`]); backends size their substrate
    /// from it.
    pub(crate) topology: Topology,
    pub(crate) shared: SharedDetector,
    /// `Some` when the run is churn-armed.
    pub(crate) volatility: Option<SharedVolatility>,
    /// The central ping server (wall-clock backends, centralized control
    /// plane, churn armed — see [`RunScaffold::wall_clock`]).
    pub(crate) topo: Option<SharedTopologyManager>,
    /// Fanout and cadence of the gossip control plane, when the run uses it.
    gossip: Option<(usize, GossipTiming)>,
}

/// What a pre-provisioned join rank finds when it polls for its join.
pub(crate) enum JoinPoll {
    /// The join has not fired yet.
    Pending,
    /// The join fired: the engine of the joined rank.
    Joined(Box<PeerEngine>),
    /// The run ended first, or no membership plan covers the rank: the rank
    /// never comes alive.
    Never,
}

impl RunScaffold {
    /// Build the run's shared state. `timing` is the gossip cadence in the
    /// backend's clock units (only read under the gossip control plane).
    pub(crate) fn new(config: &RunConfig, timing: GossipTiming) -> Self {
        let alpha = config.peers();
        assert!(alpha >= 1);
        let topology = config.provisioned_topology();
        let shared = ConvergenceDetector::shared_with_capacity(
            config.tolerance,
            config.scheme,
            alpha,
            topology.len(),
        );
        let volatility = config.churn.as_ref().map(|plan| {
            let vol = VolatilityState::shared(plan, alpha, config.scheme);
            if let Some(handle) = &config.repartitioner {
                vol.lock().set_repartitioner(handle.clone());
            }
            vol
        });
        // Under the gossip control plane the stop decision comes from each
        // rank's merged digest instead of the central fold.
        let gossip = config.control_plane.fanout().map(|fanout| {
            shared.lock().set_distributed_decision(true);
            (fanout, timing)
        });
        Self {
            scheme: config.scheme,
            max_relaxations: config.max_relaxations,
            seed: config.seed,
            alpha,
            topology,
            shared,
            volatility,
            topo: None,
            gossip,
        }
    }

    /// The scaffold of a wall-clock backend, where failure detection is
    /// real: churn-armed runs get a run-local topology-manager server the
    /// peers ping (every initial rank registered before any peer spawns; a
    /// joiner registers when its join fires) and a monitor sweeping it for
    /// missed pings ([`RunScaffold::spawn_monitor`]). Under the gossip
    /// control plane the ping server is retired for the run — SWIM probes
    /// detect silence and death rumors trigger the recovery grant.
    /// `multiplex` is how many peers share one heartbeat driver (see
    /// [`detection::server_with_all_ranks`]).
    pub(crate) fn wall_clock(config: &RunConfig, multiplex: usize) -> Self {
        let mut run = Self::new(config, GossipTiming::wall_clock());
        if run.gossip.is_none() && run.volatility.is_some() {
            run.topo = Some(detection::server_with_all_ranks(
                &config.topology,
                multiplex,
            ));
        }
        run
    }

    /// Provisioned rank count (initial peers plus join slots).
    pub(crate) fn total(&self) -> usize {
        self.topology.len()
    }

    /// Run the failure monitor on a thread of the backend's scope, when the
    /// ping server is armed.
    pub(crate) fn spawn_monitor<'scope>(
        &'scope self,
        scope: &'scope Scope<'scope, '_>,
        start: Instant,
    ) {
        if let (Some(vol), Some(topo)) = (&self.volatility, &self.topo) {
            scope.spawn(move || {
                detection::run_monitor(vol, topo, &self.shared, self.total(), start)
            });
        }
    }

    /// The engine of initial rank `rank`.
    pub(crate) fn engine(&self, rank: usize, task: Box<dyn IterativeTask>) -> PeerEngine {
        let mut engine = PeerEngine::new(
            rank,
            self.scheme,
            &self.topology,
            task,
            Arc::clone(&self.shared),
            self.max_relaxations,
        );
        if let Some(vol) = &self.volatility {
            engine.attach_volatility(Arc::clone(vol));
        }
        engine
    }

    /// The engine of a rank whose join fired: its task is the slice of the
    /// latest membership plan ([`PeerEngine::join_run`]), not the task
    /// factory's. `None` when no plan covers the rank.
    pub(crate) fn join_engine(&self, rank: usize) -> Option<PeerEngine> {
        PeerEngine::join_run(
            rank,
            self.scheme,
            &self.topology,
            Arc::clone(&self.shared),
            Arc::clone(self.volatility.as_ref()?),
            self.max_relaxations,
        )
    }

    /// A dormant join rank's poll on the backends where every rank watches
    /// for its own join (the deterministic backends dispatch the spawn
    /// centrally and call [`RunScaffold::join_engine`] directly).
    pub(crate) fn poll_join(&self, rank: usize) -> JoinPoll {
        let vol = self.volatility.as_ref().expect("join ranks imply churn");
        if vol.lock().take_spawn_if(rank) {
            self.join_engine(rank)
                .map_or(JoinPoll::Never, |engine| JoinPoll::Joined(Box::new(engine)))
        } else if self.shared.stopped() {
            JoinPoll::Never
        } else {
            JoinPoll::Pending
        }
    }

    /// The SWIM node of `rank`, when the run gossips its control plane.
    pub(crate) fn gossip_node(&self, rank: usize) -> Option<GossipNode> {
        self.gossip.map(|(fanout, timing)| {
            GossipNode::new(rank, self.alpha, self.total(), fanout, self.seed, timing)
        })
    }

    /// One gossip control-plane turn of a live peer: author the latest
    /// sweep, run the SWIM probe cycle (`send` carries each message on the
    /// backend's wire), feed death verdicts into the recovery coordinator
    /// (level-triggered — `grant` no-ops unless the rank really crashed, so
    /// a false verdict cannot corrupt recovery), and evaluate the stop
    /// decision over the merged digest. Returns whether the decision fired
    /// and finished the engine.
    pub(crate) fn gossip_turn<T: PeerTransport>(
        &self,
        node: &mut GossipNode,
        engine: &mut PeerEngine,
        transport: &mut T,
        mut send: impl FnMut(&mut T, usize, &GossipMessage),
    ) -> bool {
        if let Some(sweep) = engine.sweep_summary() {
            node.record_sweep(&sweep);
        }
        let now = transport.now_ns();
        for (to, msg) in node.poll(now) {
            send(transport, to, &msg);
        }
        if let Some(vol) = &self.volatility {
            for dead in node.dead_ranks() {
                vol.lock().grant(dead, &node.gossiped_loads(self.total()));
            }
        }
        let decided = node.decide(self.scheme, engine.generation());
        if decided {
            engine.on_distributed_decision(transport);
        }
        decided
    }

    /// Assemble the run's uniform outcome: the detector's measurement and
    /// per-rank results, annotated with the volatility account.
    /// `fallback_now_ns` is the backend's clock when the run ended without a
    /// recorded stop time.
    pub(crate) fn finish(
        &self,
        fallback_now_ns: u64,
        net: Option<NetStats>,
        datagrams_dropped: u64,
    ) -> DriverOutcome {
        let (mut measurement, results) = self
            .shared
            .lock()
            .finish_run(fallback_now_ns, self.max_relaxations);
        if let Some(vol) = &self.volatility {
            vol.lock().annotate(&mut measurement);
        }
        DriverOutcome {
            measurement,
            results,
            net,
            datagrams_dropped,
        }
    }
}

/// Hand one received gossip frame to the peer's SWIM node and `send` its
/// replies. Frames that fail to decode, and frames for a peer without a
/// node (centralized control plane), are dropped.
pub(crate) fn on_gossip_frame<T: PeerTransport>(
    node: Option<&mut GossipNode>,
    frame: &[u8],
    transport: &mut T,
    mut send: impl FnMut(&mut T, usize, &GossipMessage),
) {
    if let (Some(node), Some(msg)) = (node, GossipMessage::decode(frame)) {
        let now = transport.now_ns();
        for (to, reply) in node.on_message(&msg, now) {
            send(transport, to, &reply);
        }
    }
}
