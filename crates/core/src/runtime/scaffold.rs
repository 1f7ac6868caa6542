//! The run scaffold: everything a backend does *around* its drive loop,
//! written once.
//!
//! A backend delivers bytes and supplies a clock. What the run is made of —
//! the shared convergence detector, the volatility coordinator and its
//! repartitioner, the choice between the central detector fold and the
//! gossip control plane, how a peer is built or joins mid-run, what verdict
//! a crashed rank waits for (its own grant after the plan's detection delay,
//! [`HostedPeer::self_grant`], or a death rumor), and how the measurement is
//! assembled — does not depend on the substrate, so every `run_iterative_*`
//! function builds one [`RunScaffold`] and calls into it instead of
//! repeating the wiring. The peers it builds are [`HostedPeer`]s: what a
//! drive loop does *with* a peer is written once too, in
//! [`crate::runtime::host`].

use crate::app::IterativeTask;
use crate::churn::{ChurnEvent, ChurnEventKind, SharedVolatility, VolatilityState};
use crate::gossip::{GossipNode, GossipTiming};
use crate::runtime::driver::{ClockDomain, DriverOutcome};
use crate::runtime::engine::PeerEngine;
use crate::runtime::host::{CrashVerdict, HostedPeer};
use crate::runtime::stop::{ConvergenceDetector, SharedDetector};
use crate::runtime::RunConfig;
use netsim::{LinkFaults, NetStats, Topology};
use p2psap::Scheme;
use std::sync::Arc;

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
    /// Fanout and cadence of the gossip control plane, when the run uses it.
    gossip: Option<(usize, GossipTiming)>,
}

/// What a pre-provisioned join rank finds when it polls for its join.
pub(crate) enum JoinPoll {
    /// The join has not fired yet.
    Pending,
    /// The join fired: the joined rank, ready to start.
    Joined(Box<HostedPeer>),
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
            gossip,
        }
    }

    /// Provisioned rank count (initial peers plus join slots).
    pub(crate) fn total(&self) -> usize {
        self.topology.len()
    }

    /// Initial rank `rank`, ready to start: its engine and, when the run
    /// gossips its control plane, its SWIM node.
    pub(crate) fn host(&self, rank: usize, task: Box<dyn IterativeTask>) -> HostedPeer {
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
        self.hosted(engine)
    }

    /// A rank whose join fired: its task is its slice of the latest
    /// membership plan ([`PeerEngine::join_run`]); `None` when none covers it.
    pub(crate) fn join_host(&self, rank: usize) -> Option<HostedPeer> {
        PeerEngine::join_run(
            rank,
            self.scheme,
            &self.topology,
            Arc::clone(&self.shared),
            Arc::clone(self.volatility.as_ref()?),
            self.max_relaxations,
        )
        .map(|engine| self.hosted(engine))
    }

    fn hosted(&self, engine: PeerEngine) -> HostedPeer {
        let gossip = self.gossip.map(|(fanout, timing)| {
            let rank = engine.rank();
            GossipNode::new(rank, self.alpha, self.total(), fanout, self.seed, timing)
                .with_scheme(self.scheme)
        });
        HostedPeer { engine, gossip }
    }

    /// A dormant join rank's poll of its join, which the walk makes every
    /// pass (`sim` dispatches the spawn from the triggering sweep and calls
    /// [`RunScaffold::join_host`] directly).
    pub(crate) fn poll_join(&self, rank: usize) -> JoinPoll {
        let vol = self.volatility.as_ref().expect("join ranks imply churn");
        if vol.lock().take_spawn_if(rank) {
            self.join_host(rank)
                .map_or(JoinPoll::Never, |peer| JoinPoll::Joined(Box::new(peer)))
        } else if self.shared.stopped() {
            JoinPoll::Never
        } else {
            JoinPoll::Pending
        }
    }

    /// A crashed rank's non-blocking poll of the run's verdict: the run
    /// stopped while it was down, its recovery was granted (by its own
    /// [`HostedPeer::self_grant`] or a death rumor), or neither yet. How to
    /// wait between polls is the backend's business.
    pub(crate) fn crash_verdict(&self, rank: usize) -> CrashVerdict {
        if self.shared.stopped() {
            CrashVerdict::Stopped
        } else if self
            .volatility
            .as_ref()
            .is_some_and(|vol| vol.lock().is_granted(rank))
        {
            CrashVerdict::Granted
        } else {
            CrashVerdict::Pending
        }
    }

    /// Arm the link-fault events of `rank` that are due at its
    /// `relaxations`-th sweep on `faults` at clock value `now` (the engine
    /// never sees link faults — the backend's link model owns them). A plan
    /// states every duration twice and `clock` says which one the caller's
    /// clock counts: [`ClockDomain::EventCount`] reads the `_events` fields,
    /// every other domain the `_ns` fields. Returns the events armed.
    pub(crate) fn arm_link_events(
        &self,
        rank: usize,
        relaxations: u64,
        faults: &LinkFaults,
        now: u64,
        clock: ClockDomain,
    ) -> Vec<ChurnEvent> {
        let Some(vol) = &self.volatility else {
            return Vec::new();
        };
        if !vol.event_due(rank, relaxations) {
            return Vec::new();
        }
        let pick = |ns: u64, events: u64| match clock {
            ClockDomain::EventCount => events,
            _ => ns,
        };
        let events = vol.lock().take_link_events(rank, relaxations);
        for event in &events {
            match event.kind {
                ChurnEventKind::Partition {
                    group,
                    heal_after_ns,
                    heal_after_events,
                } => faults.partition(group, now, pick(heal_after_ns, heal_after_events)),
                ChurnEventKind::FlappingLink {
                    peer,
                    period_ns,
                    period_events,
                    cycles,
                } => faults.flap(rank, peer, now, pick(period_ns, period_events), cycles),
                ChurnEventKind::AsymmetricLatency { peer, factor } => {
                    faults.asym_latency(rank, peer, factor)
                }
                ChurnEventKind::Corruption { flips } => faults.corrupt_next(
                    rank,
                    flips,
                    self.seed ^ ((rank as u64) << 32) ^ event.at_iteration,
                ),
                _ => {}
            }
        }
        events
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
