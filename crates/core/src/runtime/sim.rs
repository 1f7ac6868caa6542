//! The virtual-time (simulated) runtime of P2PDC.
//!
//! Every peer is a [`desim::Process`] hosting a runtime-agnostic
//! `PeerEngine`; the network is a [`netsim`] fabric with the experiment
//! topology (one cluster, or two clusters joined by a netem path). This
//! module only implements the substrate side of the engine's
//! [`PeerTransport`]: wire segments become fabric packets, every other
//! [`Wire`] a desim message straight to its process, protocol timers become
//! desim timers, and relaxations are charged to the virtual clock by the
//! [`ComputeModel`]. All scheme-wait and convergence semantics live in
//! [`crate::runtime::engine`]; desim calls back, and each callback — a
//! delivered wire, a fired timer, a finished sweep, the recovery delay — is
//! one sub-step of the shared hosted peer (`runtime::host`).
//!
//! The relaxation kernel runs for real (so relaxation counts and residuals
//! are genuine); only the clock is virtual: each relaxation advances the
//! peer's clock by the [`ComputeModel`] cost and every message experiences
//! the simulated network delays.

use crate::compute::ComputeModel;
use crate::gossip::GossipTiming;
use crate::runtime::driver::{ClockDomain, DriverOutcome, TaskFactory};
use crate::runtime::engine::{PeerTransport, TimerKey, Wire};
use crate::runtime::host::{HostedPeer, PacingGate};
use crate::runtime::scaffold::RunScaffold;
use crate::runtime::RunConfig;
use desim::{Context, Payload, Process, ProcessId, SimDuration, SimTime, Simulator, TimerId};
use netsim::{
    shared_stats, Deliver, LinkFaults, NetworkFabric, NodeId, Packet, SharedLinkFaults, Topology,
    Transmit,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Timer tag used for "local relaxation finished".
const COMPUTE_TIMER_TAG: u64 = u64::MAX;

/// Timer tag used for "the crashed peer's failure has been detected and its
/// rank recovers now" (the plan's modelled detection latency).
const RECOVERY_TIMER_TAG: u64 = u64::MAX - 1;

/// Timer tag of the periodic gossip control-plane turn (virtual time).
const GOSSIP_TIMER_TAG: u64 = u64::MAX - 2;

/// Virtual-time cadence of the gossip turn: a fraction of the probe period,
/// so ack and suspicion deadlines are observed promptly.
const GOSSIP_TICK: SimDuration = SimDuration::from_millis(1);

/// Signal sent to a pre-provisioned dormant rank when its join event fires:
/// the rank builds its engine from the membership plan and starts relaxing.
struct JoinSignal;

/// Substrate-side state of one simulated peer: fabric addressing, the
/// compute-cost model, sender-side pacing gates and desim timer bookkeeping.
struct SimNet {
    rank: usize,
    fabric: ProcessId,
    topology: Topology,
    compute: ComputeModel,
    /// Sender-side pacing against the link serialization rate.
    pacing: PacingGate,
    /// Timer bookkeeping: desim tag (slot) -> protocol timer key. Entries
    /// are reclaimed on fire and cancel, so the map is bounded by the
    /// in-flight timers.
    slots: HashMap<u64, TimerKey>,
    /// Monotonic desim tag allocator.
    next_slot: u64,
    /// Map protocol timer key -> (armed desim timer, its slot).
    armed: HashMap<TimerKey, (TimerId, u64)>,
}

/// The [`PeerTransport`] of the simulated runtime: a borrow of the peer's
/// [`SimNet`] state plus the desim [`Context`] of the current callback.
struct SimTransport<'a, 'c> {
    net: &'a mut SimNet,
    ctx: &'a mut Context<'c>,
}

impl PeerTransport for SimTransport<'_, '_> {
    /// A sweep costs the virtual duration of its work points: it runs at
    /// the begin and reads the ghosts of that instant only.
    const MODELS_COMPUTE_TIME: bool = true;

    fn now_ns(&mut self) -> u64 {
        self.ctx.now().as_nanos()
    }

    /// Segments ride the fabric (serialization, latency, loss, scenario
    /// link faults); the control plane — stop, rollback, gossip — models
    /// reliable out-of-band delivery and goes straight to its process.
    fn transmit(&mut self, to: usize, wire: Wire) {
        match wire {
            Wire::Segment(segment) => {
                let packet = Packet::new(NodeId(self.net.rank), NodeId(to), segment);
                self.ctx
                    .send(self.net.fabric, Box::new(Transmit { packet }));
            }
            control => self.ctx.send(ProcessId(to), Box::new(control)),
        }
    }

    fn arm_timer(&mut self, key: TimerKey, delay_ns: u64) {
        // Re-arming a key replaces its pending timer (the TimerQueue-based
        // transports behave the same way).
        if let Some((old_id, old_slot)) = self.net.armed.remove(&key) {
            self.ctx.cancel_timer(old_id);
            self.net.slots.remove(&old_slot);
        }
        let slot = self.net.next_slot;
        self.net.next_slot += 1;
        self.net.slots.insert(slot, key);
        let id = self.ctx.set_timer(SimDuration::from_nanos(delay_ns), slot);
        self.net.armed.insert(key, (id, slot));
    }

    fn cancel_timer(&mut self, key: TimerKey) {
        if let Some((id, slot)) = self.net.armed.remove(&key) {
            self.ctx.cancel_timer(id);
            self.net.slots.remove(&slot);
        }
    }

    fn schedule_compute(&mut self, work_points: u64) {
        let cpu_speed = self.net.topology.node(NodeId(self.net.rank)).cpu_speed;
        let duration = self.net.compute.relaxation_time(work_points, cpu_speed);
        self.ctx.set_timer(duration, COMPUTE_TIMER_TAG);
    }

    fn broadcast(&mut self, wire: &Wire) {
        for rank in 0..self.net.topology.len() {
            if rank != self.net.rank {
                self.ctx.send(ProcessId(rank), Box::new(wire.clone()));
            }
        }
    }

    fn pacing_gate(&mut self, to: usize, wire_bytes: usize) -> bool {
        self.net.pacing.admit(
            &self.net.topology,
            self.net.rank,
            to,
            wire_bytes,
            self.ctx.now().as_nanos(),
        )
    }
}

/// One peer of the distributed computation: a [`HostedPeer`] plus the
/// simulated-substrate state it drives its transport with. Ranks that are
/// pre-provisioned for a scheduled join start *dormant* (`host: None`) and
/// come alive on the [`JoinSignal`] the triggering peer sends.
struct PeerActor {
    rank: usize,
    run: Arc<RunScaffold>,
    host: Option<HostedPeer>,
    net: SimNet,
    /// Scenario link faults shared with the fabric (armed by this rank's due
    /// link events, consulted for the fabric-bypassing gossip wires).
    faults: Option<SharedLinkFaults>,
}

impl PeerActor {
    fn transport<'a, 'c>(net: &'a mut SimNet, ctx: &'a mut Context<'c>) -> SimTransport<'a, 'c> {
        SimTransport { net, ctx }
    }

    /// Start the hosted peer: first relaxation and, if it gossips, the cadence.
    fn start(&mut self, ctx: &mut Context<'_>) {
        let Some(host) = self.host.as_mut() else {
            return;
        };
        host.engine
            .on_start(&mut Self::transport(&mut self.net, ctx));
        if host.gossip.is_some() {
            ctx.set_timer(GOSSIP_TICK, GOSSIP_TIMER_TAG);
        }
    }
}

impl Process for PeerActor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, payload: Payload) {
        let payload = match payload.downcast::<JoinSignal>() {
            Ok(_) => {
                // The dormant rank's join: adopt the plan's slice and start
                // relaxing.
                if self.host.is_none() {
                    self.host = self.run.join_host(self.rank);
                    self.start(ctx);
                }
                return;
            }
            Err(payload) => payload,
        };
        // Everything else is a wire: a segment off the fabric, or a control
        // wire straight from a sibling process.
        let (from, wire) = match payload.downcast::<Deliver>() {
            Ok(deliver) => (deliver.packet.src.0, Wire::Segment(deliver.packet.payload)),
            Err(payload) => match payload.downcast::<Wire>() {
                Ok(wire) => (from.index(), *wire),
                Err(_) => return,
            },
        };
        let gossip = matches!(wire, Wire::Gossip(_));
        if let (true, Some(faults)) = (gossip, &self.faults) {
            // Gossip wires bypass the data fabric, so the scenario link
            // faults are enforced here: traffic across a cut link is lost,
            // and that loss is what raises (false) suspicions during a
            // partition.
            if faults.blocked(from, self.rank, ctx.now().as_nanos()) {
                faults.record_blocked_drop();
                return;
            }
        }
        let Some(host) = self.host.as_mut() else {
            // Dormant rank: nothing to deliver to yet.
            return;
        };
        // A crashed (or finished) peer is silent on the gossip plane too —
        // that silence is what drives suspicion.
        if gossip && (host.engine.crashed() || host.engine.finished()) {
            return;
        }
        host.deliver(from, wire, &mut Self::transport(&mut self.net, ctx));
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerId, tag: u64) {
        let Some(host) = self.host.as_mut() else {
            return;
        };
        if host.engine.finished() {
            return;
        }
        let mut transport = Self::transport(&mut self.net, ctx);
        if tag == GOSSIP_TIMER_TAG {
            host.gossip_turn(&self.run, &mut transport);
            // Re-arm even through a crash window: the revived incarnation
            // resumes probing without a fresh trigger.
            ctx.set_timer(GOSSIP_TICK, GOSSIP_TIMER_TAG);
            return;
        }
        if tag == RECOVERY_TIMER_TAG {
            host.revive(&mut transport);
            return;
        }
        if host.engine.crashed() {
            // Stale compute/protocol timers of the dead incarnation.
            return;
        }
        if tag == COMPUTE_TIMER_TAG {
            let crashed = host.complete_compute(&mut transport);
            if let Some(faults) = &self.faults {
                let relaxations = host.engine.relaxations();
                let now = ctx.now().as_nanos();
                self.run
                    .arm_link_events(self.rank, relaxations, faults, now, ClockDomain::Virtual);
            }
            // A join the sweep triggered names a dormant rank: wake it.
            if let Some(vol) = &self.run.volatility {
                let spawn = vol.lock().take_pending_spawn();
                if let Some(rank) = spawn {
                    ctx.send(ProcessId(rank), Box::new(JoinSignal));
                }
            }
            if crashed {
                // Its protocol timers die with the engine; the rank revives
                // after the plan's modelled detection latency.
                self.net.slots.clear();
                self.net.armed.clear();
                let delay = host.self_grant(&self.run, ClockDomain::Virtual);
                ctx.set_timer(SimDuration::from_nanos(delay), RECOVERY_TIMER_TAG);
            }
            return;
        }
        // Protocol timer (retransmission etc.).
        let Some(key) = self.net.slots.remove(&tag) else {
            return;
        };
        self.net.armed.remove(&key);
        host.fire_timer(key, &mut Self::transport(&mut self.net, ctx));
    }

    fn name(&self) -> String {
        format!("peer-{}", self.rank)
    }
}

/// Run a distributed iterative computation on the simulated runtime. The
/// factory builds the per-rank task (the application's `Calculate()`).
/// Reads the virtual-time deadline from
/// [`BackendExtras::Sim`](crate::BackendExtras).
pub(crate) fn run_iterative(config: &RunConfig, task_factory: TaskFactory<'_>) -> DriverOutcome {
    // Fabric nodes and (dormant) peer processes are provisioned for ranks
    // that may join mid-run.
    let run = Arc::new(RunScaffold::new(config, GossipTiming::virtual_time()));
    let total = run.total();
    let faults = config
        .churn
        .as_ref()
        .filter(|plan| plan.link_fault_count() > 0)
        .map(|_| LinkFaults::new());
    let stats = shared_stats();
    let mut sim = Simulator::new(config.seed);

    // Peer processes are added first (ids 0..total-1); the fabric gets id
    // total.
    let fabric_id = ProcessId(total);
    let mut endpoints = Vec::with_capacity(total);
    for rank in 0..total {
        let actor = PeerActor {
            rank,
            host: (rank < run.alpha).then(|| run.host(rank, task_factory(rank))),
            run: Arc::clone(&run),
            faults: faults.clone(),
            net: SimNet {
                rank,
                fabric: fabric_id,
                topology: run.topology.clone(),
                compute: config.compute,
                pacing: PacingGate::default(),
                slots: HashMap::new(),
                next_slot: 0,
                armed: HashMap::new(),
            },
        };
        let pid = sim.add_process(Box::new(actor));
        assert_eq!(pid.index(), rank);
        endpoints.push(pid);
    }
    let mut fabric = NetworkFabric::new(run.topology.clone(), endpoints, Arc::clone(&stats));
    if config.topology.cluster_count() > 1 {
        fabric = fabric.with_inter_cluster_netem(netsim::Netem::delay_100ms());
    }
    if let Some(faults) = &faults {
        fabric = fabric.with_faults(Arc::clone(faults));
    }
    let actual_fabric_id = sim.add_process(Box::new(fabric));
    assert_eq!(actual_fabric_id, fabric_id);

    let _ = sim.run_until(SimTime::ZERO + config.extras.sim_deadline());

    run.finish(
        sim.now().as_nanos(),
        Some(netsim::stats_snapshot(&stats)),
        0,
    )
}
