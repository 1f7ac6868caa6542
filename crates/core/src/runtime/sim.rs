//! The virtual-time (simulated) runtime of P2PDC.
//!
//! Every peer is a [`desim::Process`] hosting a runtime-agnostic
//! [`PeerEngine`]; the network is a [`netsim`] fabric with the experiment
//! topology (one cluster, or two clusters joined by a netem path). This
//! module only implements the substrate side of the engine's
//! [`PeerTransport`]: wire segments become fabric packets, protocol timers
//! become desim timers, and relaxations are charged to the virtual clock by
//! the [`ComputeModel`]. All scheme-wait and convergence semantics live in
//! [`crate::runtime::engine`].
//!
//! The relaxation kernel runs for real (so relaxation counts and residuals
//! are genuine); only the clock is virtual: each relaxation advances the
//! peer's clock by the [`ComputeModel`] cost and every message experiences
//! the simulated network delays.

use crate::churn::ChurnEventKind;
use crate::compute::ComputeModel;
use crate::gossip::{GossipMessage, GossipNode, GossipTiming};
use crate::runtime::driver::{ClockDomain, DriverOutcome, RuntimeDriver, RuntimeKind, TaskFactory};
use crate::runtime::engine::{PeerEngine, PeerTransport, TimerKey};
use crate::runtime::scaffold::{self, RunScaffold};
use crate::runtime::RunConfig;
use bytes::Bytes;
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

/// The registered [`RuntimeDriver`] of the simulated backend. Reads the
/// virtual-time deadline from [`BackendExtras::Sim`](crate::BackendExtras).
pub struct SimDriver;

impl RuntimeDriver for SimDriver {
    fn kind(&self) -> RuntimeKind {
        RuntimeKind::Sim
    }

    fn label(&self) -> &'static str {
        "sim"
    }

    fn clock(&self) -> ClockDomain {
        ClockDomain::Virtual
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn run(&self, config: &RunConfig, task_factory: TaskFactory<'_>) -> DriverOutcome {
        run_iterative(config, task_factory)
    }
}

/// Signal broadcast to every peer once global convergence has been detected,
/// so peers idling on a synchronous wait (their neighbours have already
/// finished and will send nothing more) terminate and deposit their results.
struct StopSignal;

/// Signal broadcast by a recovered peer of a synchronous run: every peer
/// rolls back to the common checkpointed iteration under a new generation.
struct RollbackSignal {
    to_iteration: u64,
    generation: u32,
}

/// Signal sent to a pre-provisioned dormant rank when its join event fires:
/// the rank builds its engine from the membership plan and starts relaxing.
struct JoinSignal;

/// An encoded SWIM gossip message between peer processes (control plane,
/// like [`StopSignal`] — it does not ride the data fabric).
struct GossipSignal {
    bytes: Vec<u8>,
}

/// Substrate-side state of one simulated peer: fabric addressing, the
/// compute-cost model, sender-side pacing gates and desim timer bookkeeping.
struct SimNet {
    rank: usize,
    fabric: ProcessId,
    topology: Topology,
    compute: ComputeModel,
    /// Earliest time the next update may be sent to each asynchronous
    /// neighbour (sender-side pacing against the link serialization rate).
    next_send_ok: HashMap<usize, SimTime>,
    /// Timer bookkeeping: desim tag (slot) -> protocol timer key. Entries
    /// are reclaimed on fire and cancel, so the map is bounded by the
    /// in-flight timers.
    slots: HashMap<u64, TimerKey>,
    /// Monotonic desim tag allocator.
    next_slot: u64,
    /// Map protocol timer key -> (armed desim timer, its slot).
    armed: HashMap<TimerKey, (TimerId, u64)>,
}

impl SimNet {
    fn cpu_speed(&self) -> f64 {
        self.topology.node(NodeId(self.rank)).cpu_speed
    }
}

/// Send one gossip message as a [`GossipSignal`] (the `send` of the
/// scaffold's gossip turn on this backend).
fn send_gossip(transport: &mut SimTransport<'_, '_>, to: usize, msg: &GossipMessage) {
    transport.ctx.send(
        ProcessId(to),
        Box::new(GossipSignal {
            bytes: msg.encode(),
        }),
    );
}

/// The [`PeerTransport`] of the simulated runtime: a borrow of the peer's
/// [`SimNet`] state plus the desim [`Context`] of the current callback.
struct SimTransport<'a, 'c> {
    net: &'a mut SimNet,
    ctx: &'a mut Context<'c>,
}

impl PeerTransport for SimTransport<'_, '_> {
    fn now_ns(&mut self) -> u64 {
        self.ctx.now().as_nanos()
    }

    fn transmit(&mut self, to: usize, segment: Bytes) {
        let packet = Packet::new(NodeId(self.net.rank), NodeId(to), segment);
        self.ctx
            .send(self.net.fabric, Box::new(Transmit { packet }));
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
        let duration = self
            .net
            .compute
            .relaxation_time(work_points, self.net.cpu_speed());
        self.ctx.set_timer(duration, COMPUTE_TIMER_TAG);
    }

    fn broadcast_stop(&mut self) {
        for rank in 0..self.net.topology.len() {
            if rank != self.net.rank {
                self.ctx.send(ProcessId(rank), Box::new(StopSignal));
            }
        }
    }

    fn broadcast_rollback(&mut self, to_iteration: u64, generation: u32) {
        for rank in 0..self.net.topology.len() {
            if rank != self.net.rank {
                self.ctx.send(
                    ProcessId(rank),
                    Box::new(RollbackSignal {
                        to_iteration,
                        generation,
                    }),
                );
            }
        }
    }

    fn pacing_gate(&mut self, to: usize, wire_bytes: usize) -> bool {
        let now = self.ctx.now();
        let gate = self
            .net
            .next_send_ok
            .get(&to)
            .copied()
            .unwrap_or(SimTime::ZERO);
        if now < gate {
            return false;
        }
        let link = self
            .net
            .topology
            .link_between(NodeId(self.net.rank), NodeId(to));
        self.net
            .next_send_ok
            .insert(to, now + link.serialization_delay(wire_bytes));
        true
    }

    fn note(&mut self, counter: &'static str) {
        self.ctx.stats().add(counter, 1);
    }
}

/// One peer of the distributed computation: a [`PeerEngine`] plus the
/// simulated-substrate state it drives its transport with. Ranks that are
/// pre-provisioned for a scheduled join start *dormant* (`engine: None`)
/// and come alive on the [`JoinSignal`] the triggering peer sends.
struct PeerActor {
    rank: usize,
    run: Arc<RunScaffold>,
    engine: Option<PeerEngine>,
    net: SimNet,
    gossip: Option<GossipNode>,
    /// Scenario link faults shared with the fabric (armed by this rank's due
    /// link events, consulted for the fabric-bypassing gossip signals).
    faults: Option<SharedLinkFaults>,
}

impl PeerActor {
    fn transport<'a, 'c>(net: &'a mut SimNet, ctx: &'a mut Context<'c>) -> SimTransport<'a, 'c> {
        SimTransport { net, ctx }
    }

    /// The periodic gossip control-plane turn of a live peer.
    fn gossip_turn(&mut self, ctx: &mut Context<'_>) {
        let (Some(g), Some(engine)) = (self.gossip.as_mut(), self.engine.as_mut()) else {
            return;
        };
        if engine.finished() || engine.crashed() {
            return;
        }
        let mut transport = Self::transport(&mut self.net, ctx);
        self.run.gossip_turn(g, engine, &mut transport, send_gossip);
    }

    /// The engine just crashed: its protocol timers die with it, failure
    /// detection is granted through the coordinator, and the rank revives
    /// after the plan's modelled detection latency.
    fn schedule_recovery(&mut self, ctx: &mut Context<'_>) {
        self.net.slots.clear();
        self.net.armed.clear();
        let vol = self
            .run
            .volatility
            .as_ref()
            .expect("crash implies volatility");
        // Placement weights: gossiped load estimates under the
        // decentralized control plane, the central detector's otherwise.
        let loads = if let Some(g) = self.gossip.as_ref() {
            g.gossiped_loads(self.net.topology.len())
        } else {
            self.run.shared.lock().loads().to_vec()
        };
        let mut vol = vol.lock();
        vol.grant(self.rank, &loads);
        let delay = SimDuration::from_nanos(vol.detection_delay_ns());
        drop(vol);
        ctx.set_timer(delay, RECOVERY_TIMER_TAG);
    }

    /// Arm this rank's due link-fault events on the shared fault schedule
    /// (the engine never sees link faults — the transport layer owns them).
    fn apply_link_events(&mut self, ctx: &mut Context<'_>, relaxations: u64) {
        let Some(faults) = self.faults.as_ref() else {
            return;
        };
        let Some(vol) = self.run.volatility.as_ref() else {
            return;
        };
        if !vol.event_due(self.rank, relaxations) {
            return;
        }
        let now = ctx.now().as_nanos();
        let events = vol.lock().take_link_events(self.rank, relaxations);
        for event in events {
            match event.kind {
                ChurnEventKind::Partition {
                    group,
                    heal_after_ns,
                    ..
                } => faults.partition(group, now, heal_after_ns),
                ChurnEventKind::FlappingLink {
                    peer,
                    period_ns,
                    cycles,
                    ..
                } => faults.flap(self.rank, peer, now, period_ns, cycles),
                ChurnEventKind::AsymmetricLatency { peer, factor } => {
                    faults.asym_latency(self.rank, peer, factor)
                }
                ChurnEventKind::Corruption { flips } => faults.corrupt_next(
                    self.rank,
                    flips,
                    self.run.seed ^ ((self.rank as u64) << 32) ^ event.at_iteration,
                ),
                _ => {}
            }
        }
    }

    /// A join event fired somewhere in the run: wake the dormant rank it
    /// named (the joiner builds its engine from the membership plan).
    fn dispatch_spawn(&mut self, ctx: &mut Context<'_>) {
        if let Some(vol) = &self.run.volatility {
            let spawn = vol.lock().take_pending_spawn();
            if let Some(rank) = spawn {
                ctx.send(ProcessId(rank), Box::new(JoinSignal));
            }
        }
    }

    /// The dormant rank's join: adopt the plan's slice and start relaxing.
    fn join(&mut self, ctx: &mut Context<'_>) {
        if self.engine.is_some() {
            return;
        }
        let Some(mut engine) = self.run.join_engine(self.rank) else {
            return;
        };
        let mut transport = Self::transport(&mut self.net, ctx);
        engine.on_start(&mut transport);
        self.engine = Some(engine);
        self.gossip = self.run.gossip_node(self.rank);
        if self.gossip.is_some() {
            ctx.set_timer(GOSSIP_TICK, GOSSIP_TIMER_TAG);
        }
    }
}

impl Process for PeerActor {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if let Some(engine) = self.engine.as_mut() {
            let mut transport = Self::transport(&mut self.net, ctx);
            engine.on_start(&mut transport);
            if self.gossip.is_some() {
                ctx.set_timer(GOSSIP_TICK, GOSSIP_TIMER_TAG);
            }
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, payload: Payload) {
        let payload = match payload.downcast::<JoinSignal>() {
            Ok(_) => {
                self.join(ctx);
                return;
            }
            Err(payload) => payload,
        };
        let payload = match payload.downcast::<GossipSignal>() {
            Ok(signal) => {
                // Gossip signals bypass the data fabric, so the scenario
                // link faults are enforced here: traffic across a cut link
                // is lost, and that loss is what raises (false) suspicions
                // during a partition.
                if let Some(faults) = &self.faults {
                    if faults.blocked(from.index(), self.rank, ctx.now().as_nanos()) {
                        faults.record_blocked_drop();
                        return;
                    }
                }
                // A crashed (or finished, or dormant) peer is silent on the
                // gossip plane too — that silence is what drives suspicion.
                let alive = self
                    .engine
                    .as_ref()
                    .is_some_and(|e| !e.crashed() && !e.finished());
                if alive {
                    let mut transport = Self::transport(&mut self.net, ctx);
                    scaffold::on_gossip_frame(
                        self.gossip.as_mut(),
                        &signal.bytes,
                        &mut transport,
                        send_gossip,
                    );
                }
                return;
            }
            Err(payload) => payload,
        };
        let Some(engine) = self.engine.as_mut() else {
            // Dormant rank: nothing to deliver to yet.
            return;
        };
        let mut transport = Self::transport(&mut self.net, ctx);
        match payload.downcast::<Deliver>() {
            Ok(deliver) => {
                // A crashed peer is silent: traffic addressed to it is lost
                // (the engine's own guard also drops it; this keeps the
                // socket state untouched during downtime).
                if engine.crashed() {
                    return;
                }
                let from = deliver.packet.src.0;
                engine.on_segment(from, deliver.packet.payload, &mut transport);
            }
            Err(other) => match other.downcast::<StopSignal>() {
                Ok(_) => engine.on_stop_signal(&mut transport),
                Err(other) => {
                    if let Ok(rollback) = other.downcast::<RollbackSignal>() {
                        engine.on_rollback(
                            rollback.to_iteration,
                            rollback.generation,
                            &mut transport,
                        );
                    }
                }
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerId, tag: u64) {
        if tag == GOSSIP_TIMER_TAG {
            let live = self.engine.as_ref().is_some_and(|e| !e.finished());
            if live {
                self.gossip_turn(ctx);
                // Re-arm even through a crash window: the revived
                // incarnation resumes probing without a fresh trigger.
                ctx.set_timer(GOSSIP_TICK, GOSSIP_TIMER_TAG);
            }
            return;
        }
        let Some(engine) = self.engine.as_mut() else {
            return;
        };
        if engine.finished() {
            return;
        }
        if tag == RECOVERY_TIMER_TAG {
            let mut transport = Self::transport(&mut self.net, ctx);
            engine.recover(&mut transport);
            // Refute the death verdict with a bumped incarnation.
            if let Some(g) = self.gossip.as_mut() {
                g.on_recovered();
            }
            return;
        }
        if engine.crashed() {
            // Stale compute/protocol timers of the dead incarnation.
            return;
        }
        if tag == COMPUTE_TIMER_TAG {
            let mut transport = Self::transport(&mut self.net, ctx);
            engine.on_compute_done(&mut transport);
            let crashed = engine.crashed();
            let relaxations = engine.relaxations();
            self.apply_link_events(ctx, relaxations);
            // A join the sweep triggered names a dormant rank: wake it.
            self.dispatch_spawn(ctx);
            if crashed {
                self.schedule_recovery(ctx);
            }
            return;
        }
        // Protocol timer (retransmission etc.).
        let Some(key) = self.net.slots.remove(&tag) else {
            return;
        };
        self.net.armed.remove(&key);
        let mut transport = Self::transport(&mut self.net, ctx);
        engine.on_timer(key, &mut transport);
    }

    fn name(&self) -> String {
        format!("peer-{}", self.rank)
    }
}

/// Run a distributed iterative computation on the simulated runtime. The
/// factory builds the per-rank task (the application's `Calculate()`).
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
        let initial = rank < run.alpha;
        let actor = PeerActor {
            rank,
            engine: initial.then(|| run.engine(rank, task_factory(rank))),
            gossip: initial.then(|| run.gossip_node(rank)).flatten(),
            run: Arc::clone(&run),
            faults: faults.clone(),
            net: SimNet {
                rank,
                fabric: fabric_id,
                topology: run.topology.clone(),
                compute: config.compute,
                next_send_ok: HashMap::new(),
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
