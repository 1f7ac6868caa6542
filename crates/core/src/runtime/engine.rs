//! The runtime-agnostic peer engine.
//!
//! The paper's central claim is that the programming model
//! (`Problem_Definition` / `Calculate` / `Results_Aggregation` with
//! `P2P_Send` / `P2P_Receive`) is independent of the substrate it runs on.
//! This module is that independence made concrete: [`PeerEngine`] owns
//! everything about driving one peer's [`IterativeTask`] that does *not*
//! depend on the runtime — the relaxation loop, the P2PSAP sockets, the
//! scheme-dependent wait conditions (synchronous / asynchronous / hybrid),
//! the per-neighbour update buffers, and the convergence / termination
//! protocol — while everything substrate-specific is reached through the
//! small [`PeerTransport`] trait.
//!
//! The engine is written in the same sans-io style as the P2PSAP
//! [`Socket`]: it never blocks and never owns a clock. The runtime driver
//! feeds it events (`on_start`, `on_segment`, `on_timer`,
//! `on_compute_done`, `on_stop_signal`, `on_rollback` — through the hosted
//! peer of `runtime::host`) and executes the actions the engine pushes
//! through its transport (transmit a [`Wire`], arm or cancel a protocol
//! timer, schedule the completion of a relaxation, broadcast a stop or a
//! rollback). [`crate::runtime`] lists the transports that exist.
//!
//! Global convergence detection lives in [`ConvergenceDetector`], shared
//! by all peers of a run. It is an omniscient observer (it consumes
//! no network resources), standing in for the coordinator-based detection a
//! deployment would use; the engine authors its own evidence row with the
//! same rule ([`crate::runtime::stop`]) for the gossip control plane.
//!
//! # Volatility and elastic membership
//!
//! When a run is churn-armed ([`crate::runtime::RunConfig::churn`]), the
//! engine deposits periodic checkpoints, consults the fault injector after
//! every sweep, supports [`PeerEngine::recover`] / [`PeerEngine::on_rollback`]
//! and adopts live repartitions ([`PeerEngine::poll_membership`]). Every
//! data payload carries the sender's rollback *generation*, so an update
//! published before a rollback but still in flight when it lands is dropped
//! rather than consumed as a post-rollback iteration boundary — this is
//! what keeps a realigned synchronous run's iterate sequence exactly equal
//! to the sequential one, and therefore keeps relaxation counts agreeing
//! across backends even after a mid-run re-slice. A peer that *joins* a run
//! enters through [`PeerEngine::join_run`], which builds its engine from
//! the published [`crate::churn::MembershipPlan`].
//!
//! # Examples
//!
//! Protocol timers are managed through the shared [`TimerQueue`] by the
//! transports that keep their own clock:
//!
//! ```
//! use p2pdc::runtime::engine::TimerQueue;
//!
//! let mut timers = TimerQueue::new();
//! timers.arm((1, 0, 7), 500); // neighbour 1, layer 0, tag 7 at t=500ns
//! timers.arm((2, 0, 9), 300);
//! assert_eq!(timers.earliest_deadline(), Some(300));
//! assert_eq!(timers.pop_due(400), Some((2, 0, 9)));
//! assert_eq!(timers.pop_due(400), None, "the 500ns timer is not due yet");
//! ```

use crate::app::{FrameSink, IterativeTask, LocalRelax};
use crate::churn::SharedVolatility;
use crate::fault::Checkpoint;
use crate::gossip::SweepSummary;
use crate::load_balance::PeerLoad;
use crate::runtime::stop::{ConvergenceDetector, Evidence, SharedDetector};
use bytes::Bytes;
use netsim::{NodeId, Topology};
use p2psap::{Scheme, Socket};
use std::collections::{HashMap, VecDeque};
use std::sync::MutexGuard;

/// Identifier of a protocol timer armed by a peer's socket:
/// `(neighbour rank, protocol layer, protocol tag)`.
pub type TimerKey = (usize, usize, u64);

/// Bytes of the rollback-generation tag the engine prefixes to every data
/// payload (see [`PeerEngine::on_compute_done`]'s publish step).
pub const GENERATION_TAG_BYTES: usize = 4;

/// What crosses between the peers of a run, on every backend: channels move
/// it as is, the simulator boxes it as a process message (segments ride the
/// fabric), sockets frame it as datagrams
/// ([`Datagram::from_wire`](crate::runtime::udp::Datagram::from_wire)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Wire {
    /// A P2PSAP data-channel segment.
    Segment(Bytes),
    /// The termination broadcast.
    Stop,
    /// The synchronous rollback broadcast of a recovered (or joined-on)
    /// run: `(restart iteration, new report generation)`.
    Rollback(u64, u32),
    /// An encoded [`GossipMessage`](crate::gossip::GossipMessage) (control
    /// plane, not data path).
    Gossip(Vec<u8>),
}

/// The substrate services a [`PeerEngine`] needs. Implementations execute
/// the engine's actions on a concrete runtime; all methods are non-blocking.
pub trait PeerTransport {
    /// Whether the substrate charges a sweep modelled compute time — where
    /// a sweep runs depends on it (see [`PeerTransport::schedule_compute`]).
    /// A fact about the substrate, not a setting: only the simulated runtime
    /// models compute; every wall-clock runtime and loopback complete a
    /// sweep at the peer's next turn.
    const MODELS_COMPUTE_TIME: bool = false;

    /// Current time in nanoseconds (virtual or wall-clock since run start).
    fn now_ns(&mut self) -> u64;

    /// Put one wire on the network towards rank `to`: a segment a P2PSAP
    /// socket produced, or a message of the peer's SWIM node. The receiving
    /// driver hands it to `HostedPeer::deliver`.
    fn transmit(&mut self, to: usize, wire: Wire);

    /// Arm a protocol timer; the driver must call
    /// [`PeerEngine::on_timer`] with `key` once `delay_ns` has elapsed,
    /// unless the timer is cancelled first.
    fn arm_timer(&mut self, key: TimerKey, delay_ns: u64);

    /// Cancel a previously armed protocol timer.
    fn cancel_timer(&mut self, key: TimerKey);

    /// A relaxation has begun; the driver must call
    /// [`PeerEngine::on_compute_done`] once it completes. Where the
    /// substrate [models compute time](PeerTransport::MODELS_COMPUTE_TIME),
    /// the sweep has already run on the ghosts held at the begin and
    /// `work_points` is its charged cost: completion comes after the
    /// modelled virtual duration, and ghosts arriving in between wait for
    /// the next sweep. Elsewhere completion comes at the peer's next turn
    /// and `work_points` is not read; a peer with asynchronous neighbours
    /// runs the sweep *in* the completion, on the ghosts that turn has just
    /// delivered, and publishes it at once (`work_points` is then 0).
    fn schedule_compute(&mut self, work_points: u64);

    /// Send `wire` to every other peer over the substrate's control path:
    /// [`Wire::Stop`] (convergence or the relaxation cap was reached, peers
    /// idling in a synchronous wait must terminate) or [`Wire::Rollback`]
    /// (a recovered peer restarted, the synchronous scheme realigns there).
    fn broadcast(&mut self, wire: &Wire);

    /// Sender-side pacing gate for updates to *asynchronous* neighbours: an
    /// update that would only queue behind the previous one on the link may
    /// be skipped (it would be obsolete before reaching the wire — exactly
    /// the situation the paper's unreliable asynchronous mode tolerates).
    /// Returns whether the update may be sent now; a `true` return may
    /// advance the transport's internal pacing gate. Defaults to always
    /// sending (no pacing).
    fn pacing_gate(&mut self, _to: usize, _wire_bytes: usize) -> bool {
        true
    }
}

/// Deadline queue for protocol timers: the timer half of the `Polled` core
/// (`runtime::host`) every transport that is polled for due work embeds
/// (loopback, the reactor's sockets). Re-arming a key replaces its
/// previous deadline; popping is in deadline order.
#[derive(Debug, Default)]
pub struct TimerQueue {
    ordered: std::collections::BTreeSet<(u64, TimerKey)>,
    deadlines: HashMap<TimerKey, u64>,
}

impl TimerQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm `key` to fire at `deadline_ns`, replacing any previous deadline.
    pub fn arm(&mut self, key: TimerKey, deadline_ns: u64) {
        if let Some(old) = self.deadlines.insert(key, deadline_ns) {
            self.ordered.remove(&(old, key));
        }
        self.ordered.insert((deadline_ns, key));
    }

    /// Cancel `key` if armed.
    pub fn cancel(&mut self, key: TimerKey) {
        if let Some(deadline) = self.deadlines.remove(&key) {
            self.ordered.remove(&(deadline, key));
        }
    }

    /// Pop the earliest timer whose deadline is at or before `now_ns`.
    pub fn pop_due(&mut self, now_ns: u64) -> Option<TimerKey> {
        let &(deadline, key) = self.ordered.iter().next()?;
        if deadline > now_ns {
            return None;
        }
        self.ordered.remove(&(deadline, key));
        self.deadlines.remove(&key);
        Some(key)
    }

    /// The earliest armed deadline, if any.
    pub fn earliest_deadline(&self) -> Option<u64> {
        self.ordered.iter().next().map(|&(deadline, _)| deadline)
    }
}

/// Drives one peer's [`IterativeTask`] on any substrate: relax, `P2P_Send`
/// the boundary updates through the P2PSAP sockets, `P2P_Receive` the
/// neighbours' updates, and repeat until global convergence. The scheme of
/// computation determines which neighbours the peer waits for:
///
/// * synchronous — wait for the iteration-`p` update of every neighbour
///   before relaxation `p+1` (Jacobi-like);
/// * asynchronous — never wait, always use the freshest received update;
/// * hybrid — wait only for same-cluster neighbours; cross-cluster updates
///   are used asynchronously (this is what the P2PSAP rules produce).
pub struct PeerEngine {
    rank: usize,
    max_relaxations: u64,
    /// Scheme of computation (kept for rebuilding the per-neighbour wait
    /// classification after a live repartition).
    scheme: Scheme,
    /// The run's topology, including any pre-provisioned join ranks (kept
    /// for classifying connections to neighbours gained by a repartition).
    topology: Topology,
    task: Box<dyn IterativeTask>,
    shared: SharedDetector,
    /// Result of the sweep currently being "executed" (published when the
    /// transport reports compute completion); `None` while a sweep that
    /// runs at its completion is pending.
    pending_relax: Option<LocalRelax>,
    /// One P2PSAP socket per neighbour rank.
    sockets: HashMap<usize, Socket>,
    /// Which neighbours must deliver an update before the next relaxation.
    sync_neighbors: Vec<usize>,
    /// Neighbours whose updates are used asynchronously (no waiting).
    async_neighbors: Vec<usize>,
    /// Updates incorporated from each asynchronous neighbour since the last
    /// above-tolerance sweep (freshness tracking for convergence detection).
    async_fresh: HashMap<usize, u64>,
    /// Largest change introduced by asynchronous updates since the last
    /// convergence report.
    max_ghost_change: f64,
    /// Queued updates from synchronous neighbours (FIFO, one per iteration):
    /// each the delivered slice of its received segment, not a copy.
    pending_sync: HashMap<usize, VecDeque<Bytes>>,
    /// Whether a relaxation is currently "executing" (compute pending).
    computing: bool,
    finished: bool,
    /// The run's volatility coordinator, when failure injection is active
    /// (see [`crate::churn`]). `None` = fault-free run, zero overhead.
    volatility: Option<SharedVolatility>,
    /// Set when the fault injector killed this peer; the engine goes silent
    /// until the driver calls [`PeerEngine::recover`].
    crashed: bool,
    /// This peer's rollback generation (see
    /// [`crate::runtime::stop::ConvergenceDetector::begin_generation`]).
    generation: u32,
    /// This peer's membership epoch (see
    /// [`crate::churn::MembershipPlan::epoch`]): bumped when the engine
    /// adopts a live repartition.
    epoch: u32,
    /// A rollback that arrived mid-sweep, applied at compute completion.
    pending_rollback: Option<(u64, u32)>,
    /// Clock value when the pending sweep started (busy-time accounting).
    compute_started_ns: u64,
    /// Pooled encode buffers for the publish step: the task serializes its
    /// boundary updates straight into these (generation tag in place), and
    /// buffers the wire released are reclaimed for the next round — the
    /// steady-state ghost exchange allocates nothing.
    frame_sink: FrameSink,
    /// Reusable snapshot of the detector's per-peer load estimates, refilled
    /// under the shared lock without allocating once warm. Snapshotting (vs
    /// holding the lock) keeps the shared and volatility locks un-nested.
    loads_scratch: Vec<PeerLoad>,
    /// Reusable holder of the payloads one socket event delivered.
    received: Vec<Bytes>,
    /// Digest author epoch under the gossip control plane: bumped by every
    /// recovery, so rows published by a crashed incarnation lose the digest
    /// merge against the recovered one (see
    /// [`crate::gossip::ConvergenceDigest::void_below_epoch`]).
    report_epoch: u32,
    /// Cumulative relaxed points / busy time (the load fields of this
    /// rank's digest row).
    total_points: u64,
    total_busy_ns: u64,
    /// This rank's convergence evidence, authored from every sweep — what
    /// the gossip layer piggy-backs (the centralized plane's detector
    /// authors its own copy from the reports).
    evidence: Evidence,
}

/// The wait rule of Table I: whether a peer running `scheme` waits for the
/// update of a neighbour it reaches over `connection` before its next
/// relaxation (synchronous: always; asynchronous: never; hybrid: within a
/// cluster only).
fn waits(scheme: Scheme, connection: netsim::ConnectionType) -> bool {
    match scheme {
        Scheme::Synchronous => true,
        Scheme::Asynchronous => false,
        Scheme::Hybrid => connection == netsim::ConnectionType::IntraCluster,
    }
}

impl PeerEngine {
    /// Create the engine of peer `rank`. The topology classifies each
    /// neighbour connection so the scheme's wait rule (Table I semantics)
    /// can be applied per neighbour.
    pub fn new(
        rank: usize,
        scheme: Scheme,
        topology: &Topology,
        task: Box<dyn IterativeTask>,
        shared: SharedDetector,
        max_relaxations: u64,
    ) -> Self {
        let mut engine = Self {
            rank,
            max_relaxations,
            scheme,
            topology: topology.clone(),
            task,
            shared,
            pending_relax: None,
            sockets: HashMap::new(),
            sync_neighbors: Vec::new(),
            async_neighbors: Vec::new(),
            async_fresh: HashMap::new(),
            max_ghost_change: 0.0,
            pending_sync: HashMap::new(),
            computing: false,
            finished: false,
            volatility: None,
            crashed: false,
            generation: 0,
            epoch: 0,
            pending_rollback: None,
            compute_started_ns: 0,
            frame_sink: FrameSink::new(),
            loads_scratch: Vec::new(),
            received: Vec::new(),
            report_epoch: 0,
            total_points: 0,
            total_busy_ns: 0,
            evidence: Evidence::NONE,
        };
        drop(engine.wire_neighbors());
        engine
    }

    /// Copy the detector's live per-peer load estimates into the engine's
    /// scratch buffer. The copy happens under the shared lock but performs
    /// no heap allocation once the buffer has warmed to the peer count.
    fn snapshot_loads(&mut self) {
        let shared = self.shared.lock();
        self.loads_scratch.clear();
        self.loads_scratch.extend_from_slice(shared.loads());
    }

    /// Create the engine of a peer that *joins* a running computation (a
    /// [`crate::churn::ChurnEventKind::Join`] event fired): its task is this
    /// rank's slice of the *latest* [`crate::churn::MembershipPlan`] — not
    /// necessarily the plan that introduced the rank, since another plan
    /// (e.g. a repartitioning recovery during the spawn window) may have
    /// replaced it; every plan published after the join slices for the
    /// grown rank count, so the newest one always covers the joiner.
    /// Returns `None` when no plan covers `rank`. The caller follows up
    /// with [`PeerEngine::on_start`], which checkpoints the restored state
    /// and begins relaxing.
    pub fn join_run(
        rank: usize,
        scheme: Scheme,
        topology: &Topology,
        shared: SharedDetector,
        volatility: SharedVolatility,
        max_relaxations: u64,
    ) -> Option<Self> {
        let (task, epoch, generation) = {
            let vol = volatility.lock();
            let plan = vol.plan()?;
            if rank >= plan.parts.len() {
                return None;
            }
            let rep = vol.adoption(0, plan.rollback.is_some())?;
            (
                rep.repartitioner
                    .task_for(rank, &rep.parts, &rep.global, rep.iteration),
                plan.epoch,
                plan.rollback.map(|(_, generation)| generation).unwrap_or(0),
            )
        };
        let mut engine = Self::new(rank, scheme, topology, task, shared, max_relaxations);
        engine.attach_volatility(volatility);
        engine.epoch = epoch;
        engine.generation = generation;
        Some(engine)
    }

    /// Wire the engine to its task's neighbours, at creation and again after
    /// every live repartition. Each neighbour gets a socket whose mode the
    /// P2PSAP controller derives from (scheme, connection) (Table I), and
    /// the wait rule sorts it into the synchronous or asynchronous set.
    /// Sockets, FIFO queues and freshness counters of neighbours that
    /// *persist* are kept — their reliable sessions must stay continuous —
    /// while lost neighbours are dropped and new ones get fresh sockets
    /// (both endpoints of a new edge open at adoption, so the sessions start
    /// consistently; a segment sent before the other end adopted is
    /// recovered by the reliable channel's retransmission). Returns the
    /// detector, locked once, with whether this rank has asynchronous
    /// neighbours already published.
    fn wire_neighbors(&mut self) -> MutexGuard<'_, ConvergenceDetector> {
        let neighbors = self.task.neighbors();
        self.sockets.retain(|nb, _| neighbors.contains(nb));
        self.pending_sync.retain(|nb, _| neighbors.contains(nb));
        self.async_fresh.retain(|nb, _| neighbors.contains(nb));
        self.sync_neighbors.clear();
        self.async_neighbors.clear();
        for &nb in &neighbors {
            let connection = self.topology.connection_type(NodeId(self.rank), NodeId(nb));
            self.sockets
                .entry(nb)
                .or_insert_with(|| Socket::open(self.scheme, connection));
            if waits(self.scheme, connection) {
                self.sync_neighbors.push(nb);
                self.pending_sync.entry(nb).or_default();
                self.async_fresh.remove(&nb);
            } else {
                self.async_neighbors.push(nb);
                self.async_fresh.entry(nb).or_insert(0);
                self.pending_sync.remove(&nb);
            }
        }
        // The block may be new state: freshness counters restart (every
        // asynchronous neighbour must deliver again before this rank may
        // claim stability).
        for counter in self.async_fresh.values_mut() {
            *counter = 0;
        }
        self.max_ghost_change = 0.0;
        let has_async = !self.async_neighbors.is_empty();
        self.evidence.has_async = has_async;
        let mut shared = self.shared.lock();
        shared.set_has_async_neighbors(self.rank, has_async);
        shared
    }

    /// Adopt the current membership plan: replace the task by this rank's
    /// new slice and rebuild the neighbour state. With `overlay` (the
    /// asynchronous/hybrid path), the engine's *live* block values are
    /// written over the plan's checkpoint-assembled global first, so only
    /// items that moved between ranks carry checkpoint staleness, and the
    /// relaxation counter is kept; without it (a rollback realignment, a
    /// recovering rank, or the joiner) the plan's state and iteration are
    /// taken as-is.
    fn adopt_ticket(&mut self, ticket: crate::churn::AdoptionTicket, overlay: bool) {
        let mut global = ticket.global;
        let iteration = if overlay {
            crate::workload::write_block_state(
                &mut global,
                &self.task.checkpoint_state(),
                ticket.repartitioner.item_width(),
            );
            self.task.relaxations()
        } else {
            ticket.iteration
        };
        self.task = ticket
            .repartitioner
            .task_for(self.rank, &ticket.parts, &global, iteration);
        // The adopted block is new state: any pre-adoption stability
        // evidence is void — convergence must be re-established on the
        // re-sliced data.
        self.wire_neighbors().void_all_stability();
        self.epoch = ticket.epoch;
    }

    /// Adopt a pending asynchronous/hybrid membership plan, if one is newer
    /// than this engine's epoch, and start relaxing on the new slice.
    /// Synchronous plans are NOT adopted here — they ride the rollback
    /// broadcast ([`PeerEngine::on_rollback`]) so every peer realigns on the
    /// common iteration. Drivers may call this from their idle paths (like
    /// [`PeerEngine::poll_rollback`]); the engine also polls it between
    /// sweeps. Returns whether a plan was adopted.
    pub fn poll_membership(&mut self, transport: &mut impl PeerTransport) -> bool {
        if self.finished || self.crashed || self.computing {
            return false;
        }
        let Some(vol) = self.volatility.clone() else {
            return false;
        };
        // Lock-free pre-check: adoption can only return a ticket when a plan
        // newer than this engine's epoch has been published, and the plan
        // epoch is mirrored in an atomic.
        if !vol.plan_newer_than(self.epoch) {
            return false;
        }
        let Some(ticket) = vol.lock().adoption(self.epoch, false) else {
            return false;
        };
        self.adopt_ticket(ticket, true);
        if self.shared.stopped() {
            self.finish(transport);
            return true;
        }
        self.begin_relaxation(transport);
        true
    }

    /// Attach the run's volatility coordinator: the engine will deposit
    /// periodic checkpoints, consult the fault injector after every sweep
    /// and support [`PeerEngine::recover`] / [`PeerEngine::on_rollback`].
    pub fn attach_volatility(&mut self, volatility: SharedVolatility) {
        self.volatility = Some(volatility);
    }

    /// This peer's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Whether the peer has terminated and deposited its result.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Whether a relaxation is currently executing (compute pending).
    pub fn computing(&self) -> bool {
        self.computing
    }

    /// Whether the fault injector killed this peer (awaiting recovery).
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Data segments this peer's sockets sent, and bare acknowledgements:
    /// the acknowledgements no data segment carried in time. Summed over the
    /// sockets of the current neighbours.
    pub fn sent_segments(&self) -> (u64, u64) {
        self.sockets
            .values()
            .map(Socket::sent_segments)
            .fold((0, 0), |(data, acks), (d, a)| (data + d, acks + a))
    }

    /// Relaxations performed so far by the task.
    pub fn relaxations(&self) -> u64 {
        self.task.relaxations()
    }

    /// The digest summary of the last completed sweep (the gossip control
    /// plane's authoring input; `None` before the first sweep).
    pub fn sweep_summary(&self) -> Option<SweepSummary> {
        (self.evidence.latest > 0).then(|| {
            SweepSummary::from_evidence(
                self.evidence,
                self.report_epoch,
                self.total_points,
                self.total_busy_ns,
            )
        })
    }

    /// This peer's current rollback generation.
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Start the peer: performs the first relaxation. When volatility is
    /// active, the initial state is checkpointed first so a rollback target
    /// exists even before the first interval checkpoint.
    pub fn on_start(&mut self, transport: &mut impl PeerTransport) {
        if let Some(vol) = &self.volatility {
            vol.lock().store_checkpoint(Checkpoint {
                rank: self.rank,
                iteration: self.task.relaxations(),
                state: self.task.checkpoint_state(),
            });
        }
        self.begin_relaxation(transport);
    }

    /// Execute the consequences of a socket call: transmit segments and
    /// arm/cancel timers through the transport.
    fn run_socket_output(
        &mut self,
        transport: &mut impl PeerTransport,
        neighbor: usize,
        output: p2psap::SocketOutput,
    ) {
        for segment in output.data {
            transport.transmit(neighbor, Wire::Segment(segment.clone()));
            // Wall-clock transports copy the segment into their send frame
            // and drop the handle; reclaim the storage for the session's
            // wire-buffer pool. Retaining transports (sim, loopback) keep a
            // reference, so reclamation simply fails and nothing is pooled.
            if let Ok(buf) = segment.try_reclaim() {
                if let Some(socket) = self.sockets.get_mut(&neighbor) {
                    socket.recycle_wire(buf);
                }
            }
        }
        // Control messages would travel over the reliable control channel; in
        // these experiments the configuration is static after opening, so none
        // are produced (covered by protocol unit tests).
        for timer in output.timers {
            transport.arm_timer((neighbor, timer.layer, timer.tag), timer.delay_ns);
        }
        for (layer, tag) in output.cancels {
            transport.cancel_timer((neighbor, layer, tag));
        }
    }

    /// Start the next relaxation. Where the substrate models compute time
    /// the sweep runs now, on the ghosts held at the begin, so its outputs
    /// are causally insulated from ghosts arriving during the modelled
    /// compute interval; its effects are published at the completion.
    /// Elsewhere a peer with asynchronous neighbours only marks the sweep
    /// pending, and it runs at the completion (see
    /// [`PeerEngine::on_compute_done`]). A peer without any runs it now
    /// too: no ghost it could read changes before the completion
    /// (synchronous updates queue for the next sweep), so deferring would
    /// gain nothing, and on a socket backend it would delay the plane that
    /// carries the reliable channel's acknowledgements — the sweep would
    /// run behind every other sweep of the event loop's pass instead of in
    /// the drain that delivered the releasing update.
    fn begin_relaxation<T: PeerTransport>(&mut self, transport: &mut T) {
        debug_assert!(!self.computing && !self.finished);
        self.computing = true;
        self.compute_started_ns = transport.now_ns();
        let mut work_points = 0;
        if T::MODELS_COMPUTE_TIME || self.async_neighbors.is_empty() {
            let (relax, charged) = self.sweep();
            self.pending_relax = Some(relax);
            work_points = charged;
        }
        transport.schedule_compute(work_points);
    }

    /// Run the relaxation on the ghosts held now. Returns it and the work
    /// the substrate charges for it.
    fn sweep(&mut self) -> (LocalRelax, u64) {
        let relax = self.task.relax();
        let mut work_points = relax.work_points;
        if let Some(vol) = &self.volatility {
            // A fired slowdown event scales the sweep's compute cost (the
            // simulated backend charges it to the virtual clock; wall-clock
            // backends run the kernel for real and ignore work points, but
            // the query still consumes the event). The handle answers from
            // its atomic per-rank cache unless a slowdown event is actually
            // due this iteration.
            let factor = vol.slowdown_factor(self.rank, self.task.relaxations());
            if factor > 1.0 {
                work_points = (work_points as f64 * factor).round() as u64;
            }
        }
        (relax, work_points)
    }

    /// The substrate's compute model says the pending sweep has finished:
    /// publish its results (`P2P_Send`), report to the convergence detector
    /// and advance if the scheme's wait condition allows it.
    ///
    /// A sweep the begin left pending runs here, first, on the ghosts the
    /// peer's turn has just delivered, and is published at once: an
    /// asynchronous update is then one turn old when a neighbour reads it,
    /// not two (one turn to be computed, one more to be sent). Synchronous
    /// inputs do not move — they were incorporated before the begin, and
    /// later ones queue — so iterates and relaxation counts stay what the
    /// problem determines.
    pub fn on_compute_done(&mut self, transport: &mut impl PeerTransport) {
        if self.finished || self.crashed {
            return;
        }
        self.computing = false;
        // A rollback that arrived mid-sweep supersedes the sweep: the state
        // it reads is being abandoned. A sweep that already ran was still
        // paid for — it counts towards the executed-work metric; one that
        // would run now is not run.
        if let Some((to_iteration, generation)) = self.pending_rollback.take() {
            if generation > self.generation {
                if let Some(relax) = self.pending_relax.take() {
                    let busy_ns = transport.now_ns().saturating_sub(self.compute_started_ns);
                    self.shared
                        .lock()
                        .record_load(self.rank, relax.work_points, busy_ns);
                }
                self.apply_rollback(to_iteration, generation, transport);
                return;
            }
        }
        let relax = match self.pending_relax.take() {
            Some(relax) => relax,
            None => self.sweep().0,
        };
        let iteration = self.task.relaxations();
        let busy_ns = transport.now_ns().saturating_sub(self.compute_started_ns);
        // Volatility: deposit the periodic checkpoint, then ask the injector
        // whether this sweep was the peer's last. A crash strikes *before*
        // the sweep's updates are published — they are lost with the peer,
        // but the sweep itself was executed and is accounted as work. The
        // lock-free `sweep_event_due` pre-check keeps the common sweep (no
        // checkpoint boundary, no armed event due) off the volatility mutex.
        if let Some(vol) = &self.volatility {
            if vol.sweep_event_due(self.rank, iteration) {
                let mut vol = vol.lock_sweep();
                if iteration.is_multiple_of(vol.checkpoint_interval()) {
                    vol.store_checkpoint(Checkpoint {
                        rank: self.rank,
                        iteration,
                        state: self.task.checkpoint_state(),
                    });
                }
                if vol.should_crash(self.rank, iteration) {
                    let now = transport.now_ns();
                    vol.on_crash(self.rank, now);
                    drop(vol);
                    self.crashed = true;
                    {
                        let mut shared = self.shared.lock();
                        shared.record_load(self.rank, relax.work_points, busy_ns);
                        shared.mark_crashed(self.rank);
                    }
                    return;
                }
            }
        }
        // P2P_Send of the boundary planes. The task serializes each update
        // into a pooled frame behind the pre-written generation tag (every
        // data payload carries the sender's rollback generation, so an update
        // published before a rollback can never be consumed as a
        // post-rollback iteration boundary — see `PeerEngine::receive_payload`).
        // Updates to asynchronous neighbours pass the transport's pacing
        // gate; skipped updates are superseded by the next relaxation's
        // planes anyway. Once the wire releases its reference the buffer is
        // reclaimed into the pool, so the steady-state exchange of a warm
        // engine performs zero heap allocations on this path.
        let mut sink = std::mem::take(&mut self.frame_sink);
        sink.begin(self.generation);
        self.task.encode_outgoing(&mut sink);
        for index in 0..sink.len() {
            let (dst, frame_len) = sink.peek(index);
            if self.async_neighbors.contains(&dst) {
                let wire = frame_len + netsim::WIRE_OVERHEAD_BYTES;
                if !transport.pacing_gate(dst, wire) {
                    continue;
                }
            }
            let (dst, frame) = sink.take(index);
            let payload = Bytes::from(frame);
            let now = transport.now_ns();
            let socket = self.sockets.get_mut(&dst).expect("socket per neighbour");
            let (_, out) = socket.send(payload.clone(), now);
            self.run_socket_output(transport, dst, out);
            // An unreliable channel copies the payload into its wire segment
            // and retains nothing, so the buffer comes straight back; a
            // reliable channel holds it for retransmission until the
            // acknowledgement, and the pool refills by allocation instead.
            if let Ok(buf) = payload.try_reclaim() {
                sink.recycle(buf);
            }
        }
        self.frame_sink = sink;
        // Stability: the local sweep changed little, every asynchronous
        // neighbour has delivered at least one fresh update since the last
        // dirty sweep, and those updates themselves changed the boundary by
        // less than the tolerance (otherwise the boundary data is still
        // moving and "convergence" would be an artefact of staleness).
        let tolerance = self.shared.tolerance();
        let clean = relax.local_diff <= tolerance;
        let stable = clean
            && self
                .async_neighbors
                .iter()
                .all(|nb| self.async_fresh[nb] >= 1)
            && self.max_ghost_change <= tolerance;
        if !clean {
            for counter in self.async_fresh.values_mut() {
                *counter = 0;
            }
        }
        self.max_ghost_change = 0.0;
        // Author this sweep's evidence row for the gossip control plane
        // (the centralized plane's drivers simply never read it). It lives
        // here because only the engine sees every sweep: gossip drivers
        // sample `sweep_summary` at their own cadence.
        self.total_points += relax.work_points;
        self.total_busy_ns += busy_ns;
        self.evidence = self
            .evidence
            .after(iteration, clean, stable, self.generation);
        // Report to the convergence detector and account the sweep into the
        // live per-peer load estimate. A dirty sweep goes into this rank's
        // lock-free report cell; only a clean (possibly-converging) sweep
        // takes the detector mutex.
        let now = transport.now_ns();
        let stop = self.shared.publish(
            self.rank,
            iteration,
            relax.local_diff,
            stable,
            now,
            self.generation,
            relax.work_points,
            busy_ns,
        );
        if stop || iteration >= self.max_relaxations {
            self.finish(transport);
            return;
        }
        if self.handle_join_trigger(iteration, transport) {
            return;
        }
        self.try_advance(transport);
    }

    /// This rank's relaxation clock may trigger a scheduled join: grow the
    /// run, publish the re-slice and adopt this rank's new share. For
    /// synchronous runs the realignment rides a rollback broadcast (every
    /// peer restarts from the deterministic common iteration under a new
    /// generation); asynchronous/hybrid peers pick the plan up at their next
    /// safe point. Returns whether a join fired (the engine then already
    /// started its next sweep or finished).
    fn handle_join_trigger(&mut self, iteration: u64, transport: &mut impl PeerTransport) -> bool {
        let Some(vol) = self.volatility.clone() else {
            return false;
        };
        // Lock-free pre-check: a join can only be due when this rank has an
        // armed event at or below `iteration` (`join_due` is exactly the
        // due-event pop restricted to joins).
        if !vol.event_due(self.rank, iteration) {
            return false;
        }
        if !vol.lock_sweep().join_due(self.rank, iteration) {
            return false;
        }
        self.snapshot_loads();
        let Some((new_peers, rollback)) =
            vol.lock().create_join_plan(iteration, &self.loads_scratch)
        else {
            // The workload cannot be repartitioned: the join is ignored.
            return false;
        };
        self.shared.lock().grow(new_peers);
        vol.lock().arm_spawn();
        if let Some((target, generation)) = rollback {
            // Synchronous realignment (same semantics as a recovery
            // rollback): queued pre-realign updates belong to abandoned
            // iterations, every peer republishes from the common restart.
            for queue in self.pending_sync.values_mut() {
                queue.clear();
            }
            self.generation = generation;
            self.shared.lock().begin_generation(generation, target);
            let ticket = vol.lock().adoption(self.epoch, true);
            if let Some(ticket) = ticket {
                self.adopt_ticket(ticket, false);
            }
            transport.broadcast(&Wire::Rollback(target, generation));
        } else {
            let ticket = vol.lock().adoption(self.epoch, false);
            if let Some(ticket) = ticket {
                self.adopt_ticket(ticket, true);
            }
        }
        if self.shared.stopped() {
            self.finish(transport);
            return true;
        }
        self.begin_relaxation(transport);
        true
    }

    /// Start the next relaxation if the scheme's waiting condition allows it.
    fn try_advance(&mut self, transport: &mut impl PeerTransport) {
        if self.computing || self.finished {
            return;
        }
        // A pending asynchronous/hybrid re-slice is adopted before waiting
        // on neighbours that may no longer exist under the new partition.
        if self.poll_membership(transport) {
            return;
        }
        // Check the stop flag set by other peers (lock-free mirror).
        if self.shared.stopped() {
            self.finish(transport);
            return;
        }
        // Synchronous neighbours: one queued update per neighbour is required.
        let ready = self
            .sync_neighbors
            .iter()
            .all(|nb| !self.pending_sync[nb].is_empty());
        if !ready {
            return;
        }
        // Incorporate exactly one update from each synchronous neighbour (the
        // iteration-p boundary needed for relaxation p+1).
        let sync_neighbors = self.sync_neighbors.clone();
        for nb in sync_neighbors {
            if let Some(payload) = self.pending_sync.get_mut(&nb).and_then(|q| q.pop_front()) {
                self.task.incorporate(nb, &payload);
            }
        }
        self.begin_relaxation(transport);
    }

    /// Terminate: deposit the result with the detector and, if this peer is
    /// the first to observe the stop, wake everyone else.
    fn finish(&mut self, transport: &mut impl PeerTransport) {
        if self.finished {
            return;
        }
        self.finished = true;
        let now = transport.now_ns();
        let broadcast_needed = self.shared.lock().deposit_result(
            self.rank,
            self.task.relaxations(),
            self.task.result(),
            now,
        );
        if broadcast_needed {
            // Wake every other peer: some may be idling on a synchronous wait
            // whose counterpart has already terminated.
            transport.broadcast(&Wire::Stop);
        }
    }

    /// Revive a crashed peer once the run's recovery path has decided its
    /// fate: restore the task from the checkpoint the coordinator hands
    /// back, and — for synchronous runs — broadcast the rollback that
    /// realigns every peer on the common checkpointed iteration. The driver
    /// calls this after the failure was detected (the plan's modelled
    /// delay, or a SWIM death verdict under gossip).
    pub fn recover(&mut self, transport: &mut impl PeerTransport) {
        if !self.crashed || self.finished {
            return;
        }
        let Some(vol) = self.volatility.clone() else {
            return;
        };
        let now = transport.now_ns();
        self.snapshot_loads();
        let (checkpoint, rollback) = vol
            .lock()
            .take_recovery(self.rank, now, &self.loads_scratch);
        // Live repartitioning: when the recovery published (or the crash
        // missed) a membership plan, the revived rank adopts its *new* slice
        // instead of restoring the original block — this is where the
        // capacity-weighted shares are applied for real.
        let adoption = {
            let vol = vol.lock();
            vol.adoption(self.epoch, rollback.is_some())
                .filter(|ticket| ticket.rollback == rollback)
        };
        if let Some(ticket) = adoption {
            self.adopt_ticket(ticket, false);
        } else if let Some(checkpoint) = checkpoint {
            // Tasks without restore support (the trait's default) keep their
            // live state: the rank rejoins without rewinding.
            let _ = self.task.restore(&checkpoint.state, checkpoint.iteration);
        }
        self.crashed = false;
        self.computing = false;
        self.pending_relax = None;
        self.pending_rollback = None;
        for counter in self.async_fresh.values_mut() {
            *counter = 0;
        }
        self.max_ghost_change = 0.0;
        // The recovered incarnation authors digest rows under a fresh epoch:
        // anything the crashed incarnation published is void evidence.
        self.report_epoch = self.report_epoch.wrapping_add(1);
        self.evidence = self.evidence.void(self.generation);
        if let Some((to_iteration, generation)) = rollback {
            // Rolling back: queued pre-rollback updates belong to abandoned
            // iterations and every peer will publish afresh from the common
            // restart point — drop them so the FIFO realigns. Without a
            // rollback (asynchronous/hybrid recovery) the queues must
            // SURVIVE: their updates were acknowledged by this peer's
            // session, the senders will never retransmit them, and a
            // synchronous-edge neighbour may be blocked waiting for this
            // peer to consume them.
            for queue in self.pending_sync.values_mut() {
                queue.clear();
            }
            self.generation = generation;
            self.shared
                .lock()
                .begin_generation(generation, to_iteration);
            transport.broadcast(&Wire::Rollback(to_iteration, generation));
        }
        // The run may have been stopped (relaxation cap) while this peer was
        // down; deposit the restored result instead of iterating on.
        if self.shared.stopped() {
            self.finish(transport);
            return;
        }
        self.begin_relaxation(transport);
    }

    /// Fallback for a lost rollback broadcast: check the detector's
    /// published rollback and apply it if this peer is behind. Idempotent
    /// and cheap (the [`PeerEngine::on_rollback`] generation guard makes a
    /// caught-up peer a no-op), so lossy-transport drivers call it from
    /// their idle path, exactly like the `stopped()` poll that backs up the
    /// stop broadcast.
    pub fn poll_rollback(&mut self, transport: &mut impl PeerTransport) {
        let pending = self.shared.current_rollback();
        if let Some((to_iteration, generation)) = pending {
            self.on_rollback(to_iteration, generation, transport);
        }
    }

    /// A rollback broadcast reached this peer: a synchronous run recovered a
    /// dead rank and every peer must restart from the common checkpointed
    /// iteration `to_iteration` under the new report generation.
    pub fn on_rollback(
        &mut self,
        to_iteration: u64,
        generation: u32,
        transport: &mut impl PeerTransport,
    ) {
        if self.finished || self.crashed || generation <= self.generation {
            return;
        }
        if self.computing {
            self.pending_rollback = Some((to_iteration, generation));
            return;
        }
        self.apply_rollback(to_iteration, generation, transport);
    }

    fn apply_rollback(
        &mut self,
        to_iteration: u64,
        generation: u32,
        transport: &mut impl PeerTransport,
    ) {
        self.generation = generation;
        // A rollback that carries a membership plan (recovery-with-reslice
        // or a join on a synchronous run) realigns *and* repartitions: the
        // peer adopts its new slice of the plan's common state instead of
        // its own checkpoint.
        let adoption = self.volatility.as_ref().and_then(|vol| {
            vol.lock()
                .adoption(self.epoch, true)
                .filter(|ticket| ticket.rollback == Some((to_iteration, generation)))
        });
        if let Some(ticket) = adoption {
            self.adopt_ticket(ticket, false);
        } else if let Some(checkpoint) = self
            .volatility
            .as_ref()
            .and_then(|vol| vol.lock().checkpoint_for_rollback(self.rank, to_iteration))
        {
            let _ = self.task.restore(&checkpoint.state, checkpoint.iteration);
        }
        // Queued pre-rollback updates belong to iterations the run is
        // abandoning; consuming them as post-rollback boundaries would leave
        // this peer permanently off-by-one on those edges. (Updates still in
        // flight when the rollback lands are a bounded-staleness straggler
        // the convergence test absorbs: a stale boundary keeps diffs above
        // tolerance rather than faking convergence.)
        for queue in self.pending_sync.values_mut() {
            queue.clear();
        }
        for counter in self.async_fresh.values_mut() {
            *counter = 0;
        }
        self.max_ghost_change = 0.0;
        if self.shared.stopped() {
            self.finish(transport);
            return;
        }
        self.begin_relaxation(transport);
    }

    /// `P2P_Receive` one delivered payload: strip and check the sender's
    /// rollback generation, then queue it (synchronous neighbour) or
    /// incorporate it immediately (asynchronous neighbour).
    ///
    /// The generation tag is what keeps a rollback exact on backends with
    /// real delivery latency: an update published *before* a rollback but
    /// still in flight when it lands would otherwise be consumed as a
    /// post-rollback iteration boundary, leaving that edge permanently
    /// skewed. Stale-generation payloads are dropped (the sender republishes
    /// from the common restart point); a payload from a *newer* generation
    /// means this peer has not applied the rollback yet — it catches up
    /// through the detector's published rollback first.
    fn receive_payload(&mut self, from: usize, payload: Bytes, transport: &mut impl PeerTransport) {
        if payload.len() < GENERATION_TAG_BYTES {
            return;
        }
        let generation = u32::from_le_bytes(
            payload[..GENERATION_TAG_BYTES]
                .try_into()
                .expect("tag length checked"),
        );
        if generation < self.generation {
            // A pre-rollback straggler: its iteration belongs to an
            // abandoned lineage.
            return;
        }
        if generation > self.generation {
            self.poll_rollback(transport);
        }
        let payload = payload.slice(GENERATION_TAG_BYTES..);
        if self.pending_sync.contains_key(&from) {
            self.pending_sync
                .get_mut(&from)
                .expect("checked")
                .push_back(payload);
        } else {
            // Asynchronous neighbour: freshest value wins immediately.
            let change = self.task.incorporate(from, &payload);
            self.max_ghost_change = self.max_ghost_change.max(change);
            if let Some(counter) = self.async_fresh.get_mut(&from) {
                *counter += 1;
            }
        }
    }

    /// One event on the session with `neighbor` (`event` makes the socket
    /// call): transmit and arm what the socket asks for, `P2P_Receive` what
    /// it delivers, advance if the scheme's wait condition now allows.
    fn socket_event(
        &mut self,
        neighbor: usize,
        transport: &mut impl PeerTransport,
        event: impl FnOnce(&mut Socket, u64) -> p2psap::SocketOutput,
    ) {
        let now = transport.now_ns();
        let Some(socket) = self.sockets.get_mut(&neighbor) else {
            return;
        };
        let out = event(socket, now);
        // Delivered application payloads (a retransmission may bring none),
        // taken out of the socket so its borrow ends before they are read.
        let mut received = std::mem::take(&mut self.received);
        received.extend(std::iter::from_fn(|| socket.receive()));
        self.run_socket_output(transport, neighbor, out);
        for payload in received.drain(..) {
            self.receive_payload(neighbor, payload, transport);
        }
        self.received = received;
        self.try_advance(transport);
    }

    /// A data segment arrived from neighbour `from`.
    pub fn on_segment(&mut self, from: usize, segment: Bytes, transport: &mut impl PeerTransport) {
        if self.crashed {
            return;
        }
        self.socket_event(from, transport, |socket, now| socket.on_data(segment, now));
    }

    /// A previously armed protocol timer fired.
    pub fn on_timer(&mut self, key: TimerKey, transport: &mut impl PeerTransport) {
        if self.finished || self.crashed {
            return;
        }
        let (neighbor, layer, tag) = key;
        self.socket_event(neighbor, transport, |socket, now| {
            socket.on_timer(layer, tag, now)
        });
    }

    /// The stop broadcast reached this peer. Peers in the middle of a sweep
    /// ignore it (their own compute completion performs the final report); a
    /// crashed peer terminates with whatever state it holds (the run ended —
    /// by cap — while it was down).
    pub fn on_stop_signal(&mut self, transport: &mut impl PeerTransport) {
        if self.finished {
            return;
        }
        if self.crashed {
            self.crashed = false;
            self.finish(transport);
            return;
        }
        if !self.computing {
            self.finish(transport);
        }
    }

    /// The gossip digest this peer merged satisfies the global stop
    /// criterion (see [`crate::gossip::ConvergenceDigest::decision`]): end
    /// the run. Unlike a received stop broadcast this may interrupt a sweep
    /// in flight — the abandoned sweep's evidence is redundant by
    /// definition (the digest already proved convergence), and
    /// `PeerEngine::finish`'s deposit flips the shared stop board, which
    /// every other peer observes at its next publish even if the stop
    /// broadcast is lost. A hosted turn that finds the stop board flipped
    /// with a sweep pending ends the same way (`HostedPeer::turn`).
    pub fn on_distributed_decision(&mut self, transport: &mut impl PeerTransport) {
        if self.finished || self.crashed {
            return;
        }
        self.computing = false;
        self.pending_relax = None;
        self.finish(transport);
    }
}

/// Test support shared by the engine's scripted-transport tests and the
/// loopback runtime's tests (which run the same scheme-semantics checks
/// through a real transport).
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::runtime::host::{Polled, PolledTransport};

    /// Scripted in-memory transport: records what the engine (or the hosted
    /// peer around it) does, in order, so tests can assert on it and shuttle
    /// segments between engines by hand. The clock ticks 1 ns per reading.
    #[derive(Default)]
    pub(crate) struct ScriptTransport {
        pub(crate) rank: usize,
        pub(crate) now_ns: u64,
        /// `(to, wire)` transmissions in order.
        pub(crate) sent: Vec<(usize, Wire)>,
        /// Broadcast wires in order.
        pub(crate) broadcasts: Vec<Wire>,
        /// `sent.len()` when each relaxation was scheduled.
        pub(crate) computes_after_sent: Vec<usize>,
        /// Armed timers (deadline = clock + delay) and the pending sweep.
        pub(crate) polled: Polled,
    }

    impl ScriptTransport {
        pub(crate) fn new(rank: usize) -> Self {
            Self {
                rank,
                ..Self::default()
            }
        }

        /// Drain the segments transmitted so far, as `(to, segment)`.
        pub(crate) fn drain_segments(&mut self) -> Vec<(usize, Bytes)> {
            let segment = |(to, wire)| match wire {
                Wire::Segment(segment) => Some((to, segment)),
                _ => None,
            };
            let sent = std::mem::take(&mut self.sent);
            sent.into_iter().filter_map(segment).collect()
        }
    }

    impl PolledTransport for ScriptTransport {
        fn polled(&mut self) -> &mut Polled {
            &mut self.polled
        }
    }

    impl PeerTransport for ScriptTransport {
        fn now_ns(&mut self) -> u64 {
            self.now_ns += 1;
            self.now_ns
        }
        fn transmit(&mut self, to: usize, wire: Wire) {
            self.sent.push((to, wire));
        }
        fn arm_timer(&mut self, key: TimerKey, delay_ns: u64) {
            self.polled.timers.arm(key, self.now_ns + delay_ns);
        }
        fn cancel_timer(&mut self, key: TimerKey) {
            self.polled.timers.cancel(key);
        }
        fn schedule_compute(&mut self, _work_points: u64) {
            assert!(
                !self.polled.compute_pending,
                "peer {} double compute",
                self.rank
            );
            self.polled.compute_pending = true;
            self.computes_after_sent.push(self.sent.len());
        }
        fn broadcast(&mut self, wire: &Wire) {
            self.broadcasts.push(wire.clone());
        }
    }

    /// A task whose local difference ramps down to zero after `ramp`
    /// relaxations; sends every neighbour its relaxation count and the
    /// first byte of the ghost its last sweep read (the sender's count), so
    /// a test can tell which ghost a published sweep was computed from.
    pub(crate) struct RampTask {
        pub(crate) rank: usize,
        pub(crate) neighbors: Vec<usize>,
        pub(crate) remaining: u64,
        pub(crate) relaxed: u64,
        /// First byte of the latest ghost incorporated (0 before any).
        pub(crate) ghost: u8,
        /// `ghost` as the last sweep read it.
        pub(crate) swept_ghost: u8,
        /// Wall-clock cost of one relaxation (zero unless a test models
        /// uneven per-rank work).
        pub(crate) relax_cost: std::time::Duration,
    }

    impl RampTask {
        pub(crate) fn new(rank: usize, neighbors: Vec<usize>, ramp: u64) -> Self {
            Self {
                rank,
                neighbors,
                remaining: ramp,
                relaxed: 0,
                ghost: 0,
                swept_ghost: 0,
                relax_cost: std::time::Duration::ZERO,
            }
        }

        /// A ramp task wired into a line topology (neighbours rank±1).
        pub(crate) fn line(rank: usize, peers: usize, ramp: u64) -> Self {
            let mut neighbors = Vec::new();
            if rank > 0 {
                neighbors.push(rank - 1);
            }
            if rank + 1 < peers {
                neighbors.push(rank + 1);
            }
            Self::new(rank, neighbors, ramp)
        }
    }

    impl IterativeTask for RampTask {
        fn relax(&mut self) -> LocalRelax {
            std::thread::sleep(self.relax_cost);
            self.remaining = self.remaining.saturating_sub(1);
            self.relaxed += 1;
            self.swept_ghost = self.ghost;
            LocalRelax {
                local_diff: self.remaining as f64,
                work_points: 1,
            }
        }
        fn encode_outgoing(&mut self, sink: &mut FrameSink) {
            for &nb in &self.neighbors {
                sink.frame(nb)
                    .extend_from_slice(&[self.relaxed as u8, self.swept_ghost]);
            }
        }
        fn incorporate(&mut self, _from: usize, payload: &[u8]) -> f64 {
            self.ghost = payload.first().copied().unwrap_or(0);
            0.0
        }
        fn neighbors(&self) -> Vec<usize> {
            self.neighbors.clone()
        }
        fn result(&self) -> Vec<u8> {
            vec![self.rank as u8, self.relaxed as u8]
        }
        fn relaxations(&self) -> u64 {
            self.relaxed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{RampTask, ScriptTransport};
    use super::*;
    use crate::runtime::stop::ConvergenceDetector;
    use std::sync::Arc;

    fn engine_pair(
        scheme: Scheme,
        topology: &Topology,
        ranks: (usize, usize),
        ramp: u64,
        tolerance: f64,
    ) -> (SharedDetector, PeerEngine, PeerEngine) {
        let shared = ConvergenceDetector::shared(tolerance, scheme, topology.len());
        let mk = |rank: usize, nb: usize| {
            PeerEngine::new(
                rank,
                scheme,
                topology,
                Box::new(RampTask::new(rank, vec![nb], ramp)),
                Arc::clone(&shared),
                1_000,
            )
        };
        let a = mk(ranks.0, ranks.1);
        let b = mk(ranks.1, ranks.0);
        (shared, a, b)
    }

    /// Deliver previously recorded transmissions addressed to `engine`.
    fn deliver(
        engine: &mut PeerEngine,
        transport: &mut ScriptTransport,
        traffic: &[(usize, Bytes)],
        from: usize,
        to: usize,
    ) {
        for (dst, segment) in traffic {
            if *dst == to {
                engine.on_segment(from, segment.clone(), transport);
            }
        }
    }

    #[test]
    fn synchronous_peers_wait_for_every_neighbour() {
        let topology = Topology::nicta_single_cluster(2);
        let (_, mut a, mut b) = engine_pair(Scheme::Synchronous, &topology, (0, 1), 10, 0.5);
        let (mut ta, mut tb) = (ScriptTransport::new(0), ScriptTransport::new(1));

        a.on_start(&mut ta);
        b.on_start(&mut tb);
        assert!(ta.polled.compute_pending && tb.polled.compute_pending);
        ta.polled.compute_pending = false;
        tb.polled.compute_pending = false;
        a.on_compute_done(&mut ta);
        b.on_compute_done(&mut tb);

        // Both published their first update and now WAIT: no second sweep may
        // start before the neighbour's update arrives.
        assert_eq!(a.relaxations(), 1);
        assert!(
            !a.computing(),
            "synchronous peer must wait for its neighbour"
        );
        let from_a = ta.drain_segments();
        let from_b = tb.drain_segments();
        assert!(!from_a.is_empty() && !from_b.is_empty());

        // B's update reaches A: the wait is satisfied, sweep 2 starts.
        deliver(&mut a, &mut ta, &from_b, 1, 0);
        assert!(
            a.computing(),
            "update from the only neighbour unblocks the peer"
        );
        assert_eq!(a.relaxations(), 2);

        // The reliable synchronous channel owes B the acknowledgement: no
        // bare ack leaves, A's next update carries it.
        assert!(ta.sent.is_empty(), "no bare ack to B");
        ta.polled.compute_pending = false;
        a.on_compute_done(&mut ta);
        let to_b = ta.drain_segments();
        assert_eq!(to_b.len(), 1);
        let update = p2psap::data::WireSegment::decode(to_b[0].1.clone()).expect("decodes");
        let acked: Vec<u64> = update.acks.as_slice().iter().map(|ack| ack.seq).collect();
        let first_from_b = p2psap::data::WireSegment::decode(from_b[0].1.clone())
            .expect("decodes")
            .seq;
        assert_eq!(acked, [first_from_b], "update 2 carries the ack to B");
    }

    #[test]
    fn asynchronous_peers_never_wait() {
        let topology = Topology::nicta_single_cluster(2);
        let (_, mut a, _b) = engine_pair(Scheme::Asynchronous, &topology, (0, 1), 10, 0.5);
        let mut ta = ScriptTransport::new(0);

        a.on_start(&mut ta);
        for sweep in 1..=5u64 {
            assert!(ta.polled.compute_pending);
            ta.polled.compute_pending = false;
            a.on_compute_done(&mut ta);
            // The completion published the sweep, and the next one is
            // pending at once — the asynchronous scheme never waits for a
            // delivery.
            assert_eq!(a.relaxations(), sweep);
            assert_eq!(ta.drain_segments().len(), 1);
            assert!(a.computing());
        }
    }

    #[test]
    fn hybrid_peers_wait_intra_cluster_only() {
        // nicta_two_clusters(4): ranks {0,1} in cluster 0, {2,3} in cluster 1.
        let topology = Topology::nicta_two_clusters(4);
        assert_eq!(
            topology.connection_type(NodeId(1), NodeId(0)),
            netsim::ConnectionType::IntraCluster
        );
        assert_eq!(
            topology.connection_type(NodeId(1), NodeId(2)),
            netsim::ConnectionType::InterCluster
        );
        let shared = ConvergenceDetector::shared(0.5, Scheme::Hybrid, 4);
        // Rank 1 has an intra-cluster neighbour (0) and a cross-cluster one (2).
        let mut peer = PeerEngine::new(
            1,
            Scheme::Hybrid,
            &topology,
            Box::new(RampTask::new(1, vec![0, 2], 10)),
            Arc::clone(&shared),
            1_000,
        );
        let mut intra = PeerEngine::new(
            0,
            Scheme::Hybrid,
            &topology,
            Box::new(RampTask::new(0, vec![1], 10)),
            Arc::clone(&shared),
            1_000,
        );
        let (mut tp, mut ti) = (ScriptTransport::new(1), ScriptTransport::new(0));

        peer.on_start(&mut tp);
        intra.on_start(&mut ti);
        tp.polled.compute_pending = false;
        ti.polled.compute_pending = false;
        peer.on_compute_done(&mut tp);
        intra.on_compute_done(&mut ti);
        assert!(
            !peer.computing(),
            "hybrid peer waits for its intra-cluster neighbour"
        );

        // The intra-cluster update alone unblocks it — no word from the
        // cross-cluster neighbour 2 is needed.
        let from_intra = ti.drain_segments();
        deliver(&mut peer, &mut tp, &from_intra, 0, 1);
        assert!(peer.computing(), "intra-cluster update suffices");
        assert_eq!(peer.relaxations(), 1, "sweep 1 published, sweep 2 pending");
        tp.polled.compute_pending = false;
        peer.on_compute_done(&mut tp);
        assert_eq!(peer.relaxations(), 2);
    }

    /// The scripted transport on a substrate that models compute time, as
    /// the simulated runtime does.
    struct Modelled(ScriptTransport);

    impl PeerTransport for Modelled {
        const MODELS_COMPUTE_TIME: bool = true;

        fn now_ns(&mut self) -> u64 {
            self.0.now_ns()
        }
        fn transmit(&mut self, to: usize, wire: Wire) {
            self.0.transmit(to, wire)
        }
        fn arm_timer(&mut self, key: TimerKey, delay_ns: u64) {
            self.0.arm_timer(key, delay_ns)
        }
        fn cancel_timer(&mut self, key: TimerKey) {
            self.0.cancel_timer(key)
        }
        fn schedule_compute(&mut self, work_points: u64) {
            self.0.schedule_compute(work_points)
        }
        fn broadcast(&mut self, wire: &Wire) {
            self.0.broadcast(wire)
        }
    }

    /// An asynchronous pair, four turns: in each, B's update `k` reaches A
    /// after A began sweep `k` and before its completion. Returns what A
    /// published at each completion, as `(A's relaxation, the relaxation of
    /// B whose ghost A's sweep read)`.
    fn echoes_of_ghosts_delivered_mid_sweep<T: PeerTransport>(
        mut ta: T,
        script: impl Fn(&mut T) -> &mut ScriptTransport,
    ) -> Vec<(u8, u8)> {
        let topology = Topology::nicta_single_cluster(2);
        let (_, mut a, mut b) = engine_pair(Scheme::Asynchronous, &topology, (0, 1), 10, 0.5);
        let mut tb = ScriptTransport::new(1);
        a.on_start(&mut ta);
        b.on_start(&mut tb);
        let mut echoes = Vec::new();
        for _ in 0..4 {
            tb.polled.compute_pending = false;
            b.on_compute_done(&mut tb);
            for (_, segment) in tb.drain_segments() {
                a.on_segment(1, segment, &mut ta);
            }
            script(&mut ta).polled.compute_pending = false;
            a.on_compute_done(&mut ta);
            for (_, segment) in script(&mut ta).drain_segments() {
                let update = p2psap::data::WireSegment::decode(segment).expect("decodes");
                let echo = &update.payload[GENERATION_TAG_BYTES..];
                echoes.push((echo[0], echo[1]));
            }
        }
        echoes
    }

    /// Where compute costs no modelled time, the update published in turn
    /// `k` is computed from the ghost delivered before turn `k`: a
    /// neighbour's update is one sweep old, not two.
    #[test]
    fn an_instant_substrate_sweeps_on_the_ghosts_of_its_own_turn() {
        let echoes = echoes_of_ghosts_delivered_mid_sweep(ScriptTransport::new(0), |t| t);
        assert_eq!(echoes, [(1, 1), (2, 2), (3, 3), (4, 4)]);
    }

    /// Where the substrate models compute time, the sweep reads its ghosts
    /// at the begin: one delivered during the compute interval waits for
    /// the next sweep (the simulated runtime's causal insulation).
    #[test]
    fn a_modelled_substrate_insulates_a_sweep_from_ghosts_arriving_mid_compute() {
        let echoes =
            echoes_of_ghosts_delivered_mid_sweep(Modelled(ScriptTransport::new(0)), |t| &mut t.0);
        assert_eq!(echoes, [(1, 0), (2, 1), (3, 2), (4, 3)]);
    }

    #[test]
    fn termination_handshake_broadcasts_once_and_collects_all_results() {
        let topology = Topology::nicta_single_cluster(2);
        // Ramp of 1: the first sweep already reports diff 0 <= tolerance.
        let (shared, mut a, mut b) = engine_pair(Scheme::Synchronous, &topology, (0, 1), 1, 0.5);
        let (mut ta, mut tb) = (ScriptTransport::new(0), ScriptTransport::new(1));

        a.on_start(&mut ta);
        b.on_start(&mut tb);
        ta.polled.compute_pending = false;
        a.on_compute_done(&mut ta);
        // A reported diff 0 but B has not: no convergence yet.
        assert!(!shared.stopped());
        assert!(!a.finished());

        tb.polled.compute_pending = false;
        b.on_compute_done(&mut tb);
        // B's report completes the iteration below tolerance: B detects the
        // stop, finishes, and is the one peer to broadcast.
        assert!(shared.stopped());
        assert!(b.finished());
        assert_eq!(tb.broadcasts, vec![Wire::Stop]);

        // The broadcast reaches A (idling in its synchronous wait): it
        // terminates without broadcasting again.
        a.on_stop_signal(&mut ta);
        assert!(a.finished());
        assert!(ta.broadcasts.is_empty());

        // Every result was deposited and the shared assembly reports a
        // converged run with the metric shape all runtimes share.
        let (measurement, results) = shared.lock().finish_run(99, 1_000);
        assert!(measurement.converged);
        assert_eq!(measurement.peers, 2);
        assert_eq!(measurement.relaxations_per_peer, vec![1, 1]);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].1, vec![0, 1]);
        assert_eq!(results[1].1, vec![1, 1]);
    }

    #[test]
    fn poll_rollback_catches_up_a_peer_that_missed_the_broadcast() {
        use crate::churn::{ChurnPlan, VolatilityState};

        let topology = Topology::nicta_single_cluster(2);
        let shared = ConvergenceDetector::shared(0.5, Scheme::Synchronous, 2);
        let volatility =
            VolatilityState::shared(&ChurnPlan::kill(1, 1_000), 2, Scheme::Synchronous);
        let mut peer = PeerEngine::new(
            0,
            Scheme::Synchronous,
            &topology,
            Box::new(RampTask::new(0, vec![1], 10)),
            Arc::clone(&shared),
            1_000,
        );
        peer.attach_volatility(Arc::clone(&volatility));
        let mut transport = ScriptTransport::new(0);
        peer.on_start(&mut transport);
        transport.polled.compute_pending = false;
        peer.on_compute_done(&mut transport);
        assert!(!peer.computing(), "waiting on its synchronous neighbour");

        // Nothing published yet: polling is a no-op.
        peer.poll_rollback(&mut transport);
        assert!(!peer.computing());

        // A recovery elsewhere started generation 1; this peer's rollback
        // datagram was lost. The poll fallback must catch it up: adopt the
        // generation and restart relaxing.
        shared.lock().begin_generation(1, 0);
        peer.poll_rollback(&mut transport);
        assert!(
            peer.computing(),
            "the stranded peer restarts after the poll"
        );
        assert_eq!(peer.generation(), 1, "the rollback was applied");

        // Idempotent: a second poll (or the late datagram) is a no-op.
        transport.polled.compute_pending = false;
        peer.on_compute_done(&mut transport);
        let relaxed_before = peer.relaxations();
        peer.poll_rollback(&mut transport);
        peer.on_rollback(0, 1, &mut transport);
        assert_eq!(peer.relaxations(), relaxed_before);
    }

    #[test]
    fn relaxation_cap_stops_a_non_convergent_run() {
        let topology = Topology::nicta_single_cluster(2);
        // Tolerance no ramp can reach, tiny cap.
        let shared = ConvergenceDetector::shared(-1.0, Scheme::Asynchronous, 2);
        let mut a = PeerEngine::new(
            0,
            Scheme::Asynchronous,
            &topology,
            Box::new(RampTask::new(0, vec![1], u64::MAX)),
            Arc::clone(&shared),
            3,
        );
        let mut ta = ScriptTransport::new(0);
        a.on_start(&mut ta);
        for _ in 0..3 {
            ta.polled.compute_pending = false;
            a.on_compute_done(&mut ta);
        }
        assert!(a.finished(), "the cap must terminate the peer");
        let (measurement, _) = shared.lock().finish_run(5, 3);
        assert!(
            !measurement.converged,
            "hitting the cap is reported as non-convergence"
        );
    }
}
