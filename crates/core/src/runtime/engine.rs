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
//! Global convergence detection lives in [`ConvergenceDetector`], shared by
//! all peers of a run. It is an omniscient observer (it consumes no network
//! resources), standing in for the coordinator-based detection a deployment
//! would use.
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
use crate::metrics::RunMeasurement;
use crate::runtime::report_cell::{contention, CellReport, ReportBoard};
use bytes::Bytes;
use desim::SimDuration;
use netsim::{NodeId, Topology};
use p2psap::{Scheme, Socket};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard};

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

    /// A relaxation of `work_points` grid points has been performed; the
    /// driver must call [`PeerEngine::on_compute_done`] once the substrate's
    /// compute-cost model says the sweep has finished (immediately for
    /// wall-clock runtimes, after the modelled virtual duration for the
    /// simulated one).
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
/// (threads, loopback, the socket backends). Re-arming a key replaces its
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

/// Shared state used for global convergence detection and result
/// collection, one per run.
pub struct ConvergenceDetector {
    tolerance: f64,
    scheme: Scheme,
    peers: usize,
    /// Which peers have at least one asynchronous (non-waiting) neighbour.
    has_async_neighbor: Vec<bool>,
    /// Per-iteration: (number of peers that completed it, max local diff).
    iteration_reports: HashMap<u64, (usize, f64)>,
    /// Latest "stable" flag per peer: the peer's last sweep was below the
    /// tolerance *and* it had incorporated at least one fresh update from
    /// every asynchronous neighbour since its last above-tolerance sweep.
    /// This guards against declaring convergence on stale boundary data.
    latest_stable: Vec<bool>,
    /// Consecutive stable reports per peer (asynchronous rule).
    streaks: Vec<u32>,
    /// Set when global convergence is detected.
    stop: bool,
    stop_time_ns: Option<u64>,
    /// Whether the stop signal has been broadcast to every peer.
    stop_broadcast: bool,
    /// Peers that have acknowledged the stop and deposited their result.
    results: Vec<Option<(u64, Vec<u8>)>>,
    /// Rollback generation: bumped by a synchronous recovery; reports
    /// carrying an older generation are stale and discarded.
    generation: u32,
    /// The common restart iteration of the current generation (meaningful
    /// when `generation > 0`). Published here so drivers whose rollback
    /// broadcast can be lost (a UDP datagram) have a polling fallback — the
    /// same safety net the stop signal has.
    rollback_target: u64,
    /// Highest iteration each peer has reported in the current generation:
    /// a recovered peer re-executing checkpointed iterations must not count
    /// twice towards iteration completeness.
    last_reported: Vec<u64>,
    /// Live per-peer load accounting (points relaxed, busy time) — the
    /// throughput estimates the load balancer and recovery path consume.
    loads: Vec<PeerLoad>,
    /// Under [`ControlPlane::Gossip`](super::ControlPlane) the stop decision
    /// belongs to the gossiped digests: `report` still folds evidence (the
    /// loads feed placement) but never flips the stop itself.
    distributed_decision: bool,
    /// The lock-free report cells engines publish dirty sweeps into; folded
    /// into the fields above whenever the detector mutex is taken.
    board: Arc<ReportBoard>,
    /// Per-rank serial of the last cell report folded in, so a cell is
    /// applied at most once per publication.
    folded_serials: Vec<u64>,
}

/// The sharing wrapper around a [`ConvergenceDetector`]: a lock-free
/// [`ReportBoard`] for the common-case sweep beside the mutex-protected
/// detector for everything that actually decides (convergence, rollback,
/// results). Every locked entry point folds outstanding cell reports first,
/// so locked code always observes the state it would see if every report
/// had taken the lock (`publish_agrees_with_locked_reports` checks it).
pub struct DetectorHandle {
    board: Arc<ReportBoard>,
    tolerance: f64,
    inner: Mutex<ConvergenceDetector>,
}

/// A [`ConvergenceDetector`] shared between the peers of one run.
pub type SharedDetector = Arc<DetectorHandle>;

impl DetectorHandle {
    /// Lock the detector, folding all outstanding cell reports so the guard
    /// observes up-to-date state.
    pub fn lock(&self) -> MutexGuard<'_, ConvergenceDetector> {
        contention::count_detector_lock();
        let mut detector = self.inner.lock().unwrap();
        detector.fold_cells();
        detector
    }

    /// Whether global convergence (or the cap) has stopped the run —
    /// lock-free mirror of [`ConvergenceDetector::stopped`].
    pub fn stopped(&self) -> bool {
        self.board.stopped()
    }

    /// Lock-free mirror of [`ConvergenceDetector::current_rollback`].
    pub fn current_rollback(&self) -> Option<(u64, u32)> {
        self.board.current_rollback()
    }

    /// Publish one sweep's load accounting and convergence report; returns
    /// true when the run has stopped. The common case — a dirty sweep
    /// (`diff > tolerance`) of a running run — is lock-free: the load
    /// counters and the report go into the peer's cell and are folded in by
    /// the next locked operation. A clean sweep can decide convergence, so
    /// it takes the locked path (which folds every outstanding cell first).
    #[allow(clippy::too_many_arguments)]
    pub fn publish(
        &self,
        rank: usize,
        iteration: u64,
        diff: f64,
        stable: bool,
        now_ns: u64,
        generation: u32,
        work_points: u64,
        busy_ns: u64,
    ) -> bool {
        if diff > self.tolerance {
            // A dirty sweep can never be stable (stability requires
            // `diff <= tolerance`) and can never complete an iteration below
            // the tolerance, so losing an overwritten intermediate report
            // cannot change any convergence decision.
            debug_assert!(!stable, "a dirty sweep cannot be stable");
            let cell = self.board.cell(rank);
            cell.add_load(work_points, busy_ns);
            if self.board.stopped() {
                // Stopped runs ignore reports (the locked path's early
                // return); the loads still count, exactly as `record_load`
                // before `report` did.
                return true;
            }
            cell.publish(iteration, diff, generation);
            return self.board.stopped();
        }
        contention::count_detector_report_lock();
        let mut detector = self.lock();
        detector.record_load(rank, work_points, busy_ns);
        detector.report(rank, iteration, diff, stable, now_ns, generation)
    }
}

impl ConvergenceDetector {
    /// Create the detector with report cells provisioned for `capacity`
    /// ranks (`capacity >= peers`). The cell array is lock-free and cannot
    /// be resized, so runs that may grow (planned joins) must provision the
    /// final peer count up front.
    pub fn with_capacity(tolerance: f64, scheme: Scheme, peers: usize, capacity: usize) -> Self {
        let capacity = capacity.max(peers);
        Self {
            tolerance,
            scheme,
            peers,
            has_async_neighbor: vec![false; peers],
            iteration_reports: HashMap::new(),
            latest_stable: vec![false; peers],
            streaks: vec![0; peers],
            stop: false,
            stop_time_ns: None,
            stop_broadcast: false,
            results: vec![None; peers],
            generation: 0,
            rollback_target: 0,
            last_reported: vec![0; peers],
            distributed_decision: false,
            loads: vec![PeerLoad::default(); peers],
            board: Arc::new(ReportBoard::new(capacity)),
            folded_serials: vec![0; capacity],
        }
    }

    /// Create a shared detector handle.
    pub fn shared(tolerance: f64, scheme: Scheme, peers: usize) -> SharedDetector {
        Self::shared_with_capacity(tolerance, scheme, peers, peers)
    }

    /// Create a shared detector handle provisioned for up to `capacity`
    /// ranks (see [`ConvergenceDetector::with_capacity`]).
    pub fn shared_with_capacity(
        tolerance: f64,
        scheme: Scheme,
        peers: usize,
        capacity: usize,
    ) -> SharedDetector {
        let detector = Self::with_capacity(tolerance, scheme, peers, capacity);
        Arc::new(DetectorHandle {
            board: detector.board.clone(),
            tolerance,
            inner: Mutex::new(detector),
        })
    }

    /// Whether global convergence (or the cap) has stopped the run.
    pub fn stopped(&self) -> bool {
        self.stop
    }

    /// Record the completion of relaxation number `iteration` (1-based) by
    /// peer `rank` with local difference `diff`; returns true when this
    /// report establishes global convergence. `stable` is computed by the
    /// peer (below tolerance, and fresh updates from every asynchronous
    /// neighbour since its last dirty sweep); `generation` is the peer's
    /// rollback generation — reports predating a synchronous
    /// rollback are stale and discarded.
    pub fn report(
        &mut self,
        rank: usize,
        iteration: u64,
        diff: f64,
        stable: bool,
        now_ns: u64,
        generation: u32,
    ) -> bool {
        if self.stop {
            return true;
        }
        if generation != self.generation {
            return self.stop;
        }
        self.latest_stable[rank] = stable;
        if stable {
            self.streaks[rank] = self.streaks[rank].saturating_add(1);
        } else {
            self.streaks[rank] = 0;
        }
        // A peer restored from a checkpoint (without a rollback broadcast —
        // an asynchronous or hybrid recovery) re-executes iterations it
        // already reported; counting them again would let an iteration
        // entry reach completeness with another peer's report missing.
        // Only a peer's *first* report of an iteration counts.
        let counted = iteration > self.last_reported[rank];
        if counted {
            self.last_reported[rank] = iteration;
        }
        let converged = match self.scheme {
            // Synchronous and hybrid schemes progress iteration by iteration:
            // stop at the first iteration whose global max difference is below
            // the tolerance (the same test the sequential solver applies). For
            // hybrid runs, peers with asynchronous (cross-cluster) neighbours
            // must additionally be stable, so stale inter-cluster boundaries
            // cannot fake convergence.
            Scheme::Synchronous | Scheme::Hybrid if counted => {
                let entry = self.iteration_reports.entry(iteration).or_insert((0, 0.0));
                entry.0 += 1;
                entry.1 = entry.1.max(diff);
                let complete = entry.0 == self.peers;
                let max_diff = entry.1;
                if complete {
                    // Each peer's first report of an iteration counts exactly
                    // once, so a complete entry can never be touched again —
                    // drop it to keep the map bounded by the in-flight
                    // iterations.
                    self.iteration_reports.remove(&iteration);
                }
                complete
                    && max_diff <= self.tolerance
                    && self
                        .has_async_neighbor
                        .iter()
                        .zip(self.latest_stable.iter())
                        .all(|(async_nb, stable)| !async_nb || *stable)
            }
            // A re-reported iteration can never complete an entry.
            Scheme::Synchronous | Scheme::Hybrid => false,
            // Asynchronous scheme: every peer must have reported two
            // consecutive stable sweeps.
            Scheme::Asynchronous => self.streaks.iter().all(|s| *s >= 2),
        };
        if converged && !self.distributed_decision {
            self.stop = true;
            self.stop_time_ns = Some(now_ns);
            self.board.publish_stop(true);
        }
        self.stop
    }

    /// Hand the stop decision to the gossip layer: `report` keeps folding
    /// evidence and loads, but only [`ConvergenceDetector::deposit_result`]
    /// (driven by the deciding peer's gossip digest) may stop the run.
    pub fn set_distributed_decision(&mut self, distributed: bool) {
        self.distributed_decision = distributed;
    }

    /// Fold every outstanding cell publication into the detector state.
    /// Called by [`DetectorHandle::lock`], so all locked operations observe
    /// the evidence they would see if every report had taken the lock.
    fn fold_cells(&mut self) {
        let board = Arc::clone(&self.board);
        for rank in 0..self.peers {
            let cell = board.cell(rank);
            let (points, busy_ns) = cell.take_load();
            if points > 0 || busy_ns > 0 {
                self.record_load(rank, points, busy_ns);
            }
            let report = cell.read();
            if report.serial == self.folded_serials[rank] {
                continue;
            }
            self.folded_serials[rank] = report.serial;
            self.apply_dirty(rank, report);
        }
        // Dirty reports never complete an iteration entry, so entries a
        // rank skipped past (cell overwrites) would linger forever without
        // this frontier prune. An entry at or below every rank's watermark
        // can never be counted into again, so dropping it loses nothing.
        if self.iteration_reports.len() > 2 * self.peers.max(1) {
            if let Some(&frontier) = self.last_reported.iter().min() {
                self.iteration_reports.retain(|&it, _| it > frontier);
            }
        }
    }

    /// Apply one folded dirty-sweep report: exactly the state transitions
    /// [`ConvergenceDetector::report`] performs for `diff > tolerance`,
    /// `stable == false` — which can reset stability evidence and advance
    /// watermarks but can never declare convergence.
    fn apply_dirty(&mut self, rank: usize, report: CellReport) {
        if self.stop || report.generation != self.generation {
            return;
        }
        debug_assert!(report.diff > self.tolerance);
        self.latest_stable[rank] = false;
        self.streaks[rank] = 0;
        if report.iteration <= self.last_reported[rank] {
            return;
        }
        self.last_reported[rank] = report.iteration;
        if matches!(self.scheme, Scheme::Synchronous | Scheme::Hybrid) {
            let entry = self
                .iteration_reports
                .entry(report.iteration)
                .or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 = entry.1.max(report.diff);
            if entry.0 == self.peers {
                // Complete, but its max diff includes this dirty report's
                // `diff > tolerance` — the locked path would likewise remove
                // it without declaring convergence.
                self.iteration_reports.remove(&report.iteration);
            }
        }
    }

    /// Deposit peer `rank`'s final result after the stop signal (or the
    /// relaxation cap) ended its loop; stamps the stop if this peer is the
    /// first to react (cap-ended runs have no converged stop). Returns true
    /// exactly once per run: the caller owning that true broadcasts the stop
    /// signal to the remaining peers.
    pub fn deposit_result(
        &mut self,
        rank: usize,
        relaxations: u64,
        result: Vec<u8>,
        now_ns: u64,
    ) -> bool {
        if self.stop_time_ns.is_none() {
            self.stop = true;
            self.stop_time_ns = Some(now_ns);
            self.board.publish_stop(true);
        }
        self.results[rank] = Some((relaxations, result));
        if self.stop_broadcast {
            false
        } else {
            self.stop_broadcast = true;
            true
        }
    }

    /// Account `points` relaxed over `busy_ns` of the backend's clock by
    /// peer `rank` (live throughput estimation).
    pub fn record_load(&mut self, rank: usize, points: u64, busy_ns: u64) {
        self.loads[rank].points += points;
        self.loads[rank].busy_seconds += busy_ns as f64 / 1e9;
    }

    /// Live per-peer load estimates.
    pub fn loads(&self) -> &[PeerLoad] {
        &self.loads
    }

    /// Void a peer's stability evidence: its streak restarts and its last
    /// report no longer counts as stable. Used when the peer's state is no
    /// longer what the evidence was gathered on — a crash, or the adoption
    /// of a re-sliced block.
    pub fn void_stability(&mut self, rank: usize) {
        self.streaks[rank] = 0;
        self.latest_stable[rank] = false;
    }

    /// A peer crashed: its convergence evidence is void until it reports
    /// again after recovery, so a run can never be declared converged on a
    /// dead peer's stale stability.
    pub fn mark_crashed(&mut self, rank: usize) {
        self.void_stability(rank);
    }

    /// Void every peer's stability evidence. A live repartition moves block
    /// data between ranks, so *all* pre-adoption stability was gathered on
    /// boundary data that no longer describes the neighbours — convergence
    /// must be re-established globally on the re-sliced state.
    pub fn void_all_stability(&mut self) {
        for rank in 0..self.peers {
            self.void_stability(rank);
        }
    }

    /// Grow the run to `new_peers` ranks (elastic membership: a join event
    /// fired). The new ranks start with no convergence evidence, no result
    /// and no load history, so the run cannot be declared converged before
    /// they report, and `finish_run` will wait for their results.
    pub fn grow(&mut self, new_peers: usize) {
        if new_peers <= self.peers {
            return;
        }
        assert!(
            new_peers <= self.board.capacity(),
            "detector grown to {new_peers} ranks but report cells were \
             provisioned for {} — create the detector with \
             `shared_with_capacity` sized to the provisioned topology",
            self.board.capacity()
        );
        self.peers = new_peers;
        self.has_async_neighbor.resize(new_peers, false);
        self.latest_stable.resize(new_peers, false);
        self.streaks.resize(new_peers, 0);
        self.results.resize(new_peers, None);
        self.last_reported.resize(new_peers, self.rollback_target);
        self.loads.resize(new_peers, PeerLoad::default());
        // In-flight iteration entries are kept: completeness is checked
        // against the *current* peer count, so a pending iteration now also
        // waits for the joiner's report of it (the joiner's restored counter
        // starts at or below every survivor's, so it will report them).
    }

    /// Start a new rollback generation: every peer restarts from the common
    /// checkpointed iteration `from_iteration`, so in-flight convergence
    /// evidence (pending iteration reports, stability streaks, report
    /// watermarks) is void. Reports from older generations are discarded
    /// when peers report them.
    pub fn begin_generation(&mut self, generation: u32, from_iteration: u64) {
        self.generation = generation;
        self.rollback_target = from_iteration;
        self.board.publish_rollback(from_iteration, generation);
        self.iteration_reports.clear();
        for watermark in &mut self.last_reported {
            *watermark = from_iteration;
        }
        for streak in &mut self.streaks {
            *streak = 0;
        }
        for stable in &mut self.latest_stable {
            *stable = false;
        }
    }

    /// The run's current rollback, if a synchronous recovery has started
    /// one: `(restart iteration, generation)`. Drivers poll this as a
    /// fallback for a lost rollback broadcast (see
    /// [`PeerEngine::poll_rollback`]).
    pub fn current_rollback(&self) -> Option<(u64, u32)> {
        (self.generation > 0).then_some((self.rollback_target, self.generation))
    }

    /// Assemble the run's [`RunMeasurement`] and the per-rank results. Used
    /// by every runtime so all report the same metric shapes. `fallback_now`
    /// is the clock value when the run ended without a recorded stop time
    /// (deadline reached, missing results).
    pub fn finish_run(
        &self,
        fallback_now_ns: u64,
        max_relaxations: u64,
    ) -> (RunMeasurement, Vec<(usize, Vec<u8>)>) {
        let elapsed = SimDuration::from_nanos(self.stop_time_ns.unwrap_or(fallback_now_ns));
        let mut relaxations = Vec::with_capacity(self.peers);
        let mut results = Vec::with_capacity(self.peers);
        let mut all_reported = true;
        for (rank, entry) in self.results.iter().enumerate() {
            match entry {
                Some((r, data)) => {
                    relaxations.push(*r);
                    results.push((rank, data.clone()));
                }
                None => {
                    all_reported = false;
                    relaxations.push(0);
                }
            }
        }
        let converged =
            self.stop && all_reported && relaxations.iter().all(|&r| r < max_relaxations);
        let mut measurement = RunMeasurement::from_run(self.peers, elapsed, relaxations, converged);
        measurement.points_per_sec = self
            .loads
            .iter()
            .map(|l| l.throughput().unwrap_or(0.0))
            .collect();
        measurement.points_relaxed_per_peer = self.loads.iter().map(|l| l.points).collect();
        (measurement, results)
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
    /// transport reports compute completion).
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
    /// Convergence tolerance (used to compute the stability flag).
    tolerance: f64,
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
    /// [`ConvergenceDetector::begin_generation`]).
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
    /// Digest author epoch under the gossip control plane: bumped by every
    /// recovery, so rows published by a crashed incarnation lose the digest
    /// merge against the recovered one (see
    /// [`crate::gossip::ConvergenceDigest::void_below_epoch`]).
    report_epoch: u32,
    /// Cumulative relaxed points / busy time (the load fields of this
    /// rank's digest row).
    total_points: u64,
    total_busy_ns: u64,
    /// The digest summary of the last completed sweep — what the gossip
    /// layer piggy-backs; `None` under the centralized plane's readers.
    last_sweep: Option<SweepSummary>,
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
        let neighbors = task.neighbors();
        let mut sockets = HashMap::new();
        let mut sync_neighbors = Vec::new();
        let mut async_neighbors = Vec::new();
        let mut async_fresh = HashMap::new();
        let mut pending_sync = HashMap::new();
        for &nb in &neighbors {
            let connection = topology.connection_type(NodeId(rank), NodeId(nb));
            // The socket derives the communication mode from (scheme,
            // connection) through the P2PSAP controller (Table I).
            sockets.insert(nb, Socket::open(scheme, connection));
            if waits(scheme, connection) {
                sync_neighbors.push(nb);
                pending_sync.insert(nb, VecDeque::new());
            } else {
                async_neighbors.push(nb);
                async_fresh.insert(nb, 0);
            }
        }
        let tolerance = {
            let mut detector = shared.lock();
            detector.has_async_neighbor[rank] = !async_neighbors.is_empty();
            detector.tolerance
        };
        Self {
            rank,
            max_relaxations,
            scheme,
            topology: topology.clone(),
            task,
            shared,
            pending_relax: None,
            sockets,
            sync_neighbors,
            async_neighbors,
            async_fresh,
            max_ghost_change: 0.0,
            tolerance,
            pending_sync,
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
            report_epoch: 0,
            total_points: 0,
            total_busy_ns: 0,
            last_sweep: None,
        }
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

    /// Recompute the per-neighbour communication state from the (new) task
    /// after a live repartition. Sockets, FIFO queues and freshness counters
    /// of neighbours that *persist* are kept — their reliable sessions must
    /// stay continuous — while lost neighbours are dropped and new ones get
    /// fresh sockets (both endpoints of a new edge open at adoption, so the
    /// sessions start consistently; a segment sent before the other end
    /// adopted is recovered by the reliable channel's retransmission).
    fn rebuild_comms(&mut self) {
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
        // The adopted block is new state: freshness counters restart (every
        // asynchronous neighbour must deliver again before this rank may
        // claim stability) and any pre-adoption stability evidence is void —
        // convergence must be re-established on the re-sliced data.
        for counter in self.async_fresh.values_mut() {
            *counter = 0;
        }
        self.max_ghost_change = 0.0;
        let mut shared = self.shared.lock();
        shared.has_async_neighbor[self.rank] = !self.async_neighbors.is_empty();
        shared.void_all_stability();
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
        self.rebuild_comms();
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

    /// Relaxations performed so far by the task.
    pub fn relaxations(&self) -> u64 {
        self.task.relaxations()
    }

    /// The digest summary of the last completed sweep (the gossip control
    /// plane's authoring input; `None` before the first sweep).
    pub fn sweep_summary(&self) -> Option<SweepSummary> {
        self.last_sweep
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

    /// Start the next relaxation: the sweep runs now (so its outputs are
    /// causally insulated from ghosts arriving *during* the sweep) and its
    /// effects are published when the transport reports compute completion.
    fn begin_relaxation(&mut self, transport: &mut impl PeerTransport) {
        debug_assert!(!self.computing && !self.finished);
        self.computing = true;
        self.compute_started_ns = transport.now_ns();
        let relax = self.task.relax();
        let mut work_points = relax.work_points;
        if let Some(vol) = &self.volatility {
            // A fired slowdown event scales the sweep's compute cost (the
            // simulated backend charges it to the virtual clock; wall-clock
            // backends run the kernel for real and ignore work points). The
            // handle answers from its atomic per-rank cache unless a
            // slowdown event is actually due this iteration.
            let factor = vol.slowdown_factor(self.rank, self.task.relaxations());
            if factor > 1.0 {
                work_points = (work_points as f64 * factor).round() as u64;
            }
        }
        self.pending_relax = Some(relax);
        transport.schedule_compute(work_points);
    }

    /// The substrate's compute model says the pending sweep has finished:
    /// publish its results (`P2P_Send`), report to the convergence detector
    /// and advance if the scheme's wait condition allows it.
    pub fn on_compute_done(&mut self, transport: &mut impl PeerTransport) {
        if self.finished || self.crashed {
            return;
        }
        self.computing = false;
        let relax = self.pending_relax.take().expect("a sweep was in progress");
        let iteration = self.task.relaxations();
        let busy_ns = transport.now_ns().saturating_sub(self.compute_started_ns);
        // A rollback that arrived mid-sweep supersedes the sweep's results:
        // the state it was computed from is being abandoned. The sweep's
        // cost was still paid — it counts towards the executed-work metric.
        if let Some((to_iteration, generation)) = self.pending_rollback.take() {
            if generation > self.generation {
                self.shared
                    .lock()
                    .record_load(self.rank, relax.work_points, busy_ns);
                self.apply_rollback(to_iteration, generation, transport);
                return;
            }
        }
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
        let stable = relax.local_diff <= self.tolerance
            && self
                .async_neighbors
                .iter()
                .all(|nb| self.async_fresh[nb] >= 1)
            && self.max_ghost_change <= self.tolerance;
        if relax.local_diff > self.tolerance {
            for counter in self.async_fresh.values_mut() {
                *counter = 0;
            }
        }
        self.max_ghost_change = 0.0;
        // Author this sweep's digest row for the gossip control plane (the
        // centralized plane's drivers simply never read it). The streak
        // accounting lives here because only the engine sees every sweep:
        // gossip drivers sample `sweep_summary` at their own cadence.
        self.total_points += relax.work_points;
        self.total_busy_ns += busy_ns;
        let clean = relax.local_diff <= self.tolerance;
        let prev = self
            .last_sweep
            .filter(|p| p.generation == self.generation && p.epoch == self.report_epoch);
        let clean_since = if !clean {
            u64::MAX
        } else {
            match prev {
                Some(p) if p.clean_since != u64::MAX => p.clean_since,
                _ => iteration,
            }
        };
        let stable_streak = if !stable {
            0
        } else {
            prev.map_or(0, |p| p.stable_streak).saturating_add(1)
        };
        self.last_sweep = Some(SweepSummary {
            iteration,
            clean,
            stable,
            clean_since,
            stable_streak,
            generation: self.generation,
            epoch: self.report_epoch,
            has_async_neighbors: !self.async_neighbors.is_empty(),
            points: self.total_points,
            busy_ns: self.total_busy_ns,
        });
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
    /// calls this after the failure was detected (missed pings on the
    /// wall-clock backends, the plan's modelled delay on the deterministic
    /// ones).
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
        self.last_sweep = None;
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
        // Delivered application payloads (a retransmission may bring none).
        let mut received = Vec::new();
        while let Some(p) = socket.receive() {
            received.push(p);
        }
        self.run_socket_output(transport, neighbor, out);
        for payload in received {
            self.receive_payload(neighbor, payload, transport);
        }
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
    /// broadcast is lost.
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
    use crate::runtime::host::Polled;

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
    /// relaxations; sends its relaxation count to every neighbour.
    pub(crate) struct RampTask {
        pub(crate) rank: usize,
        pub(crate) neighbors: Vec<usize>,
        pub(crate) remaining: u64,
        pub(crate) relaxed: u64,
        pub(crate) incorporated: Vec<(usize, Vec<u8>)>,
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
                incorporated: Vec::new(),
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
            LocalRelax {
                local_diff: self.remaining as f64,
                work_points: 1,
            }
        }
        fn encode_outgoing(&mut self, sink: &mut FrameSink) {
            for &nb in &self.neighbors {
                sink.frame(nb).push(self.relaxed as u8);
            }
        }
        fn incorporate(&mut self, from: usize, payload: &[u8]) -> f64 {
            self.incorporated.push((from, payload.to_vec()));
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

        // The reliable synchronous channel also acknowledged the segment.
        assert!(ta.sent.iter().any(|(to, _)| *to == 1), "ack goes back to B");
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
            // The next sweep starts immediately inside on_compute_done —
            // the asynchronous scheme never waits for a delivery.
            assert_eq!(a.relaxations(), sweep + 1);
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
        assert_eq!(peer.relaxations(), 2);
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
        assert!(!shared.lock().stopped());
        assert!(!a.finished());

        tb.polled.compute_pending = false;
        b.on_compute_done(&mut tb);
        // B's report completes the iteration below tolerance: B detects the
        // stop, finishes, and is the one peer to broadcast.
        assert!(shared.lock().stopped());
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

    /// Everything of a detector a run can act on, read under its lock.
    /// `iteration_reports` is left out on purpose: a cell overwritten
    /// between two folds never counts its older iteration, and such an
    /// entry — it holds a dirty report — could never have completed at or
    /// below the tolerance.
    fn observable(detector: &ConvergenceDetector) -> impl PartialEq + std::fmt::Debug {
        (
            (detector.stop, detector.stop_time_ns, detector.generation),
            detector.streaks.clone(),
            detector.latest_stable.clone(),
            detector.last_reported.clone(),
            detector.loads.iter().map(|l| l.points).collect::<Vec<_>>(),
        )
    }

    proptest::proptest! {
        /// The lock-free report cells defer work, they decide nothing: one
        /// random report script — dirty and clean sweeps, re-reported and
        /// skipped iterations, stale generations, loads, and interleaved
        /// locked operations (a bare `lock()`, a rollback, a join, a crash)
        /// — fed to two detectors, one through `publish` and one through
        /// what a clean sweep runs anyway (`lock()` + `record_load` +
        /// `report`), stops both at the same step with the same evidence
        /// (streaks, stability, watermarks, loads, generation).
        /// The lock-free view (`stopped()`, each report's return value) is
        /// compared after every step, the full state whenever the script
        /// locks and at the end.
        #[test]
        fn publish_agrees_with_locked_reports(
            scheme_pick in 0usize..3,
            peers in 2usize..5,
            steps in 20u64..160,
            seed in proptest::any::<u64>(),
        ) {
            use proptest::{prop_assert, prop_assert_eq};
            let scheme = [Scheme::Synchronous, Scheme::Asynchronous, Scheme::Hybrid][scheme_pick];
            let tolerance = 0.5;
            let capacity = peers + 1;
            let make = || {
                let shared =
                    ConvergenceDetector::shared_with_capacity(tolerance, scheme, peers, capacity);
                // Hybrid: rank 0 sits on the cluster edge, so its stability
                // gates the stop.
                shared.lock().has_async_neighbor[0] = scheme == Scheme::Hybrid;
                shared
            };
            let (cells, locked) = (make(), make());
            let mut rng = proptest::TestRng::new(seed);
            let mut live = peers;
            let mut generation = 0u32;
            // Each rank's own generation lags the detector's and only moves
            // forward, as an engine's does.
            let mut adopted = vec![0u32; capacity];
            let mut iteration = vec![0u64; capacity];
            for step in 0..steps {
                match rng.below(24) {
                    0 => prop_assert_eq!(observable(&cells.lock()), observable(&locked.lock())),
                    1 => {
                        generation += 1;
                        let from = iteration[..live].iter().copied().min().unwrap_or(0);
                        iteration[..live].fill(from);
                        for shared in [&cells, &locked] {
                            shared.lock().begin_generation(generation, from);
                        }
                    }
                    2 if live < capacity => {
                        live += 1;
                        for shared in [&cells, &locked] {
                            shared.lock().grow(live);
                        }
                    }
                    3 => {
                        let rank = rng.below(live as u64) as usize;
                        for shared in [&cells, &locked] {
                            shared.lock().mark_crashed(rank);
                        }
                    }
                    _ => {
                        let rank = rng.below(live as u64) as usize;
                        // Mostly the next iteration; sometimes a re-report
                        // (restored peer) or a skipped one.
                        iteration[rank] += [0, 2, 1, 1, 1, 1, 1, 1][rng.below(8) as usize];
                        let clean = rng.below(4) != 0;
                        let diff = if clean {
                            tolerance * rng.unit_f64()
                        } else {
                            tolerance + 0.01 + rng.unit_f64()
                        };
                        let stable = clean && rng.below(8) != 0;
                        if rng.below(4) != 0 {
                            adopted[rank] = generation;
                        }
                        let reported = adopted[rank];
                        let (points, busy_ns) = (rng.below(1_000), rng.below(1_000_000));
                        let through_cells = cells.publish(
                            rank, iteration[rank], diff, stable, step, reported, points, busy_ns,
                        );
                        let through_lock = {
                            let mut detector = locked.lock();
                            detector.record_load(rank, points, busy_ns);
                            detector.report(rank, iteration[rank], diff, stable, step, reported)
                        };
                        prop_assert_eq!(through_cells, through_lock, "step {}", step);
                    }
                }
                prop_assert_eq!(cells.stopped(), locked.stopped(), "step {}", step);
                prop_assert_eq!(cells.current_rollback(), locked.current_rollback());
            }
            let (a, b) = (cells.lock(), locked.lock());
            prop_assert_eq!(observable(&a), observable(&b));
            // Busy time is summed in integer nanoseconds in the cells and in
            // seconds under the lock: equal up to rounding, not bit for bit.
            for (x, y) in a.loads.iter().zip(&b.loads) {
                prop_assert!((x.busy_seconds - y.busy_seconds).abs() <= 1e-9 * y.busy_seconds);
            }
        }
    }
}
