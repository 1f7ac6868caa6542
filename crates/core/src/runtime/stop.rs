//! The stop rule, written once for both control planes.
//!
//! A run stops when every rank's convergence evidence meets the scheme's
//! criterion. The evidence is one [`Evidence`] row per rank, and this
//! module owns the three things both control planes do with it:
//!
//! * **Authoring.** [`Evidence::after`] is the one step from a rank's
//!   previous row and its latest sweep to its new row. The engine runs it
//!   on every sweep and hands the row to the gossip layer
//!   ([`crate::gossip::SweepSummary`]); the central [`ConvergenceDetector`]
//!   runs it on every report it folds.
//! * **Voiding.** [`Evidence::void`]: a crash, a rollback, a re-slice or a
//!   join leaves a rank with no evidence until it sweeps again.
//! * **Deciding.** [`decision`]: asynchronous — every rank ran two stable
//!   sweeps in a row; synchronous and hybrid — an iteration (the witness:
//!   the latest start of a clean interval) lies in every rank's current
//!   clean interval; hybrid — every rank with an asynchronous neighbour is
//!   also stable, so stale inter-cluster boundaries cannot fake
//!   convergence.
//!
//! The central fold is a full-information copy of the gossip digest: it
//! sees every row at once, a digest sees rows as rumors bring them.

use crate::load_balance::PeerLoad;
use crate::metrics::RunMeasurement;
use crate::runtime::report_cell::{contention, ReportBoard};
use desim::SimDuration;
use p2psap::Scheme;
use std::sync::{Arc, Mutex, MutexGuard};

/// One rank's convergence evidence. The row states: "every sweep in
/// `[clean_since, latest]` had local difference at or below the tolerance"
/// (`clean_since == u64::MAX` when the latest sweep was dirty), plus the
/// stability streak the asynchronous criterion folds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evidence {
    /// Rollback generation the evidence belongs to.
    pub generation: u32,
    /// Latest iteration the author reported (0 = no sweep yet).
    pub latest: u64,
    /// First iteration of the author's current at-or-below-tolerance streak
    /// (`u64::MAX`: the latest sweep was dirty).
    pub clean_since: u64,
    /// Consecutive stable sweeps ending at the latest one.
    pub stable_streak: u32,
    /// The latest sweep was stable.
    pub stable: bool,
    /// The author has asynchronous neighbours (a fact about the rank, not
    /// evidence: voiding keeps it).
    pub has_async: bool,
}

impl Evidence {
    /// No evidence, under generation 0.
    pub const NONE: Evidence = Evidence {
        generation: 0,
        latest: 0,
        clean_since: u64::MAX,
        stable_streak: 0,
        stable: false,
        has_async: false,
    };

    /// The row with its evidence voided under `generation`.
    pub fn void(self, generation: u32) -> Self {
        Evidence {
            generation,
            has_async: self.has_async,
            ..Self::NONE
        }
    }

    /// The one authoring step: this row after its author's next sweep —
    /// relaxation `iteration`, at or below the tolerance (`clean`), with
    /// the engine's stability predicate `stable`, run under `generation`.
    /// Evidence of another generation does not carry over.
    pub fn after(self, iteration: u64, clean: bool, stable: bool, generation: u32) -> Self {
        let prev = if self.generation == generation {
            self
        } else {
            self.void(generation)
        };
        Evidence {
            generation,
            latest: iteration,
            clean_since: match clean {
                false => u64::MAX,
                true if prev.clean_since != u64::MAX => prev.clean_since,
                true => iteration,
            },
            stable_streak: if stable {
                prev.stable_streak.saturating_add(1)
            } else {
                0
            },
            stable,
            has_async: prev.has_async,
        }
    }

    /// Whether this row meets its own part of `scheme`'s stop criterion,
    /// which every row must meet before [`decision`] can fire: two
    /// consecutive stable sweeps under the asynchronous scheme, a running
    /// clean streak under the synchronous and hybrid ones. The gossip layer
    /// pushes its own row the moment it starts to meet it.
    pub fn meets_stop_criterion(&self, scheme: Scheme) -> bool {
        match scheme {
            Scheme::Asynchronous => self.stable_streak >= 2,
            Scheme::Synchronous | Scheme::Hybrid => self.clean_since != u64::MAX,
        }
    }
}

/// The stop decision over one row per rank of the run, under the deciding
/// peer's `generation` (see the module docs). An empty universe never
/// stops.
pub fn decision<'a>(
    scheme: Scheme,
    generation: u32,
    rows: impl IntoIterator<Item = &'a Evidence>,
) -> bool {
    let (mut any, mut witness, mut covered_to) = (false, 0, u64::MAX);
    for row in rows {
        let edge_unstable = scheme == Scheme::Hybrid && row.has_async && !row.stable;
        if row.generation != generation
            || row.latest == 0
            || !row.meets_stop_criterion(scheme)
            || edge_unstable
        {
            return false;
        }
        any = true;
        witness = witness.max(row.clean_since);
        covered_to = covered_to.min(row.latest);
    }
    any && (scheme == Scheme::Asynchronous || witness <= covered_to)
}

/// Shared state used for global convergence detection and result
/// collection, one per run: the central control plane's copy of every
/// rank's [`Evidence`], folded from the reports the engines publish.
pub struct ConvergenceDetector {
    tolerance: f64,
    scheme: Scheme,
    peers: usize,
    /// One evidence row per rank, authored from its reports.
    rows: Vec<Evidence>,
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

    /// The run's convergence tolerance.
    pub(crate) fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// Whether global convergence (or the cap) has stopped the run (a
    /// lock-free mirror the detector maintains).
    pub fn stopped(&self) -> bool {
        self.board.stopped()
    }

    /// The run's current rollback, if a synchronous recovery has started
    /// one: `(restart iteration, generation)`. Drivers whose rollback
    /// broadcast can be lost (a UDP datagram) poll this as a fallback (see
    /// [`PeerEngine::poll_rollback`](super::PeerEngine::poll_rollback)) —
    /// the same safety net the stop signal has.
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
            // A dirty sweep is never stable and authors the same row
            // whatever the dirty sweeps before it were, so a cell holding
            // only the latest one loses nothing a decision reads.
            debug_assert!(!stable, "a dirty sweep cannot be stable");
            let cell = self.board.cell(rank);
            cell.add_load(work_points, busy_ns);
            if self.board.stopped() {
                // Stopped runs ignore reports (the locked path's early
                // return); the loads still count, exactly as `record_load`
                // before `report` did.
                return true;
            }
            cell.publish(iteration, generation);
            return self.board.stopped();
        }
        contention::count_detector_report_lock();
        let mut detector = self.lock();
        detector.record_load(rank, work_points, busy_ns);
        detector.report(rank, iteration, diff, stable, now_ns, generation)
    }
}

impl ConvergenceDetector {
    /// Create a shared detector handle.
    pub fn shared(tolerance: f64, scheme: Scheme, peers: usize) -> SharedDetector {
        Self::shared_with_capacity(tolerance, scheme, peers, peers)
    }

    /// Create a shared detector handle with report cells provisioned for
    /// up to `capacity` ranks (`capacity >= peers`). The cell array is
    /// lock-free and cannot be resized, so runs that may grow (planned
    /// joins) must provision the final peer count up front.
    pub fn shared_with_capacity(
        tolerance: f64,
        scheme: Scheme,
        peers: usize,
        capacity: usize,
    ) -> SharedDetector {
        let capacity = capacity.max(peers);
        let board = Arc::new(ReportBoard::new(capacity));
        let detector = Self {
            tolerance,
            scheme,
            peers,
            rows: vec![Evidence::NONE; peers],
            stop: false,
            stop_time_ns: None,
            stop_broadcast: false,
            results: vec![None; peers],
            generation: 0,
            distributed_decision: false,
            loads: vec![PeerLoad::default(); peers],
            board: Arc::clone(&board),
            folded_serials: vec![0; capacity],
        };
        Arc::new(DetectorHandle {
            board,
            tolerance,
            inner: Mutex::new(detector),
        })
    }

    /// Record whether peer `rank` has asynchronous neighbours (its row's
    /// flag: under the hybrid scheme such a rank must be stable to stop).
    pub(crate) fn set_has_async_neighbors(&mut self, rank: usize, has_async: bool) {
        self.rows[rank].has_async = has_async;
    }

    /// Record the completion of relaxation number `iteration` (1-based) by
    /// peer `rank` with local difference `diff`; returns true when the run
    /// has stopped. `stable` is computed by the peer (below tolerance, and
    /// fresh updates from every asynchronous neighbour since its last dirty
    /// sweep); `generation` is the peer's rollback generation — reports
    /// predating a synchronous rollback are stale and discarded.
    pub fn report(
        &mut self,
        rank: usize,
        iteration: u64,
        diff: f64,
        stable: bool,
        now_ns: u64,
        generation: u32,
    ) -> bool {
        if self.stop || generation != self.generation {
            return self.stop;
        }
        self.rows[rank] =
            self.rows[rank].after(iteration, diff <= self.tolerance, stable, generation);
        if !self.distributed_decision
            && decision(self.scheme, self.generation, &self.rows[..self.peers])
        {
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

    /// Fold every outstanding cell publication into the detector state:
    /// each is a dirty sweep, authored into its rank's row. Called by
    /// [`DetectorHandle::lock`], so all locked operations observe the
    /// evidence they would see if every report had taken the lock.
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
            if !self.stop && report.generation == self.generation {
                let row = &mut self.rows[rank];
                *row = row.after(report.iteration, false, false, report.generation);
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

    /// A peer crashed: its convergence evidence is void until it reports
    /// again after recovery, so a run can never be declared converged on a
    /// dead peer's stale evidence.
    pub fn mark_crashed(&mut self, rank: usize) {
        self.rows[rank] = self.rows[rank].void(self.generation);
    }

    /// Void every peer's evidence. A live repartition moves block data
    /// between ranks, so *all* pre-adoption evidence was gathered on
    /// boundary data that no longer describes the neighbours — convergence
    /// must be re-established globally on the re-sliced state.
    pub fn void_all_stability(&mut self) {
        for row in &mut self.rows {
            *row = row.void(self.generation);
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
        self.rows
            .resize(new_peers, Evidence::NONE.void(self.generation));
        self.results.resize(new_peers, None);
        self.loads.resize(new_peers, PeerLoad::default());
    }

    /// Start a new rollback generation: every peer restarts from the common
    /// checkpointed iteration `from_iteration`, so every rank's evidence is
    /// void. Reports from older generations are discarded when peers report
    /// them.
    pub fn begin_generation(&mut self, generation: u32, from_iteration: u64) {
        self.generation = generation;
        self.board.publish_rollback(from_iteration, generation);
        self.void_all_stability();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gossip::{ConvergenceDigest, SweepSummary};
    use proptest::{prop_assert, prop_assert_eq};

    const SCHEMES: [Scheme; 3] = [Scheme::Synchronous, Scheme::Asynchronous, Scheme::Hybrid];

    /// Everything of a detector a run can act on, read under its lock.
    fn observable(detector: &ConvergenceDetector) -> impl PartialEq + std::fmt::Debug {
        (
            (detector.stop, detector.stop_time_ns, detector.generation),
            detector.rows.clone(),
            detector.loads.iter().map(|l| l.points).collect::<Vec<_>>(),
        )
    }

    proptest::proptest! {
        /// One rule, three feeds. One random sweep script — clean and dirty,
        /// stable and unstable sweeps, skipped iterations, stale generations,
        /// loads, and locked operations (a bare `lock()`, a rollback, a join,
        /// a crash whose victim restarts from a checkpoint and re-reports
        /// iterations) — goes to a detector through `publish`, to one
        /// through `lock()` + `record_load` + `report`, and, as the rows the
        /// engines author, into a digest through `record_local` (a crash
        /// there is the death verdict's `void_below_epoch`). The cells
        /// decide nothing: both detectors agree on the lock-free view after
        /// every step and on rows, loads and generation whenever the script
        /// locks. Until the stop, the digest decides alike after every step
        /// and holds the detector's row wherever it holds current evidence.
        #[test]
        fn publish_agrees_with_locked_reports(
            scheme_pick in 0usize..3,
            peers in 2usize..5,
            steps in 20u64..200,
            seed in proptest::any::<u64>(),
        ) {
            let scheme = SCHEMES[scheme_pick];
            let tolerance = 0.5;
            let capacity = peers + 1;
            // Hybrid: even ranks sit on the cluster edge, so their
            // stability gates the stop.
            let edge = |rank: usize| scheme == Scheme::Hybrid && rank.is_multiple_of(2);
            let make = || {
                let shared =
                    ConvergenceDetector::shared_with_capacity(tolerance, scheme, peers, capacity);
                for rank in 0..peers {
                    shared.lock().set_has_async_neighbors(rank, edge(rank));
                }
                shared
            };
            let (cells, locked) = (make(), make());
            let mut digest = ConvergenceDigest::new(capacity);
            let mut rng = proptest::TestRng::new(seed);
            let mut live = peers;
            let mut generation = 0u32;
            // The engines' side: each rank's own row, incarnation and
            // relaxation counter, and its generation, which lags the
            // detector's and only moves forward.
            let mut own = vec![Evidence::NONE; capacity];
            for (rank, row) in own.iter_mut().enumerate() {
                row.has_async = edge(rank);
            }
            let mut epoch = vec![0u32; capacity];
            let mut adopted = vec![0u32; capacity];
            let mut iteration = vec![0u64; capacity];
            for step in 0..steps {
                let running = !locked.stopped();
                let rank = rng.below(live as u64) as usize;
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
                            let mut detector = shared.lock();
                            detector.grow(live);
                            detector.set_has_async_neighbors(live - 1, edge(live - 1));
                        }
                    }
                    3 => {
                        for shared in [&cells, &locked] {
                            shared.lock().mark_crashed(rank);
                        }
                        epoch[rank] += 1;
                        own[rank] = own[rank].void(adopted[rank]);
                        digest.void_below_epoch(rank, epoch[rank]);
                        // Restored from a checkpoint a few sweeps back.
                        iteration[rank] = iteration[rank].saturating_sub(rng.below(3));
                    }
                    _ => {
                        // Mostly the next iteration, sometimes a skipped one.
                        iteration[rank] += 1 + rng.below(6) / 5;
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
                        own[rank] = own[rank].after(iteration[rank], clean, stable, reported);
                        let summary = SweepSummary::from_evidence(own[rank], epoch[rank], 0, 0);
                        digest.record_local(rank, &summary);
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
                if running {
                    let central = locked.lock();
                    let gossip = digest.decision(scheme, live, generation, |_| true);
                    prop_assert_eq!(central.stop, gossip, "step {}", step);
                    for (rank, row) in central.rows.iter().enumerate() {
                        let gossiped = digest.row(rank).evidence;
                        if gossiped.generation == generation && gossiped.latest > 0 {
                            prop_assert_eq!(*row, gossiped, "rank {} step {}", rank, step);
                        } else {
                            prop_assert_eq!(row.latest, 0, "rank {} step {}", rank, step);
                        }
                    }
                }
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
