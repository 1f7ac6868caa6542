//! Lock-free per-peer report cells: the contention-free half of the
//! control plane.
//!
//! Every relaxation used to end with two global-mutex acquisitions (the
//! shared [`ConvergenceDetector`] for `record_load` + `report`, and the
//! volatility state for the checkpoint/crash checks). At 1024 peers on the
//! reactor backend those mutexes are the run's hottest cache lines. The
//! scheme here splits reports by what they can *cause*:
//!
//! * A report whose local difference is **above** the tolerance can never
//!   establish convergence — its only effects are monotone bookkeeping
//!   (streak reset, iteration-report counts that can only complete with a
//!   max difference above the tolerance, watermark advances). Such a
//!   "dirty" report is published into the reporting rank's [`ReportCell`]
//!   (a single-writer seqlock slot) with zero lock acquisitions.
//! * A report **at or below** the tolerance — the only kind that can flip
//!   the run to converged — still takes the detector mutex, as does every
//!   other control-plane operation (crash accounting, rollback, growth).
//!
//! Locked entry points *fold* all pending cells into the detector before
//! acting, so every decision observes all published reports in order. See
//! the "control plane" section of ARCHITECTURE.md for the equivalence and
//! determinism argument.
//!
//! The module also hosts the run-wide [`contention`] counters: the
//! benchmark's traced pass reports them per relaxation, and
//! `tests/hot_sweep_locks.rs` proves with them that the hot sweep acquires
//! zero locks.
//!
//! [`ConvergenceDetector`]: crate::runtime::engine::ConvergenceDetector

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// One rank's published report slot: a single-writer seqlock. The owning
/// engine is the only writer; the detector reads under its mutex when
/// folding. Padded to its own cache lines so neighbouring ranks' publishes
/// do not false-share.
#[repr(align(128))]
#[derive(Debug)]
pub struct ReportCell {
    /// Seqlock stamp: odd while a write is in progress.
    seq: AtomicU64,
    /// Monotone publish counter: the fold consumes a cell only when its
    /// serial is newer than the last one folded for this rank.
    serial: AtomicU64,
    /// Reported relaxation number (1-based, the task's counter).
    iteration: AtomicU64,
    /// Reported local difference (f64 bits).
    diff_bits: AtomicU64,
    /// The reporting engine's rollback generation: folds discard reports
    /// from voided generations, exactly like the locked `report` does.
    generation: AtomicU32,
    /// Grid points relaxed since the last fold (monotone, owner-incremented,
    /// drained by the fold). Independent of the seqlock: load accounting is
    /// additive, so no snapshot consistency is needed.
    points: AtomicU64,
    /// Busy nanoseconds since the last fold (same regime as `points`).
    busy_ns: AtomicU64,
}

impl Default for ReportCell {
    fn default() -> Self {
        Self {
            seq: AtomicU64::new(0),
            serial: AtomicU64::new(0),
            iteration: AtomicU64::new(0),
            diff_bits: AtomicU64::new(0),
            generation: AtomicU32::new(0),
            points: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }
}

/// A consistent snapshot read out of a cell by the fold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellReport {
    /// Publish serial of the snapshot.
    pub serial: u64,
    /// Reported relaxation number.
    pub iteration: u64,
    /// Reported local difference.
    pub diff: f64,
    /// Reporting engine's rollback generation.
    pub generation: u32,
}

impl ReportCell {
    /// Publish a dirty report (single writer: the owning engine).
    pub fn publish(&self, iteration: u64, diff: f64, generation: u32) {
        // Boehm's seqlock writer protocol: odd stamp, release fence, data,
        // even stamp (release). The fence keeps the data stores from
        // floating above the odd stamp.
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(1), Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::Release);
        self.iteration.store(iteration, Ordering::Relaxed);
        self.diff_bits.store(diff.to_bits(), Ordering::Relaxed);
        self.generation.store(generation, Ordering::Relaxed);
        self.serial.fetch_add(1, Ordering::Relaxed);
        self.seq.store(seq.wrapping_add(2), Ordering::Release);
    }

    /// Account load (owner-incremented; folded into the detector's per-peer
    /// load estimate under the mutex).
    pub fn add_load(&self, points: u64, busy_ns: u64) {
        if points > 0 {
            self.points.fetch_add(points, Ordering::Relaxed);
        }
        if busy_ns > 0 {
            self.busy_ns.fetch_add(busy_ns, Ordering::Relaxed);
        }
    }

    /// Drain the accumulated `(points, busy_ns)` load counters.
    pub fn take_load(&self) -> (u64, u64) {
        (
            self.points.swap(0, Ordering::Relaxed),
            self.busy_ns.swap(0, Ordering::Relaxed),
        )
    }

    /// Read a consistent snapshot (seqlock read loop; the writer is wait-free
    /// so the loop terminates after at most one in-flight write).
    pub fn read(&self) -> CellReport {
        loop {
            let before = self.seq.load(Ordering::Acquire);
            if before % 2 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let report = CellReport {
                serial: self.serial.load(Ordering::Relaxed),
                iteration: self.iteration.load(Ordering::Relaxed),
                diff: f64::from_bits(self.diff_bits.load(Ordering::Relaxed)),
                generation: self.generation.load(Ordering::Relaxed),
            };
            // Acquire fence so the field loads cannot drift past the
            // re-check (the reader half of the seqlock protocol).
            std::sync::atomic::fence(Ordering::Acquire);
            if self.seq.load(Ordering::Relaxed) == before {
                return report;
            }
            std::hint::spin_loop();
        }
    }
}

/// The run's shared report board: one cell per provisioned rank, plus the
/// read-mostly mirrors of the detector's stop flag and published rollback —
/// the two values engines poll from their idle and per-sweep paths.
#[derive(Debug)]
pub struct ReportBoard {
    cells: Box<[ReportCell]>,
    /// Mirror of [`ConvergenceDetector::stopped`], maintained under the
    /// detector mutex; lock-free readers see it at most one store late.
    stop: AtomicBool,
    /// Mirror of the current rollback generation (0 = none yet).
    rollback_gen: AtomicU32,
    /// Mirror of the current rollback's common restart iteration. Written
    /// before `rollback_gen` (release) so a reader that observes the
    /// generation also observes its target.
    rollback_target: AtomicU64,
}

impl ReportBoard {
    /// A board with one cell per provisioned rank.
    pub fn new(capacity: usize) -> Self {
        Self {
            cells: (0..capacity).map(|_| ReportCell::default()).collect(),
            stop: AtomicBool::new(false),
            rollback_gen: AtomicU32::new(0),
            rollback_target: AtomicU64::new(0),
        }
    }

    /// The provisioned rank capacity (fixed at creation: the cell array is
    /// read lock-free, so it cannot grow).
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Rank `rank`'s cell.
    pub fn cell(&self, rank: usize) -> &ReportCell {
        &self.cells[rank]
    }

    /// Lock-free read of the stop mirror.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Update the stop mirror (called under the detector mutex).
    pub fn publish_stop(&self, stop: bool) {
        self.stop.store(stop, Ordering::Release);
    }

    /// Lock-free read of the published rollback `(target, generation)`.
    pub fn current_rollback(&self) -> Option<(u64, u32)> {
        let generation = self.rollback_gen.load(Ordering::Acquire);
        (generation > 0).then(|| (self.rollback_target.load(Ordering::Acquire), generation))
    }

    /// Update the rollback mirror (called under the detector mutex).
    pub fn publish_rollback(&self, target: u64, generation: u32) {
        self.rollback_target.store(target, Ordering::Release);
        self.rollback_gen.store(generation, Ordering::Release);
    }
}

/// Run-wide lock-acquisition counters: the benchmark's traced pass reads
/// them as `detector.*` / `volatility.*` / `topology.*` locks per relaxation,
/// and `tests/hot_sweep_locks.rs` asserts the per-sweep ones stay at zero on
/// a run whose every sweep is the common case. Relaxed increments on paths
/// that are rare by construction; process-global, so a reader that wants one
/// run's counts must be the only run in its process.
pub mod contention {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A snapshot of the counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Counters {
        /// Detector-mutex acquisitions, all entry points.
        pub detector_locks: u64,
        /// Detector-mutex acquisitions taken from the per-sweep report path
        /// (a report at or below the tolerance). Zero while no peer is near
        /// convergence.
        pub detector_report_locks: u64,
        /// Volatility-mutex acquisitions, all entry points.
        pub volatility_locks: u64,
        /// Volatility-mutex acquisitions taken from the per-sweep gates
        /// (checkpoint due, event due, slowdown due). Zero on sweeps with no
        /// due event and no checkpoint boundary.
        pub volatility_sweep_locks: u64,
        /// Topology-manager mutex acquisitions (heartbeats, eviction sweeps).
        pub topology_locks: u64,
    }

    static DETECTOR: AtomicU64 = AtomicU64::new(0);
    static DETECTOR_REPORT: AtomicU64 = AtomicU64::new(0);
    static VOLATILITY: AtomicU64 = AtomicU64::new(0);
    static VOLATILITY_SWEEP: AtomicU64 = AtomicU64::new(0);
    static TOPOLOGY: AtomicU64 = AtomicU64::new(0);

    macro_rules! bump {
        ($name:ident, $counter:ident) => {
            /// Count one acquisition.
            #[inline]
            pub fn $name() {
                $counter.fetch_add(1, Ordering::Relaxed);
            }
        };
    }

    bump!(count_detector_lock, DETECTOR);
    bump!(count_detector_report_lock, DETECTOR_REPORT);
    bump!(count_volatility_lock, VOLATILITY);
    bump!(count_volatility_sweep_lock, VOLATILITY_SWEEP);
    bump!(count_topology_lock, TOPOLOGY);

    /// Reset all counters to zero.
    pub fn reset() {
        DETECTOR.store(0, Ordering::Relaxed);
        DETECTOR_REPORT.store(0, Ordering::Relaxed);
        VOLATILITY.store(0, Ordering::Relaxed);
        VOLATILITY_SWEEP.store(0, Ordering::Relaxed);
        TOPOLOGY.store(0, Ordering::Relaxed);
    }

    /// Snapshot the counters.
    pub fn snapshot() -> Counters {
        Counters {
            detector_locks: DETECTOR.load(Ordering::Relaxed),
            detector_report_locks: DETECTOR_REPORT.load(Ordering::Relaxed),
            volatility_locks: VOLATILITY.load(Ordering::Relaxed),
            volatility_sweep_locks: VOLATILITY_SWEEP.load(Ordering::Relaxed),
            topology_locks: TOPOLOGY.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_then_read_round_trips() {
        let cell = ReportCell::default();
        cell.publish(7, 0.25, 3);
        let report = cell.read();
        assert_eq!(report.serial, 1);
        assert_eq!(report.iteration, 7);
        assert_eq!(report.diff, 0.25);
        assert_eq!(report.generation, 3);
        // Overwrite: latest value wins, serial advances.
        cell.publish(8, 0.125, 3);
        let report = cell.read();
        assert_eq!(report.serial, 2);
        assert_eq!(report.iteration, 8);
        assert_eq!(report.diff, 0.125);
    }

    #[test]
    fn load_counters_accumulate_and_drain() {
        let cell = ReportCell::default();
        cell.add_load(100, 5_000);
        cell.add_load(50, 2_500);
        assert_eq!(cell.take_load(), (150, 7_500));
        assert_eq!(cell.take_load(), (0, 0), "drained");
    }

    #[test]
    fn board_mirrors_publish_lock_free_values() {
        let board = ReportBoard::new(4);
        assert_eq!(board.capacity(), 4);
        assert!(!board.stopped());
        assert_eq!(board.current_rollback(), None);
        board.publish_stop(true);
        assert!(board.stopped());
        board.publish_rollback(12, 2);
        assert_eq!(board.current_rollback(), Some((12, 2)));
    }

    #[test]
    fn concurrent_publishes_always_read_consistent_pairs() {
        // One writer hammers the cell with (iteration, diff = iteration as
        // f64); readers must never observe a torn pair.
        let board = std::sync::Arc::new(ReportBoard::new(1));
        let writer = {
            let board = std::sync::Arc::clone(&board);
            std::thread::spawn(move || {
                for i in 1..=50_000u64 {
                    board.cell(0).publish(i, i as f64, 1);
                }
            })
        };
        let mut last_serial = 0;
        for _ in 0..50_000 {
            let report = board.cell(0).read();
            assert_eq!(
                report.diff, report.iteration as f64,
                "torn seqlock read: {report:?}"
            );
            assert!(report.serial >= last_serial, "serial went backwards");
            last_serial = report.serial;
        }
        writer.join().unwrap();
    }
}
