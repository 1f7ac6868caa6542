//! Gossip aggregation of convergence evidence.
//!
//! Under [`ControlPlane::Gossip`](crate::runtime::ControlPlane) the run's
//! stop decision does not come from the central
//! [`ConvergenceDetector`](crate::runtime::ConvergenceDetector) fold: every
//! peer keeps a [`ConvergenceDigest`] — one [`DigestRow`] per rank — merges
//! the rows piggy-backed on every gossip exchange, and evaluates the global
//! convergence criterion over its own merged copy. The first peer whose
//! digest satisfies the criterion terminates and broadcasts the stop over
//! the existing control path.
//!
//! **Why the decision is lossless.** Each row is authored only by its own
//! rank and merged last-writer-wins under [`DigestRow::supersedes`]
//! (generation, then author epoch, then iteration) — a join-semilattice, so
//! merge order and duplication cannot corrupt evidence. A row states a fact
//! about the author's own sweeps: every sweep in `[clean_since, latest]` had
//! local difference at or below the tolerance. The synchronous criterion
//! (`max clean_since <= min latest` over all ranks, one common generation)
//! therefore exhibits a witness iteration contained in every rank's clean
//! interval — exactly an iteration the central fold would have declared
//! globally converged. The decision can *lag* the central fold by the rumor
//! propagation time (peers keep relaxing meanwhile — the benchmark's
//! `gossip.decision_lag_relaxations`), but it can never fire on evidence the
//! central fold would have rejected.

use crate::gossip::rumor::{DigestRow, ROW_HAS_ASYNC, ROW_STABLE};
use crate::load_balance::PeerLoad;
use p2psap::Scheme;

/// One sweep's summary the engine hands the gossip layer (the same facts it
/// publishes to the central detector, pre-folded against the tolerance so
/// digest rows never carry raw residuals).
#[derive(Debug, Clone, Copy)]
pub struct SweepSummary {
    /// 1-based relaxation number.
    pub iteration: u64,
    /// Local difference at or below the tolerance.
    pub clean: bool,
    /// The stability predicate (clean + fresh asynchronous boundaries).
    pub stable: bool,
    /// First iteration of the streak of clean sweeps this one extends
    /// (`u64::MAX` when the sweep is dirty). Authored by the engine, which
    /// sees every sweep — gossip drivers only *sample* the summary, so they
    /// cannot reconstruct streaks themselves.
    pub clean_since: u64,
    /// Consecutive stable sweeps ending at this one (engine-authored, for
    /// the same sampling reason).
    pub stable_streak: u32,
    /// Rollback generation the sweep ran under.
    pub generation: u32,
    /// Author epoch (bumped by recovery).
    pub epoch: u32,
    /// Whether the author has asynchronous neighbours.
    pub has_async_neighbors: bool,
    /// Cumulative points relaxed by this rank.
    pub points: u64,
    /// Cumulative busy nanoseconds of this rank.
    pub busy_ns: u64,
}

/// A peer's merged view of every rank's convergence evidence.
#[derive(Debug, Clone)]
pub struct ConvergenceDigest {
    rows: Vec<DigestRow>,
}

impl ConvergenceDigest {
    /// An empty digest over `capacity` ranks (the provisioned topology, so
    /// joiners have a slot).
    pub fn new(capacity: usize) -> Self {
        Self {
            rows: (0..capacity).map(DigestRow::empty).collect(),
        }
    }

    /// Provisioned rank capacity.
    pub fn capacity(&self) -> usize {
        self.rows.len()
    }

    /// The merged row of `rank`.
    pub fn row(&self, rank: usize) -> &DigestRow {
        &self.rows[rank]
    }

    /// All merged rows (what gets piggy-backed onto outgoing messages).
    pub fn rows(&self) -> &[DigestRow] {
        &self.rows
    }

    /// Fold this rank's own sweep into its row (authoring path). The streak
    /// accounting (`clean_since`, `stable_streak`) comes pre-folded from the
    /// engine: drivers only *sample* the latest summary (the sim's gossip
    /// tick sees one sweep in dozens), so inferring streaks here from
    /// consecutive recordings would reset them on every sample. Idempotent
    /// per sweep.
    pub fn record_local(&mut self, rank: usize, sweep: &SweepSummary) {
        let row = &mut self.rows[rank];
        if row.generation == sweep.generation
            && row.epoch == sweep.epoch
            && row.latest == sweep.iteration
        {
            return;
        }
        *row = DigestRow {
            rank: rank as u16,
            generation: sweep.generation,
            epoch: sweep.epoch,
            latest: sweep.iteration,
            clean_since: sweep.clean_since,
            stable_streak: sweep.stable_streak,
            flags: (if sweep.stable { ROW_STABLE } else { 0 })
                | (if sweep.has_async_neighbors {
                    ROW_HAS_ASYNC
                } else {
                    0
                }),
            points: sweep.points,
            busy_ns: sweep.busy_ns,
        };
    }

    /// Merge one received row (last-writer-wins per rank); returns whether
    /// the row superseded the local copy.
    pub fn merge_row(&mut self, row: &DigestRow) -> bool {
        let rank = row.rank as usize;
        if rank >= self.rows.len() {
            return false;
        }
        if row.supersedes(&self.rows[rank]) {
            self.rows[rank] = *row;
            return true;
        }
        false
    }

    /// Drop every piece of evidence a rank published before `epoch_floor`:
    /// called when a death verdict lands, so the dead incarnation's stale
    /// stability cannot satisfy the asynchronous criterion after the rank's
    /// silent interval (the central fold's `mark_crashed` analogue).
    pub fn void_below_epoch(&mut self, rank: usize, epoch_floor: u32) {
        if rank < self.rows.len() && self.rows[rank].epoch < epoch_floor {
            let mut row = DigestRow::empty(rank);
            row.generation = self.rows[rank].generation;
            // Load history stays: placement weights outlive a crash.
            row.points = self.rows[rank].points;
            row.busy_ns = self.rows[rank].busy_ns;
            self.rows[rank] = row;
        }
    }

    /// The author epoch the digest currently holds for `rank`.
    pub fn epoch_of(&self, rank: usize) -> u32 {
        self.rows[rank].epoch
    }

    /// The gossiped per-rank load estimates (the decentralized stand-in for
    /// `ConvergenceDetector::loads` at the recovery/placement boundary).
    pub fn loads(&self, peers: usize) -> Vec<PeerLoad> {
        (0..peers)
            .map(|rank| self.rows.get(rank).map(DigestRow::load).unwrap_or_default())
            .collect()
    }

    /// Evaluate the global convergence criterion over the merged digest:
    /// the same fold `ConvergenceDetector::report` applies centrally,
    /// expressed over clean intervals instead of per-iteration entries.
    /// `universe` is the live rank count (joins grow it), `generation` the
    /// caller's rollback generation, and `evidence_ok(rank)` gates ranks
    /// whose evidence is currently void (suspected or dead members).
    pub fn decision(
        &self,
        scheme: Scheme,
        universe: usize,
        generation: u32,
        mut evidence_ok: impl FnMut(usize) -> bool,
    ) -> bool {
        if universe == 0 || universe > self.rows.len() {
            return false;
        }
        let rows = &self.rows[..universe];
        if rows.iter().enumerate().any(|(rank, row)| {
            row.generation != generation
                || row.latest == 0
                || !evidence_ok(rank)
                || !row.meets_stop_criterion(scheme)
        }) {
            return false;
        }
        match scheme {
            Scheme::Synchronous | Scheme::Hybrid => {
                // Witness iteration: the latest start of a clean streak
                // (every rank has one, checked above). It must lie inside
                // every rank's clean interval — then every rank's local
                // difference at the witness was at or below the tolerance,
                // which is the central fold's per-iteration test.
                let witness = rows.iter().map(|r| r.clean_since).max().unwrap_or(u64::MAX);
                let covered = rows.iter().all(|r| r.latest >= witness);
                // Hybrid: ranks with asynchronous (cross-cluster) neighbours
                // must additionally be stable, so stale inter-cluster
                // boundaries cannot fake convergence (same rule as the
                // central fold).
                let stable_ok = scheme == Scheme::Synchronous
                    || rows
                        .iter()
                        .all(|r| r.flags & ROW_HAS_ASYNC == 0 || r.flags & ROW_STABLE != 0);
                covered && stable_ok
            }
            // Asynchronous: every rank reported two consecutive stable
            // sweeps (the central fold's streak criterion), checked above.
            Scheme::Asynchronous => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A summary the way the engine authors it: `clean_since == u64::MAX`
    /// means the sweep was dirty, a zero streak means it was unstable.
    fn sweep(iteration: u64, clean_since: u64, stable_streak: u32) -> SweepSummary {
        SweepSummary {
            iteration,
            clean: clean_since != u64::MAX,
            stable: stable_streak > 0,
            clean_since,
            stable_streak,
            generation: 0,
            epoch: 0,
            has_async_neighbors: false,
            points: iteration * 10,
            busy_ns: iteration * 1000,
        }
    }

    #[test]
    fn sync_decision_needs_a_common_clean_iteration() {
        let mut digest = ConvergenceDigest::new(2);
        digest.record_local(0, &sweep(1, u64::MAX, 0));
        digest.record_local(0, &sweep(2, 2, 1));
        digest.record_local(0, &sweep(3, 2, 2));
        assert!(!digest.decision(Scheme::Synchronous, 2, 0, |_| true));
        // Rank 1 goes clean at iteration 3: the witness (3) is inside both
        // clean intervals [2,3] and [3,3].
        digest.record_local(1, &sweep(1, u64::MAX, 0));
        digest.record_local(1, &sweep(2, u64::MAX, 0));
        assert!(!digest.decision(Scheme::Synchronous, 2, 0, |_| true));
        digest.record_local(1, &sweep(3, 3, 1));
        assert!(digest.decision(Scheme::Synchronous, 2, 0, |_| true));
        // A dirty sweep resets the interval: no common clean iteration again.
        digest.record_local(1, &sweep(4, u64::MAX, 0));
        assert!(!digest.decision(Scheme::Synchronous, 2, 0, |_| true));
    }

    #[test]
    fn async_decision_needs_streaks_everywhere_and_respects_gates() {
        let mut digest = ConvergenceDigest::new(2);
        for it in 1..=3u64 {
            digest.record_local(0, &sweep(it, 1, it as u32));
            digest.record_local(1, &sweep(it, 1, it as u32));
        }
        assert!(digest.decision(Scheme::Asynchronous, 2, 0, |_| true));
        // A suspected member's evidence is void.
        assert!(!digest.decision(Scheme::Asynchronous, 2, 0, |rank| rank != 1));
    }

    /// Sampling resilience (the sim's gossip tick sees one sweep in dozens):
    /// recording iteration 10 and then iteration 300 must keep the
    /// engine-authored streak, not reset it at each sample.
    #[test]
    fn sparse_sampling_keeps_engine_authored_streaks() {
        let mut digest = ConvergenceDigest::new(1);
        digest.record_local(0, &sweep(10, 3, 8));
        assert!(digest.decision(Scheme::Asynchronous, 1, 0, |_| true));
        digest.record_local(0, &sweep(300, 3, 298));
        assert_eq!(digest.row(0).stable_streak, 298);
        assert_eq!(digest.row(0).clean_since, 3);
        assert!(digest.decision(Scheme::Asynchronous, 1, 0, |_| true));
    }

    #[test]
    fn merge_is_last_writer_wins_and_voiding_respects_epochs() {
        let mut a = ConvergenceDigest::new(2);
        let mut b = ConvergenceDigest::new(2);
        b.record_local(1, &sweep(5, 5, 1));
        let row = *b.row(1);
        assert!(a.merge_row(&row));
        assert!(!a.merge_row(&row), "idempotent");
        // Death verdict: rank 1's epoch-0 evidence is void; its load stays.
        a.void_below_epoch(1, 1);
        assert_eq!(a.row(1).latest, 0);
        assert_eq!(a.row(1).points, 50);
        // The stale row cannot re-enter by re-gossip once the recovered
        // incarnation (epoch 1) has reported.
        let mut recovered = sweep(2, 2, 1);
        recovered.epoch = 1;
        b.record_local(1, &recovered);
        assert!(a.merge_row(b.row(1)));
        assert!(!a.merge_row(&row), "dead incarnation's row lost the merge");
    }

    #[test]
    fn generation_mismatch_blocks_decision() {
        let mut digest = ConvergenceDigest::new(1);
        digest.record_local(0, &sweep(2, 2, 1));
        digest.record_local(0, &sweep(3, 2, 2));
        assert!(digest.decision(Scheme::Asynchronous, 1, 0, |_| true));
        assert!(!digest.decision(Scheme::Asynchronous, 1, 1, |_| true));
    }
}
