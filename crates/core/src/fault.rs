//! Fault tolerance (paper architecture component 6 — listed but "not yet
//! developed" in the paper's implementation; implemented here as an
//! extension).
//!
//! Failures are scheduled by a seeded [`crate::churn::ChurnPlan`] and
//! detected after the plan's modelled delay (or, under gossip, by SWIM's
//! death verdict); this module decides what to do with the
//! failed peer's sub-task: reassign it to a spare peer, restarting from the
//! most recent checkpoint of that peer's block state. Asynchronous
//! iterations tolerate the resulting staleness (the paper notes asynchronous
//! schemes are fault tolerant "in some sense" since they allow message
//! loss); synchronous runs must roll every peer back to the checkpointed
//! iteration.
//!
//! Since the volatility subsystem (PR 4), this store is *live*: every
//! [`crate::runtime::engine::PeerEngine`] periodically deposits checkpoints
//! here through the shared [`crate::churn::VolatilityState`], and the
//! recovery path consumes [`FaultManager::on_failure`] when a peer dies.
//! Checkpoints keep a short per-rank history (not just the latest) so a
//! synchronous rollback can land every peer on one common iteration.

use netsim::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Checkpoints kept per rank; older ones are pruned. Synchronous peers stay
/// within one iteration of each other, so a handful of interval-aligned
/// checkpoints always covers the rollback target.
const CHECKPOINT_HISTORY: usize = 8;

/// A checkpoint of one peer's sub-task state.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Rank whose state is checkpointed.
    pub rank: usize,
    /// Relaxation count at the checkpoint.
    pub iteration: u64,
    /// Serialized task state (same format as
    /// `IterativeTask::checkpoint_state`, which defaults to
    /// `IterativeTask::result`).
    pub state: Vec<u8>,
}

impl Checkpoint {
    /// Serialize to a compact little-endian byte representation (the format
    /// a deployment would ship to a checkpoint server):
    /// rank (u32), iteration (u64), state length (u32), state bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.state.len());
        out.extend_from_slice(&(self.rank as u32).to_le_bytes());
        out.extend_from_slice(&self.iteration.to_le_bytes());
        out.extend_from_slice(&(self.state.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.state);
        out
    }

    /// Decode from bytes produced by [`Checkpoint::encode`]; `None` for
    /// truncated or garbage input (the advertised state length must match
    /// the buffer exactly).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < 16 {
            return None;
        }
        let rank = u32::from_le_bytes(bytes[0..4].try_into().ok()?) as usize;
        let iteration = u64::from_le_bytes(bytes[4..12].try_into().ok()?);
        let len = u32::from_le_bytes(bytes[12..16].try_into().ok()?) as usize;
        if bytes.len() != 16 + len {
            return None;
        }
        Some(Self {
            rank,
            iteration,
            state: bytes[16..].to_vec(),
        })
    }
}

/// Recovery action decided after a failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryAction {
    /// Restart the rank's sub-task on a spare peer from the given checkpoint
    /// iteration (0 = from the initial iterate).
    Reassign {
        /// Rank to restart.
        rank: usize,
        /// Peer that takes the work over.
        replacement: NodeId,
        /// Iteration to resume from.
        from_iteration: u64,
    },
    /// No spare peer is available: the computation must be paused until one
    /// joins.
    Pause {
        /// Rank left without an owner.
        rank: usize,
    },
}

/// Tracks checkpoints and proposes recovery plans.
#[derive(Debug, Clone, Default)]
pub struct FaultManager {
    /// Per-rank checkpoint history, keyed by iteration (latest last).
    checkpoints: BTreeMap<usize, BTreeMap<u64, Checkpoint>>,
    spares: Vec<NodeId>,
}

impl FaultManager {
    /// Create a fault manager with an initial pool of spare peers.
    pub fn new(spares: Vec<NodeId>) -> Self {
        Self {
            checkpoints: BTreeMap::new(),
            spares,
        }
    }

    /// Record the checkpoint of a rank (replacing any previous checkpoint at
    /// the same iteration; older history beyond a small window is pruned).
    pub fn store_checkpoint(&mut self, checkpoint: Checkpoint) {
        let history = self.checkpoints.entry(checkpoint.rank).or_default();
        history.insert(checkpoint.iteration, checkpoint);
        while history.len() > CHECKPOINT_HISTORY {
            let oldest = *history.keys().next().expect("non-empty");
            history.remove(&oldest);
        }
    }

    /// Latest checkpoint of a rank.
    pub fn checkpoint(&self, rank: usize) -> Option<&Checkpoint> {
        self.checkpoints
            .get(&rank)
            .and_then(|h| h.values().next_back())
    }

    /// Most recent checkpoint of `rank` at or before `iteration` (the
    /// rollback lookup: every peer checkpoints on the same interval grid, so
    /// a common target iteration exists for all of them).
    pub fn checkpoint_at_or_before(&self, rank: usize, iteration: u64) -> Option<&Checkpoint> {
        self.checkpoints
            .get(&rank)
            .and_then(|h| h.range(..=iteration).next_back())
            .map(|(_, c)| c)
    }

    /// Add a spare peer to the pool.
    pub fn add_spare(&mut self, peer: NodeId) {
        self.spares.push(peer);
    }

    /// Number of available spare peers.
    pub fn spare_count(&self) -> usize {
        self.spares.len()
    }

    /// A peer owning `rank` failed: decide the recovery action.
    pub fn on_failure(&mut self, rank: usize) -> RecoveryAction {
        match self.spares.pop() {
            Some(replacement) => RecoveryAction::Reassign {
                rank,
                replacement,
                from_iteration: self.checkpoint(rank).map(|c| c.iteration).unwrap_or(0),
            },
            None => RecoveryAction::Pause { rank },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn reassignment_uses_latest_checkpoint_and_consumes_a_spare() {
        let mut fm = FaultManager::new(vec![NodeId(10), NodeId(11)]);
        fm.store_checkpoint(Checkpoint {
            rank: 2,
            iteration: 150,
            state: vec![1, 2, 3],
        });
        fm.store_checkpoint(Checkpoint {
            rank: 2,
            iteration: 300,
            state: vec![4, 5, 6],
        });
        assert_eq!(fm.checkpoint(2).unwrap().iteration, 300);
        let action = fm.on_failure(2);
        assert_eq!(
            action,
            RecoveryAction::Reassign {
                rank: 2,
                replacement: NodeId(11),
                from_iteration: 300
            }
        );
        assert_eq!(fm.spare_count(), 1);
    }

    #[test]
    fn failure_without_checkpoint_restarts_from_zero() {
        let mut fm = FaultManager::new(vec![NodeId(9)]);
        match fm.on_failure(0) {
            RecoveryAction::Reassign { from_iteration, .. } => assert_eq!(from_iteration, 0),
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn failure_without_spares_pauses() {
        let mut fm = FaultManager::new(vec![]);
        assert_eq!(fm.on_failure(4), RecoveryAction::Pause { rank: 4 });
        fm.add_spare(NodeId(3));
        assert!(matches!(fm.on_failure(4), RecoveryAction::Reassign { .. }));
    }

    #[test]
    fn history_serves_rollback_lookups_and_is_pruned() {
        let mut fm = FaultManager::new(vec![]);
        for iteration in (0..=200).step_by(20) {
            fm.store_checkpoint(Checkpoint {
                rank: 1,
                iteration,
                state: vec![iteration as u8],
            });
        }
        // Latest wins for plain lookups; at-or-before serves rollbacks.
        assert_eq!(fm.checkpoint(1).unwrap().iteration, 200);
        assert_eq!(fm.checkpoint_at_or_before(1, 165).unwrap().iteration, 160);
        assert_eq!(fm.checkpoint_at_or_before(1, 160).unwrap().iteration, 160);
        // Pruned: the oldest entries are gone, the window stays bounded.
        assert!(fm.checkpoint_at_or_before(1, 0).is_none());
        assert!(fm.checkpoint_at_or_before(1, 59).is_none());
        assert_eq!(fm.checkpoint_at_or_before(1, 60).unwrap().iteration, 60);
    }

    proptest! {
        /// Round trip: any checkpoint survives encode → decode bit-exactly,
        /// and every strict prefix of the encoding is rejected (the length
        /// field pins the exact size, matching the `UpdateMsg` proptests).
        #[test]
        fn checkpoint_encode_decode_round_trips(
            rank in 0usize..1024,
            iteration in proptest::any::<u64>(),
            state in proptest::collection::vec(proptest::any::<u8>(), 0..96),
        ) {
            let cp = Checkpoint { rank, iteration, state };
            let bytes = cp.encode();
            prop_assert_eq!(bytes.len(), 16 + cp.state.len());
            prop_assert_eq!(Checkpoint::decode(&bytes), Some(cp));
            for cut in 0..bytes.len() {
                prop_assert_eq!(Checkpoint::decode(&bytes[..cut]), None);
            }
        }

        /// Length-mismatch rejection: a header advertising a different state
        /// length than the buffer carries must not decode.
        #[test]
        fn checkpoint_rejects_length_mismatch(
            rank in 0usize..1024,
            iteration in proptest::any::<u64>(),
            state in proptest::collection::vec(proptest::any::<u8>(), 0..32),
            delta in 1u32..64,
        ) {
            let cp = Checkpoint { rank, iteration, state };
            let mut bytes = cp.encode();
            let advertised = (cp.state.len() as u32).saturating_add(delta);
            bytes[12..16].copy_from_slice(&advertised.to_le_bytes());
            prop_assert_eq!(Checkpoint::decode(&bytes), None);
            // Garbage that merely looks long enough is rejected too.
            prop_assert_eq!(Checkpoint::decode(&[0xFF; 15]), None);
        }
    }
}
