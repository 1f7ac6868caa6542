//! The (currently centralized) topology manager of P2PDC.
//!
//! A server stores information about every node in the network. Nodes join by
//! sending a registration message and must ping periodically; a peer missing
//! three consecutive ping periods is considered disconnected and removed.
//! When the task manager needs peers for a new application it asks the server
//! for `k` free peers.

use desim::{SimDuration, SimTime};
use netsim::{ClusterId, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Number of missed ping periods after which a peer is evicted.
pub const MISSED_PINGS_BEFORE_EVICTION: u32 = 3;

/// State the server keeps per registered peer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PeerRecord {
    /// Peer identity.
    pub node: NodeId,
    /// Cluster the peer reported at registration.
    pub cluster: ClusterId,
    /// Relative CPU speed reported by the peer.
    pub cpu_speed: f64,
    /// Last time a ping (or the registration) was received.
    pub last_ping: SimTime,
    /// Whether the peer is currently allocated to a running application.
    pub busy: bool,
}

/// The centralized topology-manager server.
#[derive(Debug, Clone)]
pub struct TopologyManager {
    ping_period: SimDuration,
    peers: BTreeMap<usize, PeerRecord>,
}

impl TopologyManager {
    /// Create a server with the given ping period.
    pub fn new(ping_period: SimDuration) -> Self {
        assert!(!ping_period.is_zero());
        Self {
            ping_period,
            peers: BTreeMap::new(),
        }
    }

    /// A node joined the network. Returns true when it was newly added (an
    /// acknowledgement is sent either way).
    pub fn register(
        &mut self,
        node: NodeId,
        cluster: ClusterId,
        cpu_speed: f64,
        now: SimTime,
    ) -> bool {
        let fresh = !self.peers.contains_key(&node.0);
        self.peers.insert(
            node.0,
            PeerRecord {
                node,
                cluster,
                cpu_speed,
                last_ping: now,
                busy: false,
            },
        );
        fresh
    }

    /// A ping arrived from a peer. Returns false for unknown peers (they must
    /// re-register).
    pub fn ping(&mut self, node: NodeId, now: SimTime) -> bool {
        match self.peers.get_mut(&node.0) {
            Some(record) => {
                record.last_ping = now;
                true
            }
            None => false,
        }
    }

    /// One batched ping sweep on behalf of many peers (one server
    /// acquisition for a whole batch, e.g. every peer an event loop
    /// multiplexes, instead of one per peer). Returns the nodes the
    /// server no longer knows — they must re-register, exactly as a `false`
    /// from [`TopologyManager::ping`] demands.
    pub fn ping_many(&mut self, nodes: &[NodeId], now: SimTime) -> Vec<NodeId> {
        let mut unknown = Vec::new();
        for &node in nodes {
            if !self.ping(node, now) {
                unknown.push(node);
            }
        }
        unknown
    }

    /// Remove every peer whose last ping is older than three ping periods.
    /// Returns the evicted peer ids.
    pub fn evict_stale(&mut self, now: SimTime) -> Vec<NodeId> {
        let deadline = self
            .ping_period
            .saturating_mul(MISSED_PINGS_BEFORE_EVICTION as u64);
        let stale: Vec<usize> = self
            .peers
            .values()
            .filter(|r| now.saturating_since(r.last_ping) > deadline)
            .map(|r| r.node.0)
            .collect();
        for id in &stale {
            self.peers.remove(id);
        }
        stale.into_iter().map(NodeId).collect()
    }

    /// Explicitly remove a peer (e.g. on an `exit` command).
    pub fn remove(&mut self, node: NodeId) -> bool {
        self.peers.remove(&node.0).is_some()
    }

    /// Allocate `count` free peers for a new application, marking them busy.
    /// Returns `None` (and allocates nothing) if not enough free peers exist.
    pub fn collect_peers(&mut self, count: usize) -> Option<Vec<NodeId>> {
        let free: Vec<usize> = self
            .peers
            .values()
            .filter(|r| !r.busy)
            .map(|r| r.node.0)
            .take(count)
            .collect();
        if free.len() < count {
            return None;
        }
        for id in &free {
            self.peers.get_mut(id).expect("just listed").busy = true;
        }
        Some(free.into_iter().map(NodeId).collect())
    }

    /// Release peers after an application finished.
    pub fn release_peers(&mut self, peers: &[NodeId]) {
        for p in peers {
            if let Some(record) = self.peers.get_mut(&p.0) {
                record.busy = false;
            }
        }
    }

    /// Number of registered peers.
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    /// Number of registered peers not currently allocated.
    pub fn free_count(&self) -> usize {
        self.peers.values().filter(|r| !r.busy).count()
    }

    /// Record of a registered peer.
    pub fn peer(&self, node: NodeId) -> Option<&PeerRecord> {
        self.peers.get(&node.0)
    }

    /// The configured ping period.
    pub fn ping_period(&self) -> SimDuration {
        self.ping_period
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    fn manager() -> TopologyManager {
        TopologyManager::new(SimDuration::from_secs(1))
    }

    #[test]
    fn register_and_ping_keep_a_peer_alive() {
        let mut m = manager();
        assert!(m.register(NodeId(0), ClusterId(0), 1.0, t(0.0)));
        assert!(
            !m.register(NodeId(0), ClusterId(0), 1.0, t(0.5)),
            "re-registration is not new"
        );
        assert!(m.ping(NodeId(0), t(2.0)));
        assert!(m.evict_stale(t(4.9)).is_empty());
        assert_eq!(m.peer_count(), 1);
    }

    #[test]
    fn peer_evicted_after_three_missed_pings() {
        let mut m = manager();
        m.register(NodeId(0), ClusterId(0), 1.0, t(0.0));
        m.register(NodeId(1), ClusterId(0), 1.0, t(0.0));
        m.ping(NodeId(1), t(2.0));
        // At t=3.5, peer 0's last ping (t=0) is > 3 periods old; peer 1 is fine.
        let evicted = m.evict_stale(t(3.5));
        assert_eq!(evicted, vec![NodeId(0)]);
        assert_eq!(m.peer_count(), 1);
        assert!(!m.ping(NodeId(0), t(3.6)), "evicted peers must re-register");
    }

    #[test]
    fn peer_collection_allocates_and_releases() {
        let mut m = manager();
        for i in 0..4 {
            m.register(NodeId(i), ClusterId(0), 1.0, t(0.0));
        }
        assert!(m.collect_peers(5).is_none(), "not enough peers");
        assert_eq!(
            m.free_count(),
            4,
            "failed allocation must not mark peers busy"
        );
        let allocated = m.collect_peers(3).expect("enough peers");
        assert_eq!(allocated.len(), 3);
        assert_eq!(m.free_count(), 1);
        assert!(m.collect_peers(2).is_none());
        m.release_peers(&allocated);
        assert_eq!(m.free_count(), 4);
    }

    #[test]
    fn batched_ping_refreshes_known_peers_and_reports_unknown_ones() {
        let mut m = manager();
        m.register(NodeId(0), ClusterId(0), 1.0, t(0.0));
        m.register(NodeId(1), ClusterId(0), 1.0, t(0.0));
        // One batched sweep covering a known, an evicted and a never-known
        // peer: the known ones refresh, the others come back for
        // re-registration.
        assert_eq!(m.evict_stale(t(3.5)), vec![NodeId(0), NodeId(1)]);
        m.register(NodeId(1), ClusterId(0), 1.0, t(3.5));
        let unknown = m.ping_many(&[NodeId(0), NodeId(1), NodeId(9)], t(3.6));
        assert_eq!(unknown, vec![NodeId(0), NodeId(9)]);
        // The batched ping kept peer 1 alive exactly as individual pings
        // would: three periods after the sweep it is still registered, and
        // just past that boundary it goes.
        assert!(m.evict_stale(t(6.6)).is_empty());
        assert_eq!(m.evict_stale(t(6.7)), vec![NodeId(1)]);
        // An empty batch is a no-op.
        assert!(m.ping_many(&[], t(6.8)).is_empty());
    }

    #[test]
    fn explicit_removal() {
        let mut m = manager();
        m.register(NodeId(7), ClusterId(1), 2.0, t(0.0));
        assert_eq!(m.peer(NodeId(7)).unwrap().cpu_speed, 2.0);
        assert!(m.remove(NodeId(7)));
        assert!(!m.remove(NodeId(7)));
    }
}
