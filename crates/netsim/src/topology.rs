//! Topology: nodes, clusters, and which link spec connects any two nodes.
//!
//! The paper's experiments use either a single cluster of identical machines
//! on 100 Mbit/s Ethernet, or the same machines split into two clusters
//! connected through an emulated Internet path with 100 ms latency (netem).

use crate::link::LinkSpec;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Identifier of a peer machine in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl NodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// Identifier of a cluster of peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ClusterId(pub usize);

/// Whether a pair of peers is connected inside a cluster or across clusters.
/// This is the topology context the P2PSAP controller consumes (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ConnectionType {
    /// Both endpoints are in the same cluster (LAN, low latency, reliable).
    IntraCluster,
    /// Endpoints are in different clusters (WAN, high latency, lossy).
    InterCluster,
}

/// Static description of a node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Node identity.
    pub id: NodeId,
    /// Cluster this node belongs to.
    pub cluster: ClusterId,
    /// Relative CPU speed (1.0 = the paper's 1 GHz reference machine).
    /// The compute model divides per-relaxation cost by this factor.
    pub cpu_speed: f64,
}

/// A network topology: a set of nodes partitioned into clusters plus the link
/// specifications used inside and between clusters.
///
/// The node table is shared between clones and copied on write
/// ([`Topology::push_node`], [`Topology::set_cpu_speed`]), so a clone costs
/// one pointer, not one entry per node: every peer of a run keeps one.
#[derive(Debug, Clone)]
pub struct Topology {
    nodes: Arc<Vec<NodeSpec>>,
    intra_link: LinkSpec,
    inter_link: LinkSpec,
}

impl Topology {
    /// All `n` nodes in one cluster connected by `intra_link`.
    pub fn single_cluster(n: usize, intra_link: LinkSpec) -> Self {
        assert!(n > 0, "topology needs at least one node");
        let nodes = (0..n)
            .map(|i| NodeSpec {
                id: NodeId(i),
                cluster: ClusterId(0),
                cpu_speed: 1.0,
            })
            .collect();
        Self {
            nodes: Arc::new(nodes),
            intra_link: intra_link.clone(),
            inter_link: intra_link,
        }
    }

    /// `n` nodes split as evenly as possible into two clusters; `intra_link`
    /// inside each cluster and `inter_link` between them.
    pub fn two_clusters(n: usize, intra_link: LinkSpec, inter_link: LinkSpec) -> Self {
        assert!(n > 0, "topology needs at least one node");
        let half = n.div_ceil(2);
        let nodes = (0..n)
            .map(|i| NodeSpec {
                id: NodeId(i),
                cluster: ClusterId(usize::from(i >= half)),
                cpu_speed: 1.0,
            })
            .collect();
        Self {
            nodes: Arc::new(nodes),
            intra_link,
            inter_link,
        }
    }

    /// The paper's single-cluster NICTA configuration: `n` identical machines
    /// on 100 Mbit/s Ethernet.
    pub fn nicta_single_cluster(n: usize) -> Self {
        Self::single_cluster(n, LinkSpec::ethernet_100mbps())
    }

    /// The paper's two-cluster configuration: Ethernet inside each cluster and
    /// an emulated Internet path with 100 ms latency between clusters.
    pub fn nicta_two_clusters(n: usize) -> Self {
        Self::two_clusters(n, LinkSpec::ethernet_100mbps(), LinkSpec::internet_100ms())
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the topology has no nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterate over node specs.
    pub fn nodes(&self) -> impl Iterator<Item = &NodeSpec> {
        self.nodes.iter()
    }

    /// Node spec by id.
    pub fn node(&self, id: NodeId) -> &NodeSpec {
        &self.nodes[id.0]
    }

    /// Set the relative CPU speed of a node (heterogeneity experiments).
    pub fn set_cpu_speed(&mut self, id: NodeId, speed: f64) {
        assert!(speed > 0.0, "cpu speed must be positive");
        Arc::make_mut(&mut self.nodes)[id.0].cpu_speed = speed;
    }

    /// Cluster of a node.
    pub fn cluster_of(&self, id: NodeId) -> ClusterId {
        self.nodes[id.0].cluster
    }

    /// Number of distinct clusters.
    pub fn cluster_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.cluster.0)
            .max()
            .map(|m| m + 1)
            .unwrap_or(0)
    }

    /// Classify the connection between two nodes.
    pub fn connection_type(&self, a: NodeId, b: NodeId) -> ConnectionType {
        if self.cluster_of(a) == self.cluster_of(b) {
            ConnectionType::IntraCluster
        } else {
            ConnectionType::InterCluster
        }
    }

    /// Link spec used between two nodes.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> &LinkSpec {
        match self.connection_type(a, b) {
            ConnectionType::IntraCluster => &self.intra_link,
            ConnectionType::InterCluster => &self.inter_link,
        }
    }

    /// Intra-cluster link spec.
    pub fn intra_link(&self) -> &LinkSpec {
        &self.intra_link
    }

    /// Inter-cluster link spec.
    pub fn inter_link(&self) -> &LinkSpec {
        &self.inter_link
    }

    /// Mutable access to the inter-cluster link (netem re-configuration).
    pub fn inter_link_mut(&mut self) -> &mut LinkSpec {
        &mut self.inter_link
    }

    /// Append a node to the topology (elastic membership: a peer joining a
    /// run mid-flight). The new node gets the next free id.
    pub fn push_node(&mut self, cluster: ClusterId, cpu_speed: f64) -> NodeId {
        assert!(cpu_speed > 0.0, "cpu speed must be positive");
        let id = NodeId(self.nodes.len());
        Arc::make_mut(&mut self.nodes).push(NodeSpec {
            id,
            cluster,
            cpu_speed,
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;

    #[test]
    fn single_cluster_is_all_intra() {
        let t = Topology::nicta_single_cluster(8);
        assert_eq!(t.len(), 8);
        assert_eq!(t.cluster_count(), 1);
        for i in 0..8 {
            for j in 0..8 {
                assert_eq!(
                    t.connection_type(NodeId(i), NodeId(j)),
                    ConnectionType::IntraCluster
                );
            }
        }
    }

    #[test]
    fn two_clusters_split_evenly() {
        let t = Topology::nicta_two_clusters(24);
        assert_eq!(t.cluster_count(), 2);
        let c0 = t.nodes().filter(|n| n.cluster == ClusterId(0)).count();
        let c1 = t.nodes().filter(|n| n.cluster == ClusterId(1)).count();
        assert_eq!(c0, 12);
        assert_eq!(c1, 12);
        assert_eq!(
            t.connection_type(NodeId(0), NodeId(23)),
            ConnectionType::InterCluster
        );
        assert_eq!(
            t.connection_type(NodeId(0), NodeId(11)),
            ConnectionType::IntraCluster
        );
    }

    #[test]
    fn odd_split_puts_extra_node_in_first_cluster() {
        let t = Topology::nicta_two_clusters(5);
        let c0 = t.nodes().filter(|n| n.cluster == ClusterId(0)).count();
        assert_eq!(c0, 3);
    }

    #[test]
    fn inter_cluster_link_has_wan_latency() {
        let t = Topology::nicta_two_clusters(4);
        let lan = t.link_between(NodeId(0), NodeId(1));
        let wan = t.link_between(NodeId(0), NodeId(3));
        assert_eq!(wan.latency, SimDuration::from_millis(100));
        assert!(lan.latency < wan.latency);
    }

    #[test]
    fn cpu_speed_is_settable() {
        let mut t = Topology::nicta_single_cluster(2);
        t.set_cpu_speed(NodeId(1), 2.0);
        assert_eq!(t.node(NodeId(1)).cpu_speed, 2.0);
        assert_eq!(t.node(NodeId(0)).cpu_speed, 1.0);
    }

    #[test]
    fn clones_share_the_node_table_until_one_writes() {
        let mut t = Topology::nicta_single_cluster(4);
        let copy = t.clone();
        assert!(Arc::ptr_eq(&t.nodes, &copy.nodes));
        t.set_cpu_speed(NodeId(1), 2.0);
        t.push_node(ClusterId(1), 1.0);
        assert_eq!((t.len(), t.node(NodeId(1)).cpu_speed), (5, 2.0));
        assert_eq!((copy.len(), copy.node(NodeId(1)).cpu_speed), (4, 1.0));
    }
}
