//! An asynchronous-iteration PageRank application: the first non-grid
//! workload of the experiment layer.
//!
//! Vertices form a ring with long chords (`v ~ v±1` and `v ~ v±stride`), so
//! contiguous vertex partitions are coupled not only to adjacent partitions
//! but also to partitions a third of the ring away — each peer exchanges
//! rank mass with *arbitrary* neighbour peers, exercising the engine beyond
//! the nearest-neighbour line topology of the PDE workloads.
//!
//! Peer `k` owns a contiguous vertex range and keeps the current rank of its
//! vertices. One relaxation recomputes every owned rank from the damped
//! PageRank update `r(v) = (1−d)/N + d·Σ_{u~v} r(u)/deg(u)`, where the
//! contributions of remote vertices come from the freshest *contribution
//! vector* each neighbour peer has sent (one `f64` per receiver-owned
//! vertex: the rank mass the sender's vertices push into it). Under the
//! synchronous scheme this is exactly the classic power iteration; under the
//! asynchronous scheme peers free-run on the freshest received mass — the
//! totally asynchronous iteration the paper's schemes of computation target.

use crate::app::{FrameSink, IterativeTask, LocalRelax};
use crate::obstacle_app::UpdateMsg;
use crate::workload::{
    assemble_global, balanced_partition, encode_block_state, restore_block_state, Repartitioner,
    Workload,
};
use obstacle::{store_le_plane, sup_norm_diff};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The damping factor of the PageRank iteration.
pub const DAMPING: f64 = 0.85;

/// An undirected graph in adjacency-list form (every undirected edge counts
/// as two directed edges, so a vertex's out-degree equals its degree).
#[derive(Debug, Clone)]
pub struct PageRankGraph {
    adjacency: Vec<Vec<u32>>,
}

impl PageRankGraph {
    /// The built-in instance: a ring of `n` vertices where every third
    /// vertex additionally owns a chord of stride `max(2, n/3)`. The chords
    /// couple vertex partitions far beyond their ring-adjacent partitions,
    /// and their sparsity makes the degrees (and thus the stationary ranks)
    /// non-uniform — a fully regular circulant would already be stationary
    /// at the uniform starting vector and converge in one step.
    pub fn ring_with_chords(n: usize) -> Self {
        assert!(n >= 4, "a {n}-vertex ring is degenerate");
        let stride = (n / 3).max(2);
        let mut adjacency: Vec<std::collections::BTreeSet<u32>> =
            vec![std::collections::BTreeSet::new(); n];
        let mut connect = |a: usize, b: usize| {
            if a != b {
                adjacency[a].insert(b as u32);
                adjacency[b].insert(a as u32);
            }
        };
        for v in 0..n {
            connect(v, (v + 1) % n);
            if v % 3 == 0 {
                connect(v, (v + stride) % n);
            }
        }
        Self {
            adjacency: adjacency
                .into_iter()
                .map(|set| set.into_iter().collect())
                .collect(),
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Whether the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Neighbours of vertex `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adjacency[v]
    }

    /// Degree of vertex `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adjacency[v].len()
    }
}

/// One damped PageRank step over the full graph (the reference iteration the
/// distributed synchronous scheme reproduces).
pub fn pagerank_step(graph: &PageRankGraph, ranks: &[f64]) -> Vec<f64> {
    let n = graph.len();
    let mut next = vec![(1.0 - DAMPING) / n as f64; n];
    for (v, rank) in ranks.iter().enumerate() {
        let share = DAMPING * rank / graph.degree(v) as f64;
        for &u in graph.neighbors(v) {
            next[u as usize] += share;
        }
    }
    next
}

/// Iterate [`pagerank_step`] from the uniform vector until the sup-norm
/// successive difference drops to `tolerance`; returns the ranks and the
/// iteration count.
pub fn pagerank_reference(
    graph: &PageRankGraph,
    tolerance: f64,
    max_iterations: u64,
) -> (Vec<f64>, u64) {
    let n = graph.len();
    let mut ranks = vec![1.0 / n as f64; n];
    for iteration in 1..=max_iterations {
        let next = pagerank_step(graph, &ranks);
        let diff = sup_norm_diff(&ranks, &next);
        ranks = next;
        if diff <= tolerance {
            return (ranks, iteration);
        }
    }
    (ranks, max_iterations)
}

/// Owner peer of vertex `v` under an explicit contiguous partition. The
/// ranges are sorted and tile the vertex space, so a binary search keeps
/// the per-edge lookup O(log peers) (task construction visits every edge
/// endpoint, on the fault-free path and at every repartition alike).
fn owner_in(parts: &[(usize, usize)], v: usize) -> usize {
    let owner = parts.partition_point(|&(start, _)| start <= v) - 1;
    debug_assert!(
        (parts[owner].0..parts[owner].0 + parts[owner].1).contains(&v),
        "vertex outside the partition"
    );
    owner
}

/// The balanced contiguous vertex partition of `vertices` over `peers`.
fn balanced_parts(vertices: usize, peers: usize) -> Arc<Vec<(usize, usize)>> {
    Arc::new(
        (0..peers)
            .map(|k| balanced_partition(vertices, peers, k))
            .collect(),
    )
}

/// The per-peer computation: a vertex partition's rank vector iterated on
/// local plus freshest-received rank mass, speaking the [`IterativeTask`]
/// interface. The partition is explicit (live repartitioning re-slices it
/// mid-run); [`PageRankTask::new`] builds the balanced one.
pub struct PageRankTask {
    graph: Arc<PageRankGraph>,
    /// The full contiguous vertex partition (`(start, len)` per rank),
    /// shared by every task built from one partition.
    parts: Arc<Vec<(usize, usize)>>,
    rank: usize,
    v_start: usize,
    /// Current ranks of the owned vertices.
    ranks: Vec<f64>,
    /// Freshest contribution vector received from each neighbour peer (rank
    /// mass pushed into this peer's vertices, damping not yet applied).
    external: BTreeMap<usize, Vec<f64>>,
    /// Peers owning at least one vertex adjacent to this partition (fixed
    /// once the partition is, so computed at construction).
    neighbor_peers: Vec<usize>,
    /// Owned work per sweep (sum of owned degrees).
    work_points: u64,
    relaxations: u64,
    /// Reusable sweep buffer (the next rank vector is built here and
    /// swapped in, instead of allocating a fresh vector per relaxation).
    next_scratch: Vec<f64>,
    /// Reusable contribution buffer of the encode path.
    contribution_scratch: Vec<f64>,
}

impl PageRankTask {
    /// Create the task of peer `rank` among `peers` peers (balanced
    /// partition, uniform initial ranks).
    pub fn new(graph: Arc<PageRankGraph>, peers: usize, rank: usize) -> Self {
        let parts = balanced_parts(graph.len(), peers);
        Self::uniform(graph, parts, rank)
    }

    /// The task of `rank` under a shared partition, every rank (owned and
    /// neighbours') at the uniform starting value.
    fn uniform(graph: Arc<PageRankGraph>, parts: Arc<Vec<(usize, usize)>>, rank: usize) -> Self {
        let n = graph.len();
        assert!(
            parts.len() <= n,
            "{} peers cannot split {n} vertices",
            parts.len()
        );
        Self::seeded(graph, parts, rank, |_| 1.0 / n as f64, 0)
    }

    /// Create the task of `rank` for an explicit vertex partition, with
    /// owned ranks and the seeded external contributions taken from a full
    /// global rank vector (live repartitioning). Seeding the externals from
    /// the same global vector makes the next synchronous sweep exactly the
    /// power step of that vector, independent of the partition.
    pub fn from_parts(
        graph: Arc<PageRankGraph>,
        parts: &[(usize, usize)],
        rank: usize,
        global: &[f64],
        iteration: u64,
    ) -> Self {
        assert_eq!(
            global.len(),
            graph.len(),
            "global rank vector size mismatch"
        );
        let parts = Arc::new(parts.to_vec());
        Self::seeded(graph, parts, rank, |v| global[v], iteration)
    }

    /// The task of `rank` under `parts`, its owned ranks and the seeded
    /// external contributions read off `value` (vertex → global rank), with
    /// the relaxation counter at `iteration`. Only the vertices of `rank`
    /// and of its neighbour peers are read.
    fn seeded(
        graph: Arc<PageRankGraph>,
        parts: Arc<Vec<(usize, usize)>>,
        rank: usize,
        value: impl Fn(usize) -> f64,
        iteration: u64,
    ) -> Self {
        let (v_start, v_len) = parts[rank];
        let work_points = (v_start..v_start + v_len)
            .map(|v| graph.degree(v) as u64)
            .sum();
        let neighbor_peers: Vec<usize> = {
            let mut set = std::collections::BTreeSet::new();
            for v in v_start..v_start + v_len {
                for &u in graph.neighbors(v) {
                    let owner = owner_in(&parts, u as usize);
                    if owner != rank {
                        set.insert(owner);
                    }
                }
            }
            set.into_iter().collect()
        };
        let mut task = Self {
            graph,
            parts,
            rank,
            v_start,
            ranks: (v_start..v_start + v_len).map(&value).collect(),
            external: BTreeMap::new(),
            neighbor_peers,
            work_points,
            relaxations: iteration,
            next_scratch: Vec::new(),
            contribution_scratch: Vec::new(),
        };
        for peer in task.neighbor_peers.clone() {
            let seeded = task.contribution_from(peer, &value);
            task.external.insert(peer, seeded);
        }
        task
    }

    /// The vertex range owned by this task, as `(first, count)`.
    pub fn vertex_range(&self) -> (usize, usize) {
        (self.v_start, self.ranks.len())
    }

    /// The contribution vector peer `peer` pushes into this partition, given
    /// the ranks of that peer's vertices. Used only to seed
    /// [`PageRankTask::external`] at construction (afterwards the real
    /// vectors arrive by message).
    fn contribution_from(&self, peer: usize, value: impl Fn(usize) -> f64) -> Vec<f64> {
        let (peer_start, peer_len) = self.parts[peer];
        let mut contribution = vec![0.0; self.ranks.len()];
        for v in peer_start..peer_start + peer_len {
            let share = value(v) / self.graph.degree(v) as f64;
            for &u in self.graph.neighbors(v) {
                let u = u as usize;
                if (self.v_start..self.v_start + self.ranks.len()).contains(&u) {
                    contribution[u - self.v_start] += share;
                }
            }
        }
        contribution
    }

    /// Scatter this peer's current rank mass into `out` (resized to `peer`'s
    /// partition length), reusing the buffer's capacity across calls.
    fn contribution_to_into(&self, peer: usize, out: &mut Vec<f64>) {
        let (peer_start, peer_len) = self.parts[peer];
        out.clear();
        out.resize(peer_len, 0.0);
        for (i, r) in self.ranks.iter().enumerate() {
            let v = self.v_start + i;
            let share = r / self.graph.degree(v) as f64;
            for &u in self.graph.neighbors(v) {
                let u = u as usize;
                if (peer_start..peer_start + peer_len).contains(&u) {
                    out[u - peer_start] += share;
                }
            }
        }
    }
}

impl IterativeTask for PageRankTask {
    fn relax(&mut self) -> LocalRelax {
        let n = self.graph.len();
        let v_len = self.ranks.len();
        // Reused sweep buffer: same values as a fresh
        // `vec![(1.0 - DAMPING) / n; v_len]`, without the allocation.
        let mut next = std::mem::take(&mut self.next_scratch);
        next.clear();
        next.resize(v_len, (1.0 - DAMPING) / n as f64);
        // Mass from owned vertices.
        for (i, r) in self.ranks.iter().enumerate() {
            let v = self.v_start + i;
            let share = DAMPING * r / self.graph.degree(v) as f64;
            for &u in self.graph.neighbors(v) {
                let u = u as usize;
                if (self.v_start..self.v_start + v_len).contains(&u) {
                    next[u - self.v_start] += share;
                }
            }
        }
        // Freshest mass from every neighbour peer.
        for contribution in self.external.values() {
            for (i, c) in contribution.iter().enumerate() {
                next[i] += DAMPING * c;
            }
        }
        let diff = sup_norm_diff(&self.ranks, &next);
        self.next_scratch = std::mem::replace(&mut self.ranks, next);
        self.relaxations += 1;
        LocalRelax {
            local_diff: diff,
            work_points: self.work_points,
        }
    }

    fn encode_outgoing(&mut self, sink: &mut FrameSink) {
        // The contribution vector is scattered into a reused scratch buffer
        // and serialized straight into the sink's pooled buffers.
        let iteration = self.relaxations;
        let from = self.rank as u32;
        let mut scratch = std::mem::take(&mut self.contribution_scratch);
        for idx in 0..self.neighbor_peers.len() {
            let peer = self.neighbor_peers[idx];
            self.contribution_to_into(peer, &mut scratch);
            UpdateMsg::encode_into(sink.frame(peer), from, iteration, &scratch);
        }
        self.contribution_scratch = scratch;
    }

    fn incorporate(&mut self, from: usize, payload: &[u8]) -> f64 {
        // Every held contribution is `ranks.len()` long, so a vector of any
        // other length is refused by the store.
        UpdateMsg::parse(payload)
            .zip(self.external.get_mut(&from))
            .and_then(|(update, held)| store_le_plane(held, update.plane_le))
            .unwrap_or(0.0)
    }

    fn neighbors(&self) -> Vec<usize> {
        self.neighbor_peers.clone()
    }

    fn result(&self) -> Vec<u8> {
        encode_block_state(self.v_start, self.ranks.len(), &self.ranks)
    }

    fn relaxations(&self) -> u64 {
        self.relaxations
    }

    fn restore(&mut self, state: &[u8], iteration: u64) -> bool {
        // The checkpoint format is the result format. The freshest received
        // external contributions are kept (they are at least as fresh as
        // what the checkpoint saw).
        let restored = restore_block_state(&mut self.ranks, self.v_start, state, 1);
        if restored {
            self.relaxations = iteration;
        }
        restored
    }
}

/// The PageRank workload: graph construction, task factory, assembly and
/// residual for the workload-generic experiment driver.
pub struct PageRankWorkload {
    graph: Arc<PageRankGraph>,
    /// The balanced partition, built once and shared by every task.
    parts: Arc<Vec<(usize, usize)>>,
}

impl PageRankWorkload {
    /// The built-in ring-with-chords instance on `vertices` vertices.
    pub fn ring_with_chords(vertices: usize, peers: usize) -> Self {
        Self {
            graph: Arc::new(PageRankGraph::ring_with_chords(vertices)),
            parts: balanced_parts(vertices, peers),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> Arc<PageRankGraph> {
        Arc::clone(&self.graph)
    }
}

impl Workload for PageRankWorkload {
    fn name(&self) -> &'static str {
        "pagerank"
    }

    fn peers(&self) -> usize {
        self.parts.len()
    }

    fn task(&self, rank: usize) -> Box<dyn IterativeTask> {
        let (graph, parts) = (Arc::clone(&self.graph), Arc::clone(&self.parts));
        Box::new(PageRankTask::uniform(graph, parts, rank))
    }

    fn assemble(&self, results: &[(usize, Vec<u8>)]) -> Vec<f64> {
        let states = results.iter().map(|(_, bytes)| bytes.as_slice());
        assemble_global(vec![0.0; self.graph.len()], states, 1)
    }

    fn residual(&self, solution: &[f64]) -> f64 {
        pagerank_step(&self.graph, solution)
            .iter()
            .zip(solution)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    fn repartitioner(&self) -> Option<Arc<dyn Repartitioner>> {
        Some(Arc::new(PageRankReslicer {
            graph: Arc::clone(&self.graph),
        }))
    }
}

/// [`Repartitioner`] of the PageRank workload: the item space is the
/// vertices (one value each); the canvas is the uniform starting vector.
pub struct PageRankReslicer {
    graph: Arc<PageRankGraph>,
}

impl Repartitioner for PageRankReslicer {
    fn items(&self) -> usize {
        self.graph.len()
    }

    fn item_width(&self) -> usize {
        1
    }

    fn global_canvas(&self) -> Vec<f64> {
        vec![1.0 / self.graph.len() as f64; self.graph.len()]
    }

    fn task_for(
        &self,
        rank: usize,
        parts: &[(usize, usize)],
        global: &[f64],
        iteration: u64,
    ) -> Box<dyn IterativeTask> {
        Box::new(PageRankTask::from_parts(
            Arc::clone(&self.graph),
            parts,
            rank,
            global,
            iteration,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Application, WorkloadApp};
    use crate::obstacle_app::encode_testing::{assert_frames, first_frame_hex};
    use crate::workload::WorkloadKind;
    use p2psap::Scheme;
    use proptest::prelude::*;

    proptest! {
        /// `encode_outgoing` against the partition's own contribution
        /// vectors, one per neighbour peer in `neighbors()` order, over
        /// random graphs, ranks and sweep counts.
        #[test]
        fn encode_outgoing_carries_the_contribution_vectors(
            vertices in 8usize..80,
            peers_seed in 1usize..6,
            rank_seed in 0usize..6,
            sweeps in 0usize..6,
            generation in any::<u32>(),
        ) {
            let peers = 1 + peers_seed % 5;
            let rank = rank_seed % peers;
            let graph = Arc::new(PageRankGraph::ring_with_chords(vertices));
            let mut task = PageRankTask::new(graph, peers, rank);
            for _ in 0..sweeps {
                task.relax();
            }
            let expected: Vec<(usize, Vec<f64>)> = task
                .neighbors()
                .into_iter()
                .map(|peer| {
                    let mut contribution = Vec::new();
                    task.contribution_to_into(peer, &mut contribution);
                    (peer, contribution)
                })
                .collect();
            assert_frames(&mut task, rank, generation, &expected);
        }
    }

    /// Golden vector: 8 vertices split in two, rank 1 after one sweep. Tag,
    /// `from`, vector length, iteration, then the contributions, all
    /// little-endian.
    #[test]
    fn encode_outgoing_wire_layout_is_pinned() {
        let graph = Arc::new(PageRankGraph::ring_with_chords(8));
        let mut task = PageRankTask::new(graph, 2, 1);
        task.relax();
        assert_eq!(
            first_frame_hex(&mut task),
            concat!(
                "07000000",         // generation tag
                "01000000",         // from
                "04000000",         // vector length
                "0100000000000000", // iteration
                "176cc1166cc1b53f", // mass pushed into rank 0's four vertices
                "0000000000000000",
                "0000000000000000",
                "50faa44ffaa4b73f",
            )
        );
    }

    #[test]
    fn reference_ranks_form_a_distribution() {
        let graph = PageRankGraph::ring_with_chords(60);
        let (ranks, iterations) = pagerank_reference(&graph, 1e-10, 10_000);
        assert!((2..10_000).contains(&iterations), "trivial instance");
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "ranks must sum to 1, got {sum}");
        // The sparse chords make the degrees non-uniform, so the stationary
        // distribution is a genuine (non-uniform, positive) ranking.
        let min = ranks.iter().copied().fold(f64::INFINITY, f64::min);
        let max = ranks.iter().copied().fold(0.0f64, f64::max);
        assert!(min > 0.0);
        assert!(max - min > 1e-4, "ranks unexpectedly uniform");
    }

    #[test]
    fn tasks_with_exchange_reproduce_the_reference_iteration() {
        let n = 30;
        let peers = 3;
        let tolerance = 1e-8;
        let graph = Arc::new(PageRankGraph::ring_with_chords(n));
        let (reference, ref_iterations) = pagerank_reference(&graph, tolerance, 10_000);
        let mut tasks: Vec<PageRankTask> = (0..peers)
            .map(|rank| PageRankTask::new(Arc::clone(&graph), peers, rank))
            .collect();
        let mut iterations = 0u64;
        loop {
            let mut max_diff: f64 = 0.0;
            for task in tasks.iter_mut() {
                max_diff = max_diff.max(task.relax().local_diff);
            }
            iterations += 1;
            type Outbox = Vec<(usize, Vec<(usize, Vec<u8>)>)>;
            let outgoing: Outbox = tasks
                .iter_mut()
                .enumerate()
                .map(|(rank, task)| (rank, task.outgoing()))
                .collect();
            for (from, messages) in outgoing {
                for (dst, payload) in messages {
                    assert_ne!(dst, from);
                    tasks[dst].incorporate(from, &payload);
                }
            }
            if max_diff <= tolerance {
                break;
            }
            assert!(iterations < 10_000, "did not converge");
        }
        assert_eq!(iterations, ref_iterations);
        let results: Vec<(usize, Vec<u8>)> = tasks
            .iter()
            .enumerate()
            .map(|(rank, t)| (rank, t.result()))
            .collect();
        let solution = PageRankWorkload::ring_with_chords(n, peers).assemble(&results);
        let err = solution
            .iter()
            .zip(&reference)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-12, "distributed ranks deviate by {err}");
    }

    #[test]
    fn owner_of_inverts_the_partition_for_uneven_splits() {
        // Regression: the former guess-based owner lookup panicked for
        // (vertices, peers) pairs whose remainder drifts the guess by more
        // than one chunk, e.g. (34, 14) and (62, 18).
        for (n, peers) in [(34usize, 14usize), (62, 18), (100, 60), (7, 3), (240, 7)] {
            let parts: Vec<(usize, usize)> = (0..peers)
                .map(|k| balanced_partition(n, peers, k))
                .collect();
            for k in 0..peers {
                let (start, len) = balanced_partition(n, peers, k);
                for v in start..start + len {
                    assert_eq!(owner_in(&parts, v), k, "n={n} peers={peers} v={v}");
                }
            }
            // Every rank's task constructs without panicking.
            if n >= 4 {
                let graph = Arc::new(PageRankGraph::ring_with_chords(n));
                for rank in 0..peers {
                    let _ = PageRankTask::new(Arc::clone(&graph), peers, rank).neighbors();
                }
            }
        }
    }

    #[test]
    fn chords_create_non_adjacent_peer_neighbours() {
        // 6 peers on a 60-ring with stride-20 chords: peer 0 must exchange
        // with a peer that is not rank-adjacent (the chord target), proving
        // the communication pattern leaves the line topology.
        let graph = Arc::new(PageRankGraph::ring_with_chords(60));
        let task = PageRankTask::new(Arc::clone(&graph), 6, 0);
        let neighbors = task.neighbors();
        assert!(
            neighbors.iter().any(|&p| p != 1 && p != 5),
            "expected a chord neighbour beyond ranks 1 and 5, got {neighbors:?}"
        );
    }

    #[test]
    fn problem_definition_honours_command_line_overrides() {
        let app = WorkloadApp::new(
            |peers| WorkloadKind::PageRank.build(40, peers),
            2,
            Scheme::Asynchronous,
        );
        let overrides = serde_json::json!({"peers": 4, "scheme": "synchronous"});
        let def = app
            .problem_definition(&overrides)
            .expect("4 peers split 40 vertices");
        assert_eq!(def.peers_needed, 4);
        assert_eq!(def.scheme, Scheme::Synchronous);
        assert_eq!(def.subtasks.len(), 4);
        // Each sub-task names its rank's share of the vertices.
        let last = std::str::from_utf8(&def.subtasks[3].data).expect("JSON text");
        assert_eq!(last, r#"{"start":30,"count":10}"#);
    }
}
