//! The obstacle-problem application written against the P2PDC programming
//! model (Section IV / Figure 4 of the paper).
//!
//! Peer `k` owns the contiguous plane range `[o(k), l(k)]` of the 3-D grid.
//! After every relaxation it sends its first plane to peer `k−1` and its last
//! plane to peer `k+1`; incoming planes become ghost boundaries for the next
//! relaxation.

use crate::app::{FrameSink, IterativeTask, LocalRelax};
use crate::workload::{
    assemble_global, encode_block_state, restore_block_state, Repartitioner, Workload,
};
use obstacle::{
    fixed_point_residual, initial_iterate, BlockDecomposition, NodeState, ObstacleProblem,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// The boundary-plane update exchanged between neighbouring peers.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateMsg {
    /// Rank of the sending peer.
    pub from: u32,
    /// Relaxation index the plane belongs to.
    pub iteration: u64,
    /// The boundary plane values.
    pub plane: Vec<f64>,
}

impl UpdateMsg {
    /// Serialize to a compact little-endian byte representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.plane.len() * 8);
        Self::encode_into(&mut out, self.from, self.iteration, &self.plane);
        out
    }

    /// Append the wire representation of an update to `out` without building
    /// an [`UpdateMsg`] first: the zero-copy path serializes boundary planes
    /// straight from grid storage into a pooled buffer. Byte-identical to
    /// [`UpdateMsg::encode`] (which delegates here).
    pub fn encode_into(out: &mut Vec<u8>, from: u32, iteration: u64, plane: &[f64]) {
        // Grow once, then write in place: the plane loop is fixed-size
        // copies with no capacity check per value.
        let start = out.len();
        out.resize(start + 16 + plane.len() * 8, 0);
        let (header, body) = out[start..].split_at_mut(16);
        header[..4].copy_from_slice(&from.to_le_bytes());
        header[4..8].copy_from_slice(&(plane.len() as u32).to_le_bytes());
        header[8..].copy_from_slice(&iteration.to_le_bytes());
        for (slot, v) in body.chunks_exact_mut(8).zip(plane) {
            slot.copy_from_slice(&v.to_le_bytes());
        }
    }

    /// Parse the header of an encoded update and borrow its plane bytes:
    /// what a receiver needs to store the plane without first copying it
    /// into a `Vec<f64>` (see [`obstacle::store_le_plane`]). `None` when the
    /// buffer is shorter than the header or than the plane it advertises.
    pub fn parse(bytes: &[u8]) -> Option<UpdateView<'_>> {
        let (header, body) = bytes.split_at_checked(16)?;
        let len = u32::from_le_bytes(header[4..8].try_into().ok()?) as usize;
        Some(UpdateView {
            from: u32::from_le_bytes(header[0..4].try_into().ok()?),
            iteration: u64::from_le_bytes(header[8..16].try_into().ok()?),
            plane_le: body.get(..len.checked_mul(8)?)?,
        })
    }

    /// Decode from bytes produced by [`UpdateMsg::encode`].
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let view = Self::parse(bytes)?;
        Some(Self {
            from: view.from,
            iteration: view.iteration,
            plane: view.plane_le.chunks_exact(8).map(le_f64).collect(),
        })
    }
}

/// An encoded [`UpdateMsg`] with its header parsed and its plane still in
/// wire form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateView<'a> {
    /// Rank of the sending peer.
    pub from: u32,
    /// Relaxation index the plane belongs to.
    pub iteration: u64,
    /// The boundary plane values, little-endian `f64`s.
    pub plane_le: &'a [u8],
}

/// Parameters of the obstacle workload: the problem and its decomposition
/// (the scheme is the run's, in [`crate::runtime::RunConfig`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObstacleParams {
    /// Grid points per dimension.
    pub n: usize,
    /// Number of peers.
    pub peers: usize,
    /// Which built-in problem instance to solve.
    pub instance: ObstacleInstance,
}

/// The built-in obstacle-problem instances.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ObstacleInstance {
    /// Membrane stretched over a spherical bump (zero load).
    Membrane,
    /// Options-pricing-like instance (payoff obstacle, sink term).
    Financial,
    /// Unconstrained Poisson validation problem.
    PoissonValidation,
}

/// Build the problem instance selected by the parameters.
pub fn build_problem(params: &ObstacleParams) -> ObstacleProblem {
    match params.instance {
        ObstacleInstance::Membrane => ObstacleProblem::membrane(params.n),
        ObstacleInstance::Financial => ObstacleProblem::financial(params.n),
        ObstacleInstance::PoissonValidation => ObstacleProblem::poisson_validation(params.n),
    }
}

/// The per-peer computation: a wrapper of [`obstacle::NodeState`] speaking
/// the [`IterativeTask`] interface.
pub struct ObstacleTask {
    problem: Arc<ObstacleProblem>,
    rank: usize,
    alpha: usize,
    state: NodeState,
    delta: f64,
}

impl ObstacleTask {
    /// Create the task of peer `rank` among `alpha` peers.
    pub fn new(problem: Arc<ObstacleProblem>, alpha: usize, rank: usize) -> Self {
        let decomp = BlockDecomposition::balanced(problem.grid.n, alpha);
        let state = NodeState::new(&problem, &decomp, rank);
        let delta = problem.optimal_delta();
        Self {
            problem,
            rank,
            alpha,
            state,
            delta,
        }
    }

    /// Create the task of `rank` for an explicit plane partition, with owned
    /// planes and ghosts seeded from a global iterate (live repartitioning).
    pub fn from_parts(
        problem: Arc<ObstacleProblem>,
        parts: &[(usize, usize)],
        rank: usize,
        global: &[f64],
        iteration: u64,
    ) -> Self {
        let counts: Vec<usize> = parts.iter().map(|&(_, len)| len).collect();
        let decomp = BlockDecomposition::from_counts(problem.grid.n, &counts);
        let state = NodeState::from_global(&problem, &decomp, rank, global, iteration);
        let delta = problem.optimal_delta();
        Self {
            problem,
            rank,
            alpha: parts.len(),
            state,
            delta,
        }
    }

    /// The plane range owned by this task.
    pub fn plane_range(&self) -> (usize, usize) {
        (self.state.z_start(), self.state.z_end())
    }
}

impl IterativeTask for ObstacleTask {
    fn relax(&mut self) -> LocalRelax {
        let diff = self.state.sweep(&self.problem, self.delta);
        LocalRelax {
            local_diff: diff,
            work_points: self.state.local_len() as u64,
        }
    }

    fn encode_outgoing(&mut self, sink: &mut FrameSink) {
        // The boundary planes are serialized straight from grid storage
        // into the sink's pooled buffers.
        let iteration = self.state.relaxations();
        let from = self.rank as u32;
        if self.rank > 0 {
            UpdateMsg::encode_into(
                sink.frame(self.rank - 1),
                from,
                iteration,
                self.state.first_plane_slice(),
            );
        }
        if self.rank + 1 < self.alpha {
            UpdateMsg::encode_into(
                sink.frame(self.rank + 1),
                from,
                iteration,
                self.state.last_plane_slice(),
            );
        }
    }

    fn incorporate(&mut self, from: usize, payload: &[u8]) -> f64 {
        let Some(update) = UpdateMsg::parse(payload) else {
            return 0.0;
        };
        let change = if from + 1 == self.rank {
            // The lower neighbour's last plane becomes our lower ghost.
            self.state.set_ghost_lo_le(update.plane_le)
        } else if from == self.rank + 1 {
            self.state.set_ghost_hi_le(update.plane_le)
        } else {
            None
        };
        // A plane of the wrong size is refused like any other malformed
        // payload: the bytes come off the network.
        change.unwrap_or(0.0)
    }

    fn neighbors(&self) -> Vec<usize> {
        let mut v = Vec::new();
        if self.rank > 0 {
            v.push(self.rank - 1);
        }
        if self.rank + 1 < self.alpha {
            v.push(self.rank + 1);
        }
        v
    }

    fn result(&self) -> Vec<u8> {
        let state = &self.state;
        encode_block_state(state.z_start(), state.plane_count(), state.local_values())
    }

    fn relaxations(&self) -> u64 {
        self.state.relaxations()
    }

    fn restore(&mut self, state: &[u8], iteration: u64) -> bool {
        // The checkpoint format is the result format.
        let mut values = vec![0.0; self.state.local_len()];
        let width = self.problem.grid.plane_len();
        restore_block_state(&mut values, self.state.z_start(), state, width)
            && self.state.restore(&values, iteration)
    }
}

/// One little-endian `f64` from an 8-byte chunk.
fn le_f64(raw: &[u8]) -> f64 {
    f64::from_le_bytes(raw.try_into().expect("an 8-byte chunk"))
}

/// The obstacle workload: problem construction, task factory, assembly and
/// residual for the workload-generic experiment driver.
pub struct ObstacleWorkload {
    problem: Arc<ObstacleProblem>,
    n: usize,
    peers: usize,
}

impl ObstacleWorkload {
    /// Build the workload for a parameter set (the problem is constructed
    /// once and shared read-only between the per-rank tasks).
    pub fn new(params: ObstacleParams) -> Self {
        Self {
            problem: Arc::new(build_problem(&params)),
            n: params.n,
            peers: params.peers,
        }
    }

    /// Access the underlying problem.
    pub fn problem(&self) -> Arc<ObstacleProblem> {
        Arc::clone(&self.problem)
    }
}

impl Workload for ObstacleWorkload {
    fn name(&self) -> &'static str {
        "obstacle"
    }

    fn peers(&self) -> usize {
        self.peers
    }

    fn task(&self, rank: usize) -> Box<dyn IterativeTask> {
        Box::new(ObstacleTask::new(
            Arc::clone(&self.problem),
            self.peers,
            rank,
        ))
    }

    fn assemble(&self, results: &[(usize, Vec<u8>)]) -> Vec<f64> {
        let states = results.iter().map(|(_, bytes)| bytes.as_slice());
        assemble_global(vec![0.0; self.n * self.n * self.n], states, self.n * self.n)
    }

    fn residual(&self, solution: &[f64]) -> f64 {
        fixed_point_residual(&self.problem, solution, self.problem.optimal_delta())
    }

    fn repartitioner(&self) -> Option<Arc<dyn Repartitioner>> {
        Some(Arc::new(ObstacleReslicer {
            problem: Arc::clone(&self.problem),
        }))
    }
}

/// [`Repartitioner`] of the obstacle workload: the item space is the `n`
/// z-planes, each `n²` values wide; the canvas is the canonical initial
/// iterate `P_K(0)`.
pub struct ObstacleReslicer {
    problem: Arc<ObstacleProblem>,
}

impl Repartitioner for ObstacleReslicer {
    fn items(&self) -> usize {
        self.problem.grid.n
    }

    fn item_width(&self) -> usize {
        self.problem.grid.plane_len()
    }

    fn global_canvas(&self) -> Vec<f64> {
        initial_iterate(&self.problem)
    }

    fn task_for(
        &self,
        rank: usize,
        parts: &[(usize, usize)],
        global: &[f64],
        iteration: u64,
    ) -> Box<dyn IterativeTask> {
        Box::new(ObstacleTask::from_parts(
            Arc::clone(&self.problem),
            parts,
            rank,
            global,
            iteration,
        ))
    }
}

/// Test support for the three workloads' `encode_outgoing` tests: the wire
/// is checked against the task's own boundary state, not against a second
/// encoder.
#[cfg(test)]
pub(crate) mod encode_testing {
    use super::UpdateMsg;
    use crate::app::{FrameSink, IterativeTask};
    use crate::runtime::engine::GENERATION_TAG_BYTES as TAG;

    /// Encode `task`'s updates twice into one sink (the second round writes
    /// into the first round's pooled buffers) and check the frames: one per
    /// entry of `expected` — `(destination, boundary values)` in order —
    /// each the generation tag followed by an [`UpdateMsg`] from `rank` at
    /// the task's relaxation count carrying exactly those values.
    pub(crate) fn assert_frames(
        task: &mut dyn IterativeTask,
        rank: usize,
        generation: u32,
        expected: &[(usize, Vec<f64>)],
    ) {
        let mut sink = FrameSink::new();
        for _ in 0..2 {
            sink.begin(generation);
            task.encode_outgoing(&mut sink);
        }
        assert_eq!(sink.len(), expected.len(), "frame count");
        for (index, (dst, plane)) in expected.iter().enumerate() {
            let (to, frame) = sink.take(index);
            assert_eq!(to, *dst, "destination order");
            assert_eq!(frame[..TAG], generation.to_le_bytes(), "generation tag");
            let msg = UpdateMsg::decode(&frame[TAG..]).expect("a well-formed update");
            assert_eq!(msg.from as usize, rank);
            assert_eq!(msg.iteration, task.relaxations());
            let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&msg.plane), bits(plane), "boundary values");
        }
    }

    /// The first frame of one encode round under generation tag 7, in hex:
    /// what the golden-vector tests pin.
    pub(crate) fn first_frame_hex(task: &mut dyn IterativeTask) -> String {
        let mut sink = FrameSink::new();
        sink.begin(7);
        task.encode_outgoing(&mut sink);
        let (_, frame) = sink.take(0);
        frame.iter().map(|byte| format!("{byte:02x}")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::encode_testing::{assert_frames, first_frame_hex};
    use super::*;
    use crate::app::{Application, WorkloadApp};
    use crate::experiment::{run_on, RuntimeExperimentResult, RuntimeKind};
    use crate::runtime::RunConfig;
    use crate::workload::WorkloadKind;
    use obstacle::{solve_sequential, sup_norm_diff, RichardsonConfig};
    use p2psap::Scheme;
    use proptest::prelude::*;

    /// One cell of the paper's evaluation: the membrane at the experiment
    /// defaults, `peers` peers in `clusters` clusters.
    fn run_cell(
        n: usize,
        scheme: Scheme,
        peers: usize,
        clusters: usize,
        runtime: RuntimeKind,
    ) -> RuntimeExperimentResult {
        let workload = WorkloadKind::Obstacle.build(n, peers);
        let config = RunConfig::clustered(scheme, peers, clusters);
        run_on(workload.as_ref(), &config, runtime)
    }

    /// [`run_cell`] on the simulated backend (Figures 5 and 6).
    fn run_sim(n: usize, scheme: Scheme, peers: usize, clusters: usize) -> RuntimeExperimentResult {
        run_cell(n, scheme, peers, clusters, RuntimeKind::Sim)
    }

    const TOLERANCE: f64 = RunConfig::DEFAULT_TOLERANCE;

    #[test]
    fn update_msg_round_trips() {
        let msg = UpdateMsg {
            from: 3,
            iteration: 42,
            plane: vec![1.5, -2.25, 0.0],
        };
        assert_eq!(UpdateMsg::decode(&msg.encode()), Some(msg));
        assert_eq!(UpdateMsg::decode(&[1, 2, 3]), None);
    }

    #[test]
    fn tasks_with_exchange_reproduce_the_sequential_solution() {
        // Drive two obstacle tasks by hand with synchronous exchanges and
        // check the assembled solution matches the sequential solver.
        let workload = ObstacleWorkload::new(ObstacleParams {
            n: 8,
            peers: 2,
            instance: ObstacleInstance::Membrane,
        });
        let mut t0 = workload.task(0);
        let mut t1 = workload.task(1);
        let config = RichardsonConfig {
            tolerance: 1e-5,
            ..Default::default()
        };
        let reference = solve_sequential(&workload.problem(), config);
        let mut iterations = 0;
        loop {
            let d0 = t0.relax();
            let d1 = t1.relax();
            iterations += 1;
            let out0 = t0.outgoing();
            let out1 = t1.outgoing();
            for (dst, payload) in out0 {
                assert_eq!(dst, 1);
                t1.incorporate(0, &payload);
            }
            for (dst, payload) in out1 {
                assert_eq!(dst, 0);
                t0.incorporate(1, &payload);
            }
            if d0.local_diff.max(d1.local_diff) <= 1e-5 {
                break;
            }
            assert!(iterations < 100_000, "did not converge");
        }
        assert_eq!(iterations, reference.iterations);
        let solution = workload.assemble(&[(0, t0.result()), (1, t1.result())]);
        assert!(sup_norm_diff(&solution, &reference.u) < 1e-12);
    }

    #[test]
    fn problem_definition_honours_command_line_overrides() {
        let app = WorkloadApp::new(
            |peers| WorkloadKind::Obstacle.build(8, peers),
            2,
            Scheme::Synchronous,
        );
        let overrides = serde_json::json!({"peers": 4, "scheme": "asynchronous"});
        let def = app
            .problem_definition(&overrides)
            .expect("4 peers split 8 planes");
        assert_eq!(def.peers_needed, 4);
        assert_eq!(def.scheme, Scheme::Asynchronous);
        assert_eq!(def.subtasks.len(), 4);
        // Each sub-task names its rank's share of the item space (planes).
        let last = std::str::from_utf8(&def.subtasks[3].data).expect("JSON text");
        assert_eq!(last, r#"{"start":6,"count":2}"#);
    }

    #[test]
    fn neighbors_and_plane_ranges_are_consistent() {
        let problem = Arc::new(ObstacleProblem::membrane(9));
        let t0 = ObstacleTask::new(Arc::clone(&problem), 3, 0);
        let t1 = ObstacleTask::new(Arc::clone(&problem), 3, 1);
        let t2 = ObstacleTask::new(problem, 3, 2);
        assert_eq!(t0.neighbors(), vec![1]);
        assert_eq!(t1.neighbors(), vec![0, 2]);
        assert_eq!(t2.neighbors(), vec![1]);
        assert_eq!(t0.plane_range().0, 0);
        assert_eq!(t2.plane_range().1, 9);
    }

    proptest! {
        /// `encode_outgoing` against the block's own boundary planes: first
        /// plane down to `rank − 1`, last plane up to `rank + 1`, in that
        /// order, over random shapes, ranks and sweep counts.
        #[test]
        fn encode_outgoing_carries_the_boundary_planes(
            n in 4usize..12,
            alpha_seed in 1usize..6,
            rank_seed in 0usize..6,
            sweeps in 0usize..6,
            generation in any::<u32>(),
        ) {
            let alpha = 1 + alpha_seed % n.min(5);
            let rank = rank_seed % alpha;
            let mut task = ObstacleTask::new(Arc::new(ObstacleProblem::membrane(n)), alpha, rank);
            for _ in 0..sweeps {
                task.relax();
            }
            let mut expected = Vec::new();
            if rank > 0 {
                expected.push((rank - 1, task.state.first_plane_slice().to_vec()));
            }
            if rank + 1 < alpha {
                expected.push((rank + 1, task.state.last_plane_slice().to_vec()));
            }
            assert_frames(&mut task, rank, generation, &expected);
        }

        /// Round trip: any message survives encode → decode bit-exactly, and
        /// every strict prefix of the encoding is rejected (the length field
        /// pins the exact size, so truncation anywhere must fail).
        #[test]
        fn update_msg_encode_decode_round_trips(
            sender in 0u32..1024,
            iteration in proptest::any::<u64>(),
            plane in proptest::collection::vec(-1e12f64..1e12, 0..48),
        ) {
            let msg = UpdateMsg { from: sender, iteration, plane };
            let bytes = msg.encode();
            prop_assert_eq!(bytes.len(), 16 + msg.plane.len() * 8);
            prop_assert_eq!(UpdateMsg::decode(&bytes), Some(msg));
            for cut in 0..bytes.len() {
                prop_assert_eq!(UpdateMsg::decode(&bytes[..cut]), None);
            }
        }

        /// `incorporate` stores the plane straight from the payload bytes;
        /// the oracle is what it replaced, `UpdateMsg::decode` then
        /// `set_ghost_*`. Same returned change, bit for bit, and the same
        /// ghosts — observed through the next sweep, which reads them. A
        /// payload cut short or carrying a plane of another size is refused
        /// and changes nothing.
        #[test]
        fn incorporate_matches_decode_then_set_ghost(
            n in 3usize..8,
            from in 0usize..3,
            iteration in proptest::any::<u64>(),
            seed in proptest::any::<u64>(),
        ) {
            let mut rng = proptest::TestRng::new(seed);
            let problem = Arc::new(ObstacleProblem::membrane(n));
            let mut fused = ObstacleTask::new(Arc::clone(&problem), 3, 1);
            let mut oracle = ObstacleTask::new(problem, 3, 1);
            let payload = |len: usize, rng: &mut proptest::TestRng| UpdateMsg {
                from: from as u32,
                iteration,
                plane: (0..len).map(|_| rng.unit_f64() - 0.5).collect(),
            }
            .encode();

            let good = payload(n * n, &mut rng);
            for refused in [&good[..good.len() - 1], &good[..15], &payload(n * n - 1, &mut rng)] {
                prop_assert_eq!(fused.incorporate(from, refused), 0.0);
            }
            let got = fused.incorporate(from, &good);
            let msg = UpdateMsg::decode(&good).expect("a well-formed update");
            let expected = match from {
                0 => oracle.state.set_ghost_lo(&msg.plane),
                2 => oracle.state.set_ghost_hi(&msg.plane),
                _ => 0.0, // rank 1 is no neighbour of itself
            };
            prop_assert_eq!(got.to_bits(), expected.to_bits());
            prop_assert_eq!(fused.relax().local_diff.to_bits(), oracle.relax().local_diff.to_bits());
            prop_assert_eq!(fused.result(), oracle.result());
        }

        /// Length-mismatch rejection: a header advertising more plane values
        /// than the buffer carries must not decode (no partial reads).
        #[test]
        fn update_msg_rejects_length_mismatch(
            sender in 0u32..1024,
            iteration in proptest::any::<u64>(),
            plane in proptest::collection::vec(-1e12f64..1e12, 0..16),
            extra in 1u32..64,
        ) {
            let msg = UpdateMsg { from: sender, iteration, plane };
            let mut bytes = msg.encode();
            // Inflate the advertised plane length beyond the actual payload.
            let advertised = (msg.plane.len() as u32).saturating_add(extra);
            bytes[4..8].copy_from_slice(&advertised.to_le_bytes());
            prop_assert_eq!(UpdateMsg::decode(&bytes), None);
        }
    }

    /// Golden vector: the 2³ membrane split in two, rank 1 after one sweep.
    /// Tag, `from`, plane length, iteration, then the plane, all
    /// little-endian — a peer built from another commit must read this.
    #[test]
    fn encode_outgoing_wire_layout_is_pinned() {
        let mut task = ObstacleTask::new(Arc::new(ObstacleProblem::membrane(2)), 2, 1);
        task.relax();
        assert_eq!(
            first_frame_hex(&mut task),
            concat!(
                "07000000",         // generation tag
                "01000000",         // from
                "04000000",         // plane length
                "0100000000000000", // iteration
                "787777777777b73f", // the first owned plane
                "7a7777777777b73f",
                "7a7777777777b73f",
                "7c7777777777b73f",
            )
        );
    }

    #[test]
    fn single_peer_run_matches_the_sequential_solver() {
        let result = run_sim(8, Scheme::Synchronous, 1, 1);
        assert!(result.measurement.converged);
        let reference = solve_sequential(
            &obstacle::ObstacleProblem::membrane(8),
            RichardsonConfig {
                tolerance: TOLERANCE,
                ..Default::default()
            },
        );
        assert_eq!(
            result.measurement.relaxations_per_peer[0],
            reference.iterations as u64
        );
        assert!(result.measurement.residual < TOLERANCE * 2.0);
    }

    #[test]
    fn synchronous_distributed_run_keeps_the_relaxation_count() {
        let reference = run_sim(8, Scheme::Synchronous, 1, 1);
        for peers in [2usize, 4] {
            let result = run_sim(8, Scheme::Synchronous, peers, 1);
            assert!(result.measurement.converged);
            // Paper: "the number of relaxations performed by synchronous schemes
            // remains constant"; allow the +1 sweep peers may start before the
            // stop signal reaches them.
            let max = result.measurement.max_relaxations();
            let reference_count = reference.measurement.relaxations_per_peer[0];
            assert!(
                max >= reference_count && max <= reference_count + 1,
                "peers={peers}: {max} vs reference {reference_count}"
            );
            assert!(result.measurement.residual < TOLERANCE * 2.0);
        }
    }

    #[test]
    fn asynchronous_single_cluster_solution_is_accurate() {
        // Inside one cluster the boundary staleness is a couple of sweeps, so
        // the asynchronously terminated solution must satisfy the fixed-point
        // equation to a small multiple of the tolerance.
        let result = run_sim(16, Scheme::Asynchronous, 4, 1);
        assert!(result.measurement.converged);
        assert!(
            result.measurement.residual < TOLERANCE * 10.0,
            "residual {} too large",
            result.measurement.residual
        );
    }

    #[test]
    fn asynchronous_two_cluster_run_converges_and_uses_the_wan() {
        // Across the 100 ms WAN the accuracy floor of an asynchronously
        // terminated run is tolerance × (WAN latency / compute per sweep) —
        // the boundary planes lag by that many relaxations. The run must
        // converge, exchange inter-cluster traffic, perform more relaxations
        // than the synchronous scheme, and stay within that staleness bound.
        let result = run_sim(16, Scheme::Asynchronous, 4, 2);
        assert!(result.measurement.converged);
        assert!(
            result
                .net
                .expect("sim models the fabric")
                .inter
                .packets_delivered
                > 0,
            "inter-cluster traffic expected"
        );
        assert!(
            result.measurement.residual < 2e-2,
            "residual {} beyond the staleness bound",
            result.measurement.residual
        );
        let sync = run_sim(16, Scheme::Synchronous, 4, 2);
        assert!(
            result.measurement.avg_relaxations() >= sync.measurement.avg_relaxations(),
            "asynchronous runs perform at least as many relaxations"
        );
        assert!(
            result.measurement.elapsed < sync.measurement.elapsed,
            "asynchronous iterations must finish sooner than synchronous ones across a 100 ms WAN"
        );
    }

    #[test]
    fn every_runtime_backend_reports_the_shared_measurement_shape() {
        let reference = solve_sequential(
            &obstacle::ObstacleProblem::membrane(8),
            RichardsonConfig {
                tolerance: TOLERANCE,
                ..Default::default()
            },
        );
        for runtime in RuntimeKind::ALL {
            let result = run_cell(8, Scheme::Synchronous, 2, 1, runtime);
            assert_eq!(result.runtime, runtime);
            assert!(result.measurement.converged, "{runtime} did not converge");
            assert_eq!(result.measurement.peers, 2);
            // Synchronous relaxation-count invariance holds on every backend.
            let max = result.measurement.max_relaxations();
            let expected = reference.iterations as u64;
            assert!(
                max >= expected && max <= expected + 1,
                "{runtime}: {max} vs sequential {expected}"
            );
            assert!(
                result.measurement.residual < TOLERANCE * 2.0,
                "{runtime}: residual {}",
                result.measurement.residual
            );
            assert_eq!(result.solution.len(), 8 * 8 * 8);
        }
    }

    #[test]
    fn hybrid_run_converges_faster_than_sync_on_two_clusters() {
        let sync = run_sim(8, Scheme::Synchronous, 4, 2);
        let hybrid = run_sim(8, Scheme::Hybrid, 4, 2);
        assert!(sync.measurement.converged && hybrid.measurement.converged);
        assert!(
            hybrid.measurement.elapsed < sync.measurement.elapsed,
            "hybrid {:?} should beat synchronous {:?} across a 100 ms WAN",
            hybrid.measurement.elapsed,
            sync.measurement.elapsed
        );
    }
}
