//! The 2-D heat-equation application written against the P2PDC programming
//! model: the second PDE workload of the experiment layer.
//!
//! The steady-state temperature of an `n × n` plate is computed by Jacobi
//! relaxation of the Laplace equation: the top edge is held at temperature
//! 1, the other three edges at 0, and every interior point iterates to the
//! average of its four neighbours. Peer `k` owns a contiguous band of
//! interior rows; after every relaxation it sends its first row to peer
//! `k−1` and its last row to peer `k+1`, and incoming rows become ghost
//! boundaries for the next relaxation — the same ghost-exchange structure as
//! the obstacle problem, with a different stencil (2-D, unconstrained) and a
//! much slower convergence rate (plain Jacobi has no obstacle projection to
//! damp the error).

use crate::app::{Application, FrameSink, IterativeTask, LocalRelax, ProblemDefinition, SubTask};
use crate::obstacle_app::UpdateMsg;
use crate::workload::{balanced_partition, Repartitioner, Workload};
use obstacle::store_le_plane;
use p2psap::Scheme;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Temperature of the heated (top) edge.
pub const HOT_EDGE: f64 = 1.0;

/// Parameters of the heat application (the `run` command-line parameters).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeatParams {
    /// Grid points per dimension (the plate is `n × n`).
    pub n: usize,
    /// Number of peers.
    pub peers: usize,
    /// Scheme of computation.
    pub scheme: Scheme,
}

/// The per-peer computation: a band of interior rows relaxed by the Jacobi
/// stencil, speaking the [`IterativeTask`] interface.
pub struct HeatTask {
    n: usize,
    rank: usize,
    peers: usize,
    /// First owned row (absolute grid index; interior rows are `1..=n-2`).
    row_start: usize,
    /// Number of owned rows.
    rows: usize,
    /// Owned values, `rows × n` row-major (side columns stay at 0).
    local: Vec<f64>,
    /// Scratch buffer for the Jacobi sweep.
    next: Vec<f64>,
    /// Ghost row above the band (row `row_start − 1`).
    ghost_lo: Vec<f64>,
    /// Ghost row below the band (row `row_start + rows`).
    ghost_hi: Vec<f64>,
    relaxations: u64,
}

impl HeatTask {
    /// Create the task of peer `rank` among `peers` peers on an `n × n`
    /// plate. Requires `peers ≤ n − 2` so every peer owns at least one row.
    pub fn new(n: usize, peers: usize, rank: usize) -> Self {
        assert!(n >= 3, "a {n}x{n} plate has no interior");
        assert!(
            (1..=n - 2).contains(&peers),
            "{peers} peers cannot split {} interior rows",
            n - 2
        );
        let (offset, rows) = balanced_partition(n - 2, peers, rank);
        let row_start = 1 + offset;
        // Initial iterate: interior at 0; ghost rows seeded from the same
        // initial iterate (the heated edge for the first band, 0 elsewhere),
        // so the first distributed sweep equals the first sequential one.
        let boundary_row = |row: usize| -> Vec<f64> {
            if row == 0 {
                vec![HOT_EDGE; n]
            } else {
                vec![0.0; n]
            }
        };
        Self {
            n,
            rank,
            peers,
            row_start,
            rows,
            local: vec![0.0; rows * n],
            next: vec![0.0; rows * n],
            ghost_lo: boundary_row(row_start - 1),
            ghost_hi: boundary_row(row_start + rows),
            relaxations: 0,
        }
    }

    /// Create the task of `rank` for an explicit partition of the interior
    /// rows (absolute `(first row, count)` ranges), with owned rows and
    /// ghost rows seeded from a full `n × n` grid (live repartitioning).
    pub fn from_parts(
        n: usize,
        parts: &[(usize, usize)],
        rank: usize,
        global: &[f64],
        iteration: u64,
    ) -> Self {
        assert_eq!(global.len(), n * n, "global grid size mismatch");
        let (row_start, rows) = parts[rank];
        assert!(row_start >= 1 && row_start + rows < n && rows >= 1);
        Self {
            n,
            rank,
            peers: parts.len(),
            row_start,
            rows,
            local: global[row_start * n..(row_start + rows) * n].to_vec(),
            next: vec![0.0; rows * n],
            ghost_lo: global[(row_start - 1) * n..row_start * n].to_vec(),
            ghost_hi: global[(row_start + rows) * n..(row_start + rows + 1) * n].to_vec(),
            relaxations: iteration,
        }
    }

    /// The absolute grid rows owned by this task, as `(first, count)`.
    pub fn row_range(&self) -> (usize, usize) {
        (self.row_start, self.rows)
    }

    /// The row sent up to peer `rank − 1`, borrowed from grid storage.
    fn first_row_slice(&self) -> &[f64] {
        &self.local[..self.n]
    }

    /// The row sent down to peer `rank + 1`, borrowed from grid storage.
    fn last_row_slice(&self) -> &[f64] {
        &self.local[(self.rows - 1) * self.n..]
    }
}

/// One Jacobi row update with the neighbour rows resolved up front: the side
/// columns (Dirichlet boundary, copied unchanged) are peeled, so the interior
/// runs branch-free over contiguous slices, 4-wide unrolled. Bit-identical to
/// the per-point loop it replaced: the per-point expression
/// `0.25 * (above[j] + below[j] + row[j-1] + row[j+1])` is kept verbatim, and
/// the `max` reduction is order-insensitive on non-NaN absolute differences.
fn relax_heat_row(row: &[f64], above: &[f64], below: &[f64], out: &mut [f64]) -> f64 {
    let n = row.len();
    assert!(above.len() == n && below.len() == n && out.len() == n && n >= 2);
    out[0] = row[0];
    out[n - 1] = row[n - 1];
    let last = n - 1;
    let mut diff = 0.0f64;
    let mut j = 1usize;
    while j + 4 <= last {
        let p0 = 0.25 * (above[j] + below[j] + row[j - 1] + row[j + 1]);
        let p1 = 0.25 * (above[j + 1] + below[j + 1] + row[j] + row[j + 2]);
        let p2 = 0.25 * (above[j + 2] + below[j + 2] + row[j + 1] + row[j + 3]);
        let p3 = 0.25 * (above[j + 3] + below[j + 3] + row[j + 2] + row[j + 4]);
        out[j] = p0;
        out[j + 1] = p1;
        out[j + 2] = p2;
        out[j + 3] = p3;
        let d01 = (p0 - row[j]).abs().max((p1 - row[j + 1]).abs());
        let d23 = (p2 - row[j + 2]).abs().max((p3 - row[j + 3]).abs());
        diff = diff.max(d01.max(d23));
        j += 4;
    }
    while j < last {
        let p = 0.25 * (above[j] + below[j] + row[j - 1] + row[j + 1]);
        diff = diff.max((p - row[j]).abs());
        out[j] = p;
        j += 1;
    }
    diff
}

impl IterativeTask for HeatTask {
    fn relax(&mut self) -> LocalRelax {
        let n = self.n;
        let rows = self.rows;
        let local = &self.local;
        let next = &mut self.next;
        let mut diff: f64 = 0.0;
        for r in 0..rows {
            let row = &local[r * n..(r + 1) * n];
            let above: &[f64] = if r == 0 {
                &self.ghost_lo
            } else {
                &local[(r - 1) * n..r * n]
            };
            let below: &[f64] = if r + 1 == rows {
                &self.ghost_hi
            } else {
                &local[(r + 1) * n..(r + 2) * n]
            };
            let d = relax_heat_row(row, above, below, &mut next[r * n..(r + 1) * n]);
            diff = diff.max(d);
        }
        std::mem::swap(&mut self.local, &mut self.next);
        self.relaxations += 1;
        LocalRelax {
            local_diff: diff,
            work_points: (self.rows * (n - 2)) as u64,
        }
    }

    fn encode_outgoing(&mut self, sink: &mut FrameSink) {
        // The boundary rows are serialized straight from grid storage into
        // the sink's pooled buffers.
        let iteration = self.relaxations;
        let from = self.rank as u32;
        if self.rank > 0 {
            let frame = sink.frame(self.rank - 1);
            UpdateMsg::encode_into(frame, from, iteration, self.first_row_slice());
        }
        if self.rank + 1 < self.peers {
            let frame = sink.frame(self.rank + 1);
            UpdateMsg::encode_into(frame, from, iteration, self.last_row_slice());
        }
    }

    fn incorporate(&mut self, from: usize, payload: &[u8]) -> f64 {
        let Some(update) = UpdateMsg::parse(payload) else {
            return 0.0;
        };
        let ghost = if from + 1 == self.rank {
            &mut self.ghost_lo
        } else if from == self.rank + 1 {
            &mut self.ghost_hi
        } else {
            return 0.0;
        };
        // A row of the wrong length is refused, the ghost left as it was.
        store_le_plane(ghost, update.plane_le).unwrap_or(0.0)
    }

    fn neighbors(&self) -> Vec<usize> {
        let mut v = Vec::new();
        if self.rank > 0 {
            v.push(self.rank - 1);
        }
        if self.rank + 1 < self.peers {
            v.push(self.rank + 1);
        }
        v
    }

    fn result(&self) -> Vec<u8> {
        // Header: row_start (u32), row count (u32), then the owned values.
        let mut out = Vec::with_capacity(8 + self.local.len() * 8);
        out.extend_from_slice(&(self.row_start as u32).to_le_bytes());
        out.extend_from_slice(&(self.rows as u32).to_le_bytes());
        for v in &self.local {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    fn relaxations(&self) -> u64 {
        self.relaxations
    }

    fn restore(&mut self, state: &[u8], iteration: u64) -> bool {
        // The checkpoint format is the result format: row_start (u32), row
        // count (u32), then the owned values. The ghost rows are left as
        // they are (a restored peer refreshes them from its neighbours'
        // next updates).
        if state.len() != 8 + self.local.len() * 8 {
            return false;
        }
        let row_start = u32::from_le_bytes(state[0..4].try_into().unwrap()) as usize;
        let rows = u32::from_le_bytes(state[4..8].try_into().unwrap()) as usize;
        if row_start != self.row_start || rows != self.rows {
            return false;
        }
        for (slot, bytes) in self.local.iter_mut().zip(state[8..].chunks_exact(8)) {
            *slot = f64::from_le_bytes(bytes.try_into().unwrap());
        }
        self.relaxations = iteration;
        true
    }
}

/// A full `n × n` grid with the boundary conditions applied and the interior
/// at the initial iterate (0).
pub fn initial_grid(n: usize) -> Vec<f64> {
    let mut grid = vec![0.0; n * n];
    grid[..n].fill(HOT_EDGE);
    grid
}

/// Reassemble a global temperature grid from the per-peer results produced
/// by [`HeatTask::result`].
pub fn assemble_heat_solution(n: usize, results: &[(usize, Vec<u8>)]) -> Vec<f64> {
    let mut grid = initial_grid(n);
    for (_, bytes) in results {
        if bytes.len() < 8 {
            continue;
        }
        let row_start = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let rows = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        for i in 0..rows * n {
            let at = 8 + i * 8;
            if at + 8 > bytes.len() || row_start * n + i >= grid.len() {
                break;
            }
            grid[row_start * n + i] = f64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        }
    }
    grid
}

/// Sup-norm fixed-point residual of a temperature grid: how far the interior
/// is from satisfying the five-point Laplace stencil.
pub fn heat_residual(n: usize, grid: &[f64]) -> f64 {
    let mut res: f64 = 0.0;
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            let avg = 0.25
                * (grid[(i - 1) * n + j]
                    + grid[(i + 1) * n + j]
                    + grid[i * n + j - 1]
                    + grid[i * n + j + 1]);
            res = res.max((grid[i * n + j] - avg).abs());
        }
    }
    res
}

/// Solve the plate sequentially by full-grid Jacobi sweeps; returns the
/// converged grid and the number of sweeps. The distributed synchronous
/// scheme reproduces exactly these iterates, so the sweep count is the
/// cross-runtime invariant the agreement tests check.
pub fn solve_heat_sequential(n: usize, tolerance: f64, max_iterations: u64) -> (Vec<f64>, u64) {
    let mut grid = initial_grid(n);
    let mut next = grid.clone();
    for iteration in 1..=max_iterations {
        let mut diff: f64 = 0.0;
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                let new = 0.25
                    * (grid[(i - 1) * n + j]
                        + grid[(i + 1) * n + j]
                        + grid[i * n + j - 1]
                        + grid[i * n + j + 1]);
                diff = diff.max((new - grid[i * n + j]).abs());
                next[i * n + j] = new;
            }
        }
        std::mem::swap(&mut grid, &mut next);
        if diff <= tolerance {
            return (grid, iteration);
        }
    }
    (grid, max_iterations)
}

/// The heat workload: problem construction, task factory, assembly and
/// residual for the workload-generic experiment driver.
pub struct HeatWorkload {
    n: usize,
    peers: usize,
}

impl HeatWorkload {
    /// Create the workload for an `n × n` plate split across `peers` peers.
    pub fn new(n: usize, peers: usize) -> Self {
        assert!(n >= 3 && (1..=n - 2).contains(&peers));
        Self { n, peers }
    }
}

impl Workload for HeatWorkload {
    fn name(&self) -> &'static str {
        "heat"
    }

    fn peers(&self) -> usize {
        self.peers
    }

    fn task(&self, rank: usize) -> Box<dyn IterativeTask> {
        Box::new(HeatTask::new(self.n, self.peers, rank))
    }

    fn assemble(&self, results: &[(usize, Vec<u8>)]) -> Vec<f64> {
        assemble_heat_solution(self.n, results)
    }

    fn residual(&self, solution: &[f64]) -> f64 {
        heat_residual(self.n, solution)
    }

    fn repartitioner(&self) -> Option<Arc<dyn Repartitioner>> {
        Some(Arc::new(HeatReslicer { n: self.n }))
    }
}

/// [`Repartitioner`] of the heat workload: the item space is the `n − 2`
/// interior rows (absolute base 1), each `n` values wide; the canvas is the
/// plate at the initial iterate with the boundary conditions applied.
pub struct HeatReslicer {
    n: usize,
}

impl Repartitioner for HeatReslicer {
    fn items(&self) -> usize {
        self.n - 2
    }

    fn item_base(&self) -> usize {
        1
    }

    fn item_width(&self) -> usize {
        self.n
    }

    fn global_canvas(&self) -> Vec<f64> {
        initial_grid(self.n)
    }

    fn task_for(
        &self,
        rank: usize,
        parts: &[(usize, usize)],
        global: &[f64],
        iteration: u64,
    ) -> Box<dyn IterativeTask> {
        Box::new(HeatTask::from_parts(self.n, parts, rank, global, iteration))
    }
}

/// The heat application registered with the P2PDC environment.
pub struct HeatApp {
    params: HeatParams,
}

impl HeatApp {
    /// Create the application for a parameter set.
    pub fn new(params: HeatParams) -> Self {
        Self { params }
    }
}

impl Application for HeatApp {
    fn name(&self) -> &str {
        "heat"
    }

    fn problem_definition(&self, params: &serde_json::Value) -> ProblemDefinition {
        let peers = params
            .get("peers")
            .and_then(|v| v.as_u64())
            .map(|v| v as usize)
            .unwrap_or(self.params.peers);
        let scheme = params
            .get("scheme")
            .and_then(|v| v.as_str())
            .and_then(crate::app::parse_scheme)
            .unwrap_or(self.params.scheme);
        let n = self.params.n;
        let subtasks = (0..peers)
            .map(|rank| {
                let (offset, rows) = balanced_partition(n - 2, peers, rank);
                SubTask {
                    rank,
                    data: serde_json::to_vec(&serde_json::json!({
                        "row_start": 1 + offset,
                        "rows": rows,
                        "n": n,
                    }))
                    .expect("subtask serialization"),
                }
            })
            .collect();
        ProblemDefinition {
            app_name: self.name().to_string(),
            scheme,
            peers_needed: peers,
            subtasks,
        }
    }

    fn calculate(&self, definition: &ProblemDefinition, rank: usize) -> Box<dyn IterativeTask> {
        Box::new(HeatTask::new(self.params.n, definition.peers_needed, rank))
    }

    fn results_aggregation(&self, results: &[(usize, Vec<u8>)]) -> Vec<u8> {
        let solution = assemble_heat_solution(self.params.n, results);
        let mut out = Vec::with_capacity(solution.len() * 8);
        for v in &solution {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obstacle_app::encode_testing::{assert_frames, first_frame_hex};
    use obstacle::sup_norm_diff;

    #[test]
    fn sequential_solution_is_physical() {
        let (grid, iterations) = solve_heat_sequential(12, 1e-5, 100_000);
        assert!(iterations < 100_000, "Jacobi did not converge");
        // Temperature decreases monotonically away from the hot edge along
        // the centre column, and stays within the boundary values.
        let n = 12;
        let mid = n / 2;
        for i in 1..n - 1 {
            let above = grid[(i - 1) * n + mid];
            let here = grid[i * n + mid];
            assert!(here <= above + 1e-9, "row {i}: {here} > {above}");
            assert!((0.0..=HOT_EDGE).contains(&here));
        }
        assert!(heat_residual(n, &grid) <= 1e-5 * 1.01);
    }

    #[test]
    fn tasks_with_exchange_reproduce_the_sequential_solution() {
        // Drive two heat tasks by hand with synchronous exchanges and check
        // both the iterate count and the assembled grid match the sequential
        // solver exactly.
        let n = 10;
        let tolerance = 1e-4;
        let (reference, ref_iterations) = solve_heat_sequential(n, tolerance, 100_000);
        let mut t0 = HeatTask::new(n, 2, 0);
        let mut t1 = HeatTask::new(n, 2, 1);
        let mut iterations = 0u64;
        loop {
            let d0 = t0.relax();
            let d1 = t1.relax();
            iterations += 1;
            for (dst, payload) in t0.outgoing() {
                assert_eq!(dst, 1);
                t1.incorporate(0, &payload);
            }
            for (dst, payload) in t1.outgoing() {
                assert_eq!(dst, 0);
                t0.incorporate(1, &payload);
            }
            if d0.local_diff.max(d1.local_diff) <= tolerance {
                break;
            }
            assert!(iterations < 100_000, "did not converge");
        }
        assert_eq!(iterations, ref_iterations);
        let solution = assemble_heat_solution(n, &[(0, t0.result()), (1, t1.result())]);
        assert!(sup_norm_diff(&solution, &reference) < 1e-12);
    }

    #[test]
    fn row_bands_tile_the_interior() {
        let n = 11;
        for peers in [1usize, 2, 3, 4] {
            let mut next = 1;
            for rank in 0..peers {
                let task = HeatTask::new(n, peers, rank);
                let (start, rows) = task.row_range();
                assert_eq!(start, next);
                assert!(rows >= 1);
                next = start + rows;
            }
            assert_eq!(next, n - 1);
        }
    }

    /// The per-point Jacobi loop the blocked [`relax_heat_row`] replaced,
    /// kept as the equivalence reference.
    fn relax_scalar(task: &mut HeatTask) -> f64 {
        let n = task.n;
        let mut diff: f64 = 0.0;
        for r in 0..task.rows {
            let row = task.local[r * n..(r + 1) * n].to_vec();
            let above: Vec<f64> = if r == 0 {
                task.ghost_lo.clone()
            } else {
                task.local[(r - 1) * n..r * n].to_vec()
            };
            let below: Vec<f64> = if r + 1 == task.rows {
                task.ghost_hi.clone()
            } else {
                task.local[(r + 1) * n..(r + 2) * n].to_vec()
            };
            for j in 1..n - 1 {
                let new = 0.25 * (above[j] + below[j] + row[j - 1] + row[j + 1]);
                diff = diff.max((new - row[j]).abs());
                task.next[r * n + j] = new;
            }
            task.next[r * n] = row[0];
            task.next[r * n + n - 1] = row[n - 1];
        }
        std::mem::swap(&mut task.local, &mut task.next);
        task.relaxations += 1;
        diff
    }

    /// Golden vector: the 4 × 4 plate split in two, rank 0 (the band under
    /// the hot edge; rank 1's row is still all zero) after one sweep.
    /// Tag, `from`, row length, iteration, then the row, all little-endian.
    #[test]
    fn encode_outgoing_wire_layout_is_pinned() {
        let mut task = HeatTask::new(4, 2, 0);
        task.relax();
        assert_eq!(
            first_frame_hex(&mut task),
            concat!(
                "07000000",         // generation tag
                "00000000",         // from
                "04000000",         // row length
                "0100000000000000", // iteration
                "0000000000000000", // the last owned row
                "000000000000d03f",
                "000000000000d03f",
                "0000000000000000",
            )
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// `encode_outgoing` against the band's own boundary rows: first
            /// row up to `rank − 1`, last row down to `rank + 1`, in that
            /// order, over random shapes, ranks and sweep counts.
            #[test]
            fn encode_outgoing_carries_the_boundary_rows(
                n in 3usize..20,
                peers_seed in 1usize..6,
                rank_seed in 0usize..6,
                sweeps in 0usize..6,
                generation in any::<u32>(),
            ) {
                let peers = 1 + peers_seed % (n - 2).max(1);
                let rank = rank_seed % peers;
                let mut task = HeatTask::new(n, peers, rank);
                for _ in 0..sweeps {
                    task.relax();
                }
                let mut expected = Vec::new();
                if rank > 0 {
                    expected.push((rank - 1, task.first_row_slice().to_vec()));
                }
                if rank + 1 < peers {
                    expected.push((rank + 1, task.last_row_slice().to_vec()));
                }
                assert_frames(&mut task, rank, generation, &expected);
            }

            /// The blocked heat kernel is bit-identical to the per-point
            /// loop it replaced, over random plate sizes, band splits and
            /// sweep counts (with synchronous ghost exchange in between).
            #[test]
            fn blocked_heat_relax_matches_scalar(
                n in 3usize..24,
                peers_seed in 1usize..8,
                sweeps in 1usize..16,
            ) {
                let peers = 1 + peers_seed % (n - 2);
                let mut blocked: Vec<HeatTask> =
                    (0..peers).map(|r| HeatTask::new(n, peers, r)).collect();
                let mut scalar: Vec<HeatTask> =
                    (0..peers).map(|r| HeatTask::new(n, peers, r)).collect();
                for _ in 0..sweeps {
                    let mut diffs_b = Vec::new();
                    let mut diffs_s = Vec::new();
                    for t in blocked.iter_mut() {
                        diffs_b.push(t.relax().local_diff);
                    }
                    for t in scalar.iter_mut() {
                        diffs_s.push(relax_scalar(t));
                    }
                    for (a, b) in diffs_b.iter().zip(diffs_s.iter()) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                    for set in [&mut blocked, &mut scalar] {
                        for rank in 0..peers {
                            let out = set[rank].outgoing();
                            for (dst, payload) in out {
                                set[dst].incorporate(rank, &payload);
                            }
                        }
                    }
                }
                for (tb, ts) in blocked.iter().zip(scalar.iter()) {
                    for (a, b) in tb.local.iter().zip(ts.local.iter()) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                }
            }

            /// `incorporate` stores the row straight from the payload
            /// bytes; the oracle is what it replaced — `UpdateMsg::decode`,
            /// `sup_norm_diff` against the ghost, then the row moved in.
            /// Same change and same ghost, bit for bit; a payload cut short
            /// or carrying a row of another length leaves the ghost alone.
            #[test]
            fn incorporate_matches_decode_then_store(
                n in 3usize..24,
                from_lower in any::<bool>(),
                seed in any::<u64>(),
            ) {
                let mut rng = proptest::TestRng::new(seed);
                let mut task = HeatTask::new(n + 2, 3, 1);
                let from = if from_lower { 0 } else { 2 };
                let payload = |len: usize, rng: &mut proptest::TestRng| UpdateMsg {
                    from: from as u32,
                    iteration: 1,
                    plane: (0..len).map(|_| rng.unit_f64()).collect(),
                }
                .encode();
                let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let ghost = |task: &HeatTask| {
                    bits(if from_lower { &task.ghost_lo } else { &task.ghost_hi })
                };

                let good = payload(n + 2, &mut rng);
                let before = ghost(&task);
                for refused in [&good[..good.len() - 1], &good[..15], &payload(n + 1, &mut rng)] {
                    prop_assert_eq!(task.incorporate(from, refused), 0.0);
                    prop_assert_eq!(ghost(&task), before.clone());
                }
                prop_assert_eq!(task.incorporate(1, &good), 0.0, "not a neighbour");

                let msg = UpdateMsg::decode(&good).expect("a well-formed update");
                let held = if from_lower { &task.ghost_lo } else { &task.ghost_hi };
                let expected = sup_norm_diff(&msg.plane, held);
                prop_assert_eq!(task.incorporate(from, &good).to_bits(), expected.to_bits());
                prop_assert_eq!(ghost(&task), bits(&msg.plane));
            }
        }
    }

    #[test]
    fn problem_definition_honours_command_line_overrides() {
        let app = HeatApp::new(HeatParams {
            n: 12,
            peers: 2,
            scheme: Scheme::Synchronous,
        });
        let def = app.problem_definition(&serde_json::json!({
            "peers": 4,
            "scheme": "asynchronous",
        }));
        assert_eq!(def.peers_needed, 4);
        assert_eq!(def.scheme, Scheme::Asynchronous);
        assert_eq!(def.subtasks.len(), 4);
    }
}
