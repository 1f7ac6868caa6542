//! Per-peer block state for the distributed projected Richardson method.
//!
//! Each peer owns a contiguous range of z-planes (sub-blocks of `n²` points,
//! Section IV.B / Figure 4 of the paper). A relaxation sweep updates every
//! owned plane from the previous iterate (Jacobi ordering, so the synchronous
//! distributed scheme reproduces the sequential iterates exactly) using ghost
//! copies of the neighbouring peers' boundary planes. After a sweep the peer
//! sends its first plane to the peer below and its last plane to the peer
//! above.

use crate::grid::BlockDecomposition;
use crate::problem::ObstacleProblem;
use crate::richardson::{initial_iterate, RichardsonConfig, SolveResult};
use serde::{Deserialize, Serialize};

/// The state a peer keeps for its share of the iterate vector.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeState {
    n: usize,
    z_start: usize,
    z_end: usize,
    u: Vec<f64>,
    next: Vec<f64>,
    ghost_lo: Vec<f64>,
    ghost_hi: Vec<f64>,
    relaxations: u64,
    /// All-zero plane standing in for absent neighbours (the homogeneous
    /// Dirichlet boundary) so the blocked kernel never branches per point.
    /// Scratch only — not part of the checkpointed state.
    #[serde(skip, default)]
    zeros: Vec<f64>,
}

impl NodeState {
    /// Create the state of peer `r` under `decomp`, initialised (including
    /// ghost planes) from the canonical initial iterate `P_K(0)`.
    pub fn new(problem: &ObstacleProblem, decomp: &BlockDecomposition, r: usize) -> Self {
        Self::from_global(problem, decomp, r, &initial_iterate(problem), 0)
    }

    /// Create the state of peer `r` under `decomp`, initialised (owned
    /// planes *and* ghost planes) from an explicit global iterate, with the
    /// relaxation counter set to `relaxations`. Live repartitioning uses
    /// this to hand a re-sliced block to a peer mid-run: seeding the ghosts
    /// from the same global vector keeps the next synchronous sweep
    /// identical to the sequential sweep of that iterate, so the re-slice
    /// does not perturb the decomposition-invariant relaxation count.
    pub fn from_global(
        problem: &ObstacleProblem,
        decomp: &BlockDecomposition,
        r: usize,
        full: &[f64],
        relaxations: u64,
    ) -> Self {
        let n = problem.grid.n;
        let plane = problem.grid.plane_len();
        assert_eq!(full.len(), n * plane, "global iterate size mismatch");
        let z_start = decomp.start(r);
        let z_end = decomp.end(r);
        let u = full[z_start * plane..z_end * plane].to_vec();
        let ghost_lo = if z_start > 0 {
            full[(z_start - 1) * plane..z_start * plane].to_vec()
        } else {
            Vec::new()
        };
        let ghost_hi = if z_end < n {
            full[z_end * plane..(z_end + 1) * plane].to_vec()
        } else {
            Vec::new()
        };
        let len = u.len();
        Self {
            n,
            z_start,
            z_end,
            u,
            next: vec![0.0; len],
            ghost_lo,
            ghost_hi,
            relaxations,
            zeros: vec![0.0; plane],
        }
    }

    /// First owned plane index (the paper's `o(k)`).
    pub fn z_start(&self) -> usize {
        self.z_start
    }

    /// One past the last owned plane index.
    pub fn z_end(&self) -> usize {
        self.z_end
    }

    /// Number of owned planes.
    pub fn plane_count(&self) -> usize {
        self.z_end - self.z_start
    }

    /// Number of owned unknowns.
    pub fn local_len(&self) -> usize {
        self.u.len()
    }

    /// Number of relaxation sweeps performed by this peer.
    pub fn relaxations(&self) -> u64 {
        self.relaxations
    }

    /// The first owned plane (sent to the peer below), borrowed straight
    /// from grid storage so the wire path can serialize without copying.
    pub fn first_plane_slice(&self) -> &[f64] {
        &self.u[0..self.n * self.n]
    }

    /// The last owned plane (sent to the peer above), borrowed straight
    /// from grid storage.
    pub fn last_plane_slice(&self) -> &[f64] {
        let plane = self.n * self.n;
        &self.u[self.u.len() - plane..]
    }

    /// Copy of the first owned plane (sent to the peer below).
    pub fn first_plane(&self) -> Vec<f64> {
        self.first_plane_slice().to_vec()
    }

    /// Copy of the last owned plane (sent to the peer above).
    pub fn last_plane(&self) -> Vec<f64> {
        self.last_plane_slice().to_vec()
    }

    /// Install the boundary plane received from the peer below (its last
    /// plane). Returns the sup-norm change with respect to the previous ghost
    /// (used by asynchronous convergence detection).
    pub fn set_ghost_lo(&mut self, plane: &[f64]) -> f64 {
        assert_eq!(plane.len(), self.n * self.n, "ghost plane size mismatch");
        assert!(self.z_start > 0, "peer 0 has no lower neighbour");
        let change = plane
            .iter()
            .zip(self.ghost_lo.iter())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        self.ghost_lo.clear();
        self.ghost_lo.extend_from_slice(plane);
        change
    }

    /// Install the boundary plane received from the peer above (its first
    /// plane). Returns the sup-norm change with respect to the previous ghost.
    pub fn set_ghost_hi(&mut self, plane: &[f64]) -> f64 {
        assert_eq!(plane.len(), self.n * self.n, "ghost plane size mismatch");
        assert!(self.z_end < self.n, "the last peer has no upper neighbour");
        let change = plane
            .iter()
            .zip(self.ghost_hi.iter())
            .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
        self.ghost_hi.clear();
        self.ghost_hi.extend_from_slice(plane);
        change
    }

    /// [`NodeState::set_ghost_lo`] straight from the plane's little-endian
    /// wire bytes, in one pass and without an intermediate vector. `None`
    /// (ghost untouched) unless `bytes` holds exactly one plane.
    pub fn set_ghost_lo_le(&mut self, bytes: &[u8]) -> Option<f64> {
        store_le_plane(&mut self.ghost_lo, bytes)
    }

    /// [`NodeState::set_ghost_hi`] straight from the plane's little-endian
    /// wire bytes. `None` (ghost untouched) unless `bytes` holds exactly one
    /// plane.
    pub fn set_ghost_hi_le(&mut self, bytes: &[u8]) -> Option<f64> {
        store_le_plane(&mut self.ghost_hi, bytes)
    }

    /// Perform one projected Richardson sweep over the owned planes using the
    /// previous iterate and the current ghost planes. Returns the sup-norm of
    /// the local successive difference.
    ///
    /// Blocked form of [`NodeState::sweep_scalar`]: neighbour planes/rows are
    /// resolved once per plane and once per row (absent neighbours map to a
    /// persistent zero plane — the homogeneous Dirichlet boundary — which is
    /// bit-identical to skipping the subtraction, since `x - 0.0 == x` for
    /// every `f64`), so the interior of each contiguous row runs branch-free
    /// and 4-wide unrolled. Produces bit-identical iterates to the scalar
    /// kernel, preserving the decomposition-invariant relaxation counts.
    pub fn sweep(&mut self, problem: &ObstacleProblem, delta: f64) -> f64 {
        let n = self.n;
        let plane = n * n;
        let pc = self.plane_count();
        if self.zeros.len() < plane {
            // Deserialized states arrive without the scratch plane.
            self.zeros.resize(plane, 0.0);
        }
        let mut max_diff = 0.0f64;
        let u = &self.u;
        let next = &mut self.next;
        let zeros = &self.zeros;
        for lz in 0..pc {
            let z = self.z_start + lz;
            let u_plane = &u[lz * plane..(lz + 1) * plane];
            let below: &[f64] = if lz > 0 {
                &u[(lz - 1) * plane..lz * plane]
            } else if z > 0 {
                &self.ghost_lo
            } else {
                &zeros[..plane]
            };
            let above: &[f64] = if lz + 1 < pc {
                &u[(lz + 1) * plane..(lz + 2) * plane]
            } else if z + 1 < n {
                &self.ghost_hi
            } else {
                &zeros[..plane]
            };
            let rhs_plane = &problem.rhs[z * plane..(z + 1) * plane];
            let psi_plane = &problem.psi[z * plane..(z + 1) * plane];
            let next_plane = &mut next[lz * plane..(lz + 1) * plane];
            for j in 0..n {
                let row = &u_plane[j * n..(j + 1) * n];
                let front: &[f64] = if j > 0 {
                    &u_plane[(j - 1) * n..j * n]
                } else {
                    &zeros[..n]
                };
                let back: &[f64] = if j + 1 < n {
                    &u_plane[(j + 1) * n..(j + 2) * n]
                } else {
                    &zeros[..n]
                };
                let d = relax_row(
                    row,
                    front,
                    back,
                    &below[j * n..(j + 1) * n],
                    &above[j * n..(j + 1) * n],
                    &rhs_plane[j * n..(j + 1) * n],
                    &psi_plane[j * n..(j + 1) * n],
                    &mut next_plane[j * n..(j + 1) * n],
                    delta,
                );
                max_diff = max_diff.max(d);
            }
        }
        std::mem::swap(&mut self.u, &mut self.next);
        self.relaxations += 1;
        max_diff
    }

    /// The straightforward per-point sweep the blocked [`NodeState::sweep`]
    /// replaced. Kept as the equivalence reference (the blocked kernel must
    /// be bit-identical to this) and as the scalar side of the kernel bench.
    pub fn sweep_scalar(&mut self, problem: &ObstacleProblem, delta: f64) -> f64 {
        let n = self.n;
        let plane = n * n;
        let mut max_diff = 0.0f64;
        for lz in 0..self.plane_count() {
            let z = self.z_start + lz;
            for j in 0..n {
                for i in 0..n {
                    let li = i + n * j + plane * lz;
                    let gi = problem.grid.idx(i, j, z);
                    let center = self.u[li];
                    let mut acc = 6.0 * center;
                    if i > 0 {
                        acc -= self.u[li - 1];
                    }
                    if i + 1 < n {
                        acc -= self.u[li + 1];
                    }
                    if j > 0 {
                        acc -= self.u[li - n];
                    }
                    if j + 1 < n {
                        acc -= self.u[li + n];
                    }
                    // Below in z.
                    if lz > 0 {
                        acc -= self.u[li - plane];
                    } else if z > 0 {
                        acc -= self.ghost_lo[i + n * j];
                    }
                    // Above in z.
                    if lz + 1 < self.plane_count() {
                        acc -= self.u[li + plane];
                    } else if z + 1 < n {
                        acc -= self.ghost_hi[i + n * j];
                    }
                    let candidate = center - delta * (acc - problem.rhs[gi]);
                    let projected = candidate.max(problem.psi[gi]);
                    max_diff = max_diff.max((projected - center).abs());
                    self.next[li] = projected;
                }
            }
        }
        std::mem::swap(&mut self.u, &mut self.next);
        self.relaxations += 1;
        max_diff
    }

    /// Copy the owned planes into their place in a global solution vector.
    pub fn copy_into_global(&self, out: &mut [f64]) {
        let plane = self.n * self.n;
        let start = self.z_start * plane;
        out[start..start + self.u.len()].copy_from_slice(&self.u);
    }

    /// Owned values (planes concatenated in z order).
    pub fn local_values(&self) -> &[f64] {
        &self.u
    }

    /// Overwrite the owned values and the relaxation counter from a
    /// checkpoint (fault-tolerance restore). The ghost planes are left as
    /// they are — a restored peer refreshes them from its neighbours' next
    /// updates, and whatever it currently holds is at least as fresh as what
    /// the checkpoint saw. Returns `false` (and changes nothing) when the
    /// value count does not match this block.
    pub fn restore(&mut self, values: &[f64], relaxations: u64) -> bool {
        if values.len() != self.u.len() {
            return false;
        }
        self.u.copy_from_slice(values);
        self.relaxations = relaxations;
        true
    }
}

/// Overwrite `ghost` with the little-endian `f64` values in `bytes` and
/// return the sup-norm of the change, touching each value once: decode,
/// compare with the value it replaces, store. `None` — and `ghost` untouched
/// — unless `bytes` holds exactly `ghost.len()` values (the bytes come off
/// the network).
///
/// Four running maxima break the serial `max` chain. The result is
/// bit-identical to `fold(0.0, |m, d| m.max(d))` over the differences front
/// to back: the maximum of non-negative values does not depend on the order,
/// and `d > max` skips a NaN difference exactly as `f64::max` does while the
/// running maximum itself — started at 0 — is never NaN (the comparison
/// compiles to a bare `maxpd`, `f64::max` to a NaN-checking sequence).
pub fn store_le_plane(ghost: &mut [f64], bytes: &[u8]) -> Option<f64> {
    if bytes.len() != ghost.len() * 8 {
        return None;
    }
    let store = |slot: &mut f64, raw: &[u8], max: &mut f64| {
        let value = f64::from_le_bytes(raw.try_into().expect("an 8-byte chunk"));
        let change = (value - *slot).abs();
        if change > *max {
            *max = change;
        }
        *slot = value;
    };
    let mut maxima = [0.0f64; 4];
    let mut slots = ghost.chunks_exact_mut(4);
    let mut raws = bytes.chunks_exact(32);
    for (slots, raws) in (&mut slots).zip(&mut raws) {
        for ((slot, raw), max) in slots.iter_mut().zip(raws.chunks_exact(8)).zip(&mut maxima) {
            store(slot, raw, max);
        }
    }
    let tail = slots.into_remainder().iter_mut();
    for (slot, raw) in tail.zip(raws.remainder().chunks_exact(8)) {
        store(slot, raw, &mut maxima[0]);
    }
    Some(maxima.into_iter().fold(0.0, f64::max))
}

/// One projected Richardson update. The subtraction order (left, right,
/// front, back, below, above) matches the scalar kernel exactly so both
/// kernels produce bit-identical iterates.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn relax_point(
    center: f64,
    left: f64,
    right: f64,
    front: f64,
    back: f64,
    below: f64,
    above: f64,
    rhs: f64,
    psi: f64,
    delta: f64,
) -> f64 {
    let mut acc = 6.0 * center;
    acc -= left;
    acc -= right;
    acc -= front;
    acc -= back;
    acc -= below;
    acc -= above;
    (center - delta * (acc - rhs)).max(psi)
}

/// Relax one contiguous row of `n` points with every neighbour row resolved
/// up front. The `i = 0` and `i = n-1` columns (whose left/right neighbour is
/// the zero boundary) are peeled, so the interior runs branch-free over
/// contiguous slices, 4-wide unrolled. Returns the row's sup-norm successive
/// difference; the `max` reduction is order-insensitive on the non-NaN
/// absolute differences, so the unroll does not perturb it.
#[allow(clippy::too_many_arguments)]
#[inline]
fn relax_row(
    row: &[f64],
    front: &[f64],
    back: &[f64],
    below: &[f64],
    above: &[f64],
    rhs: &[f64],
    psi: &[f64],
    out: &mut [f64],
    delta: f64,
) -> f64 {
    let n = row.len();
    // One bounds proof up front lets the interior loop index freely.
    assert!(
        front.len() == n
            && back.len() == n
            && below.len() == n
            && above.len() == n
            && rhs.len() == n
            && psi.len() == n
            && out.len() == n
    );
    // i = 0: the left neighbour is the boundary.
    let right = if n > 1 { row[1] } else { 0.0 };
    let p = relax_point(
        row[0], 0.0, right, front[0], back[0], below[0], above[0], rhs[0], psi[0], delta,
    );
    let mut diff = (p - row[0]).abs();
    out[0] = p;
    if n == 1 {
        return diff;
    }
    let last = n - 1;
    let mut i = 1usize;
    while i + 4 <= last {
        let p0 = relax_point(
            row[i],
            row[i - 1],
            row[i + 1],
            front[i],
            back[i],
            below[i],
            above[i],
            rhs[i],
            psi[i],
            delta,
        );
        let p1 = relax_point(
            row[i + 1],
            row[i],
            row[i + 2],
            front[i + 1],
            back[i + 1],
            below[i + 1],
            above[i + 1],
            rhs[i + 1],
            psi[i + 1],
            delta,
        );
        let p2 = relax_point(
            row[i + 2],
            row[i + 1],
            row[i + 3],
            front[i + 2],
            back[i + 2],
            below[i + 2],
            above[i + 2],
            rhs[i + 2],
            psi[i + 2],
            delta,
        );
        let p3 = relax_point(
            row[i + 3],
            row[i + 2],
            row[i + 4],
            front[i + 3],
            back[i + 3],
            below[i + 3],
            above[i + 3],
            rhs[i + 3],
            psi[i + 3],
            delta,
        );
        out[i] = p0;
        out[i + 1] = p1;
        out[i + 2] = p2;
        out[i + 3] = p3;
        let d01 = (p0 - row[i]).abs().max((p1 - row[i + 1]).abs());
        let d23 = (p2 - row[i + 2]).abs().max((p3 - row[i + 3]).abs());
        diff = diff.max(d01.max(d23));
        i += 4;
    }
    while i < last {
        let p = relax_point(
            row[i],
            row[i - 1],
            row[i + 1],
            front[i],
            back[i],
            below[i],
            above[i],
            rhs[i],
            psi[i],
            delta,
        );
        diff = diff.max((p - row[i]).abs());
        out[i] = p;
        i += 1;
    }
    // i = n-1: the right neighbour is the boundary.
    let p = relax_point(
        row[last],
        row[last - 1],
        0.0,
        front[last],
        back[last],
        below[last],
        above[last],
        rhs[last],
        psi[last],
        delta,
    );
    diff = diff.max((p - row[last]).abs());
    out[last] = p;
    diff
}

/// Sequentially emulate the *synchronous* distributed scheme with `alpha`
/// peers: every iteration, all peers sweep from the same iteration-`p` ghost
/// planes, then exchange boundaries. Produces exactly the same iterates as
/// [`crate::richardson::solve_sequential`]; used to validate the distributed
/// runtime and as a fast harness baseline.
pub fn solve_block_synchronous(
    problem: &ObstacleProblem,
    alpha: usize,
    config: RichardsonConfig,
) -> SolveResult {
    let decomp = BlockDecomposition::balanced(problem.grid.n, alpha);
    let delta = config.delta.unwrap_or_else(|| problem.optimal_delta());
    let mut nodes: Vec<NodeState> = (0..alpha)
        .map(|r| NodeState::new(problem, &decomp, r))
        .collect();
    let mut iterations = 0;
    let mut converged = false;
    let mut diff = f64::INFINITY;
    while iterations < config.max_iterations {
        diff = nodes
            .iter_mut()
            .map(|node| node.sweep(problem, delta))
            .fold(0.0f64, f64::max);
        iterations += 1;
        // Synchronous boundary exchange.
        for r in 0..alpha {
            if r > 0 {
                let plane = nodes[r - 1].last_plane();
                nodes[r].set_ghost_lo(&plane);
            }
            if r + 1 < alpha {
                let plane = nodes[r + 1].first_plane();
                nodes[r].set_ghost_hi(&plane);
            }
        }
        if diff <= config.tolerance {
            converged = true;
            break;
        }
    }
    let mut u = vec![0.0; problem.len()];
    for node in &nodes {
        node.copy_into_global(&mut u);
    }
    SolveResult {
        u,
        iterations,
        converged,
        final_diff: diff,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::richardson::solve_sequential;

    #[test]
    fn node_state_covers_decomposition() {
        let problem = ObstacleProblem::membrane(8);
        let decomp = BlockDecomposition::balanced(8, 3);
        let nodes: Vec<NodeState> = (0..3)
            .map(|r| NodeState::new(&problem, &decomp, r))
            .collect();
        let total: usize = nodes.iter().map(|s| s.local_len()).sum();
        assert_eq!(total, problem.len());
        assert_eq!(nodes[0].z_start(), 0);
        assert_eq!(nodes[2].z_end(), 8);
        assert_eq!(nodes[1].first_plane().len(), 64);
    }

    #[test]
    fn block_synchronous_matches_sequential_exactly() {
        let problem = ObstacleProblem::membrane(10);
        let config = RichardsonConfig {
            tolerance: 1e-6,
            ..Default::default()
        };
        let reference = solve_sequential(&problem, config);
        for alpha in [1usize, 2, 3, 5, 10] {
            let distributed = solve_block_synchronous(&problem, alpha, config);
            assert_eq!(
                distributed.iterations, reference.iterations,
                "synchronous relaxation count must not depend on the decomposition (alpha={alpha})"
            );
            let max_err = reference
                .u
                .iter()
                .zip(distributed.u.iter())
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            assert!(
                max_err < 1e-12,
                "alpha={alpha}: distributed sync iterates diverged from sequential ({max_err})"
            );
        }
    }

    #[test]
    fn block_synchronous_matches_on_validation_problem_too() {
        let problem = ObstacleProblem::poisson_validation(8);
        let config = RichardsonConfig {
            tolerance: 1e-5,
            ..Default::default()
        };
        let a = solve_sequential(&problem, config);
        let b = solve_block_synchronous(&problem, 4, config);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn stale_ghosts_change_the_iterates_but_not_feasibility() {
        // An "asynchronous-like" emulation: never exchange ghosts. The result
        // differs from the reference but every iterate stays feasible.
        let problem = ObstacleProblem::membrane(6);
        let decomp = BlockDecomposition::balanced(6, 2);
        let mut node = NodeState::new(&problem, &decomp, 0);
        let delta = problem.optimal_delta();
        for _ in 0..50 {
            node.sweep(&problem, delta);
        }
        for (lz, value) in node.local_values().iter().enumerate() {
            let z = node.z_start() + lz / problem.grid.plane_len();
            let within = lz % problem.grid.plane_len();
            let i = within % problem.grid.n;
            let j = within / problem.grid.n;
            let gi = problem.grid.idx(i, j, z);
            assert!(*value >= problem.psi[gi] - 1e-12);
        }
        assert_eq!(node.relaxations(), 50);
    }

    #[test]
    #[should_panic(expected = "ghost plane size mismatch")]
    fn wrong_ghost_size_rejected() {
        let problem = ObstacleProblem::membrane(6);
        let decomp = BlockDecomposition::balanced(6, 2);
        let mut node = NodeState::new(&problem, &decomp, 1);
        node.set_ghost_lo(&[0.0; 3]);
    }

    /// Drive `sweeps` synchronous iterations with boundary exchange using the
    /// given kernel, returning the concatenated per-node values.
    fn drive(
        problem: &ObstacleProblem,
        alpha: usize,
        sweeps: usize,
        kernel: impl Fn(&mut NodeState, &ObstacleProblem, f64) -> f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let decomp = BlockDecomposition::balanced(problem.grid.n, alpha);
        let delta = problem.optimal_delta();
        let mut nodes: Vec<NodeState> = (0..alpha)
            .map(|r| NodeState::new(problem, &decomp, r))
            .collect();
        let mut diffs = Vec::new();
        for _ in 0..sweeps {
            let diff = nodes
                .iter_mut()
                .map(|node| kernel(node, problem, delta))
                .fold(0.0f64, f64::max);
            diffs.push(diff);
            for r in 0..alpha {
                if r > 0 {
                    let plane = nodes[r - 1].last_plane();
                    nodes[r].set_ghost_lo(&plane);
                }
                if r + 1 < alpha {
                    let plane = nodes[r + 1].first_plane();
                    nodes[r].set_ghost_hi(&plane);
                }
            }
        }
        let mut u = vec![0.0; problem.len()];
        for node in &nodes {
            node.copy_into_global(&mut u);
        }
        (u, diffs)
    }

    fn assert_bit_identical(problem: &ObstacleProblem, alpha: usize, sweeps: usize) {
        let (blocked, blocked_diffs) = drive(problem, alpha, sweeps, NodeState::sweep);
        let (scalar, scalar_diffs) = drive(problem, alpha, sweeps, NodeState::sweep_scalar);
        for (idx, (a, b)) in blocked.iter().zip(scalar.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "iterate bit mismatch at {idx} (alpha={alpha})"
            );
        }
        for (a, b) in blocked_diffs.iter().zip(scalar_diffs.iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "sup-norm diff mismatch");
        }
    }

    #[test]
    fn blocked_kernel_is_bit_identical_to_scalar() {
        for problem in [
            ObstacleProblem::membrane(10),
            ObstacleProblem::financial(9),
            ObstacleProblem::poisson_validation(8),
        ] {
            for alpha in [1usize, 2, 3, problem.grid.n] {
                assert_bit_identical(&problem, alpha, 25);
            }
        }
    }

    #[test]
    fn blocked_kernel_handles_single_point_rows() {
        // n = 2 rows consist of the two peeled columns alone.
        for n in [2usize, 3] {
            let problem = ObstacleProblem::membrane(n);
            assert_bit_identical(&problem, 1, 10);
        }
    }

    mod ghost_store_proptests {
        use super::*;
        use proptest::prelude::*;

        /// Values a plane can carry, the awkward ones included.
        fn plane_value(rng: &mut proptest::TestRng) -> f64 {
            match rng.below(8) {
                0 => [
                    0.0,
                    -0.0,
                    f64::INFINITY,
                    f64::NEG_INFINITY,
                    f64::NAN,
                    5e-324,
                ][rng.below(6) as usize],
                _ => (rng.unit_f64() - 0.5) * 1e6,
            }
        }

        proptest! {
            /// Storing a plane from its wire bytes is `set_ghost_*` of the
            /// decoded plane, bit for bit: the same ghost afterwards and the
            /// same sup-norm change, whatever the values; bytes of any other
            /// length are refused and leave the ghost alone.
            #[test]
            fn le_store_matches_set_ghost(n in 2usize..9, seed in any::<u64>()) {
                let mut rng = proptest::TestRng::new(seed);
                let problem = ObstacleProblem::membrane(n);
                let decomp = BlockDecomposition::balanced(n, 2);
                let mut fused = NodeState::new(&problem, &decomp, rng.below(2) as usize);
                let lower = fused.z_start() > 0;
                for slot in fused.ghost_lo.iter_mut().chain(&mut fused.ghost_hi) {
                    *slot = plane_value(&mut rng);
                }
                let mut oracle = fused.clone();
                let plane: Vec<f64> = (0..n * n).map(|_| plane_value(&mut rng)).collect();
                let bytes: Vec<u8> = plane.iter().flat_map(|v| v.to_le_bytes()).collect();
                let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();

                for wrong in [bytes.len() - 8, bytes.len() - 1, bytes.len() + 8, 0] {
                    let mut resized = bytes.clone();
                    resized.resize(wrong, 0);
                    let refused = if lower {
                        fused.set_ghost_lo_le(&resized)
                    } else {
                        fused.set_ghost_hi_le(&resized)
                    };
                    prop_assert_eq!(refused, None);
                    prop_assert_eq!(bits(&fused.ghost_lo), bits(&oracle.ghost_lo));
                    prop_assert_eq!(bits(&fused.ghost_hi), bits(&oracle.ghost_hi));
                }

                let (got, expected) = if lower {
                    (fused.set_ghost_lo_le(&bytes), oracle.set_ghost_lo(&plane))
                } else {
                    (fused.set_ghost_hi_le(&bytes), oracle.set_ghost_hi(&plane))
                };
                prop_assert_eq!(got.map(f64::to_bits), Some(expected.to_bits()));
                prop_assert_eq!(bits(&fused.ghost_lo), bits(&oracle.ghost_lo));
                prop_assert_eq!(bits(&fused.ghost_hi), bits(&oracle.ghost_hi));
            }
        }
    }

    mod kernel_equivalence_proptests {
        use super::*;
        use crate::grid::Grid3;
        use proptest::prelude::*;

        proptest! {
            /// The blocked kernel is bit-identical to the scalar kernel on
            /// random problems, decompositions and sweep counts.
            #[test]
            fn blocked_matches_scalar_on_random_problems(
                n in 2usize..9,
                alpha_seed in 1usize..16,
                sweeps in 1usize..12,
                rhs_seed in any::<u64>(),
            ) {
                let grid = Grid3::new(n);
                let len = grid.len();
                // Deterministic pseudo-random rhs/psi from the seed.
                let mut state = rhs_seed | 1;
                let mut draw = || {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((state >> 33) as f64 / 2f64.powi(31)) - 1.0
                };
                let rhs: Vec<f64> = (0..len).map(|_| draw()).collect();
                let psi: Vec<f64> = (0..len).map(|_| draw() * 0.5).collect();
                let problem = ObstacleProblem::new(grid, rhs, psi);
                let alpha = 1 + alpha_seed % n;
                assert_bit_identical(&problem, alpha, sweeps);
            }
        }
    }
}
