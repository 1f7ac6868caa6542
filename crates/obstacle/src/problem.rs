//! The discretized obstacle problem.
//!
//! Continuous problem (Section IV of the paper, see also Lions 1969): find
//! `u ≥ ψ` on the unit cube with `u = 0` on the boundary such that
//! `−Δu − f ≥ 0` and `(u − ψ)(−Δu − f) = 0` (complementarity). Discretizing
//! `−Δ` with the 7-point finite-difference stencil and scaling by `h²` gives
//! a fixed-point problem `u = P_K(u − δ(A·u − b))` where
//!
//! * `A` is the M-matrix with diagonal 6 and off-diagonal −1 towards the six
//!   grid neighbours (boundary neighbours contribute 0),
//! * `b = h² f`,
//! * `K = { v : v ≥ ψ }` and `P_K` is the component-wise projection
//!   `max(v, ψ)`.
//!
//! The projected Richardson method iterates that mapping; its convergence for
//! `0 < δ < 2/ρ(A)` follows from the M-matrix / contraction arguments of the
//! paper's references.

use crate::block::SPLIT_POINTS;
use crate::grid::Grid3;
use crate::join;
use serde::{Deserialize, Serialize};

/// Effective "minus infinity" obstacle used for unconstrained validation
/// problems.
pub const NO_OBSTACLE: f64 = -1e300;

/// A discretized obstacle problem instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ObstacleProblem {
    /// Discretization grid.
    pub grid: Grid3,
    /// Right-hand side `b = h² f`, one entry per unknown.
    pub rhs: Vec<f64>,
    /// Obstacle `ψ`, one entry per unknown (lower bound on the solution).
    pub psi: Vec<f64>,
}

/// The grid of a new problem of `n` points per dimension. A grid whose sweep
/// can be split with a helper thread starts the helpers first, before the
/// problem's arrays are allocated ([`join::start`]).
fn grid_for_problem(n: usize) -> Grid3 {
    let grid = Grid3::new(n);
    if grid.len() >= 2 * SPLIT_POINTS {
        join::start();
    }
    grid
}

impl ObstacleProblem {
    /// Build a problem from explicit data.
    pub fn new(grid: Grid3, rhs: Vec<f64>, psi: Vec<f64>) -> Self {
        grid_for_problem(grid.n);
        assert_eq!(rhs.len(), grid.len(), "rhs size mismatch");
        assert_eq!(psi.len(), grid.len(), "psi size mismatch");
        Self { grid, rhs, psi }
    }

    /// Number of unknowns.
    pub fn len(&self) -> usize {
        self.grid.len()
    }

    /// Whether the problem has no unknowns, consistently with
    /// [`ObstacleProblem::len`].
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The Poisson validation problem without an obstacle:
    /// `f(x,y,z) = 3π² sin(πx) sin(πy) sin(πz)` whose exact solution is
    /// `u = sin(πx) sin(πy) sin(πz)`. Used to validate the solver against an
    /// analytic solution (the obstacle is set to −∞, so the projection is
    /// inactive).
    pub fn poisson_validation(n: usize) -> Self {
        let grid = grid_for_problem(n);
        let h = grid.h();
        let pi = std::f64::consts::PI;
        let mut rhs = vec![0.0; grid.len()];
        for (i, j, k) in grid.points() {
            let (x, y, z) = (grid.coord(i), grid.coord(j), grid.coord(k));
            let f = 3.0 * pi * pi * (pi * x).sin() * (pi * y).sin() * (pi * z).sin();
            rhs[grid.idx(i, j, k)] = h * h * f;
        }
        let psi = vec![NO_OBSTACLE; grid.len()];
        Self { grid, rhs, psi }
    }

    /// Exact solution of [`ObstacleProblem::poisson_validation`] at every grid
    /// point.
    pub fn poisson_exact(n: usize) -> Vec<f64> {
        let grid = Grid3::new(n);
        let pi = std::f64::consts::PI;
        let mut u = vec![0.0; grid.len()];
        for (i, j, k) in grid.points() {
            let (x, y, z) = (grid.coord(i), grid.coord(j), grid.coord(k));
            u[grid.idx(i, j, k)] = (pi * x).sin() * (pi * y).sin() * (pi * z).sin();
        }
        u
    }

    /// The membrane-over-a-bump obstacle problem used in the paper-style
    /// experiments: zero load (`f = 0`), zero boundary values and a smooth
    /// spherical bump obstacle in the middle of the cube. The solution touches
    /// the obstacle on a contact set and is discrete-harmonic elsewhere.
    pub fn membrane(n: usize) -> Self {
        let grid = grid_for_problem(n);
        let mut psi = vec![0.0; grid.len()];
        for (i, j, k) in grid.points() {
            let (x, y, z) = (grid.coord(i), grid.coord(j), grid.coord(k));
            let r2 = (x - 0.5).powi(2) + (y - 0.5).powi(2) + (z - 0.5).powi(2);
            // Bump of height 0.3 and radius ~0.35, negative far from the centre
            // so the zero boundary condition is compatible with u >= psi.
            psi[grid.idx(i, j, k)] = 0.3 - 2.5 * r2;
        }
        let rhs = vec![0.0; grid.len()];
        Self { grid, rhs, psi }
    }

    /// A qualitative stand-in for the options-pricing obstacle problems the
    /// paper cites as an application domain: the obstacle is a piecewise
    /// linear "payoff"-like ridge and a sink term pulls the solution down, so
    /// both the contact set and the free region are non-trivial.
    pub fn financial(n: usize) -> Self {
        let grid = grid_for_problem(n);
        let h = grid.h();
        let mut psi = vec![0.0; grid.len()];
        let mut rhs = vec![0.0; grid.len()];
        for (i, j, k) in grid.points() {
            let (x, y, z) = (grid.coord(i), grid.coord(j), grid.coord(k));
            // Payoff-like obstacle: positive near the "strike" plane x = 0.5,
            // tapering towards the boundary so psi <= 0 there.
            let payoff = 0.25 - (x - 0.5).abs();
            let taper = (y * (1.0 - y) * z * (1.0 - z)) * 4.0;
            psi[grid.idx(i, j, k)] = payoff * taper;
            // Constant sink pulling the solution towards zero.
            rhs[grid.idx(i, j, k)] = -2.0 * h * h;
        }
        Self { grid, rhs, psi }
    }

    /// Apply the operator `A` (7-point stencil, diagonal 6, off-diagonal −1)
    /// to `v`, writing into `out`.
    pub fn apply_a(&self, v: &[f64], out: &mut [f64]) {
        let n = self.grid.n;
        assert_eq!(v.len(), self.len());
        assert_eq!(out.len(), self.len());
        for k in 0..n {
            for j in 0..n {
                for i in 0..n {
                    let idx = self.grid.idx(i, j, k);
                    let mut acc = 6.0 * v[idx];
                    if i > 0 {
                        acc -= v[idx - 1];
                    }
                    if i + 1 < n {
                        acc -= v[idx + 1];
                    }
                    if j > 0 {
                        acc -= v[idx - n];
                    }
                    if j + 1 < n {
                        acc -= v[idx + n];
                    }
                    if k > 0 {
                        acc -= v[idx - n * n];
                    }
                    if k + 1 < n {
                        acc -= v[idx + n * n];
                    }
                    out[idx] = acc;
                }
            }
        }
    }

    /// Component-wise projection onto `K = { v ≥ ψ }`, in place.
    pub fn project(&self, v: &mut [f64]) {
        assert_eq!(v.len(), self.len());
        self.project_from(0, v);
    }

    /// Project `v`, the points of the iterate from `offset` on, onto the
    /// constraint set (a peer's planes, projected without the rest).
    pub(crate) fn project_from(&self, offset: usize, v: &mut [f64]) {
        let psi = &self.psi[offset..offset + v.len()];
        for (vi, psi) in v.iter_mut().zip(psi) {
            if *vi < *psi {
                *vi = *psi;
            }
        }
    }

    /// The relaxation parameter used throughout the reproduction:
    /// `δ = 2 / (λ_min + λ_max) = 1/6` for the scaled 7-point Laplacian
    /// (λ_min + λ_max = 12 exactly for every `n`), which is the optimal
    /// Richardson parameter and satisfies the `0 < δ < 2/ρ(A)` convergence
    /// condition.
    pub fn optimal_delta(&self) -> f64 {
        1.0 / 6.0
    }

    /// Largest admissible relaxation parameter `2 / λ_max` for this grid.
    pub fn max_delta(&self) -> f64 {
        let h = self.grid.h();
        let lambda_max = 6.0 + 6.0 * (std::f64::consts::PI * h).cos();
        2.0 / lambda_max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_a_matches_dense_stencil_on_small_grid() {
        let p = ObstacleProblem::poisson_validation(3);
        // A applied to the constant vector 1: centre point has 6 - 6 = 0,
        // corner points have 6 - 3 = 3, edge-centre 6 - 4 = 2, face-centre 6 - 5 = 1.
        let v = vec![1.0; p.len()];
        let mut out = vec![0.0; p.len()];
        p.apply_a(&v, &mut out);
        let g = p.grid;
        assert_eq!(out[g.idx(1, 1, 1)], 0.0);
        assert_eq!(out[g.idx(0, 0, 0)], 3.0);
        assert_eq!(out[g.idx(1, 0, 0)], 2.0);
        assert_eq!(out[g.idx(1, 1, 0)], 1.0);
    }

    #[test]
    fn operator_is_symmetric_positive_definite_sampled() {
        let p = ObstacleProblem::membrane(4);
        let len = p.len();
        // <Av, w> == <v, Aw> for a few pseudo-random vectors, and <Av, v> > 0.
        let mk = |seed: u64| -> Vec<f64> {
            let mut state = seed;
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((state >> 33) as f64 / 2f64.powi(31)) - 1.0
                })
                .collect()
        };
        let v = mk(1);
        let w = mk(2);
        let mut av = vec![0.0; len];
        let mut aw = vec![0.0; len];
        p.apply_a(&v, &mut av);
        p.apply_a(&w, &mut aw);
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        assert!((dot(&av, &w) - dot(&v, &aw)).abs() < 1e-9);
        assert!(dot(&av, &v) > 0.0);
    }

    #[test]
    fn projection_enforces_obstacle_and_is_idempotent() {
        let p = ObstacleProblem::membrane(5);
        let mut v = vec![-1.0; p.len()];
        p.project(&mut v);
        for (vi, psi) in v.iter().zip(p.psi.iter()) {
            assert!(*vi >= *psi);
        }
        let snapshot = v.clone();
        p.project(&mut v);
        assert_eq!(v, snapshot, "projection must be idempotent");
    }

    #[test]
    fn delta_is_within_the_convergence_range() {
        let p = ObstacleProblem::membrane(8);
        assert!(p.optimal_delta() > 0.0);
        assert!(p.optimal_delta() < p.max_delta());
    }

    #[test]
    fn membrane_obstacle_is_positive_in_the_middle_negative_near_boundary() {
        let p = ObstacleProblem::membrane(9);
        let g = p.grid;
        let mid = g.n / 2;
        assert!(p.psi[g.idx(mid, mid, mid)] > 0.0);
        assert!(p.psi[g.idx(0, 0, 0)] < 0.0);
    }

    #[test]
    fn financial_problem_has_nontrivial_obstacle_and_sink() {
        let p = ObstacleProblem::financial(8);
        assert!(p.psi.iter().any(|&x| x > 0.0));
        assert!(p.rhs.iter().all(|&x| x < 0.0));
    }
}
