//! The sequential projected Richardson method.
//!
//! `u^{p+1} = P_K( u^p − δ (A·u^p − b) )` iterated from `u⁰ = P_K(0)` until
//! the sup-norm of the successive difference falls below the tolerance.
//! This is the reference (baseline) solver: the distributed synchronous
//! scheme must reproduce exactly the same iterates, and speedups in the
//! experiments are measured against this single-peer execution. Its sweep
//! is the peers' kernel, so on a host with more than one core a grid of at
//! least two parts of [`crate::block::SPLIT_POINTS`] points is swept by the
//! calling thread and a helper thread together ([`crate::join`]), with the
//! same bits as one thread.

use crate::block::relax_planes;
use crate::convergence::ConvergenceCriterion;
use crate::problem::ObstacleProblem;
use serde::{Deserialize, Serialize};

/// Configuration of the Richardson iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RichardsonConfig {
    /// Relaxation parameter δ; `None` uses the problem's optimal value (1/6).
    pub delta: Option<f64>,
    /// Stopping tolerance on the sup-norm of the successive difference.
    pub tolerance: f64,
    /// Hard cap on the number of relaxations.
    pub max_iterations: usize,
}

impl Default for RichardsonConfig {
    fn default() -> Self {
        Self {
            delta: None,
            tolerance: 1e-6,
            max_iterations: 200_000,
        }
    }
}

/// Result of a sequential solve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveResult {
    /// Final iterate.
    pub u: Vec<f64>,
    /// Number of relaxations (full sweeps) performed.
    pub iterations: usize,
    /// Whether the tolerance was reached within the iteration cap.
    pub converged: bool,
    /// Final successive-difference sup-norm.
    pub final_diff: f64,
}

/// The initial iterate `u⁰ = P_K(0)` used by every solver in this crate.
pub fn initial_iterate(problem: &ObstacleProblem) -> Vec<f64> {
    let mut u = vec![0.0; problem.len()];
    problem.project(&mut u);
    u
}

/// One full projected Richardson sweep: writes `P_K(u − δ(Au − b))` into
/// `next` and returns the sup-norm of `next − u`. It is the distributed
/// peers' kernel run over the whole grid with zero ghost planes — split
/// with a helper thread where the grid is large enough — so it is
/// bit-identical to a synchronous sweep under any decomposition.
pub fn sweep(problem: &ObstacleProblem, u: &[f64], next: &mut [f64], delta: f64) -> f64 {
    let zeros = vec![0.0; problem.grid.plane_len()];
    relax_planes(
        problem.grid.n,
        u,
        &zeros,
        &zeros,
        &zeros,
        &problem.rhs,
        &problem.psi,
        next,
        delta,
    )
}

/// Solve the obstacle problem with the sequential projected Richardson
/// method.
pub fn solve_sequential(problem: &ObstacleProblem, config: RichardsonConfig) -> SolveResult {
    let delta = config.delta.unwrap_or_else(|| problem.optimal_delta());
    assert!(
        delta > 0.0 && delta < problem.max_delta() + 1e-12,
        "delta {delta} outside the convergence range (0, {})",
        problem.max_delta()
    );
    let criterion = ConvergenceCriterion::new(config.tolerance);
    let mut u = initial_iterate(problem);
    let mut next = vec![0.0; problem.len()];
    let mut iterations = 0;
    let mut diff = f64::INFINITY;
    while iterations < config.max_iterations {
        diff = sweep(problem, &u, &mut next, delta);
        std::mem::swap(&mut u, &mut next);
        iterations += 1;
        if criterion.is_satisfied(diff) {
            return SolveResult {
                u,
                iterations,
                converged: true,
                final_diff: diff,
            };
        }
    }
    SolveResult {
        u,
        iterations,
        converged: false,
        final_diff: diff,
    }
}

/// Fixed-point residual `‖u − P_K(u − δ(Au − b))‖_∞`: zero exactly at the
/// solution of the obstacle problem. It is the successive difference of one
/// [`sweep`] from `u`.
pub fn fixed_point_residual(problem: &ObstacleProblem, u: &[f64], delta: f64) -> f64 {
    let mut next = vec![0.0; problem.len()];
    sweep(problem, u, &mut next, delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::sup_norm_diff;

    #[test]
    fn converges_to_analytic_poisson_solution() {
        let n = 12;
        let problem = ObstacleProblem::poisson_validation(n);
        let result = solve_sequential(
            &problem,
            RichardsonConfig {
                tolerance: 1e-8,
                ..Default::default()
            },
        );
        assert!(result.converged);
        let exact = ObstacleProblem::poisson_exact(n);
        let err = sup_norm_diff(&result.u, &exact);
        // Second-order discretization error: c * h^2 with c ~ exact-solution
        // fourth derivatives; at n = 12 expect err well below 0.01.
        assert!(err < 0.01, "discretization error too large: {err}");
    }

    #[test]
    fn discretization_error_decreases_with_refinement() {
        let err_at = |n: usize| {
            let problem = ObstacleProblem::poisson_validation(n);
            let result = solve_sequential(
                &problem,
                RichardsonConfig {
                    tolerance: 1e-9,
                    ..Default::default()
                },
            );
            sup_norm_diff(&result.u, &ObstacleProblem::poisson_exact(n))
        };
        let coarse = err_at(6);
        let fine = err_at(12);
        assert!(
            fine < coarse,
            "refinement must reduce the error ({coarse} -> {fine})"
        );
    }

    #[test]
    fn obstacle_solution_respects_constraint_and_complementarity() {
        let problem = ObstacleProblem::membrane(10);
        let result = solve_sequential(
            &problem,
            RichardsonConfig {
                tolerance: 1e-8,
                ..Default::default()
            },
        );
        assert!(result.converged);
        let u = &result.u;
        // Feasibility: u >= psi (up to the solver tolerance).
        for (ui, psi) in u.iter().zip(problem.psi.iter()) {
            assert!(*ui >= *psi - 1e-7);
        }
        // Complementarity (discrete): where u > psi clearly, the residual
        // (Au - b) must be ~0; where u = psi it must be >= 0 (within a loose
        // numerical margin scaled by the tolerance).
        let mut au = vec![0.0; problem.len()];
        problem.apply_a(u, &mut au);
        for idx in 0..problem.len() {
            let slack = u[idx] - problem.psi[idx];
            let residual = au[idx] - problem.rhs[idx];
            if slack > 1e-4 {
                assert!(
                    residual.abs() < 1e-3,
                    "free region must satisfy the equation (idx {idx}: r={residual}, slack={slack})"
                );
            } else {
                assert!(
                    residual > -1e-3,
                    "contact region must have non-negative residual (idx {idx}: r={residual})"
                );
            }
        }
    }

    #[test]
    fn iteration_cap_is_honoured() {
        let problem = ObstacleProblem::membrane(8);
        let result = solve_sequential(
            &problem,
            RichardsonConfig {
                tolerance: 1e-14,
                max_iterations: 5,
                ..Default::default()
            },
        );
        assert!(!result.converged);
        assert_eq!(result.iterations, 5);
    }

    #[test]
    fn fixed_point_residual_vanishes_at_the_solution() {
        let problem = ObstacleProblem::membrane(8);
        let result = solve_sequential(
            &problem,
            RichardsonConfig {
                tolerance: 1e-10,
                ..Default::default()
            },
        );
        let delta = problem.optimal_delta();
        assert!(fixed_point_residual(&problem, &result.u, delta) < 1e-9);
        let u0 = initial_iterate(&problem);
        assert!(fixed_point_residual(&problem, &u0, delta) > 1e-3);
    }

    #[test]
    #[should_panic(expected = "outside the convergence range")]
    fn divergent_delta_rejected() {
        let problem = ObstacleProblem::membrane(8);
        let _ = solve_sequential(
            &problem,
            RichardsonConfig {
                delta: Some(1.0),
                ..Default::default()
            },
        );
    }
}
