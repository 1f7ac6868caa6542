//! `obstacle` — the numerical application of the paper: the 3-D obstacle
//! problem and its solution by the projected Richardson method.
//!
//! The obstacle problem (Section IV) arises in mechanics and financial
//! mathematics (options pricing). Its discretization yields a fixed-point
//! problem `u = P_K(u − δ(A·u − b))` on `n³` unknowns; the iterate vector is
//! decomposed into `n` sub-blocks of `n²` points (z-planes) distributed over
//! `α ≤ n` peers.
//!
//! * [`ObstacleProblem`] — grid, operator `A`, right-hand side, obstacle and
//!   projection, with three built-in instances (analytic Poisson validation,
//!   membrane-over-bump, options-pricing-like).
//! * [`solve_sequential`] — the single-peer baseline solver.
//! * [`NodeState`] / [`solve_block_synchronous`] — the per-peer block state
//!   used by the distributed runtimes and the sequential emulation of the
//!   synchronous scheme.
//! * [`GlobalConvergence`] — coordinator-side distributed convergence test.

#![warn(missing_docs)]

pub mod block;
pub mod convergence;
pub mod grid;
pub mod problem;
pub mod richardson;

pub use block::{solve_block_synchronous, store_le_plane, NodeState};
pub use convergence::{l2_norm, sup_norm, sup_norm_diff, ConvergenceCriterion, GlobalConvergence};
pub use grid::{BlockDecomposition, Grid3};
pub use problem::{ObstacleProblem, NO_OBSTACLE};
pub use richardson::{
    fixed_point_residual, initial_iterate, solve_sequential, sweep, RichardsonConfig, SolveResult,
};
