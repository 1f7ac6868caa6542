//! Norms, stopping criteria and distributed convergence detection.

use serde::{Deserialize, Serialize};

/// Maximum norm of a vector.
pub fn sup_norm(v: &[f64]) -> f64 {
    v.iter().fold(0.0f64, |m, x| m.max(x.abs()))
}

/// Euclidean norm of a vector.
pub fn l2_norm(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Maximum norm of the difference of two vectors.
pub fn sup_norm_diff(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .fold(0.0f64, |m, (x, y)| m.max((x - y).abs()))
}

/// Stopping criterion based on the maximum norm of the successive-iterate
/// difference (the criterion used for all experiments in this reproduction;
/// the paper does not state its criterion explicitly).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvergenceCriterion {
    /// Threshold on the sup-norm of the successive difference.
    pub tolerance: f64,
}

impl ConvergenceCriterion {
    /// Create a criterion with the given tolerance.
    pub fn new(tolerance: f64) -> Self {
        assert!(tolerance > 0.0, "tolerance must be positive");
        Self { tolerance }
    }

    /// Whether a measured difference satisfies the criterion.
    pub fn is_satisfied(&self, diff: f64) -> bool {
        diff <= self.tolerance
    }
}

impl Default for ConvergenceCriterion {
    fn default() -> Self {
        Self { tolerance: 1e-6 }
    }
}

/// Coordinator-side global convergence detection for the distributed solver.
///
/// Each peer reports the sup-norm difference of its latest local relaxation.
/// Under synchronous iterations one report per peer per iteration suffices;
/// under asynchronous iterations a peer's report may be stale, so global
/// convergence is declared only when **every** peer's most recent report has
/// been below the tolerance for `persistence` consecutive reports — a
/// conservative practical test for asynchronous fixed-point iterations.
#[derive(Debug, Clone)]
pub struct GlobalConvergence {
    criterion: ConvergenceCriterion,
    persistence: u32,
    streaks: Vec<u32>,
}

impl GlobalConvergence {
    /// Create a tracker for `peers` peers.
    pub fn new(peers: usize, criterion: ConvergenceCriterion, persistence: u32) -> Self {
        assert!(peers > 0);
        assert!(persistence >= 1);
        Self {
            criterion,
            persistence,
            streaks: vec![0; peers],
        }
    }

    /// Record a local difference report from peer `r`. Returns true when the
    /// global criterion is now satisfied.
    pub fn report(&mut self, r: usize, local_diff: f64) -> bool {
        if self.criterion.is_satisfied(local_diff) {
            self.streaks[r] = self.streaks[r].saturating_add(1);
        } else {
            self.streaks[r] = 0;
        }
        self.is_globally_converged()
    }

    /// Whether every peer currently satisfies the persistence requirement.
    pub fn is_globally_converged(&self) -> bool {
        self.streaks.iter().all(|s| *s >= self.persistence)
    }

    /// Reset the tracker (e.g. after a reconfiguration).
    pub fn reset(&mut self) {
        for s in &mut self.streaks {
            *s = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norms_are_correct() {
        let v = [3.0, -4.0, 0.5];
        assert_eq!(sup_norm(&v), 4.0);
        assert!((l2_norm(&v) - (9.0f64 + 16.0 + 0.25).sqrt()).abs() < 1e-12);
        assert_eq!(sup_norm_diff(&[1.0, 2.0], &[1.5, 0.0]), 2.0);
    }

    #[test]
    fn criterion_thresholds() {
        let c = ConvergenceCriterion::new(1e-3);
        assert!(c.is_satisfied(1e-4));
        assert!(c.is_satisfied(1e-3));
        assert!(!c.is_satisfied(2e-3));
    }

    #[test]
    fn global_convergence_requires_all_peers() {
        let mut g = GlobalConvergence::new(3, ConvergenceCriterion::new(1e-6), 1);
        assert!(!g.report(0, 1e-9));
        assert!(!g.report(1, 1e-9));
        assert!(g.report(2, 1e-9));
    }

    #[test]
    fn persistence_requires_consecutive_reports() {
        let mut g = GlobalConvergence::new(2, ConvergenceCriterion::new(1e-6), 2);
        g.report(0, 1e-9);
        g.report(1, 1e-9);
        assert!(!g.is_globally_converged(), "only one clean round so far");
        g.report(0, 1e-9);
        assert!(g.report(1, 1e-9) || g.is_globally_converged());
        assert!(g.is_globally_converged());
        // A bad report resets that peer's streak.
        g.report(0, 1.0);
        assert!(!g.is_globally_converged());
    }

    #[test]
    #[should_panic(expected = "tolerance must be positive")]
    fn zero_tolerance_rejected() {
        let _ = ConvergenceCriterion::new(0.0);
    }
}
