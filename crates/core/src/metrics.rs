//! Experiment metrics: elapsed time, relaxation counts, speedup, efficiency.
//!
//! Figures 5 and 6 of the paper report, for each (scheme, topology, peer
//! count) configuration: the elapsed time, the number of relaxations, the
//! speedup with respect to the single-peer execution and the parallel
//! efficiency. These types compute and serialize exactly those quantities.

use desim::SimDuration;
use serde::{Deserialize, Serialize};

/// Raw measurements of one distributed run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunMeasurement {
    /// Number of peers used.
    pub peers: usize,
    /// Elapsed (virtual or wall-clock) time until global convergence.
    pub elapsed: SimDuration,
    /// Relaxations performed by each peer.
    pub relaxations_per_peer: Vec<u64>,
    /// Whether the run converged within its caps.
    pub converged: bool,
    /// Fixed-point residual of the assembled solution (quality check).
    pub residual: f64,
    /// Crash events injected into the run (0 for fault-free runs).
    pub crashes: u64,
    /// Completed recoveries (checkpoint restarts of a dead rank).
    pub recoveries: u64,
    /// Synchronous rollback broadcasts performed during the run.
    pub rollbacks: u64,
    /// Total peer downtime (crash until recovery), in seconds of the
    /// backend's clock (virtual for sim, event counts for loopback,
    /// wall-clock otherwise).
    pub downtime_s: f64,
    /// Live per-peer throughput estimate in relaxed points per second of the
    /// backend's clock (0 where no measurement exists), from the engines'
    /// [`crate::load_balance::PeerLoad`] accounting.
    pub points_per_sec: Vec<f64>,
    /// Grid points actually relaxed by each peer, from the same accounting.
    /// Unlike `relaxations_per_peer` (the tasks' iteration counters, which a
    /// checkpoint restore rewinds), this counts every executed sweep — the
    /// honest "work done" metric for faulty runs, where redone iterations
    /// are real cost.
    pub points_relaxed_per_peer: Vec<u64>,
    /// Peers that joined the run mid-flight through a
    /// [`crate::churn::ChurnEventKind::Join`] event (0 for fixed-membership
    /// runs).
    pub joins: u64,
    /// Live repartitions performed: re-slices of the checkpointed global
    /// state into a new capacity-weighted decomposition, at recovery or at a
    /// join.
    pub repartitions: u64,
    /// Grid points whose owning rank changed across all repartitions (the
    /// data-movement cost of the re-slices).
    pub moved_points: u64,
}

impl RunMeasurement {
    /// The one constructor every runtime uses (via
    /// [`crate::runtime::stop::ConvergenceDetector::finish_run`]), so all
    /// runtimes report identical metric shapes. The fixed-point residual is
    /// a solution-quality check only the experiment layer can compute; it
    /// starts out as NaN and is filled in there.
    pub fn from_run(
        peers: usize,
        elapsed: SimDuration,
        relaxations_per_peer: Vec<u64>,
        converged: bool,
    ) -> Self {
        assert_eq!(
            peers,
            relaxations_per_peer.len(),
            "one relaxation count per peer"
        );
        Self {
            peers,
            elapsed,
            relaxations_per_peer,
            converged,
            residual: f64::NAN,
            crashes: 0,
            recoveries: 0,
            rollbacks: 0,
            downtime_s: 0.0,
            points_per_sec: Vec::new(),
            points_relaxed_per_peer: Vec::new(),
            joins: 0,
            repartitions: 0,
            moved_points: 0,
        }
    }

    /// Total grid points relaxed across all peers (execution work, immune to
    /// the iteration-counter rewind a checkpoint restore performs).
    pub fn total_points_relaxed(&self) -> u64 {
        self.points_relaxed_per_peer.iter().sum()
    }

    /// Total number of relaxations across all peers.
    pub fn total_relaxations(&self) -> u64 {
        self.relaxations_per_peer.iter().sum()
    }

    /// Average number of relaxations per peer (the quantity plotted in
    /// Figures 5 and 6).
    pub fn avg_relaxations(&self) -> f64 {
        if self.relaxations_per_peer.is_empty() {
            return 0.0;
        }
        self.total_relaxations() as f64 / self.relaxations_per_peer.len() as f64
    }

    /// Maximum relaxations performed by any peer.
    pub fn max_relaxations(&self) -> u64 {
        self.relaxations_per_peer.iter().copied().max().unwrap_or(0)
    }

    /// Minimum relaxations performed by any peer (the earliest stopper —
    /// what a late stop decision inflates first).
    pub fn min_relaxations(&self) -> u64 {
        self.relaxations_per_peer.iter().copied().min().unwrap_or(0)
    }
}

/// One row of a figure: the measurement plus derived speedup and efficiency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureRow {
    /// Scheme label ("synchronous", "asynchronous", "hybrid").
    pub scheme: String,
    /// Topology label ("1 cluster", "2 clusters").
    pub topology: String,
    /// Number of peers.
    pub peers: usize,
    /// Elapsed time in seconds.
    pub time_s: f64,
    /// Average relaxations per peer.
    pub relaxations: f64,
    /// Speedup versus the single-peer reference.
    pub speedup: f64,
    /// Efficiency = speedup / peers.
    pub efficiency: f64,
    /// Whether the run converged.
    pub converged: bool,
}

/// Compute speedup and efficiency of `run` against the sequential reference
/// time.
pub fn derive_row(
    scheme: &str,
    topology: &str,
    reference_elapsed: SimDuration,
    run: &RunMeasurement,
) -> FigureRow {
    let time_s = run.elapsed.as_secs_f64();
    let speedup = if time_s > 0.0 {
        reference_elapsed.as_secs_f64() / time_s
    } else {
        0.0
    };
    let efficiency = if run.peers > 0 {
        speedup / run.peers as f64
    } else {
        0.0
    };
    FigureRow {
        scheme: scheme.to_string(),
        topology: topology.to_string(),
        peers: run.peers,
        time_s,
        relaxations: run.avg_relaxations(),
        speedup,
        efficiency,
        converged: run.converged,
    }
}

/// Render a set of figure rows as an aligned text table (the harness output
/// that stands in for the paper's bar charts).
pub fn format_table(title: &str, rows: &[FigureRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    out.push_str(&format!(
        "{:<14} {:<11} {:>6} {:>12} {:>13} {:>9} {:>11} {:>10}\n",
        "scheme",
        "topology",
        "peers",
        "time [s]",
        "relaxations",
        "speedup",
        "efficiency",
        "converged"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<11} {:>6} {:>12.3} {:>13.1} {:>9.2} {:>11.3} {:>10}\n",
            r.scheme,
            r.topology,
            r.peers,
            r.time_s,
            r.relaxations,
            r.speedup,
            r.efficiency,
            r.converged
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(peers: usize, secs: f64, relax: u64) -> RunMeasurement {
        let mut m = RunMeasurement::from_run(
            peers,
            SimDuration::from_secs_f64(secs),
            vec![relax; peers],
            true,
        );
        m.residual = 1e-7;
        m
    }

    #[test]
    fn relaxation_statistics() {
        let mut m = measurement(4, 1.0, 100);
        m.relaxations_per_peer[3] = 140;
        assert_eq!(m.total_relaxations(), 440);
        assert_eq!(m.avg_relaxations(), 110.0);
        assert_eq!(m.max_relaxations(), 140);
    }

    #[test]
    fn speedup_and_efficiency() {
        let reference = SimDuration::from_secs_f64(10.0);
        let row = derive_row(
            "synchronous",
            "1 cluster",
            reference,
            &measurement(4, 2.5, 50),
        );
        assert!((row.speedup - 4.0).abs() < 1e-12);
        assert!((row.efficiency - 1.0).abs() < 1e-12);
        let poor = derive_row(
            "synchronous",
            "2 clusters",
            reference,
            &measurement(8, 10.0, 50),
        );
        assert!((poor.speedup - 1.0).abs() < 1e-12);
        assert!((poor.efficiency - 0.125).abs() < 1e-12);
    }

    #[test]
    fn table_contains_every_row() {
        let reference = SimDuration::from_secs_f64(4.0);
        let rows = vec![
            derive_row(
                "asynchronous",
                "1 cluster",
                reference,
                &measurement(2, 2.0, 60),
            ),
            derive_row("hybrid", "2 clusters", reference, &measurement(4, 1.0, 70)),
        ];
        let table = format_table("Figure X", &rows);
        assert!(table.contains("Figure X"));
        assert!(table.contains("asynchronous"));
        assert!(table.contains("hybrid"));
        assert_eq!(table.lines().count(), 4);
    }
}
