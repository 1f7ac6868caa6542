//! One-cluster experiment: compare the three schemes of computation on the
//! simulated NICTA-style cluster (100 Mbit/s Ethernet), reproducing the
//! single-cluster series of the paper's Figure 5 for one grid size.
//!
//! ```text
//! cargo run --release --example obstacle_cluster [n] [peers]
//! ```

use p2pdc::{
    derive_row, format_table, run_on, ComputeModel, RunConfig, RuntimeExperimentResult,
    RuntimeKind, Scheme, WorkloadKind,
};

/// Run one cell on the simulated backend with the granularity-preserving
/// compute model (per-sweep cost of the paper's 96³ runs, the same scaling
/// the benchmark harness uses), so the computation/communication ratio is
/// representative even at a reduced grid size.
fn experiment(n: usize, scheme: Scheme, peers: usize, clusters: usize) -> RuntimeExperimentResult {
    let workload = WorkloadKind::Obstacle.build(n, peers);
    let mut config = RunConfig::clustered(scheme, peers, clusters);
    config.compute = ComputeModel::calibrated(50.0 * (96.0_f64 / n as f64).powi(3));
    run_on(workload.as_ref(), &config, RuntimeKind::Sim)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(24);
    let peers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    println!("obstacle problem {n}^3, single cluster, {peers} peers\n");

    // Single-peer reference for speedups.
    let reference = experiment(n, Scheme::Synchronous, 1, 1);
    let mut rows = vec![derive_row(
        "synchronous",
        "1 cluster",
        reference.measurement.elapsed,
        &reference.measurement,
    )];
    for scheme in [Scheme::Synchronous, Scheme::Asynchronous, Scheme::Hybrid] {
        let result = experiment(n, scheme, peers, 1);
        rows.push(derive_row(
            &scheme.to_string(),
            "1 cluster",
            reference.measurement.elapsed,
            &result.measurement,
        ));
        println!(
            "{scheme}: residual {:.2e}, intra-cluster packets {}",
            result.measurement.residual,
            result
                .net
                .expect("sim models the fabric")
                .intra
                .packets_delivered
        );
    }
    println!();
    println!(
        "{}",
        format_table("Single-cluster scheme comparison", &rows)
    );
}
