//! Two-cluster experiment: the same peers split into two clusters joined by a
//! netem-emulated 100 ms Internet path (the paper's second topology). Shows
//! the collapse of the synchronous scheme and the robustness of the
//! asynchronous and hybrid schemes.
//!
//! ```text
//! cargo run --release --example two_cluster_wan [n] [peers]
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
    println!("obstacle problem {n}^3, two clusters (100 ms WAN), {peers} peers\n");

    let reference = experiment(n, Scheme::Synchronous, 1, 1);
    let mut rows = Vec::new();
    for scheme in [Scheme::Synchronous, Scheme::Asynchronous, Scheme::Hybrid] {
        for clusters in [1usize, 2] {
            let result = experiment(n, scheme, peers, clusters);
            rows.push(derive_row(
                &scheme.to_string(),
                if clusters == 1 {
                    "1 cluster"
                } else {
                    "2 clusters"
                },
                reference.measurement.elapsed,
                &result.measurement,
            ));
        }
    }
    println!("{}", format_table("1 cluster vs 2 clusters", &rows));
    println!(
        "Note how the synchronous scheme loses most of its speedup when the 100 ms path splits the peers,\n\
         while the asynchronous scheme barely changes — the paper's central observation."
    );
}
