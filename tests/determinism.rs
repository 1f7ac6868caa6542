//! Determinism regression test: two simulated runs with the same
//! `RunConfig::seed` must produce byte-identical `RunMeasurement`s (and
//! identical per-peer results). This guards the PeerEngine refactor and any
//! future parallel backend against nondeterminism creeping into the
//! virtual-time substrate — the property every evaluation figure rests on.

use p2pdc::{run_on, RunConfig, RuntimeExperimentResult, RuntimeKind, Scheme, WorkloadKind};

/// The membrane at `n`³ on the simulated backend.
fn run(n: usize, config: &RunConfig) -> RuntimeExperimentResult {
    let workload = WorkloadKind::Obstacle.build(n, config.peers());
    run_on(workload.as_ref(), config, RuntimeKind::Sim)
}

fn serialized_run(n: usize, config: &RunConfig) -> (String, Vec<(usize, Vec<u8>)>) {
    let result = run(n, config);
    let measurement = serde_json::to_string(&result.measurement).expect("measurement serializes");
    let results = result
        .solution
        .iter()
        .enumerate()
        .map(|(i, v)| (i, v.to_le_bytes().to_vec()))
        .collect();
    (measurement, results)
}

#[test]
fn same_seed_same_measurement_bytes() {
    // Two clusters + asynchronous scheme exercises every source of
    // randomness in the substrate: netem jitter, per-link loss draws and the
    // asynchronous termination detection.
    let config = RunConfig::two_clusters(Scheme::Asynchronous, 4);
    let (first_measurement, first_solution) = serialized_run(10, &config);
    let (second_measurement, second_solution) = serialized_run(10, &config);
    assert_eq!(
        first_measurement, second_measurement,
        "same seed must serialize to identical measurement bytes"
    );
    assert_eq!(
        first_solution, second_solution,
        "solutions must match bit-for-bit"
    );
}

#[test]
fn different_seeds_still_converge() {
    // The NICTA topologies are deterministic (no loss, no jitter), so the
    // seed may not change the trajectory — but any seed must converge.
    let mut config = RunConfig::two_clusters(Scheme::Asynchronous, 4);
    let first = run(10, &config);
    config.seed = 43;
    let second = run(10, &config);
    assert!(first.measurement.converged && second.measurement.converged);
}

#[test]
fn synchronous_runs_are_also_deterministic() {
    let config = RunConfig::single_cluster(Scheme::Synchronous, 3);
    let (first, _) = serialized_run(8, &config);
    let (second, _) = serialized_run(8, &config);
    assert_eq!(first, second);
}
