//! Integration test of the paper's relaxation-count claims (Figures 5 and 6):
//! the synchronous scheme performs the same number of relaxations regardless
//! of the number of peers, while the asynchronous scheme performs more as the
//! peer count grows.

use p2pdc::{run_on, RunConfig, RuntimeExperimentResult, RuntimeKind, Scheme, WorkloadKind};

const N: usize = 12;

/// The membrane at `N`³ on the simulated backend, at the experiment
/// defaults.
fn experiment(scheme: Scheme, peers: usize, clusters: usize) -> RuntimeExperimentResult {
    let workload = WorkloadKind::Obstacle.build(N, peers);
    let config = RunConfig::clustered(scheme, peers, clusters);
    run_on(workload.as_ref(), &config, RuntimeKind::Sim)
}

fn run(scheme: Scheme, peers: usize, clusters: usize) -> p2pdc::RunMeasurement {
    experiment(scheme, peers, clusters).measurement
}

#[test]
fn synchronous_relaxation_count_is_independent_of_the_peer_count() {
    let reference = run(Scheme::Synchronous, 1, 1);
    assert!(reference.converged);
    let expected = reference.relaxations_per_peer[0];
    for peers in [2usize, 3, 4, 6] {
        let m = run(Scheme::Synchronous, peers, 1);
        assert!(m.converged, "{peers} peers did not converge");
        // Every peer performs the same count as the sequential solver (+1 for
        // the sweep that may start before the stop signal propagates).
        for (rank, &count) in m.relaxations_per_peer.iter().enumerate() {
            assert!(
                count >= expected && count <= expected + 1,
                "peer {rank}/{peers}: {count} relaxations vs sequential {expected}"
            );
        }
    }
}

#[test]
fn asynchronous_relaxation_count_grows_with_the_peer_count() {
    let few = run(Scheme::Asynchronous, 2, 1);
    let many = run(Scheme::Asynchronous, 6, 1);
    assert!(few.converged && many.converged);
    assert!(
        many.avg_relaxations() > few.avg_relaxations(),
        "average relaxations should grow with peers: {} (6 peers) vs {} (2 peers)",
        many.avg_relaxations(),
        few.avg_relaxations()
    );
    // And asynchronous always relaxes at least as much as synchronous.
    let sync = run(Scheme::Synchronous, 6, 1);
    assert!(many.avg_relaxations() >= sync.avg_relaxations());
}

#[test]
fn all_schemes_produce_valid_obstacle_solutions() {
    let problem = obstacle::ObstacleProblem::membrane(N);
    for scheme in [Scheme::Synchronous, Scheme::Asynchronous, Scheme::Hybrid] {
        let result = experiment(scheme, 4, 1);
        assert!(result.measurement.converged, "{scheme} did not converge");
        // Feasibility of the assembled solution.
        for (u, psi) in result.solution.iter().zip(problem.psi.iter()) {
            assert!(*u >= *psi - 1e-9, "{scheme} produced an infeasible point");
        }
    }
}

/// Where compute costs no modelled time (loopback) an asynchronous sweep
/// runs at its completion, on the ghosts its own turn delivered, so an
/// update is one sweep old when a neighbour reads it. PageRank on 128
/// vertices then converges asynchronously within one sweep of the
/// synchronous count, at 4 and at 16 peers (a sweep on the ghosts of the
/// turn before took 9 and 10 against 7).
#[test]
fn asynchronous_pagerank_on_loopback_needs_at_most_one_sweep_more_than_synchronous() {
    let min = |m: &p2pdc::RunMeasurement| m.relaxations_per_peer.iter().copied().min();
    for peers in [4usize, 16] {
        let workload = WorkloadKind::PageRank.build(128, peers);
        let counts = [Scheme::Synchronous, Scheme::Asynchronous].map(|scheme| {
            let config = RunConfig::single_cluster(scheme, peers);
            let m = run_on(workload.as_ref(), &config, RuntimeKind::Loopback).measurement;
            assert!(m.converged, "{scheme} at {peers} peers did not converge");
            min(&m).expect("peers ran")
        });
        let [sync, asynchronous] = counts;
        assert!(
            asynchronous <= sync + 1,
            "{peers} peers: asynchronous {asynchronous} vs synchronous {sync}"
        );
    }
}
