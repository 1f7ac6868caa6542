//! End-to-end tests of the workload-generic experiment layer: the heat and
//! PageRank workloads running on multiple runtime backends through the one
//! generic `run_on` path, checked for cross-runtime agreement the same way
//! `tests/udp_e2e.rs` checks the obstacle workload.

use p2pdc::{
    pagerank_reference, run_on, solve_heat_sequential, RunConfig, RunMeasurement, RuntimeKind,
    Scheme, WorkloadApp, WorkloadKind,
};
use std::sync::Arc;

/// The convergence iteration of a run: synchronous-scheme relaxation counts
/// are problem-determined, and the peer that detects convergence stops at
/// exactly that iteration, so the per-run minimum is the runtime-independent
/// invariant (wall-clock peers may overshoot by the topology diameter).
fn min_relaxations(m: &RunMeasurement) -> u64 {
    m.relaxations_per_peer.iter().copied().min().unwrap_or(0)
}

/// Fixed-seed cross-runtime agreement for the heat workload: loopback and
/// sim must agree on the synchronous convergence iteration, which must also
/// equal the sequential Jacobi sweep count.
#[test]
fn heat_loopback_and_sim_agree_on_synchronous_relaxation_counts() {
    let n = 16;
    let peers = 4;
    let workload = WorkloadKind::Heat.build(n, peers);
    let config = RunConfig::single_cluster(Scheme::Synchronous, peers);
    let loopback = run_on(workload.as_ref(), &config, RuntimeKind::Loopback);
    let sim = run_on(workload.as_ref(), &config, RuntimeKind::Sim);
    assert!(loopback.measurement.converged && sim.measurement.converged);
    assert_eq!(
        min_relaxations(&loopback.measurement),
        min_relaxations(&sim.measurement),
        "the convergence iteration differs: loopback {:?} vs sim {:?}",
        loopback.measurement.relaxations_per_peer,
        sim.measurement.relaxations_per_peer
    );
    let (_, sequential_sweeps) = solve_heat_sequential(n, config.tolerance, 1_000_000);
    assert_eq!(min_relaxations(&sim.measurement), sequential_sweeps);
    assert!(loopback.measurement.residual < config.tolerance * 2.0);
    assert!(sim.measurement.residual < config.tolerance * 2.0);
}

/// Fixed-seed cross-runtime agreement for the PageRank workload, whose
/// non-grid communication pattern (ring chords between vertex partitions)
/// exercises the engine beyond nearest-neighbour topologies.
#[test]
fn pagerank_loopback_and_sim_agree_on_synchronous_relaxation_counts() {
    let vertices = 120;
    let peers = 4;
    let workload = WorkloadKind::PageRank.build(vertices, peers);
    let mut config = RunConfig::single_cluster(Scheme::Synchronous, peers);
    config.tolerance = 1e-8;
    let loopback = run_on(workload.as_ref(), &config, RuntimeKind::Loopback);
    let sim = run_on(workload.as_ref(), &config, RuntimeKind::Sim);
    assert!(loopback.measurement.converged && sim.measurement.converged);
    assert_eq!(
        min_relaxations(&loopback.measurement),
        min_relaxations(&sim.measurement),
        "the convergence iteration differs: loopback {:?} vs sim {:?}",
        loopback.measurement.relaxations_per_peer,
        sim.measurement.relaxations_per_peer
    );
    // The sum of the assembled ranks is (close to) a probability
    // distribution, and the residual under one more power step is tiny.
    let sum: f64 = loopback.solution.iter().sum();
    assert!((sum - 1.0).abs() < 1e-6, "rank sum {sum}");
    assert!(loopback.measurement.residual < 1e-7);
}

/// The reactor backend multiplexes all peers onto a few event loops over
/// real nonblocking UDP sockets, yet must land on the same
/// problem-determined synchronous convergence iteration as the in-process
/// loopback backend — for all three workloads.
#[test]
fn reactor_agrees_with_loopback_on_synchronous_relaxation_counts() {
    for (kind, size, tolerance) in [
        (WorkloadKind::Obstacle, 10, 1e-4),
        (WorkloadKind::Heat, 16, 1e-4),
        (WorkloadKind::PageRank, 120, 1e-8),
    ] {
        let peers = 4;
        let workload = kind.build(size, peers);
        let mut config = RunConfig::single_cluster(Scheme::Synchronous, peers);
        config.tolerance = tolerance;
        let loopback = run_on(workload.as_ref(), &config, RuntimeKind::Loopback);
        let reactor = run_on(workload.as_ref(), &config, RuntimeKind::Reactor);
        assert!(
            loopback.measurement.converged && reactor.measurement.converged,
            "{kind} did not converge on both backends"
        );
        assert_eq!(
            min_relaxations(&loopback.measurement),
            min_relaxations(&reactor.measurement),
            "{kind}: the convergence iteration differs: loopback {:?} vs reactor {:?}",
            loopback.measurement.relaxations_per_peer,
            reactor.measurement.relaxations_per_peer
        );
        // Wall-clock peers may overshoot the convergence iteration, but only
        // by up to the topology diameter before the stop broadcast lands.
        assert!(
            reactor.measurement.max_relaxations()
                < min_relaxations(&reactor.measurement) + peers as u64,
            "{kind}: reactor overshoot beyond the topology diameter: {:?}",
            reactor.measurement.relaxations_per_peer
        );
        assert!(
            reactor.measurement.residual < tolerance * 2.0,
            "{kind}: reactor residual {}",
            reactor.measurement.residual
        );
    }
}

/// The full grid — every workload on every backend under both schemes — at
/// sizes bounded by the asynchronous × reactor cells (a free-running peer
/// relaxes hundreds of times per real-socket round trip). Every cell
/// converges under its residual cap, and the synchronous convergence
/// iteration is one number per workload on all three backends.
#[test]
fn every_workload_converges_on_every_backend_and_synchronous_counts_agree() {
    let peers = 2;
    for kind in WorkloadKind::ALL {
        let (size, tolerance) = match kind {
            WorkloadKind::Obstacle => (8, 1e-3),
            WorkloadKind::Heat => (12, 1e-3),
            WorkloadKind::PageRank => (60, 1e-6),
        };
        let workload = kind.build(size, peers);
        let mut sync_counts = Vec::new();
        for runtime in RuntimeKind::ALL {
            for scheme in [Scheme::Synchronous, Scheme::Asynchronous] {
                let mut config = RunConfig::single_cluster(scheme, peers);
                config.tolerance = tolerance;
                let m = run_on(workload.as_ref(), &config, runtime).measurement;
                let cell = format!("{kind}/{runtime}/{scheme}");
                assert!(m.converged, "{cell} did not converge");
                // Synchronous termination leaves a residual on the order of
                // the tolerance; asynchronous termination accepts boundary
                // staleness, so its cap is looser.
                let cap = match scheme {
                    Scheme::Synchronous => tolerance * 10.0,
                    _ => 5e-2,
                };
                assert!(m.residual < cap, "{cell}: residual {}", m.residual);
                if scheme == Scheme::Synchronous {
                    sync_counts.push((runtime, min_relaxations(&m)));
                }
            }
        }
        assert!(
            sync_counts.windows(2).all(|pair| pair[0].1 == pair[1].1),
            "{kind}: the synchronous convergence iteration differs: {sync_counts:?}"
        );
    }
}

/// Same-seed loopback runs of the new workloads are bit-for-bit
/// reproducible, like the obstacle runs in `tests/determinism.rs`.
#[test]
fn new_workloads_are_deterministic_on_loopback() {
    for (kind, size, tolerance) in [
        (WorkloadKind::Heat, 12, 1e-4),
        (WorkloadKind::PageRank, 60, 1e-8),
    ] {
        let workload = kind.build(size, 3);
        let mut config = RunConfig::single_cluster(Scheme::Asynchronous, 3);
        config.tolerance = tolerance;
        let a = run_on(workload.as_ref(), &config, RuntimeKind::Loopback);
        let b = run_on(workload.as_ref(), &config, RuntimeKind::Loopback);
        assert_eq!(
            a.measurement.relaxations_per_peer, b.measurement.relaxations_per_peer,
            "{kind}: loopback runs must be deterministic"
        );
        assert_eq!(a.solution, b.solution);
    }
}

/// The asynchronous scheme converges for both new workloads and stays close
/// to the synchronous fixed point (freshest-update iteration, same limit).
#[test]
fn asynchronous_runs_of_new_workloads_converge() {
    for (kind, size, tolerance, residual_cap) in [
        (WorkloadKind::Heat, 14, 1e-4, 1e-2),
        (WorkloadKind::PageRank, 90, 1e-8, 1e-6),
    ] {
        let workload = kind.build(size, 3);
        let mut config = RunConfig::single_cluster(Scheme::Asynchronous, 3);
        config.tolerance = tolerance;
        let result = run_on(workload.as_ref(), &config, RuntimeKind::Loopback);
        assert!(result.measurement.converged, "{kind} did not converge");
        assert!(
            result.measurement.residual < residual_cap,
            "{kind}: residual {}",
            result.measurement.residual
        );
    }
}

/// All three applications register in the task-manager registry and drive a
/// job through `Problem_Definition()` → `Calculate()` →
/// `Results_Aggregation()`.
#[test]
fn all_three_applications_register_and_aggregate() {
    let mut tm = p2pdc::TaskManager::new();
    for (kind, size, scheme) in [
        (WorkloadKind::Obstacle, 6, Scheme::Synchronous),
        (WorkloadKind::Heat, 8, Scheme::Synchronous),
        (WorkloadKind::PageRank, 24, Scheme::Asynchronous),
    ] {
        let build = move |peers| kind.build(size, peers);
        tm.register_application(Arc::new(WorkloadApp::new(build, 2, scheme)));
    }
    assert_eq!(
        tm.application_names(),
        vec![
            "heat".to_string(),
            "obstacle".to_string(),
            "pagerank".to_string()
        ]
    );
    // Drive each application's sub-tasks by hand for a couple of sweeps and
    // aggregate: the registry path works for every workload, not just the
    // obstacle problem.
    for name in ["heat", "pagerank"] {
        let app = tm.application(name).unwrap();
        let def = app.problem_definition(&serde_json::json!({})).unwrap();
        let results: Vec<(usize, Vec<u8>)> = (0..def.peers_needed)
            .map(|rank| {
                let mut task = app.calculate(&def, rank);
                task.relax();
                (rank, task.result())
            })
            .collect();
        let output = app.results_aggregation(&results);
        let expected = match name {
            "heat" => 8usize * 8 * 8,
            _ => 24 * 8,
        };
        assert_eq!(output.len(), expected, "{name}: aggregated solution bytes");
    }
}

/// The PageRank distributed fixed point matches the sequential reference
/// ranks (through the generic path, not just the hand-driven task test).
#[test]
fn pagerank_distributed_fixed_point_matches_reference() {
    let vertices = 60;
    let peers = 3;
    let workload = WorkloadKind::PageRank.build(vertices, peers);
    let mut config = RunConfig::single_cluster(Scheme::Synchronous, peers);
    config.tolerance = 1e-10;
    let result = run_on(workload.as_ref(), &config, RuntimeKind::Loopback);
    assert!(result.measurement.converged);
    let graph = p2pdc::PageRankGraph::ring_with_chords(vertices);
    let (reference, _) = pagerank_reference(&graph, 1e-10, 100_000);
    let err = result
        .solution
        .iter()
        .zip(&reference)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    assert!(err < 1e-8, "distributed ranks deviate by {err}");
}
