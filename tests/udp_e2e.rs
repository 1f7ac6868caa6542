//! End-to-end tests of the UDP runtime: the obstacle application running
//! over real localhost sockets, checked for agreement with the in-process
//! backends. These are the tests CI's `socket-e2e` job runs with a hard
//! timeout (a hung handshake must fail fast, not stall the workflow).

use p2pdc::{
    run_obstacle_on, run_on, BackendExtras, ObstacleExperiment, ObstacleInstance, ObstacleParams,
    ObstacleWorkload, RunConfig, RuntimeKind, Scheme,
};

/// Fixed-seed cross-runtime agreement: the synchronous scheme converges at
/// a problem-determined iteration, so the loopback and UDP backends must
/// agree on it. The peer that *detects* convergence stops at exactly that
/// iteration, making the per-run **minimum** relaxation count the
/// runtime-independent invariant. Individual wall-clock peers may overshoot
/// it: a peer only waits on its direct neighbours, so before the stop
/// broadcast lands it can run ahead of the slowest peer by up to the
/// topology diameter (observed +2 on a loaded 4-peer line).
#[test]
fn udp_and_loopback_agree_on_synchronous_relaxation_counts() {
    let exp = ObstacleExperiment::new(10, Scheme::Synchronous, 4, 1);
    let loopback = run_obstacle_on(&exp, RuntimeKind::Loopback);
    let udp = run_obstacle_on(&exp, RuntimeKind::Udp);
    assert!(loopback.measurement.converged && udp.measurement.converged);
    let min = |m: &p2pdc::RunMeasurement| m.relaxations_per_peer.iter().copied().min().unwrap_or(0);
    assert_eq!(
        min(&loopback.measurement),
        min(&udp.measurement),
        "the convergence iteration differs: loopback {:?} vs udp {:?}",
        loopback.measurement.relaxations_per_peer,
        udp.measurement.relaxations_per_peer
    );
    // Overshoot past the convergence iteration is bounded by the diameter.
    let peers = exp.peers as u64;
    assert!(
        udp.measurement.max_relaxations() < min(&udp.measurement) + peers,
        "udp overshoot beyond the topology diameter: {:?}",
        udp.measurement.relaxations_per_peer
    );
    // Both backends assemble a solution satisfying the fixed-point equation.
    assert!(loopback.measurement.residual < exp.tolerance * 2.0);
    assert!(
        udp.measurement.residual < exp.tolerance * 2.0,
        "udp residual {}",
        udp.measurement.residual
    );
}

/// At n = 16 a boundary plane is 16²·8 + 16 = 2064 bytes — above the
/// 1200-byte fragment cap — so every P2P_Send crosses the socket as
/// multiple datagrams and the run exercises reassembly end to end.
#[test]
fn multi_fragment_boundary_planes_reassemble_end_to_end() {
    let exp = ObstacleExperiment::new(16, Scheme::Synchronous, 2, 1);
    let loopback = run_obstacle_on(&exp, RuntimeKind::Loopback);
    let udp = run_obstacle_on(&exp, RuntimeKind::Udp);
    assert!(udp.measurement.converged);
    assert!(
        (udp.measurement.max_relaxations() as i64 - loopback.measurement.max_relaxations() as i64)
            .abs()
            <= 1,
        "fragmented run diverged: udp {:?} vs loopback {:?}",
        udp.measurement.relaxations_per_peer,
        loopback.measurement.relaxations_per_peer
    );
    assert!(udp.measurement.residual < exp.tolerance * 2.0);
}

/// The asynchronous scheme across two clusters selects the unreliable
/// inter-cluster channel (Table I), which tolerates genuine datagram loss:
/// with the shim dropping 5% of traffic the run still converges to an
/// accurate solution, using the freshest updates that do arrive.
#[test]
fn asynchronous_two_cluster_run_tolerates_real_datagram_loss() {
    let n = 10usize;
    let peers = 2usize;
    let workload = ObstacleWorkload::new(ObstacleParams {
        n,
        peers,
        scheme: Scheme::Asynchronous,
        instance: ObstacleInstance::Membrane,
    });
    let config = RunConfig::quick_two_clusters(Scheme::Asynchronous, peers).with_extras(
        BackendExtras::Udp {
            loss_probability: 0.05,
            reorder_probability: 0.05,
        },
    );
    let result = run_on(&workload, &config, RuntimeKind::Udp);
    assert!(result.measurement.converged, "lossy run did not converge");
    assert!(
        result.datagrams_dropped > 0,
        "the loss shim never fired — the scenario is not exercising loss"
    );
    assert!(
        result.measurement.residual < 1e-2,
        "residual {} beyond the asynchronous staleness bound",
        result.measurement.residual
    );
}

/// The hybrid scheme over UDP: intra-cluster neighbours stay reliable and
/// waited-for, the cross-cluster link runs asynchronously — on real sockets.
#[test]
fn hybrid_scheme_converges_over_udp_across_two_clusters() {
    let exp = ObstacleExperiment::new(10, Scheme::Hybrid, 4, 2);
    let result = run_obstacle_on(&exp, RuntimeKind::Udp);
    assert!(result.measurement.converged);
    assert_eq!(result.measurement.peers, 4);
    assert!(
        result.measurement.residual < 1e-2,
        "residual {}",
        result.measurement.residual
    );
}
