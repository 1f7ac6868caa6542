//! End-to-end tests of the UDP wire layer: the obstacle application running
//! over real localhost sockets, on the reactor at one event loop per peer,
//! checked for agreement with the in-process backends. These are the tests CI's `socket-e2e` job runs with a hard
//! timeout (a hung handshake must fail fast, not stall the workflow).

use p2pdc::{
    run_on, BackendExtras, RunConfig, RuntimeExperimentResult, RuntimeKind, Scheme, WorkloadKind,
};

/// The membrane at `n`³ on `runtime`, decomposed for the config's peers.
fn run_obstacle(n: usize, config: &RunConfig, runtime: RuntimeKind) -> RuntimeExperimentResult {
    let workload = WorkloadKind::Obstacle.build(n, config.peers());
    run_on(workload.as_ref(), config, runtime)
}

/// `config` on the reactor at one event loop per provisioned peer (the
/// thread-per-peer shape of a small real-socket run), with the shim dropping
/// and reordering datagrams with probability `impairment` each.
fn one_loop_per_peer(config: &RunConfig, impairment: f64) -> RunConfig {
    config.clone().with_extras(BackendExtras::Reactor {
        event_loops: config.provisioned_peers(),
        loss_probability: impairment,
        reorder_probability: impairment,
    })
}

const TOLERANCE: f64 = RunConfig::DEFAULT_TOLERANCE;

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
    let config = RunConfig::single_cluster(Scheme::Synchronous, 4);
    let loopback = run_obstacle(10, &config, RuntimeKind::Loopback);
    let udp = run_obstacle(10, &one_loop_per_peer(&config, 0.0), RuntimeKind::Reactor);
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
    let peers = config.peers() as u64;
    assert!(
        udp.measurement.max_relaxations() < min(&udp.measurement) + peers,
        "udp overshoot beyond the topology diameter: {:?}",
        udp.measurement.relaxations_per_peer
    );
    // Both backends assemble a solution satisfying the fixed-point equation.
    assert!(loopback.measurement.residual < TOLERANCE * 2.0);
    assert!(
        udp.measurement.residual < TOLERANCE * 2.0,
        "udp residual {}",
        udp.measurement.residual
    );
}

/// At n = 16 a boundary plane is 16²·8 + 16 = 2064 bytes — above the
/// 1200-byte fragment cap — so every P2P_Send crosses the socket as
/// multiple datagrams and the run exercises reassembly end to end.
#[test]
fn multi_fragment_boundary_planes_reassemble_end_to_end() {
    let config = RunConfig::single_cluster(Scheme::Synchronous, 2);
    let loopback = run_obstacle(16, &config, RuntimeKind::Loopback);
    let udp = run_obstacle(16, &one_loop_per_peer(&config, 0.0), RuntimeKind::Reactor);
    assert!(udp.measurement.converged);
    assert!(
        (udp.measurement.max_relaxations() as i64 - loopback.measurement.max_relaxations() as i64)
            .abs()
            <= 1,
        "fragmented run diverged: udp {:?} vs loopback {:?}",
        udp.measurement.relaxations_per_peer,
        loopback.measurement.relaxations_per_peer
    );
    assert!(udp.measurement.residual < TOLERANCE * 2.0);
}

/// The asynchronous scheme across two clusters selects the unreliable
/// inter-cluster channel (Table I), which tolerates genuine datagram loss:
/// with the shim dropping 5% of traffic the run still converges to an
/// accurate solution, using the freshest updates that do arrive.
#[test]
fn asynchronous_two_cluster_run_tolerates_real_datagram_loss() {
    let config = RunConfig::quick_two_clusters(Scheme::Asynchronous, 2);
    let result = run_obstacle(10, &one_loop_per_peer(&config, 0.05), RuntimeKind::Reactor);
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
    let config = one_loop_per_peer(&RunConfig::two_clusters(Scheme::Hybrid, 4), 0.0);
    let result = run_obstacle(10, &config, RuntimeKind::Reactor);
    assert!(result.measurement.converged);
    assert_eq!(result.measurement.peers, 4);
    assert!(
        result.measurement.residual < 1e-2,
        "residual {}",
        result.measurement.residual
    );
}
