//! Integration test of the efficiency shapes reported in Figures 5 and 6:
//! synchronous efficiency collapses across the 100 ms inter-cluster path and
//! with many peers; asynchronous efficiency is barely affected by the second
//! cluster; hybrid sits in between.

use p2pdc::{run_obstacle_experiment, ComputeModel, ObstacleExperiment, ObstacleInstance, Scheme};

const N: usize = 16;

fn experiment(scheme: Scheme, peers: usize, clusters: usize) -> ObstacleExperiment {
    ObstacleExperiment {
        n: N,
        instance: ObstacleInstance::Membrane,
        scheme,
        peers,
        clusters,
        tolerance: 1e-4,
        // Granularity-preserving scaling: each sweep costs what a 96-grid
        // sweep would, so the communication/computation ratio matches the
        // paper's experiments (`FigureConfig::compute_model` in
        // `crates/bench` has the reasoning).
        compute: ComputeModel::calibrated(50.0 * (96.0f64 / N as f64).powi(3)),
        seed: 42,
    }
}

fn elapsed(scheme: Scheme, peers: usize, clusters: usize) -> f64 {
    let m = run_obstacle_experiment(&experiment(scheme, peers, clusters)).measurement;
    assert!(
        m.converged,
        "{scheme} / {peers} peers / {clusters} clusters did not converge"
    );
    m.elapsed.as_secs_f64()
}

#[test]
fn synchronous_suffers_across_clusters_asynchronous_does_not() {
    let peers = 8;
    let sync_1 = elapsed(Scheme::Synchronous, peers, 1);
    let sync_2 = elapsed(Scheme::Synchronous, peers, 2);
    let async_1 = elapsed(Scheme::Asynchronous, peers, 1);
    let async_2 = elapsed(Scheme::Asynchronous, peers, 2);

    // Synchronous: the 100 ms path slows the run down substantially.
    assert!(
        sync_2 > 1.5 * sync_1,
        "synchronous across clusters ({sync_2:.2}s) should be much slower than in one cluster ({sync_1:.2}s)"
    );
    // Asynchronous: the second cluster costs far less than it costs the
    // synchronous scheme. (At this reduced test scale the asynchronous
    // termination detection pays a roughly constant extra WAN round-trip,
    // so a factor-2 margin is used; at the harness scale — `repro fig5` —
    // the one- and two-cluster asynchronous times are nearly identical, as
    // in the paper.)
    assert!(
        async_2 < 2.0 * async_1,
        "asynchronous should change far less across clusters ({async_1:.2}s -> {async_2:.2}s)"
    );
    // And asynchronous beats synchronous on the two-cluster topology by a wide
    // margin.
    assert!(async_2 < sync_2 / 3.0);
}

#[test]
fn speedup_ordering_matches_the_paper_on_two_clusters() {
    let peers = 8;
    let reference = elapsed(Scheme::Synchronous, 1, 1);
    let speedup = |t: f64| reference / t;

    let sync = speedup(elapsed(Scheme::Synchronous, peers, 2));
    let hybrid = speedup(elapsed(Scheme::Hybrid, peers, 2));
    let asynchronous = speedup(elapsed(Scheme::Asynchronous, peers, 2));

    // Both adaptive schemes dominate the synchronous scheme across the WAN,
    // and the asynchronous scheme stays in the same league as hybrid (at the
    // harness scale it wins outright; at this reduced scale its termination
    // detection pays an extra WAN round trip).
    assert!(
        hybrid > 2.0 * sync,
        "hybrid speedup {hybrid:.2} should dominate synchronous {sync:.2} across the WAN"
    );
    assert!(
        asynchronous > 2.0 * sync,
        "asynchronous speedup {asynchronous:.2} should dominate synchronous {sync:.2} across the WAN"
    );
    assert!(
        asynchronous > 0.5 * hybrid,
        "asynchronous speedup {asynchronous:.2} should be comparable to hybrid {hybrid:.2}"
    );
    // The asynchronous scheme achieves a real speedup.
    assert!(
        asynchronous > 1.5,
        "asynchronous speedup {asynchronous:.2} too small"
    );
}

#[test]
fn synchronous_efficiency_decreases_with_peer_count() {
    let reference = elapsed(Scheme::Synchronous, 1, 1);
    let eff = |peers: usize| reference / elapsed(Scheme::Synchronous, peers, 1) / peers as f64;
    let e2 = eff(2);
    let e8 = eff(8);
    assert!(
        e8 < e2,
        "synchronous efficiency should degrade with the peer count ({e2:.2} -> {e8:.2})"
    );
}
