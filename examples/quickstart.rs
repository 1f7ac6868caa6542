//! Quickstart: solve a small 3-D obstacle problem with P2PDC on the reactor
//! runtime (real localhost UDP sockets, one per peer, on a few event loops)
//! and compare the distributed solution with the sequential baseline.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use obstacle::{solve_sequential, sup_norm_diff, RichardsonConfig};
use p2pdc::{
    run_on, ObstacleInstance, ObstacleParams, ObstacleWorkload, RunConfig, RuntimeKind, Scheme,
};

fn main() {
    let n = 16;
    let peers = 4;
    println!("P2PDC quickstart: {n}^3 obstacle problem on {peers} peers (reactor runtime)");

    // The application side of the programming model: the workload supplies
    // the per-peer Calculate() (an ObstacleTask); the environment drives the
    // relaxation loop and the P2P_Send / P2P_Receive exchanges on whichever
    // registered backend is asked for.
    // The synchronous scheme reproduces the sequential iterates exactly, so
    // the comparison below is tight; try `Scheme::Asynchronous` to see peers
    // racing ahead at their own pace instead.
    let scheme = Scheme::Synchronous;
    let workload = ObstacleWorkload::new(ObstacleParams {
        n,
        peers,
        instance: ObstacleInstance::Membrane,
    });
    let problem = workload.problem();
    let config = RunConfig::quick(scheme, peers);
    let result = run_on(&workload, &config, RuntimeKind::Reactor);

    println!(
        "converged: {} in {:.3} s wall-clock, relaxations per peer: {:?}",
        result.measurement.converged,
        result.measurement.elapsed.as_secs_f64(),
        result.measurement.relaxations_per_peer
    );

    // Compare with the single-machine baseline.
    let reference = solve_sequential(
        &problem,
        RichardsonConfig {
            tolerance: 1e-4,
            ..Default::default()
        },
    );
    let difference = sup_norm_diff(&result.solution, &reference.u);
    println!(
        "sequential baseline: {} relaxations; max difference distributed vs sequential: {difference:.2e}",
        reference.iterations
    );
    assert!(difference < 1e-2, "distributed solution is off");
    println!("OK");
}
