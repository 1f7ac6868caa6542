//! Obstacle problem over real localhost UDP sockets: the three schemes of
//! computation on the reactor backend at one event loop per peer, with an
//! optional loss/reorder shim so the protocol's reliability machinery
//! visibly earns its keep.
//!
//! ```text
//! cargo run --release --example udp_cluster [n] [peers] [loss]
//! ```
//!
//! Every peer is an event loop (one OS thread) owning a `UdpSocket` bound
//! to an ephemeral 127.0.0.1 port; peers discover each other through a
//! bootstrap exchange over the sockets themselves, and P2PSAP segments
//! travel as framed UDP datagrams through the kernel's loopback path.

use p2pdc::{
    run_on, BackendExtras, ObstacleInstance, ObstacleParams, ObstacleWorkload, RunConfig,
    RuntimeKind, Scheme,
};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(12);
    let peers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);
    let loss: f64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0.0);
    println!(
        "obstacle problem {n}^3, {peers} peers over localhost UDP (loss {:.0}%)\n",
        loss * 100.0
    );

    for scheme in [Scheme::Synchronous, Scheme::Asynchronous, Scheme::Hybrid] {
        let workload = ObstacleWorkload::new(ObstacleParams {
            n,
            peers,
            instance: ObstacleInstance::Membrane,
        });
        let mut config = RunConfig::quick(scheme, peers);
        config.extras = BackendExtras::Reactor {
            event_loops: config.provisioned_peers(),
            loss_probability: loss,
            reorder_probability: loss,
        };
        let result = run_on(&workload, &config, RuntimeKind::Reactor);
        println!(
            "{scheme:<13} converged={} wall={:.3}s relaxations={:?} dropped={} residual={:.2e}",
            result.measurement.converged,
            result.measurement.elapsed.as_secs_f64(),
            result.measurement.relaxations_per_peer,
            result.datagrams_dropped,
            result.measurement.residual,
        );
    }
}
