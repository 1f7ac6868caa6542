//! 256 peers with no central failure detector: the reactor backend runs the
//! decentralized control plane — SWIM gossip membership plus distributed
//! convergence detection — instead of the central plane's modelled
//! detection delay and shared detector fold. Every peer runs two cadences:
//! once per probe period it probes the member a schedule shared by all
//! peers assigns it, so every member is probed once per period (silence
//! hardens into suspicion and then a death verdict, and the verdict — a
//! rumor, not the plan's delay — grants the crashed peer's recovery), and
//! five times per probe period it pushes its rumors and convergence digest
//! rows to another — at once, too, when its own row starts to meet the stop
//! criterion. The stop decision emerges
//! the same way: every peer folds the digests carried on probes, acks and
//! pushes, and the first digest that proves global convergence terminates
//! the run.
//!
//! ```text
//! cargo run --release -p apps --example gossip_cluster [n] [peers] [fanout]
//! ```
//!
//! `64 64` is CI's smoke run (about 1–1.5 s). The 256-peer default takes
//! 30–45 s on a 2-core box, holds ≈ 2.8 GB, and storms: its one crash
//! draws tens of thousands of death verdicts, nearly all of them false.

use p2pdc::{run_on, BackendExtras, ChurnPlan, RunConfig, RuntimeKind, Scheme, WorkloadKind};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_arg: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);
    let peers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);
    let fanout: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);
    // The obstacle decomposition hands each peer at least one grid plane.
    let n = n_arg.max(peers + 1);
    let workload = WorkloadKind::Obstacle.build(n, peers);
    println!(
        "obstacle problem {n}^3, {peers} peers on the reactor backend, \
         gossip control plane (fanout {fanout})\n"
    );

    // One seeded crash early in the run: eviction and recovery must come
    // entirely from gossip death verdicts — under the gossip control plane
    // a crashed reactor rank does not grant its own recovery.
    let tolerance = if peers > 64 { 1e-3 } else { 1e-4 };
    let plan = ChurnPlan::kill(peers / 2, 3).with_checkpoint_interval(2);
    let mut config = RunConfig::single_cluster(Scheme::Asynchronous, peers)
        .with_gossip(fanout)
        .with_churn(plan)
        .with_extras(BackendExtras::Reactor {
            // 0 = one event loop per available core.
            event_loops: 0,
            loss_probability: 0.0,
            reorder_probability: 0.0,
        });
    config.tolerance = tolerance;

    p2pdc::gossip::stats::reset();
    p2pdc::runtime::report_cell::contention::reset();
    let start = std::time::Instant::now();
    let result = run_on(workload.as_ref(), &config, RuntimeKind::Reactor);
    let wall = start.elapsed().as_secs_f64();

    let m = &result.measurement;
    println!(
        "converged={} wall={wall:.2}s crashes={} recoveries={} rollbacks={}",
        m.converged, m.crashes, m.recoveries, m.rollbacks,
    );
    println!(
        "residual={:.3e} min/max relaxations={}/{}",
        m.residual,
        m.relaxations_per_peer.iter().min().copied().unwrap_or(0),
        m.relaxations_per_peer.iter().max().copied().unwrap_or(0),
    );

    let g = p2pdc::gossip::stats::snapshot();
    println!(
        "gossip traffic: probes={} pushes={} indirect={} rumors sent/received={}/{} \
         digest merges={} death verdicts={}",
        g.probes_sent,
        g.pushes_sent,
        g.indirect_probes,
        g.rumors_sent,
        g.rumors_received,
        g.row_merges,
        g.death_verdicts,
    );

    assert!(m.converged, "the gossip-only 256-peer run must converge");
    assert_eq!(m.crashes, 1, "exactly one seeded crash");
    assert_eq!(
        m.recoveries, 1,
        "the victim must recover through a gossip death verdict"
    );
    assert!(g.probes_sent > 0, "the SWIM probe cycle must have run");
    assert!(
        g.death_verdicts >= 1,
        "the crash must surface as a gossip death verdict"
    );
    // No run shares a topology manager: its lock is never taken.
    let locks = p2pdc::runtime::report_cell::contention::snapshot();
    assert_eq!(
        locks.topology_locks, 0,
        "the gossip run must generate zero topology-manager ping traffic"
    );
    println!("\n{peers} peers, one crash — no central detector anywhere in the run");
}
