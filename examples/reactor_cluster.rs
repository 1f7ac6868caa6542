//! 256 peers on one machine: the reactor backend multiplexes every peer's
//! nonblocking UDP socket onto a few event loops, so a peer population two
//! orders of magnitude beyond what one OS thread per peer can carry still
//! runs as a handful of OS threads.
//!
//! The run solves the obstacle problem asynchronously and survives a seeded
//! mid-run crash: the victim is evicted through missed pings, it revives on
//! a re-slice of the planes assembled from the live checkpoints, and a
//! fresh peer joins the run right after, triggering another live
//! repartition.
//!
//! ```text
//! cargo run --release -p apps --example reactor_cluster [n] [peers]
//! ```
//!
//! The default 256-peer run moves half-megabyte ghost planes per exchange
//! and takes a minute or two on a small box; try `64 64` for a
//! seconds-long tour of the same machinery.

use p2pdc::{run_on, BackendExtras, ChurnPlan, RunConfig, RuntimeKind, Scheme, WorkloadKind};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_arg: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);
    let peers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(256);
    // The obstacle decomposition hands each peer at least one grid plane,
    // and the joiner needs a plane of its own too.
    let n = n_arg.max(peers + 1);
    let workload = WorkloadKind::Obstacle.build(n, peers);
    println!("obstacle problem {n}^3, {peers} peers multiplexed on the reactor backend\n");

    // Crash the middle peer at its first sweep, recover it through a
    // repartitioning recovery, and grow the run by one joining peer on the
    // victim's first sweep after its restore. A ghost plane is n^2 values,
    // so at n = 257 every exchange moves half a megabyte; the tolerance is
    // coarsened with the population to keep the demo's data volume in check.
    //
    // All three events fire at any tolerance, because the asynchronous stop
    // needs two consecutive stable sweeps in every rank's evidence row:
    // * the crash: the victim's first sweep comes before its second;
    // * the recovery: the crash voids the victim's row, and it stays void
    //   until the victim sweeps again after its restore;
    // * the join: it sits on the victim's clock at the crash sweep. The
    //   crash is checked first and ends that sweep, so the join stays
    //   armed. The repartitioning recovery restores the victim's counter
    //   to the oldest latest checkpoint of any rank, which is at least 0 =
    //   crash_at - 1. So the victim's first sweep after the restore reaches
    //   crash_at and fires the join, before its row can hold two stable
    //   sweeps. (A later crash sweep would not do: a rank still short of
    //   the victim's last checkpoint pulls the restored counter further
    //   back, and the stop could then come first.)
    let tolerance = if peers > 64 { 1e-3 } else { 1e-4 };
    let crash_at = 1;
    let plan = ChurnPlan::kill(peers / 2, crash_at)
        .with_checkpoint_interval(2)
        .with_repartition(true)
        .with_join(peers / 2, crash_at);
    let mut config = RunConfig::single_cluster(Scheme::Asynchronous, peers)
        .with_churn(plan)
        .with_extras(BackendExtras::Reactor {
            // 0 = one event loop per available core.
            event_loops: 0,
            loss_probability: 0.0,
            reorder_probability: 0.0,
        });
    config.tolerance = tolerance;

    let start = std::time::Instant::now();
    let result = run_on(workload.as_ref(), &config, RuntimeKind::Reactor);
    let wall = start.elapsed().as_secs_f64();

    let m = &result.measurement;
    println!(
        "converged={} wall={wall:.2}s crashes={} recoveries={} joins={} rollbacks={}",
        m.converged, m.crashes, m.recoveries, m.joins, m.rollbacks,
    );
    println!(
        "final population={} residual={:.3e} min/max relaxations={}/{}",
        m.relaxations_per_peer.len(),
        m.residual,
        m.relaxations_per_peer.iter().min().copied().unwrap_or(0),
        m.relaxations_per_peer.iter().max().copied().unwrap_or(0),
    );

    assert!(m.converged, "the churned 256-peer run must converge");
    assert_eq!(m.crashes, 1, "exactly one seeded crash");
    assert_eq!(m.recoveries, 1, "the victim must recover");
    assert!(m.joins >= 1, "the seeded join must fire");

    // How the fixed rank shards loaded the event loops over the whole run.
    if let Some(stats) = p2pdc::runtime::reactor::last_loop_stats() {
        let total: u64 = stats.busy_ns_final.iter().sum::<u64>().max(1);
        let shares: Vec<String> = stats
            .busy_ns_final
            .iter()
            .map(|&ns| format!("{:.0}%", ns as f64 * 100.0 / total as f64))
            .collect();
        println!("\nper-loop busy shares: [{}]", shares.join(" "));
    }
    println!("\n{peers} peers, one crash, one join - absorbed on a couple of event loops");
}
