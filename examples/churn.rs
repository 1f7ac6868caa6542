//! Crash and recover a peer mid-run on the reactor backend.
//!
//! Peers on real localhost UDP sockets solve the obstacle problem
//! asynchronously; a seeded churn plan kills one peer as it completes its
//! second relaxation. The dead peer's socket closes, it stops pinging the
//! run's topology manager, is evicted after three missed ping periods, and
//! the recovery path restarts its block from the latest live checkpoint —
//! the run still converges to the fault-free residual quality.
//!
//! ```text
//! cargo run --release -p apps --example churn
//! ```

use p2pdc::{run_on, ChurnPlan, RunConfig, RuntimeKind, Scheme, WorkloadKind};

fn main() {
    let peers = 3;
    let size = 10;
    let workload = WorkloadKind::Obstacle.build(size, peers);

    // Fault-free baseline, for comparison.
    let clean = RunConfig::quick(Scheme::Asynchronous, peers);
    let baseline = run_on(workload.as_ref(), &clean, RuntimeKind::Reactor);
    println!(
        "fault-free: converged={} relaxations={:?} residual={:.3e}",
        baseline.measurement.converged,
        baseline.measurement.relaxations_per_peer,
        baseline.measurement.residual,
    );

    // Kill peer 1 as it completes its second relaxation. Wall-clock
    // relaxation counts vary with the scheduler (the middle peer may
    // converge in 60 relaxations or in 1 300), so a crash point scaled
    // from the baseline can be outrun. This one cannot: the asynchronous
    // stop needs two consecutive stable sweeps from every peer, and the
    // fatal sweep is never published, so the run cannot stop before the
    // victim crashes and is recovered.
    let crash_at = 2;
    let faulty = clean
        .clone()
        .with_churn(ChurnPlan::kill(1, crash_at).with_checkpoint_interval(1));
    println!("\ninjecting: crash of rank 1 after {crash_at} relaxations ...");
    let result = run_on(workload.as_ref(), &faulty, RuntimeKind::Reactor);
    println!(
        "with churn: converged={} crashes={} recoveries={} rollbacks={} downtime={:.1}ms",
        result.measurement.converged,
        result.measurement.crashes,
        result.measurement.recoveries,
        result.measurement.rollbacks,
        result.measurement.downtime_s * 1e3,
    );
    println!(
        "            relaxations={:?} residual={:.3e}",
        result.measurement.relaxations_per_peer, result.measurement.residual,
    );
    println!(
        "            per-peer throughput [points/s]: {:?}",
        result
            .measurement
            .points_per_sec
            .iter()
            .map(|t| *t as u64)
            .collect::<Vec<_>>(),
    );
    assert!(result.measurement.converged, "the faulty run must converge");
    assert_eq!(result.measurement.crashes, 1);
    assert_eq!(result.measurement.recoveries, 1);
    println!("\nthe asynchronous scheme absorbed the crash: same residual tolerance, one recovery");
}
