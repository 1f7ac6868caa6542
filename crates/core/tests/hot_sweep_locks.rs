//! The per-sweep control plane takes no lock on a sweep that has nothing to
//! decide. One test, in a binary of its own: the contention counters are
//! process-global, so the run below must be the only one in its process.

use p2pdc::runtime::report_cell::contention;
use p2pdc::{run_on, ChurnPlan, RunConfig, RuntimeKind, Scheme, WorkloadKind};

/// 64 synchronous loopback peers under a tolerance no difference can reach
/// (every report is dirty, so every one goes through its report cell), with
/// a churn plan whose only event and whose checkpoint cadence both sit far
/// beyond the relaxation budget (the volatility gates run every sweep and
/// are never due). Start and stop bookkeeping may lock; the per-sweep report
/// path and the per-sweep volatility gates may not.
#[test]
fn the_hot_sweep_acquires_no_control_plane_lock() {
    let peers = 64;
    let budget = 50;
    let workload = WorkloadKind::PageRank.build(peers * 4, peers);
    let mut config = RunConfig::single_cluster(Scheme::Synchronous, peers)
        .with_churn(ChurnPlan::kill(0, budget * 1000).with_checkpoint_interval(budget * 1000));
    config.tolerance = -1.0;
    config.max_relaxations = budget;
    contention::reset();
    let result = run_on(workload.as_ref(), &config, RuntimeKind::Loopback);
    let locks = contention::snapshot();
    assert!(
        result.measurement.total_relaxations() >= budget,
        "the run must have swept"
    );
    assert_eq!(locks.detector_report_locks, 0, "report path: {locks:?}");
    assert_eq!(
        locks.volatility_sweep_locks, 0,
        "volatility gates: {locks:?}"
    );
}
