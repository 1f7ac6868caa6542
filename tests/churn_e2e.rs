//! End-to-end tests of the peer-volatility subsystem: seeded crashes
//! injected into live runs on every backend, with checkpoint recovery,
//! scheme-correct semantics (asynchronous runs absorb the stale restart,
//! synchronous runs roll back) and cross-runtime agreement on the recovery
//! counts.

use p2pdc::{run_on, BackendExtras, ChurnPlan, RunConfig, RuntimeKind, Scheme, WorkloadKind};

/// The crash point of the e2e scenarios: ~30% of the fault-free synchronous
/// convergence iteration of the obstacle workload at this size (measured
/// from a baseline run inside each test, so the tests do not hard-code
/// solver iteration counts).
fn crash_at_fraction(baseline_iterations: u64, fraction: f64) -> u64 {
    ((baseline_iterations as f64 * fraction) as u64).max(2)
}

fn obstacle_config(scheme: Scheme, peers: usize) -> RunConfig {
    RunConfig::quick(scheme, peers)
}

/// `config` on the reactor at one event loop per provisioned peer, join
/// slots included: the thread-per-peer shape of a small real-socket run.
fn one_loop_per_peer(config: &RunConfig) -> RunConfig {
    config.clone().with_extras(BackendExtras::Reactor {
        event_loops: config.provisioned_peers(),
        loss_probability: 0.0,
        reorder_probability: 0.0,
    })
}

/// The same seeded crash produces identical recovery counts on the two
/// deterministic backends, and both faulty runs still converge to the same
/// residual quality as the fault-free baseline.
#[test]
fn loopback_and_sim_agree_on_recovery_counts_for_the_same_seeded_crash() {
    let peers = 4;
    let workload = WorkloadKind::Obstacle.build(10, peers);
    let clean = obstacle_config(Scheme::Asynchronous, peers);
    let baseline = run_on(workload.as_ref(), &clean, RuntimeKind::Loopback);
    assert!(baseline.measurement.converged);
    let crash_at = crash_at_fraction(
        baseline
            .measurement
            .relaxations_per_peer
            .iter()
            .min()
            .copied()
            .unwrap(),
        0.3,
    );

    let mut faulty = clean.clone();
    faulty.churn =
        Some(ChurnPlan::kill(1, crash_at).with_checkpoint_interval((crash_at / 2).max(1)));
    let loopback = run_on(workload.as_ref(), &faulty, RuntimeKind::Loopback);
    let sim = run_on(workload.as_ref(), &faulty, RuntimeKind::Sim);
    for (label, result) in [("loopback", &loopback), ("sim", &sim)] {
        assert!(result.measurement.converged, "{label} did not converge");
        assert_eq!(result.measurement.crashes, 1, "{label} crash count");
        assert!(
            result.measurement.residual < clean.tolerance * 10.0,
            "{label}: residual {} exceeds the async staleness bound",
            result.measurement.residual
        );
        assert!(result.measurement.downtime_s > 0.0, "{label} downtime");
    }
    assert_eq!(
        loopback.measurement.recoveries, sim.measurement.recoveries,
        "the deterministic backends disagree on recovery counts"
    );
    assert_eq!(loopback.measurement.rollbacks, sim.measurement.rollbacks);
}

/// An asynchronous obstacle run with one peer killed at ~30% progress meets
/// the same residual tolerance as the fault-free run, on every backend —
/// the paper's headline fault-tolerance claim.
#[test]
fn async_obstacle_run_survives_a_mid_run_crash_on_every_backend() {
    let peers = 3;
    let workload = WorkloadKind::Obstacle.build(10, peers);
    let clean = obstacle_config(Scheme::Asynchronous, peers);
    let baseline = run_on(workload.as_ref(), &clean, RuntimeKind::Loopback);
    assert!(baseline.measurement.converged);
    let crash_at = crash_at_fraction(
        baseline
            .measurement
            .relaxations_per_peer
            .iter()
            .min()
            .copied()
            .unwrap(),
        0.3,
    );
    let mut faulty = clean.clone();
    faulty.churn =
        Some(ChurnPlan::kill(1, crash_at).with_checkpoint_interval((crash_at / 2).max(1)));
    for runtime in RuntimeKind::ALL {
        let result = run_on(workload.as_ref(), &faulty, runtime);
        assert!(result.measurement.converged, "{runtime} did not converge");
        assert_eq!(result.measurement.crashes, 1, "{runtime} crash count");
        assert_eq!(result.measurement.recoveries, 1, "{runtime} recoveries");
        assert_eq!(
            result.measurement.rollbacks, 0,
            "{runtime}: asynchronous runs absorb the restart without rollback"
        );
        assert!(
            result.measurement.residual < clean.tolerance * 10.0,
            "{runtime}: residual {} exceeds the fault-free quality bound",
            result.measurement.residual
        );
    }
}

/// A synchronous run cannot absorb a stale restart: the recovery provably
/// rolls every peer back to a common checkpointed iteration (rollback count
/// and redone work are both visible) and the run still converges to the
/// synchronous-quality residual.
#[test]
fn sync_obstacle_run_recovers_via_rollback() {
    // Three peers, victim at one end: the middle peer has an intact
    // synchronous edge to the far peer, so the rollback must realign the
    // FIFO on an edge the crash never touched (stale queued updates there
    // would silently shift every later boundary by one iteration).
    let peers = 3;
    let workload = WorkloadKind::Obstacle.build(9, peers);
    let clean = obstacle_config(Scheme::Synchronous, peers);
    let baseline = run_on(workload.as_ref(), &clean, RuntimeKind::Loopback);
    assert!(baseline.measurement.converged);
    let baseline_iters = baseline
        .measurement
        .relaxations_per_peer
        .iter()
        .min()
        .copied()
        .unwrap();
    let crash_at = crash_at_fraction(baseline_iters, 0.5);
    let checkpoint_interval = (crash_at / 2).max(1);
    let mut faulty = clean.clone();
    faulty.churn = Some(ChurnPlan::kill(0, crash_at).with_checkpoint_interval(checkpoint_interval));
    for runtime in [RuntimeKind::Loopback, RuntimeKind::Sim] {
        let baseline = run_on(workload.as_ref(), &clean, runtime);
        let result = run_on(workload.as_ref(), &faulty, runtime);
        assert!(result.measurement.converged, "{runtime} did not converge");
        assert_eq!(result.measurement.recoveries, 1, "{runtime} recoveries");
        assert_eq!(
            result.measurement.rollbacks, 1,
            "{runtime}: synchronous recovery must roll back"
        );
        assert!(
            result.measurement.residual < clean.tolerance * 2.0,
            "{runtime}: rollback must preserve synchronous quality, residual {}",
            result.measurement.residual
        );
        // The rollback redid work. The iteration *counters* cannot show it —
        // since the generation-tagged payloads made rollbacks exact, the
        // realigned run re-converges at precisely the decomposition-invariant
        // iteration, and the restore rewinds the counters over the redone
        // stretch — but the executed-points account counts every sweep that
        // actually ran, including the rolled-back ones.
        assert!(
            result.measurement.total_points_relaxed() > baseline.measurement.total_points_relaxed(),
            "{runtime}: {} executed points vs fault-free {}",
            result.measurement.total_points_relaxed(),
            baseline.measurement.total_points_relaxed()
        );
    }
}

/// A hybrid run across two clusters absorbs a crash like an asynchronous
/// one: the recovery restores the victim without any rollback, the victim's
/// re-reported iterations must not fake iteration completeness (they are
/// first-report-only counted), and the run converges.
#[test]
fn hybrid_two_cluster_run_absorbs_a_crash_without_rollback() {
    let peers = 4;
    let workload = WorkloadKind::Obstacle.build(10, peers);
    let clean = RunConfig::quick_two_clusters(Scheme::Hybrid, peers);
    let baseline = run_on(workload.as_ref(), &clean, RuntimeKind::Loopback);
    assert!(baseline.measurement.converged);
    let crash_at = crash_at_fraction(
        baseline
            .measurement
            .relaxations_per_peer
            .iter()
            .min()
            .copied()
            .unwrap(),
        0.4,
    );
    let mut faulty = clean.clone();
    faulty.churn =
        Some(ChurnPlan::kill(2, crash_at).with_checkpoint_interval((crash_at / 2).max(1)));
    // The reactor is the wall-clock case: an update lost with the dead
    // peer's socket must come back through the reliable channel's real-time
    // retransmission, or the victim's intra-cluster edge would deadlock.
    for runtime in RuntimeKind::ALL {
        let clean_result = run_on(workload.as_ref(), &clean, runtime);
        let result = run_on(workload.as_ref(), &faulty, runtime);
        assert!(result.measurement.converged, "{runtime} did not converge");
        assert_eq!(result.measurement.recoveries, 1, "{runtime} recoveries");
        assert_eq!(
            result.measurement.rollbacks, 0,
            "{runtime}: hybrid runs absorb the restart without rollback"
        );
        let bound = (clean_result.measurement.residual * 10.0).max(clean.tolerance * 10.0);
        assert!(
            result.measurement.residual < bound,
            "{runtime}: residual {} vs fault-free {}",
            result.measurement.residual,
            clean_result.measurement.residual
        );
    }
}

/// A crash may not end a hybrid run early, and the central plane stops
/// where the gossip plane does (the fault-free twin of this cell stops at
/// ≈ 20× tol on both planes, so there is no absolute residual bound).
#[test]
fn a_crash_does_not_end_a_hybrid_run_early() {
    let workload = WorkloadKind::Obstacle.build(8, 4);
    let mut clean = RunConfig::two_clusters(Scheme::Hybrid, 4);
    clean.seed = 11;
    let crashed = clean
        .clone()
        .with_churn(ChurnPlan::kill(1, 12).with_checkpoint_interval(5));
    let gossip = crashed.clone().with_gossip(2);
    let [clean, m, gossip] = [clean, crashed, gossip]
        .map(|c| run_on(workload.as_ref(), &c, RuntimeKind::Sim).measurement);
    assert!(m.converged && m.crashes == 1, "{m:?}");
    assert!(
        m.min_relaxations() >= clean.min_relaxations(),
        "{m:?} vs {clean:?}"
    );
    assert!(m.residual <= 2.0 * gossip.residual, "{m:?} vs {gossip:?}");
}

/// The same crash/rollback protocol over real UDP sockets: the victim's
/// socket genuinely dies, the bootstrap republishes its replacement port,
/// and the synchronous run converges through the rollback.
#[test]
fn sync_crash_over_real_udp_sockets_recovers_via_rollback() {
    let peers = 2;
    let workload = WorkloadKind::Obstacle.build(8, peers);
    let clean = obstacle_config(Scheme::Synchronous, peers);
    let baseline = run_on(workload.as_ref(), &clean, RuntimeKind::Loopback);
    let crash_at = crash_at_fraction(
        baseline
            .measurement
            .relaxations_per_peer
            .iter()
            .min()
            .copied()
            .unwrap(),
        0.5,
    );
    let mut faulty = clean.clone();
    faulty.churn =
        Some(ChurnPlan::kill(1, crash_at).with_checkpoint_interval((crash_at / 2).max(1)));
    let result = run_on(
        workload.as_ref(),
        &one_loop_per_peer(&faulty),
        RuntimeKind::Reactor,
    );
    assert!(
        result.measurement.converged,
        "socket churn run did not converge"
    );
    assert_eq!(result.measurement.crashes, 1);
    assert_eq!(result.measurement.recoveries, 1);
    assert_eq!(result.measurement.rollbacks, 1);
    assert!(result.measurement.residual < clean.tolerance * 2.0);
    // Real downtime: the victim waited out the plan's detection delay.
    assert!(
        result.measurement.downtime_s >= 0.02,
        "downtime {}s is shorter than the missed-ping detection window",
        result.measurement.downtime_s
    );
}

/// A synchronous two-peer crash on the reactor with the plan's detection
/// delay `delay_ns`, on the central control plane or with `with_gossip(2)`:
/// the crash must converge with one crash and one recovery. Returns the
/// downtime in seconds.
fn reactor_crash_downtime(delay_ns: u64, gossip: bool) -> f64 {
    let peers = 2;
    let workload = WorkloadKind::Obstacle.build(8, peers);
    let clean = obstacle_config(Scheme::Synchronous, peers);
    let baseline = run_on(workload.as_ref(), &clean, RuntimeKind::Loopback);
    let iterations = *baseline
        .measurement
        .relaxations_per_peer
        .iter()
        .min()
        .unwrap();
    let crash_at = crash_at_fraction(iterations, 0.5);
    let mut faulty = clean.with_churn(
        ChurnPlan::kill(1, crash_at)
            .with_checkpoint_interval((crash_at / 2).max(1))
            .with_detection_delay_ns(delay_ns),
    );
    if gossip {
        faulty = faulty.with_gossip(2);
    }
    let m = run_on(workload.as_ref(), &faulty, RuntimeKind::Reactor).measurement;
    let label = if gossip { "gossip" } else { "central" };
    assert!(m.converged, "{label}: {m:?}");
    assert_eq!((m.crashes, m.recoveries), (1, 1), "{label}");
    m.downtime_s
}

/// On the central control plane a crashed reactor rank grants its own
/// recovery and waits out the plan's detection delay, as loopback and sim
/// do on their clocks.
#[test]
fn a_central_plane_reactor_crash_waits_out_the_plans_detection_delay() {
    let downtime = reactor_crash_downtime(80_000_000, false);
    assert!(
        downtime >= 0.08,
        "downtime {downtime}s is under the 80 ms delay"
    );
}

/// Under gossip the reactor's recovery is granted by SWIM's death verdict,
/// not by the plan's delay: a 10 s delay does not hold the victim down.
#[test]
fn a_gossip_plane_reactor_crash_recovers_at_the_death_verdict() {
    let downtime = reactor_crash_downtime(10_000_000_000, true);
    assert!(
        downtime < 1.0,
        "downtime {downtime}s: the plan's delay was waited out"
    );
}

/// The heat and PageRank workloads survive the same mid-run crash through
/// their checkpoint/restore hooks (asynchronous scheme, deterministic
/// backends).
#[test]
fn heat_and_pagerank_survive_crashes_through_their_restore_hooks() {
    for (kind, size, tolerance) in [
        (WorkloadKind::Heat, 12, 1e-3),
        (WorkloadKind::PageRank, 48, 1e-8),
    ] {
        let peers = 3;
        let workload = kind.build(size, peers);
        let mut clean = obstacle_config(Scheme::Asynchronous, peers);
        clean.tolerance = tolerance;
        let baseline = run_on(workload.as_ref(), &clean, RuntimeKind::Loopback);
        assert!(baseline.measurement.converged, "{kind} baseline");
        let crash_at = crash_at_fraction(
            baseline
                .measurement
                .relaxations_per_peer
                .iter()
                .min()
                .copied()
                .unwrap(),
            0.3,
        );
        let mut faulty = clean.clone();
        faulty.churn =
            Some(ChurnPlan::kill(2, crash_at).with_checkpoint_interval((crash_at / 2).max(1)));
        for runtime in [RuntimeKind::Loopback, RuntimeKind::Sim] {
            // "Same residual tolerance as fault-free": the bound is the
            // fault-free asynchronous run on the *same* backend (whose own
            // staleness floor depends on the backend's latency model).
            let clean_result = run_on(workload.as_ref(), &clean, runtime);
            let bound = (clean_result.measurement.residual * 10.0).max(tolerance * 10.0);
            let result = run_on(workload.as_ref(), &faulty, runtime);
            assert!(result.measurement.converged, "{kind}/{runtime}");
            assert_eq!(result.measurement.recoveries, 1, "{kind}/{runtime}");
            assert!(
                result.measurement.residual < bound,
                "{kind}/{runtime}: residual {} vs fault-free {}",
                result.measurement.residual,
                clean_result.measurement.residual
            );
        }
    }
}

/// The acceptance scenario of the elastic-membership subsystem: a seeded
/// plan with one crash *and* one join, with live repartitioning armed,
/// converges on every backend; the measurement reports the join and at
/// least one applied re-slice (the recovery's and/or the join's).
#[test]
fn seeded_crash_plus_join_converges_with_repartition_on_every_backend() {
    for scheme in [Scheme::Asynchronous, Scheme::Synchronous] {
        let peers = 3;
        let workload = WorkloadKind::Obstacle.build(10, peers);
        let mut clean = obstacle_config(scheme, peers);
        clean.tolerance = 1e-4;
        let baseline = run_on(workload.as_ref(), &clean, RuntimeKind::Loopback);
        assert!(baseline.measurement.converged);
        let baseline_iters = baseline
            .measurement
            .relaxations_per_peer
            .iter()
            .min()
            .copied()
            .unwrap();
        let crash_at = crash_at_fraction(baseline_iters, 0.3);
        let join_at = crash_at_fraction(baseline_iters, 0.6);
        let mut faulty = clean.clone();
        faulty.churn = Some(
            ChurnPlan::kill(1, crash_at)
                .with_checkpoint_interval((crash_at / 2).max(1))
                .with_repartition(true)
                .with_join(0, join_at)
                // Match the modelled detector to the sim's virtual timescale:
                // a whole run is a few ms of virtual time, so the wall-clock
                // default (30 ms) would let asynchronous survivors free-run
                // thousands of sweeps against the dead rank's frozen boundary
                // — the staleness regime the wall-clock backends genuinely
                // exhibit (see the residual bound below), not what the
                // deterministic backends are meant to measure.
                .with_detection_delay_ns(1_000_000),
        );
        for runtime in RuntimeKind::ALL {
            let result = run_on(workload.as_ref(), &faulty, runtime);
            let m = &result.measurement;
            assert!(m.converged, "{scheme:?}/{runtime} did not converge");
            assert_eq!(m.crashes, 1, "{scheme:?}/{runtime} crashes");
            assert_eq!(m.recoveries, 1, "{scheme:?}/{runtime} recoveries");
            assert_eq!(m.joins, 1, "{scheme:?}/{runtime} joins");
            assert!(
                m.repartitions >= 1,
                "{scheme:?}/{runtime}: {} repartitions",
                m.repartitions
            );
            assert!(m.moved_points > 0, "{scheme:?}/{runtime} moved points");
            assert_eq!(m.peers, peers + 1, "{scheme:?}/{runtime} grew by one");
            assert_eq!(m.relaxations_per_peer.len(), peers + 1);
            // The joined rank really worked and deposited a result: the
            // assembled solution still satisfies the scheme's quality bound.
            // Synchronous runs repartition under the rollback barrier, so
            // their quality is tolerance-exact everywhere. Asynchronous
            // quality depends on how long survivors free-ran against the
            // dead rank's frozen boundary: bounded-tolerance staleness on
            // the deterministic backends, the documented asynchronous
            // staleness bound on the reactor (the same 1 ms delay, waited
            // out in wall-clock time while its neighbours run microsecond
            // sweeps — the same 2e-2 bound the WAN staleness test uses).
            let bound = match (scheme, runtime) {
                (Scheme::Synchronous, _) => clean.tolerance * 2.0,
                (_, RuntimeKind::Loopback | RuntimeKind::Sim) => clean.tolerance * 10.0,
                _ => 2e-2,
            };
            assert!(
                m.residual < bound,
                "{scheme:?}/{runtime}: residual {}",
                m.residual
            );
        }
    }
}

/// Synchronous relaxation counts stay problem-determined through a
/// repartitioned recovery *and* a join: the re-slice restores every peer
/// onto one common global iterate (ghosts included) and the sweep sequence
/// of a synchronous run does not depend on the decomposition, so every
/// backend agrees on the convergence iteration even though their capacity
/// estimates (and hence their new partitions) differ.
#[test]
fn repartitioned_sync_run_keeps_cross_runtime_relaxation_agreement() {
    let peers = 3;
    let workload = WorkloadKind::Obstacle.build(9, peers);
    let clean = obstacle_config(Scheme::Synchronous, peers);
    let baseline = run_on(workload.as_ref(), &clean, RuntimeKind::Loopback);
    assert!(baseline.measurement.converged);
    let baseline_iters = baseline
        .measurement
        .relaxations_per_peer
        .iter()
        .min()
        .copied()
        .unwrap();
    let crash_at = crash_at_fraction(baseline_iters, 0.4);
    let join_at = crash_at_fraction(baseline_iters, 0.7);
    let mut faulty = clean.clone();
    faulty.churn = Some(
        ChurnPlan::kill(0, crash_at)
            .with_checkpoint_interval((crash_at / 2).max(1))
            .with_repartition(true)
            .with_join(1, join_at),
    );
    let counts: Vec<u64> = RuntimeKind::ALL
        .into_iter()
        .map(|runtime| {
            let result = run_on(workload.as_ref(), &faulty, runtime);
            assert!(result.measurement.converged, "{runtime} did not converge");
            assert_eq!(result.measurement.joins, 1, "{runtime} joins");
            assert!(result.measurement.repartitions >= 1, "{runtime}");
            // The convergence iteration: the smallest final counter (the
            // detecting peer stops exactly there; others may overshoot by
            // the in-flight sweep).
            result
                .measurement
                .relaxations_per_peer
                .iter()
                .min()
                .copied()
                .unwrap()
        })
        .collect();
    for (runtime, count) in RuntimeKind::ALL.into_iter().zip(&counts) {
        assert_eq!(
            counts[0], *count,
            "sim vs {runtime} disagree on the repartitioned convergence iteration"
        );
    }
}

/// Join-mid-run over real sockets: the joiner binds a fresh UdpSocket,
/// registers with the bootstrap (which republishes the rank→port table to
/// the running peers), takes a share of the work and counts in the
/// measurement — the paper's "peers arrive while the application runs",
/// on a real network stack.
#[test]
fn join_mid_run_over_real_udp_sockets() {
    let peers = 2;
    let workload = WorkloadKind::Heat.build(12, peers);
    let mut clean = obstacle_config(Scheme::Asynchronous, peers);
    clean.tolerance = 1e-3;
    let baseline = run_on(workload.as_ref(), &clean, RuntimeKind::Loopback);
    assert!(baseline.measurement.converged);
    let join_at = crash_at_fraction(
        baseline
            .measurement
            .relaxations_per_peer
            .iter()
            .min()
            .copied()
            .unwrap(),
        0.4,
    );
    let mut faulty = clean.clone();
    faulty.churn = Some(
        ChurnPlan::new(vec![])
            .with_checkpoint_interval((join_at / 2).max(1))
            .with_join(0, join_at),
    );
    let result = run_on(
        workload.as_ref(),
        &one_loop_per_peer(&faulty),
        RuntimeKind::Reactor,
    );
    let m = &result.measurement;
    assert!(m.converged, "socket join run did not converge");
    assert_eq!(m.crashes, 0);
    assert_eq!(m.joins, 1);
    assert_eq!(m.repartitions, 1);
    assert_eq!(m.peers, peers + 1);
    // The joiner really relaxed (its executed-points account is live).
    assert!(
        m.points_relaxed_per_peer[peers] > 0,
        "the joined rank did no work: {:?}",
        m.points_relaxed_per_peer
    );
    assert!(
        m.residual < clean.tolerance * 10.0,
        "residual {}",
        m.residual
    );
}

/// Live load accounting feeds real throughput estimates on every backend,
/// with or without churn.
#[test]
fn per_peer_throughput_estimates_are_live() {
    let peers = 2;
    let workload = WorkloadKind::Obstacle.build(8, peers);
    let config = obstacle_config(Scheme::Synchronous, peers);
    for runtime in RuntimeKind::ALL {
        let result = run_on(workload.as_ref(), &config, runtime);
        assert_eq!(
            result.measurement.points_per_sec.len(),
            peers,
            "{runtime}: one throughput estimate per peer"
        );
        assert!(
            result.measurement.points_per_sec.iter().all(|&t| t > 0.0),
            "{runtime}: throughput estimates must be live, got {:?}",
            result.measurement.points_per_sec
        );
    }
}

/// Every (workload × scheme) cell accounts for a seeded crash, a crash with
/// live repartitioning and a crash plus a mid-run join: each converges,
/// counts one crash and one recovery, rolls back exactly when the scheme is
/// synchronous, re-slices exactly when asked to, and an asynchronous crash
/// shows up as extra executed work. Loopback, so the counts are exact.
#[test]
fn crash_repartition_and_join_are_accounted_on_every_workload_and_scheme() {
    let peers = 2;
    for kind in WorkloadKind::ALL {
        let (size, tolerance) = match kind {
            WorkloadKind::Obstacle => (8, 1e-3),
            WorkloadKind::Heat => (12, 1e-3),
            WorkloadKind::PageRank => (60, 1e-6),
        };
        let workload = kind.build(size, peers);
        for scheme in [Scheme::Synchronous, Scheme::Asynchronous] {
            let mut config = RunConfig::single_cluster(scheme, peers);
            config.tolerance = tolerance;
            let baseline = run_on(workload.as_ref(), &config, RuntimeKind::Loopback).measurement;
            assert!(baseline.converged, "{kind}/{scheme} baseline");
            assert_eq!(
                (baseline.crashes, baseline.recoveries, baseline.repartitions),
                (0, 0, 0)
            );
            // Crash the last rank at ~10 % of the baseline's per-peer
            // progress, two checkpoints in; the join fires at ~20 %.
            let per_peer = baseline.total_relaxations() / peers as u64;
            let crash_at = (per_peer / 10).max(2);
            let join_at = (per_peer / 5).max(crash_at + 1);
            let crash = ChurnPlan::kill(peers / 2, crash_at)
                .with_checkpoint_interval((crash_at / 2).max(1));
            let repartition = crash.clone().with_repartition(true);
            let join = repartition.clone().with_join(0, join_at);
            for (label, plan) in [("crash", crash), ("repart", repartition), ("join", join)] {
                let cell = format!("{kind}/{scheme}/{label}");
                let m = run_on(
                    workload.as_ref(),
                    &config.clone().with_churn(plan),
                    RuntimeKind::Loopback,
                )
                .measurement;
                assert!(m.converged, "{cell} did not converge");
                assert_eq!((m.crashes, m.recoveries), (1, 1), "{cell}");
                if scheme == Scheme::Synchronous {
                    assert!(m.rollbacks >= 1, "{cell}: synchronous recovery rolls back");
                } else if label == "crash" {
                    // Survivors free-run through the downtime. (Synchronous
                    // cells stall instead, and with a tight checkpoint
                    // interval the redone work can vanish inside the ±1
                    // stop-race sweep.)
                    assert!(
                        m.total_points_relaxed() > baseline.total_points_relaxed(),
                        "{cell}: the crash must cost executed work"
                    );
                }
                if label == "crash" {
                    assert_eq!((m.repartitions, m.joins), (0, 0), "{cell}");
                } else {
                    assert!(m.repartitions >= 1, "{cell}: the re-slice is applied");
                    assert!(m.moved_points > 0, "{cell}");
                    assert_eq!(m.joins, u64::from(label == "join"), "{cell}");
                }
            }
        }
    }
}

/// The acceptance criterion of elastic membership: with one peer at 40 % CPU
/// speed (simulated backend, obstacle workload), applying the
/// capacity-weighted shares at recovery costs no more executed work than
/// restoring the original, mis-sized blocks — under at least one scheme —
/// because the re-slice moves planes off the slow peer.
#[test]
fn repartitioning_pays_off_under_heterogeneous_capacity() {
    let peers = 2;
    let workload = WorkloadKind::Obstacle.build(8, peers);
    let mut pays_off = Vec::new();
    for scheme in [Scheme::Synchronous, Scheme::Asynchronous] {
        let mut config = RunConfig::single_cluster(scheme, peers);
        config.tolerance = 1e-3;
        config.topology.set_cpu_speed(netsim::NodeId(0), 0.4);
        let run = |config: &RunConfig| {
            let m = run_on(workload.as_ref(), config, RuntimeKind::Sim).measurement;
            assert!(m.converged, "{scheme} did not converge");
            m
        };
        let baseline = run(&config);
        let crash_at = (baseline.total_relaxations() / peers as u64 * 3 / 10).max(2);
        let plan =
            ChurnPlan::kill(peers / 2, crash_at).with_checkpoint_interval((crash_at / 2).max(1));
        let restored = run(&config.clone().with_churn(plan.clone()));
        let resliced = run(&config.clone().with_churn(plan.with_repartition(true)));
        assert!(resliced.repartitions >= 1, "{scheme}: work moved");
        pays_off.push((
            scheme,
            resliced.total_points_relaxed(),
            restored.total_points_relaxed(),
        ));
    }
    assert!(
        pays_off
            .iter()
            .any(|&(_, resliced, restored)| resliced <= restored),
        "repartitioning must pay off under at least one scheme: {pays_off:?}"
    );
}
