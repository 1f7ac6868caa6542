//! End-to-end tests of the decentralized control plane: SWIM gossip
//! membership plus distributed convergence detection, checked against the
//! centralized detector on every backend.
//!
//! The invariant under test is *losslessness*: the digest decision may lag
//! the central fold (peers keep relaxing while rumors spread — the decision
//! lag `repro gossip` measures), but it can never fire on evidence the
//! central fold would have rejected, so the per-run minimum relaxation
//! count under gossip is at least the centralized one.

use p2pdc::{
    gossip, run_on, BackendExtras, ChurnPlan, GossipTiming, RunConfig, RunMeasurement, RuntimeKind,
    Scheme, WorkloadKind,
};
use std::sync::RwLock;

/// `gossip::stats` is process-global: the test that reads it holds this
/// exclusively, every other gossip test here shares it.
static STATS: RwLock<()> = RwLock::new(());

/// The convergence iteration of a run: the peer that decides stops at
/// exactly that iteration, so the per-run minimum is the invariant
/// (wall-clock peers may overshoot by the propagation delay).
fn min_relaxations(m: &RunMeasurement) -> u64 {
    m.relaxations_per_peer.iter().copied().min().unwrap_or(0)
}

/// How far the gossip stop may trail the centralized one, in relaxations,
/// on the backends whose gossip turn keeps time with the relaxations
/// (loopback counts events, sim ticks virtual time): there the lag is
/// problem-determined and this bound is exact.
const LAG_RELAXATIONS: u64 = 150;

/// The same bound on the wall-clock backends (udp, reactor), in probe
/// periods. There the digest spreads one probe round per
/// `GossipTiming::wall_clock().probe_period` of wall time while peers relax
/// as fast as the box lets them — a 10³ synchronous obstacle sweep is tens
/// of microseconds, so one probe period alone is hundreds of relaxations —
/// and a bound in relaxations measures the box, not the protocol. The lag
/// relaxations times the gossip run's mean wall time per relaxation must
/// stay within this many periods. Why 8: the decider needs a post-
/// convergence row from each of the 3 other ranks, and each row crosses
/// on the next probe or ack between its author and the decider; with one
/// probe per rank per period to a random member, push-pull covers 4
/// members in 2–3 rounds (⌈log₂ 4⌉ + 1), and the rest is a loaded box's
/// scheduling: a peer's turn, and so its probe round, slips by up to a
/// period when both cores are busy.
const LAG_PROBE_PERIODS: f64 = 8.0;

/// Gossip vs centralized on the synchronous scheme, for all three workloads
/// on all four e2e backends: both converge, and the gossip stop never fires
/// earlier than the centralized one (with a bounded decision lag).
#[test]
fn gossip_sync_decision_is_lossless_on_every_backend_and_workload() {
    let _shared = STATS.read().unwrap_or_else(|poison| poison.into_inner());
    for (kind, size, tolerance) in [
        (WorkloadKind::Obstacle, 10, 1e-4),
        (WorkloadKind::Heat, 16, 1e-4),
        (WorkloadKind::PageRank, 120, 1e-8),
    ] {
        let peers = 4;
        let workload = kind.build(size, peers);
        let mut config = RunConfig::single_cluster(Scheme::Synchronous, peers);
        config.tolerance = tolerance;
        for runtime in [
            RuntimeKind::Loopback,
            RuntimeKind::Sim,
            RuntimeKind::Udp,
            RuntimeKind::Reactor,
        ] {
            let centralized = run_on(workload.as_ref(), &config, runtime);
            let gossip = run_on(workload.as_ref(), &config.clone().with_gossip(2), runtime);
            let label = format!("{} / {}", kind.label(), runtime.label());
            assert!(
                centralized.measurement.converged,
                "{label}: centralized run did not converge"
            );
            assert!(
                gossip.measurement.converged,
                "{label}: gossip run did not converge"
            );
            let min_c = min_relaxations(&centralized.measurement);
            let min_g = min_relaxations(&gossip.measurement);
            assert!(
                min_g >= min_c,
                "{label}: gossip stopped at {min_g} < centralized {min_c} — \
                 the digest fired on evidence the central fold rejects"
            );
            let lag = min_g - min_c;
            if matches!(runtime, RuntimeKind::Udp | RuntimeKind::Reactor) {
                let m = &gossip.measurement;
                let relaxations = m.relaxations_per_peer.iter().sum::<u64>() as f64;
                let per_relaxation = m.elapsed.as_secs_f64() * m.peers as f64 / relaxations;
                let period = GossipTiming::wall_clock().probe_period as f64 * 1e-9;
                let periods = lag as f64 * per_relaxation / period;
                eprintln!("{label}: lag {lag} relaxations = {periods:.2} probe periods");
                assert!(
                    periods <= LAG_PROBE_PERIODS,
                    "{label}: gossip decision lag {lag} relaxations × {:.1} µs = {periods:.1} \
                     probe periods exceeds the propagation bound (centralized {min_c}, \
                     gossip {min_g})",
                    per_relaxation * 1e6
                );
            } else {
                assert!(
                    lag <= LAG_RELAXATIONS,
                    "{label}: gossip decision lag {lag} exceeds the propagation bound \
                     (centralized {min_c}, gossip {min_g})"
                );
            }
            // The decentralized stop still yields a valid solution.
            assert!(
                gossip.measurement.residual < tolerance * 10.0,
                "{label}: gossip residual {}",
                gossip.measurement.residual
            );
        }
    }
}

/// A mid-run crash on the wall-clock backends with the ping server retired:
/// the victim's recovery can only be granted through SWIM death verdicts
/// (there is no monitor thread under gossip), so a completed recovery
/// proves gossip-only eviction end to end.
#[test]
fn gossip_only_eviction_recovers_a_crashed_peer_on_wall_clock_backends() {
    let _shared = STATS.read().unwrap_or_else(|poison| poison.into_inner());
    let peers = 4;
    let workload = WorkloadKind::Obstacle.build(10, peers);
    let mut config = RunConfig::quick(Scheme::Asynchronous, peers).with_gossip(2);
    config.churn = Some(ChurnPlan::kill(1, 12).with_checkpoint_interval(5));
    for runtime in [RuntimeKind::Udp, RuntimeKind::Reactor] {
        let result = run_on(workload.as_ref(), &config, runtime);
        let m = &result.measurement;
        let label = runtime.label();
        assert!(m.converged, "{label}: faulty gossip run did not converge");
        assert_eq!(m.crashes, 1, "{label}: crash count");
        assert_eq!(
            m.recoveries, 1,
            "{label}: the victim was not revived — SWIM eviction never granted recovery"
        );
        assert!(m.downtime_s > 0.0, "{label}: downtime not measured");
        assert!(
            m.residual < config.tolerance * 10.0,
            "{label}: residual {} exceeds the async staleness bound",
            m.residual
        );
    }
}

/// The seeded backends stay bit-for-bit deterministic under gossip: same
/// seed, same probe targets, same rumor exchanges, same decision — twice.
#[test]
fn gossip_runs_are_deterministic_on_seeded_backends() {
    let _shared = STATS.read().unwrap_or_else(|poison| poison.into_inner());
    let peers = 4;
    let workload = WorkloadKind::Obstacle.build(10, peers);
    let mut config = RunConfig::quick(Scheme::Asynchronous, peers).with_gossip(2);
    config.churn = Some(ChurnPlan::kill(1, 12).with_checkpoint_interval(5));
    for runtime in [RuntimeKind::Loopback, RuntimeKind::Sim] {
        let a = run_on(workload.as_ref(), &config, runtime);
        let b = run_on(workload.as_ref(), &config, runtime);
        let label = runtime.label();
        assert!(a.measurement.converged, "{label}: run did not converge");
        assert_eq!(a.measurement.crashes, 1, "{label}: crash count");
        assert_eq!(a.measurement.recoveries, 1, "{label}: recovery count");
        assert_eq!(
            a.measurement.relaxations_per_peer, b.measurement.relaxations_per_peer,
            "{label}: same seed diverged on relaxation counts"
        );
        assert_eq!(
            a.solution, b.solution,
            "{label}: same seed diverged on the assembled solution"
        );
    }
}

/// Detection speed and false verdicts on the benchmark's `gossip-churn`
/// cell (pagerank 128, 32 peers, asynchronous, reactor on 2 loops, gossip
/// fanout 3, tolerance 1e-6): five solves with one crash each and their
/// five fault-free twins. Every solve converges inside the asynchronous
/// residual bound, the twins neither crash nor recover, and the crashed
/// peer's median downtime stays below the fixed-window floor
/// `2·ack_timeout + suspect_timeout` — the windows derived from the
/// measured probe round trip are what gets under it. Prints the median
/// downtime and the death verdicts per fault-free solve (every one of them
/// false: nobody crashed).
#[test]
fn crashed_peer_is_declared_dead_faster_than_the_fixed_windows_allow() {
    let _exclusive = STATS.write().unwrap_or_else(|poison| poison.into_inner());
    let (peers, solves) = (32, 5u64);
    let workload = WorkloadKind::PageRank.build(128, peers);
    let timing = GossipTiming::wall_clock();
    let floor_s = (2 * timing.ack_timeout + timing.suspect_timeout) as f64 * 1e-9;
    let cell = |seed: u64| {
        let mut config = RunConfig::single_cluster(Scheme::Asynchronous, peers)
            .with_extras(BackendExtras::Reactor {
                event_loops: 2,
                loss_probability: 0.0,
                reorder_probability: 0.0,
            })
            .with_gossip(3);
        config.tolerance = 1e-6;
        config.seed = seed;
        config
    };
    let solve = |config: &RunConfig| {
        let m = run_on(workload.as_ref(), config, RuntimeKind::Reactor).measurement;
        assert!(m.converged, "seed {}: did not converge", config.seed);
        assert!(
            m.residual <= 10.0 * config.tolerance,
            "seed {}: residual {} exceeds the asynchronous bound",
            config.seed,
            m.residual
        );
        m
    };
    let mut downtimes = Vec::new();
    let mut false_verdicts = 0;
    for i in 0..solves {
        // The benchmark's crash window: iteration 4..=8, checkpoints every 5.
        let victim = (7 * i as usize + 3) % peers;
        let plan = ChurnPlan::kill(victim, 4 + i % 5).with_checkpoint_interval(5);
        let m = solve(&cell(1_000 + i).with_churn(plan));
        assert_eq!((m.crashes, m.recoveries), (1, 1), "crash run {i}");
        downtimes.push(m.downtime_s);
        gossip::stats::reset();
        let twin = solve(&cell(1_000 + i));
        false_verdicts += gossip::stats::snapshot().death_verdicts;
        assert_eq!(
            (twin.crashes, twin.recoveries),
            (0, 0),
            "fault-free twin {i}"
        );
    }
    downtimes.sort_by(f64::total_cmp);
    let median = downtimes[downtimes.len() / 2];
    println!(
        "gossip-churn cell: median downtime {:.1} ms (fixed-window floor {:.0} ms), \
         downtimes {:?} ms; false death verdicts per fault-free solve {:.2}",
        median * 1e3,
        floor_s * 1e3,
        downtimes
            .iter()
            .map(|d| (d * 1e4).round() / 10.0)
            .collect::<Vec<_>>(),
        false_verdicts as f64 / solves as f64
    );
    assert!(
        median < floor_s,
        "median downtime {median} s is not below the fixed-window floor {floor_s} s"
    );
}
