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

/// `config` on the reactor at one event loop per provisioned peer: the
/// thread-per-peer shape of a small real-socket run, beside the default
/// pool's shared loops.
fn one_loop_per_peer(config: &RunConfig) -> RunConfig {
    config.clone().with_extras(BackendExtras::Reactor {
        event_loops: config.provisioned_peers(),
        loss_probability: 0.0,
        reorder_probability: 0.0,
    })
}

/// How far the gossip stop may trail the centralized one, in push periods
/// (`GossipTiming::push_period`, a fifth of the probe period in the
/// backend's own clock units), on the backends whose gossip turn keeps time
/// with the relaxations (loopback counts events, sim ticks virtual time):
/// there the lag is problem-determined and this bound is exact. Why 4: a
/// post-convergence row leaves its author on the author's next push, at
/// most one push period after the sweep that wrote it (a probe or ack may
/// carry it sooner), and push gossip then reaches all 4 members in
/// ⌈log₂ 4⌉ + 1 = 3 push periods (doubling, plus one round for random
/// targets that collide). On probes and acks alone the same rows took 5.3
/// (pagerank) and 8.4 (heat) push periods on sim.
const LAG_PUSH_PERIODS: f64 = 4.0;

/// The same bound on the wall-clock backend (the reactor, at one loop per
/// peer and at its default pool), where peers relax as fast as the box lets
/// them — a 10³ synchronous obstacle sweep is tens of microseconds, so one
/// push period alone is dozens of relaxations.
/// Why 40 (the 8 probe periods this bound allowed before pushes existed):
/// the 4 push periods of dissemination above, and the rest is a loaded
/// box's scheduling — a peer's turn, and so its push, slips by several
/// milliseconds when both cores are busy. Measured on a 2-core box: at most
/// 2.3 push periods, in release and debug builds alike (4–5 on probes and
/// acks alone).
const LAG_PUSH_PERIODS_WALL_CLOCK: f64 = 40.0;

/// Gossip vs centralized on the synchronous scheme, for all three workloads
/// on every backend (the reactor at one loop per peer and at its default
/// pool): both converge, and the gossip stop never fires earlier than the
/// centralized one (with a bounded decision lag).
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
        for (runtime, config, shape) in [
            (RuntimeKind::Loopback, config.clone(), ""),
            (RuntimeKind::Sim, config.clone(), ""),
            (
                RuntimeKind::Reactor,
                one_loop_per_peer(&config),
                " (a loop per peer)",
            ),
            (RuntimeKind::Reactor, config.clone(), ""),
        ] {
            let centralized = run_on(workload.as_ref(), &config, runtime);
            let gossip = run_on(workload.as_ref(), &config.clone().with_gossip(2), runtime);
            let label = format!("{} / {}{shape}", kind.label(), runtime.label());
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
            // The lag in push periods of the backend's clock: the run's
            // elapsed clock (events on loopback) per relaxation, times the
            // lag, over the push period.
            let m = &gossip.measurement;
            let lag = min_g - min_c;
            let relaxations = m.relaxations_per_peer.iter().sum::<u64>() as f64;
            let per_relaxation = m.elapsed.as_nanos() as f64 * m.peers as f64 / relaxations;
            let (timing, bound) = match runtime {
                RuntimeKind::Loopback => (GossipTiming::event_count(peers), LAG_PUSH_PERIODS),
                RuntimeKind::Sim => (GossipTiming::virtual_time(), LAG_PUSH_PERIODS),
                _ => (GossipTiming::wall_clock(), LAG_PUSH_PERIODS_WALL_CLOCK),
            };
            let periods = lag as f64 * per_relaxation / timing.push_period() as f64;
            eprintln!("{label}: lag {lag} relaxations = {periods:.2} push periods");
            assert!(
                periods <= bound,
                "{label}: gossip decision lag {lag} relaxations × {per_relaxation:.0} clock units \
                 = {periods:.1} push periods exceeds the propagation bound {bound} \
                 (centralized {min_c}, gossip {min_g})"
            );
            // The decentralized stop still yields a valid solution.
            assert!(
                gossip.measurement.residual < tolerance * 10.0,
                "{label}: gossip residual {}",
                gossip.measurement.residual
            );
        }
    }
}

/// A mid-run crash on the wall-clock backend, at one event loop per peer and
/// at its default pool, with the ping server retired: the victim's recovery
/// can only be granted through SWIM death verdicts (there is no monitor
/// thread under gossip), so a completed recovery proves gossip-only
/// eviction end to end.
#[test]
fn gossip_only_eviction_recovers_a_crashed_peer_on_wall_clock_backends() {
    let _shared = STATS.read().unwrap_or_else(|poison| poison.into_inner());
    let peers = 4;
    let workload = WorkloadKind::Obstacle.build(10, peers);
    let mut config = RunConfig::quick(Scheme::Asynchronous, peers).with_gossip(2);
    config.churn = Some(ChurnPlan::kill(1, 12).with_checkpoint_interval(5));
    for (config, label) in [
        (one_loop_per_peer(&config), "reactor (a loop per peer)"),
        (config.clone(), "reactor"),
    ] {
        let result = run_on(workload.as_ref(), &config, RuntimeKind::Reactor);
        let m = &result.measurement;
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
/// false: nobody crashed). The floor is a release-build number, asserted
/// in release builds only (CI's `gossip-e2e` job runs this file with
/// `--release`): a debug build's slower turns stretch every round trip the
/// windows are derived from, and its median downtime (56–85 ms measured)
/// sits too close to the floor to gate on.
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
        cfg!(debug_assertions) || median < floor_s,
        "median downtime {median} s is not below the fixed-window floor {floor_s} s"
    );
}
