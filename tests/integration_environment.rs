//! Integration test of the P2PDC environment: user daemon commands, topology
//! manager, task manager and the applications working together.

use desim::{SimDuration, SimTime};
use netsim::{ClusterId, NodeId};
use p2pdc::{
    parse_command, Command, JobState, Scheme, TaskManager, TopologyManager, WorkloadApp,
    WorkloadKind,
};
use std::sync::Arc;

/// `peers` registered peers and a task manager knowing the three workloads:
/// the 8³ obstacle problem (8 planes), the 8 × 8 plate (6 interior rows) and
/// a 24-vertex PageRank, each defaulting to 2 peers.
fn environment(peers: usize) -> (TopologyManager, TaskManager) {
    let mut topology = TopologyManager::new(SimDuration::from_secs(1));
    for i in 0..peers {
        topology.register(NodeId(i), ClusterId(i % 2), 1.0, SimTime::ZERO);
    }
    let mut tm = TaskManager::new();
    for (kind, size) in [
        (WorkloadKind::Obstacle, 8),
        (WorkloadKind::Heat, 8),
        (WorkloadKind::PageRank, 24),
    ] {
        let build = move |peers| kind.build(size, peers);
        tm.register_application(Arc::new(WorkloadApp::new(build, 2, Scheme::Synchronous)));
    }
    (topology, tm)
}

#[test]
fn full_job_lifecycle_via_user_daemon_commands() {
    let (mut topology, mut tm) = environment(4);

    // run command with overrides, as the paper allows at start time.
    let cmd = parse_command(r#"run obstacle {"peers": 3, "scheme": "asynchronous"}"#).unwrap();
    let Command::Run { app, params } = cmd else {
        panic!("expected run")
    };
    let job = tm.submit(&app, &params, &mut topology);
    assert_eq!(tm.job(job).state, JobState::Running);
    assert_eq!(tm.job(job).definition.peers_needed, 3);
    assert_eq!(tm.job(job).definition.scheme, Scheme::Asynchronous);
    assert_eq!(topology.free_count(), 1);

    // Execute the three sub-tasks (task-execution component).
    let application = tm.application("obstacle").unwrap();
    let definition = tm.job(job).definition.clone();
    for rank in 0..3 {
        let mut task = application.calculate(&definition, rank);
        for _ in 0..5 {
            task.relax();
        }
        tm.submit_result(job, rank, task.result());
    }
    assert_eq!(tm.job(job).state, JobState::Completed);
    let output = tm.job(job).output.as_ref().expect("aggregated output");
    assert_eq!(output.len(), 8 * 8 * 8 * 8, "full grid of f64 values");

    tm.release(job, &mut topology);
    assert_eq!(topology.free_count(), 4);
}

#[test]
fn stat_and_exit_commands_parse_and_peer_eviction_works() {
    assert_eq!(parse_command("stat").unwrap(), Command::Stat);
    assert_eq!(parse_command("exit").unwrap(), Command::Exit);

    let (mut topology, _) = environment(2);
    // Peer 1 keeps pinging, peer 0 goes silent and is evicted after 3 periods.
    topology.ping(NodeId(1), SimTime::from_secs_f64(3.2));
    let evicted = topology.evict_stale(SimTime::from_secs_f64(3.5));
    assert_eq!(evicted, vec![NodeId(0)]);
    assert_eq!(topology.peer_count(), 1);
}

#[test]
fn submission_is_rejected_without_enough_free_peers() {
    let (mut topology, mut tm) = environment(1);
    let job = tm.submit("obstacle", &serde_json::json!({"peers": 2}), &mut topology);
    assert!(matches!(tm.job(job).state, JobState::Rejected(_)));
    // The failed submission must not leak peer allocations.
    assert_eq!(topology.free_count(), 1);
}

/// A `peers` override the problem cannot be split into is refused at
/// `Problem_Definition()`: the job is rejected with the reason and holds no
/// peers, even when enough peers are free — instead of a panic inside
/// `submit` or, later, inside `Calculate()`.
#[test]
fn impossible_peer_overrides_are_rejected_on_every_workload() {
    let (mut topology, mut tm) = environment(32);
    for (app, items) in [("obstacle", 8), ("heat", 6), ("pagerank", 24)] {
        for peers in [0, items + 1] {
            let params = serde_json::json!({ "peers": peers });
            let job = tm.submit(app, &params, &mut topology);
            let JobState::Rejected(reason) = &tm.job(job).state else {
                panic!("{app} with {peers} peers was accepted");
            };
            assert!(
                reason.contains(&format!("{peers} peers cannot split")),
                "{app}: {reason}"
            );
            assert!(tm.job(job).peers.is_empty());
            assert_eq!(topology.free_count(), 32, "{app}: peers leaked");
        }
        // One peer per item is still a valid split.
        let params = serde_json::json!({ "peers": items });
        let job = tm.submit(app, &params, &mut topology);
        assert_eq!(tm.job(job).state, JobState::Running, "{app}");
        tm.release(job, &mut topology);
    }
}
