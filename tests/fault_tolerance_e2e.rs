//! Integration test of the extension components: failure detection through
//! the topology manager, recovery planning through the fault manager, and
//! capacity-aware re-balancing through the load balancer.

use desim::{SimDuration, SimTime};
use netsim::{ClusterId, NodeId};
use obstacle::BlockDecomposition;
use p2pdc::IterativeTask;
use p2pdc::{
    Checkpoint, FaultManager, LoadBalancer, ObstacleInstance, ObstacleParams, ObstacleTask,
    RecoveryAction, TopologyManager,
};
use std::sync::Arc;

#[test]
fn failure_is_detected_and_the_subtask_reassigned_from_a_checkpoint() {
    // Four workers plus one spare registered with the topology manager.
    let mut topology = TopologyManager::new(SimDuration::from_secs(1));
    for i in 0..5 {
        topology.register(NodeId(i), ClusterId(0), 1.0, SimTime::ZERO);
    }
    let workers = topology.collect_peers(4).expect("enough peers");
    let spare = topology.collect_peers(1).expect("spare")[0];

    // The application runs and periodically checkpoints each rank.
    let params = ObstacleParams {
        n: 10,
        peers: 4,
        instance: ObstacleInstance::Membrane,
    };
    let problem = Arc::new(p2pdc::build_problem(&params));
    let mut fm = FaultManager::new(vec![spare]);
    let mut tasks: Vec<ObstacleTask> = (0..4)
        .map(|rank| ObstacleTask::new(Arc::clone(&problem), 4, rank))
        .collect();
    for task in tasks.iter_mut() {
        for _ in 0..20 {
            task.relax();
        }
    }
    for (rank, task) in tasks.iter().enumerate() {
        fm.store_checkpoint(Checkpoint {
            rank,
            iteration: task.relaxations(),
            state: task.result(),
        });
    }

    // Peer 2 stops pinging; everyone else (including the spare) keeps pinging.
    for tick in 1..=4u64 {
        let now = SimTime::from_secs_f64(tick as f64);
        for &peer in workers.iter().chain(std::iter::once(&spare)) {
            if peer != NodeId(2) {
                topology.ping(peer, now);
            }
        }
    }
    let evicted = topology.evict_stale(SimTime::from_secs_f64(4.0));
    assert_eq!(evicted, vec![NodeId(2)]);

    // The fault manager reassigns rank 2 to the spare, resuming from its
    // checkpoint.
    let action = fm.on_failure(2);
    match action {
        RecoveryAction::Reassign {
            rank,
            replacement,
            from_iteration,
        } => {
            assert_eq!(rank, 2);
            assert_eq!(replacement, spare);
            assert_eq!(from_iteration, 20);
            // The checkpointed state restores a task of the right size.
            let state = fm.checkpoint(2).unwrap();
            assert!(!state.state.is_empty());
        }
        other => panic!("expected a reassignment, got {other:?}"),
    }

    // A second failure with no spares left pauses the computation.
    assert_eq!(fm.on_failure(1), RecoveryAction::Pause { rank: 1 });
}

#[test]
fn load_balancer_shifts_planes_towards_faster_peers_after_measurements() {
    let mut lb = LoadBalancer::new(vec![1.0, 1.0, 1.0]);
    // Peer 2 is measured 3x faster than the others.
    lb.record(0, 10_000, 1.0);
    lb.record(1, 10_000, 1.0);
    lb.record(2, 30_000, 1.0);
    let assignment = lb.propose_assignment(30);
    assert!(assignment.count(2) > assignment.count(0));
    assert!(assignment.count(2) > assignment.count(1));
    let total: usize = (0..3).map(|r| assignment.count(r)).sum();
    assert_eq!(total, 30);

    // A uniform assignment is flagged as imbalanced for these capacities.
    let uniform = BlockDecomposition::balanced(30, 3);
    assert!(lb.detect_imbalance(&uniform, 1.5).is_some());
}
