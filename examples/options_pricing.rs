//! Options-pricing-like workload: the paper motivates the obstacle problem
//! with financial mathematics (American option pricing leads to an obstacle /
//! complementarity problem). This example solves the built-in
//! `Financial` instance on the full P2PDC environment: topology manager,
//! task manager, programming model and the simulated runtime.
//!
//! ```text
//! cargo run --release --example options_pricing [n] [peers]
//! ```

use desim::{SimDuration, SimTime};
use netsim::{ClusterId, NodeId};
use p2pdc::{
    parse_command, run_on, Command, ObstacleInstance, ObstacleParams, ObstacleWorkload, RunConfig,
    RuntimeKind, Scheme, TaskManager, TopologyManager, Workload, WorkloadApp,
};
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(20);
    let peers: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(4);

    // 1. Peers join the environment (centralized topology manager).
    let mut topology = TopologyManager::new(SimDuration::from_secs(1));
    for i in 0..peers + 2 {
        topology.register(NodeId(i), ClusterId(i % 2), 1.0, SimTime::ZERO);
    }
    println!(
        "{} peers registered, {} free",
        topology.peer_count(),
        topology.free_count()
    );

    // 2. The user submits the application through the user daemon: the
    //    obstacle workload on the `Financial` instance, hybrid by default.
    let financial = move |peers| -> Box<dyn Workload> {
        Box::new(ObstacleWorkload::new(ObstacleParams {
            n,
            peers,
            instance: ObstacleInstance::Financial,
        }))
    };
    let mut task_manager = TaskManager::new();
    task_manager.register_application(Arc::new(WorkloadApp::new(financial, peers, Scheme::Hybrid)));
    let command = parse_command(&format!(r#"run obstacle {{"peers": {peers}}}"#)).expect("command");
    let Command::Run { app, params } = command else {
        unreachable!()
    };
    let job = task_manager.submit(&app, &params, &mut topology);
    println!(
        "job {job} submitted: {:?}, peers allocated: {:?}",
        task_manager.job(job).state,
        task_manager.job(job).peers
    );

    // 3. The sub-tasks execute on the simulated runtime (hybrid scheme over
    //    two clusters) — this is what the task-execution component drives.
    let workload = ObstacleWorkload::new(ObstacleParams {
        n,
        peers,
        instance: ObstacleInstance::Financial,
    });
    let mut config = RunConfig::two_clusters(Scheme::Hybrid, peers);
    config.seed = 7;
    let result = run_on(&workload, &config, RuntimeKind::Sim);
    println!(
        "converged: {}, virtual time {:.3} s, relaxations per peer {:?}, residual {:.2e}",
        result.measurement.converged,
        result.measurement.elapsed.as_secs_f64(),
        result.measurement.relaxations_per_peer,
        result.measurement.residual
    );

    // 4. Results flow back through the task manager and are aggregated.
    for rank in 0..peers {
        task_manager.submit_result(job, rank, vec![0u8; 8]);
    }
    println!(
        "job state after collection: {:?}",
        task_manager.job(job).state
    );
    task_manager.release(job, &mut topology);
    println!("peers released, {} free again", topology.free_count());

    // The "price surface" (solution) respects the payoff obstacle everywhere.
    let problem = workload.problem();
    let violations = result
        .solution
        .iter()
        .zip(problem.psi.iter())
        .filter(|(u, psi)| **u < **psi - 1e-9)
        .count();
    println!("obstacle (payoff) violations: {violations}");
}
