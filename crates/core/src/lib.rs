//! `p2pdc` — the peer-to-peer distributed computing environment of the paper
//! (Section III), built on the P2PSAP self-adaptive protocol.
//!
//! Components (paper architecture, Figure 2):
//!
//! 1. **User daemon** — [`task_manager::parse_command`] / the `run`/`stat`/
//!    `exit` command interface.
//! 2. **Topology manager** — [`TopologyManager`]: centralized registration,
//!    heartbeats with 3-period eviction, peer collection.
//! 3. **Task manager** — [`TaskManager`]: calls `Problem_Definition()`,
//!    distributes sub-tasks, collects results, calls
//!    `Results_Aggregation()`.
//! 4. **Task execution** — the runtimes in [`runtime`], which drive each
//!    peer's `Calculate()` ([`IterativeTask`]).
//! 5. **Load balancing** — [`LoadBalancer`] (extension; the paper lists the
//!    component but had not developed it).
//! 6. **Fault tolerance** — [`FaultManager`] (extension, same status).
//! 7. **Communication** — the `p2psap` crate, re-exported here.
//!
//! The programming model ([`app`]) asks the programmer for the paper's three
//! functions; the only communication operations are `P2P_Send`/`P2P_Receive`,
//! whose mode is selected by the protocol from the scheme of computation and
//! the topology context.

#![warn(missing_docs)]

pub mod allocs;
pub mod app;
pub mod churn;
pub mod compute;
pub mod experiment;
pub mod fault;
pub mod gossip;
pub mod heat_app;
pub mod load_balance;
pub mod metrics;
pub mod obstacle_app;
pub mod pagerank_app;
pub mod runtime;
pub mod scenario;
pub mod task_manager;
pub mod topology_manager;
pub mod workload;

pub use app::{
    Application, FrameSink, IterativeTask, LocalRelax, ProblemDefinition, SubTask, WorkloadApp,
};
pub use churn::{
    AdoptionTicket, ChurnEvent, ChurnEventKind, ChurnPlan, FaultInjector, MembershipPlan,
    RecoveryRecord, SharedVolatility, VolatilityHandle, VolatilityState,
};
pub use compute::{calibrate_ns_per_point, ComputeModel};
pub use experiment::{run_on, RuntimeExperimentResult, RuntimeKind};
pub use fault::{Checkpoint, FaultManager, RecoveryAction};
pub use gossip::{
    ConvergenceDigest, DigestRow, GossipMessage, GossipNode, GossipTiming, MemberStatus, Rumor,
    SweepSummary,
};
pub use heat_app::{heat_residual, solve_heat_sequential, HeatTask, HeatWorkload};
pub use load_balance::{LoadBalancer, PeerLoad};
pub use metrics::{derive_row, format_table, FigureRow, RunMeasurement};
pub use obstacle_app::{
    build_problem, ObstacleInstance, ObstacleParams, ObstacleTask, ObstacleWorkload, UpdateMsg,
    UpdateView,
};
pub use pagerank_app::{
    pagerank_reference, pagerank_step, PageRankGraph, PageRankTask, PageRankWorkload,
};
pub use runtime::{
    BackendExtras, ClockDomain, ControlPlane, ConvergenceDetector, DetectorHandle, DriverOutcome,
    LossShim, PeerEngine, PeerTransport, Reassembler, RunConfig, TaskFactory, Wire,
};
pub use scenario::{check_case, FuzzCase, Violation};
pub use task_manager::{parse_command, Command, Job, JobState, TaskManager};
pub use topology_manager::{PeerRecord, TopologyManager, MISSED_PINGS_BEFORE_EVICTION};
pub use workload::{
    assemble_global, balanced_partition, encode_block_state, reslice_moved_items, weighted_ranges,
    Repartitioner, ReslicerHandle, Workload, WorkloadKind,
};

// Re-export the protocol types applications interact with.
pub use p2psap::{ChannelConfig, CommunicationMode, Scheme};
