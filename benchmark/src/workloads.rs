//! The four benchmark workloads, the inputs generated for each solve, and
//! the output check every solve must pass.
//!
//! The program under test only ever receives the generated [`RunConfig`]
//! (with its [`ChurnPlan`], on the churn workload); the benchmark seed never
//! reaches it in any other form.

use netsim::{ClusterId, ConnectionType, Topology};
use obstacle::{solve_sequential, sup_norm_diff, ObstacleProblem, RichardsonConfig};
use p2pdc::{
    pagerank_reference, run_on, BackendExtras, ChurnPlan, PageRankGraph, RunConfig,
    RuntimeExperimentResult, RuntimeKind, Scheme, Workload, WorkloadKind,
};
use std::time::Instant;

/// One benchmark workload: a (workload × scheme × runtime × peers) cell of
/// the repository plus the knobs that pin it.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Stable name; later issues cite it.
    pub name: &'static str,
    /// Why the workload is in the set (one line, mirrored in BENCHMARK.json).
    pub why: &'static str,
    /// The application.
    pub kind: WorkloadKind,
    /// The application's size knob (grid points per dimension / vertices).
    pub size: usize,
    /// Peer count.
    pub peers: usize,
    /// Scheme of computation.
    pub scheme: Scheme,
    /// Backend.
    pub runtime: RuntimeKind,
    /// Convergence tolerance.
    pub tolerance: f64,
    /// Reactor event loops (0 on the loopback workload).
    pub event_loops: usize,
    /// Every peer is a cluster of its own (a desktop grid: one peer per
    /// site), so every link is inter-cluster and an asynchronous run's
    /// sockets select the unreliable latest-wins mode (Table I). Otherwise
    /// all peers share one cluster and every socket is reliable.
    pub one_site_per_peer: bool,
    /// `Some(fanout)` runs the gossip control plane.
    pub gossip_fanout: Option<usize>,
    /// One seeded crash + recovery per solve.
    pub churn: bool,
}

/// The workload set. Sizes are calibrated so one solve takes 0.10–0.18 s on
/// a 2-core box, i.e. a 20 s window holds more than 100 solves and the 90th
/// percentile has ten samples beyond it.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "obstacle-kernel",
        why: "obstacle 56^3, 2 peers, synchronous, loopback: the paper's application with the network removed; kernel and ghost-encode gains show here, transport gains must not",
        kind: WorkloadKind::Obstacle,
        size: 56,
        peers: 2,
        scheme: Scheme::Synchronous,
        runtime: RuntimeKind::Loopback,
        tolerance: 1e-4,
        event_loops: 0,
        one_site_per_peer: false,
        gossip_fanout: None,
        churn: false,
    },
    Spec {
        name: "obstacle-lockstep",
        why: "obstacle 36^3, 8 peers, synchronous, reactor 1 loop: 10 KiB ghost planes as 9 fragments through the reliable mode, every sweep waits on both neighbours; framing, acks, syscalls, poll wakes dominate",
        kind: WorkloadKind::Obstacle,
        size: 36,
        peers: 8,
        scheme: Scheme::Synchronous,
        runtime: RuntimeKind::Reactor,
        tolerance: 1e-4,
        event_loops: 1,
        one_site_per_peer: false,
        gossip_fanout: None,
        churn: false,
    },
    Spec {
        name: "pagerank-swarm",
        why: "pagerank 768 vertices, 192 peers (one site each), asynchronous, reactor 2 loops: tiny single-fragment messages in the unreliable latest-wins mode, 96 sockets per loop, central detector",
        kind: WorkloadKind::PageRank,
        size: 768,
        peers: 192,
        scheme: Scheme::Asynchronous,
        runtime: RuntimeKind::Reactor,
        tolerance: 1e-6,
        event_loops: 2,
        one_site_per_peer: true,
        gossip_fanout: None,
        churn: false,
    },
    Spec {
        name: "gossip-churn",
        why: "pagerank 128 vertices, 32 peers, asynchronous, reactor 2 loops, gossip control plane, one seeded crash per solve: SWIM detection, recovery grant, checkpoint restore while survivors free-run",
        kind: WorkloadKind::PageRank,
        size: 128,
        peers: 32,
        scheme: Scheme::Asynchronous,
        runtime: RuntimeKind::Reactor,
        tolerance: 1e-6,
        event_loops: 2,
        one_site_per_peer: false,
        gossip_fanout: Some(3),
        churn: true,
    },
];

/// How far a solve's output may be from exact, in tolerances of its workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Largest accepted residual of the assembled solution.
    pub residual: f64,
    /// Largest accepted sup-norm distance to the sequential reference.
    pub distance: f64,
}

/// The synchronous rows reproduce the sequential iterates exactly (measured
/// distance 0), so they keep the bound `experiment.rs`'s own tests use.
pub const SYNCHRONOUS_BOUNDS: Bounds = Bounds {
    residual: 2.0,
    distance: 10.0,
};

/// The asynchronous stop criterion bounds every rank's own successive
/// difference against the neighbour values it held, not the residual of the
/// assembled solution: updates still in flight when the run stops add to it,
/// and how many are depends on scheduling. Measured on a quiet 2-core box
/// the residual stays below 1 tolerance and the distance below 3.4; with
/// both loops pinned to one busy core they reach 2.5 and 4.9. The residual
/// bound is the scenario fuzzer's `RESIDUAL_SLACK` (same reason), the
/// distance bound what a residual that large allows under PageRank's 0.85
/// contraction. A wrong answer is still an order of magnitude further out:
/// the start vector is 290 (`pagerank-swarm`) and 3400 (`gossip-churn`)
/// tolerances from the fixed point, a lost block 1300 and 7800.
pub const ASYNCHRONOUS_BOUNDS: Bounds = Bounds {
    residual: 10.0,
    distance: 50.0,
};

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|spec| spec.name == name)
}

/// SplitMix64: the benchmark's only random source, so the same `--seed`
/// always generates the same inputs.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Earliest and latest relaxation count at which the churn victim crashes:
/// early enough that the victim's last report is still above the tolerance,
/// so the survivors cannot declare convergence without it and every solve
/// goes through detection, grant and restore. The sequential iteration's
/// successive difference is 3.9e-3 at sweep 1 and 6.8e-5 at sweep 8: 68
/// tolerances of 1e-6 from a stable report, whatever the scheduling. (At
/// the issue's 1e-4 sweeps 7 and 8 are already stable, and a solve whose
/// survivors converged before SWIM suspected the victim ended unrecovered.)
const CRASH_AT: std::ops::RangeInclusive<u64> = 4..=8;
/// Checkpoint cadence of the churn workload (relaxations).
const CHECKPOINT_INTERVAL: u64 = 5;

impl Spec {
    /// Build the application at this workload's size.
    pub fn build(&self) -> Box<dyn Workload> {
        self.kind.build(self.size, self.peers)
    }

    /// The crash injected into solve number `solve` of a run seeded `seed`:
    /// `(victim rank, crash iteration)`. `None` off the churn workload.
    pub fn crash_for(&self, seed: u64, solve: u64) -> Option<(usize, u64)> {
        self.churn.then(|| {
            let draw = mix(mix(seed) ^ solve);
            let span = CRASH_AT.end() - CRASH_AT.start() + 1;
            let victim = (draw % self.peers as u64) as usize;
            let at = CRASH_AT.start() + (draw >> 32) % span;
            (victim, at)
        })
    }

    /// The churn plan of solve `solve` (`None` off the churn workload).
    pub fn churn_plan(&self, seed: u64, solve: u64) -> Option<ChurnPlan> {
        self.crash_for(seed, solve).map(|(victim, at)| {
            ChurnPlan::kill(victim, at).with_checkpoint_interval(CHECKPOINT_INTERVAL)
        })
    }

    /// The cluster split of the workload's peers.
    fn topology(&self) -> Topology {
        if !self.one_site_per_peer {
            return Topology::nicta_single_cluster(self.peers);
        }
        let mut topology = Topology::nicta_two_clusters(1);
        for site in 1..self.peers {
            topology.push_node(ClusterId(site), 1.0);
        }
        topology
    }

    /// How every pair of the workload's peers is connected.
    pub fn connection(&self) -> ConnectionType {
        if self.one_site_per_peer {
            ConnectionType::InterCluster
        } else {
            ConnectionType::IntraCluster
        }
    }

    /// Whether the workload's sockets retransmit: the mode the P2PSAP
    /// controller (Table I) selects for its scheme and connection.
    pub fn reliable(&self) -> bool {
        let socket = p2psap::Socket::open(self.scheme, self.connection());
        socket.config().reliability == p2psap::Reliability::Reliable
    }

    /// The configuration without volatility and on the centralized control
    /// plane unless the workload gossips — the base every variant derives
    /// from.
    fn base_config(&self, run_seed: u64) -> RunConfig {
        let mut config = RunConfig::new(self.scheme, self.topology());
        config.tolerance = self.tolerance;
        config.seed = run_seed;
        if self.runtime == RuntimeKind::Reactor {
            config = config.with_extras(self.reactor_extras(self.event_loops));
        }
        config
    }

    fn reactor_extras(&self, event_loops: usize) -> BackendExtras {
        BackendExtras::Reactor {
            event_loops,
            loss_probability: 0.0,
            reorder_probability: 0.0,
        }
    }

    /// The generated input of solve number `solve` in a run seeded `seed`.
    pub fn config(&self, seed: u64, solve: u64) -> RunConfig {
        let mut config = self.base_config(mix(seed ^ mix(solve)));
        if let Some(fanout) = self.gossip_fanout {
            config = config.with_gossip(fanout);
        }
        if let Some(plan) = self.churn_plan(seed, solve) {
            config = config.with_churn(plan);
        }
        config
    }

    /// The same solve without its crash (the churn-overhead twin).
    pub fn fault_free_twin(&self, seed: u64, solve: u64) -> RunConfig {
        let mut config = self.config(seed, solve);
        config.churn = None;
        config
    }

    /// The same solve on `event_loops` reactor loops (the stall probe).
    pub fn with_event_loops(&self, seed: u64, solve: u64, event_loops: usize) -> RunConfig {
        self.config(seed, solve)
            .with_extras(self.reactor_extras(event_loops))
    }

    /// Whether the workload's relaxation count is problem-determined.
    pub fn is_synchronous(&self) -> bool {
        self.scheme == Scheme::Synchronous
    }

    /// The output bounds of the workload's scheme.
    pub fn bounds(&self) -> Bounds {
        if self.is_synchronous() {
            SYNCHRONOUS_BOUNDS
        } else {
            ASYNCHRONOUS_BOUNDS
        }
    }
}

/// What one solve is checked against, computed once per run.
pub struct Reference {
    /// The sequential solver's solution of the same problem at the same
    /// tolerance.
    pub solution: Vec<f64>,
    /// Sweeps the sequential solver needed.
    pub sequential_iterations: u64,
    /// Wall seconds the sequential solve took (the plain single-threaded
    /// baseline).
    pub sequential_solve_s: f64,
    /// `min_relaxations` of a loopback run of the same cell (synchronous
    /// workloads only: their count is problem-determined).
    pub loopback_min_relaxations: Option<u64>,
}

impl Reference {
    /// Solve the workload's problem sequentially and, for the synchronous
    /// workloads, once on the deterministic loopback backend.
    pub fn compute(spec: &Spec, workload: &dyn Workload) -> Self {
        let started = Instant::now();
        let (solution, sequential_iterations) = match spec.kind {
            WorkloadKind::Obstacle => {
                let problem = ObstacleProblem::membrane(spec.size);
                let solved = solve_sequential(
                    &problem,
                    RichardsonConfig {
                        tolerance: spec.tolerance,
                        ..RichardsonConfig::default()
                    },
                );
                assert!(solved.converged, "sequential obstacle reference diverged");
                (solved.u, solved.iterations as u64)
            }
            WorkloadKind::PageRank => pagerank_reference(
                &PageRankGraph::ring_with_chords(spec.size),
                spec.tolerance,
                RunConfig::DEFAULT_MAX_RELAXATIONS,
            ),
            WorkloadKind::Heat => unreachable!("no benchmark workload runs the heat application"),
        };
        let sequential_solve_s = started.elapsed().as_secs_f64();
        let loopback_min_relaxations = spec.is_synchronous().then(|| {
            let mut config = RunConfig::single_cluster(spec.scheme, spec.peers);
            config.tolerance = spec.tolerance;
            let run = run_on(workload, &config, RuntimeKind::Loopback);
            assert!(run.measurement.converged, "loopback reference diverged");
            run.measurement.min_relaxations()
        });
        Self {
            solution,
            sequential_iterations,
            sequential_solve_s,
            loopback_min_relaxations,
        }
    }

    /// Sup-norm distance of a solve's solution to the sequential reference
    /// (the lengths must agree).
    pub fn distance(&self, result: &RuntimeExperimentResult) -> f64 {
        sup_norm_diff(&result.solution, &self.solution)
    }

    /// Check one solve's output; `Err` names the first violated condition.
    pub fn check(&self, spec: &Spec, result: &RuntimeExperimentResult) -> Result<(), String> {
        let m = &result.measurement;
        if !m.converged {
            return Err("did not converge".into());
        }
        let bounds = spec.bounds();
        if m.residual.is_nan() || m.residual > bounds.residual * spec.tolerance {
            return Err(format!(
                "residual {:e} above {} x tolerance {:e}",
                m.residual, bounds.residual, spec.tolerance
            ));
        }
        if result.solution.len() != self.solution.len() {
            return Err(format!(
                "solution has {} values, reference {}",
                result.solution.len(),
                self.solution.len()
            ));
        }
        if !result.solution.iter().all(|v| v.is_finite()) {
            return Err("solution has non-finite values".into());
        }
        let distance = self.distance(result);
        let bound = bounds.distance * spec.tolerance;
        if distance.is_nan() || distance > bound {
            return Err(format!(
                "sup-norm distance {distance:e} to the sequential reference above {bound:e}"
            ));
        }
        if let Some(expected) = self.loopback_min_relaxations {
            if m.min_relaxations().abs_diff(expected) > 1 {
                return Err(format!(
                    "min_relaxations {} vs loopback reference {expected}",
                    m.min_relaxations()
                ));
            }
        }
        if spec.churn && (m.crashes, m.recoveries) != (1, 1) {
            return Err(format!(
                "{} crashes and {} recoveries, expected 1 and 1",
                m.crashes, m.recoveries
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::NodeId;

    #[test]
    fn same_seed_generates_the_same_churn_plan_sequence() {
        let spec = find("gossip-churn").expect("workload exists");
        let plans = |seed: u64| -> Vec<ChurnPlan> {
            (0..200)
                .map(|solve| spec.churn_plan(seed, solve).expect("churn workload"))
                .collect()
        };
        assert_eq!(plans(7), plans(7));
        assert_ne!(plans(7), plans(8), "another seed draws other crashes");
        for solve in 0..200 {
            let (victim, at) = spec.crash_for(7, solve).expect("churn workload");
            assert!(victim < spec.peers);
            assert!(CRASH_AT.contains(&at));
            let config = spec.config(7, solve);
            assert_eq!(config.churn, spec.churn_plan(7, solve));
        }
        // The draws cover the whole crash window and many victims.
        let crashes: Vec<_> = (0..200).filter_map(|s| spec.crash_for(7, s)).collect();
        for at in CRASH_AT {
            assert!(crashes.iter().any(|&(_, a)| a == at), "no crash at {at}");
        }
        let mut victims: Vec<_> = crashes.iter().map(|&(v, _)| v).collect();
        victims.sort_unstable();
        victims.dedup();
        assert!(victims.len() > spec.peers / 2);
    }

    /// The engine opens one socket per neighbour from the topology's
    /// classification of the link; every link of a workload must classify as
    /// the workload says, and only `pagerank-swarm` may run unreliable.
    #[test]
    fn only_pagerank_swarm_selects_the_unreliable_mode() {
        for spec in &WORKLOADS {
            let config = spec.config(1, 0);
            let workload = spec.build();
            for rank in 0..spec.peers {
                for neighbor in workload.task(rank).neighbors() {
                    let link = config
                        .topology
                        .connection_type(NodeId(rank), NodeId(neighbor));
                    assert_eq!(link, spec.connection(), "{} {rank}-{neighbor}", spec.name);
                }
            }
            assert_eq!(
                spec.reliable(),
                spec.name != "pagerank-swarm",
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn only_the_churn_workload_injects_faults() {
        for spec in &WORKLOADS {
            assert_eq!(spec.churn_plan(1, 0).is_some(), spec.churn, "{}", spec.name);
            assert_eq!(spec.config(1, 0).churn.is_some(), spec.churn);
            assert_eq!(spec.config(1, 0).peers(), spec.peers);
            assert_eq!(
                spec.config(1, 0).control_plane.is_gossip(),
                spec.gossip_fanout.is_some()
            );
            assert!(spec.fault_free_twin(1, 0).churn.is_none());
        }
    }
}
