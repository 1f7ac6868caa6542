//! The task manager and user daemon of P2PDC.
//!
//! The task manager is the component that calls the application's functions:
//! on a `run` command it invokes `Problem_Definition()`, requests peers from
//! the topology manager, distributes the sub-tasks, and once every peer has
//! returned its result calls `Results_Aggregation()`. The user daemon is the
//! thin command interface (`run`, `stat`, `exit`) in front of it.

use crate::app::{Application, ProblemDefinition};
use crate::topology_manager::TopologyManager;
use netsim::NodeId;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Progress of a submitted application run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Peers allocated, sub-tasks distributed, waiting for results.
    Running,
    /// Every peer returned its result; the aggregated output is available.
    Completed,
    /// The job could not be started (e.g. not enough free peers).
    Rejected(String),
}

/// A submitted application run tracked by the task manager.
pub struct Job {
    /// The problem definition produced by the application.
    pub definition: ProblemDefinition,
    /// Peers allocated to the job, indexed by rank.
    pub peers: Vec<NodeId>,
    /// Sub-results collected so far, keyed by rank.
    pub results: BTreeMap<usize, Vec<u8>>,
    /// Aggregated output, available once completed.
    pub output: Option<Vec<u8>>,
    /// Current state.
    pub state: JobState,
}

/// The task manager.
pub struct TaskManager {
    applications: BTreeMap<String, Arc<dyn Application>>,
    jobs: Vec<Job>,
}

impl TaskManager {
    /// Create an empty task manager.
    pub fn new() -> Self {
        Self {
            applications: BTreeMap::new(),
            jobs: Vec::new(),
        }
    }

    /// Register an application under its name.
    pub fn register_application(&mut self, app: Arc<dyn Application>) {
        self.applications.insert(app.name().to_string(), app);
    }

    /// Known application names.
    pub fn application_names(&self) -> Vec<String> {
        self.applications.keys().cloned().collect()
    }

    /// Find an application by name.
    pub fn application(&self, name: &str) -> Option<Arc<dyn Application>> {
        self.applications.get(name).cloned()
    }

    /// Handle a `run` command: call `Problem_Definition()`, collect peers from
    /// the topology manager and create the job. Returns the job id. A job
    /// that cannot start — unknown application, a definition the parameters
    /// make impossible, not enough free peers — is recorded as
    /// [`JobState::Rejected`] and holds no peers.
    pub fn submit(
        &mut self,
        app_name: &str,
        params: &serde_json::Value,
        topology: &mut TopologyManager,
    ) -> usize {
        let defined = match self.applications.get(app_name) {
            None => Err(format!("unknown application '{app_name}'")),
            Some(app) => app.problem_definition(params),
        };
        let (definition, peers, state) = match defined {
            Err(reason) => {
                let definition = ProblemDefinition {
                    app_name: app_name.to_string(),
                    scheme: p2psap::Scheme::Synchronous,
                    peers_needed: 0,
                    subtasks: Vec::new(),
                };
                (definition, Vec::new(), JobState::Rejected(reason))
            }
            Ok(definition) => match topology.collect_peers(definition.peers_needed) {
                None => {
                    let reason = "not enough free peers".to_string();
                    (definition, Vec::new(), JobState::Rejected(reason))
                }
                Some(peers) => (definition, peers, JobState::Running),
            },
        };
        self.jobs.push(Job {
            definition,
            peers,
            results: BTreeMap::new(),
            output: None,
            state,
        });
        self.jobs.len() - 1
    }

    /// A peer returned the result of its sub-task. When the last result
    /// arrives, `Results_Aggregation()` is called and the job completes.
    pub fn submit_result(&mut self, job_id: usize, rank: usize, result: Vec<u8>) {
        let (ready, app_name) = {
            let job = &mut self.jobs[job_id];
            if job.state != JobState::Running {
                return;
            }
            job.results.insert(rank, result);
            (
                job.results.len() == job.definition.peers_needed,
                job.definition.app_name.clone(),
            )
        };
        if ready {
            let app = self
                .applications
                .get(&app_name)
                .cloned()
                .expect("application disappeared");
            let job = &mut self.jobs[job_id];
            let results: Vec<(usize, Vec<u8>)> =
                job.results.iter().map(|(r, v)| (*r, v.clone())).collect();
            job.output = Some(app.results_aggregation(&results));
            job.state = JobState::Completed;
        }
    }

    /// Release the peers of a completed job back to the topology manager.
    pub fn release(&mut self, job_id: usize, topology: &mut TopologyManager) {
        let job = &self.jobs[job_id];
        topology.release_peers(&job.peers);
    }

    /// Access a job.
    pub fn job(&self, job_id: usize) -> &Job {
        &self.jobs[job_id]
    }
}

impl Default for TaskManager {
    fn default() -> Self {
        Self::new()
    }
}

/// A command accepted by the user daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `run <application> [json parameters]`
    Run {
        /// Application name.
        app: String,
        /// Owner parameters forwarded to `Problem_Definition()`.
        params: serde_json::Value,
    },
    /// `stat`: report the node/environment state.
    Stat,
    /// `exit`: leave the environment.
    Exit,
}

/// Parse a user-daemon command line.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let trimmed = line.trim();
    let mut parts = trimmed.splitn(3, ' ');
    match parts.next() {
        Some("run") => {
            let app = parts
                .next()
                .ok_or_else(|| "run requires an application name".to_string())?
                .to_string();
            let params = match parts.next() {
                None => serde_json::json!({}),
                Some(raw) => {
                    serde_json::from_str(raw).map_err(|e| format!("invalid parameter JSON: {e}"))?
                }
            };
            Ok(Command::Run { app, params })
        }
        Some("stat") => Ok(Command::Stat),
        Some("exit") => Ok(Command::Exit),
        Some(other) if !other.is_empty() => Err(format!("unknown command '{other}'")),
        _ => Err("empty command".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::WorkloadApp;
    use crate::workload::WorkloadKind;
    use desim::{SimDuration, SimTime};
    use netsim::ClusterId;
    use p2psap::Scheme;

    fn populated_topology(n: usize) -> TopologyManager {
        let mut t = TopologyManager::new(SimDuration::from_secs(1));
        for i in 0..n {
            t.register(NodeId(i), ClusterId(0), 1.0, SimTime::ZERO);
        }
        t
    }

    fn obstacle_app() -> Arc<dyn Application> {
        Arc::new(WorkloadApp::new(
            |peers| WorkloadKind::Obstacle.build(6, peers),
            2,
            Scheme::Synchronous,
        ))
    }

    #[test]
    fn run_stat_exit_parse() {
        assert_eq!(parse_command("stat"), Ok(Command::Stat));
        assert_eq!(parse_command(" exit "), Ok(Command::Exit));
        let run = parse_command(r#"run obstacle {"peers": 4}"#).unwrap();
        match run {
            Command::Run { app, params } => {
                assert_eq!(app, "obstacle");
                assert_eq!(params["peers"], 4);
            }
            _ => panic!("expected run"),
        }
        assert!(parse_command("frobnicate").is_err());
        assert!(parse_command("run").is_err());
        assert!(parse_command("").is_err());
    }

    #[test]
    fn job_lifecycle_completes_with_aggregation() {
        let mut topology = populated_topology(4);
        let mut tm = TaskManager::new();
        tm.register_application(obstacle_app());
        assert_eq!(tm.application_names(), vec!["obstacle".to_string()]);

        let job = tm.submit("obstacle", &serde_json::json!({}), &mut topology);
        assert_eq!(tm.job(job).state, JobState::Running);
        assert_eq!(tm.job(job).peers.len(), 2);
        assert_eq!(topology.free_count(), 2);

        // Drive the two sub-tasks to produce results (a couple of sweeps is
        // enough for the plumbing test).
        let app = tm.application("obstacle").unwrap();
        let def = &tm.job(job).definition.clone();
        let mut results = Vec::new();
        for rank in 0..2 {
            let mut task = app.calculate(def, rank);
            task.relax();
            results.push((rank, task.result()));
        }
        tm.submit_result(job, 0, results[0].1.clone());
        assert_eq!(tm.job(job).state, JobState::Running);
        tm.submit_result(job, 1, results[1].1.clone());
        assert_eq!(tm.job(job).state, JobState::Completed);
        let output = tm.job(job).output.as_ref().unwrap();
        assert_eq!(output.len(), 6 * 6 * 6 * 8, "aggregated full grid expected");

        tm.release(job, &mut topology);
        assert_eq!(topology.free_count(), 4);
    }

    #[test]
    fn submission_failures_are_reported() {
        let mut topology = populated_topology(1);
        let mut tm = TaskManager::new();
        tm.register_application(obstacle_app());
        let missing = tm.submit("nope", &serde_json::json!({}), &mut topology);
        assert!(matches!(tm.job(missing).state, JobState::Rejected(_)));
        let too_big = tm.submit("obstacle", &serde_json::json!({"peers": 5}), &mut topology);
        assert!(matches!(tm.job(too_big).state, JobState::Rejected(_)));
        assert_eq!(topology.free_count(), 1);
    }
}
