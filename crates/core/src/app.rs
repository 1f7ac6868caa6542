//! The P2PDC programming model.
//!
//! The paper's model asks the programmer for exactly three functions:
//! `Problem_Definition()`, `Calculate()` and `Results_Aggregation()`; the
//! only communication operations are `P2P_Send` and `P2P_Receive`, whose
//! communication mode is chosen by the protocol, not the programmer.
//!
//! In this reproduction `Calculate()` is expressed as an [`IterativeTask`]
//! object rather than a blocking function: the environment drives the task's
//! relaxation loop and performs the `P2P_Send` / `P2P_Receive` operations at
//! the points the task exposes ([`IterativeTask::encode_outgoing`] /
//! [`IterativeTask::incorporate`]). This inversion is what lets the same
//! application code run unchanged on the virtual-time simulated runtime and
//! on the wall-clock ones (see ARCHITECTURE.md, "Layer map"); the
//! programmer-visible structure — define the problem, write the per-peer
//! relaxation, aggregate the results — is the paper's.

use crate::workload::{balanced_partition, Workload};
use p2psap::Scheme;
use serde::{Deserialize, Serialize};

/// One sub-task of a distributed application (the data handed to one peer).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubTask {
    /// Rank of the peer this sub-task is intended for (0-based).
    pub rank: usize,
    /// Opaque serialized sub-task data.
    pub data: Vec<u8>,
}

/// Output of `Problem_Definition()`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProblemDefinition {
    /// Application name (used by the task manager to find the application).
    pub app_name: String,
    /// Scheme of computation requested by the programmer (can be overridden
    /// on the command line, as in the paper).
    pub scheme: Scheme,
    /// Number of peers requested.
    pub peers_needed: usize,
    /// The sub-tasks to distribute, one per peer.
    pub subtasks: Vec<SubTask>,
}

/// Result of one local relaxation step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalRelax {
    /// Sup-norm of the local successive difference (drives convergence).
    pub local_diff: f64,
    /// Number of grid points (work units) relaxed, used by the compute model
    /// to charge virtual time.
    pub work_points: u64,
}

/// Reusable scratch buffers for encoding outgoing boundary updates without
/// per-exchange heap allocation.
///
/// The engine owns one sink per peer and drives the hot path through it:
/// [`FrameSink::begin`] recycles last round's frames and records the
/// generation tag, the task appends one frame per destination with
/// [`FrameSink::frame`] (the 4-byte little-endian tag is pre-written, so the
/// task serializes its update payload directly behind it), and the engine
/// drains the frames with [`FrameSink::take`] / returns the buffers with
/// [`FrameSink::recycle`]. In steady state every buffer has warmed up to its
/// peak size and the whole encode path allocates nothing.
#[derive(Debug, Default)]
pub struct FrameSink {
    /// Frames encoded this round: `(destination rank, tag + payload bytes)`.
    frames: Vec<(usize, Vec<u8>)>,
    /// Spare buffers kept warm across rounds.
    pool: Vec<Vec<u8>>,
    /// The generation tag pre-written into every frame.
    tag: [u8; 4],
}

impl FrameSink {
    /// An empty sink (buffers warm up over the first rounds).
    pub fn new() -> Self {
        Self::default()
    }

    /// Start an encode round: recycle any frames left from the previous
    /// round and pre-select the generation tag for the new frames.
    pub fn begin(&mut self, generation: u32) {
        for (_, buf) in self.frames.drain(..) {
            // The capacity-0 placeholders `take` leaves behind would poison
            // the pool (handing them out forces a regrow every round).
            if buf.capacity() > 0 {
                self.pool.push(buf);
            }
        }
        self.tag = generation.to_le_bytes();
    }

    /// Append a frame for `dst` and return its buffer, positioned right
    /// after the pre-written generation tag. The task serializes its update
    /// payload into it.
    pub fn frame(&mut self, dst: usize) -> &mut Vec<u8> {
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(&self.tag);
        self.frames.push((dst, buf));
        &mut self.frames.last_mut().expect("frame just pushed").1
    }

    /// Number of frames encoded this round.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the current round has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Take the frame at `index` out of the round (the buffer is replaced by
    /// an empty one; hand it back through [`FrameSink::recycle`] once the
    /// wire no longer needs it).
    pub fn take(&mut self, index: usize) -> (usize, Vec<u8>) {
        let (dst, buf) = &mut self.frames[index];
        (*dst, std::mem::take(buf))
    }

    /// Destination and encoded length of the frame at `index`.
    pub fn peek(&self, index: usize) -> (usize, usize) {
        let (dst, buf) = &self.frames[index];
        (*dst, buf.len())
    }

    /// Return a buffer to the pool so the next round reuses its capacity.
    pub fn recycle(&mut self, mut buf: Vec<u8>) {
        buf.clear();
        self.pool.push(buf);
    }
}

/// The per-peer computation created by `Calculate()`.
///
/// The environment repeatedly calls [`IterativeTask::relax`], sends the
/// updates [`IterativeTask::encode_outgoing`] lays down through P2PSAP
/// (`P2P_Send`), and feeds received updates back through
/// [`IterativeTask::incorporate`] (`P2P_Receive`), until global convergence.
pub trait IterativeTask: Send {
    /// Perform one local relaxation over the peer's sub-blocks.
    fn relax(&mut self) -> LocalRelax;

    /// Encode the updates of the latest relaxation into `sink`, one frame
    /// per destination, without allocating in steady state: the task
    /// serializes each update payload straight into the buffer
    /// [`FrameSink::frame`] returns (`P2P_Send`). The caller has already
    /// called [`FrameSink::begin`].
    fn encode_outgoing(&mut self, sink: &mut FrameSink);

    /// The updates of the latest relaxation as `(destination rank, payload)`
    /// pairs: [`IterativeTask::encode_outgoing`] into a fresh sink with the
    /// generation tag stripped. Allocates per call — for tests and tools;
    /// the runtimes drive `encode_outgoing`.
    fn outgoing(&mut self) -> Vec<(usize, Vec<u8>)> {
        let mut sink = FrameSink::new();
        self.encode_outgoing(&mut sink);
        let FrameSink { frames, tag, .. } = sink;
        let untagged = |(dst, frame): (usize, Vec<u8>)| (dst, frame[tag.len()..].to_vec());
        frames.into_iter().map(untagged).collect()
    }

    /// Incorporate an update received from peer `from`. Returns the sup-norm
    /// magnitude of the change the update introduced (0.0 when unknown or
    /// nothing changed); asynchronous convergence detection uses it to reject
    /// "convergence" on boundary data that is still moving.
    fn incorporate(&mut self, from: usize, payload: &[u8]) -> f64;

    /// Ranks of the peers this task exchanges updates with.
    fn neighbors(&self) -> Vec<usize>;

    /// Serialized local result, collected by the task manager at the end.
    fn result(&self) -> Vec<u8>;

    /// Number of relaxations performed so far.
    fn relaxations(&self) -> u64;

    /// Serialized checkpoint of the task's live state, deposited with the
    /// run's fault manager by the volatility subsystem. Defaults to
    /// [`IterativeTask::result`], which already captures the local iterate.
    fn checkpoint_state(&self) -> Vec<u8> {
        self.result()
    }

    /// Restore the task from a checkpoint produced by
    /// [`IterativeTask::checkpoint_state`], resetting the relaxation counter
    /// to `iteration`. Returns `false` when the task does not support
    /// restoration (the default) — recovery then resumes from the live
    /// state instead of the checkpoint.
    fn restore(&mut self, _state: &[u8], _iteration: u64) -> bool {
        false
    }
}

/// Parse a scheme name as passed on the `run` command line
/// ("synchronous" / "asynchronous" / "hybrid").
pub fn parse_scheme(s: &str) -> Option<Scheme> {
    match s {
        "synchronous" => Some(Scheme::Synchronous),
        "asynchronous" => Some(Scheme::Asynchronous),
        "hybrid" => Some(Scheme::Hybrid),
        _ => None,
    }
}

/// A P2PDC application: the three functions of the programming model.
pub trait Application: Send + Sync {
    /// Application name.
    fn name(&self) -> &str;

    /// `Problem_Definition()`: split the problem into sub-tasks and choose
    /// the scheme and peer count. `params` carries the owner parameters
    /// passed on the `run` command line; a definition they make impossible
    /// (a peer count the problem cannot be split into) is an error that
    /// says why.
    fn problem_definition(&self, params: &serde_json::Value) -> Result<ProblemDefinition, String>;

    /// `Calculate()`: build the per-peer computation for `rank`.
    fn calculate(&self, definition: &ProblemDefinition, rank: usize) -> Box<dyn IterativeTask>;

    /// `Results_Aggregation()`: combine the per-peer results into the final
    /// output.
    fn results_aggregation(&self, results: &[(usize, Vec<u8>)]) -> Vec<u8>;
}

/// Builds a workload for a peer count.
type WorkloadFactory = dyn Fn(usize) -> Box<dyn Workload> + Send + Sync;

/// The [`Application`] of a [`Workload`]: the paper's three functions,
/// written once for every workload.
///
/// * `Problem_Definition()` applies the `peers` / `scheme` command-line
///   overrides and splits the workload's item space (planes, rows,
///   vertices — its [`crate::workload::Repartitioner`]) into one balanced
///   `{"start", "count"}` range per peer.
/// * `Calculate()` is [`Workload::task`] on the workload built for the
///   defined peer count.
/// * `Results_Aggregation()` is [`Workload::assemble`], written out as
///   little-endian `f64` bytes.
pub struct WorkloadApp {
    build: Box<WorkloadFactory>,
    /// The workload at the default peer count: name, item space, assembly.
    default: Box<dyn Workload>,
    scheme: Scheme,
}

impl WorkloadApp {
    /// The application of the workloads `build` makes, defaulting to
    /// `peers` peers and `scheme` when the command line does not override
    /// them.
    pub fn new(
        build: impl Fn(usize) -> Box<dyn Workload> + Send + Sync + 'static,
        peers: usize,
        scheme: Scheme,
    ) -> Self {
        Self {
            default: build(peers),
            build: Box::new(build),
            scheme,
        }
    }
}

impl Application for WorkloadApp {
    fn name(&self) -> &str {
        self.default.name()
    }

    fn problem_definition(&self, params: &serde_json::Value) -> Result<ProblemDefinition, String> {
        let peers = params
            .get("peers")
            .and_then(|v| v.as_u64())
            .map_or(self.default.peers(), |v| v as usize);
        let scheme = params
            .get("scheme")
            .and_then(|v| v.as_str())
            .and_then(parse_scheme)
            .unwrap_or(self.scheme);
        let name = self.name();
        let space = self
            .default
            .repartitioner()
            .ok_or_else(|| format!("{name} cannot be split into sub-tasks"))?;
        let (base, count) = (space.item_base(), space.items());
        if !(1..=count).contains(&peers) {
            return Err(format!(
                "{peers} peers cannot split the {count} items of {name}"
            ));
        }
        let subtasks = (0..peers)
            .map(|rank| {
                let (offset, len) = balanced_partition(count, peers, rank);
                let range = serde_json::json!({"start": base + offset, "count": len});
                let data = serde_json::to_vec(&range).expect("subtask serialization");
                SubTask { rank, data }
            })
            .collect();
        Ok(ProblemDefinition {
            app_name: name.to_string(),
            scheme,
            peers_needed: peers,
            subtasks,
        })
    }

    fn calculate(&self, definition: &ProblemDefinition, rank: usize) -> Box<dyn IterativeTask> {
        (self.build)(definition.peers_needed).task(rank)
    }

    fn results_aggregation(&self, results: &[(usize, Vec<u8>)]) -> Vec<u8> {
        let solution = self.default.assemble(results);
        solution.iter().flat_map(|v| v.to_le_bytes()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadKind;

    #[test]
    fn programming_model_round_trip() {
        let app = WorkloadApp::new(
            |peers| WorkloadKind::Heat.build(6, peers),
            2,
            Scheme::Asynchronous,
        );
        assert_eq!(app.name(), "heat");
        let def = app.problem_definition(&serde_json::json!({})).unwrap();
        assert_eq!(def.peers_needed, 2);
        assert_eq!(def.scheme, Scheme::Asynchronous);
        assert_eq!(def.subtasks.len(), 2);
        let mut tasks: Vec<_> = (0..2).map(|rank| app.calculate(&def, rank)).collect();
        assert_eq!(tasks[0].neighbors(), vec![1]);
        assert!(
            tasks[0].relax().local_diff > 0.0,
            "the hot edge moves the plate"
        );
        assert_eq!(tasks[0].relaxations(), 1);
        let results: Vec<(usize, Vec<u8>)> = tasks
            .iter()
            .enumerate()
            .map(|(rank, task)| (rank, task.result()))
            .collect();
        let solution = WorkloadKind::Heat.build(6, 2).assemble(&results);
        let expected: Vec<u8> = solution.iter().flat_map(|v| v.to_le_bytes()).collect();
        assert_eq!(app.results_aggregation(&results), expected);
        assert_eq!(expected.len(), 6 * 6 * 8, "the whole plate");
    }

    /// `Calculate()` builds the task of the *defined* decomposition, not
    /// of the default one: an override to 4 peers gives rank 1 two
    /// neighbours and rank 3 one.
    #[test]
    fn calculate_builds_the_task_for_the_defined_peer_count() {
        let app = WorkloadApp::new(
            |peers| WorkloadKind::Heat.build(12, peers),
            2,
            Scheme::Synchronous,
        );
        let def = app
            .problem_definition(&serde_json::json!({"peers": 4}))
            .unwrap();
        assert_eq!(app.calculate(&def, 1).neighbors(), vec![0, 2]);
        assert_eq!(app.calculate(&def, 3).neighbors(), vec![2]);
    }
}
