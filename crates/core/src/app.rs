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
/// ("synchronous" / "asynchronous" / "hybrid"); shared by every
/// application's `Problem_Definition()` override handling.
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
    /// passed on the `run` command line.
    fn problem_definition(&self, params: &serde_json::Value) -> ProblemDefinition;

    /// `Calculate()`: build the per-peer computation for `rank`.
    fn calculate(&self, definition: &ProblemDefinition, rank: usize) -> Box<dyn IterativeTask>;

    /// `Results_Aggregation()`: combine the per-peer results into the final
    /// output.
    fn results_aggregation(&self, results: &[(usize, Vec<u8>)]) -> Vec<u8>;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal application used to exercise the trait object plumbing.
    struct CountdownApp;

    struct CountdownTask {
        rank: usize,
        remaining: u64,
        done: u64,
    }

    impl IterativeTask for CountdownTask {
        fn relax(&mut self) -> LocalRelax {
            if self.remaining > 0 {
                self.remaining -= 1;
            }
            self.done += 1;
            LocalRelax {
                local_diff: self.remaining as f64,
                work_points: 1,
            }
        }
        fn encode_outgoing(&mut self, sink: &mut FrameSink) {
            sink.frame((self.rank + 1) % 2).push(self.remaining as u8);
        }
        fn incorporate(&mut self, _from: usize, _payload: &[u8]) -> f64 {
            0.0
        }
        fn neighbors(&self) -> Vec<usize> {
            vec![(self.rank + 1) % 2]
        }
        fn result(&self) -> Vec<u8> {
            vec![self.remaining as u8]
        }
        fn relaxations(&self) -> u64 {
            self.done
        }
    }

    impl Application for CountdownApp {
        fn name(&self) -> &str {
            "countdown"
        }
        fn problem_definition(&self, params: &serde_json::Value) -> ProblemDefinition {
            let start = params.get("start").and_then(|v| v.as_u64()).unwrap_or(3);
            ProblemDefinition {
                app_name: self.name().to_string(),
                scheme: Scheme::Asynchronous,
                peers_needed: 2,
                subtasks: (0..2)
                    .map(|rank| SubTask {
                        rank,
                        data: vec![start as u8],
                    })
                    .collect(),
            }
        }
        fn calculate(&self, definition: &ProblemDefinition, rank: usize) -> Box<dyn IterativeTask> {
            Box::new(CountdownTask {
                rank,
                remaining: definition.subtasks[rank].data[0] as u64,
                done: 0,
            })
        }
        fn results_aggregation(&self, results: &[(usize, Vec<u8>)]) -> Vec<u8> {
            results.iter().flat_map(|(_, r)| r.clone()).collect()
        }
    }

    #[test]
    fn programming_model_round_trip() {
        let app = CountdownApp;
        let def = app.problem_definition(&serde_json::json!({"start": 2}));
        assert_eq!(def.peers_needed, 2);
        assert_eq!(def.subtasks.len(), 2);
        let mut task = app.calculate(&def, 0);
        let r1 = task.relax();
        assert_eq!(r1.local_diff, 1.0);
        let r2 = task.relax();
        assert_eq!(r2.local_diff, 0.0);
        assert_eq!(task.relaxations(), 2);
        assert_eq!(task.neighbors(), vec![1]);
        let aggregated = app.results_aggregation(&[(0, task.result()), (1, vec![9])]);
        assert_eq!(aggregated, vec![0, 9]);
    }
}
