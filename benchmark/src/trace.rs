//! Spans at the application boundary, recorded from outside the program.
//!
//! [`TracedWorkload`] wraps a [`Workload`] through its public traits: every
//! task it hands the backend brackets `relax` / `encode_outgoing` /
//! `incorporate` / `checkpoint_state` / `restore` with a span kept in a
//! per-task buffer (no lock, no allocation beyond the buffer's growth), and
//! the wrapper itself brackets `assemble` and `residual`. Buffers are merged
//! into the shared sink once, when the backend drops the task. The caller
//! adds the root `solve` span; its self time is everything the program did
//! outside the application: runtime, transport, control plane and idle.

use p2pdc::app::{FrameSink, IterativeTask, LocalRelax};
use p2pdc::workload::Repartitioner;
use p2pdc::Workload;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer boundary the span brackets (`solve`, `relax`, `encode`, …).
    pub name: &'static str,
    /// Start, nanoseconds since the epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// The solve that caused the span (its parent and shared identifier).
    pub solve: u32,
    /// Rank of the peer the span belongs to (`u32::MAX` for the root and the
    /// workload-level spans).
    pub rank: u32,
    /// Frames and bytes an `encode` span produced; 0 elsewhere.
    pub frames: u32,
    /// See `frames`.
    pub bytes: u32,
}

/// Rank recorded on spans that belong to no peer.
pub const NO_RANK: u32 = u32::MAX;

/// Span names.
pub mod names {
    /// Root span: one `run_on` call.
    pub const SOLVE: &str = "solve";
    /// `IterativeTask::relax`.
    pub const RELAX: &str = "relax";
    /// `IterativeTask::encode_outgoing`.
    pub const ENCODE: &str = "encode";
    /// `IterativeTask::incorporate`.
    pub const INCORPORATE: &str = "incorporate";
    /// `IterativeTask::checkpoint_state`.
    pub const CHECKPOINT: &str = "checkpoint";
    /// `IterativeTask::restore`.
    pub const RESTORE: &str = "restore";
    /// `Workload::assemble`.
    pub const ASSEMBLE: &str = "assemble";
    /// `Workload::residual`.
    pub const RESIDUAL: &str = "residual";
}

/// Where finished per-task buffers are merged.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a finished span directly (root and workload-level spans).
    pub fn push(&self, span: Span) {
        self.lock().push(span);
    }

    fn merge(&self, buffer: &mut Vec<Span>) {
        self.lock().append(buffer);
    }

    /// Take every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // A poisoned lock means a task panicked mid-push; the Vec is still a
        // valid list of whole spans.
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A [`Workload`] whose tasks record spans into `recorder` under the given
/// solve id.
pub struct TracedWorkload<'a> {
    inner: &'a dyn Workload,
    recorder: Arc<Recorder>,
    solve: u32,
}

impl<'a> TracedWorkload<'a> {
    /// Wrap `inner` for solve number `solve`.
    pub fn new(inner: &'a dyn Workload, recorder: Arc<Recorder>, solve: u32) -> Self {
        Self {
            inner,
            recorder,
            solve,
        }
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.recorder.now_ns();
        let out = f();
        self.recorder.push(Span {
            name,
            start_ns,
            dur_ns: self.recorder.now_ns() - start_ns,
            solve: self.solve,
            rank: NO_RANK,
            frames: 0,
            bytes: 0,
        });
        out
    }
}

impl Workload for TracedWorkload<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn peers(&self) -> usize {
        self.inner.peers()
    }

    fn task(&self, rank: usize) -> Box<dyn IterativeTask> {
        Box::new(TracedTask::new(
            self.inner.task(rank),
            Arc::clone(&self.recorder),
            self.solve,
            rank,
        ))
    }

    fn assemble(&self, results: &[(usize, Vec<u8>)]) -> Vec<f64> {
        self.timed(names::ASSEMBLE, || self.inner.assemble(results))
    }

    fn residual(&self, solution: &[f64]) -> f64 {
        self.timed(names::RESIDUAL, || self.inner.residual(solution))
    }

    fn repartitioner(&self) -> Option<Arc<dyn Repartitioner>> {
        // Recovery rebuilds tasks through the repartitioner; wrap it so the
        // rebuilt tasks keep recording.
        self.inner.repartitioner().map(|inner| {
            Arc::new(TracedRepartitioner {
                inner,
                recorder: Arc::clone(&self.recorder),
                solve: self.solve,
            }) as Arc<dyn Repartitioner>
        })
    }
}

struct TracedRepartitioner {
    inner: Arc<dyn Repartitioner>,
    recorder: Arc<Recorder>,
    solve: u32,
}

impl Repartitioner for TracedRepartitioner {
    fn items(&self) -> usize {
        self.inner.items()
    }

    fn item_base(&self) -> usize {
        self.inner.item_base()
    }

    fn item_width(&self) -> usize {
        self.inner.item_width()
    }

    fn global_canvas(&self) -> Vec<f64> {
        self.inner.global_canvas()
    }

    fn task_for(
        &self,
        rank: usize,
        parts: &[(usize, usize)],
        global: &[f64],
        iteration: u64,
    ) -> Box<dyn IterativeTask> {
        Box::new(TracedTask::new(
            self.inner.task_for(rank, parts, global, iteration),
            Arc::clone(&self.recorder),
            self.solve,
            rank,
        ))
    }
}

/// An [`IterativeTask`] that brackets the calls the runtime makes into the
/// application with spans.
struct TracedTask {
    inner: Box<dyn IterativeTask>,
    recorder: Arc<Recorder>,
    buffer: Vec<Span>,
    solve: u32,
    rank: u32,
}

impl TracedTask {
    fn new(
        inner: Box<dyn IterativeTask>,
        recorder: Arc<Recorder>,
        solve: u32,
        rank: usize,
    ) -> Self {
        Self {
            inner,
            recorder,
            buffer: Vec::with_capacity(1024),
            solve,
            rank: rank as u32,
        }
    }

    fn record(&mut self, name: &'static str, start_ns: u64, frames: u32, bytes: u32) {
        self.buffer.push(Span {
            name,
            start_ns,
            dur_ns: self.recorder.now_ns() - start_ns,
            solve: self.solve,
            rank: self.rank,
            frames,
            bytes,
        });
    }
}

impl Drop for TracedTask {
    fn drop(&mut self) {
        self.recorder.merge(&mut self.buffer);
    }
}

impl IterativeTask for TracedTask {
    fn relax(&mut self) -> LocalRelax {
        let start = self.recorder.now_ns();
        let out = self.inner.relax();
        self.record(names::RELAX, start, 0, 0);
        out
    }

    fn outgoing(&mut self) -> Vec<(usize, Vec<u8>)> {
        self.inner.outgoing()
    }

    fn encode_outgoing(&mut self, sink: &mut FrameSink) {
        let start = self.recorder.now_ns();
        let before = sink.len();
        self.inner.encode_outgoing(sink);
        let frames = sink.len() - before;
        let bytes: usize = (before..sink.len()).map(|i| sink.peek(i).1).sum();
        self.record(names::ENCODE, start, frames as u32, bytes as u32);
    }

    fn incorporate(&mut self, from: usize, payload: &[u8]) -> f64 {
        let start = self.recorder.now_ns();
        let out = self.inner.incorporate(from, payload);
        self.record(names::INCORPORATE, start, 0, 0);
        out
    }

    fn neighbors(&self) -> Vec<usize> {
        self.inner.neighbors()
    }

    fn result(&self) -> Vec<u8> {
        self.inner.result()
    }

    fn relaxations(&self) -> u64 {
        self.inner.relaxations()
    }

    fn checkpoint_state(&self) -> Vec<u8> {
        // `&self`: the span goes straight to the recorder (checkpoints are
        // every fifth relaxation at most, so the lock is off the hot path).
        let start_ns = self.recorder.now_ns();
        let out = self.inner.checkpoint_state();
        self.recorder.push(Span {
            name: names::CHECKPOINT,
            start_ns,
            dur_ns: self.recorder.now_ns() - start_ns,
            solve: self.solve,
            rank: self.rank,
            frames: 0,
            bytes: out.len() as u32,
        });
        out
    }

    fn restore(&mut self, state: &[u8], iteration: u64) -> bool {
        let start = self.recorder.now_ns();
        let out = self.inner.restore(state, iteration);
        self.record(names::RESTORE, start, 0, state.len() as u32);
        out
    }
}

/// Self time of `parent`: its duration minus the part of its interval that
/// `children` cover. Children may nest, overlap (two event loops) or touch;
/// covered time is counted once, and anything outside the parent is ignored.
pub fn self_time_ns(parent: &Span, children: &[Span]) -> u64 {
    let lo = parent.start_ns;
    let hi = parent.start_ns + parent.dur_ns;
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(lo), (c.start_ns + c.dur_ns).min(hi)))
        .filter(|(start, end)| end > start)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let start = start.max(cursor);
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    parent.dur_ns - covered
}

/// Serialize spans as Chrome-trace JSON (`chrome://tracing`, Perfetto):
/// one complete event per span, the peer's rank as the thread id, the solve
/// id in `args` so a solve's spans can be selected together.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 32);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let tid = if span.rank == NO_RANK {
            0
        } else {
            span.rank + 1
        };
        write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"solve\":{},\"frames\":{},\"bytes\":{}}}}}",
            span.name,
            tid,
            span.start_ns as f64 / 1e3,
            span.dur_ns as f64 / 1e3,
            span.solve,
            span.frames,
            span.bytes
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            dur_ns,
            solve: 0,
            rank: 0,
            frames: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_adjacent_and_overlapping_children_once() {
        let parent = span(names::SOLVE, 100, 1000);
        // No children: all self.
        assert_eq!(self_time_ns(&parent, &[]), 1000);
        // Adjacent children [100,300) [300,500): 400 covered.
        let adjacent = [span("a", 100, 200), span("b", 300, 200)];
        assert_eq!(self_time_ns(&parent, &adjacent), 600);
        // A child nested inside another counts once.
        let nested = [span("outer", 200, 400), span("inner", 300, 100)];
        assert_eq!(self_time_ns(&parent, &nested), 600);
        // Overlapping children from two threads: union [200,700).
        let overlapping = [span("t1", 200, 300), span("t2", 400, 300)];
        assert_eq!(self_time_ns(&parent, &overlapping), 500);
        // Children sticking out of the parent are clipped; order is free.
        let clipped = [span("late", 1000, 500), span("early", 0, 150)];
        assert_eq!(self_time_ns(&parent, &clipped), 1000 - 100 - 50);
        // Full coverage leaves nothing.
        assert_eq!(self_time_ns(&parent, &[span("all", 0, 5000)]), 0);
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let spans = [span(names::SOLVE, 0, 2_000), span(names::RELAX, 500, 1_000)];
        let json = chrome_trace_json(&spans);
        let value: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = value
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some("relax")
        );
        assert_eq!(events[1].get("dur").and_then(|d| d.as_f64()), Some(1.0));
    }
}
