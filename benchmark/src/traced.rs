//! The traced pass: per-layer numbers for one workload.
//!
//! (a) real solves with spans at the application boundary, alternating with
//! untraced ones so the tracing overhead is measured under the same machine
//! conditions; (b) layer probes; (c) the counters the program already
//! exports, reset and read around every solve; (d) diagnostic side cells;
//! (e) the reconciliation of probes × counts against the runtime's CPU.

use crate::metrics::Metrics;
use crate::probes::{self, computed_bytes_per_point, ProbeResults};
use crate::solve::{report, timed_solve, Event, Progress, Solve, WARMUP_SOLVES};
use crate::stats::{mean, median};
use crate::sys::Usage;
use crate::trace::{self, names, Recorder, Span, TracedWorkload, NO_RANK};
use crate::workloads::{Reference, Spec};
use p2pdc::runtime::reactor;
use p2pdc::runtime::report_cell::contention;
use p2pdc::{allocs, gossip, run_on, RunConfig, RuntimeKind, Scheme, Workload, WorkloadKind};
use std::sync::Arc;
use std::time::Instant;

/// Share of `--seconds` spent on the alternating traced/untraced solves.
const SOLVE_WINDOW_SHARE: f64 = 0.45;
/// Traced solves whose spans are written to the Chrome-trace file (all
/// traced solves feed the metrics; the file stays small enough to open).
const SOLVES_IN_TRACE_FILE: u32 = 3;
/// A solve this slow on a reactor run spent a reliable-channel RTO waiting.
const STALL_S: f64 = 0.5;
/// A solve this slow is counted in `reactor.slow_solves`.
const SLOW_S: f64 = 1.0;
/// Solves of the 2-loop stall probe.
const STALL_PROBE_SOLVES: u64 = 20;
/// Twin solves (fault-free, centralized) the churn workload is compared with.
const TWIN_SOLVES: u64 = 10;
/// The one workload whose traced pass runs the deterministic `sim` guard:
/// the guard depends on neither the workload nor the seed, so a full set
/// runs it once.
pub const SIM_GUARD_WORKLOAD: &str = "obstacle-kernel";

/// Everything read around one solve of the traced pass.
struct Observed {
    traced: bool,
    wall_s: f64,
    cpu_s: f64,
    usage: Usage,
    allocations: u64,
    locks: contention::Counters,
    gossip: gossip::stats::Counters,
    /// `(busiest, idlest)` loop's busy share of the run's own clock.
    loop_busy: Option<(f64, f64)>,
    migrations: u64,
    /// In-clock seconds (`RunMeasurement.elapsed`); wall-clock backends only.
    elapsed_s: f64,
    relaxations: u64,
    min_relaxations: u64,
    points: u64,
    recoveries: u64,
    downtime_s: f64,
    spans: SpanTotals,
    /// Self time of the root `solve` span: wall nanoseconds during which no
    /// thread was inside the application (0 when untraced).
    root_self_ns: u64,
}

/// Per-solve sums over the spans of one traced solve (zeros when untraced).
#[derive(Default, Clone, Copy)]
struct SpanTotals {
    relax_ns: u64,
    encode_ns: u64,
    incorporate_ns: u64,
    checkpoint_ns: u64,
    restore_ns: u64,
    assemble_ns: u64,
    residual_ns: u64,
    relax_calls: u64,
    frames: u64,
    frame_bytes: u64,
}

impl SpanTotals {
    fn of(spans: &[Span]) -> Self {
        let mut t = Self::default();
        for span in spans {
            match span.name {
                names::RELAX => {
                    t.relax_ns += span.dur_ns;
                    t.relax_calls += 1;
                }
                names::ENCODE => {
                    t.encode_ns += span.dur_ns;
                    t.frames += u64::from(span.frames);
                    t.frame_bytes += u64::from(span.bytes);
                }
                names::INCORPORATE => t.incorporate_ns += span.dur_ns,
                names::CHECKPOINT => t.checkpoint_ns += span.dur_ns,
                names::RESTORE => t.restore_ns += span.dur_ns,
                names::ASSEMBLE => t.assemble_ns += span.dur_ns,
                names::RESIDUAL => t.residual_ns += span.dur_ns,
                _ => {}
            }
        }
        t
    }

    /// Nanoseconds spent inside the application, all spans.
    fn app_ns(&self) -> u64 {
        self.relax_ns
            + self.encode_ns
            + self.incorporate_ns
            + self.checkpoint_ns
            + self.restore_ns
            + self.assemble_ns
            + self.residual_ns
    }
}

/// Run one solve with every exported counter reset before and read after.
/// With a recorder the solve runs through [`TracedWorkload`] and its spans
/// (root included) are returned.
fn observed_solve(
    spec: &Spec,
    workload: &dyn Workload,
    config: &RunConfig,
    tracing: Option<(&Arc<Recorder>, u32)>,
) -> (Solve, Observed, Vec<Span>) {
    contention::reset();
    gossip::stats::reset();
    let allocs_before = allocs::counters();
    let usage_before = Usage::now();
    let (solve, spans, root_self_ns) = match tracing {
        Some((recorder, id)) => {
            let start_ns = recorder.now_ns();
            let traced = TracedWorkload::new(workload, Arc::clone(recorder), id);
            let solve = timed_solve(spec, &traced, config);
            let root = Span {
                name: names::SOLVE,
                start_ns,
                dur_ns: recorder.now_ns() - start_ns,
                solve: id,
                rank: NO_RANK,
                frames: 0,
                bytes: 0,
            };
            let mut spans = recorder.take();
            let root_self_ns = trace::self_time_ns(&root, &spans);
            spans.push(root);
            (solve, spans, root_self_ns)
        }
        None => (timed_solve(spec, workload, config), Vec::new(), 0),
    };
    let usage = Usage::now().since(&usage_before);
    let allocations = allocs::counters().since(allocs_before).allocations;
    let measurement = solve.result.as_ref().ok().map(|r| &r.measurement);
    let wall_clock = spec.runtime == RuntimeKind::Reactor;
    let elapsed_s = measurement
        .filter(|_| wall_clock)
        .map_or(0.0, |m| m.elapsed.as_secs_f64());
    let loop_stats = wall_clock.then(reactor::last_loop_stats).flatten();
    let loop_busy = loop_stats
        .as_ref()
        .filter(|_| elapsed_s > 0.0)
        .map(|stats| {
            let share = |ns: &u64| *ns as f64 / 1e9 / elapsed_s;
            let shares: Vec<f64> = stats.busy_ns_final.iter().map(share).collect();
            (
                shares.iter().copied().fold(0.0, f64::max),
                shares.iter().copied().fold(f64::INFINITY, f64::min),
            )
        });
    let observed = Observed {
        traced: tracing.is_some(),
        wall_s: solve.wall_s,
        cpu_s: solve.cpu_s,
        usage,
        allocations,
        locks: contention::snapshot(),
        gossip: gossip::stats::snapshot(),
        loop_busy,
        migrations: loop_stats.map_or(0, |s| s.migrations),
        elapsed_s,
        relaxations: measurement.map_or(0, |m| m.total_relaxations()),
        min_relaxations: measurement.map_or(0, |m| m.min_relaxations()),
        points: measurement.map_or(0, |m| m.total_points_relaxed()),
        recoveries: measurement.map_or(0, |m| m.recoveries),
        downtime_s: measurement.map_or(0.0, |m| m.downtime_s),
        spans: SpanTotals::of(&spans),
        root_self_ns,
    };
    (solve, observed, spans)
}

/// Run the traced pass and report the per-layer metrics through `progress`.
pub fn run(spec: &Spec, seed: u64, seconds: f64, progress: &Progress) {
    let workload = spec.build();
    let reference = Reference::compute(spec, workload.as_ref());
    report(progress, Event::Progress);
    for solve in 0..WARMUP_SOLVES {
        timed_solve(spec, workload.as_ref(), &spec.config(seed, solve));
        report(progress, Event::Progress);
    }

    // (a) + (c): alternating traced / untraced solves.
    let recorder = Recorder::new();
    let mut observed = Vec::new();
    let mut file_spans = Vec::new();
    let mut traced_solves = 0u32;
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < seconds * SOLVE_WINDOW_SHARE || observed.len() % 2 == 1 {
        let tracing = (observed.len() % 2 == 0).then_some((&recorder, traced_solves));
        let config = spec.config(seed, WARMUP_SOLVES + observed.len() as u64);
        let (outcome, obs, spans) = observed_solve(spec, workload.as_ref(), &config, tracing);
        if tracing.is_some() {
            if traced_solves < SOLVES_IN_TRACE_FILE {
                file_spans.extend(spans);
            }
            traced_solves += 1;
        }
        report(progress, Event::Solved(outcome.sample(spec, &reference)));
        observed.push(obs);
    }
    write_trace_file(spec, &file_spans);

    // (b) probes, (d) side cells.
    let probed = probes::run(spec, workload.as_ref());
    report(progress, Event::Progress);
    let side = SideCells::run(spec, workload.as_ref(), seed, progress);
    let sim = (spec.name == SIM_GUARD_WORKLOAD).then(SimGuard::run);
    report(progress, Event::Progress);

    let metrics = layer_metrics(spec, &reference, &observed, &probed, &side, &sim);
    report(progress, Event::Layers(Box::new(metrics)));
}

fn write_trace_file(spec: &Spec, spans: &[Span]) {
    let dir = crate::out_dir();
    let path = dir.join(format!("trace-{}.json", spec.name));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_trace_json(spans)));
    match written {
        Ok(()) => eprintln!(
            "trace: {} spans of {SOLVES_IN_TRACE_FILE} solves in {}",
            spans.len(),
            path.display()
        ),
        Err(error) => eprintln!("trace: could not write {}: {error}", path.display()),
    }
}

/// Diagnostic cells that run beside the workload's own: the 2-loop stall
/// probe (1-loop workloads) and the churn / gossip twins.
#[derive(Default)]
struct SideCells {
    /// Share of 2-loop solves of this cell that took [`STALL_S`] or longer;
    /// `None` when the workload itself runs 2 loops (its own solves count).
    stall_share_two_loops: Option<f64>,
    /// Mean points relaxed by fault-free twins of the churn workload.
    fault_free_points: Option<f64>,
    /// Mean `min_relaxations` of fault-free twins on the gossip plane and on
    /// the centralized plane.
    decision_lag: Option<f64>,
}

impl SideCells {
    fn run(spec: &Spec, workload: &dyn Workload, seed: u64, progress: &Progress) -> Self {
        let mut cells = Self::default();
        let run = |config: RunConfig| {
            let outcome = timed_solve(spec, workload, &config);
            report(progress, Event::Progress);
            outcome
        };
        if spec.runtime == RuntimeKind::Reactor && spec.event_loops == 1 {
            let stalled = (0..STALL_PROBE_SOLVES)
                .filter(|&i| run(spec.with_event_loops(seed, i, 2)).wall_s >= STALL_S)
                .count();
            cells.stall_share_two_loops = Some(stalled as f64 / STALL_PROBE_SOLVES as f64);
        }
        if spec.churn {
            let points: Vec<f64> = (0..TWIN_SOLVES)
                .filter_map(|i| run(spec.fault_free_twin(seed, i)).result.ok())
                .map(|r| r.measurement.total_points_relaxed() as f64)
                .collect();
            cells.fault_free_points = Some(mean(&points));
        }
        if spec.gossip_fanout.is_some() {
            let min_relaxations = |centralized: bool| -> f64 {
                let counts: Vec<f64> = (0..TWIN_SOLVES)
                    .filter_map(|i| {
                        let mut config = spec.fault_free_twin(seed, i);
                        if centralized {
                            config.control_plane = p2pdc::ControlPlane::Centralized;
                        }
                        run(config).result.ok()
                    })
                    .map(|r| r.measurement.min_relaxations() as f64)
                    .collect();
                mean(&counts)
            };
            cells.decision_lag = Some(min_relaxations(false) - min_relaxations(true));
        }
        cells
    }
}

/// Two deterministic cells on the simulated backend: the same virtual time
/// must come out of every run of a commit, on any machine.
struct SimGuard {
    virtual_s_sync: f64,
    virtual_s_async: f64,
    events_per_wall_s: f64,
}

impl SimGuard {
    /// Obstacle 32³, 16 peers in 2 clusters, synchronous and asynchronous,
    /// each run twice: the repeat must reproduce the virtual time exactly.
    /// The same cell on every seed and workload, by design.
    fn run() -> Self {
        let workload = WorkloadKind::Obstacle.build(32, 16);
        let mut packets = 0u64;
        let started = Instant::now();
        let mut cell = |scheme: Scheme| -> f64 {
            let config = RunConfig::two_clusters(scheme, 16);
            let mut virtual_s = None;
            for _ in 0..2 {
                let run = run_on(workload.as_ref(), &config, RuntimeKind::Sim);
                assert!(run.measurement.converged, "sim guard cell diverged");
                let net = run.net.expect("the simulated backend reports its fabric");
                packets += net.intra.packets_sent + net.inter.packets_sent;
                let elapsed = run.measurement.elapsed.as_secs_f64();
                assert_eq!(
                    *virtual_s.get_or_insert(elapsed),
                    elapsed,
                    "the simulated backend is not deterministic"
                );
            }
            virtual_s.expect("two runs")
        };
        let virtual_s_sync = cell(Scheme::Synchronous);
        let virtual_s_async = cell(Scheme::Asynchronous);
        Self {
            virtual_s_sync,
            virtual_s_async,
            events_per_wall_s: packets as f64 / started.elapsed().as_secs_f64(),
        }
    }
}

/// The median, or 0 for no samples (a layer the workload never exercised).
fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn layer_metrics(
    spec: &Spec,
    reference: &Reference,
    observed: &[Observed],
    probed: &ProbeResults,
    side: &SideCells,
    sim: &Option<SimGuard>,
) -> Metrics {
    let traced: Vec<&Observed> = observed.iter().filter(|o| o.traced).collect();
    let untraced: Vec<&Observed> = observed.iter().filter(|o| !o.traced).collect();
    let sum =
        |set: &[&Observed], f: &dyn Fn(&Observed) -> f64| -> f64 { set.iter().map(|o| f(o)).sum() };
    let all: Vec<&Observed> = observed.iter().collect();
    let per_solve =
        |set: &[&Observed], f: &dyn Fn(&Observed) -> f64| ratio(sum(set, f), set.len() as f64);
    let secs = |ns: u64| ns as f64 / 1e9;
    let reactor_run = spec.runtime == RuntimeKind::Reactor;
    let loop_threads = spec.event_loops.max(1) as f64;

    let relaxations = sum(&all, &|o| o.relaxations as f64);
    let per_relaxation = |f: &dyn Fn(&Observed) -> f64| ratio(sum(&all, f), relaxations);
    let traced_wall = sum(&traced, &|o| o.wall_s);
    let relax_s = per_solve(&traced, &|o| secs(o.spans.relax_ns));
    let untraced_walls: Vec<f64> = untraced.iter().map(|o| o.wall_s).collect();
    let solve_s = mean(&untraced_walls);
    let runtime_cpu_s = per_solve(&traced, &|o| (o.cpu_s - secs(o.spans.app_ns())).max(0.0));

    let mut m = Metrics::default();
    // Kernel and sequential baseline.
    m.set("obstacle.sweep_ns_per_point", probed.sweep_ns_per_point);
    m.set(
        "obstacle.points_per_solve",
        per_solve(&all, &|o| o.points as f64),
    );
    m.set(
        "obstacle.gb_per_s_computed",
        ratio(
            computed_bytes_per_point(spec.kind),
            probed.sweep_ns_per_point,
        ),
    );
    m.set("obstacle.sequential_solve_s", reference.sequential_solve_s);
    m.set(
        "engine.overhead_vs_sequential",
        ratio(solve_s, reference.sequential_solve_s),
    );
    // Application boundary.
    m.set("app.relax_s_per_solve", relax_s);
    m.set(
        "app.encode_s_per_solve",
        per_solve(&traced, &|o| secs(o.spans.encode_ns)),
    );
    m.set(
        "app.incorporate_s_per_solve",
        per_solve(&traced, &|o| secs(o.spans.incorporate_ns)),
    );
    m.set(
        "app.checkpoint_s_per_solve",
        per_solve(&traced, &|o| secs(o.spans.checkpoint_ns)),
    );
    m.set(
        "app.restore_s_per_solve",
        per_solve(&traced, &|o| secs(o.spans.restore_ns)),
    );
    m.set(
        "app.relax_share_of_solve",
        ratio(sum(&traced, &|o| secs(o.spans.relax_ns)), traced_wall),
    );
    m.set("app.encode_ns_per_exchange", probed.encode_ns_per_exchange);
    m.set(
        "app.encode_allocs_per_exchange",
        probed.encode_allocs_per_exchange,
    );
    let frames = sum(&traced, &|o| o.spans.frames as f64);
    m.set(
        "app.frames_per_relaxation",
        ratio(frames, sum(&traced, &|o| o.spans.relax_calls as f64)),
    );
    m.set(
        "app.bytes_per_frame",
        ratio(sum(&traced, &|o| o.spans.frame_bytes as f64), frames),
    );
    // Session, framing, sockets.
    // The workload's sockets run one mode; the other one reads 0.
    let (reliable_ns, unreliable_ns) = if spec.reliable() {
        (probed.roundtrip_ns, 0.0)
    } else {
        (0.0, probed.roundtrip_ns)
    };
    m.set("p2psap.roundtrip_ns_reliable", reliable_ns);
    m.set("p2psap.roundtrip_ns_unreliable", unreliable_ns);
    m.set("p2psap.allocs_per_send", probed.allocs_per_send);
    m.set("p2psap.wire_overhead_bytes", probed.wire_overhead_bytes);
    m.set("cactus.dispatch_ns", probed.cactus_dispatch_ns);
    m.set(
        "framing.encode_ns_per_datagram",
        probed.framing_encode_ns_per_datagram,
    );
    m.set(
        "framing.reassemble_ns_per_datagram",
        probed.framing_reassemble_ns_per_datagram,
    );
    m.set("framing.datagrams_per_msg", probed.datagrams_per_msg);
    m.set("framing.allocs_per_msg", probed.framing_allocs_per_msg);
    m.set(
        "socket.sendrecv_ns_per_datagram",
        probed.socket_sendrecv_ns_per_datagram,
    );
    m.set("poll.wake_ns", probed.poll_wake_ns);
    m.set(
        "proc.sys_share",
        ratio(
            sum(&all, &|o| o.usage.sys_s),
            sum(&all, &|o| o.usage.sys_s + o.usage.user_s),
        ),
    );
    m.set(
        "proc.ctx_switches_per_solve",
        per_solve(&all, &|o| o.usage.ctx_switches as f64),
    );
    // Engine.
    m.set(
        "engine.relaxations_per_solve",
        per_solve(&all, &|o| o.relaxations as f64),
    );
    m.set(
        "engine.min_relaxations_per_solve",
        per_solve(&all, &|o| o.min_relaxations as f64),
    );
    m.set("engine.runtime_cpu_s_per_solve", runtime_cpu_s);
    m.set(
        "engine.runtime_idle_s_per_solve",
        per_solve(&traced, &|o| secs(o.root_self_ns)),
    );
    m.set(
        "engine.idle_share",
        (1.0 - ratio(
            sum(&all, &|o| o.cpu_s),
            sum(&all, &|o| o.wall_s) * loop_threads,
        ))
        .max(0.0),
    );
    // Untraced solves only: the span buffers are the harness's allocations.
    m.set(
        "engine.allocs_per_relaxation",
        ratio(
            sum(&untraced, &|o| o.allocations as f64),
            sum(&untraced, &|o| o.relaxations as f64),
        ),
    );
    // Reactor.
    let out_of_clock: Vec<f64> = all
        .iter()
        .filter(|_| reactor_run)
        .map(|o| o.wall_s - o.elapsed_s)
        .collect();
    m.set("reactor.out_of_clock_s_p50", median_or_zero(&out_of_clock));
    let busy: Vec<(f64, f64)> = all.iter().filter_map(|o| o.loop_busy).collect();
    m.set(
        "reactor.loop_busy_share_max",
        ratio(busy.iter().map(|b| b.0).sum(), busy.len() as f64),
    );
    m.set(
        "reactor.loop_busy_share_min",
        ratio(busy.iter().map(|b| b.1).sum(), busy.len() as f64),
    );
    m.set(
        "reactor.migrations_per_solve",
        per_solve(&all, &|o| o.migrations as f64),
    );
    let own_stall_share = ratio(
        all.iter().filter(|o| o.wall_s >= STALL_S).count() as f64,
        all.len() as f64,
    );
    m.set(
        "reactor.startup_stall_share",
        match side.stall_share_two_loops {
            Some(share) => share,
            None if reactor_run => own_stall_share,
            None => 0.0,
        },
    );
    m.set(
        "reactor.solve_s_max",
        all.iter().map(|o| o.wall_s).fold(0.0, f64::max),
    );
    m.set(
        "reactor.slow_solves",
        all.iter().filter(|o| o.wall_s > SLOW_S).count() as f64,
    );
    // Control plane.
    m.set("detector.publish_ns", probed.detector_publish_ns);
    m.set(
        "detector.locks_per_relaxation",
        per_relaxation(&|o| o.locks.detector_locks as f64),
    );
    m.set(
        "detector.report_locks_per_relaxation",
        per_relaxation(&|o| o.locks.detector_report_locks as f64),
    );
    m.set(
        "volatility.sweep_locks_per_relaxation",
        per_relaxation(&|o| o.locks.volatility_sweep_locks as f64),
    );
    m.set(
        "topology.locks_per_relaxation",
        per_relaxation(&|o| o.locks.topology_locks as f64),
    );
    m.set("topology.ping_many_ns", probed.topology_ping_many_ns);
    m.set("churn.checkpoint_ns", probed.churn_checkpoint_ns);
    m.set("churn.checkpoint_bytes", probed.churn_checkpoint_bytes);
    m.set("churn.restore_ns", probed.churn_restore_ns);
    m.set(
        "churn.recoveries_per_solve",
        per_solve(&all, &|o| o.recoveries as f64),
    );
    let downtimes: Vec<f64> = all
        .iter()
        .filter(|o| o.recoveries > 0)
        .map(|o| o.downtime_s)
        .collect();
    m.set("churn.recovery_s_p50", median_or_zero(&downtimes));
    m.set(
        "churn.overhead_relaxations_pct",
        side.fault_free_points.map_or(0.0, |twin| {
            (ratio(per_solve(&all, &|o| o.points as f64), twin) - 1.0) * 100.0
        }),
    );
    // Gossip.
    let probes_sent = sum(&all, &|o| o.gossip.probes_sent as f64);
    m.set("gossip.codec_encode_ns", probed.gossip_encode_ns);
    m.set("gossip.codec_decode_ns", probed.gossip_decode_ns);
    m.set("gossip.datagram_bytes", probed.gossip_datagram_bytes);
    m.set(
        "gossip.probes_per_solve",
        ratio(probes_sent, all.len() as f64),
    );
    m.set(
        "gossip.rumors_per_solve",
        per_solve(&all, &|o| o.gossip.rumors_sent as f64),
    );
    m.set(
        "gossip.indirect_probe_share",
        ratio(sum(&all, &|o| o.gossip.indirect_probes as f64), probes_sent),
    );
    m.set(
        "gossip.death_verdicts_per_solve",
        per_solve(&all, &|o| o.gossip.death_verdicts as f64),
    );
    m.set(
        "gossip.decision_lag_relaxations",
        side.decision_lag.unwrap_or(0.0),
    );
    // Workload.
    m.set(
        "workload.assemble_ns",
        per_solve(&traced, &|o| o.spans.assemble_ns as f64),
    );
    m.set(
        "workload.residual_ns",
        per_solve(&traced, &|o| o.spans.residual_ns as f64),
    );
    // Model guard (0 on the workloads whose pass does not run it).
    let sim = |f: &dyn Fn(&SimGuard) -> f64| sim.as_ref().map_or(0.0, f);
    m.set("sim.virtual_s_sync_2c16", sim(&|s| s.virtual_s_sync));
    m.set("sim.virtual_s_async_2c16", sim(&|s| s.virtual_s_async));
    m.set("sim.events_per_wall_s", sim(&|s| s.events_per_wall_s));
    // Validity: tracing overhead and how much of the runtime's CPU the
    // probes explain. Spans cost CPU, so the overhead is read off the CPU
    // medians: wall time carries the 24 ms return tick and the odd 600 ms
    // stall, either of which would swamp a percent-sized effect in ~25
    // solves a side.
    let cpu_median =
        |set: &[&Observed]| median_or_zero(&set.iter().map(|o| o.cpu_s).collect::<Vec<f64>>());
    m.set(
        "trace.overhead_share",
        ratio(cpu_median(&traced), cpu_median(&untraced)) - 1.0,
    );
    m.set(
        "model.unattributed_share",
        1.0 - ratio(attributed_runtime_s(spec, probed, &traced), runtime_cpu_s),
    );
    m
}

/// Probe cost × operation count, summed over the layers between the
/// application and the kernel, per solve: what the runtime's CPU time would
/// be if every layer cost exactly what its probe measured in isolation.
fn attributed_runtime_s(spec: &Spec, probed: &ProbeResults, traced: &[&Observed]) -> f64 {
    let solves = traced.len() as f64;
    let per_solve = |f: &dyn Fn(&Observed) -> f64| ratio(traced.iter().map(|o| f(o)).sum(), solves);
    let sends = per_solve(&|o| o.spans.frames as f64);
    let relaxations = per_solve(&|o| o.relaxations as f64);
    let gossip_messages = per_solve(&|o| (o.gossip.probes_sent * 2) as f64);
    let session_ns = sends * probed.roundtrip_ns;
    let wire_ns = if spec.runtime == RuntimeKind::Reactor {
        // Every data datagram is framed, sent, polled for, received and
        // reassembled once; the reliable modes answer each segment with a
        // single-datagram acknowledgement.
        let data = sends * probed.datagrams_per_msg;
        let acks = if spec.reliable() { sends } else { 0.0 };
        data * (probed.framing_encode_ns_per_datagram + probed.framing_reassemble_ns_per_datagram)
            + (data + acks) * probed.socket_sendrecv_ns_per_datagram
            + (sends + acks) * probed.poll_wake_ns
    } else {
        0.0
    };
    let control_ns = relaxations * probed.detector_publish_ns
        + gossip_messages
            * (probed.gossip_encode_ns
                + probed.gossip_decode_ns
                + probed.socket_sendrecv_ns_per_datagram);
    (session_ns + wire_ns + control_ns) / 1e9
}
