//! The measured pass: a closed loop of back-to-back solves — one client,
//! the next solve starts when the previous one returned — for a fixed wall
//! time, with the system allocator and no spans.

use crate::metrics::Metrics;
use crate::solve::{report, timed_solve, Event, Progress, Sample, WARMUP_SOLVES};
use crate::stats::{batched_median, median, percentile, samples_beyond, MIN_BEYOND};
use crate::sys;
use crate::workloads::{Reference, Spec};
use std::time::{Duration, Instant};

/// Consecutive solves averaged into one sample of the two p50 metrics (see
/// [`batched_median`]).
pub const P50_BATCH: usize = 4;

/// One `setup_s` sample repeats the construction until it has run this
/// long, so a 30 µs construction is not timed by a single clock read.
const SETUP_SAMPLE_MIN: Duration = Duration::from_millis(2);

/// Seconds of what a user pays before `run_on` — building the workload and
/// the task of every rank — as the mean of a few back-to-back constructions.
/// One sample is taken before every solve, so `setup_s` (their median) sees
/// the same spread of machine conditions over the window as the solves do.
pub fn setup_sample(spec: &Spec) -> f64 {
    let started = Instant::now();
    let mut constructions = 0u32;
    while constructions == 0 || started.elapsed() < SETUP_SAMPLE_MIN {
        let workload = spec.build();
        for rank in 0..spec.peers {
            std::hint::black_box(workload.task(rank));
        }
        constructions += 1;
    }
    started.elapsed().as_secs_f64() / f64::from(constructions)
}

/// Run the pass; every solve is reported through `progress` as it finishes.
pub fn run(spec: &Spec, seed: u64, seconds: f64, max_solves: Option<u64>, progress: &Progress) {
    let workload = spec.build();
    let reference = Reference::compute(spec, workload.as_ref());
    report(progress, Event::Progress);
    for solve in 0..WARMUP_SOLVES {
        timed_solve(spec, workload.as_ref(), &spec.config(seed, solve));
        report(progress, Event::Progress);
    }
    let window = Instant::now();
    let mut solve = WARMUP_SOLVES;
    let last = max_solves.map_or(u64::MAX, |n| WARMUP_SOLVES + n);
    while window.elapsed().as_secs_f64() < seconds && solve < last {
        let setup_s = setup_sample(spec);
        let outcome = timed_solve(spec, workload.as_ref(), &spec.config(seed, solve));
        let mut sample = outcome.sample(spec, &reference);
        sample.setup_s = setup_s;
        report(progress, Event::Solved(sample));
        solve += 1;
    }
}

/// The end-to-end metrics of the samples collected so far. Failed solves
/// keep their place in the count but not in the timings — a solve without a
/// checked answer has no time-to-solution — unless every solve failed; with
/// no sample at all the timings and `setup_s` read `fallback_s` (the watchdog's limit).
pub fn end_to_end(samples: &[Sample], fallback_s: f64) -> Metrics {
    let mut timed: Vec<&Sample> = samples.iter().filter(|s| s.failure.is_none()).collect();
    if timed.is_empty() {
        timed = samples.iter().collect();
    }
    let wall: Vec<f64> = timed.iter().map(|s| s.wall_s).collect();
    let cpu: Vec<f64> = timed.iter().map(|s| s.cpu_s).collect();
    let mut metrics = Metrics::default();
    if wall.is_empty() {
        for name in ["solve_s_p50", "solve_cpu_s_p50", "setup_s"] {
            metrics.set(name, fallback_s);
        }
    } else {
        metrics.set("solve_s_p50", batched_median(&wall, P50_BATCH));
        metrics.set("solve_cpu_s_p50", batched_median(&cpu, P50_BATCH));
        let setup: Vec<f64> = samples.iter().map(|s| s.setup_s).collect();
        metrics.set("setup_s", median(&setup));
    }
    metrics.set("peak_rss_mb", sys::peak_rss_mib());
    metrics
}

/// The checked solves' single-solve wall times.
fn checked_walls(samples: &[Sample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.failure.is_none())
        .map(|s| s.wall_s)
        .collect()
}

/// The [`crate::metrics::REPORTED`] metrics of the same samples: the
/// single-solve tail, the median crash → recovered time of the solves that
/// recovered (0 on a workload without crashes) and `failed` ÷ `attempted`
/// (the watchdog's counts: a wedged solve has no sample).
pub fn reported(samples: &[Sample], attempted: usize, failed: usize) -> Metrics {
    let wall = checked_walls(samples);
    let downtimes: Vec<f64> = samples
        .iter()
        .filter(|s| s.failure.is_none() && s.downtime_s > 0.0)
        .map(|s| s.downtime_s)
        .collect();
    let or_zero = |values: &[f64], p: f64| {
        if values.is_empty() {
            0.0
        } else {
            percentile(values, p)
        }
    };
    let mut metrics = Metrics::default();
    metrics.set("solve_s_p90", or_zero(&wall, 90.0));
    metrics.set("recovery_s_p50", or_zero(&downtimes, 50.0));
    metrics.set("failed_share", failed as f64 / attempted.max(1) as f64);
    metrics
}

/// The sample count behind the reported tail, for the human-readable report.
pub fn notes(samples: &[Sample]) -> Vec<String> {
    let n = checked_walls(samples).len();
    let beyond = samples_beyond(n.max(1), 90.0);
    let mut notes = vec![format!("n = {n} checked solves, {beyond} beyond the p90")];
    if beyond < MIN_BEYOND {
        notes.push(format!(
            "the window held fewer than 100 solves: a tail percentile wants {MIN_BEYOND} samples beyond it"
        ));
    }
    notes
}
