//! Micro-benchmark: throughput of the projected Richardson relaxation kernel
//! (points relaxed per second), the quantity the compute model is calibrated
//! from — plus the roofline of the per-peer [`NodeState`] kernel that the
//! distributed runtimes actually execute: lane-parallel, whole and split
//! with a helper thread, vs scalar vs the bare memory streams — and the
//! hand-off a split pays.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use obstacle::{
    initial_iterate, join, kernel_interior, sweep, BlockDecomposition, NodeState, ObstacleProblem,
};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

fn bench_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("richardson_kernel");
    for n in [16usize, 32, 48] {
        let problem = ObstacleProblem::membrane(n);
        let u = initial_iterate(&problem);
        let mut next = vec![0.0; problem.len()];
        let delta = problem.optimal_delta();
        group.throughput(Throughput::Elements(problem.len() as u64));
        group.bench_with_input(BenchmarkId::new("sweep", n), &n, |b, _| {
            b.iter(|| sweep(&problem, std::hint::black_box(&u), &mut next, delta));
        });
    }
    group.finish();
}

/// The hot-path roofline: the shipping lane-parallel `NodeState::sweep`
/// against the per-point `sweep_scalar` oracle on the single-peer block (full
/// grid per sweep), beside `stream_floor` — the kernel's four streams with no
/// stencil: read `u`, `rhs`, `psi`, write `next`. The gap between `blocked`
/// and `stream_floor` is the kernel's headroom. n = 24 fits in L2; 36 and 56
/// are the grids of `obstacle-lockstep` and `obstacle-kernel`. The `blocked`
/// rows are named after the row interior this host's sweeps run
/// (`blocked-avx2` or `blocked-portable`), so two hosts' numbers are never
/// compared unawares; `blocked-<interior>` runs every sweep whole on the
/// bench thread, and `blocked-<interior>-split` lets a sweep hand part of
/// its planes to a helper thread, as a loopback or sim run does (only
/// blocks of two parts of `SPLIT_POINTS` or more are cut: at n = 24 and 36
/// the two rows run the same code). The `56/2-peers` rows sweep
/// `obstacle-kernel`'s two 28-plane peer blocks in turn, as loopback does.
fn bench_node_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("node_kernel");
    let blocked = format!("blocked-{}", kernel_interior());
    let split = format!("{blocked}-split");
    for n in [24usize, 36, 56] {
        let problem = ObstacleProblem::membrane(n);
        let decomp = BlockDecomposition::balanced(n, 1);
        let delta = problem.optimal_delta();
        let mut state = NodeState::new(&problem, &decomp, 0);
        group.throughput(Throughput::Elements(state.local_len() as u64));
        for (name, helpers) in [(&blocked, false), (&split, true)] {
            join::allow_helpers(helpers);
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| std::hint::black_box(state.sweep(&problem, delta)));
            });
        }
        join::allow_helpers(true);
        let mut state = NodeState::new(&problem, &decomp, 0);
        group.bench_with_input(BenchmarkId::new("scalar", n), &n, |b, _| {
            b.iter(|| std::hint::black_box(state.sweep_scalar(&problem, delta)));
        });
        let u = initial_iterate(&problem);
        let mut next = vec![0.0; problem.len()];
        group.bench_with_input(BenchmarkId::new("stream_floor", n), &n, |b, _| {
            b.iter(|| {
                let streams = std::hint::black_box(&u).iter().zip(&problem.rhs);
                for ((out, (u, rhs)), psi) in next.iter_mut().zip(streams).zip(&problem.psi) {
                    *out = u + rhs + psi;
                }
                std::hint::black_box(&mut next);
            });
        });
    }
    let n = 56;
    let problem = ObstacleProblem::membrane(n);
    let decomp = BlockDecomposition::balanced(n, 2);
    let delta = problem.optimal_delta();
    let mut peers: Vec<NodeState> = (0..2)
        .map(|r| NodeState::new(&problem, &decomp, r))
        .collect();
    group.throughput(Throughput::Elements(problem.len() as u64));
    for (name, helpers) in [(&blocked, false), (&split, true)] {
        join::allow_helpers(helpers);
        group.bench_with_input(BenchmarkId::new(name, "56/2-peers"), &n, |b, _| {
            b.iter(|| {
                for peer in &mut peers {
                    std::hint::black_box(peer.sweep(&problem, delta));
                }
            });
        });
    }
    join::allow_helpers(true);
    group.finish();
}

/// The hand-off a split sweep pays, which sets `SPLIT_POINTS`: from the
/// caller entering `join` to the lent closure starting on the helper,
/// median and 90th percentile of 400 hand-offs, after the helper has been
/// parked for 10 µs (a loopback run's sweeps follow each other that
/// closely) and for 200 µs (idle long enough for its core to sleep).
/// Prints nothing on a host without a helper.
fn bench_handoff(_: &mut Criterion) {
    if join::helpers() == 0 {
        return;
    }
    for parked_us in [10, 200] {
        let parked = Duration::from_micros(parked_us);
        let mut samples: Vec<u64> = (0..400)
            .map(|_| {
                let idle = Instant::now();
                while idle.elapsed() < parked {
                    std::hint::spin_loop();
                }
                // The caller waits for the helper to start, so it does not
                // take the closure back.
                let started = OnceLock::new();
                let t0 = Instant::now();
                join::join(
                    || while started.get().is_none() {},
                    || started.get_or_init(Instant::now),
                );
                let started = *started.get().expect("the lent closure ran");
                started.duration_since(t0).as_nanos() as u64
            })
            .collect();
        samples.sort_unstable();
        let at = |q: usize| samples[samples.len() * q / 100];
        let name = format!("handoff/parked-{parked_us}us");
        println!(
            "bench join/{name:<45} {:>14} ns p50 {:>10} ns p90",
            at(50),
            at(90)
        );
    }
}

criterion_group!(benches, bench_kernel, bench_node_kernels, bench_handoff);
criterion_main!(benches);
