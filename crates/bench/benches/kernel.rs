//! Micro-benchmark: throughput of the projected Richardson relaxation kernel
//! (points relaxed per second), the quantity the compute model is calibrated
//! from — plus the roofline of the per-peer [`NodeState`] kernel that the
//! distributed runtimes actually execute: lane-parallel vs scalar vs the
//! bare memory streams.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use obstacle::{
    initial_iterate, kernel_interior, sweep, BlockDecomposition, NodeState, ObstacleProblem,
};

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
/// compared unawares.
fn bench_node_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("node_kernel");
    let blocked = format!("blocked-{}", kernel_interior());
    for n in [24usize, 36, 56] {
        let problem = ObstacleProblem::membrane(n);
        let decomp = BlockDecomposition::balanced(n, 1);
        let delta = problem.optimal_delta();
        let mut state = NodeState::new(&problem, &decomp, 0);
        group.throughput(Throughput::Elements(state.local_len() as u64));
        group.bench_with_input(BenchmarkId::new(&blocked, n), &n, |b, _| {
            b.iter(|| std::hint::black_box(state.sweep(&problem, delta)));
        });
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
    group.finish();
}

criterion_group!(benches, bench_kernel, bench_node_kernels);
criterion_main!(benches);
