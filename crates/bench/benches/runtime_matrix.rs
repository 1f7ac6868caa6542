//! Bench: every workload timed on each runtime backend (sim, threads,
//! loopback, udp, reactor) under the synchronous scheme. The interesting
//! quantity is the harness overhead each substrate adds around the identical
//! `PeerEngine` work — loopback is the floor, UDP shows the real kernel
//! socket cost — and how it scales across communication patterns (ghost
//! planes, ghost rows, rank-mass vectors).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2pdc::{run_on, RunConfig, RuntimeKind, Scheme, WorkloadKind};

fn bench_runtime_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_matrix");
    group.sample_size(10);
    // The cells of `tests/workloads_e2e.rs`'s full-grid test, so the bench
    // times what the suite checks.
    let peers = 2;
    for kind in WorkloadKind::ALL {
        let (size, tolerance) = match kind {
            WorkloadKind::Obstacle => (8, 1e-3),
            WorkloadKind::Heat => (12, 1e-3),
            WorkloadKind::PageRank => (60, 1e-6),
        };
        let workload = kind.build(size, peers);
        let mut config = RunConfig::single_cluster(Scheme::Synchronous, peers);
        config.tolerance = tolerance;
        for runtime in RuntimeKind::ALL {
            group.bench_with_input(
                BenchmarkId::new(format!("sync_{}", kind.label()), runtime.label()),
                &runtime,
                |b, &runtime| b.iter(|| run_on(workload.as_ref(), &config, runtime)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_runtime_matrix);
criterion_main!(benches);
