//! Bench: the per-sweep control-plane report path, the lock-free report
//! cell against the locked path a clean sweep takes. Single-threaded cells
//! measure the bare cost of one dirty report (cell: a seqlock publish;
//! locked: a mutex acquisition plus a detector fold). Multi-threaded cells
//! put every rank on its own thread hammering reports concurrently — the
//! contended regime the reactor's event loops live in, where the mutex
//! serializes all peers and the cells don't.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use p2pdc::{ConvergenceDetector, DetectorHandle};
use p2psap::Scheme;

/// Reports each publishing thread makes per bench iteration.
const REPORTS: u64 = 1000;

/// A way to hand one report to the detector.
type ReportPath = fn(&DetectorHandle, usize, u64) -> bool;

/// One dirty report (diff above tolerance) with its load sample — the
/// common not-yet-converged sweep — through the report cell.
fn through_cell(shared: &DetectorHandle, rank: usize, iteration: u64) -> bool {
    shared.publish(rank, iteration, 1.0, false, iteration, 0, 4, 100)
}

/// The same report through the detector mutex.
fn through_lock(shared: &DetectorHandle, rank: usize, iteration: u64) -> bool {
    let mut detector = shared.lock();
    detector.record_load(rank, 4, 100);
    detector.report(rank, iteration, 1.0, false, iteration, 0)
}

fn bench_control_plane(c: &mut Criterion) {
    let mut group = c.benchmark_group("control_plane");
    group.sample_size(20);
    let paths: [(&str, ReportPath); 2] = [("cell", through_cell), ("locked", through_lock)];

    for (path, report) in paths {
        group.bench_with_input(
            BenchmarkId::new("report_single_thread", path),
            &report,
            |b, report| {
                let shared = ConvergenceDetector::shared(1e-9, Scheme::Asynchronous, 8);
                let mut iteration = 0u64;
                b.iter(|| {
                    iteration += 1;
                    report(&shared, 0, iteration)
                });
            },
        );
    }

    for threads in [4usize, 8] {
        for (path, report) in paths {
            group.bench_with_input(
                BenchmarkId::new(format!("report_{threads}_threads"), path),
                &report,
                |b, report| {
                    let shared = ConvergenceDetector::shared(1e-9, Scheme::Asynchronous, threads);
                    b.iter(|| {
                        std::thread::scope(|scope| {
                            for rank in 0..threads {
                                let shared = &shared;
                                scope.spawn(move || {
                                    for iteration in 1..=REPORTS {
                                        report(shared, rank, iteration);
                                    }
                                });
                            }
                        });
                    });
                },
            );
        }
    }

    group.finish();
}

criterion_group!(benches, bench_control_plane);
criterion_main!(benches);
