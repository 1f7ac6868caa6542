//! Micro-benchmark: per-message overhead of the Cactus protocol stack
//! (zero-copy send path), compared with a payload-copying baseline. This
//! quantifies the benefit of the paper's "pointer passing between layers"
//! modification.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netsim::ConnectionType;
use p2pdc::app::FrameSink;
use p2pdc::{HeatTask, IterativeTask, ObstacleTask, PageRankGraph, PageRankTask};
use p2psap::{ChannelConfig, Scheme, Session, Socket};
use std::sync::Arc;

fn bench_stack(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_stack");
    for &size in &[1_024usize, 8_192, 73_728 /* one 96x96 plane */] {
        let payload = Bytes::from(vec![7u8; size]);
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(
            BenchmarkId::new("session_send_zero_copy", size),
            &size,
            |b, _| {
                let mut session = Session::new(ChannelConfig::asynchronous_unreliable());
                let mut now = 0u64;
                b.iter(|| {
                    now += 1;
                    let (_, out) = session.send(payload.clone(), now);
                    std::hint::black_box(out.wire.len())
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("baseline_payload_copy", size),
            &size,
            |b, _| {
                // What a copying stack would pay per layer crossing (2 layers).
                b.iter(|| {
                    let copy1 = payload.to_vec();
                    let copy2 = copy1.clone();
                    std::hint::black_box(copy2.len())
                });
            },
        );
    }
    group.finish();
}

/// Ghost-update serialization: the legacy per-exchange allocation chain
/// (`outgoing()` payload `Vec`s + a fresh wire `Vec` per frame for the
/// generation tag) against `encode_outgoing` into a warm pooled `FrameSink`
/// — the zero-copy path the engine now drives.
fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("ghost_encode");
    let tasks: Vec<(&str, Box<dyn IterativeTask>)> = vec![
        (
            "obstacle64",
            Box::new(ObstacleTask::new(
                Arc::new(obstacle::ObstacleProblem::membrane(64)),
                4,
                1,
            )),
        ),
        ("heat512", Box::new(HeatTask::new(512, 4, 1))),
        (
            "pagerank120k",
            Box::new(PageRankTask::new(
                Arc::new(PageRankGraph::ring_with_chords(120_000)),
                4,
                1,
            )),
        ),
    ];
    for (label, mut task) in tasks {
        task.relax();
        let frame_bytes: usize = task.outgoing().iter().map(|(_, p)| 4 + p.len()).sum();
        group.throughput(Throughput::Bytes(frame_bytes as u64));
        group.bench_with_input(BenchmarkId::new("legacy_alloc", label), &label, |b, _| {
            b.iter(|| {
                for (dst, payload) in task.outgoing() {
                    let mut wire = Vec::with_capacity(4 + payload.len());
                    wire.extend_from_slice(&7u32.to_le_bytes());
                    wire.extend_from_slice(&payload);
                    std::hint::black_box((dst, wire.len()));
                }
            });
        });
        let mut sink = FrameSink::new();
        group.bench_with_input(BenchmarkId::new("zero_copy_sink", label), &label, |b, _| {
            b.iter(|| {
                sink.begin(7);
                task.encode_outgoing(&mut sink);
                std::hint::black_box(sink.len())
            });
        });
    }
    group.finish();
}

/// The integrity checksum every segment and gossip frame pays twice (encode
/// and decode), at the frame sizes of the benchmark's four workloads.
fn bench_checksum(c: &mut Criterion) {
    for size in [52usize, 1_528, 10_388, 25_108] {
        let frame: Vec<u8> = (0..size).map(|i| i as u8).collect();
        c.bench_function(&format!("frame_checksum/{size}"), |b| {
            b.iter(|| p2psap::data::frame_checksum(std::hint::black_box(&frame)));
        });
    }
}

/// One ghost plane through the reliable synchronous mode, in memory:
/// `send → on_data → receive`, then the acknowledgement's way back — what a
/// synchronous sweep pays the session layer per neighbour.
fn bench_roundtrip(c: &mut Criterion) {
    let payload = Bytes::from(vec![7u8; 10_388]);
    let open = || Socket::open(Scheme::Synchronous, ConnectionType::IntraCluster);
    let (mut sender, mut receiver) = (open(), open());
    let mut now = 0u64;
    c.bench_function("session_roundtrip_reliable/10388", |b| {
        b.iter(|| {
            now += 10_000;
            let (_, out) = sender.send(payload.clone(), now);
            for segment in out.data {
                for ack in receiver.on_data(segment, now).data {
                    std::hint::black_box(sender.on_data(ack, now));
                }
            }
            std::hint::black_box(receiver.receive())
        });
    });
}

criterion_group!(
    benches,
    bench_stack,
    bench_encode,
    bench_checksum,
    bench_roundtrip
);
criterion_main!(benches);
