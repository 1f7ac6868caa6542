//! Micro-benchmark: per-message overhead of the Cactus protocol stack
//! (zero-copy send path), compared with a payload-copying baseline. This
//! quantifies the benefit of the paper's "pointer passing between layers"
//! modification.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netsim::ConnectionType;
use p2pdc::app::FrameSink;
use p2pdc::runtime::udp::{accept_trains, recv_train, send_train, TRAIN_STRIDE};
use p2pdc::{HeatTask, IterativeTask, ObstacleTask, PageRankGraph, PageRankTask};
use p2psap::{ChannelConfig, Scheme, Session, Socket};
use std::net::UdpSocket;
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

/// What the kernel charges to move the n fragment datagrams of one segment
/// between two localhost sockets: n `send_to` + n `recv_from`, against one
/// `send_train` and the `recv_train`s that drain it on a socket that accepts
/// trains (one, where the kernel takes `UDP_SEGMENT` and `UDP_GRO` — it
/// falls back silently, so the send path is printed). n = 9 is
/// `obstacle-lockstep`'s ghost plane; 53 is the most one train holds.
fn bench_socket_train(c: &mut Criterion) {
    let socket = || {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind a localhost UDP socket");
        socket.set_nonblocking(true).expect("set nonblocking");
        socket
    };
    let (tx, plain, gro) = (socket(), socket(), socket());
    let accepted = accept_trains(&gro);
    let (plain_addr, gro_addr) = (plain.local_addr().unwrap(), gro.local_addr().unwrap());
    let mut buf = vec![0u8; 65536];
    let mut group = c.benchmark_group("socket_train");
    for n in [1usize, 9, 21, 53] {
        let train = vec![7u8; n * TRAIN_STRIDE];
        group.throughput(Throughput::Bytes(train.len() as u64));
        group.bench_with_input(BenchmarkId::new("per_datagram", n), &n, |b, _| {
            b.iter(|| {
                for datagram in train.chunks(TRAIN_STRIDE) {
                    tx.send_to(datagram, plain_addr).expect("send datagram");
                }
                let mut read = 0;
                while let Ok((len, _)) = plain.recv_from(&mut buf) {
                    read += len;
                }
                assert_eq!(read, train.len());
            });
        });
        let mut path = None;
        group.bench_with_input(BenchmarkId::new("train", n), &n, |b, _| {
            b.iter(|| {
                path = Some(send_train(&tx, &train, TRAIN_STRIDE, gro_addr).expect("send train"));
                let mut read = 0;
                while let Ok(datagrams) = recv_train(&gro, &mut buf) {
                    read += datagrams.map(<[u8]>::len).sum::<usize>();
                }
                assert_eq!(read, train.len());
            });
        });
        println!("socket_train/train/{n}: send path {path:?}, UDP_GRO accepted: {accepted}");
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_stack,
    bench_encode,
    bench_checksum,
    bench_roundtrip,
    bench_socket_train
);
criterion_main!(benches);
