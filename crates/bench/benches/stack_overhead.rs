//! Micro-benchmark: per-message overhead of the P2PSAP session layer
//! (zero-copy send path) compared with a payload-copying baseline — the
//! benefit of the paper's "pointer passing between layers" modification —
//! and of the session's straight-line data path compared with the Cactus
//! micro-protocol reference it is checked against.

use bytes::Bytes;
use cactus::{Message, ProtocolStack, StackOutput};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netsim::ConnectionType;
use p2pdc::app::FrameSink;
use p2pdc::runtime::udp::{accept_trains, recv_train, send_train, TRAIN_STRIDE};
use p2pdc::{HeatTask, IterativeTask, ObstacleTask, PageRankGraph, PageRankTask};
use p2psap::data::wire::{ATTR_SENT_AT, ATTR_SEQ};
use p2psap::data::{build_physical, build_transport, WireSegment, ATTR_NOW};
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

/// Ghost-update serialization: one `encode_outgoing` round into a warm
/// pooled `FrameSink`, the path the engine drives.
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
        let mut sink = FrameSink::new();
        sink.begin(7);
        task.encode_outgoing(&mut sink);
        let frame_bytes: usize = (0..sink.len()).map(|index| sink.peek(index).1).sum();
        group.throughput(Throughput::Bytes(frame_bytes as u64));
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

/// One message through the session layer, in memory: `send → on_data →
/// receive`, then whatever the receiver answers — on a reliable channel with
/// no data going back, one bare ack per `MAX_ACKS_PER_SEGMENT` messages —
/// what a sweep pays the session layer per neighbour. 10 388 bytes is
/// `obstacle-lockstep`'s ghost plane in the reliable synchronous mode, 52
/// bytes `pagerank-swarm`'s message in the unreliable asynchronous mode.
fn bench_roundtrip(c: &mut Criterion) {
    for (name, size, scheme, connection) in [
        (
            "session_roundtrip_reliable",
            10_388,
            Scheme::Synchronous,
            ConnectionType::IntraCluster,
        ),
        (
            "session_roundtrip_unreliable",
            52,
            Scheme::Asynchronous,
            ConnectionType::InterCluster,
        ),
    ] {
        let payload = Bytes::from(vec![7u8; size]);
        let open = || Socket::open(scheme, connection);
        let (mut sender, mut receiver) = (open(), open());
        let mut now = 0u64;
        c.bench_function(&format!("{name}/{size}"), |b| {
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
}

/// The same two round trips over the Cactus reference — the physical and
/// transport composites `build_physical` + `build_transport` give for the
/// same configuration, driven event by event as `Session` drove them while
/// they were its data path. The distance to the `session_roundtrip_*` rows
/// is what resolving the composition once saves per message.
fn bench_reference_roundtrip(c: &mut Criterion) {
    let stack = |config: ChannelConfig| {
        let mut stack = ProtocolStack::new();
        stack.push_layer(build_physical(config.physical));
        stack.push_layer(build_transport(config));
        stack
    };
    let to_wire = |out: &StackOutput| -> Vec<Bytes> {
        out.to_net
            .iter()
            .map(|msg| WireSegment::from_message(msg).encode())
            .collect()
    };
    let from_wire = |stack: &mut ProtocolStack, bytes: Bytes, now: u64| {
        let mut msg = WireSegment::decode(bytes)
            .expect("well-formed")
            .into_message();
        msg.set_u64(ATTR_NOW, now);
        stack.from_net(msg)
    };
    for (size, config) in [
        (10_388, ChannelConfig::synchronous_reliable()),
        (52, ChannelConfig::asynchronous_unreliable()),
    ] {
        let payload = Bytes::from(vec![7u8; size]);
        let (mut sender, mut receiver) = (stack(config), stack(config));
        let (mut now, mut seq) = (0u64, 0u64);
        c.bench_function(&format!("reference_roundtrip/{size}"), |b| {
            b.iter(|| {
                now += 10_000;
                let mut msg = Message::new(payload.clone());
                msg.set_u64(ATTR_SEQ, seq);
                msg.set_u64(ATTR_NOW, now);
                msg.set_u64(ATTR_SENT_AT, now);
                seq += 1;
                let mut delivered = None;
                for segment in to_wire(&sender.from_user(msg)) {
                    let mut out = from_wire(&mut receiver, segment, now);
                    for ack in to_wire(&out) {
                        std::hint::black_box(from_wire(&mut sender, ack, now));
                    }
                    delivered = out.delivered.pop().map(|msg| msg.payload().clone());
                }
                std::hint::black_box(delivered)
            });
        });
    }
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
    bench_reference_roundtrip,
    bench_socket_train
);
criterion_main!(benches);
