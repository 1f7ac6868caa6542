//! Layer probes: direct timed calls into each layer's public functions, at
//! the message sizes and socket counts the workload actually produces.
//!
//! A probe answers "what does one operation of this layer cost on its own";
//! the traced pass multiplies it by the operation counts of real solves to
//! reconcile the layers with the whole (`model.unattributed_share`).

use crate::workloads::Spec;
use bytes::Bytes;
use cactus::{CompositeProtocol, EventName, Message, MicroProtocol, Operations};
use netsim::{ClusterId, ConnectionType, NodeId};
use p2pdc::app::FrameSink;
use p2pdc::runtime::udp::{encode_fragment_into, Datagram, MAX_FRAGMENT_PAYLOAD};
use p2pdc::{
    allocs, Checkpoint, ChurnPlan, ConvergenceDetector, GossipMessage, GossipNode, GossipTiming,
    IterativeTask, Reassembler, Scheme, SweepSummary, TopologyManager, VolatilityState, Workload,
    WorkloadKind,
};
use p2psap::{Socket, SocketOutput};
use std::hint::black_box;
use std::net::UdpSocket;
use std::time::{Duration, Instant};

/// Wall time each probe spends measuring (after its warm-up).
const PROBE_BUDGET: Duration = Duration::from_millis(120);
/// Calls between clock reads, so the clock itself stays off the measurement.
const CHUNK: u32 = 16;

/// Run `op` repeatedly for [`PROBE_BUDGET`]; returns mean nanoseconds per
/// call and allocations per call (0 unless the counting allocator is
/// installed).
fn time_op(mut op: impl FnMut()) -> (f64, f64) {
    for _ in 0..CHUNK {
        op();
    }
    let allocs_before = allocs::counters();
    let started = Instant::now();
    let mut calls = 0u64;
    while started.elapsed() < PROBE_BUDGET {
        for _ in 0..CHUNK {
            op();
        }
        calls += u64::from(CHUNK);
    }
    let ns = started.elapsed().as_nanos() as f64 / calls as f64;
    let allocations = allocs::counters().since(allocs_before).allocations as f64 / calls as f64;
    (ns, allocations)
}

/// Everything the probes measured.
#[derive(Debug, Clone, Copy)]
pub struct ProbeResults {
    /// Kernel: nanoseconds per relaxed point of `IterativeTask::relax`.
    pub sweep_ns_per_point: f64,
    /// Ghost encode: one `encode_outgoing` round into a warm `FrameSink`.
    pub encode_ns_per_exchange: f64,
    /// Allocations of that round.
    pub encode_allocs_per_exchange: f64,
    /// `Socket::send → on_data → receive` plus, on a reliable channel, the
    /// acknowledgement's way back, in the mode the workload's sockets run.
    pub roundtrip_ns: f64,
    /// Allocations of one such send (both ends).
    pub allocs_per_send: f64,
    /// Wire bytes beyond the payload, per send.
    pub wire_overhead_bytes: f64,
    /// One event raised through a one-handler composite protocol.
    pub cactus_dispatch_ns: f64,
    /// `encode_fragment_into`, per datagram of a workload-sized segment.
    pub framing_encode_ns_per_datagram: f64,
    /// `Datagram::fragment_fields` + `Reassembler::push_ref`, per datagram.
    pub framing_reassemble_ns_per_datagram: f64,
    /// Datagrams one workload-sized segment is framed into.
    pub datagrams_per_msg: f64,
    /// Allocations of framing + reassembling one segment.
    pub framing_allocs_per_msg: f64,
    /// `send_to` + `recv_from` of one workload-sized datagram on localhost.
    pub socket_sendrecv_ns_per_datagram: f64,
    /// `Poller::wait` returning one ready socket among the workload's
    /// sockets-per-loop registered ones.
    pub poll_wake_ns: f64,
    /// One dirty `DetectorHandle::publish`.
    pub detector_publish_ns: f64,
    /// One `TopologyManager::ping_many` sweep over a loop's peers.
    pub topology_ping_many_ns: f64,
    /// `checkpoint_state` + `VolatilityState::store_checkpoint`.
    pub churn_checkpoint_ns: f64,
    /// Bytes of one checkpointed state.
    pub churn_checkpoint_bytes: f64,
    /// `IterativeTask::restore` from that state.
    pub churn_restore_ns: f64,
    /// `GossipMessage::encode` of a steady-state message at this peer count.
    pub gossip_encode_ns: f64,
    /// `GossipMessage::decode` of the same.
    pub gossip_decode_ns: f64,
    /// Encoded size of that message.
    pub gossip_datagram_bytes: f64,
}

/// Bytes the kernel streams per relaxed point, computed from the arrays it
/// reads and writes (cache misses are not counted): the obstacle sweep reads
/// `u`, `rhs`, `psi` and writes `next`; a PageRank vertex reads its own
/// rank, about four neighbour ranks and writes one.
pub fn computed_bytes_per_point(kind: WorkloadKind) -> f64 {
    match kind {
        WorkloadKind::Obstacle | WorkloadKind::Heat => 32.0,
        WorkloadKind::PageRank => 48.0,
    }
}

/// Run every probe at the workload's shape.
pub fn run(spec: &Spec, workload: &dyn Workload) -> ProbeResults {
    let rank = spec.peers / 2;
    let mut task = workload.task(rank);
    let points_per_sweep = task.relax().work_points;
    let mut sink = FrameSink::new();
    sink.begin(0);
    task.encode_outgoing(&mut sink);
    assert!(!sink.is_empty(), "an interior peer has neighbours");
    // The shape of the workload's traffic: bytes of one ghost-update frame
    // (generation tag + payload) and the sockets one event loop multiplexes.
    let frame_bytes = sink.peek(0).1;
    let sockets_per_loop = spec.peers / spec.event_loops.max(1);

    let (relax_ns, _) = time_op(|| {
        black_box(task.relax());
    });
    let mut generation = 1;
    let (encode_ns, encode_allocs) = time_op(|| {
        sink.begin(generation);
        task.encode_outgoing(&mut sink);
        black_box(sink.len());
        generation += 1;
    });

    let workload_mode = socket_roundtrip(spec.scheme, spec.connection(), frame_bytes);
    let segment_bytes = frame_bytes + workload_mode.wire_overhead_bytes.round() as usize;
    let framing = framing_probe(rank, segment_bytes);
    let datagram_bytes = segment_bytes.min(MAX_FRAGMENT_PAYLOAD) + 15;
    let (checkpoint_ns, checkpoint_bytes, restore_ns) = churn_probe(spec, task.as_mut(), rank);
    let (gossip_encode_ns, gossip_decode_ns, gossip_bytes) = gossip_probe(spec);

    ProbeResults {
        sweep_ns_per_point: relax_ns / points_per_sweep as f64,
        encode_ns_per_exchange: encode_ns,
        encode_allocs_per_exchange: encode_allocs,
        roundtrip_ns: workload_mode.ns,
        allocs_per_send: workload_mode.allocs,
        wire_overhead_bytes: workload_mode.wire_overhead_bytes,
        cactus_dispatch_ns: cactus_probe(frame_bytes),
        framing_encode_ns_per_datagram: framing.encode_ns,
        framing_reassemble_ns_per_datagram: framing.reassemble_ns,
        datagrams_per_msg: framing.datagrams as f64,
        framing_allocs_per_msg: framing.allocs,
        socket_sendrecv_ns_per_datagram: socket_probe(datagram_bytes),
        poll_wake_ns: poll_probe(sockets_per_loop),
        detector_publish_ns: detector_probe(spec),
        topology_ping_many_ns: topology_probe(sockets_per_loop),
        churn_checkpoint_ns: checkpoint_ns,
        churn_checkpoint_bytes: checkpoint_bytes,
        churn_restore_ns: restore_ns,
        gossip_encode_ns,
        gossip_decode_ns,
        gossip_datagram_bytes: gossip_bytes,
    }
}

struct Roundtrip {
    ns: f64,
    allocs: f64,
    wire_overhead_bytes: f64,
}

/// In-memory `a.send → b.on_data → b.receive`, then whatever `b` answers
/// (acknowledgements on a reliable channel) fed back into `a`.
fn socket_roundtrip(scheme: Scheme, connection: ConnectionType, payload_bytes: usize) -> Roundtrip {
    let mut a = Socket::open(scheme, connection);
    let mut b = Socket::open(scheme, connection);
    let payload = Bytes::from(vec![7u8; payload_bytes]);
    let mut now_ns = 0u64;
    let mut wire_bytes = 0u64;
    let mut sends = 0u64;
    let (ns, allocs) = time_op(|| {
        now_ns += 10_000;
        let (_, out) = a.send(payload.clone(), now_ns);
        let mut answer = SocketOutput::default();
        for segment in out.data {
            wire_bytes += segment.len() as u64;
            answer.merge(b.on_data(segment, now_ns));
        }
        while let Some(delivered) = b.receive() {
            black_box(delivered.len());
        }
        for segment in answer.data {
            black_box(a.on_data(segment, now_ns));
        }
        sends += 1;
    });
    Roundtrip {
        ns,
        allocs,
        wire_overhead_bytes: wire_bytes as f64 / sends as f64 - payload_bytes as f64,
    }
}

/// A micro-protocol whose one handler passes the message on: the cost left
/// is the composite's event dispatch itself.
struct PassThrough;

const PROBE_EVENT: EventName = EventName("ProbeEvent");

impl MicroProtocol for PassThrough {
    fn name(&self) -> &'static str {
        "pass-through"
    }

    fn subscriptions(&self) -> Vec<EventName> {
        vec![PROBE_EVENT]
    }

    fn handle(&mut self, _event: EventName, msg: &mut Message, ops: &mut Operations) {
        ops.send_down(std::mem::take(msg));
    }
}

fn cactus_probe(payload_bytes: usize) -> f64 {
    let mut composite = CompositeProtocol::new("probe");
    composite.add_micro(Box::new(PassThrough));
    let payload = Bytes::from(vec![7u8; payload_bytes]);
    time_op(|| {
        black_box(composite.raise(PROBE_EVENT, Message::new(payload.clone())));
    })
    .0
}

struct Framing {
    encode_ns: f64,
    reassemble_ns: f64,
    datagrams: usize,
    allocs: f64,
}

fn framing_probe(from: usize, segment_bytes: usize) -> Framing {
    let segment = vec![7u8; segment_bytes.max(1)];
    let chunks: Vec<&[u8]> = segment.chunks(MAX_FRAGMENT_PAYLOAD).collect();
    let count = chunks.len() as u16;
    let mut wire: Vec<Vec<u8>> = vec![Vec::new(); chunks.len()];
    let mut msg_id = 0u32;
    let (encode_ns, encode_allocs) = time_op(|| {
        msg_id = msg_id.wrapping_add(1);
        for (index, chunk) in chunks.iter().enumerate() {
            encode_fragment_into(&mut wire[index], from, msg_id, index as u16, count, chunk);
        }
        black_box(wire.len());
    });
    let mut reassembler = Reassembler::new();
    let mut msg_id = 0u32;
    let (reassemble_ns, reassemble_allocs) = time_op(|| {
        // Re-stamp the message id so every round is a fresh message, as on
        // the wire (bytes 5..9 of the fragment header).
        msg_id = msg_id.wrapping_add(1);
        for datagram in &mut wire {
            datagram[5..9].copy_from_slice(&msg_id.to_be_bytes());
            let (from, id, index, count, payload) =
                Datagram::fragment_fields(datagram).expect("a fragment datagram");
            black_box(reassembler.push_ref(from, id, index, count, payload));
        }
    });
    Framing {
        encode_ns: encode_ns / chunks.len() as f64,
        reassemble_ns: reassemble_ns / chunks.len() as f64,
        datagrams: chunks.len(),
        allocs: encode_allocs + reassemble_allocs,
    }
}

fn localhost_socket() -> UdpSocket {
    UdpSocket::bind(("127.0.0.1", 0)).expect("bind a localhost UDP socket")
}

/// The localhost floor: one datagram sent and received, same thread.
fn socket_probe(datagram_bytes: usize) -> f64 {
    let tx = localhost_socket();
    let rx = localhost_socket();
    let to = rx.local_addr().expect("bound address");
    let out = vec![7u8; datagram_bytes];
    let mut inbox = vec![0u8; 65536];
    time_op(|| {
        tx.send_to(&out, to).expect("send on localhost");
        black_box(rx.recv_from(&mut inbox).expect("receive on localhost"));
    })
    .0
}

/// `Poller::wait` with `sockets` registered and exactly one readable.
fn poll_probe(sockets: usize) -> f64 {
    let poller = polling::Poller::new().expect("create a poller");
    let registered: Vec<UdpSocket> = (0..sockets.max(1))
        .map(|key| {
            let socket = localhost_socket();
            socket.set_nonblocking(true).expect("nonblocking socket");
            poller.add(&socket, key).expect("register socket");
            socket
        })
        .collect();
    let tx = localhost_socket();
    let mut events = polling::Events::new();
    let mut inbox = [0u8; 64];
    let mut next = 0usize;
    // The send and the receive are needed to arm and clear readiness; time
    // them alone and subtract, leaving the wait.
    let ready = |next: usize| {
        let target = &registered[next % registered.len()];
        tx.send_to(&[1], target.local_addr().expect("bound address"))
            .expect("send on localhost");
        target
    };
    let (with_wait, _) = time_op(|| {
        let target = ready(next);
        next += 1;
        poller
            .wait(&mut events, Some(Duration::from_millis(100)))
            .expect("poll");
        black_box(events.len());
        let _ = target.recv_from(&mut inbox);
    });
    let (without_wait, _) = time_op(|| {
        let target = ready(next);
        next += 1;
        let _ = target.recv_from(&mut inbox);
    });
    (with_wait - without_wait).max(0.0)
}

/// The common-case report of a sweep that has not converged yet.
fn detector_probe(spec: &Spec) -> f64 {
    let shared = ConvergenceDetector::shared(1e-12, spec.scheme, spec.peers);
    let mut iteration = 0u64;
    time_op(|| {
        iteration += 1;
        black_box(shared.publish(
            (iteration % spec.peers as u64) as usize,
            iteration,
            1.0,
            false,
            iteration,
            0,
            4,
            100,
        ));
    })
    .0
}

fn topology_probe(peers_per_loop: usize) -> f64 {
    let period = desim::SimDuration::from_millis(10);
    let mut manager = TopologyManager::new(period);
    let nodes: Vec<NodeId> = (0..peers_per_loop.max(1)).map(NodeId).collect();
    for &node in &nodes {
        manager.register(node, ClusterId(0), 1.0, desim::SimTime::ZERO);
    }
    let mut now = desim::SimTime::ZERO;
    time_op(|| {
        now += period;
        black_box(manager.ping_many(&nodes, now));
    })
    .0
}

/// `(checkpoint ns, checkpoint bytes, restore ns)` for one peer's state.
fn churn_probe(spec: &Spec, task: &mut dyn IterativeTask, rank: usize) -> (f64, f64, f64) {
    let mut volatility =
        VolatilityState::new(&ChurnPlan::kill(0, u64::MAX), spec.peers, spec.scheme);
    let mut iteration = 0u64;
    let (checkpoint_ns, _) = time_op(|| {
        iteration += 5;
        volatility.store_checkpoint(Checkpoint {
            rank,
            iteration,
            state: task.checkpoint_state(),
        });
    });
    let state = task.checkpoint_state();
    let relaxations = task.relaxations();
    let (restore_ns, _) = time_op(|| {
        black_box(task.restore(&state, relaxations));
    });
    (checkpoint_ns, state.len() as f64, restore_ns)
}

/// `(encode ns, decode ns, bytes)` of the largest message a node emits once
/// its digest knows every peer — the steady state of a run.
fn gossip_probe(spec: &Spec) -> (f64, f64, f64) {
    let peers = spec.peers;
    let fanout = spec.gossip_fanout.unwrap_or(3);
    let timing = GossipTiming::wall_clock();
    let mut nodes: Vec<GossipNode> = (0..peers)
        .map(|rank| GossipNode::new(rank, peers, peers, fanout, 42, timing))
        .collect();
    let mut largest: Option<GossipMessage> = None;
    let mut now = 0u64;
    for round in 1..=12u64 {
        for node in nodes.iter_mut() {
            node.record_sweep(&SweepSummary {
                iteration: round,
                clean: false,
                stable: false,
                clean_since: u64::MAX,
                stable_streak: 0,
                generation: 0,
                epoch: 0,
                has_async_neighbors: spec.scheme != Scheme::Synchronous,
                points: round * 4,
                busy_ns: round * 1_000,
            });
        }
        now = now.max(
            nodes
                .iter()
                .map(GossipNode::next_deadline)
                .min()
                .unwrap_or(now),
        );
        let mut queue: Vec<(usize, GossipMessage)> =
            nodes.iter_mut().flat_map(|node| node.poll(now)).collect();
        while let Some((to, msg)) = queue.pop() {
            if largest
                .as_ref()
                .is_none_or(|l| msg.encoded_len() > l.encoded_len())
            {
                largest = Some(msg.clone());
            }
            queue.extend(nodes[to].on_message(&msg, now));
        }
    }
    let msg = largest.expect("gossip nodes exchange messages");
    let encoded = msg.encode();
    let (encode_ns, _) = time_op(|| {
        black_box(msg.encode());
    });
    let (decode_ns, _) = time_op(|| {
        black_box(GossipMessage::decode(&encoded));
    });
    (encode_ns, decode_ns, encoded.len() as f64)
}
