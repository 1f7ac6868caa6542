//! Zero-allocation assertions for the steady-state ghost-exchange hot path.
//!
//! This binary installs [`p2pdc::allocs::CountingAllocator`] as its global
//! allocator and measures four regions once their buffers are warm:
//!
//! 1. every workload's `encode_outgoing` into a pooled [`FrameSink`] —
//!    must allocate nothing — and every workload's `incorporate` of a
//!    neighbour's update, which stores the plane straight from the payload
//!    bytes — must allocate nothing either;
//! 2. UDP fragment framing of a large segment into a reused send buffer,
//!    and a whole `UdpTransport::transmit` of `obstacle-lockstep`'s
//!    10 414-byte segment over a real socket — the fragment train is laid
//!    out in the transport's reused buffer and its control message and
//!    `iovec` live on the stack — must allocate nothing;
//! 3. the engine's frame → `Bytes` → send → reclaim cycle through an
//!    asynchronous-unreliable `Socket`, which keeps nothing of what it sends
//!    — costs the one shared-handle allocation the wire hand-off inherently
//!    needs on top of the send itself (the buffer is reclaimed into the pool
//!    every round);
//! 4. a P2PSAP `P2P_Send` with a warm session wire-buffer pool — costs the
//!    segment's shared handle and the output vectors that carry it, with the
//!    wire buffer reused through `Socket::recycle_wire` — and a whole
//!    reliable round trip of one ghost plane (`send → on_data → receive →
//!    ack → on_data`), pinned at its own figure.
//!
//! The counters are process-global, so all assertions live in one `#[test]`
//! — parallel test threads would pollute each other's deltas. The libtest
//! harness's main thread can still allocate concurrently (event plumbing),
//! so each region takes the *minimum* delta over several identical windows:
//! transient out-of-band noise cannot depress the minimum, while a real
//! regression inflates every window.

use p2pdc::allocs::{self, CountingAllocator};
use p2pdc::app::{FrameSink, IterativeTask};
use p2pdc::runtime::udp::{encode_fragment_into, UdpTransport, MAX_FRAGMENT_PAYLOAD};
use p2pdc::{
    HeatTask, LossShim, ObstacleTask, PageRankGraph, PageRankTask, PeerTransport, RunConfig,
    Scheme, UpdateMsg, Wire,
};
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::Instant;

#[global_allocator]
static COUNTING: CountingAllocator = CountingAllocator;

/// Fixed allocations of one pooled-session `P2P_Send` on an unreliable
/// asynchronous channel (measured): the segment's shared wire handle, the
/// vector that carries it and the one that carries the completion — with the
/// segment buffer itself reused from the pool, so the count is independent
/// of the ghost-plane size.
const SESSION_SEND_ALLOCS: u64 = 3;

/// Allocations of one 10 388-byte ghost plane through the reliable
/// synchronous mode and its acknowledgement back (measured). Send: the
/// plane's wire buffer (it leaves with the delivered payload, so the pool
/// does not get it back), its shared handle, the wire and timer vectors.
/// Receive: the delivery vector, and the acknowledgement's buffer, handle
/// and wire vector. Acknowledgement: the completion and cancel vectors.
const RELIABLE_ROUNDTRIP_ALLOCS: u64 = 10;

/// Minimum counter delta of `window()` over five identical runs, immunising
/// the measurement against allocations the harness's other threads happen to
/// make inside a window.
fn min_delta(mut window: impl FnMut()) -> allocs::AllocCounters {
    let mut best: Option<allocs::AllocCounters> = None;
    for _ in 0..5 {
        let before = allocs::counters();
        window();
        let delta = allocs::counters().since(before);
        best = Some(match best {
            Some(b) if b.allocations <= delta.allocations => b,
            _ => delta,
        });
    }
    best.expect("at least one window ran")
}

/// Minimum delta of `rounds` encode rounds into a warm sink (warmup rounds
/// are excluded from the measurement).
fn encode_delta(task: &mut dyn IterativeTask, rounds: u32) -> allocs::AllocCounters {
    let mut sink = FrameSink::new();
    let mut generation = 0;
    for _ in 0..3 {
        sink.begin(generation);
        task.encode_outgoing(&mut sink);
        generation += 1;
    }
    min_delta(|| {
        for _ in 0..rounds {
            sink.begin(generation);
            task.encode_outgoing(&mut sink);
            generation += 1;
        }
    })
}

/// Minimum delta of `rounds` incorporations of a `values`-long update from
/// rank `from`. The first one must report a change, so a refused payload
/// cannot pass for an allocation-free one.
fn incorporate_delta(
    task: &mut dyn IterativeTask,
    from: usize,
    values: usize,
    rounds: u32,
) -> allocs::AllocCounters {
    let update = UpdateMsg {
        from: from as u32,
        iteration: 1,
        plane: vec![1.5; values],
    }
    .encode();
    assert!(task.incorporate(from, &update) > 0.0, "update refused");
    min_delta(|| {
        for _ in 0..rounds {
            task.incorporate(from, &update);
        }
    })
}

#[test]
fn steady_state_ghost_exchange_does_not_allocate() {
    // 1. Task encode into a warm sink, and incorporating a neighbour's
    // update: zero allocations for all workloads.
    let problem = Arc::new(obstacle::ObstacleProblem::membrane(16));
    let mut task = ObstacleTask::new(problem, 4, 1);
    task.relax();
    let delta = encode_delta(&mut task, 64);
    assert_eq!(delta.allocations, 0, "obstacle encode allocated: {delta:?}");
    let delta = incorporate_delta(&mut task, 2, 16 * 16, 64);
    assert_eq!(
        delta.allocations, 0,
        "obstacle incorporate allocated: {delta:?}"
    );

    let mut task = HeatTask::new(32, 4, 2);
    task.relax();
    let delta = encode_delta(&mut task, 64);
    assert_eq!(delta.allocations, 0, "heat encode allocated: {delta:?}");
    let delta = incorporate_delta(&mut task, 1, 32, 64);
    assert_eq!(
        delta.allocations, 0,
        "heat incorporate allocated: {delta:?}"
    );

    let graph = Arc::new(PageRankGraph::ring_with_chords(120));
    let mut task = PageRankTask::new(graph, 4, 1);
    task.relax();
    let delta = encode_delta(&mut task, 64);
    assert_eq!(delta.allocations, 0, "pagerank encode allocated: {delta:?}");
    let delta = incorporate_delta(&mut task, 2, 120 / 4, 64);
    assert_eq!(
        delta.allocations, 0,
        "pagerank incorporate allocated: {delta:?}"
    );

    // 2. UDP fragment framing into a reused send buffer: zero allocations
    // once the buffer has grown to a full datagram.
    let segment = vec![0xA5u8; 4 * MAX_FRAGMENT_PAYLOAD + 123];
    let mut frame = Vec::new();
    let frag_count = segment.len().div_ceil(MAX_FRAGMENT_PAYLOAD) as u16;
    let mut frame_rounds = |messages: u32| {
        for msg_id in 0..messages {
            for frag_index in 0..frag_count {
                let at = frag_index as usize * MAX_FRAGMENT_PAYLOAD;
                let chunk = &segment[at..(at + MAX_FRAGMENT_PAYLOAD).min(segment.len())];
                encode_fragment_into(&mut frame, 3, msg_id, frag_index, frag_count, chunk);
            }
        }
    };
    frame_rounds(2);
    let delta = min_delta(|| frame_rounds(32));
    assert_eq!(delta.allocations, 0, "udp framing allocated: {delta:?}");

    // The whole send path of a socket peer, kernel included: a warm
    // `transmit` of a nine-fragment segment. The receiver is never read —
    // what its buffer cannot hold the kernel drops, which costs the sender
    // nothing.
    let sink = UdpSocket::bind("127.0.0.1:0").expect("bind sink");
    let mut transport = UdpTransport::new(
        0,
        Instant::now(),
        UdpSocket::bind("127.0.0.1:0").expect("bind sender"),
        vec![sink.local_addr().unwrap(); 2],
        LossShim::new(0, 0.0, 0.0),
        RunConfig::quick(Scheme::Synchronous, 2).topology,
    );
    let segment = bytes::Bytes::from(vec![0x5Au8; 10_414]);
    for _ in 0..3 {
        transport.transmit(1, Wire::Segment(segment.clone()));
    }
    let delta = min_delta(|| {
        for _ in 0..32 {
            transport.transmit(1, Wire::Segment(segment.clone()));
        }
    });
    assert_eq!(delta.allocations, 0, "udp transmit allocated: {delta:?}");

    // 3. Frame → Bytes → send → reclaim through an asynchronous-unreliable
    // socket, as `PeerEngine::on_compute_done` does: the channel keeps no
    // clone of the payload, so the frame buffer cycles through the pool and
    // the cycle costs one shared-handle allocation on top of the send.
    let open_unreliable = || {
        p2psap::Socket::open(
            p2psap::Scheme::Asynchronous,
            netsim::ConnectionType::InterCluster,
        )
    };
    let mut sock = open_unreliable();
    let mut sink = FrameSink::new();
    let mut generation = 0;
    let mut now = 0u64;
    let mut cycle = |sink: &mut FrameSink| {
        sink.begin(generation);
        generation += 1;
        now += 1_000;
        sink.frame(1).extend_from_slice(&[0u8; 512]);
        let (_, buf) = sink.take(0);
        let payload = bytes::Bytes::from(buf);
        let (_, out) = sock.send(payload.clone(), now);
        for segment in out.data {
            let buf = segment.try_reclaim().expect("the wire holds no reference");
            sock.recycle_wire(buf);
        }
        let buf = payload.try_reclaim().expect("the session holds no clone");
        sink.recycle(buf);
    };
    for _ in 0..3 {
        cycle(&mut sink);
    }
    let delta = min_delta(|| {
        for _ in 0..64 {
            cycle(&mut sink);
        }
    });
    assert_eq!(
        delta.allocations,
        64 * (1 + SESSION_SEND_ALLOCS),
        "expected one shared-handle allocation per cycle on top of the send: {delta:?}"
    );

    // 4. The P2PSAP session send path with a warm wire-buffer pool: each
    // `P2P_Send` encodes its segment into a pooled buffer drawn back through
    // `Socket::recycle_wire` once the wire copy releases it, exactly as the
    // engine's `run_socket_output` does on the UDP and reactor backends. The
    // remaining steady-state cost is the handle and the output vectors — not
    // a fresh wire buffer per segment, and no per-message bookkeeping.
    let mut sock = open_unreliable();
    let ghost = bytes::Bytes::from(vec![0xC3u8; 2048]);
    let mut now = 0u64;
    let mut send_cycle = |sock: &mut p2psap::Socket| {
        now += 1_000;
        let (_, out) = sock.send(ghost.clone(), now);
        for segment in out.data {
            let on_the_wire = segment.clone(); // what the datagram copies from
            drop(on_the_wire);
            let buf = segment.try_reclaim().expect("wire released its reference");
            sock.recycle_wire(buf);
        }
    };
    for _ in 0..3 {
        send_cycle(&mut sock);
    }
    let delta = min_delta(|| {
        for _ in 0..64 {
            send_cycle(&mut sock);
        }
    });
    assert_eq!(
        delta.allocations,
        64 * SESSION_SEND_ALLOCS,
        "session send path cost changed: {delta:?}"
    );

    // One ghost plane of `obstacle-lockstep` through the reliable
    // synchronous mode, in memory: send → on_data → receive, and the
    // acknowledgement's way back, which releases the retransmission copy.
    let open_reliable = || {
        p2psap::Socket::open(
            p2psap::Scheme::Synchronous,
            netsim::ConnectionType::IntraCluster,
        )
    };
    let (mut sender, mut receiver) = (open_reliable(), open_reliable());
    let plane = bytes::Bytes::from(vec![0x3Cu8; 10_388]);
    let mut now = 0u64;
    let mut round_trip = || {
        now += 10_000;
        let (seq, out) = sender.send(plane.clone(), now);
        let mut completed = None;
        for segment in out.data {
            for ack in receiver.on_data(segment, now).data {
                completed = sender.on_data(ack, now).completions.pop();
            }
        }
        assert_eq!(receiver.receive().map(|p| p.len()), Some(plane.len()));
        assert_eq!(completed, Some(seq));
    };
    for _ in 0..3 {
        round_trip();
    }
    let delta = min_delta(|| {
        for _ in 0..64 {
            round_trip();
        }
    });
    assert_eq!(
        delta.allocations,
        64 * RELIABLE_ROUNDTRIP_ALLOCS,
        "reliable round trip cost changed: {delta:?}"
    );
}
