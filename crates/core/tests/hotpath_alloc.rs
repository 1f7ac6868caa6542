//! Zero-allocation assertions for the steady-state ghost-exchange hot path.
//!
//! This binary installs [`p2pdc::allocs::CountingAllocator`] as its global
//! allocator and measures five regions once their buffers are warm:
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
//!    lockstep round over a reliable synchronous link (both ends send one
//!    ghost plane, each carrying the acknowledgement of the plane it
//!    answers), pinned at its own figure: no bare ack leaves, and the
//!    carried acknowledgements allocate nothing of their own;
//! 5. every workload's `Workload::assemble` at the end of a solve, which
//!    decodes each rank's result straight onto the canvas — allocates the
//!    canvas and nothing else.
//!
//! The counters are process-global, so all assertions live in one `#[test]`
//! — parallel test threads would pollute each other's deltas. The libtest
//! harness's main thread can still allocate concurrently (event plumbing),
//! so each region takes the *minimum* delta over several identical windows:
//! transient out-of-band noise cannot depress the minimum, while a real
//! regression inflates every window.

use p2pdc::allocs::{self, CountingAllocator};
use p2pdc::app::{FrameSink, IterativeTask};
use p2pdc::runtime::udp::{encode_fragment_into, PortTable, UdpTransport, MAX_FRAGMENT_PAYLOAD};
use p2pdc::{
    HeatTask, LossShim, ObstacleTask, PageRankGraph, PageRankTask, PeerTransport, RunConfig,
    Scheme, UpdateMsg, Wire, WorkloadKind,
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

/// Allocations of one 10 388-byte ghost plane one way across a reliable
/// synchronous link in lockstep (measured; a round is two of them). Send:
/// the plane's wire buffer (it leaves with the delivered payload, so the
/// pool does not get it back), its shared handle, the wire and timer
/// vectors, and the cancel vector of the delayed-ack timer its carried
/// acknowledgement makes moot. Receive: the completion and cancel vectors of
/// that acknowledgement, the delivery vector, and the timer vector arming
/// the delayed ack the plane now makes owed. Before acknowledgements rode
/// on data a bare ack cost its own buffer, handle and wire vector per plane.
const LOCKSTEP_PLANE_ALLOCS: u64 = 9;

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
    let ports = PortTable::new(2);
    ports.set(1, sink.local_addr().unwrap().port());
    let mut transport = UdpTransport::new(
        0,
        Instant::now(),
        UdpSocket::bind("127.0.0.1:0").expect("bind sender"),
        ports,
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

    // `obstacle-lockstep`'s exchange over one reliable synchronous link, in
    // memory: both ends send one ghost plane per round, and each plane
    // carries the acknowledgement of the plane it answers — which completes
    // that send and releases its retransmission copy. No bare ack leaves.
    let open_reliable = || {
        p2psap::Socket::open(
            p2psap::Scheme::Synchronous,
            netsim::ConnectionType::IntraCluster,
        )
    };
    let (mut left, mut right) = (open_reliable(), open_reliable());
    let plane = bytes::Bytes::from(vec![0x3Cu8; 10_388]);
    let mut now = 0u64;
    // The link's first plane answers nothing.
    assert_eq!(plane_across(&mut left, &mut right, &plane, now), None);
    let mut lockstep_round = || {
        now += 10_000;
        let right_seq = plane_across(&mut right, &mut left, &plane, now);
        let left_seq = plane_across(&mut left, &mut right, &plane, now);
        assert!(
            right_seq.is_some() && left_seq.is_some(),
            "a plane went unacknowledged"
        );
    };
    for _ in 0..3 {
        lockstep_round();
    }
    let delta = min_delta(|| {
        for _ in 0..64 {
            lockstep_round();
        }
    });
    assert_eq!(
        delta.allocations,
        64 * 2 * LOCKSTEP_PLANE_ALLOCS,
        "lockstep exchange cost changed: {delta:?}"
    );
    assert_eq!(left.sent_segments().1 + right.sent_segments().1, 0);

    // 5. Assembling a solve's results: the canvas is the one allocation.
    for kind in WorkloadKind::ALL {
        let workload = kind.build(16, 4);
        let results: Vec<(usize, Vec<u8>)> = (0..4)
            .map(|rank| (rank, workload.task(rank).result()))
            .collect();
        let delta = min_delta(|| {
            for _ in 0..8 {
                std::hint::black_box(workload.assemble(&results));
            }
        });
        assert_eq!(
            delta.allocations, 8,
            "{kind} assemble allocated beyond its canvas: {delta:?}"
        );
    }
}

/// `tx` sends `plane` and `rx` takes it in. Returns the sequence number of
/// the send of `rx`'s that the plane's carried acknowledgement completed.
fn plane_across(
    tx: &mut p2psap::Socket,
    rx: &mut p2psap::Socket,
    plane: &bytes::Bytes,
    now: u64,
) -> Option<u64> {
    let (_, out) = tx.send(plane.clone(), now);
    assert_eq!(out.data.len(), 1);
    let mut completed = None;
    for segment in out.data {
        let answer = rx.on_data(segment, now);
        assert!(answer.data.is_empty(), "a bare ack left: {answer:?}");
        completed = answer.completions.first().copied();
    }
    assert_eq!(rx.receive().map(|p| p.len()), Some(plane.len()));
    completed
}
