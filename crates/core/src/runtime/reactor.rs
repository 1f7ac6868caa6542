//! The socket substrate of P2PDC: readiness-polled event loops, each
//! multiplexing any number of peers over nonblocking UDP sockets.
//!
//! The wire — framing, reassembly, bootstrap, loss shim, pacing gate — is
//! [`crate::runtime::udp`]'s, the run around the loops the shared
//! `RunScaffold`'s, and each loop is the shared walk (`runtime::walk`) over
//! its contiguous shard of the provisioned peers. What lives here is what
//! the walk asks of a substrate: a socket per peer and its bootstrap
//! discovery, the read of that socket, what a crash does to the wire (the
//! socket closes, a replacement binds and is published at once, and it
//! swallows what it reads until the grant), and the wait — a sleep in the
//! vendored [`polling`] readiness poller (epoll on Linux) plus the batched
//! heartbeat. Nothing here blocks: discovery resends hellos on poll ticks
//! until the bootstrap's table, the start signal, lands. No peer keeps an
//! address book: a socket writes its port into the run's [`PortTable`] when
//! it binds, and every transport reads it there when it sends.
//!
//! The event-loop count is a setting
//! ([`BackendExtras::Reactor`](crate::BackendExtras)). A small pool, sized
//! from the host's parallelism by default, runs a thousand peers as a
//! thousand sockets on a handful of threads (one OS thread per peer caps
//! out at tens: past the core count the scheduler burns the run's time
//! context-switching idle waiters); one loop per provisioned peer is the
//! thread-per-peer shape of a small real-socket run.

use crate::runtime::detection::{self, LoopHeartbeat};
use crate::runtime::driver::{DriverOutcome, TaskFactory};
use crate::runtime::engine::Wire;
use crate::runtime::host::{HostedPeer, Turn};
use crate::runtime::scaffold::RunScaffold;
use crate::runtime::udp::{
    accept_trains, bootstrap_service, grow_socket_buffers, localhost_addr, recv_train,
    wake_bootstrap, Datagram, LossShim, PortTable, Reassembler, UdpTransport,
};
use crate::runtime::walk::{walk, Peer, Phase, Substrate};
use crate::runtime::RunConfig;
use netsim::NodeId;
use polling::{Events, Poller};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Per-loop busy-time observability of a socket run: returned with the run
/// ([`SocketRunOutcome::loops`]) and kept for the most recent run of the
/// process (see [`last_loop_stats`]).
#[derive(Debug, Clone)]
pub struct LoopStats {
    /// Per-loop busy nanoseconds accumulated over the whole run.
    pub busy_ns_final: Vec<u64>,
    /// Peer migrations between loops: always 0, since each loop keeps the
    /// shard it was spawned with. Kept because the benchmark's
    /// `reactor.migrations_per_solve` metric reads it.
    pub migrations: u64,
    /// Data segments the peers sent, summed when each retires
    /// ([`PeerEngine::sent_segments`](crate::runtime::engine::PeerEngine::sent_segments)).
    pub data_segments: u64,
    /// Bare acknowledgement segments the peers sent, summed the same way.
    pub bare_acks: u64,
    /// Per-loop relaxations: the sweeps of each loop's peers, summed when
    /// each retires (the tasks' counters, as in
    /// [`RunMeasurement::relaxations_per_peer`](crate::metrics::RunMeasurement::relaxations_per_peer)).
    pub relaxations: Vec<u64>,
}

impl LoopStats {
    /// Number of event loops the run spawned.
    pub fn loops(&self) -> usize {
        self.busy_ns_final.len()
    }
}

/// Stats of the most recent completed socket run on this process, for
/// examples and benches ([`run_sockets`] overwrites it per run).
static LAST_LOOP_STATS: Mutex<Option<LoopStats>> = Mutex::new(None);

/// Per-loop busy time and sent-segment counts of the most recent reactor
/// run, if one completed.
pub fn last_loop_stats() -> Option<LoopStats> {
    LAST_LOOP_STATS.lock().unwrap().clone()
}

/// Outcome of a socket run: the uniform [`DriverOutcome`] plus what only a
/// real-socket run has.
#[derive(Debug, Clone)]
pub struct SocketRunOutcome {
    /// What the driver reports (elapsed is wall-clock).
    pub outcome: DriverOutcome,
    /// The localhost ports the peers last bound, in rank order.
    pub ports: Vec<u16>,
    /// Per-loop busy time and sent segments of this run.
    pub loops: LoopStats,
}

/// How long a discovering peer waits before re-announcing itself.
const HELLO_RETRY: Duration = Duration::from_millis(25);

/// Poll-timeout ceiling when every owned peer is quiescent: bounds the
/// latency of the dormant-join, await-grant and discovery polls (the run's
/// last retirement wakes the other loops with [`Poller::notify`]).
const IDLE_POLL_CAP: Duration = Duration::from_millis(2);

/// How many complete segments a discovering peer keeps for its engine. A
/// neighbour that already runs sends one update and, under the synchronous
/// scheme, waits; what does not fit is dropped as the network would drop it.
const EARLY_SEGMENTS: usize = 16;

/// Everything an event loop shares with its siblings.
#[derive(Clone, Copy)]
struct LoopShared<'a> {
    run: &'a RunScaffold,
    /// Every loop's readiness poller, by loop index.
    pollers: &'a [Poller],
    /// The loss shim's `(loss, reorder)` probabilities.
    impairment: (f64, f64),
    bootstrap_addr: SocketAddr,
    start: Instant,
    /// The run's address book.
    ports: &'a PortTable,
    tally: &'a LoopTally,
}

/// What the event loops tally together: each loop's busy time and its
/// peers' relaxations, the retired peers (the loops exit once all `total`
/// have), their sent `(data segments, bare acks)` and the datagrams their
/// shims dropped.
#[derive(Default)]
struct LoopTally {
    busy_ns: Vec<AtomicU64>,
    relaxations: Vec<AtomicU64>,
    done: AtomicUsize,
    total: usize,
    sent_segments: [AtomicU64; 2],
    dropped: AtomicU64,
}

impl LoopTally {
    fn new(loops: usize, total: usize) -> Self {
        Self {
            busy_ns: (0..loops).map(|_| AtomicU64::new(0)).collect(),
            relaxations: (0..loops).map(|_| AtomicU64::new(0)).collect(),
            total,
            ..Self::default()
        }
    }

    /// A peer retired; the run drains out once every provisioned rank has.
    /// Returns whether this was the last one.
    fn mark_done(&self) -> bool {
        self.done.fetch_add(1, Ordering::AcqRel) + 1 >= self.total
    }

    fn all_done(&self) -> bool {
        self.done.load(Ordering::Acquire) >= self.total
    }

    fn stats(&self) -> LoopStats {
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        LoopStats {
            busy_ns_final: self.busy_ns.iter().map(load).collect(),
            migrations: 0,
            data_segments: load(&self.sent_segments[0]),
            bare_acks: load(&self.sent_segments[1]),
            relaxations: self.relaxations.iter().map(load).collect(),
        }
    }
}

/// Bind a fresh nonblocking socket for `rank` (grown buffers, fragment
/// trains whole, so only [`recv_train`] may read it), register it with the
/// poller under the rank as key, and publish its port.
fn bind_peer_socket(rank: usize, poller: &Poller, ctx: &LoopShared<'_>) -> UdpSocket {
    let socket = UdpSocket::bind(localhost_addr(0)).expect("bind peer socket on localhost");
    socket.set_nonblocking(true).expect("set nonblocking");
    grow_socket_buffers(&socket);
    accept_trains(&socket);
    poller.add(&socket, rank).expect("register peer socket");
    ctx.ports
        .set(rank, socket.local_addr().expect("peer local addr").port());
    socket
}

/// Announce `rank`'s socket to the bootstrap service (one datagram).
fn announce(socket: &UdpSocket, rank: usize, ctx: &LoopShared<'_>) {
    let hello = Datagram::Hello { rank }.encode();
    let _ = socket.send_to(&hello, ctx.bootstrap_addr);
}

/// What a peer's socket keeps beside its transport: segments reassembled
/// while discovering (at most [`EARLY_SEGMENTS`]), whether the bootstrap
/// table arrived then, its last hello and whether it joined mid-run.
#[derive(Default)]
struct SocketWire {
    reassembler: Reassembler,
    early: Vec<(usize, Wire)>,
    table: bool,
    hello_at: Option<Instant>,
    joined: bool,
}

/// One event loop's substrate: its shard's sockets (`wires[rank - lo]` is
/// `rank`'s), its poller, a receive buffer for the largest read there is,
/// and the batched heartbeat.
struct Sockets<'a> {
    index: usize,
    lo: usize,
    ctx: LoopShared<'a>,
    poller: &'a Poller,
    events: Events,
    buf: Vec<u8>,
    heartbeat: LoopHeartbeat,
    running_nodes: Vec<NodeId>,
    wires: Vec<SocketWire>,
    /// When the pass under way started, for the loop's busy time.
    work: Option<Instant>,
}

impl<'a> Sockets<'a> {
    fn new(index: usize, ranks: std::ops::Range<usize>, ctx: LoopShared<'a>) -> Self {
        Self {
            index,
            lo: ranks.start,
            ctx,
            poller: &ctx.pollers[index],
            events: Events::new(),
            buf: vec![0u8; 65536],
            heartbeat: LoopHeartbeat::new(),
            running_nodes: Vec::new(),
            wires: ranks.map(|_| SocketWire::default()).collect(),
            work: None,
        }
    }
}

/// Act on one datagram off a peer's socket; returns whether the peer keeps
/// reading. Network bytes are untrusted — anything that does not decode,
/// or names a table of the wrong length, is dropped; none writes the
/// [`PortTable`]. Fragments (the data hot path) are parsed borrowed and
/// copied once, into a pooled reassembly buffer. While discovering, the
/// bootstrap table — the start signal — is the only datagram acted on, but
/// data fragments racing ahead of it — a neighbour whose table came first
/// is already sending — are reassembled and the complete segments kept for
/// the engine: discarding them would leave a synchronous sender waiting out
/// its retransmission timeout before the first sweep. A crashed peer's
/// replacement socket swallows stray traffic unread until recovery.
fn dispatch(
    wire: &mut SocketWire,
    phase: Phase,
    transport: &mut UdpTransport,
    bytes: &[u8],
    deliver: &mut impl FnMut(usize, Wire, &mut UdpTransport) -> bool,
) -> bool {
    if phase == Phase::AwaitGrant {
        return true;
    }
    if let Some((from, msg_id, index, count, payload)) = Datagram::fragment_fields(bytes) {
        let reassembled = wire
            .reassembler
            .push_ref(from, msg_id, index, count, payload);
        let Some((from, segment)) = reassembled else {
            return true;
        };
        if phase == Phase::Running {
            return deliver(from, Wire::Segment(segment), transport);
        }
        if wire.early.len() < EARLY_SEGMENTS {
            wire.early.push((from, Wire::Segment(segment)));
        }
        return true;
    }
    match (Datagram::decode(bytes), phase) {
        // The bootstrap table: every initial rank has announced. Only one
        // of the run's length is from its bootstrap; a running peer ignores
        // the re-broadcasts.
        (Some(Datagram::Table { ports }), Phase::Discovering) => {
            wire.table |= ports.len() == transport.ports.len();
            true
        }
        // Stop, rollback, gossip. Late hellos and foreign noise are ignored.
        (Some(datagram), Phase::Running) => match datagram.into_wire() {
            Some((from, w)) => deliver(from, w, transport),
            None => true,
        },
        _ => true,
    }
}

impl Substrate for Sockets<'_> {
    type Transport = UdpTransport;

    /// A fresh socket and the bootstrap hello; the peer then waits for the
    /// bootstrap table.
    fn attach(&mut self, rank: usize, joined: bool) -> UdpTransport {
        let ctx = &self.ctx;
        let (loss, reorder) = ctx.impairment;
        let socket = bind_peer_socket(rank, self.poller, ctx);
        announce(&socket, rank, ctx);
        let wire = &mut self.wires[rank - self.lo];
        wire.hello_at = Some(Instant::now());
        wire.joined = joined;
        UdpTransport::new(
            rank,
            ctx.start,
            socket,
            ctx.ports.clone(),
            // Per-rank stream so peers do not share drop decisions.
            LossShim::new(ctx.run.seed.wrapping_add(rank as u64), loss, reorder),
            ctx.run.topology.clone(),
        )
    }

    fn discover(
        &mut self,
        rank: usize,
        transport: &mut UdpTransport,
    ) -> Option<Vec<(usize, Wire)>> {
        let wire = &mut self.wires[rank - self.lo];
        if !std::mem::take(&mut wire.table) {
            if wire.hello_at.is_none_or(|at| at.elapsed() >= HELLO_RETRY) {
                wire.hello_at = Some(Instant::now());
                announce(&transport.socket, rank, &self.ctx);
            }
            return None;
        }
        // A joiner registers with the failure detector before its first
        // relaxation.
        if let (true, Some(topo)) = (wire.joined, &self.ctx.run.topo) {
            detection::rejoin(topo, &self.ctx.run.topology, rank, self.ctx.start);
        }
        Some(std::mem::take(&mut wire.early))
    }

    /// Read everything the kernel has buffered on the peer's socket, ready
    /// or not (the poller only ends the wait). A read is a fragment train
    /// ([`recv_train`]): the datagrams of one segment when `UDP_GRO` kept
    /// them together, else one, each dispatched as if read alone.
    fn drain_into(
        &mut self,
        rank: usize,
        phase: Phase,
        transport: &mut UdpTransport,
        mut deliver: impl FnMut(usize, Wire, &mut UdpTransport) -> bool,
    ) {
        let wire = &mut self.wires[rank - self.lo];
        while let Ok(train) = recv_train(&transport.socket, &mut self.buf) {
            for datagram in train {
                if !dispatch(wire, phase, transport, datagram, &mut deliver) {
                    return;
                }
            }
        }
    }

    /// A crash kills the peer's socket for real: the kernel drops what is
    /// in flight to the old port. The replacement binds now and its port
    /// goes into the run's table, so every peer addresses it from its next
    /// send on; the bootstrap need not hear of it, since its table only
    /// ever starts a discovering peer. The peer stops pinging: the topology
    /// manager evicts it and the monitor grants recovery.
    fn turned(&mut self, rank: usize, turn: Turn, _: &HostedPeer, transport: &mut UdpTransport) {
        if turn != Turn::Crashed {
            return;
        }
        transport.shim.flush(&transport.socket);
        let _ = self.poller.delete(&transport.socket);
        transport.socket = bind_peer_socket(rank, self.poller, &self.ctx);
        self.wires[rank - self.lo].reassembler = Reassembler::new();
    }

    /// Revive at once: the replacement socket's port has been in the run's
    /// port table since the crash, so no bootstrap round trip stands between
    /// the grant and the restore.
    fn revive(&mut self, rank: usize, _: &mut UdpTransport) -> bool {
        let ctx = &self.ctx;
        if let Some(topo) = &ctx.run.topo {
            detection::rejoin(topo, &ctx.run.topology, rank, ctx.start);
        }
        true
    }

    /// Flush the shim's held-back datagram, account its drops, sent
    /// segments and relaxations, deregister the socket. The run's last
    /// retirement releases the calling thread from the bootstrap service
    /// and the other loops from their idle waits.
    fn retire(&mut self, mut peer: Peer<UdpTransport>) {
        let ctx = &self.ctx;
        if let Some(host) = &peer.host {
            let (data, acks) = host.engine.sent_segments();
            ctx.tally.sent_segments[0].fetch_add(data, Ordering::Relaxed);
            ctx.tally.sent_segments[1].fetch_add(acks, Ordering::Relaxed);
            let relaxations = host.engine.relaxations();
            ctx.tally.relaxations[self.index].fetch_add(relaxations, Ordering::Relaxed);
        }
        if let Some(transport) = &mut peer.transport {
            transport.shim.flush(&transport.socket);
            let dropped = std::mem::take(&mut transport.shim.dropped);
            ctx.tally.dropped.fetch_add(dropped, Ordering::Relaxed);
            let _ = self.poller.delete(&transport.socket);
            self.wires[transport.rank - self.lo] = SocketWire::default();
        }
        if ctx.tally.mark_done() {
            wake_bootstrap(ctx.bootstrap_addr);
            for other in ctx.pollers {
                let _ = other.notify();
            }
        }
    }

    /// Sleep in the poller until a socket is readable or the earliest
    /// protocol timer, capped so the dormant / await-grant / discovery /
    /// stop polls stay responsive — not at all when a peer is busy. Then
    /// one batched heartbeat per ping period covers every running peer this
    /// loop multiplexes: a single topology-server acquisition instead of one
    /// per peer.
    fn wait(
        &mut self,
        peers: &mut [Peer<UdpTransport>],
        busy: bool,
        deadline: Option<u64>,
    ) -> bool {
        let ctx = &self.ctx;
        if let Some(work) = self.work.take() {
            let ns = work.elapsed().as_nanos() as u64;
            ctx.tally.busy_ns[self.index].fetch_add(ns, Ordering::Relaxed);
        }
        if ctx.tally.all_done() {
            return false;
        }
        let timeout = if busy {
            Duration::ZERO
        } else {
            let now_ns = ctx.start.elapsed().as_nanos() as u64;
            deadline.map_or(IDLE_POLL_CAP, |at| {
                Duration::from_nanos(at.saturating_sub(now_ns)).min(IDLE_POLL_CAP)
            })
        };
        self.events.clear();
        let _ = self.poller.wait(&mut self.events, Some(timeout));
        self.work = Some(Instant::now());
        if let Some(topo) = &ctx.run.topo {
            if self.heartbeat.due() {
                self.running_nodes.clear();
                let running = peers.iter().filter(|p| p.phase == Phase::Running);
                self.running_nodes.extend(running.map(|p| NodeId(p.rank)));
                let (topology, start) = (&ctx.run.topology, ctx.start);
                self.heartbeat
                    .beat_many(topo, topology, start, &self.running_nodes);
            }
        }
        true
    }
}

/// The run of the `reactor` backend over nonblocking localhost UDP sockets,
/// with its socket-level detail (bound ports, per-loop stats) still
/// attached. The provisioned peers are sharded over (at most) the
/// event-loop count of [`BackendExtras::Reactor`](crate::BackendExtras),
/// by default the host's parallelism (the loops are compute-bound — the
/// relaxation kernels run inline on them); the loss/reorder shim
/// probabilities come from there too. A loop may hand part of a large
/// obstacle sweep to a helper thread ([`obstacle::join`]) only when the
/// loops leave a core idle; loops that fill the cores sweep whole.
pub(crate) fn run_sockets(config: &RunConfig, task_factory: TaskFactory<'_>) -> SocketRunOutcome {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let loops = config.extras.event_loops().unwrap_or(cores);
    // Bootstrap-table slots and a dormant event-loop slot are provisioned
    // for ranks that may join mid-run.
    let total = config.provisioned_peers();
    let chunk = total.div_ceil(loops.clamp(1, total));
    // div_ceil can leave trailing loops with empty shards; spawn and tally
    // only the loops that get peers.
    let live_loops = total.div_ceil(chunk);
    // Each loop heartbeats all its peers at once, so the eviction window
    // scales with the multiplex degree (a loaded loop's iteration outlasting
    // three bare ping periods must not read as the death of every peer it
    // drives).
    let run = RunScaffold::wall_clock(config, chunk);

    // Bootstrap: bind the service port first so peers have a rendezvous
    // (hellos queue in the kernel until the service below reads them).
    let bootstrap_socket =
        UdpSocket::bind(localhost_addr(0)).expect("bind bootstrap socket on localhost");
    let bootstrap_addr = bootstrap_socket.local_addr().expect("bootstrap addr");

    let start = Instant::now();
    let ports = PortTable::new(total);
    let tally = LoopTally::new(live_loops, total);
    let pollers: Vec<Poller> = (0..live_loops)
        .map(|_| Poller::new().expect("create readiness poller"))
        .collect();
    let ctx = LoopShared {
        run: &run,
        pollers: &pollers,
        impairment: config.extras.impairment(),
        bootstrap_addr,
        start,
        ports: &ports,
        tally: &tally,
    };
    let lend_idle_cores = live_loops < cores;
    std::thread::scope(|scope| {
        run.spawn_monitor(scope, start);
        let ctx = &ctx;
        let loops: Vec<_> = (0..live_loops)
            .map(|index| {
                let ranks = index * chunk..((index + 1) * chunk).min(total);
                scope.spawn(move || {
                    obstacle::join::allow_helpers(lend_idle_cores);
                    let mut sockets = Sockets::new(index, ranks.clone(), *ctx);
                    walk(&mut sockets, ctx.run, ranks, task_factory)
                })
            })
            .collect();
        // The calling thread would only wait for the loops to retire: it
        // serves the bootstrap meanwhile, so a run costs no thread of its
        // own for it and ends the moment the last peer does. A loop that
        // ended early panicked; stop serving so the scope can report it.
        bootstrap_service(&bootstrap_socket, run.alpha, total, || {
            tally.all_done() || loops.iter().any(|l| l.is_finished())
        });
        // Join the loops instead of leaving them to the scope, which only
        // waits for their closures to return: a thread it does not join is
        // detached, and its teardown — returning its allocator arena —
        // races the next run's loops, which then open fresh arenas. Loops
        // that exit together (the last retirement notifies the others)
        // lost that race often enough to raise a benchmark pass's peak
        // RSS by 15–25 %.
        for handle in loops {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    let loops = tally.stats();
    *LAST_LOOP_STATS.lock().unwrap() = Some(loops.clone());

    SocketRunOutcome {
        outcome: run.finish(
            start.elapsed().as_nanos() as u64,
            None,
            tally.dropped.load(Ordering::Relaxed),
        ),
        ports: ports.ports(),
        loops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::engine::testing::RampTask;
    use crate::runtime::udp::{encode_fragment_into, send_train, MAX_FRAGMENT_PAYLOAD};
    use crate::BackendExtras;
    use bytes::Bytes;
    use netsim::ConnectionType;
    use p2psap::data::{SegmentKind, WireSegment};
    use p2psap::Scheme;

    const RAMP: u64 = 10;

    fn run_sockets(config: &RunConfig) -> SocketRunOutcome {
        let peers = config.topology.len();
        super::run_sockets(config, &|rank| Box::new(RampTask::line(rank, peers, RAMP)))
    }

    fn run(config: &RunConfig) -> DriverOutcome {
        run_sockets(config).outcome
    }

    /// Two event loops multiplexing three peers: the loops genuinely share
    /// peers (one carries two), and the synchronous scheme still runs in
    /// lockstep over the multiplexed sockets.
    #[test]
    fn synchronous_scheme_on_the_reactor_runs_in_lockstep() {
        let mut config =
            RunConfig::quick(Scheme::Synchronous, 3).with_extras(BackendExtras::Reactor {
                event_loops: 2,
                loss_probability: 0.0,
                reorder_probability: 0.0,
            });
        config.tolerance = 0.5;
        let SocketRunOutcome {
            outcome, mut ports, ..
        } = run_sockets(&config);
        assert!(outcome.measurement.converged);
        // Lockstep counts: the convergence iteration is the ramp length;
        // before the stop lands a wall-clock peer can overshoot it by at
        // most the topology diameter (it only waits on direct neighbours).
        for &count in &outcome.measurement.relaxations_per_peer {
            assert!(
                (RAMP..RAMP + 3).contains(&count),
                "lockstep violated: {count} vs ramp {RAMP}"
            );
        }
        assert_eq!(
            outcome
                .measurement
                .relaxations_per_peer
                .iter()
                .min()
                .copied(),
            Some(RAMP),
            "the detecting peer stops at exactly the convergence iteration"
        );
        assert_eq!(outcome.results.len(), 3);
        // Bootstrap assigned a distinct real port to every peer.
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 3);
        assert!(ports.iter().all(|&p| p != 0));
    }

    #[test]
    fn asynchronous_scheme_on_the_reactor_converges() {
        let mut config = RunConfig::quick(Scheme::Asynchronous, 3);
        config.tolerance = 0.5;
        let outcome = run(&config);
        assert!(outcome.measurement.converged);
        for &count in &outcome.measurement.relaxations_per_peer {
            assert!(count >= RAMP, "peer finished early: {count} < {RAMP}");
        }
    }

    #[test]
    fn hybrid_scheme_on_the_reactor_converges_across_two_clusters() {
        let mut config = RunConfig::quick_two_clusters(Scheme::Hybrid, 4);
        config.tolerance = 0.5;
        let outcome = run(&config);
        assert!(outcome.measurement.converged);
        assert_eq!(outcome.results.len(), 4);
    }

    /// A ramp task that also sweeps an obstacle block large enough to cut,
    /// and notes whether its loop thread may borrow a helper and how many
    /// parts it handed off.
    struct SweepingTask {
        ramp: RampTask,
        problem: std::sync::Arc<obstacle::ObstacleProblem>,
        block: obstacle::NodeState,
        allowed: std::sync::Arc<AtomicUsize>,
        handoffs: std::sync::Arc<AtomicU64>,
    }

    impl crate::app::IterativeTask for SweepingTask {
        fn relax(&mut self) -> crate::app::LocalRelax {
            let before = obstacle::join::handoffs();
            self.block
                .sweep(&self.problem, self.problem.optimal_delta());
            let handed = obstacle::join::handoffs() - before;
            self.handoffs.fetch_add(handed, Ordering::Relaxed);
            if obstacle::join::helpers_allowed() {
                self.allowed.fetch_add(1, Ordering::Relaxed);
            }
            self.ramp.relax()
        }
        fn encode_outgoing(&mut self, sink: &mut crate::app::FrameSink) {
            self.ramp.encode_outgoing(sink)
        }
        fn incorporate(&mut self, from: usize, payload: &[u8]) -> f64 {
            self.ramp.incorporate(from, payload)
        }
        fn neighbors(&self) -> Vec<usize> {
            self.ramp.neighbors()
        }
        fn result(&self) -> Vec<u8> {
            self.ramp.result()
        }
        fn relaxations(&self) -> u64 {
            self.ramp.relaxations()
        }
    }

    /// Loops that fill the cores never hand a part of a sweep to a helper,
    /// however large the block; fewer loops than cores may.
    #[test]
    fn loops_that_fill_the_cores_never_hand_a_sweep_off() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let n = 44;
        let problem = std::sync::Arc::new(obstacle::ObstacleProblem::membrane(n));
        let decomp = obstacle::BlockDecomposition::balanced(n, 1);
        for loops in [cores, 1] {
            let peers = 2 * cores;
            let allowed = std::sync::Arc::new(AtomicUsize::new(0));
            let handoffs = std::sync::Arc::new(AtomicU64::new(0));
            let mut config =
                RunConfig::quick(Scheme::Synchronous, peers).with_extras(BackendExtras::Reactor {
                    event_loops: loops,
                    loss_probability: 0.0,
                    reorder_probability: 0.0,
                });
            config.tolerance = 0.5;
            let factory = |rank| -> Box<dyn crate::app::IterativeTask> {
                Box::new(SweepingTask {
                    ramp: RampTask::line(rank, peers, 3),
                    problem: problem.clone(),
                    block: obstacle::NodeState::new(&problem, &decomp, 0),
                    allowed: allowed.clone(),
                    handoffs: handoffs.clone(),
                })
            };
            let outcome = super::run_sockets(&config, &factory).outcome;
            assert!(outcome.measurement.converged, "{loops} loops");
            let sweeps = outcome.measurement.total_relaxations() as usize;
            let fill = loops >= cores || obstacle::join::helpers() == 0;
            if fill {
                assert_eq!(handoffs.load(Ordering::Relaxed), 0, "{loops} loops");
                assert_eq!(allowed.load(Ordering::Relaxed), 0, "{loops} loops");
            } else {
                assert_eq!(allowed.load(Ordering::Relaxed), sweeps, "{loops} loops");
            }
        }
    }

    /// Retirement counting drains the run: the loops exit once every
    /// provisioned rank has retired, and only the last retirement says so.
    #[test]
    fn the_run_drains_when_every_provisioned_rank_has_retired() {
        let tally = LoopTally::new(2, 2);
        assert!(!tally.all_done());
        assert!(!tally.mark_done());
        assert!(!tally.all_done());
        assert!(tally.mark_done(), "the last retirement");
        assert!(tally.all_done());
    }

    /// Rank 1 of a three-rank run on a real socket, standing alone: the
    /// "bootstrap" and both neighbours are sink sockets the test owns, so
    /// whatever the peer sends in reaction to hostile input lands nowhere
    /// else on the machine.
    struct Hostile {
        run: RunScaffold,
        sinks: [UdpSocket; 2],
        injector: UdpSocket,
        poller: Poller,
        ports: PortTable,
        tally: LoopTally,
    }

    const HOSTILE_RANKS: usize = 3;

    impl Hostile {
        fn new() -> Self {
            Self::with_config(&RunConfig::quick(Scheme::Synchronous, HOSTILE_RANKS).with_gossip(2))
        }

        /// The harness over a run of [`HOSTILE_RANKS`] ranks configured as
        /// `config` says.
        fn with_config(config: &RunConfig) -> Self {
            let bind = || UdpSocket::bind(localhost_addr(0)).expect("bind test socket");
            let hostile = Self {
                run: RunScaffold::wall_clock(config, 1),
                sinks: [bind(), bind()],
                injector: bind(),
                poller: Poller::new().expect("create poller"),
                ports: PortTable::new(HOSTILE_RANKS),
                tally: LoopTally::new(1, HOSTILE_RANKS),
            };
            // Both neighbours live at sink 0; rank 1 publishes its own port
            // when it binds.
            for rank in [0, 2] {
                hostile.ports.set(rank, hostile.sink_port(0));
            }
            hostile
        }

        fn sink_port(&self, pick: u64) -> u16 {
            let sink = &self.sinks[pick as usize % 2];
            sink.local_addr().expect("sink addr").port()
        }

        fn ctx(&self) -> LoopShared<'_> {
            LoopShared {
                run: &self.run,
                pollers: std::slice::from_ref(&self.poller),
                impairment: (0.0, 0.0),
                bootstrap_addr: localhost_addr(self.sink_port(0)),
                start: Instant::now(),
                ports: &self.ports,
                tally: &self.tally,
            }
        }

        /// The substrate of a loop whose shard is rank 1 alone.
        fn sockets(&self) -> Sockets<'_> {
            Sockets::new(0, 1..2, self.ctx())
        }

        /// The peer, bound and waiting for the bootstrap table.
        fn discovering_peer(&self, sockets: &mut Sockets<'_>) -> Peer<UdpTransport> {
            let task = Box::new(RampTask::line(1, HOSTILE_RANKS, RAMP));
            Peer {
                rank: 1,
                phase: Phase::Discovering,
                host: Some(self.run.host(1, task)),
                transport: Some(sockets.attach(1, false)),
            }
        }

        /// The peer after the bootstrap table arrived.
        fn running_peer(&self, sockets: &mut Sockets<'_>) -> Peer<UdpTransport> {
            let mut peer = self.discovering_peer(sockets);
            self.deliver_table(sockets, &mut peer);
            peer
        }

        /// Send the bootstrap table (every rank at sink 0) and let the peer
        /// start.
        fn deliver_table(&self, sockets: &mut Sockets<'_>, peer: &mut Peer<UdpTransport>) {
            let table = Datagram::Table {
                ports: vec![self.sink_port(0); HOSTILE_RANKS],
            };
            self.inject(sockets, peer, &table.encode());
            peer.advance(sockets, &self.run);
            assert_eq!(peer.phase, Phase::Running);
        }

        /// Deliver `bytes` to the peer's socket as one datagram.
        fn inject(&self, sockets: &mut Sockets<'_>, peer: &mut Peer<UdpTransport>, bytes: &[u8]) {
            self.inject_train(sockets, peer, bytes, bytes.len().max(1));
        }

        /// Deliver `bytes` to the peer's socket as a fragment train cut
        /// every `stride` bytes, the way an event loop sees it: wait for
        /// readiness, then drain.
        fn inject_train(
            &self,
            sockets: &mut Sockets<'_>,
            peer: &mut Peer<UdpTransport>,
            bytes: &[u8],
            stride: usize,
        ) {
            let socket = &peer.transport.as_ref().expect("bound peer").socket;
            let addr = socket.local_addr().expect("peer addr");
            send_train(&self.injector, bytes, stride, addr).expect("inject train");
            let mut events = Events::new();
            self.poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("poll peer socket");
            peer.drain(sockets);
        }

        /// One hostile datagram: random bytes, or a datagram of any kind
        /// with fields drawn to include the malformed corners (foreign and
        /// out-of-range senders, `frag_index >= frag_count`, tables of the
        /// wrong length, truncated gossip frames) — then, half the time, one
        /// flipped bit. Table ports only ever name the test's own sinks.
        fn hostile_datagram(&self, rng: &mut proptest::TestRng, gossip_frame: &[u8]) -> Vec<u8> {
            let noise = |rng: &mut proptest::TestRng, max: u64| -> Vec<u8> {
                (0..rng.below(max)).map(|_| rng.next_u64() as u8).collect()
            };
            let from = [0, 1, 2, HOSTILE_RANKS, 1000, 65535][rng.below(6) as usize];
            let datagram = match rng.below(7) {
                0 => return noise(rng, 64),
                1 => Datagram::Fragment {
                    from,
                    msg_id: rng.below(4) as u32,
                    frag_index: rng.below(4) as u16,
                    frag_count: rng.below(4) as u16,
                    payload: noise(rng, 48),
                },
                2 => Datagram::Stop { from },
                3 => Datagram::Hello { rank: from },
                4 => Datagram::Rollback {
                    from,
                    to_iteration: rng.next_u64(),
                    generation: rng.next_u64() as u32,
                },
                5 => Datagram::Table {
                    ports: (0..rng.below(6))
                        .map(|_| [0, self.sink_port(0), self.sink_port(1)][rng.below(3) as usize])
                        .collect(),
                },
                _ => {
                    let keep = match rng.below(2) {
                        0 => gossip_frame.len(),
                        _ => rng.below(gossip_frame.len() as u64) as usize,
                    };
                    Datagram::Gossip {
                        from,
                        payload: gossip_frame[..keep].to_vec(),
                    }
                }
            };
            let mut bytes = datagram.encode();
            if rng.below(2) == 0 {
                let bit = rng.below(bytes.len() as u64 * 8) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            bytes
        }
    }

    proptest::proptest! {
        /// No bytes off the network panic the receive sweep, in either phase
        /// that reads the socket, or move the run's port table, and only a
        /// well-formed bootstrap table of the run's length lets a
        /// discovering peer start — whether the bytes arrive as one datagram
        /// or as a train cut at a stride that respects nothing.
        #[test]
        fn hostile_datagrams_never_panic_or_move_the_address_book(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = proptest::TestRng::new(seed);
            let hostile = Hostile::new();
            let mut sockets = hostile.sockets();
            // A genuine gossip frame from rank 0, as the valid baseline the
            // truncations and bit flips start from.
            let gossip_frame = hostile
                .run
                .host(0, Box::new(RampTask::line(0, HOSTILE_RANKS, RAMP)))
                .gossip
                .expect("gossip run")
                .poll(0)
                .first()
                .expect("the first poll probes")
                .1
                .encode();
            // One hostile datagram or, a third of the time, several laid end
            // to end and cut at a stride of their own: through every header,
            // past the end of the read, at the largest a control message
            // can name, or anywhere.
            let hostile_train = |rng: &mut proptest::TestRng| -> (Vec<u8>, usize) {
                if rng.below(3) > 0 {
                    let bytes = hostile.hostile_datagram(rng, &gossip_frame);
                    let stride = bytes.len().max(1);
                    return (bytes, stride);
                }
                let mut bytes = Vec::new();
                for _ in 0..2 + rng.below(4) {
                    bytes.extend(hostile.hostile_datagram(rng, &gossip_frame));
                }
                let len = bytes.len() as u64;
                let stride = match rng.below(4) {
                    0 => 7,
                    1 => len + 1 + rng.below(100),
                    2 => 65_535,
                    _ => 1 + rng.below(len.max(1)),
                };
                (bytes, stride as usize)
            };
            // Whether a train carries the start signal: a bootstrap table
            // of the run's length.
            let starts = |bytes: &[u8], stride: usize| {
                bytes.chunks(stride).any(|datagram| {
                    matches!(
                        Datagram::decode(datagram),
                        Some(Datagram::Table { ports }) if ports.len() == HOSTILE_RANKS
                    )
                })
            };

            let mut peer = hostile.discovering_peer(&mut sockets);
            let mut book = hostile.ports.ports();
            for _ in 0..24 {
                let (bytes, stride) = hostile_train(&mut rng);
                let start = starts(&bytes, stride);
                hostile.inject_train(&mut sockets, &mut peer, &bytes, stride);
                peer.advance(&mut sockets, &hostile.run);
                // A discovering peer reads every datagram, and starts on the
                // table of the run's length alone.
                proptest::prop_assert_eq!(peer.phase == Phase::Running, start);
                proptest::prop_assert_eq!(hostile.ports.ports(), book.clone());
                if start {
                    sockets = hostile.sockets();
                    peer = hostile.discovering_peer(&mut sockets);
                    book = hostile.ports.ports();
                }
            }

            let mut sockets = hostile.sockets();
            let mut peer = hostile.running_peer(&mut sockets);
            let mut book = hostile.ports.ports();
            for _ in 0..48 {
                // A forged stop ends the engine, and a finished peer stops
                // reading its socket: carry on with a fresh one.
                if peer.host.as_ref().unwrap().engine.finished() {
                    sockets = hostile.sockets();
                    peer = hostile.running_peer(&mut sockets);
                    book = hostile.ports.ports();
                }
                let (bytes, stride) = hostile_train(&mut rng);
                hostile.inject_train(&mut sockets, &mut peer, &bytes, stride);
                proptest::prop_assert_eq!(hostile.ports.ports(), book.clone());
            }
        }
    }

    /// Revive at the grant: the crash binds the replacement socket and puts
    /// its port in the run's table, and the grant revives the peer at once
    /// — no `Table` arrives in between.
    #[test]
    fn a_crashed_peer_revives_at_the_grant_without_a_table() {
        use crate::churn::ChurnPlan;
        use crate::runtime::driver::ClockDomain;

        let mut config = RunConfig::quick(Scheme::Synchronous, HOSTILE_RANKS).with_gossip(2);
        config.churn = Some(ChurnPlan::kill(1, 1).with_checkpoint_interval(1));
        let hostile = Hostile::with_config(&config);
        let mut sockets = hostile.sockets();
        let mut peer = hostile.running_peer(&mut sockets);
        let port = |peer: &Peer<UdpTransport>| {
            let socket = &peer.transport.as_ref().expect("bound peer").socket;
            socket.local_addr().expect("peer addr").port()
        };
        let dead_port = port(&peer);
        // Sweep 1 completes on the first turn, and it is the peer's last.
        peer.advance(&mut sockets, &hostile.run);
        assert_eq!(peer.phase, Phase::AwaitGrant);
        let new_port = port(&peer);
        assert_ne!(new_port, dead_port);
        assert_eq!(hostile.ports.ports()[1], new_port);
        // Not granted yet: it waits. Granted: it runs again at once.
        peer.advance(&mut sockets, &hostile.run);
        assert_eq!(peer.phase, Phase::AwaitGrant);
        let host = peer.host.as_ref().expect("crashed peer is hosted");
        host.self_grant(&hostile.run, ClockDomain::Virtual);
        peer.advance(&mut sockets, &hostile.run);
        assert_eq!(peer.phase, Phase::Running);
        let engine = &peer.host.as_ref().expect("revived peer").engine;
        assert!(!engine.crashed() && !engine.finished());
        assert_eq!(port(&peer), new_port);
    }

    /// A read that does not fit the buffer is dropped whole: its head may
    /// look like a datagram, but what was cut off is gone and so is every
    /// boundary behind the cut. (Only a kernel that reports `MSG_TRUNC` can
    /// tell; the drive loop's own buffer holds the largest read there is.)
    #[cfg(target_os = "linux")]
    #[test]
    fn truncated_read_is_dropped_whole() {
        let hostile = Hostile::new();
        let mut sockets = hostile.sockets();
        let mut peer = hostile.discovering_peer(&mut sockets);
        let table = Datagram::Table {
            ports: vec![hostile.sink_port(1); HOSTILE_RANKS],
        }
        .encode();
        let mut padded = table.clone();
        padded.extend_from_slice(&[0xEE; 5]);
        // The buffer holds exactly the table: were the head of the
        // truncated read dispatched, the peer would have its start signal.
        sockets.buf.truncate(table.len());
        hostile.inject(&mut sockets, &mut peer, &padded);
        assert!(!sockets.wires[0].table);
        sockets.buf.resize(65536, 0);
        hostile.inject(&mut sockets, &mut peer, &padded);
        assert!(sockets.wires[0].table);
    }

    /// The start-up race on two event loops, replayed by hand: rank 0 got
    /// its table first and its first reliable update — three fragments —
    /// reaches rank 1 while that peer still waits for the table. The peer
    /// must keep the segment and hand it to its engine once started, which
    /// shows on the wire as the acknowledgement rank 0 is waiting for;
    /// dropping it costs the sender a full retransmission timeout. The peer
    /// is first turned once the delayed-ack timer is due — a turn fires due
    /// timers before it completes the first sweep, whose planes would carry
    /// the acknowledgement — so it leaves as a bare ack over a real socket.
    #[test]
    fn segment_arriving_before_the_table_reaches_the_engine() {
        let hostile = Hostile::new();
        let mut sockets = hostile.sockets();
        let mut peer = hostile.discovering_peer(&mut sockets);

        let mut sender = p2psap::Socket::open(Scheme::Synchronous, ConnectionType::IntraCluster);
        let (seq, out) = sender.send(Bytes::from(vec![7u8; 2 * MAX_FRAGMENT_PAYLOAD + 100]), 1);
        let segment = &out.data[0];
        let fragments: Vec<&[u8]> = segment.chunks(MAX_FRAGMENT_PAYLOAD).collect();
        assert_eq!(fragments.len(), 3);
        let mut datagram = Vec::new();
        for (index, fragment) in fragments.iter().enumerate() {
            encode_fragment_into(&mut datagram, 0, 9, index as u16, 3, fragment);
            hostile.inject(&mut sockets, &mut peer, &datagram);
        }
        assert_eq!(peer.phase, Phase::Discovering);
        assert_eq!(
            sockets.wires[0].early.len(),
            1,
            "the complete segment is kept"
        );

        hostile.deliver_table(&mut sockets, &mut peer);
        assert!(sockets.wires[0].early.is_empty());
        std::thread::sleep(Duration::from_nanos(p2psap::ACK_DELAY_NS));
        peer.advance(&mut sockets, &hostile.run);
        let mut buf = vec![0u8; 65536];
        let sink = &hostile.sinks[0];
        sink.set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set sink timeout");
        loop {
            let (len, _) = sink
                .recv_from(&mut buf)
                .expect("the peer acknowledges the early segment");
            let Some(Datagram::Fragment { from, payload, .. }) = Datagram::decode(&buf[..len])
            else {
                continue; // the hello to the "bootstrap"
            };
            assert_eq!(from, 1);
            let reply = WireSegment::decode(Bytes::from(payload)).expect("a clean segment");
            assert_eq!(
                reply.kind,
                SegmentKind::Ack,
                "the delayed ack leaves before the first sweep's planes"
            );
            let acked: Vec<u64> = reply.acks.as_slice().iter().map(|ack| ack.seq).collect();
            assert_eq!(acked, [seq]);
            break;
        }
    }

    /// Acknowledgements ride on data: in a synchronous solve every plane is
    /// answered by the neighbour's next plane, which carries its
    /// acknowledgement, so a bare ack only leaves when no plane follows in
    /// time — at most one per directed link, the last plane's, against one
    /// per plane before. Eight peers on one event loop, as
    /// `obstacle-lockstep` runs them: a peer reads its neighbours' planes
    /// at its turn and publishes its next plane in the same turn, so an
    /// acknowledgement waits out one sweep of its own, on a grid small
    /// enough that an unoptimised build's sweep stays well inside
    /// `ACK_DELAY_NS`. The best of three solves is held to the bound, so
    /// one event-loop stall on a loaded box cannot fail it. The counts are
    /// printed (CI runs this with `--nocapture`).
    #[test]
    fn synchronous_solve_acknowledges_on_data_not_in_bare_acks() {
        use crate::obstacle_app::ObstacleTask;
        use obstacle::ObstacleProblem;
        use std::sync::Arc;

        let peers = 8;
        let problem = Arc::new(ObstacleProblem::membrane(12));
        let config =
            RunConfig::quick(Scheme::Synchronous, peers).with_extras(BackendExtras::Reactor {
                event_loops: 1,
                loss_probability: 0.0,
                reorder_probability: 0.0,
            });
        let directed_links = 2 * (peers as u64 - 1);
        let mut fewest = u64::MAX;
        for solve in 0..3 {
            let run = super::run_sockets(&config, &|rank| {
                Box::new(ObstacleTask::new(Arc::clone(&problem), peers, rank))
            });
            assert!(run.outcome.measurement.converged);
            let relaxations: u64 = run.outcome.measurement.relaxations_per_peer.iter().sum();
            let stats = &run.loops;
            println!(
                "solve {solve}: {} relaxations, {} data segments, {} bare acks",
                relaxations, stats.data_segments, stats.bare_acks
            );
            assert!(stats.data_segments >= directed_links * 10);
            fewest = fewest.min(stats.bare_acks);
        }
        assert!(
            fewest <= directed_links,
            "{fewest} bare acks for {directed_links} directed links"
        );
    }

    /// The same race on real event loops: before discovering peers kept
    /// early segments, a synchronous run on two loops waited out the
    /// reliable channel's 600 ms retransmission timeout at start-up in 5 %
    /// to 100 % of the solves of a pass. A healthy solve of this size takes
    /// a few tens of milliseconds.
    #[test]
    fn two_loop_synchronous_solves_start_without_a_retransmission_timeout() {
        use crate::obstacle_app::ObstacleTask;
        use obstacle::ObstacleProblem;
        use std::sync::Arc;

        let peers = 4;
        let problem = Arc::new(ObstacleProblem::membrane(12));
        let config =
            RunConfig::quick(Scheme::Synchronous, peers).with_extras(BackendExtras::Reactor {
                event_loops: 2,
                loss_probability: 0.0,
                reorder_probability: 0.0,
            });
        // `ReliabilityMicro::with_defaults`.
        let rto = Duration::from_millis(600);
        for solve in 0..10 {
            let started = Instant::now();
            let outcome = super::run_sockets(&config, &|rank| {
                Box::new(ObstacleTask::new(Arc::clone(&problem), peers, rank))
            })
            .outcome;
            let took = started.elapsed();
            assert!(outcome.measurement.converged);
            assert!(took < rto, "solve {solve} took {took:?}: a start-up stall");
        }
    }

    /// Crash + recovery inside an event loop: the victim's socket is
    /// replaced, the failure monitor grants recovery, and the revived peer
    /// rediscovers and restores from its checkpoint — all without blocking
    /// the sibling peers multiplexed on the same loop.
    #[test]
    fn seeded_crash_recovers_on_a_shared_event_loop() {
        use crate::churn::ChurnPlan;
        use crate::obstacle_app::ObstacleTask;
        use obstacle::ObstacleProblem;
        use std::sync::Arc;

        let n = 8;
        let peers = 2;
        let problem = Arc::new(ObstacleProblem::membrane(n));
        let mut config =
            RunConfig::quick(Scheme::Asynchronous, peers).with_extras(BackendExtras::Reactor {
                event_loops: 1,
                loss_probability: 0.0,
                reorder_probability: 0.0,
            });
        config.churn = Some(ChurnPlan::kill(1, 12).with_checkpoint_interval(5));
        let outcome = super::run_sockets(&config, &|rank| {
            Box::new(ObstacleTask::new(Arc::clone(&problem), peers, rank))
        })
        .outcome;
        assert!(outcome.measurement.converged, "faulty run must converge");
        assert_eq!(outcome.measurement.crashes, 1);
        assert_eq!(outcome.measurement.recoveries, 1);
        assert!(outcome.measurement.downtime_s > 0.0);
    }
}
