//! The socket drive loop of P2PDC: readiness-polled event loops, each
//! multiplexing any number of peers over nonblocking UDP sockets.
//!
//! Both real-socket backends run this module. The wire — datagram framing,
//! fragment reassembly, bootstrap discovery, loss shim, pacing gate — is
//! [`crate::runtime::udp`]'s; the run around the loop is the shared
//! `RunScaffold`, and what a running peer does per turn and with each
//! inbound wire is the shared hosted peer's (`runtime::host`). What lives
//! here is the wait — the per-peer phase machine (`Peer`) and the event loop
//! that drives it through the vendored [`polling`] readiness poller (epoll
//! on Linux) — and what a crash does to the wire: the socket closes and a
//! replacement binds. The backends differ only in how many loops share the
//! provisioned peers:
//!
//! * `reactor` — a small fixed pool of event-loop threads, each owning a
//!   contiguous slice of peers. A thousand peers are a thousand sockets on
//!   a handful of threads, so the 1024-peer rows of the scaling grid run on
//!   a laptop (the thread-per-peer backends cap out at tens: past the core
//!   count the scheduler burns the run's time context-switching idle
//!   waiters).
//! * `udp` — one event loop per provisioned peer
//!   (`udp::run_sockets`).
//!
//! Blocking is forbidden inside an event loop, so every wait is a per-peer
//! state machine phase: bootstrap discovery resends hellos on poll ticks
//! until the rank→address table lands, a pre-provisioned join rank stays
//! dormant until its seeded join fires, and a crashed peer parks in an
//! await-grant phase (its replacement socket already bound and its port
//! already published) until the failure monitor grants recovery — it
//! revives at once — or the run stops.

use crate::runtime::detection::{Heartbeat, LoopHeartbeat};
use crate::runtime::driver::{DriverOutcome, TaskFactory};
use crate::runtime::engine::Wire;
use crate::runtime::host::{CrashVerdict, HostedPeer, Polled, Turn};
use crate::runtime::scaffold::{JoinPoll, RunScaffold};
use crate::runtime::udp::{
    accept_trains, bootstrap_service, grow_socket_buffers, localhost_addr, recv_train, table_addrs,
    wake_bootstrap, Datagram, LossShim, Reassembler, UdpTransport,
};
use crate::runtime::RunConfig;
use bytes::Bytes;
use netsim::NodeId;
use polling::{Events, Poller};
use std::collections::HashMap;
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
}

impl LoopStats {
    /// Number of event loops the run spawned.
    pub fn loops(&self) -> usize {
        self.busy_ns_final.len()
    }
}

/// Stats of the most recent completed socket run on this process, for
/// examples and benches ([`run_iterative_reactor`] overwrites it per run).
static LAST_LOOP_STATS: Mutex<Option<LoopStats>> = Mutex::new(None);

/// Per-loop busy time and sent-segment counts of the most recent reactor
/// run, if one completed.
pub fn last_loop_stats() -> Option<LoopStats> {
    LAST_LOOP_STATS.lock().unwrap().clone()
}

/// The run of the `reactor` backend, with its socket-level detail (bound
/// ports, per-loop stats) still attached. Reads the event-loop count and the
/// loss/reorder shim probabilities from
/// [`BackendExtras::Reactor`](crate::BackendExtras): the event-loop pool is
/// explicit via extras, otherwise sized from the host's parallelism (the
/// loops are compute-bound — the relaxation kernels run inline on them).
pub(crate) fn run_sockets(config: &RunConfig, task_factory: TaskFactory<'_>) -> SocketRunOutcome {
    let loops = config.extras.event_loops().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    run_iterative_reactor(config, task_factory, loops)
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

/// How long a discovering peer waits before re-announcing itself to the
/// bootstrap service.
const HELLO_RETRY: Duration = Duration::from_millis(25);

/// Poll-timeout ceiling when every owned peer is quiescent: bounds the
/// latency of the dormant-join, await-grant and discovery polls.
/// Not the end of a run: a stopped peer is woken by the stop broadcast on
/// its socket, and the loop that retires the run's last peer wakes the
/// others with [`Poller::notify`].
const IDLE_POLL_CAP: Duration = Duration::from_millis(2);

/// How many complete segments a discovering peer keeps for its engine. A
/// neighbour that already runs sends one update and, under the synchronous
/// scheme, waits; what does not fit is dropped as the network would drop it.
const EARLY_SEGMENTS: usize = 16;

/// What to do with a hosted peer once the rank→address table arrives.
enum OnTable {
    /// Initial rank: first discovery, then `on_start`.
    Start,
    /// Mid-run joiner: announce to the failure detector, then `on_start`.
    JoinStart,
}

/// One multiplexed peer's slot in an event loop.
enum Phase {
    /// Pre-provisioned join rank: no socket, no hosted peer, waiting for
    /// its seeded join to fire (or the run to end first).
    Dormant,
    /// Socket bound, hello sent; waiting for the bootstrap table.
    Discovering {
        /// When the last hello went out (resend after [`HELLO_RETRY`]).
        hello_at: Instant,
        /// What to do once the table lands.
        then: OnTable,
    },
    /// Crashed; replacement socket bound and its port published, waiting
    /// for the recovery grant (or the run to stop).
    AwaitGrant,
    /// Discovered and computing.
    Running,
    /// Finished (or never spawned); shim flushed, socket deregistered.
    Done,
}

/// One peer multiplexed onto an event loop.
struct Peer {
    rank: usize,
    phase: Phase,
    /// Engine and SWIM node. `None` only while [`Phase::Dormant`].
    host: Option<HostedPeer>,
    /// `None` only while [`Phase::Dormant`] (no socket yet).
    transport: Option<UdpTransport>,
    reassembler: Reassembler,
    /// Segments reassembled while [`Phase::Discovering`] (at most
    /// [`EARLY_SEGMENTS`]), handed to the engine once it has started.
    early: Vec<(usize, Bytes)>,
    heartbeat: Option<Heartbeat>,
    /// Table received by the drain sweep, applied by the advance sweep.
    table: Option<Vec<SocketAddr>>,
    /// Last observed [`LoopShared::ports_version`]; a newer shared value
    /// means some rank rebound and this peer must refresh its address book.
    seen_ports_version: u64,
}

/// Everything an event loop shares with its siblings.
struct LoopShared<'a> {
    run: &'a RunScaffold,
    /// Every loop's readiness poller, by loop index: a loop waits on its
    /// own and [`Poller::notify`]s the others.
    pollers: &'a [Poller],
    /// The loss shim's `(loss, reorder)` probabilities.
    impairment: (f64, f64),
    bootstrap_addr: SocketAddr,
    start: Instant,
    ports: &'a Mutex<Vec<u16>>,
    /// Bumped on every write to `ports`. Peers poll it each Running turn and
    /// re-sync their address book when it moves: the `Table` re-broadcast
    /// after a rebind is a single unacked datagram, and a peer that misses
    /// it would send ghosts to a recovered peer's dead port forever (the
    /// victim's freshness guard then rightly never reports stability again,
    /// so the run never stops).
    ports_version: &'a AtomicU64,
    dropped: &'a AtomicU64,
    tally: &'a LoopTally,
}

/// What the event loops tally together: each loop's measured busy time, the
/// retired peers that end the run, and the segments the retired peers sent.
struct LoopTally {
    /// Measured busy nanoseconds per loop (its drain + advance work).
    busy_ns: Vec<AtomicU64>,
    /// Retired (Done) peers across all loops; loops exit when every
    /// provisioned rank has retired.
    done: AtomicUsize,
    total: usize,
    /// `(data segments, bare acks)` of the retired peers.
    sent_segments: [AtomicU64; 2],
}

impl LoopTally {
    fn new(loops: usize, total: usize) -> Self {
        Self {
            busy_ns: (0..loops).map(|_| AtomicU64::new(0)).collect(),
            done: AtomicUsize::new(0),
            total,
            sent_segments: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    fn add_busy(&self, index: usize, ns: u64) {
        self.busy_ns[index].fetch_add(ns, Ordering::Relaxed);
    }

    /// A peer retired (reached [`Phase::Done`]); the run drains out once
    /// every provisioned rank has. Returns whether this was the last one.
    fn mark_done(&self) -> bool {
        self.done.fetch_add(1, Ordering::AcqRel) + 1 >= self.total
    }

    /// Count a retiring peer's `(data segments, bare acks)`.
    fn add_sent_segments(&self, (data, acks): (u64, u64)) {
        self.sent_segments[0].fetch_add(data, Ordering::Relaxed);
        self.sent_segments[1].fetch_add(acks, Ordering::Relaxed);
    }

    fn all_done(&self) -> bool {
        self.done.load(Ordering::Acquire) >= self.total
    }

    fn stats(&self) -> LoopStats {
        LoopStats {
            busy_ns_final: self
                .busy_ns
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            migrations: 0,
            data_segments: self.sent_segments[0].load(Ordering::Relaxed),
            bare_acks: self.sent_segments[1].load(Ordering::Relaxed),
        }
    }
}

/// Bind a fresh nonblocking socket for `rank`, register it with the poller
/// under the rank as key, and publish its port. The socket gets grown kernel
/// buffers and asks for fragment trains whole (`UDP_GRO`), so from here on
/// only [`recv_train`] may read it — [`Peer::drain`] does.
fn bind_peer_socket(rank: usize, poller: &Poller, ctx: &LoopShared<'_>) -> UdpSocket {
    let socket = UdpSocket::bind(localhost_addr(0)).expect("bind peer socket on localhost");
    socket.set_nonblocking(true).expect("set nonblocking");
    grow_socket_buffers(&socket);
    accept_trains(&socket);
    poller.add(&socket, rank).expect("register peer socket");
    ctx.ports.lock().unwrap()[rank] = socket.local_addr().expect("peer local addr").port();
    ctx.ports_version.fetch_add(1, Ordering::Release);
    socket
}

/// Announce `rank`'s socket to the bootstrap service (one datagram; a
/// discovering peer resends it until the table arrives).
fn announce(socket: &UdpSocket, rank: usize, ctx: &LoopShared<'_>) {
    let hello = Datagram::Hello { rank }.encode();
    let _ = socket.send_to(&hello, ctx.bootstrap_addr);
}

/// Re-sync `transport`'s address book from the run's port table when any
/// rank rebound its socket since `seen` (the [`LoopShared::ports_version`]
/// it last read). Heals a lost `Table` re-broadcast: without this, ghosts
/// to a recovered peer's dead port keep its freshness guard unstable
/// forever and the run burns to the relaxation cap.
fn sync_addrs(transport: &mut UdpTransport, seen: &mut u64, rank: usize, ctx: &LoopShared<'_>) {
    let ports_version = ctx.ports_version.load(Ordering::Acquire);
    if ports_version != *seen {
        *seen = ports_version;
        for (nb, &port) in ctx.ports.lock().unwrap().iter().enumerate() {
            if nb != rank && port != 0 {
                transport.addrs[nb] = localhost_addr(port);
            }
        }
    }
}

impl Peer {
    /// A pre-provisioned slot: no socket, no engine.
    fn dormant(rank: usize) -> Self {
        Self {
            rank,
            phase: Phase::Dormant,
            host: None,
            transport: None,
            reassembler: Reassembler::new(),
            early: Vec::new(),
            heartbeat: None,
            table: None,
            seen_ports_version: 0,
        }
    }

    /// Bring the hosted peer onto the wire: a fresh socket and the
    /// bootstrap hello, then wait for the rank→address table.
    fn bind_and_discover(
        &mut self,
        host: HostedPeer,
        poller: &Poller,
        ctx: &LoopShared<'_>,
        then: OnTable,
    ) {
        self.host = Some(host);
        let (loss, reorder) = ctx.impairment;
        let socket = bind_peer_socket(self.rank, poller, ctx);
        announce(&socket, self.rank, ctx);
        self.transport = Some(UdpTransport::new(
            self.rank,
            ctx.start,
            socket,
            vec![localhost_addr(0); ctx.run.total()],
            // Per-rank stream so peers do not share drop decisions.
            LossShim::new(ctx.run.seed.wrapping_add(self.rank as u64), loss, reorder),
            ctx.run.topology.clone(),
        ));
        self.heartbeat = Some(Heartbeat::new(&ctx.run.topology, self.rank));
        self.phase = Phase::Discovering {
            hello_at: Instant::now(),
            then,
        };
    }

    /// Revive the crashed peer the moment its recovery is granted: its
    /// replacement socket's port has been in the run's port table (and
    /// announced to the bootstrap) since the crash, so no bootstrap round
    /// trip stands between the grant and the restore.
    fn revive(&mut self, ctx: &LoopShared<'_>) {
        if let Some(topo) = &ctx.run.topo {
            self.heartbeat
                .as_mut()
                .expect("bound peer has heartbeat")
                .rejoin(topo, ctx.start);
        }
        let transport = self
            .transport
            .as_mut()
            .expect("crashed peer keeps a socket");
        sync_addrs(transport, &mut self.seen_ports_version, self.rank, ctx);
        let host = self.host.as_mut().expect("crashed peer is hosted");
        host.revive(transport);
        self.phase = Phase::Running;
    }

    /// Retire the peer: flush the shim's held-back datagram, account its
    /// drops and sent segments, deregister the socket.
    fn finish(&mut self, poller: &Poller, ctx: &LoopShared<'_>) {
        if let Some(host) = &self.host {
            ctx.tally.add_sent_segments(host.engine.sent_segments());
        }
        if let Some(transport) = &mut self.transport {
            transport.shim.flush(&transport.socket);
            ctx.dropped
                .fetch_add(transport.shim.dropped, Ordering::Relaxed);
            transport.shim.dropped = 0;
            let _ = poller.delete(&transport.socket);
        }
        self.phase = Phase::Done;
    }

    /// Drain everything the kernel has buffered on this peer's socket and
    /// dispatch it: the one place a socket backend reads datagrams. A read
    /// is a fragment train ([`recv_train`]) — the datagrams of one segment
    /// when the sender's kernel and this socket's `UDP_GRO` kept them
    /// together, else a single datagram — and each of its datagrams goes
    /// through [`Peer::dispatch`] as if read alone. A peer whose engine has
    /// finished stops reading.
    fn drain(&mut self, buf: &mut [u8]) {
        while let Some(transport) = self.transport.as_ref() {
            let Ok(train) = recv_train(&transport.socket, buf) else {
                return;
            };
            for datagram in train {
                if !self.dispatch(datagram) {
                    return;
                }
            }
        }
    }

    /// Act on one datagram off the socket; returns whether the peer keeps
    /// reading. Network bytes are untrusted — anything that does not
    /// decode, or names a table of the wrong length, is dropped. While
    /// discovering, the bootstrap table is the only datagram acted on, but
    /// data fragments racing ahead of it — a neighbour whose table came
    /// first is already sending — are reassembled and the complete segments
    /// kept for the engine: discarding them would leave a synchronous
    /// sender waiting out its retransmission timeout before the first
    /// sweep.
    fn dispatch(&mut self, bytes: &[u8]) -> bool {
        let Some(transport) = self.transport.as_mut() else {
            return false;
        };
        match &mut self.phase {
            Phase::Discovering { .. } => {
                if let Some((from, msg_id, frag_index, frag_count, payload)) =
                    Datagram::fragment_fields(bytes)
                {
                    let segment = self
                        .reassembler
                        .push_ref(from, msg_id, frag_index, frag_count, payload);
                    if self.early.len() < EARLY_SEGMENTS {
                        self.early.extend(segment);
                    }
                } else if let Some(Datagram::Table { ports }) = Datagram::decode(bytes) {
                    if let Some(addrs) = table_addrs(&ports, transport.addrs.len()) {
                        self.table = Some(addrs);
                    }
                }
            }
            Phase::Running => {
                let host = self.host.as_mut().expect("running peer is hosted");
                if host.engine.finished() {
                    return false;
                }
                // Fragments (the data hot path) are parsed borrowed and
                // copied once, into a pooled reassembly buffer; control
                // datagrams take the allocating decode.
                if let Some((from, msg_id, frag_index, frag_count, payload)) =
                    Datagram::fragment_fields(bytes)
                {
                    if let Some((from, segment)) = self
                        .reassembler
                        .push_ref(from, msg_id, frag_index, frag_count, payload)
                    {
                        host.deliver(from, Wire::Segment(segment), transport);
                    }
                    return true;
                }
                match Datagram::decode(bytes) {
                    // A table re-broadcast mid-run: a joiner announced or a
                    // recovered peer rebound its socket.
                    Some(Datagram::Table { ports }) => {
                        if let Some(addrs) = table_addrs(&ports, transport.addrs.len()) {
                            transport.addrs = addrs;
                        }
                    }
                    // Stop, rollback, gossip. Fragments were parsed above;
                    // late hellos and foreign noise are ignored.
                    Some(datagram) => {
                        if let Some((from, wire)) = datagram.into_wire() {
                            host.deliver(from, wire, transport);
                        }
                    }
                    None => {}
                }
            }
            // Dormant peers have no socket; a crashed peer's replacement
            // socket swallows stray traffic unread until recovery.
            _ => {}
        }
        true
    }

    /// One state-machine turn.
    fn advance(&mut self, poller: &Poller, ctx: &LoopShared<'_>) {
        match &mut self.phase {
            Phase::Done => {}
            Phase::Dormant => match ctx.run.poll_join(self.rank) {
                JoinPoll::Joined(host) => {
                    self.bind_and_discover(*host, poller, ctx, OnTable::JoinStart)
                }
                // The run ended before the join fired: exit without ever
                // having existed.
                JoinPoll::Never => self.phase = Phase::Done,
                JoinPoll::Pending => {}
            },
            Phase::Discovering { hello_at, .. } => {
                if let Some(addrs) = self.table.take() {
                    let transport = self
                        .transport
                        .as_mut()
                        .expect("discovering peer has socket");
                    transport.addrs = addrs;
                    let host = self.host.as_mut().expect("discovering peer is hosted");
                    let Phase::Discovering { then, .. } =
                        std::mem::replace(&mut self.phase, Phase::Running)
                    else {
                        unreachable!()
                    };
                    // A joiner registers with the failure detector before its
                    // first relaxation.
                    if let (OnTable::JoinStart, Some(topo)) = (&then, &ctx.run.topo) {
                        self.heartbeat
                            .as_mut()
                            .expect("bound peer has heartbeat")
                            .rejoin(topo, ctx.start);
                    }
                    host.engine.on_start(transport);
                    for (from, segment) in self.early.drain(..) {
                        host.deliver(from, Wire::Segment(segment), transport);
                    }
                } else if hello_at.elapsed() >= HELLO_RETRY {
                    *hello_at = Instant::now();
                    let transport = self
                        .transport
                        .as_ref()
                        .expect("discovering peer has socket");
                    announce(&transport.socket, self.rank, ctx);
                }
            }
            Phase::AwaitGrant => match ctx.run.crash_verdict(self.rank) {
                CrashVerdict::Pending => {}
                CrashVerdict::Granted => self.revive(ctx),
                // Relaxation cap reached elsewhere while this peer was
                // down: fold it into the stop instead of reviving it.
                CrashVerdict::Stopped => {
                    let transport = self
                        .transport
                        .as_mut()
                        .expect("crashed peer keeps a socket");
                    self.host.as_mut().expect("crashed peer is hosted").deliver(
                        self.rank,
                        Wire::Stop,
                        transport,
                    );
                    self.finish(poller, ctx);
                }
            },
            Phase::Running => {
                let transport = self.transport.as_mut().expect("running peer has socket");
                sync_addrs(transport, &mut self.seen_ports_version, self.rank, ctx);
                // (Heartbeats are batched at the event-loop level: one
                // topology-server acquisition per ping period covers every
                // running peer the loop multiplexes.)
                let host = self.host.as_mut().expect("running peer is hosted");
                match host.turn(ctx.run, transport, |t| &mut t.polled) {
                    Turn::Running => {}
                    Turn::Finished => self.finish(poller, ctx),
                    Turn::Crashed => {
                        // The peer died. Kill its socket for real: the old
                        // port closes and in-flight datagrams to it are
                        // dropped by the kernel. The replacement binds now
                        // and its port goes into the run's table, so
                        // neighbours address it from their next turn on,
                        // but it drops what it reads until the revive. Timers die
                        // with it, and it stops pinging — the topology
                        // manager evicts it and the monitor grants
                        // recovery.
                        transport.shim.flush(&transport.socket);
                        let _ = poller.delete(&transport.socket);
                        transport.polled = Polled::default();
                        transport.socket = bind_peer_socket(self.rank, poller, ctx);
                        // Fire-and-forget: the bootstrap's own table must
                        // name the new port, or the table it broadcasts for
                        // a later join would send every peer back to the
                        // dead one.
                        announce(&transport.socket, self.rank, ctx);
                        self.reassembler = Reassembler::new();
                        self.phase = Phase::AwaitGrant;
                    }
                }
            }
        }
    }

    /// Whether this peer needs an immediate next turn (zero poll timeout).
    fn busy(&self) -> bool {
        match self.phase {
            Phase::Running => {
                self.transport
                    .as_ref()
                    .is_some_and(|t| t.polled.compute_pending)
                    || self.host.as_ref().is_some_and(|h| h.engine.computing())
            }
            _ => false,
        }
    }

    /// This peer's next self-imposed deadline, as a delay from now.
    fn next_deadline(&self, now_ns: u64) -> Option<Duration> {
        match self.phase {
            Phase::Running => self
                .transport
                .as_ref()
                .and_then(|t| t.polled.timers.earliest_deadline())
                .map(|deadline| Duration::from_nanos(deadline.saturating_sub(now_ns))),
            _ => None,
        }
    }
}

/// One event loop: drive the peers of `ranks`, the contiguous shard it was
/// spawned with, until every provisioned rank has retired.
fn event_loop(
    index: usize,
    ranks: std::ops::Range<usize>,
    ctx: &LoopShared<'_>,
    task_factory: TaskFactory<'_>,
) {
    let poller = &ctx.pollers[index];
    let mut events = Events::new();
    let mut buf = vec![0u8; 65536];
    let mut heartbeat = LoopHeartbeat::new();
    let mut running_nodes: Vec<NodeId> = Vec::new();
    // Keyed by rank (the rank is also each socket's poller key). The shard
    // is contiguous and only shrinks, so a rank-ordered `Vec` could hold it,
    // but that changes the order the loop advances its peers (the map's is
    // hashed), and timings of that swap on `obstacle-lockstep` disagree on
    // whether the order matters.
    let mut peers: HashMap<usize, Peer> = ranks.map(|rank| (rank, Peer::dormant(rank))).collect();
    // Initial ranks get their engine and socket up front; pre-provisioned
    // join ranks stay dormant.
    for peer in peers.values_mut() {
        if peer.rank < ctx.run.alpha {
            let host = ctx.run.host(peer.rank, task_factory(peer.rank));
            peer.bind_and_discover(host, poller, ctx, OnTable::Start);
        }
    }

    while !ctx.tally.all_done() {
        // A pending compute means an immediate turn; otherwise sleep in the
        // poller until the earliest protocol timer, capped so the dormant /
        // await-grant / discovery / stop polls stay responsive.
        let timeout = if peers.values().any(Peer::busy) {
            Duration::ZERO
        } else {
            let now_ns = ctx.start.elapsed().as_nanos() as u64;
            peers
                .values()
                .filter_map(|p| p.next_deadline(now_ns))
                .fold(IDLE_POLL_CAP, Duration::min)
        };
        events.clear();
        let _ = poller.wait(&mut events, Some(timeout));
        let work = Instant::now();
        for event in events.iter() {
            if let Some(peer) = peers.get_mut(&event.key) {
                peer.drain(&mut buf);
            }
        }
        // One batched heartbeat per ping period covering every running peer
        // this loop multiplexes: a single topology-server acquisition
        // instead of one per peer.
        if let Some(topo) = &ctx.run.topo {
            if heartbeat.due() {
                running_nodes.clear();
                running_nodes.extend(
                    peers
                        .values()
                        .filter(|p| matches!(p.phase, Phase::Running))
                        .map(|p| NodeId(p.rank)),
                );
                heartbeat.beat_many(topo, &ctx.run.topology, ctx.start, &running_nodes);
            }
        }
        for peer in peers.values_mut() {
            peer.advance(poller, ctx);
        }
        peers.retain(|_, peer| {
            if matches!(peer.phase, Phase::Done) {
                // The run's last retirement releases the calling thread
                // from the bootstrap service and the other loops from
                // their idle waits.
                if ctx.tally.mark_done() {
                    wake_bootstrap(ctx.bootstrap_addr);
                    for other in ctx.pollers {
                        let _ = other.notify();
                    }
                }
                false
            } else {
                true
            }
        });
        ctx.tally.add_busy(index, work.elapsed().as_nanos() as u64);
    }
}

/// Run a distributed iterative computation over nonblocking localhost UDP
/// sockets, the provisioned peers sharded over (at most) `loops`
/// readiness-polled event loops.
pub(crate) fn run_iterative_reactor(
    config: &RunConfig,
    task_factory: TaskFactory<'_>,
    loops: usize,
) -> SocketRunOutcome {
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
    let ports = Mutex::new(vec![0u16; total]);
    let ports_version = AtomicU64::new(0);
    let dropped = AtomicU64::new(0);
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
        ports_version: &ports_version,
        dropped: &dropped,
        tally: &tally,
    };
    std::thread::scope(|scope| {
        run.spawn_monitor(scope, start);
        let ctx = &ctx;
        let loops: Vec<_> = (0..live_loops)
            .map(|index| {
                let lo = index * chunk;
                let hi = ((index + 1) * chunk).min(total);
                scope.spawn(move || event_loop(index, lo..hi, ctx, task_factory))
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
            dropped.load(Ordering::Relaxed),
        ),
        ports: ports.into_inner().unwrap(),
        loops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::engine::testing::RampTask;
    use crate::runtime::udp::{encode_fragment_into, send_train, MAX_FRAGMENT_PAYLOAD};
    use crate::BackendExtras;
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
        ports: Mutex<Vec<u16>>,
        ports_version: AtomicU64,
        dropped: AtomicU64,
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
            Self {
                run: RunScaffold::wall_clock(config, 1),
                sinks: [bind(), bind()],
                injector: bind(),
                poller: Poller::new().expect("create poller"),
                ports: Mutex::new(vec![0; HOSTILE_RANKS]),
                ports_version: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
                tally: LoopTally::new(1, HOSTILE_RANKS),
            }
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
                ports_version: &self.ports_version,
                dropped: &self.dropped,
                tally: &self.tally,
            }
        }

        /// The peer, bound and waiting for the bootstrap table.
        fn discovering_peer(&self) -> Peer {
            let mut peer = Peer::dormant(1);
            let task = Box::new(RampTask::line(1, HOSTILE_RANKS, RAMP));
            let host = self.run.host(1, task);
            peer.bind_and_discover(host, &self.poller, &self.ctx(), OnTable::Start);
            peer
        }

        /// The peer after the table (every rank at a sink) arrived.
        fn running_peer(&self, buf: &mut [u8]) -> Peer {
            let mut peer = self.discovering_peer();
            self.deliver_table(&mut peer, buf);
            peer
        }

        /// Publish the table (every rank at sink 0) and let the peer start.
        fn deliver_table(&self, peer: &mut Peer, buf: &mut [u8]) {
            let table = Datagram::Table {
                ports: vec![self.sink_port(0); HOSTILE_RANKS],
            };
            self.inject(peer, &table.encode(), buf);
            peer.advance(&self.poller, &self.ctx());
            assert!(matches!(peer.phase, Phase::Running));
        }

        /// Deliver `bytes` to the peer's socket as one datagram.
        fn inject(&self, peer: &mut Peer, bytes: &[u8], buf: &mut [u8]) {
            self.inject_train(peer, bytes, bytes.len().max(1), buf);
        }

        /// Deliver `bytes` to the peer's socket as a fragment train cut
        /// every `stride` bytes, the way an event loop sees it: wait for
        /// readiness, then drain.
        fn inject_train(&self, peer: &mut Peer, bytes: &[u8], stride: usize, buf: &mut [u8]) {
            let socket = &peer.transport.as_ref().expect("bound peer").socket;
            let addr = socket.local_addr().expect("peer addr");
            send_train(&self.injector, bytes, stride, addr).expect("inject train");
            let mut events = Events::new();
            self.poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .expect("poll peer socket");
            peer.drain(buf);
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
        /// that reads the socket, and the address book only ever changes to
        /// what a well-formed bootstrap table of the run's length published
        /// — whether the bytes arrive as one datagram or as a train cut at a
        /// stride that respects nothing.
        #[test]
        fn hostile_datagrams_never_panic_or_move_the_address_book(
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = proptest::TestRng::new(seed);
            let hostile = Hostile::new();
            let mut buf = vec![0u8; 65536];
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
            // The address books a peer may hold after a train: `book`
            // updated by the tables among the first 0, 1, … datagrams.
            let books = |book: Option<Vec<SocketAddr>>, bytes: &[u8], stride: usize| {
                let mut books = vec![book];
                for datagram in bytes.chunks(stride) {
                    let published = match Datagram::decode(datagram) {
                        Some(Datagram::Table { ports }) => table_addrs(&ports, HOSTILE_RANKS),
                        _ => None,
                    };
                    books.push(published.or_else(|| books.last().expect("seeded").clone()));
                }
                books
            };

            let mut peer = hostile.discovering_peer();
            let unset = vec![localhost_addr(0); HOSTILE_RANKS];
            for _ in 0..24 {
                let (bytes, stride) = hostile_train(&mut rng);
                let expected = books(peer.table.clone(), &bytes, stride);
                hostile.inject_train(&mut peer, &bytes, stride, &mut buf);
                // A discovering peer reads every datagram.
                proptest::prop_assert_eq!(Some(&peer.table), expected.last());
                proptest::prop_assert_eq!(&peer.transport.as_ref().unwrap().addrs, &unset);
            }

            let mut peer = hostile.running_peer(&mut buf);
            for _ in 0..48 {
                // A forged stop ends the engine, and a finished peer stops
                // reading its socket: carry on with a fresh one.
                if peer.host.as_ref().unwrap().engine.finished() {
                    peer = hostile.running_peer(&mut buf);
                }
                let (bytes, stride) = hostile_train(&mut rng);
                let addrs = peer.transport.as_ref().unwrap().addrs.clone();
                let expected = books(Some(addrs), &bytes, stride);
                hostile.inject_train(&mut peer, &bytes, stride, &mut buf);
                let addrs = Some(peer.transport.as_ref().unwrap().addrs.clone());
                if peer.host.as_ref().unwrap().engine.finished() {
                    // It stopped reading somewhere inside the train.
                    proptest::prop_assert!(expected.contains(&addrs));
                } else {
                    proptest::prop_assert_eq!(Some(&addrs), expected.last());
                }
            }
        }
    }

    /// Revive at the grant: the crash binds the replacement socket, puts
    /// its port in the run's table and announces it to the bootstrap, and
    /// the grant revives the peer at once — no `Table` arrives in between.
    /// (The bootstrap then names the new port in every table it sends, a
    /// later joiner's included: `udp::tests::bootstrap_broadcasts_only_a_changed_table`.)
    #[test]
    fn a_crashed_peer_revives_at_the_grant_without_a_table() {
        use crate::churn::ChurnPlan;
        use crate::runtime::driver::ClockDomain;

        let mut config = RunConfig::quick(Scheme::Synchronous, HOSTILE_RANKS).with_gossip(2);
        config.churn = Some(ChurnPlan::kill(1, 1).with_checkpoint_interval(1));
        let hostile = Hostile::with_config(&config);
        let mut buf = vec![0u8; 65536];
        let mut peer = hostile.running_peer(&mut buf);
        let port = |peer: &Peer| {
            let socket = &peer.transport.as_ref().expect("bound peer").socket;
            socket.local_addr().expect("peer addr").port()
        };
        let dead_port = port(&peer);
        // Sweep 1 completes on the first turn, and it is the peer's last.
        peer.advance(&hostile.poller, &hostile.ctx());
        assert!(matches!(peer.phase, Phase::AwaitGrant));
        let new_port = port(&peer);
        assert_ne!(new_port, dead_port);
        assert_eq!(hostile.ports.lock().unwrap()[1], new_port);
        // The bootstrap (sink 0) hears the new port's hello.
        let bootstrap = &hostile.sinks[0];
        bootstrap
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set sink timeout");
        loop {
            let (len, from) = bootstrap.recv_from(&mut buf).expect("the hello");
            if Datagram::decode(&buf[..len]) == Some(Datagram::Hello { rank: 1 })
                && from.port() == new_port
            {
                break;
            }
        }
        // Not granted yet: it waits. Granted: it runs again at once.
        peer.advance(&hostile.poller, &hostile.ctx());
        assert!(matches!(peer.phase, Phase::AwaitGrant));
        let host = peer.host.as_ref().expect("crashed peer is hosted");
        host.self_grant(&hostile.run, ClockDomain::Virtual);
        peer.advance(&hostile.poller, &hostile.ctx());
        assert!(matches!(peer.phase, Phase::Running));
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
        let mut buf = vec![0u8; 65536];
        let mut peer = hostile.running_peer(&mut buf);
        let before = peer.transport.as_ref().unwrap().addrs.clone();
        let table = Datagram::Table {
            ports: vec![hostile.sink_port(1); HOSTILE_RANKS],
        }
        .encode();
        let mut padded = table.clone();
        padded.extend_from_slice(&[0xEE; 5]);
        // The buffer holds exactly the table: were the head of the
        // truncated read dispatched, the address book would move.
        hostile.inject(&mut peer, &padded, &mut buf[..table.len()]);
        assert_eq!(peer.transport.as_ref().unwrap().addrs, before);
        hostile.inject(&mut peer, &padded, &mut buf);
        assert_ne!(peer.transport.as_ref().unwrap().addrs, before);
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
        let mut buf = vec![0u8; 65536];
        let mut peer = hostile.discovering_peer();

        let mut sender = p2psap::Socket::open(Scheme::Synchronous, ConnectionType::IntraCluster);
        let (seq, out) = sender.send(Bytes::from(vec![7u8; 2 * MAX_FRAGMENT_PAYLOAD + 100]), 1);
        let segment = &out.data[0];
        let fragments: Vec<&[u8]> = segment.chunks(MAX_FRAGMENT_PAYLOAD).collect();
        assert_eq!(fragments.len(), 3);
        let mut datagram = Vec::new();
        for (index, fragment) in fragments.iter().enumerate() {
            encode_fragment_into(&mut datagram, 0, 9, index as u16, 3, fragment);
            hostile.inject(&mut peer, &datagram, &mut buf);
        }
        assert!(matches!(peer.phase, Phase::Discovering { .. }));
        assert_eq!(peer.early.len(), 1, "the complete segment is kept");

        hostile.deliver_table(&mut peer, &mut buf);
        assert!(peer.early.is_empty());
        std::thread::sleep(Duration::from_nanos(p2psap::ACK_DELAY_NS));
        peer.advance(&hostile.poller, &hostile.ctx());
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
    /// `obstacle-lockstep` runs them, on a grid small enough that an
    /// unoptimised build's iteration stays well inside `ACK_DELAY_NS`; the
    /// best of three solves is held to the bound, so one event-loop stall on
    /// a loaded box cannot fail it. The counts are printed (CI runs this
    /// with `--nocapture`).
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
