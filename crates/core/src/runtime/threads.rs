//! The thread-based runtime of P2PDC.
//!
//! Every peer runs as a real OS thread hosting the same runtime-agnostic
//! [`PeerEngine`] the simulated runtime drives; messages travel through
//! channels via a router thread that injects per-link latency, mimicking the
//! cluster / two-cluster topologies in wall-clock time. This module only
//! implements the substrate side ([`PeerTransport`]): wire segments become
//! routed channel messages, protocol timers become wall-clock deadlines
//! checked by the drive loop, and relaxations complete immediately (the real
//! kernel already consumed the wall-clock time). All scheme-wait and
//! convergence semantics live in [`crate::runtime::engine`] — peers exchange
//! genuine P2PSAP socket segments, exactly like the simulated runtime.
//!
//! Latencies are scaled down by default (fractions of the paper's 100 ms) so
//! that examples and tests complete quickly.

use crate::gossip::{GossipMessage, GossipNode};
use crate::runtime::detection::{self, Heartbeat};
use crate::runtime::driver::{ClockDomain, DriverOutcome, RuntimeDriver, RuntimeKind, TaskFactory};
use crate::runtime::engine::{PeerEngine, PeerTransport, TimerKey, TimerQueue};
use crate::runtime::scaffold::{self, JoinPoll, RunScaffold};
use crate::runtime::RunConfig;
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use netsim::{NodeId, Topology};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The registered [`RuntimeDriver`] of the thread-per-peer backend. Reads
/// the link-latency scale from [`BackendExtras::Threads`](crate::BackendExtras).
pub struct ThreadsDriver;

impl RuntimeDriver for ThreadsDriver {
    fn kind(&self) -> RuntimeKind {
        RuntimeKind::Threads
    }

    fn label(&self) -> &'static str {
        "threads"
    }

    fn clock(&self) -> ClockDomain {
        ClockDomain::Wall
    }

    fn deterministic(&self) -> bool {
        false
    }

    fn run(&self, config: &RunConfig, task_factory: TaskFactory<'_>) -> DriverOutcome {
        run_iterative_threads(config, task_factory)
    }
}

/// Messages a peer takes from its inbox before it looks at its timers and
/// its pending sweep again. Unbounded, the drain is a livelock: two
/// free-running asynchronous neighbours can fill the inbox faster than the
/// peer between them empties it, so it never relaxes again, they never hear
/// from it, and the run burns to the relaxation cap.
const DRAIN_BUDGET: usize = 64;

/// What travels between peer threads.
enum PeerWire {
    /// A P2PSAP data-channel segment.
    Segment(Bytes),
    /// The termination broadcast.
    Stop,
    /// Synchronous rollback broadcast: (restart iteration, generation).
    Rollback(u64, u32),
    /// An encoded SWIM gossip message (control plane, not data path).
    Gossip(Vec<u8>),
}

/// Message routed between peer threads with injected link latency.
struct Routed {
    to: usize,
    from: usize,
    deliver_at: Instant,
    wire: PeerWire,
}

/// The [`PeerTransport`] of the thread runtime.
struct ThreadTransport {
    rank: usize,
    peers: usize,
    start: Instant,
    router: Sender<Routed>,
    topology: Topology,
    latency_scale: f64,
    /// Armed protocol timers ordered by wall-clock deadline (ns since start).
    timers: TimerQueue,
    /// Set when a relaxation completed and the engine must be advanced.
    compute_pending: bool,
}

impl ThreadTransport {
    /// Pop a timer whose deadline has passed.
    fn pop_due_timer(&mut self) -> Option<TimerKey> {
        let now = self.start.elapsed().as_nanos() as u64;
        self.timers.pop_due(now)
    }

    /// Time until the next timer deadline, if any.
    fn next_timer_wait(&self) -> Option<Duration> {
        let deadline = self.timers.earliest_deadline()?;
        let now = self.start.elapsed().as_nanos() as u64;
        Some(Duration::from_nanos(deadline.saturating_sub(now)))
    }

    /// Route one gossip message through the latency-injecting router.
    /// Gossip IS the failure-detection path here, so it rides the same
    /// links as data but is never dropped artificially.
    fn send_gossip(&mut self, to: usize, msg: &GossipMessage) {
        let latency = self
            .topology
            .link_between(NodeId(self.rank), NodeId(to))
            .latency
            .as_nanos() as f64
            * self.latency_scale;
        let _ = self.router.send(Routed {
            to,
            from: self.rank,
            deliver_at: Instant::now() + Duration::from_nanos(latency as u64),
            wire: PeerWire::Gossip(msg.encode()),
        });
    }
}

impl PeerTransport for ThreadTransport {
    fn now_ns(&mut self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    fn transmit(&mut self, to: usize, segment: Bytes) {
        let latency = self
            .topology
            .link_between(NodeId(self.rank), NodeId(to))
            .latency
            .as_nanos() as f64
            * self.latency_scale;
        let _ = self.router.send(Routed {
            to,
            from: self.rank,
            deliver_at: Instant::now() + Duration::from_nanos(latency as u64),
            wire: PeerWire::Segment(segment),
        });
    }

    fn arm_timer(&mut self, key: TimerKey, delay_ns: u64) {
        let deadline = self.start.elapsed().as_nanos() as u64 + delay_ns;
        self.timers.arm(key, deadline);
    }

    fn cancel_timer(&mut self, key: TimerKey) {
        self.timers.cancel(key);
    }

    fn schedule_compute(&mut self, _work_points: u64) {
        // The relaxation kernel already ran for real on this thread; the
        // engine is advanced on the next drive-loop turn.
        self.compute_pending = true;
    }

    fn broadcast_stop(&mut self) {
        for rank in 0..self.peers {
            if rank != self.rank {
                let _ = self.router.send(Routed {
                    to: rank,
                    from: self.rank,
                    deliver_at: Instant::now(),
                    wire: PeerWire::Stop,
                });
            }
        }
    }

    fn broadcast_rollback(&mut self, to_iteration: u64, generation: u32) {
        for rank in 0..self.peers {
            if rank != self.rank {
                let _ = self.router.send(Routed {
                    to: rank,
                    from: self.rank,
                    deliver_at: Instant::now(),
                    wire: PeerWire::Rollback(to_iteration, generation),
                });
            }
        }
    }
}

/// Hand one routed wire to the peer's engine (gossip frames to its SWIM
/// node).
fn dispatch(
    from: usize,
    wire: PeerWire,
    engine: &mut PeerEngine,
    gossip: Option<&mut GossipNode>,
    transport: &mut ThreadTransport,
) {
    match wire {
        PeerWire::Segment(segment) => engine.on_segment(from, segment, transport),
        PeerWire::Stop => engine.on_stop_signal(transport),
        PeerWire::Rollback(to_iteration, generation) => {
            engine.on_rollback(to_iteration, generation, transport)
        }
        PeerWire::Gossip(frame) => {
            scaffold::on_gossip_frame(gossip, &frame, transport, ThreadTransport::send_gossip)
        }
    }
}

/// Run a distributed iterative computation with one OS thread per peer.
pub(crate) fn run_iterative_threads(
    config: &RunConfig,
    task_factory: TaskFactory<'_>,
) -> DriverOutcome {
    // Substrate capacity (channels, a dormant thread) is provisioned for
    // ranks that may join mid-run.
    let run = RunScaffold::wall_clock(config, 1);
    let total = run.total();

    // Router: one inbox per peer plus a central routing channel.
    let (router_tx, router_rx) = unbounded::<Routed>();
    let mut peer_txs: Vec<Sender<(usize, PeerWire)>> = Vec::new();
    let mut peer_rxs: Vec<Receiver<(usize, PeerWire)>> = Vec::new();
    for _ in 0..total {
        let (tx, rx) = unbounded();
        peer_txs.push(tx);
        peer_rxs.push(rx);
    }

    let router_shared = Arc::clone(&run.shared);
    let router = std::thread::spawn(move || {
        let mut queue: VecDeque<Routed> = VecDeque::new();
        loop {
            // Deliver everything that is due.
            let now = Instant::now();
            let mut i = 0;
            while i < queue.len() {
                if queue[i].deliver_at <= now {
                    let m = queue.remove(i).unwrap();
                    let _ = peer_txs[m.to].send((m.from, m.wire));
                } else {
                    i += 1;
                }
            }
            match router_rx.recv_timeout(Duration::from_micros(200)) {
                Ok(msg) => queue.push_back(msg),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {
                    if router_shared.stopped() && queue.is_empty() {
                        break;
                    }
                }
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => break,
            }
        }
    });

    let start = Instant::now();
    let run = &run;
    std::thread::scope(|scope| {
        run.spawn_monitor(scope, start);
        for (rank, peer_rx) in peer_rxs.iter().enumerate() {
            let rx = peer_rx.clone();
            let tx = router_tx.clone();
            let latency_scale = config.extras.latency_scale();
            scope.spawn(move || {
                let mut engine = if rank < run.alpha {
                    run.engine(rank, task_factory(rank))
                } else {
                    // A pre-provisioned join rank: stay dormant (discarding
                    // any early broadcasts) until the seeded join fires,
                    // then adopt the membership plan's slice. If the run
                    // ends first, exit without ever having existed.
                    loop {
                        match run.poll_join(rank) {
                            JoinPoll::Joined(engine) => break *engine,
                            JoinPoll::Never => return,
                            JoinPoll::Pending => {
                                while rx.try_recv().is_ok() {}
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                    }
                };
                let mut heartbeat = Heartbeat::new(&run.topology, rank);
                let mut transport = ThreadTransport {
                    rank,
                    peers: total,
                    start,
                    router: tx,
                    topology: run.topology.clone(),
                    latency_scale,
                    timers: TimerQueue::new(),
                    compute_pending: false,
                };
                if rank >= run.alpha {
                    // The joiner announces itself to the failure detector.
                    if let Some(topo) = &run.topo {
                        heartbeat.rejoin(topo, start);
                    }
                }
                let mut gossip = run.gossip_node(rank);
                engine.on_start(&mut transport);
                while !engine.finished() {
                    // Heartbeat towards the failure detector.
                    if let Some(topo) = &run.topo {
                        heartbeat.beat(topo, start);
                    }
                    if let Some(g) = gossip.as_mut() {
                        if run.gossip_turn(
                            g,
                            &mut engine,
                            &mut transport,
                            ThreadTransport::send_gossip,
                        ) {
                            continue;
                        }
                    }
                    // Drain what is already delivered (asynchronous peers
                    // relax back-to-back, so fresh ghosts must be picked up
                    // between sweeps, like deliveries interleave with compute
                    // windows on the simulated runtime).
                    for _ in 0..DRAIN_BUDGET {
                        let Ok((from, wire)) = rx.try_recv() else {
                            break;
                        };
                        dispatch(from, wire, &mut engine, gossip.as_mut(), &mut transport);
                    }
                    if engine.finished() {
                        break;
                    }
                    if let Some(key) = transport.pop_due_timer() {
                        engine.on_timer(key, &mut transport);
                        continue;
                    }
                    if transport.compute_pending {
                        transport.compute_pending = false;
                        engine.on_compute_done(&mut transport);
                        if engine.crashed() {
                            // The peer died: its timers die with it, queued
                            // and in-flight traffic is lost, and it stops
                            // pinging — the topology manager evicts it after
                            // three missed periods and the monitor grants
                            // the recovery this wait blocks on.
                            transport.timers = TimerQueue::new();
                            while rx.try_recv().is_ok() {}
                            let granted = detection::await_recovery_grant(
                                &run.volatility,
                                &run.shared,
                                rank,
                                || while rx.try_recv().is_ok() {},
                            );
                            if granted {
                                while rx.try_recv().is_ok() {}
                                // The revived rank re-registers (rejoin)
                                // and resumes pinging.
                                if let Some(topo) = &run.topo {
                                    heartbeat.rejoin(topo, start);
                                }
                                engine.recover(&mut transport);
                                // Refute the death verdict with a bumped
                                // incarnation.
                                if let Some(g) = gossip.as_mut() {
                                    g.on_recovered();
                                }
                            } else {
                                engine.on_stop_signal(&mut transport);
                            }
                        }
                        continue;
                    }
                    // Another peer may have stopped the run while this one
                    // was idling in a scheme wait.
                    if run.shared.stopped() {
                        engine.on_stop_signal(&mut transport);
                        continue;
                    }
                    // Adopt a pending asynchronous/hybrid re-slice while
                    // idle (the engine also polls between sweeps).
                    if engine.poll_membership(&mut transport) {
                        continue;
                    }
                    // Idle waits stay shorter than the ping period while the
                    // failure detector is active (centralized pings or SWIM
                    // probes alike), so a healthy-but-waiting peer never
                    // reads as dead.
                    let wait_cap = if run.topo.is_some() || gossip.is_some() {
                        Duration::from_millis(5)
                    } else {
                        Duration::from_millis(20)
                    };
                    let wait = transport
                        .next_timer_wait()
                        .unwrap_or(wait_cap)
                        .min(wait_cap);
                    if let Ok((from, wire)) = rx.recv_timeout(wait) {
                        dispatch(from, wire, &mut engine, gossip.as_mut(), &mut transport);
                    }
                }
            });
        }
    });
    drop(router_tx);
    let _ = router.join();

    run.finish(start.elapsed().as_nanos() as u64, None, 0)
}
