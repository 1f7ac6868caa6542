//! The thread-based runtime of P2PDC.
//!
//! Every peer runs as a real OS thread hosting the same runtime-agnostic
//! [`PeerEngine`](crate::runtime::engine::PeerEngine) the simulated runtime
//! drives; messages travel through channels via a router thread that injects
//! per-link latency, mimicking the cluster / two-cluster topologies in
//! wall-clock time. This module only implements the substrate side
//! ([`PeerTransport`]): every [`Wire`] becomes a routed channel message,
//! protocol timers become wall-clock deadlines checked by the drive loop,
//! and relaxations complete immediately (the real kernel already consumed
//! the wall-clock time). All scheme-wait and convergence semantics live in
//! [`crate::runtime::engine`] — peers exchange genuine P2PSAP socket
//! segments, exactly like the simulated runtime — and what a peer does per
//! turn is the shared hosted peer's (`runtime::host`). This backend's own:
//! how it waits (a blocking receive on the inbox, bounded by the next timer)
//! and what a crash does to its wire (the inbox is discarded until the
//! verdict lands).
//!
//! Latencies are scaled down by default (fractions of the paper's 100 ms) so
//! that examples and tests complete quickly.

use crate::runtime::detection::Heartbeat;
use crate::runtime::driver::{DriverOutcome, TaskFactory};
use crate::runtime::engine::{PeerTransport, TimerKey, Wire};
use crate::runtime::host::{CrashVerdict, HostedPeer, Polled, Turn};
use crate::runtime::scaffold::{JoinPoll, RunScaffold};
use crate::runtime::RunConfig;
use crossbeam::channel::{unbounded, Receiver, Sender};
use netsim::{NodeId, Topology};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Messages a peer takes from its inbox before it looks at its timers and
/// its pending sweep again. Unbounded, the drain is a livelock: two
/// free-running asynchronous neighbours can fill the inbox faster than the
/// peer between them empties it, so it never relaxes again, they never hear
/// from it, and the run burns to the relaxation cap.
const DRAIN_BUDGET: usize = 64;

/// Message routed between peer threads with injected link latency.
struct Routed {
    to: usize,
    from: usize,
    deliver_at: Instant,
    wire: Wire,
}

/// The [`PeerTransport`] of the thread runtime.
struct ThreadTransport {
    rank: usize,
    start: Instant,
    router: Sender<Routed>,
    topology: Topology,
    latency_scale: f64,
    /// Timers by wall-clock deadline (ns since `start`); the pending sweep.
    polled: Polled,
}

impl ThreadTransport {
    /// Hand `wire` to the router, to reach `to`'s inbox after `latency`.
    fn route(&mut self, to: usize, wire: Wire, latency: Duration) {
        let _ = self.router.send(Routed {
            to,
            from: self.rank,
            deliver_at: Instant::now() + latency,
            wire,
        });
    }
}

impl PeerTransport for ThreadTransport {
    fn now_ns(&mut self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Segments and gossip ride the same latency-injecting links (gossip IS
    /// the failure-detection path here, and is never dropped artificially).
    fn transmit(&mut self, to: usize, wire: Wire) {
        let latency = self
            .topology
            .link_between(NodeId(self.rank), NodeId(to))
            .latency
            .as_nanos() as f64
            * self.latency_scale;
        self.route(to, wire, Duration::from_nanos(latency as u64));
    }

    fn arm_timer(&mut self, key: TimerKey, delay_ns: u64) {
        let deadline = self.now_ns() + delay_ns;
        self.polled.timers.arm(key, deadline);
    }

    fn cancel_timer(&mut self, key: TimerKey) {
        self.polled.timers.cancel(key);
    }

    fn schedule_compute(&mut self, _work_points: u64) {
        // No compute model: the completion is the next drive-loop turn,
        // after that turn's deliveries (an asynchronous peer's sweep runs
        // in it, for real).
        self.polled.compute_pending = true;
    }

    fn broadcast(&mut self, wire: &Wire) {
        for rank in 0..self.topology.len() {
            if rank != self.rank {
                self.route(rank, wire.clone(), Duration::ZERO);
            }
        }
    }
}

/// One pass of a running peer's drive loop: take what is already delivered
/// (asynchronous peers relax back-to-back, so fresh ghosts must be picked up
/// between sweeps, like deliveries interleave with compute windows on the
/// simulated runtime), at most [`DRAIN_BUDGET`] wires, then the shared turn.
fn pass(
    run: &RunScaffold,
    peer: &mut HostedPeer,
    transport: &mut ThreadTransport,
    inbox: &Receiver<(usize, Wire)>,
) -> Turn {
    for _ in 0..DRAIN_BUDGET {
        let Ok((from, wire)) = inbox.try_recv() else {
            break;
        };
        peer.deliver(from, wire, transport);
    }
    peer.turn(run, transport, |t| &mut t.polled)
}

/// One peer's thread: host rank `rank` from its start (or its join) until
/// its engine finishes.
fn peer_thread(
    run: &RunScaffold,
    rank: usize,
    task_factory: TaskFactory<'_>,
    mut transport: ThreadTransport,
    inbox: &Receiver<(usize, Wire)>,
) {
    let start = transport.start;
    let mut heartbeat = Heartbeat::new(&run.topology, rank);
    let mut peer = if rank < run.alpha {
        run.host(rank, task_factory(rank))
    } else {
        // A pre-provisioned join rank: stay dormant (discarding any early
        // broadcasts) until the seeded join fires, then adopt the membership
        // plan's slice. If the run ends first, exit without ever having
        // existed.
        let peer = loop {
            match run.poll_join(rank) {
                JoinPoll::Joined(peer) => break *peer,
                JoinPoll::Never => return,
                JoinPoll::Pending => {
                    while inbox.try_recv().is_ok() {}
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        // The joiner announces itself to the failure detector.
        if let Some(topo) = &run.topo {
            heartbeat.rejoin(topo, start);
        }
        peer
    };
    // Idle waits stay shorter than the ping period while the failure
    // detector is active (centralized pings or SWIM probes alike), so a
    // healthy-but-waiting peer never reads as dead.
    let wait_cap = if run.topo.is_some() || peer.gossip.is_some() {
        Duration::from_millis(5)
    } else {
        Duration::from_millis(20)
    };
    peer.engine.on_start(&mut transport);
    loop {
        if let Some(topo) = &run.topo {
            heartbeat.beat(topo, start);
        }
        match pass(run, &mut peer, &mut transport, inbox) {
            Turn::Finished => return,
            Turn::Running => {}
            Turn::Crashed => {
                // The peer died: its timers die with it, queued and
                // in-flight traffic is lost, and it stops pinging — the
                // topology manager evicts it after three missed periods and
                // the monitor grants the recovery this wait polls for.
                transport.polled = Polled::default();
                let verdict = loop {
                    while inbox.try_recv().is_ok() {}
                    match run.crash_verdict(rank) {
                        CrashVerdict::Pending => std::thread::sleep(Duration::from_millis(2)),
                        verdict => break verdict,
                    }
                };
                if verdict == CrashVerdict::Granted {
                    // The revived rank re-registers and resumes pinging.
                    if let Some(topo) = &run.topo {
                        heartbeat.rejoin(topo, start);
                    }
                    peer.revive(&mut transport);
                } else {
                    peer.deliver(rank, Wire::Stop, &mut transport);
                }
                continue;
            }
        }
        if transport.polled.compute_pending {
            continue;
        }
        // Nothing to do until a wire arrives or the next timer is due.
        let now = transport.now_ns();
        let wait = transport
            .polled
            .timers
            .earliest_deadline()
            .map_or(wait_cap, |deadline| {
                Duration::from_nanos(deadline.saturating_sub(now)).min(wait_cap)
            });
        if let Ok((from, wire)) = inbox.recv_timeout(wait) {
            peer.deliver(from, wire, &mut transport);
        }
    }
}

/// Run a distributed iterative computation with one OS thread per peer.
/// Reads the link-latency scale from
/// [`BackendExtras::Threads`](crate::BackendExtras).
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
    let mut peer_txs: Vec<Sender<(usize, Wire)>> = Vec::new();
    let mut peer_rxs: Vec<Receiver<(usize, Wire)>> = Vec::new();
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
        for (rank, inbox) in peer_rxs.iter().enumerate() {
            let transport = ThreadTransport {
                rank,
                start,
                router: router_tx.clone(),
                topology: run.topology.clone(),
                latency_scale: config.extras.latency_scale(),
                polled: Polled::default(),
            };
            scope.spawn(move || peer_thread(run, rank, task_factory, transport, inbox));
        }
    });
    drop(router_tx);
    let _ = router.join();

    run.finish(start.elapsed().as_nanos() as u64, None, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::engine::testing::RampTask;
    use p2psap::Scheme;

    /// The drain-budget livelock, deterministically: however much two
    /// free-running neighbours have queued, one pass takes at most
    /// [`DRAIN_BUDGET`] wires before it completes — runs and publishes —
    /// the pending sweep.
    #[test]
    fn a_flooded_inbox_cannot_starve_the_pending_sweep() {
        const QUEUED: usize = 10_000;
        let run = RunScaffold::wall_clock(&RunConfig::quick(Scheme::Asynchronous, 2), 1);
        let (router, routed) = unbounded::<Routed>();
        let mut transport = ThreadTransport {
            rank: 0,
            start: Instant::now(),
            router,
            topology: run.topology.clone(),
            latency_scale: 0.0,
            polled: Polled::default(),
        };
        let mut peer = run.host(0, Box::new(RampTask::line(0, 2, 10)));
        peer.engine.on_start(&mut transport);
        let (flood, inbox) = unbounded();
        for _ in 0..QUEUED {
            let ghost = Wire::Segment(bytes::Bytes::from_static(b"from rank 1"));
            flood.send((1, ghost)).expect("inbox open");
        }

        assert_eq!(pass(&run, &mut peer, &mut transport, &inbox), Turn::Running);
        assert_eq!(peer.engine.relaxations(), 1, "sweep 1 done");
        let routed = std::iter::from_fn(|| routed.try_recv().ok());
        let published = routed.filter(|r| matches!(r.wire, Wire::Segment(_)));
        assert_eq!(published.count(), 1, "and published");
        assert!(peer.engine.computing(), "sweep 2 pending");
        let left = std::iter::from_fn(|| inbox.try_recv().ok()).count();
        assert_eq!(left, QUEUED - DRAIN_BUDGET);
    }
}
