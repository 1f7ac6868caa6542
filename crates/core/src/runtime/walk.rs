//! The walk: the one drive loop of the polled backends.
//!
//! It holds a shard of peers in rank order and, once per pass, turns each:
//! drain what arrived for the peer into its hosted peer, then advance its
//! phase — start, `HostedPeer::turn`, park on a crash, revive at the grant,
//! retire. Between passes the [`Substrate`] waits. Two substrates implement
//! it: the reactor's sockets, poller and `Instant` (one walk per event
//! loop) and loopback's in-memory queues and event counter (one walk over
//! every rank). Both therefore turn peers in the same order — each reads
//! what arrived at its own turn, so an asynchronous sweep reads the update
//! a peer earlier in the pass published in the same pass (Gauss–Seidel
//! within a pass) — and the deterministic backend checks the order the
//! wall-clock one ships. `sim`, driven by desim callbacks, calls the hosted
//! peer's sub-steps itself.

use crate::runtime::driver::TaskFactory;
use crate::runtime::engine::Wire;
use crate::runtime::host::{CrashVerdict, HostedPeer, Polled, PolledTransport, Turn};
use crate::runtime::scaffold::{JoinPoll, RunScaffold};
use std::ops::Range;

/// Where a peer of a shard is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Pre-provisioned join rank, waiting for its seeded join to fire.
    Dormant,
    /// On the wire, until the substrate lets it start (a bootstrap table).
    Discovering,
    /// Crashed, waiting for the recovery grant (or the run to stop).
    AwaitGrant,
    /// Started and computing.
    Running,
    /// Finished, or never spawned: leaves the shard at the end of the pass.
    Done,
}

/// One peer of a shard: its hosted peer and its end of the wire, both
/// `None` only while [`Phase::Dormant`].
pub(crate) struct Peer<T> {
    pub(crate) rank: usize,
    pub(crate) phase: Phase,
    pub(crate) host: Option<HostedPeer>,
    pub(crate) transport: Option<T>,
}

/// What a backend supplies to the walk: a clock and a transport per rank,
/// the bytes that arrived, what a crash does to the wire, and the wait.
pub(crate) trait Substrate {
    /// A rank's end of the wire, on the substrate's clock.
    type Transport: PolledTransport;
    /// Bring `rank` onto the wire (`joined`: its seeded join fired mid-run).
    fn attach(&mut self, rank: usize, joined: bool) -> Self::Transport;
    /// Once a discovering peer may start: the wires that arrived before.
    fn discover(
        &mut self,
        rank: usize,
        transport: &mut Self::Transport,
    ) -> Option<Vec<(usize, Wire)>>;
    /// Hand what arrived for `rank` to `deliver` until it returns false.
    fn drain_into(
        &mut self,
        rank: usize,
        phase: Phase,
        transport: &mut Self::Transport,
        deliver: impl FnMut(usize, Wire, &mut Self::Transport) -> bool,
    );
    /// A running peer took its turn. After [`Turn::Crashed`] its timers and
    /// pending sweep are gone already; the rest of the crash is the wire's.
    fn turned(
        &mut self,
        rank: usize,
        turn: Turn,
        host: &HostedPeer,
        transport: &mut Self::Transport,
    );
    /// A crashed rank's recovery is granted: whether it revives now.
    fn revive(&mut self, rank: usize, transport: &mut Self::Transport) -> bool;
    /// Take a retired peer, at the end of its pass.
    fn retire(&mut self, peer: Peer<Self::Transport>);
    /// Wait before the next pass: at once when `busy`, else until something
    /// arrives or the clock reaches `deadline`, the shard's earliest
    /// protocol timer. False ends the walk.
    fn wait(
        &mut self,
        peers: &mut [Peer<Self::Transport>],
        busy: bool,
        deadline: Option<u64>,
    ) -> bool;
}

impl<T: PolledTransport> Peer<T> {
    /// A running peer's pending sweep flag and earliest protocol timer.
    fn polled(&mut self) -> Option<&mut Polled> {
        match self.phase {
            Phase::Running => Some(self.transport.as_mut()?.polled()),
            _ => None,
        }
    }

    /// Hand the hosted peer what arrived for it.
    pub(crate) fn drain<S: Substrate<Transport = T>>(&mut self, sub: &mut S) {
        let (Some(host), Some(transport)) = (self.host.as_mut(), self.transport.as_mut()) else {
            return;
        };
        sub.drain_into(self.rank, self.phase, transport, |from, wire, transport| {
            host.deliver(from, wire, transport);
            !host.engine.finished()
        });
    }

    /// One state-machine turn.
    pub(crate) fn advance<S: Substrate<Transport = T>>(&mut self, sub: &mut S, run: &RunScaffold) {
        let rank = self.rank;
        if self.phase == Phase::Dormant {
            match run.poll_join(rank) {
                JoinPoll::Joined(host) => {
                    self.host = Some(*host);
                    self.transport = Some(sub.attach(rank, true));
                    self.phase = Phase::Discovering;
                }
                // The run ended before the join fired: retire without ever
                // having existed.
                JoinPoll::Never => self.phase = Phase::Done,
                JoinPoll::Pending => {}
            }
            return;
        }
        let (Some(host), Some(transport)) = (self.host.as_mut(), self.transport.as_mut()) else {
            return;
        };
        let finished = match self.phase {
            Phase::Dormant | Phase::Done => false,
            Phase::Discovering => {
                if let Some(early) = sub.discover(rank, transport) {
                    host.engine.on_start(transport);
                    for (from, wire) in early {
                        host.deliver(from, wire, transport);
                    }
                    self.phase = Phase::Running;
                }
                false
            }
            Phase::AwaitGrant => match run.crash_verdict(rank) {
                CrashVerdict::Pending => false,
                CrashVerdict::Granted => {
                    if sub.revive(rank, transport) {
                        host.revive(transport);
                        self.phase = Phase::Running;
                    }
                    false
                }
                // The run stopped while this peer was down: fold it into
                // the stop instead of reviving it.
                CrashVerdict::Stopped => {
                    host.deliver(rank, Wire::Stop, transport);
                    true
                }
            },
            Phase::Running => {
                let turn = host.turn(run, transport);
                if turn == Turn::Crashed {
                    *transport.polled() = Polled::default();
                    self.phase = Phase::AwaitGrant;
                }
                sub.turned(rank, turn, host, transport);
                turn == Turn::Finished
            }
        };
        if finished {
            self.phase = Phase::Done;
        }
    }
}

/// Walk the peers of `ranks` on `sub` until the substrate ends it, a pass
/// turning every peer once in rank order — which is load-bearing.
pub(crate) fn walk<S: Substrate>(
    sub: &mut S,
    run: &RunScaffold,
    ranks: Range<usize>,
    task_factory: TaskFactory<'_>,
) {
    // The initial ranks are built and attached up front, in rank order;
    // pre-provisioned join ranks stay dormant.
    let mut peers: Vec<Peer<S::Transport>> = ranks
        .map(|rank| {
            let initial = rank < run.alpha;
            Peer {
                rank,
                phase: if initial {
                    Phase::Discovering
                } else {
                    Phase::Dormant
                },
                host: initial.then(|| run.host(rank, task_factory(rank))),
                transport: initial.then(|| sub.attach(rank, false)),
            }
        })
        .collect();
    loop {
        // A sweep completed or in flight needs the next pass at once.
        let busy = peers.iter_mut().any(|p| {
            let computing = p.host.as_ref().is_some_and(|h| h.engine.computing());
            p.polled()
                .is_some_and(|polled| computing || polled.compute_pending)
        });
        let deadline = peers
            .iter_mut()
            .filter_map(|p| p.polled()?.timers.earliest_deadline())
            .min();
        if !sub.wait(&mut peers, busy, deadline) {
            return;
        }
        for peer in &mut peers {
            peer.drain(sub);
            peer.advance(sub, run);
        }
        for peer in peers.extract_if(.., |peer| peer.phase == Phase::Done) {
            sub.retire(peer);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::app::{FrameSink, IterativeTask, LocalRelax};
    use crate::runtime::engine::testing::RampTask;
    use crate::runtime::{BackendExtras, RunConfig, RuntimeKind};
    use p2psap::Scheme;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// A pass turns its peers in rank order, each reading what arrived at
    /// its own turn, so an asynchronous sweep of rank 1 reads the update
    /// rank 0 published earlier in the same pass, and rank 0 the one rank 1
    /// published in the pass before: each sweep reads the other's latest
    /// update. A pass that read every peer's input before advancing any
    /// would leave whichever rank advanced second one pass behind. Two ramp
    /// ranks log each sweep beside the count the other last published — on
    /// the reactor at one event loop, and on loopback, which runs the same
    /// walk over in-memory queues.
    #[test]
    fn an_asynchronous_sweep_reads_a_loop_mates_update_of_the_same_pass() {
        /// A ramp rank that logs what the test compares.
        struct Witnessed {
            task: RampTask,
            /// Each rank's count as of its latest publish.
            published: Arc<[AtomicU64; 2]>,
            /// Every sweep: `(rank, the other's published count, ghost read)`.
            log: Arc<Mutex<Vec<(usize, u64, u8)>>>,
        }
        impl IterativeTask for Witnessed {
            fn relax(&mut self) -> LocalRelax {
                let relax = self.task.relax();
                let rank = self.task.rank;
                let other = self.published[1 - rank].load(Ordering::Relaxed);
                let read = self.task.swept_ghost;
                self.log.lock().unwrap().push((rank, other, read));
                relax
            }
            fn encode_outgoing(&mut self, sink: &mut FrameSink) {
                self.published[self.task.rank].store(self.task.relaxed, Ordering::Relaxed);
                self.task.encode_outgoing(sink)
            }
            fn incorporate(&mut self, from: usize, payload: &[u8]) -> f64 {
                self.task.incorporate(from, payload)
            }
            fn neighbors(&self) -> Vec<usize> {
                self.task.neighbors()
            }
            fn result(&self) -> Vec<u8> {
                self.task.result()
            }
            fn relaxations(&self) -> u64 {
                self.task.relaxations()
            }
        }

        let mut config =
            RunConfig::quick(Scheme::Asynchronous, 2).with_extras(BackendExtras::Reactor {
                event_loops: 1,
                loss_probability: 0.0,
                reorder_probability: 0.0,
            });
        config.tolerance = 0.5;
        for kind in [RuntimeKind::Reactor, RuntimeKind::Loopback] {
            let published = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
            let log = Arc::new(Mutex::new(Vec::new()));
            let outcome = kind.run(&config, &|rank| {
                Box::new(Witnessed {
                    task: RampTask::line(rank, 2, 60),
                    published: Arc::clone(&published),
                    log: Arc::clone(&log),
                })
            });
            assert!(outcome.measurement.converged, "{kind}");
            let log = log.lock().unwrap();
            assert!(log.len() >= 120, "{kind}: {} sweeps", log.len());
            // A rank's first sweep may race its loop-mate's start.
            for rank in 0..2 {
                let sweeps = log.iter().filter(|(r, ..)| *r == rank);
                for (sweep, &(_, latest, read)) in sweeps.enumerate().skip(1) {
                    assert_eq!(
                        read,
                        latest as u8,
                        "{kind}: rank {rank}'s sweep {} read update {read}, not the latest, {latest}",
                        sweep + 1
                    );
                }
            }
        }
    }
}
