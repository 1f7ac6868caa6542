//! The loopback runtime of P2PDC: single-process, zero-latency, fully
//! deterministic.
//!
//! The cheapest substrate of the shared walk (`runtime::walk`): every rank
//! is one shard on one loop on the calling thread, wires go through
//! in-memory queues, and the clock is a counter that ticks once per unit of
//! work — a delivered wire, a turn, a burst of gossip (it only has to be
//! monotone for the P2PSAP sockets and the convergence detector; the
//! elapsed time it yields is not a performance measurement). Quick tests,
//! the scenario fuzzer and the cross-runtime count tests run here, on the
//! turn order the reactor ships, bit-for-bit reproducibly.
//!
//! What is loopback's own is its substrate: traffic to a crashed peer is
//! held, not lost; a crashed rank revives no earlier than the plan's
//! modelled detection delay; the wait jumps the clock to the next deadline,
//! and a run that stops relaxing ends at the wedge guard or, with nothing
//! left scheduled, at the idle exit.

use crate::churn::ChurnEventKind;
use crate::gossip::GossipTiming;
use crate::runtime::driver::{ClockDomain, DriverOutcome, TaskFactory};
use crate::runtime::engine::{PeerTransport, TimerKey, Wire};
use crate::runtime::host::{HostedPeer, Polled, PolledTransport, Turn};
use crate::runtime::scaffold::RunScaffold;
use crate::runtime::walk::{walk, Peer, Phase, Substrate};
use crate::runtime::RunConfig;
use bytes::Bytes;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

/// Event-count link-fault model of the loopback substrate: the
/// [`netsim::LinkFaults`] predicate of the virtual-time backend on the event
/// clock. Data wires crossing a cut edge are *held* until it reopens (as
/// traffic to a crashed peer is held); gossip wires are *dropped* (that loss
/// raises suspicions during a partition); stop and rollback pass unimpaired
/// (reliable control delivery, as on sim).
#[derive(Default)]
struct LoopLinkState {
    /// Partitions, flapping edges and corruption budgets.
    faults: netsim::LinkFaults,
    /// Asymmetric delays: (from, to, extra delivery delay in events).
    asym: Vec<(usize, usize, u64)>,
    /// Wires held on cut or slowed edges: (release-event, from, to, wire).
    held: Vec<(u64, usize, usize, Wire)>,
}

impl LoopLinkState {
    /// The earliest event at or after `now` at which the edge `from ↔ to`
    /// is open (stepping through partition heals and flap transitions; every
    /// fault is finite, so this always terminates).
    fn next_open(&self, from: usize, to: usize, mut now: u64) -> u64 {
        while self.faults.blocked(from, to, now) {
            match self.faults.next_transition_after(now) {
                Some(next) => now = next,
                None => break,
            }
        }
        now
    }

    /// Extra delivery delay (events) on the directed edge `from → to`.
    fn asym_delay(&self, from: usize, to: usize) -> u64 {
        self.asym
            .iter()
            .filter(|&&(f, t, _)| f == from && t == to)
            .map(|&(_, _, d)| d)
            .sum()
    }

    /// Route one flushed wire: deliver it, hold it, corrupt it or drop it.
    fn route(
        &mut self,
        from: usize,
        to: usize,
        mut wire: Wire,
        clock: u64,
        inboxes: &mut [VecDeque<(usize, Wire)>],
    ) {
        // Seeded in-flight corruption (the framing checksums reject the
        // frame at the receiver, so a corrupted wire is effectively lost).
        match &mut wire {
            Wire::Segment(bytes) => {
                if let Some((at, bit)) = self.faults.corrupt_frame(from, bytes.len()) {
                    let mut corrupted = bytes.to_vec();
                    corrupted[at] ^= bit;
                    *bytes = Bytes::from(corrupted);
                }
            }
            Wire::Gossip(bytes) => {
                if let Some((at, bit)) = self.faults.corrupt_frame(from, bytes.len()) {
                    bytes[at] ^= bit;
                }
            }
            _ => {}
        }
        match &wire {
            Wire::Segment(_) => {
                let release = if self.faults.blocked(from, to, clock) {
                    self.next_open(from, to, clock)
                } else {
                    clock + self.asym_delay(from, to)
                };
                if release > clock {
                    self.held.push((release, from, to, wire));
                } else {
                    inboxes[to].push_back((from, wire));
                }
            }
            Wire::Gossip(_) if self.faults.blocked(from, to, clock) => {}
            _ => inboxes[to].push_back((from, wire)),
        }
    }

    /// Move held wires whose edge reopened (or delay elapsed) into the
    /// destination inboxes.
    fn release_due(&mut self, clock: u64, inboxes: &mut [VecDeque<(usize, Wire)>]) {
        let mut at = 0;
        while at < self.held.len() {
            if self.held[at].0 <= clock {
                let (_, from, to, wire) = self.held.swap_remove(at);
                inboxes[to].push_back((from, wire));
            } else {
                at += 1;
            }
        }
    }

    /// Earliest pending release (for the idle clock jump).
    fn next_release(&self) -> Option<u64> {
        self.held.iter().map(|&(release, ..)| release).min()
    }
}

/// Nanoseconds of protocol-timer delay per event tick (0.1 ms): the reliable
/// channel's 600 ms retransmission timeout becomes 6 000 events — far above
/// a loopback round trip, far below the wedge guard's gap even at full
/// exponential back-off.
const NS_PER_EVENT: u64 = 100_000;

/// Wedge guard: a run whose clock keeps advancing (gossip, timers, held
/// wires) while no engine relaxes for this many events ends unconverged —
/// loopback has no deadline, and a cut that never heals would otherwise
/// drive the chatter forever.
const WEDGE_EVENT_GAP: u64 = 1_000_000;

/// The wire every rank shares: the event clock, one inbox per provisioned
/// rank, and the link-fault model when the plan schedules link faults.
#[derive(Default)]
struct Queues {
    clock: u64,
    inboxes: Vec<VecDeque<(usize, Wire)>>,
    links: Option<LoopLinkState>,
    /// Something was sent or a peer changed phase since the last wait.
    moved: bool,
    /// The clock of the last delivery or gossip burst (one unit of work).
    event_at: u64,
}

impl Queues {
    /// Put a wire on the way to `to`, through the link-fault model if armed.
    fn send(&mut self, from: usize, to: usize, wire: Wire) {
        self.moved = true;
        match self.links.as_mut() {
            Some(l) => l.route(from, to, wire, self.clock, &mut self.inboxes),
            None => self.inboxes[to].push_back((from, wire)),
        }
    }

    /// One unit of work: the clock ticks.
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }
}

/// The [`PeerTransport`] of the loopback runtime: instant delivery into
/// sibling inboxes, timers on the shared event-counter clock.
struct LoopbackTransport {
    rank: usize,
    queues: Rc<RefCell<Queues>>,
    polled: Polled,
    /// The clock a crashed rank revives at, at the earliest.
    recover_at: u64,
}

impl PolledTransport for LoopbackTransport {
    fn polled(&mut self) -> &mut Polled {
        &mut self.polled
    }
}

impl PeerTransport for LoopbackTransport {
    fn now_ns(&mut self) -> u64 {
        self.queues.borrow().clock
    }

    fn transmit(&mut self, to: usize, wire: Wire) {
        let mut queues = self.queues.borrow_mut();
        // A burst of gossip sent outside a delivery is one unit of work.
        if matches!(wire, Wire::Gossip(_)) && queues.event_at != queues.clock {
            queues.event_at = queues.tick();
        }
        queues.send(self.rank, to, wire);
    }

    fn arm_timer(&mut self, key: TimerKey, delay_ns: u64) {
        // Session timers are ns-denominated: at one event per ns a 600 ms
        // retransmission would land past the wedge guard's gap.
        let now = self.queues.borrow().clock;
        self.polled
            .timers
            .arm(key, now + (delay_ns / NS_PER_EVENT).max(1));
    }

    fn cancel_timer(&mut self, key: TimerKey) {
        self.polled.timers.cancel(key);
    }

    fn schedule_compute(&mut self, _work_points: u64) {
        // Zero-cost compute: the completion is the peer's next turn, after
        // that turn's deliveries (an asynchronous peer's sweep runs in it).
        self.polled.compute_pending = true;
    }

    fn broadcast(&mut self, wire: &Wire) {
        let mut queues = self.queues.borrow_mut();
        for rank in (0..queues.inboxes.len()).filter(|&rank| rank != self.rank) {
            queues.send(self.rank, rank, wire.clone());
        }
    }
}

/// The substrate: the shared queues, the run, and the wedge guard's
/// record (the clock at the last change of the relaxation total, and it).
struct Loopback<'a> {
    run: &'a RunScaffold,
    queues: Rc<RefCell<Queues>>,
    retired: Vec<Peer<LoopbackTransport>>,
    last_relax_clock: u64,
    last_relax_total: u64,
}

impl Loopback<'_> {
    /// Env-gated (`LOOPBACK_WEDGE_DEBUG=1`) dump of the per-rank drive state
    /// on the two no-progress exit paths (wedge guard and empty idle jump) —
    /// the scenario fuzzer's first debugging stop when a loopback run ends
    /// unconverged.
    fn dump_no_progress_exit(&self, path: &str, peers: &mut [Peer<LoopbackTransport>]) {
        if std::env::var("LOOPBACK_WEDGE_DEBUG").is_err() {
            return;
        }
        let queues = self.queues.borrow();
        eprintln!("{path} at clock {}:", queues.clock);
        for peer in peers {
            let (Some(HostedPeer { engine: e, gossip }), Some(t)) = (&peer.host, &peer.transport)
            else {
                eprintln!("  rank {}: unspawned", peer.rank);
                continue;
            };
            eprintln!(
                "  rank {}: {:?} relax={} finished={} crashed={} computing={} gen={} inbox={} compute_pending={} timer_deadline={:?} gossip_deadline={:?} dead_ranks={:?}",
                peer.rank,
                peer.phase,
                e.relaxations(),
                e.finished(),
                e.crashed(),
                e.computing(),
                e.generation(),
                queues.inboxes[peer.rank].len(),
                t.polled.compute_pending,
                t.polled.timers.earliest_deadline(),
                gossip.as_ref().map(|g| g.next_deadline()),
                gossip.as_ref().map(|g| g.dead_ranks()),
            );
        }
    }
}

impl Substrate for Loopback<'_> {
    type Transport = LoopbackTransport;

    fn attach(&mut self, rank: usize) -> LoopbackTransport {
        self.queues.borrow_mut().moved = true;
        LoopbackTransport {
            rank,
            queues: Rc::clone(&self.queues),
            polled: Polled::default(),
            recover_at: 0,
        }
    }

    /// Nothing to discover: the start is one unit of work.
    fn discover(&mut self, _: usize, _: &mut LoopbackTransport) -> Option<Vec<(usize, Wire)>> {
        self.queues.borrow_mut().tick();
        Some(Vec::new())
    }

    fn drain_into(
        &mut self,
        rank: usize,
        phase: Phase,
        transport: &mut LoopbackTransport,
        mut deliver: impl FnMut(usize, Wire, &mut LoopbackTransport) -> bool,
    ) {
        // A crashed peer's traffic waits in its inbox until the revive
        // rather than being dropped: retransmission timescales are out of
        // the event clock's reach while any peer is busy, so a dropped,
        // unacknowledged update would deadlock a synchronous edge. Real loss
        // under a crash lives on the reactor.
        if phase != Phase::Running {
            return;
        }
        loop {
            let next = {
                let mut queues = self.queues.borrow_mut();
                queues.inboxes[rank].pop_front().inspect(|_| {
                    queues.event_at = queues.tick();
                })
            };
            let Some((from, wire)) = next else { break };
            if !deliver(from, wire, transport) {
                return;
            }
        }
        // The turn that follows.
        self.queues.borrow_mut().tick();
    }

    fn turned(
        &mut self,
        rank: usize,
        turn: Turn,
        host: &HostedPeer,
        transport: &mut LoopbackTransport,
    ) {
        let mut queues = self.queues.borrow_mut();
        let clock = queues.clock;
        if turn == Turn::Crashed {
            // The rank grants its own recovery and waits out the plan's
            // modelled failure-detection delay, standing in for the ping
            // sweep the reactor runs for real.
            transport.recover_at = clock + host.self_grant(self.run, ClockDomain::EventCount);
            queues.moved = true;
        }
        // Arm due link-fault events on this rank's relaxation clock.
        if let Some(l) = queues.links.as_mut() {
            let relaxations = host.engine.relaxations();
            let domain = ClockDomain::EventCount;
            for event in (self.run).arm_link_events(rank, relaxations, &l.faults, clock, domain) {
                // The loopback link has no latency to scale; each unit of
                // slowdown beyond 1x becomes one event of delay.
                if let ChurnEventKind::AsymmetricLatency { peer, factor } = event.kind {
                    let delay = (factor - 1.0).round().max(0.0) as u64;
                    l.asym.push((rank, peer, delay));
                }
            }
        }
    }

    fn revive(&mut self, _: usize, transport: &mut LoopbackTransport) -> bool {
        let mut queues = self.queues.borrow_mut();
        if queues.clock < transport.recover_at {
            return false;
        }
        queues.tick();
        queues.moved = true;
        true
    }

    /// Kept, with its task's blocks, until the run's outcome is built:
    /// freed mid-run they shrink the heap the next run allocates from.
    fn retire(&mut self, peer: Peer<LoopbackTransport>) {
        self.queues.borrow_mut().moved = true;
        self.retired.push(peer);
    }

    fn wait(
        &mut self,
        peers: &mut [Peer<LoopbackTransport>],
        busy: bool,
        deadline: Option<u64>,
    ) -> bool {
        if peers.is_empty() {
            return false;
        }
        let relax_total: u64 = peers
            .iter()
            .filter_map(|p| p.host.as_ref())
            .map(|h| h.engine.relaxations())
            .sum();
        let mut queues = self.queues.borrow_mut();
        let clock = queues.clock;
        // `!=` rather than `>`: a checkpoint restore rewinds the counters,
        // and the rewind itself is evidence the run is still moving.
        if relax_total != self.last_relax_total {
            self.last_relax_total = relax_total;
            self.last_relax_clock = clock;
        } else if clock.saturating_sub(self.last_relax_clock) > WEDGE_EVENT_GAP {
            drop(queues);
            self.dump_no_progress_exit("WEDGE", peers);
            return false;
        }
        if !std::mem::take(&mut queues.moved) && !busy {
            // Everyone is waiting: jump the clock to the earliest protocol
            // timer, revival, live gossip deadline or held wire's release,
            // or give up if none exists — finish_run then reports the run
            // as not converged. A timer or revival at or before the clock
            // fell due during the pass, after its peer's turn: take the
            // pass. A gossip deadline must lie strictly ahead: one at or
            // before the clock was already polled without effect, and
            // letting it shadow a later genuine deadline would end a run
            // that still has scheduled work.
            let earliest = peers
                .iter()
                .filter_map(|p| {
                    let (host, transport) = (p.host.as_ref()?, p.transport.as_ref()?);
                    match p.phase {
                        Phase::AwaitGrant => Some(transport.recover_at),
                        // Only live gossip nodes can still make progress.
                        Phase::Running if !host.engine.finished() && !host.engine.crashed() => host
                            .gossip
                            .as_ref()
                            .map(|g| g.next_deadline())
                            .filter(|&at| at > clock),
                        _ => None,
                    }
                })
                .chain(deadline)
                .chain(queues.links.as_ref().and_then(LoopLinkState::next_release))
                .min();
            let Some(at) = earliest else {
                drop(queues);
                self.dump_no_progress_exit("IDLE-EXIT", peers);
                return false;
            };
            if at > clock {
                // The wedge guard measures processed events, and a jump
                // processes none: the jumped span must not count toward
                // the gap, or every retransmission on this clock would
                // read as a wedge before it fires.
                self.last_relax_clock += at - clock;
                queues.clock = at;
            }
        }
        // Release wires whose cut edge reopened (or whose asymmetric delay
        // elapsed) into the destination inboxes.
        let queues = &mut *queues;
        if let Some(l) = queues.links.as_mut() {
            l.release_due(queues.clock, &mut queues.inboxes);
        }
        true
    }
}

/// Run a distributed iterative computation in-process with zero latency
/// (the outcome's elapsed time counts events, not time). Needs nothing
/// beyond the shared [`RunConfig`]: latencies are ignored, the topology only
/// drives the peer count and the hybrid scheme's cluster-split wait rule,
/// and no [`BackendExtras`](crate::BackendExtras) variant is read.
pub(crate) fn run_iterative_loopback(
    config: &RunConfig,
    task_factory: TaskFactory<'_>,
) -> DriverOutcome {
    // Inboxes are provisioned for ranks that may join mid-run. Under the
    // gossip control plane the event-counter clock drives the probe
    // cadence, so runs stay bit-for-bit deterministic.
    let total = config.provisioned_peers();
    let run = RunScaffold::new(config, GossipTiming::event_count(total));
    let queues = Rc::new(RefCell::new(Queues {
        inboxes: (0..total).map(|_| VecDeque::new()).collect(),
        // Scenario link faults, when the plan schedules any (the event-count
        // twin of the sim backend's netsim fault schedule).
        links: config
            .churn
            .as_ref()
            .filter(|plan| plan.link_fault_count() > 0)
            .map(|_| LoopLinkState::default()),
        ..Queues::default()
    }));
    let mut sub = Loopback {
        run: &run,
        queues: Rc::clone(&queues),
        retired: Vec::new(),
        last_relax_clock: 0,
        last_relax_total: 0,
    };
    walk(&mut sub, &run, 0..total, task_factory);
    let clock = queues.borrow().clock;
    run.finish(clock, None, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::engine::testing::RampTask;
    use p2psap::Scheme;

    const RAMP: u64 = 10;

    fn run(config: &RunConfig) -> DriverOutcome {
        let peers = config.topology.len();
        run_iterative_loopback(config, &|rank| Box::new(RampTask::line(rank, peers, RAMP)))
    }

    #[test]
    fn synchronous_scheme_runs_in_lockstep() {
        let mut config = RunConfig::quick(Scheme::Synchronous, 3);
        config.tolerance = 0.5;
        let outcome = run(&config);
        assert!(outcome.measurement.converged);
        // Synchronous peers advance iteration by iteration, so every peer
        // performs exactly the ramp's relaxation count.
        assert_eq!(outcome.measurement.relaxations_per_peer, vec![RAMP; 3]);
        assert_eq!(outcome.results.len(), 3);
    }

    #[test]
    fn asynchronous_scheme_converges_without_waiting() {
        let mut config = RunConfig::quick(Scheme::Asynchronous, 3);
        config.tolerance = 0.5;
        let outcome = run(&config);
        assert!(outcome.measurement.converged);
        // The asynchronous rule needs two consecutive stable sweeps per peer
        // on fresh boundary data, so every peer relaxes at least the ramp.
        for &count in &outcome.measurement.relaxations_per_peer {
            assert!(count >= RAMP, "peer finished early: {count} < {RAMP}");
        }
    }

    #[test]
    fn hybrid_scheme_converges_across_two_clusters() {
        let mut config = RunConfig::two_clusters(Scheme::Hybrid, 4);
        config.tolerance = 0.5;
        let outcome = run(&config);
        assert!(outcome.measurement.converged);
        assert_eq!(outcome.results.len(), 4);
        for &count in &outcome.measurement.relaxations_per_peer {
            assert!(count >= RAMP);
        }
    }

    #[test]
    fn loopback_obstacle_run_matches_the_sequential_solver() {
        use crate::obstacle_app::ObstacleTask;
        use obstacle::{solve_sequential, ObstacleProblem, RichardsonConfig};
        use std::sync::Arc;

        let n = 8;
        let peers = 2;
        let problem = Arc::new(ObstacleProblem::membrane(n));
        let config = RunConfig::quick(Scheme::Synchronous, peers);
        let outcome = run_iterative_loopback(&config, &|rank| {
            Box::new(ObstacleTask::new(Arc::clone(&problem), peers, rank))
        });
        assert!(outcome.measurement.converged);
        let reference = solve_sequential(
            &problem,
            RichardsonConfig {
                tolerance: config.tolerance,
                ..Default::default()
            },
        );
        // Relaxation-count invariance of the synchronous scheme (the paper's
        // claim), on the third transport.
        let max = outcome.measurement.max_relaxations();
        let expected = reference.iterations as u64;
        assert!(
            max >= expected && max <= expected + 1,
            "loopback {max} vs sequential {expected}"
        );
    }

    #[test]
    fn seeded_crash_recovers_and_stays_deterministic() {
        use crate::churn::ChurnPlan;
        use crate::obstacle_app::ObstacleTask;
        use obstacle::ObstacleProblem;
        use std::sync::Arc;

        let n = 8;
        let peers = 2;
        let problem = Arc::new(ObstacleProblem::membrane(n));
        let mut config = RunConfig::quick(Scheme::Asynchronous, peers);
        config.churn = Some(ChurnPlan::kill(1, 12).with_checkpoint_interval(5));
        let run = |config: &RunConfig| {
            run_iterative_loopback(config, &|rank| {
                Box::new(ObstacleTask::new(Arc::clone(&problem), peers, rank))
            })
        };
        let a = run(&config);
        assert!(a.measurement.converged, "faulty async run must converge");
        assert_eq!(a.measurement.crashes, 1);
        assert_eq!(a.measurement.recoveries, 1);
        assert_eq!(a.measurement.rollbacks, 0, "async absorbs the restart");
        assert!(a.measurement.downtime_s > 0.0);
        // The live load accounting produced throughput estimates.
        assert_eq!(a.measurement.points_per_sec.len(), peers);
        assert!(a.measurement.points_per_sec.iter().all(|&t| t > 0.0));
        // Same plan, same seed: byte-identical outcome.
        let b = run(&config);
        assert_eq!(
            a.measurement.relaxations_per_peer,
            b.measurement.relaxations_per_peer
        );
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn synchronous_crash_rolls_every_peer_back() {
        use crate::churn::ChurnPlan;
        use crate::obstacle_app::ObstacleTask;
        use obstacle::ObstacleProblem;
        use std::sync::Arc;

        let n = 8;
        let peers = 2;
        let problem = Arc::new(ObstacleProblem::membrane(n));
        let mut config = RunConfig::quick(Scheme::Synchronous, peers);
        config.churn = Some(ChurnPlan::kill(0, 14).with_checkpoint_interval(5));
        let outcome = run_iterative_loopback(&config, &|rank| {
            Box::new(ObstacleTask::new(Arc::clone(&problem), peers, rank))
        });
        assert!(outcome.measurement.converged);
        assert_eq!(outcome.measurement.crashes, 1);
        assert_eq!(outcome.measurement.recoveries, 1);
        assert_eq!(
            outcome.measurement.rollbacks, 1,
            "synchronous recovery must roll back"
        );
    }

    #[test]
    fn gossip_control_plane_stops_every_scheme() {
        for scheme in [Scheme::Synchronous, Scheme::Asynchronous, Scheme::Hybrid] {
            let mut config = match scheme {
                Scheme::Hybrid => RunConfig::two_clusters(scheme, 4),
                _ => RunConfig::quick(scheme, 3),
            }
            .with_gossip(2);
            config.tolerance = 0.5;
            let centralized = {
                let mut c = config.clone();
                c.control_plane = crate::runtime::ControlPlane::Centralized;
                run(&c)
            };
            let gossip = run(&config);
            assert!(
                gossip.measurement.converged,
                "{scheme:?} gossip run stalled"
            );
            // The digest decision may lag the central fold (peers keep
            // relaxing while rumors spread) but can never fire earlier than
            // evidence the central fold would accept.
            assert!(
                gossip.measurement.min_relaxations() >= centralized.measurement.min_relaxations(),
                "{scheme:?}: gossip stopped on weaker evidence"
            );
            // Same seed, same digest exchanges: deterministic.
            let again = run(&config);
            assert_eq!(
                gossip.measurement.relaxations_per_peer,
                again.measurement.relaxations_per_peer
            );
            assert_eq!(gossip.results, again.results);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let mut config = RunConfig::quick(Scheme::Asynchronous, 4);
        config.tolerance = 0.5;
        let a = run(&config);
        let b = run(&config);
        assert_eq!(
            a.measurement.relaxations_per_peer,
            b.measurement.relaxations_per_peer
        );
        assert_eq!(a.results, b.results);
    }
}
