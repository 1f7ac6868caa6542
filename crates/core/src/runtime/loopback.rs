//! The loopback runtime of P2PDC: single-process, zero-latency, fully
//! deterministic.
//!
//! The third [`PeerTransport`] implementation, and the cheapest: every peer
//! lives in one thread, wires are delivered instantly through in-memory
//! queues, and the "clock" is a counter that advances one nanosecond per
//! engine event (it only has to be monotone for the P2PSAP sockets and the
//! convergence detector — the elapsed time it yields is not a performance
//! measurement). Peers are driven round-robin, so runs are bit-for-bit
//! reproducible with no simulator in the loop.
//!
//! Quick tests and the engine's own unit tests use this runtime: it
//! exercises the exact scheme-wait, socket and termination logic of the
//! other substrates at a fraction of their cost, and demonstrates that the
//! engine abstraction really is runtime-agnostic.
//!
//! The substrate owns its clock, and same-seed outcomes depend on where it
//! ticks: so instead of the hosted peer's whole `turn` it calls the same
//! sub-steps (`runtime::host`), each as one `Loopback::event` — tick, show
//! the clock to the peer's transport, call, flush what the call sent. Its
//! own beyond that: traffic to a crashed peer is held, not lost, and the
//! gossip turn ticks between its steps.

use crate::churn::ChurnEventKind;
use crate::gossip::GossipTiming;
use crate::runtime::driver::{ClockDomain, DriverOutcome, RuntimeDriver, RuntimeKind, TaskFactory};
use crate::runtime::engine::{PeerEngine, PeerTransport, TimerKey, Wire};
use crate::runtime::host::{CrashVerdict, HostedPeer, Polled};
use crate::runtime::scaffold::RunScaffold;
use crate::runtime::RunConfig;
use bytes::Bytes;
use std::collections::{HashMap, VecDeque};

/// The registered [`RuntimeDriver`] of the loopback backend. The loopback
/// substrate needs nothing beyond the shared [`RunConfig`] (latencies are
/// ignored; the topology only drives the peer count and the hybrid scheme's
/// cluster-split wait rule), so every [`BackendExtras`](crate::BackendExtras)
/// variant is accepted and none is read.
pub struct LoopbackDriver;

impl RuntimeDriver for LoopbackDriver {
    fn kind(&self) -> RuntimeKind {
        RuntimeKind::Loopback
    }

    fn label(&self) -> &'static str {
        "loopback"
    }

    fn clock(&self) -> ClockDomain {
        ClockDomain::EventCount
    }

    fn deterministic(&self) -> bool {
        true
    }

    fn run(&self, config: &RunConfig, task_factory: TaskFactory<'_>) -> DriverOutcome {
        run_iterative_loopback(config, task_factory)
    }
}

/// Event-count link-fault model of the loopback substrate: the
/// [`netsim::LinkFaults`] predicate the virtual-time backend uses, with the
/// event counter standing in for nanoseconds, plus what is loopback's own.
/// Data wires crossing a cut edge are *held* until the edge reopens (the
/// loopback clock cannot reach retransmission timescales, so dropping them
/// would deadlock a synchronous edge — the same reasoning that holds
/// in-flight traffic to crashed peers); gossip wires are *dropped* (the
/// control plane is built for loss, and that loss is what raises suspicions
/// during a partition). Stop and rollback broadcasts model reliable control
/// delivery on both deterministic backends, so they pass unimpaired.
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
    /// destination inboxes. Returns whether anything was released.
    fn release_due(&mut self, clock: u64, inboxes: &mut [VecDeque<(usize, Wire)>]) -> bool {
        let mut released = false;
        let mut at = 0;
        while at < self.held.len() {
            if self.held[at].0 <= clock {
                let (_, from, to, wire) = self.held.swap_remove(at);
                inboxes[to].push_back((from, wire));
                released = true;
            } else {
                at += 1;
            }
        }
        released
    }

    /// Earliest pending release (for the idle clock jump).
    fn next_release(&self) -> Option<u64> {
        self.held.iter().map(|&(release, ..)| release).min()
    }
}

/// Nanoseconds of protocol-timer delay per loopback event tick (0.1 ms):
/// the exchange rate [`LoopbackTransport::arm_timer`] applies to the
/// session stack's ns-denominated timer requests. Chosen so the reliable
/// channel's 600 ms retransmission timeout becomes 6 000 events — far
/// above any loopback round trip (a handful of events), far below the
/// driver's wedge-guard gap even at full exponential back-off.
const NS_PER_EVENT: u64 = 100_000;

/// The [`PeerTransport`] of the loopback runtime: instant delivery into
/// sibling inboxes, timers on the shared event-counter clock.
struct LoopbackTransport {
    rank: usize,
    peers: usize,
    /// Event-counter clock, set by the driver before every engine call.
    clock_ns: u64,
    /// Wires produced by the last call into the peer, drained into the
    /// destination inboxes by the driver.
    outbox: Vec<(usize, Wire)>,
    polled: Polled,
}

impl PeerTransport for LoopbackTransport {
    fn now_ns(&mut self) -> u64 {
        self.clock_ns
    }

    fn transmit(&mut self, to: usize, wire: Wire) {
        self.outbox.push((to, wire));
    }

    fn arm_timer(&mut self, key: TimerKey, delay_ns: u64) {
        // Session protocol timers are ns-denominated (the stack knows
        // nothing of the event-counter clock). Map them onto the event
        // clock at [`NS_PER_EVENT`] so a reliable-channel retransmission
        // (600 ms RTO) lands thousands of events out — reachable while
        // gossip chatter keeps the clock busy — instead of hundreds of
        // millions, which the wedge guard rightly calls a stalled run.
        self.polled
            .timers
            .arm(key, self.clock_ns + (delay_ns / NS_PER_EVENT).max(1));
    }

    fn cancel_timer(&mut self, key: TimerKey) {
        self.polled.timers.cancel(key);
    }

    fn schedule_compute(&mut self, _work_points: u64) {
        // Zero-cost compute: the driver advances the engine on its next turn.
        self.polled.compute_pending = true;
    }

    fn broadcast(&mut self, wire: &Wire) {
        for rank in 0..self.peers {
            if rank != self.rank {
                self.outbox.push((rank, wire.clone()));
            }
        }
    }
}

/// The substrate: every provisioned rank's slot (`None` until a join rank's
/// join fires), transport and inbox, the event clock, and the link-fault
/// model when the plan schedules link faults.
struct Loopback {
    clock: u64,
    peers: Vec<Option<HostedPeer>>,
    transports: Vec<LoopbackTransport>,
    inboxes: Vec<VecDeque<(usize, Wire)>>,
    links: Option<LoopLinkState>,
}

impl Loopback {
    /// Drain `rank`'s outbox into the destination inboxes, through the
    /// link-fault model when one is armed.
    fn flush(&mut self, rank: usize) {
        for (to, wire) in self.transports[rank].outbox.drain(..) {
            match self.links.as_mut() {
                Some(l) => l.route(rank, to, wire, self.clock, &mut self.inboxes),
                None => self.inboxes[to].push_back((rank, wire)),
            }
        }
    }

    /// One engine event of `rank`: tick the clock, show it to the peer's
    /// transport, make the call, flush what it sent.
    fn event<R>(
        &mut self,
        rank: usize,
        call: impl FnOnce(&mut HostedPeer, &mut LoopbackTransport) -> R,
    ) -> R {
        self.clock += 1;
        self.transports[rank].clock_ns = self.clock;
        let peer = self.peers[rank]
            .as_mut()
            .expect("events go to spawned ranks");
        let result = call(peer, &mut self.transports[rank]);
        self.flush(rank);
        result
    }

    fn engine(&self, rank: usize) -> &PeerEngine {
        &self.peers[rank].as_ref().expect("spawned").engine
    }

    /// Env-gated (`LOOPBACK_WEDGE_DEBUG=1`) dump of the per-rank drive state
    /// on the two no-progress exit paths (wedge guard and empty idle-jump) —
    /// the scenario fuzzer's first debugging stop when a loopback run ends
    /// unconverged.
    fn dump_no_progress_exit(&self, path: &str) {
        if std::env::var("LOOPBACK_WEDGE_DEBUG").is_err() {
            return;
        }
        eprintln!("{path} at clock {}:", self.clock);
        for (rank, peer) in self.peers.iter().enumerate() {
            let Some(HostedPeer { engine: e, gossip }) = peer else {
                eprintln!("  rank {rank}: unspawned");
                continue;
            };
            eprintln!(
                "  rank {rank}: relax={} finished={} crashed={} computing={} gen={} inbox={} compute_pending={} timer_deadline={:?} gossip_deadline={:?} dead_ranks={:?}",
                e.relaxations(),
                e.finished(),
                e.crashed(),
                e.computing(),
                e.generation(),
                self.inboxes[rank].len(),
                self.transports[rank].polled.compute_pending,
                self.transports[rank].polled.timers.earliest_deadline(),
                gossip.as_ref().map(|g| g.next_deadline()),
                gossip.as_ref().map(|g| g.dead_ranks()),
            );
        }
    }
}

/// Run a distributed iterative computation in-process with zero latency
/// (the outcome's elapsed time counts engine events, not time).
pub(crate) fn run_iterative_loopback(
    config: &RunConfig,
    task_factory: TaskFactory<'_>,
) -> DriverOutcome {
    // Substrate capacity (transports, inboxes) is provisioned for ranks that
    // may join mid-run; their peers stay unspawned until the join fires.
    // Under the gossip control plane the event-counter clock drives the
    // probe cadence, so runs stay bit-for-bit deterministic.
    let total = config.provisioned_peers();
    let run = RunScaffold::new(config, GossipTiming::event_count(total));
    let mut sub = Loopback {
        clock: 0,
        peers: (0..total)
            .map(|rank| (rank < run.alpha).then(|| run.host(rank, task_factory(rank))))
            .collect(),
        transports: (0..total)
            .map(|rank| LoopbackTransport {
                rank,
                peers: total,
                clock_ns: 0,
                outbox: Vec::new(),
                polled: Polled::default(),
            })
            .collect(),
        inboxes: (0..total).map(|_| VecDeque::new()).collect(),
        // Scenario link faults, when the plan schedules any (the event-count
        // twin of the sim backend's netsim fault schedule).
        links: config
            .churn
            .as_ref()
            .filter(|plan| plan.link_fault_count() > 0)
            .map(|_| LoopLinkState::default()),
    };

    for rank in 0..run.alpha {
        sub.event(rank, |peer, transport| peer.engine.on_start(transport));
    }

    // Clock values at which crashed ranks recover (the plan's modelled
    // failure-detection latency stands in for the ping sweep the wall-clock
    // backends run for real).
    let mut recover_at: HashMap<usize, u64> = HashMap::new();
    // Wedge guard: the event clock at the last completed relaxation, and
    // the relaxation total it was observed at. A run where the clock keeps
    // advancing (gossip probes, protocol timers, link-fault releases) while
    // no engine relaxes for WEDGE_EVENT_GAP events is declared wedged and
    // reported as non-converged — the loopback substrate has no deadline,
    // so without this a fault schedule that permanently stalls the engines
    // (e.g. a cut that never heals) would drive the chatter forever.
    const WEDGE_EVENT_GAP: u64 = 1_000_000;
    let mut last_relax_clock: u64 = 0;
    let mut last_relax_total: u64 = 0;

    loop {
        let mut progress = false;
        // Release wires whose cut edge reopened (or whose asymmetric delay
        // elapsed) into the destination inboxes.
        if let Some(l) = sub.links.as_mut() {
            if l.release_due(sub.clock, &mut sub.inboxes) {
                progress = true;
            }
        }
        // A join fired: spawn the pre-provisioned rank. Its engine adopts
        // the joined slice of the membership plan and starts relaxing.
        if let Some(vol) = &run.volatility {
            let spawn = vol.lock().take_pending_spawn();
            if let Some(rank) = spawn {
                if sub.peers[rank].is_none() {
                    if let Some(peer) = run.join_host(rank) {
                        sub.peers[rank] = Some(peer);
                        sub.event(rank, |peer, transport| peer.engine.on_start(transport));
                        progress = true;
                    }
                }
            }
        }
        for rank in 0..total {
            if sub.peers[rank].is_none() {
                continue;
            }
            // A crashed peer is silent: its protocol timers die with it and
            // nothing is delivered to it until, after the modelled detection
            // delay, the recovery path revives the rank. In-flight traffic
            // waits in its inbox rather than being dropped: the loopback
            // clock advances one tick per event, so protocol retransmission
            // timescales (milliseconds) are unreachable while any peer is
            // busy — dropping a delivered-but-unacknowledged update here
            // would lose it forever and deadlock a synchronous edge. Real
            // loss-under-crash semantics live on the UDP backend, whose
            // sockets genuinely drop and retransmit in wall-clock time.
            if sub.engine(rank).crashed() {
                if let std::collections::hash_map::Entry::Vacant(entry) = recover_at.entry(rank) {
                    let peer = sub.peers[rank].as_ref().expect("spawned");
                    entry.insert(sub.clock + peer.self_grant(&run, ClockDomain::EventCount));
                    sub.transports[rank].polled = Polled::default();
                    progress = true;
                    continue;
                }
                match run.crash_verdict(rank) {
                    // The run ended (cap) while the peer was down.
                    CrashVerdict::Stopped => {
                        recover_at.remove(&rank);
                        sub.event(rank, |peer, transport| {
                            peer.deliver(rank, Wire::Stop, transport)
                        });
                        progress = true;
                    }
                    CrashVerdict::Granted if sub.clock >= recover_at[&rank] => {
                        recover_at.remove(&rank);
                        sub.event(rank, |peer, transport| peer.revive(transport));
                        progress = true;
                    }
                    _ => {}
                }
                continue;
            }
            // Deliver everything queued for this peer.
            while let Some((from, wire)) = sub.inboxes[rank].pop_front() {
                sub.event(rank, |peer, transport| peer.deliver(from, wire, transport));
                progress = true;
                if sub.engine(rank).crashed() {
                    break;
                }
            }
            // Fire due protocol timers.
            while let Some(key) = sub.transports[rank].polled.timers.pop_due(sub.clock) {
                sub.event(rank, |peer, transport| peer.fire_timer(key, transport));
                progress = true;
            }
            // Complete a pending relaxation.
            if std::mem::take(&mut sub.transports[rank].polled.compute_pending) {
                sub.event(rank, |peer, transport| peer.complete_compute(transport));
                // Arm due link-fault events on this rank's relaxation clock.
                let relaxations = sub.engine(rank).relaxations();
                if let Some(l) = sub.links.as_mut() {
                    for event in run.arm_link_events(
                        rank,
                        relaxations,
                        &l.faults,
                        sub.clock,
                        ClockDomain::EventCount,
                    ) {
                        // The loopback link has no latency to scale; each
                        // unit of slowdown beyond 1x becomes one engine
                        // event of delay.
                        if let ChurnEventKind::AsymmetricLatency { peer, factor } = event.kind {
                            let delay = (factor - 1.0).round().max(0.0) as u64;
                            l.asym.push((rank, peer, delay));
                        }
                    }
                }
                progress = true;
            }
            // Gossip control plane turn: author the latest sweep, run the
            // probe cycle on the event-counter clock, and evaluate the stop
            // decision over the merged digest. Not `HostedPeer::gossip_turn`:
            // this one ticks the event clock between its steps (the probe
            // delivery and the decision are each one event) and leaves the
            // recovery grant to the crashed rank's own visit above, and
            // same-seed outcomes — elapsed events, placement loads — depend
            // on both.
            let peer = sub.peers[rank].as_mut().expect("spawned");
            if let Some(g) = peer.gossip.as_mut() {
                let engine = &peer.engine;
                if !engine.finished() && !engine.crashed() {
                    if let Some(sweep) = engine.sweep_summary() {
                        g.record_sweep(&sweep);
                    }
                    let msgs = g.poll(sub.clock);
                    let decided = g.decide(config.scheme, engine.generation());
                    if !msgs.is_empty() {
                        sub.clock += 1;
                        for (to, msg) in msgs {
                            sub.transports[rank].transmit(to, Wire::Gossip(msg.encode()));
                        }
                        sub.flush(rank);
                        progress = true;
                    }
                    if decided {
                        sub.event(rank, |peer, transport| {
                            peer.engine.on_distributed_decision(transport)
                        });
                        progress = true;
                    }
                }
            }
            // Adopt a pending asynchronous/hybrid re-slice even while idle
            // (the engine also polls between sweeps; this covers a peer
            // parked in a scheme wait with no traffic in flight). The clock
            // ticks only when a plan was adopted.
            if !sub.engine(rank).finished() && !sub.engine(rank).computing() {
                sub.transports[rank].clock_ns = sub.clock;
                let peer = sub.peers[rank].as_mut().expect("spawned");
                if peer.poll_membership(&mut sub.transports[rank]) {
                    sub.clock += 1;
                    sub.flush(rank);
                    progress = true;
                }
            }
            // Propagate a stop another peer established.
            if !sub.engine(rank).finished() && !sub.engine(rank).computing() && run.shared.stopped()
            {
                sub.event(rank, |peer, transport| {
                    peer.deliver(rank, Wire::Stop, transport)
                });
                progress = true;
            }
        }
        if sub.peers.iter().flatten().all(|p| p.engine.finished()) {
            break;
        }
        let relax_total: u64 = sub
            .peers
            .iter()
            .flatten()
            .map(|p| p.engine.relaxations())
            .sum();
        // `!=` rather than `>`: a checkpoint restore rewinds the counters,
        // and the rewind itself is evidence the run is still moving.
        if relax_total != last_relax_total {
            last_relax_total = relax_total;
            last_relax_clock = sub.clock;
        } else if sub.clock.saturating_sub(last_relax_clock) > WEDGE_EVENT_GAP {
            // Wedged (see the guard's declaration): end the run; finish_run
            // reports it as not converged.
            sub.dump_no_progress_exit("WEDGE");
            break;
        }
        if !progress {
            // Everyone is waiting: jump the clock to the earliest armed
            // protocol timer (e.g. a retransmission) or pending recovery, or
            // give up if neither exists — finish_run then reports the run as
            // not converged.
            let clock = sub.clock;
            let earliest = sub
                .transports
                .iter()
                .filter_map(|t| t.polled.timers.earliest_deadline())
                .chain(recover_at.values().copied())
                .chain(
                    // Probe cadence: only live gossip nodes can still make
                    // progress, so only their deadlines keep the clock alive.
                    sub.peers
                        .iter()
                        .flatten()
                        .filter(|p| !p.engine.finished() && !p.engine.crashed())
                        .filter_map(|p| p.gossip.as_ref().map(|g| g.next_deadline())),
                )
                // A held wire behind a cut edge releases at a known clock; a
                // quiet network must still advance to that point.
                .chain(sub.links.as_ref().and_then(LoopLinkState::next_release))
                // Only strictly-future instants can unblock anything: a
                // deadline at or before the current clock was already swept
                // this turn without progress, and letting it shadow a later
                // genuine deadline (a pending recovery, another node's probe
                // round) would end a run that still has scheduled work.
                .filter(|&deadline| deadline > clock)
                .min();
            match earliest {
                Some(deadline) => {
                    // An idle jump processes zero events, and the wedge
                    // guard measures processed events — so the jumped span
                    // must not count toward the gap. The reliable channel's
                    // retransmission timeout is ns-denominated (600 ms),
                    // which on this clock is a deadline hundreds of millions
                    // of ticks out: charging the jump to the guard would
                    // declare every corrupted-then-retransmitted synchronous
                    // segment a wedge before the retransmission fires.
                    last_relax_clock += deadline - clock;
                    sub.clock = deadline;
                }
                None => {
                    sub.dump_no_progress_exit("IDLE-EXIT");
                    break;
                }
            }
        }
    }

    run.finish(sub.clock, None, 0)
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
