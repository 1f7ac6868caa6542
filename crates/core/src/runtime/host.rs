//! The hosted peer: every transition a drive loop takes a peer through,
//! written once.
//!
//! A backend delivers bytes and supplies a clock; what happens to a peer
//! when bytes arrive or the clock moves does not depend on the substrate.
//! [`HostedPeer`] is the engine plus its optional SWIM node
//! ([`RunScaffold::host`]); its methods are the transitions, which
//! [`HostedPeer::turn`] strings together for the walk (`runtime::walk`) and
//! `sim` calls one desim callback at a time. Every engine event a drive loop
//! raises enters through here.
//!
//! Also here: what more than one transport is made of — the [`Polled`]
//! core and the [`PacingGate`].

use crate::gossip::{GossipMessage, GossipNode};
use crate::runtime::driver::ClockDomain;
use crate::runtime::engine::{PeerEngine, PeerTransport, TimerKey, TimerQueue, Wire};
use crate::runtime::scaffold::RunScaffold;
use netsim::{NodeId, Topology};

/// What a transport keeps when its drive loop polls it for due work instead
/// of being called back: protocol timers by deadline (in its own clock
/// units) and whether a relaxation completed and the engine must advance. A
/// crash replaces it — the dead incarnation's timers and sweep die with it.
#[derive(Debug, Default)]
pub(crate) struct Polled {
    pub(crate) timers: TimerQueue,
    pub(crate) compute_pending: bool,
}

/// A transport its drive loop polls for due work: it keeps a [`Polled`].
pub(crate) trait PolledTransport: PeerTransport {
    fn polled(&mut self) -> &mut Polled;
}

/// The rule behind [`PeerTransport::pacing_gate`] where links have a rate:
/// an update that would only queue behind the previous one at the link's
/// serialization rate is skipped — the next relaxation's supersedes it
/// anyway. Without it a free-running asynchronous peer floods the path
/// faster than the receiver drains it, and a reliable channel's
/// retransmissions amplify the overload. A peer gates only its neighbours:
/// one entry per rank gated, found by a linear scan.
#[derive(Debug, Default)]
pub(crate) struct PacingGate {
    /// Earliest transport-clock ns the next update may leave, per gated rank.
    next_send_ok: Vec<(usize, u64)>,
}

impl PacingGate {
    /// Whether an update of `wire_bytes` may leave `from → to` at `now_ns`;
    /// admitting it closes the gate for the link's serialization delay.
    pub(crate) fn admit(
        &mut self,
        topology: &Topology,
        from: usize,
        to: usize,
        wire_bytes: usize,
        now_ns: u64,
    ) -> bool {
        let at = match self.next_send_ok.iter().position(|&(rank, _)| rank == to) {
            Some(at) => at,
            None => {
                self.next_send_ok.push((to, 0));
                self.next_send_ok.len() - 1
            }
        };
        let next_send_ok = &mut self.next_send_ok[at].1;
        if now_ns < *next_send_ok {
            return false;
        }
        let link = topology.link_between(NodeId(from), NodeId(to));
        *next_send_ok = now_ns + link.serialization_delay(wire_bytes).as_nanos();
        true
    }
}

/// What a crashed rank's [`RunScaffold::crash_verdict`] poll found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CrashVerdict {
    /// The failure has not been detected yet.
    Pending,
    /// Recovery granted: bring the wire back and [`HostedPeer::revive`].
    Granted,
    /// The run stopped while the rank was down: deliver it a [`Wire::Stop`]
    /// instead of reviving it.
    Stopped,
}

/// How a peer's [`HostedPeer::turn`] ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Turn {
    /// The peer lives on; the drive loop waits for its next event.
    Running,
    /// The completed sweep was the peer's last (the fault injector killed
    /// it): silence its wire and poll [`RunScaffold::crash_verdict`].
    Crashed,
    /// The engine finished and deposited its result: retire the peer.
    Finished,
}

/// One peer as a drive loop hosts it: the engine and, under the gossip
/// control plane, its SWIM node.
pub(crate) struct HostedPeer {
    pub(crate) engine: PeerEngine,
    pub(crate) gossip: Option<GossipNode>,
}

impl HostedPeer {
    /// Hand one inbound wire to the peer (a gossip frame to its SWIM node,
    /// whose replies go straight back out). Total over [`Wire`]: a segment
    /// from a rank that is no neighbour, a frame that does not decode and a
    /// frame for a peer without a node (centralized plane) are dropped.
    pub(crate) fn deliver(&mut self, from: usize, wire: Wire, transport: &mut impl PeerTransport) {
        match wire {
            Wire::Segment(segment) => self.engine.on_segment(from, segment, transport),
            Wire::Stop => self.engine.on_stop_signal(transport),
            Wire::Rollback(to_iteration, generation) => {
                self.engine.on_rollback(to_iteration, generation, transport)
            }
            Wire::Gossip(frame) => {
                if let (Some(node), Some(msg)) =
                    (self.gossip.as_mut(), GossipMessage::decode(&frame))
                {
                    let now = transport.now_ns();
                    for (to, reply) in node.on_message(&msg, now) {
                        transport.transmit(to, Wire::Gossip(reply.encode()));
                    }
                }
            }
        }
    }

    /// The protocol timer `key` is due.
    pub(crate) fn fire_timer(&mut self, key: TimerKey, transport: &mut impl PeerTransport) {
        self.engine.on_timer(key, transport);
    }

    /// The pending relaxation completed. Returns whether it was the peer's
    /// last — the fault injector killed it.
    pub(crate) fn complete_compute(&mut self, transport: &mut impl PeerTransport) -> bool {
        self.engine.on_compute_done(transport);
        self.engine.crashed()
    }

    /// One gossip control-plane turn of a live peer: author the latest
    /// sweep, run the SWIM probe cycle, feed death verdicts into the
    /// recovery coordinator (level-triggered — `grant` no-ops unless the
    /// rank really crashed, so a false verdict cannot corrupt recovery), and
    /// finish the engine when the stop decision over the merged digest
    /// fires. A peer without a node, a finished and a crashed one sit the
    /// turn out (their silence is what drives suspicion).
    pub(crate) fn gossip_turn(&mut self, run: &RunScaffold, transport: &mut impl PeerTransport) {
        let Some(node) = self.gossip.as_mut() else {
            return;
        };
        if self.engine.finished() || self.engine.crashed() {
            return;
        }
        if let Some(sweep) = self.engine.sweep_summary() {
            node.record_sweep(&sweep);
        }
        let now = transport.now_ns();
        for (to, msg) in node.poll(now) {
            transport.transmit(to, Wire::Gossip(msg.encode()));
        }
        if let Some(vol) = &run.volatility {
            for dead in node.dead_ranks() {
                vol.lock().grant(dead, &node.gossiped_loads(run.total()));
            }
        }
        if node.decide(run.scheme, self.engine.generation()) {
            self.engine.on_distributed_decision(transport);
        }
    }

    /// One turn of a running peer on a polled transport — nothing but the
    /// sub-steps, in this order. A fatal sweep ends the turn at once: a dead
    /// peer neither gossips nor polls. A sweep that completes after the run
    /// stopped is abandoned instead of published — and not computed, where
    /// it would run at the completion: its planes and report would only
    /// reach peers that are finishing, and the peer finishes now instead of
    /// one more publish later. An idle peer adopts a pending
    /// asynchronous/hybrid re-slice last (the engine also polls between
    /// sweeps).
    pub(crate) fn turn(&mut self, run: &RunScaffold, transport: &mut impl PolledTransport) -> Turn {
        // Every due protocol timer (the clock is re-read per timer: firing
        // one takes time).
        while !self.engine.finished() {
            let now = transport.now_ns();
            let Some(key) = transport.polled().timers.pop_due(now) else {
                break;
            };
            self.fire_timer(key, transport);
        }
        if !self.engine.finished() && std::mem::take(&mut transport.polled().compute_pending) {
            if run.shared.stopped() {
                self.engine.on_distributed_decision(transport);
            } else if self.complete_compute(transport) {
                return Turn::Crashed;
            }
        }
        self.gossip_turn(run, transport);
        // The verdicts the run publishes, polled as the safety net behind
        // their broadcasts (single wires a lossy substrate may drop) and for
        // a peer idling in a scheme wait.
        if self.engine.finished() {
            return Turn::Finished;
        }
        if run.shared.stopped() {
            self.engine.on_stop_signal(transport);
        } else {
            self.engine.poll_rollback(transport);
            self.engine.poll_membership(transport);
        }
        if self.engine.finished() {
            Turn::Finished
        } else {
            Turn::Running
        }
    }

    /// Revive the crashed rank once its recovery was granted and its wire is
    /// back: restore from the checkpoint (or adopt the re-slice) and refute
    /// the death verdict with a bumped incarnation.
    pub(crate) fn revive(&mut self, transport: &mut impl PeerTransport) {
        self.engine.recover(transport);
        if let Some(node) = self.gossip.as_mut() {
            node.on_recovered();
        }
    }

    /// Failure detection, the one rule every backend applies: the crashed
    /// rank grants its own recovery and waits out the plan's modelled
    /// detection delay, returned in `clock`'s units (events for
    /// [`ClockDomain::EventCount`], else ns). Sim and loopback call it on
    /// both control planes, the reactor on the central one only: under
    /// gossip, SWIM's death verdict grants there. Placement weights are the
    /// gossiped load estimates when the run gossips, else the detector's.
    pub(crate) fn self_grant(&self, run: &RunScaffold, clock: ClockDomain) -> u64 {
        let loads = match &self.gossip {
            Some(node) => node.gossiped_loads(run.total()),
            None => run.shared.lock().loads().to_vec(),
        };
        let vol = run.volatility.as_ref().expect("crash implies volatility");
        let mut vol = vol.lock();
        vol.grant(self.engine.rank(), &loads);
        match clock {
            ClockDomain::EventCount => vol.detection_delay_events(),
            _ => vol.detection_delay_ns(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::ChurnPlan;
    use crate::gossip::{GossipKind, GossipTiming};
    use crate::runtime::engine::testing::{RampTask, ScriptTransport};
    use crate::runtime::RunConfig;
    use netsim::LinkFaults;
    use p2psap::data::{SegmentKind, WireSegment};
    use p2psap::Scheme;

    const PEERS: usize = 3;

    /// A synchronous three-rank line run and its rank `rank`, started.
    fn started(config: RunConfig, rank: usize) -> (RunScaffold, HostedPeer, ScriptTransport) {
        let run = RunScaffold::new(&config, GossipTiming::wall_clock());
        let mut peer = run.host(rank, Box::new(RampTask::line(rank, PEERS, 10)));
        let mut transport = ScriptTransport::new(rank);
        peer.engine.on_start(&mut transport);
        (run, peer, transport)
    }

    fn config() -> RunConfig {
        let mut config = RunConfig::quick(Scheme::Synchronous, PEERS);
        config.tolerance = 0.5;
        config
    }

    /// Sequence numbers of the data segments among `sent`, in send order.
    fn segments(sent: &[(usize, Wire)]) -> Vec<WireSegment> {
        let segment = |(_, wire): &(usize, Wire)| match wire {
            Wire::Segment(bytes) => WireSegment::decode(bytes.clone()),
            _ => None,
        };
        sent.iter().filter_map(segment).collect()
    }

    fn data_seqs(sent: &[(usize, Wire)]) -> Vec<u64> {
        let data = segments(sent).into_iter();
        data.filter(|s| s.kind == SegmentKind::Data)
            .map(|s| s.seq)
            .collect()
    }

    #[test]
    fn turn_fires_timers_then_completes_the_sweep_then_gossips_then_polls_verdicts() {
        let (run, mut a, mut ta) = started(config().with_gossip(1), 0);
        let (_, mut b, mut tb) = started(config().with_gossip(1), 1);
        // First turn: each publishes update 1 (reliable: its retransmission
        // timer is armed) and waits for its neighbour.
        assert_eq!(a.turn(&run, &mut ta), Turn::Running);
        assert_eq!(b.turn(&run, &mut tb), Turn::Running);
        let first = data_seqs(&ta.sent)[0];
        // B's update reaches A — sweep 2 is pending — but no acknowledgement
        // of A's own does, and a rollback is published that A has not seen.
        for (to, segment) in tb.drain_segments() {
            if to == 0 {
                a.deliver(1, Wire::Segment(segment), &mut ta);
            }
        }
        assert!(ta.polled.compute_pending);
        run.shared.lock().begin_generation(1, 0);
        ta.sent.clear();
        ta.computes_after_sent.clear();
        ta.now_ns += 10_000_000_000;

        assert_eq!(a.turn(&run, &mut ta), Turn::Running);
        // The due timers fired in deadline order — the delayed ack of B's
        // update, then the retransmission of update 1 — before update 2 …
        let kinds: Vec<SegmentKind> = segments(&ta.sent).iter().map(|s| s.kind).collect();
        assert_eq!(kinds[0], SegmentKind::Ack);
        assert_eq!(data_seqs(&ta.sent), [first, first + 1]);
        // … every gossip message after both …
        let is_gossip = |(_, wire): &(usize, Wire)| matches!(wire, Wire::Gossip(_));
        let gossip_from = ta
            .sent
            .iter()
            .position(is_gossip)
            .expect("the turn gossips");
        assert!(data_seqs(&ta.sent[gossip_from..]).is_empty());
        // … and the rollback poll, which restarts the sweep, came last.
        assert_eq!(a.engine.generation(), 1);
        assert_eq!(ta.computes_after_sent, [ta.sent.len()]);
    }

    #[test]
    fn a_fatal_sweep_ends_the_turn_before_gossip_and_the_verdict_polls() {
        let mut config = config().with_gossip(1);
        config.churn = Some(ChurnPlan::kill(0, 1));
        let (run, mut peer, mut transport) = started(config, 0);
        run.shared.lock().begin_generation(1, 0);
        let turn = peer.turn(&run, &mut transport);
        assert_eq!(turn, Turn::Crashed);
        assert!(transport.sent.is_empty(), "a dead peer is silent");
        assert_eq!(peer.engine.generation(), 0, "and polls no verdict");
        // Its verdict: pending until granted, and the stop wins over both.
        assert_eq!(run.crash_verdict(0), CrashVerdict::Pending);
        peer.self_grant(&run, ClockDomain::Virtual);
        assert_eq!(run.crash_verdict(0), CrashVerdict::Granted);
        run.shared.lock().deposit_result(1, 0, Vec::new(), 1);
        assert_eq!(run.crash_verdict(0), CrashVerdict::Stopped);
    }

    /// The stop cut: a sweep that completes after the run stopped is not
    /// published — the peer finishes at once, transmitting nothing and
    /// broadcasting no second stop. A synchronous peer ran the sweep at its
    /// begin and counts it in its result; an asynchronous one would have
    /// run it at the completion, so it is not computed either.
    #[test]
    fn a_sweep_pending_when_the_run_stopped_finishes_without_transmitting() {
        for (scheme, computed) in [(Scheme::Synchronous, 1), (Scheme::Asynchronous, 0)] {
            let mut config = config();
            config.scheme = scheme;
            for config in [config.clone(), config.with_gossip(1)] {
                let (run, mut peer, mut transport) = started(config, 0);
                assert!(transport.polled.compute_pending, "sweep 1 is pending");
                transport.sent.clear();
                // Rank 1 finished first: the stop board is flipped, its
                // broadcast is owned.
                assert!(run.shared.lock().deposit_result(1, 1, Vec::new(), 1));
                assert_eq!(peer.turn(&run, &mut transport), Turn::Finished);
                assert!(transport.sent.is_empty(), "published {:?}", transport.sent);
                assert!(transport.broadcasts.is_empty());
                assert!(!transport.polled.compute_pending);
                assert_eq!(peer.engine.relaxations(), computed, "{scheme}");
            }
        }
    }

    #[test]
    fn deliver_is_total_over_wire() {
        let (_, mut gossiping, _) = started(config().with_gossip(1), 1);
        let first = gossiping.gossip.as_mut().expect("gossip run").poll(0);
        let [(_, probe), (_, push)] = &first[..] else {
            panic!("the first poll probes and pushes: {first:?}");
        };
        assert_eq!(
            (probe.kind, push.kind),
            (GossipKind::Probe, GossipKind::Push)
        );
        let (probe, push) = (probe.encode(), push.encode());
        // A frame for a peer without a SWIM node, a frame that does not
        // decode, a segment from a rank that is no neighbour: all dropped.
        let (_, mut central, mut tc) = started(config(), 0);
        central.deliver(1, Wire::Gossip(probe.clone()), &mut tc);
        let (_, mut peer, mut transport) = started(config().with_gossip(1), 0);
        peer.deliver(1, Wire::Gossip(vec![0xFF; 9]), &mut transport);
        let stray = bytes::Bytes::from_static(b"from no neighbour of rank 0");
        peer.deliver(2, Wire::Segment(stray), &mut transport);
        peer.deliver(2, Wire::Rollback(0, 0), &mut transport);
        assert!(tc.sent.is_empty() && transport.sent.is_empty());
        assert!(transport.computes_after_sent == [0] && !peer.engine.finished());
        // A push that decodes is merged and answered with nothing; a probe
        // is answered, straight back to its sender.
        peer.deliver(1, Wire::Gossip(push), &mut transport);
        assert!(transport.sent.is_empty());
        peer.deliver(1, Wire::Gossip(probe), &mut transport);
        assert!(matches!(transport.sent[..], [(1, Wire::Gossip(_))]));
    }

    #[test]
    fn link_events_arm_alike_through_the_ns_and_the_event_fields() {
        let arm = |plan: ChurnPlan, clock| {
            let mut config = config();
            config.churn = Some(plan);
            let run = RunScaffold::new(&config, GossipTiming::wall_clock());
            let faults = LinkFaults::new();
            assert!(run.arm_link_events(1, 3, &faults, 100, clock).is_empty());
            for rank in 0..PEERS {
                run.arm_link_events(rank, 4, &faults, 100, clock);
            }
            faults
        };
        // Equal numbers in both denominations: schedules that answer alike.
        let plan = ChurnPlan::new(vec![])
            .with_partition(0, 1, &[0, 1], 50, 50)
            .with_flapping_link(1, 4, 2, 7, 7, 3);
        let by_ns = arm(plan.clone(), ClockDomain::Virtual);
        let by_events = arm(plan, ClockDomain::EventCount);
        assert!(by_ns.blocked(0, 2, 120) && by_ns.blocked(1, 2, 100));
        for now in 95..160 {
            let edges = [(0, 1), (0, 2), (1, 2), (2, 1), (0, 3)];
            let answers = |faults: &LinkFaults| {
                let next = faults.next_transition_after(now);
                (edges.map(|(from, to)| faults.blocked(from, to, now)), next)
            };
            assert_eq!(answers(&by_ns), answers(&by_events), "at {now}");
        }
        // Unequal numbers: each clock heals the cut by its own field.
        let plan = ChurnPlan::new(vec![]).with_partition(2, 1, &[2], 30, 90);
        assert!(!arm(plan.clone(), ClockDomain::Virtual).blocked(2, 3, 140));
        assert!(arm(plan, ClockDomain::EventCount).blocked(2, 3, 140));
    }

    /// The gate closes per neighbour for the link's serialization delay and
    /// keeps an entry only for the ranks it gated, whatever the run's size.
    #[test]
    fn the_pacing_gate_keeps_one_entry_per_gated_neighbour() {
        let topology = netsim::Topology::nicta_single_cluster(1024);
        let link = topology.link_between(NodeId(0), NodeId(1)).clone();
        let delay = link.serialization_delay(12_500).as_nanos();
        let mut gate = PacingGate::default();
        assert!(gate.admit(&topology, 0, 1, 12_500, 0));
        assert!(gate.admit(&topology, 0, 1000, 12_500, 1));
        assert!(!gate.admit(&topology, 0, 1, 12_500, delay - 1));
        assert!(gate.admit(&topology, 0, 1, 12_500, delay));
        assert!(!gate.admit(&topology, 0, 1000, 12_500, delay));
        assert_eq!(gate.next_send_ok.len(), 2);
    }
}
