//! A P2PSAP data-channel session between two peers: the data path.
//!
//! The paper composes the transport from Cactus micro-protocols so that the
//! *choice* of composition can follow the context — Table I picks one per
//! (scheme × link class) when a socket opens and at each coordinated
//! reconfiguration. That choice is made a handful of times per run, so the
//! session resolves it once, in [`Session::new`] and [`Session::reconfigure`],
//! into typed state (sequence counter, retransmission copies, pending
//! completions, reorder buffer, congestion algorithm) and runs every segment
//! through three straight-line functions — [`Session::send`],
//! [`Session::on_wire`], [`Session::on_timer`] — that branch on the plain
//! enums of [`ChannelConfig`] and read and write [`WireSegment`]'s header
//! fields directly. No event is raised and no micro-protocol is called per
//! segment.
//!
//! The micro-protocol composition itself ([`crate::data::build_transport`],
//! [`crate::data::apply_reconfiguration`], `crates/cactus`) is the reference
//! implementation this file is checked against: `tests/properties.rs` drives
//! both with the same scripts and requires identical wire bytes, timers,
//! cancellations, deliveries and completions after every step. The paper's
//! surface is unchanged: reconfiguration is still planned as
//! [`ReconfigAction`]s in micro-protocol terms and applied one by one, and
//! [`Session::transport_micros`] still names the composition in force.
//!
//! The session is transport-agnostic: the runtime (simulated or threaded)
//! carries the produced byte segments and arms the requested timers.

use crate::config::{ChannelConfig, CommunicationMode, Reliability};
use crate::data::congestion::{make_congestion, CongestionControl};
use crate::data::transport::{plan_reconfiguration, ReconfigAction};
use crate::data::wire::{encode_frame, SegmentKind, WireSegment};
use bytes::Bytes;
use cactus::TimerRequest;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Index of the transport layer inside the session's stack.
pub const TRANSPORT_LAYER: usize = 1;
/// Index of the physical layer inside the session's stack.
pub const PHYSICAL_LAYER: usize = 0;

/// Initial retransmission timeout of a reliable channel: 600 ms, comfortably
/// above the 200 ms inter-cluster round trip of the paper's testbed, so
/// reliable WAN channels do not retransmit spuriously. Doubles per retry.
pub const RETRANSMIT_TIMEOUT_NS: u64 = 600_000_000;
/// Retransmissions of one segment before a reliable channel gives it up.
pub const MAX_RETRANSMISSIONS: u32 = 5;

/// Everything a session interaction produced, to be carried out by the
/// runtime.
#[derive(Debug, Default, PartialEq)]
pub struct SessionOutput {
    /// Encoded segments to transmit to the remote peer.
    pub wire: Vec<Bytes>,
    /// Timers to arm (layer, delay, tag).
    pub timers: Vec<TimerRequest>,
    /// Timers to cancel (layer, tag).
    pub cancels: Vec<(usize, u64)>,
    /// Payloads delivered to the application.
    pub delivered: Vec<Bytes>,
    /// Sequence numbers of sends that completed (synchronous semantics).
    pub completions: Vec<u64>,
}

impl SessionOutput {
    /// Merge another output after this one.
    pub fn merge(&mut self, other: SessionOutput) {
        self.wire.extend(other.wire);
        self.timers.extend(other.timers);
        self.cancels.extend(other.cancels);
        self.delivered.extend(other.delivered);
        self.completions.extend(other.completions);
    }
}

/// The retransmission copy of one unacknowledged segment of a reliable
/// channel.
struct Unacked {
    payload: Bytes,
    sent_at_ns: u64,
    retries: u32,
}

/// A configured data-channel session.
pub struct Session {
    config: ChannelConfig,
    next_seq: u64,
    /// Reliable channels: segments awaiting their acknowledgement, by
    /// sequence number. Empty on an unreliable channel.
    unacked: HashMap<u64, Unacked>,
    /// Synchronous channels: sends that complete when their acknowledgement
    /// arrives. Empty on an asynchronous channel.
    pending: HashSet<u64>,
    /// The next sequence number not yet delivered: the one an ordered channel
    /// waits for, one past the highest delivered on an unordered channel — so
    /// ordering switched on mid-session starts where delivery stands.
    next_expected: u64,
    /// Ordered channels: segments that arrived ahead of `next_expected`.
    held_back: BTreeMap<u64, Bytes>,
    /// Fed every acknowledgement and every retransmission timeout.
    congestion: Box<dyn CongestionControl>,
    sent_segments: u64,
    received_segments: u64,
    rejected_segments: u64,
    wire_pool: Vec<Vec<u8>>,
}

impl Session {
    /// Create a session with an initial data-channel configuration.
    pub fn new(config: ChannelConfig) -> Self {
        Self {
            config,
            next_seq: 0,
            unacked: HashMap::new(),
            pending: HashSet::new(),
            next_expected: 0,
            held_back: BTreeMap::new(),
            congestion: make_congestion(config.congestion),
            sent_segments: 0,
            received_segments: 0,
            rejected_segments: 0,
            wire_pool: Vec::new(),
        }
    }

    /// Encode one segment into a buffer drawn from the session's pool.
    fn encode(
        &mut self,
        kind: SegmentKind,
        seq: u64,
        ack_requested: bool,
        sent_at_ns: u64,
        payload: &[u8],
    ) -> Bytes {
        let mut buf = self.wire_pool.pop().unwrap_or_default();
        encode_frame(&mut buf, kind, seq, ack_requested, sent_at_ns, payload);
        Bytes::from(buf)
    }

    /// Return a wire buffer to the pool once the runtime has put it on the
    /// wire and reclaimed sole ownership (`Bytes::try_reclaim`). The next
    /// outgoing segment reuses its storage instead of allocating.
    pub fn recycle_wire(&mut self, buf: Vec<u8>) {
        self.wire_pool.push(buf);
    }

    /// Current configuration.
    pub fn config(&self) -> ChannelConfig {
        self.config
    }

    /// Number of data segments sent by the application through this session.
    pub fn sent_segments(&self) -> u64 {
        self.sent_segments
    }

    /// Number of well-formed segments received from the wire.
    pub fn received_segments(&self) -> u64 {
        self.received_segments
    }

    /// Number of wire frames dropped because they did not decode (failed
    /// checksum, truncated, unknown kind).
    pub fn rejected_segments(&self) -> u64 {
        self.rejected_segments
    }

    /// Send an application payload. Returns the assigned sequence number and
    /// the resulting protocol actions.
    ///
    /// The segment asks for an acknowledgement when the channel is reliable
    /// (it is retransmitted until one arrives) or synchronous (the send
    /// completes when one arrives); an asynchronous send completes at once.
    /// Only a reliable channel keeps the payload.
    pub fn send(&mut self, payload: Bytes, now_ns: u64) -> (u64, SessionOutput) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent_segments += 1;
        let reliable = self.config.reliability == Reliability::Reliable;
        let synchronous = self.config.mode == CommunicationMode::Synchronous;
        let mut out = SessionOutput::default();
        let ack_requested = reliable || synchronous;
        out.wire
            .push(self.encode(SegmentKind::Data, seq, ack_requested, now_ns, &payload));
        if synchronous {
            self.pending.insert(seq);
        } else {
            out.completions.push(seq);
        }
        if reliable {
            self.unacked.insert(
                seq,
                Unacked {
                    payload,
                    sent_at_ns: now_ns,
                    retries: 0,
                },
            );
            out.timers.push(TimerRequest {
                layer: TRANSPORT_LAYER,
                delay_ns: RETRANSMIT_TIMEOUT_NS,
                tag: seq,
            });
        }
        (seq, out)
    }

    /// Process a segment received from the wire.
    pub fn on_wire(&mut self, bytes: Bytes, now_ns: u64) -> SessionOutput {
        let Some(segment) = WireSegment::decode(bytes) else {
            self.rejected_segments += 1;
            return SessionOutput::default();
        };
        self.received_segments += 1;
        let mut out = SessionOutput::default();
        let seq = segment.seq;
        match segment.kind {
            SegmentKind::Ack => {
                if self.pending.remove(&seq) {
                    out.completions.push(seq);
                }
                if self.unacked.remove(&seq).is_some() {
                    out.cancels.push((TRANSPORT_LAYER, seq));
                }
                // The acknowledgement echoes the data segment's send time.
                let sent_at_ns = segment.sent_at_ns;
                let rtt_ns = if sent_at_ns > 0 {
                    now_ns.saturating_sub(sent_at_ns)
                } else {
                    0
                };
                self.congestion
                    .on_ack(rtt_ns as f64 / 1e9, now_ns as f64 / 1e9);
            }
            SegmentKind::Data => {
                // Acknowledged on the sender's request, duplicates included:
                // a duplicate means the first acknowledgement may be lost.
                if segment.ack_requested {
                    let ack = self.encode(SegmentKind::Ack, seq, false, segment.sent_at_ns, &[]);
                    out.wire.push(ack);
                }
                if !self.config.ordered {
                    self.next_expected = self.next_expected.max(seq.saturating_add(1));
                    out.delivered.push(segment.payload);
                } else if seq == self.next_expected {
                    out.delivered.push(segment.payload);
                    self.next_expected = seq.saturating_add(1);
                    while let Some(next) = self.held_back.remove(&self.next_expected) {
                        out.delivered.push(next);
                        self.next_expected = self.next_expected.saturating_add(1);
                    }
                } else if seq > self.next_expected {
                    // Ahead of sequence: held back (once) until the gap fills.
                    self.held_back.entry(seq).or_insert(segment.payload);
                }
            }
        }
        out
    }

    /// Fire a timer previously requested by the session: the retransmission
    /// timeout of segment `tag`, if it is still unacknowledged.
    pub fn on_timer(&mut self, layer: usize, tag: u64, now_ns: u64) -> SessionOutput {
        let mut out = SessionOutput::default();
        if layer != TRANSPORT_LAYER {
            return out;
        }
        let Some(entry) = self.unacked.get_mut(&tag) else {
            return out;
        };
        if entry.retries >= MAX_RETRANSMISSIONS {
            // Give up: the segment is considered lost for good.
            self.unacked.remove(&tag);
            return out;
        }
        entry.retries += 1;
        let backoff = RETRANSMIT_TIMEOUT_NS.saturating_mul(1 << entry.retries.min(10));
        let (sent_at_ns, payload) = (entry.sent_at_ns, entry.payload.clone());
        self.congestion.on_timeout(now_ns as f64 / 1e9);
        out.wire
            .push(self.encode(SegmentKind::Data, tag, true, sent_at_ns, &payload));
        out.timers.push(TimerRequest {
            layer: TRANSPORT_LAYER,
            delay_ns: backoff,
            tag,
        });
        out
    }

    /// Reconfigure the data channel in place (mode, reliability, ordering,
    /// congestion): the plan is the micro-protocol substitutions of
    /// [`plan_reconfiguration`], each applied to the state that
    /// micro-protocol stands for. State of removed micro-protocols is
    /// released, as required by the explicit-removal semantics; sequence
    /// numbers and the delivery position carry over. The physical network is
    /// an identity below the transport and touches none of this state.
    pub fn reconfigure(&mut self, target: ChannelConfig) {
        for action in plan_reconfiguration(self.config, target) {
            match action {
                // Sends of the old mode no longer complete through this one.
                ReconfigAction::SwitchMode(_) => self.pending = HashSet::new(),
                ReconfigAction::AddReliability => {}
                ReconfigAction::RemoveReliability => self.unacked = HashMap::new(),
                ReconfigAction::SwitchCongestion(algorithm) => {
                    self.congestion = make_congestion(algorithm)
                }
                // Switching on starts from `next_expected`, which the
                // unordered path kept current; switching off drops the gap.
                ReconfigAction::SetOrdering(true) => {}
                ReconfigAction::SetOrdering(false) => self.held_back = BTreeMap::new(),
            }
        }
        self.config = target;
    }

    /// Names of the micro-protocols composing the transport layer under the
    /// current configuration, in composition order (what
    /// [`crate::data::build_transport`] would build).
    pub fn transport_micros(&self) -> Vec<&'static str> {
        let mut names = vec![match self.config.mode {
            CommunicationMode::Synchronous => "mode-synchronous",
            CommunicationMode::Asynchronous => "mode-asynchronous",
        }];
        names.push("buffer-management");
        if self.config.reliability == Reliability::Reliable {
            names.push("reliability");
        }
        names.extend(["congestion-control", "ordering", "segment-tx"]);
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deliver all wire segments of `out` into `dst`, returning the merged
    /// output of the destination session.
    fn deliver(out: &SessionOutput, dst: &mut Session, now: u64) -> SessionOutput {
        let mut merged = SessionOutput::default();
        for seg in &out.wire {
            merged.merge(dst.on_wire(seg.clone(), now));
        }
        merged
    }

    #[test]
    fn async_session_round_trip() {
        let cfg = ChannelConfig::asynchronous_unreliable();
        let mut a = Session::new(cfg);
        let mut b = Session::new(cfg);

        let (seq, out_a) = a.send(Bytes::from_static(b"boundary values"), 1_000);
        assert_eq!(seq, 0);
        assert_eq!(out_a.wire.len(), 1);
        // Asynchronous send completes immediately.
        assert_eq!(out_a.completions, vec![0]);

        let out_b = deliver(&out_a, &mut b, 2_000);
        assert_eq!(out_b.delivered.len(), 1);
        assert_eq!(out_b.delivered[0].as_ref(), b"boundary values");
        // Unreliable + async: no ack flows back.
        assert!(out_b.wire.is_empty());
    }

    #[test]
    fn sync_session_completes_only_after_ack() {
        let cfg = ChannelConfig::synchronous_reliable();
        let mut a = Session::new(cfg);
        let mut b = Session::new(cfg);

        let (seq, out_a) = a.send(Bytes::from_static(b"update"), 10_000);
        assert!(out_a.completions.is_empty(), "no completion before the ack");
        assert!(!out_a.timers.is_empty(), "reliability must arm a timer");

        // Deliver the data to B: B delivers to its user and produces an ack.
        let out_b = deliver(&out_a, &mut b, 20_000);
        assert_eq!(out_b.delivered.len(), 1);
        assert!(!out_b.wire.is_empty(), "synchronous receiver must ack");

        // Deliver the ack back to A: completion + timer cancellation.
        let out_a2 = deliver(&out_b, &mut a, 30_000);
        assert_eq!(out_a2.completions, vec![seq]);
        assert!(!out_a2.cancels.is_empty());
    }

    #[test]
    fn reliable_async_session_retransmits_after_timer() {
        let cfg = ChannelConfig::asynchronous_reliable();
        let mut a = Session::new(cfg);
        let (_, out) = a.send(Bytes::from_static(b"x"), 0);
        assert_eq!(out.timers.len(), 1);
        let timer = out.timers[0];
        // Simulate the loss of the original segment; the timer fires.
        let retrans = a.on_timer(timer.layer, timer.tag, timer.delay_ns);
        assert_eq!(retrans.wire.len(), 1, "one retransmission expected");
        assert_eq!(retrans.timers.len(), 1, "back-off timer re-armed");
        assert!(retrans.timers[0].delay_ns > timer.delay_ns);
    }

    #[test]
    fn ordered_delivery_across_sessions() {
        let cfg = ChannelConfig::synchronous_reliable();
        let mut a = Session::new(cfg);
        let mut b = Session::new(cfg);
        let (_, first) = a.send(Bytes::from_static(b"first"), 1);
        let (_, second) = a.send(Bytes::from_static(b"second"), 2);
        // Deliver out of order.
        let out1 = deliver(&second, &mut b, 10);
        assert!(
            out1.delivered.is_empty(),
            "segment 1 held back until 0 arrives"
        );
        let out2 = deliver(&first, &mut b, 11);
        assert_eq!(out2.delivered.len(), 2);
        assert_eq!(out2.delivered[0].as_ref(), b"first");
        assert_eq!(out2.delivered[1].as_ref(), b"second");
    }

    #[test]
    fn reconfiguration_switches_micros_and_behaviour() {
        let mut s = Session::new(ChannelConfig::synchronous_reliable());
        assert!(s.transport_micros().contains(&"mode-synchronous"));
        assert!(s.transport_micros().contains(&"reliability"));

        s.reconfigure(ChannelConfig::asynchronous_unreliable());
        assert_eq!(s.config().mode, CommunicationMode::Asynchronous);
        assert_eq!(s.config().reliability, Reliability::Unreliable);
        assert!(s.transport_micros().contains(&"mode-asynchronous"));
        assert!(!s.transport_micros().contains(&"reliability"));

        // Behaviour after reconfiguration: sends complete immediately, no timer.
        let (_, out) = s.send(Bytes::from_static(b"x"), 5);
        assert_eq!(out.completions.len(), 1);
        assert!(out.timers.is_empty());
    }

    #[test]
    fn corrupted_wire_segment_is_ignored() {
        let mut s = Session::new(ChannelConfig::asynchronous_unreliable());
        let out = s.on_wire(Bytes::from_static(b"garbage"), 1);
        assert!(out.delivered.is_empty());
        assert!(out.wire.is_empty());
        // A frame with one flipped payload bit is well-formed but for its
        // checksum.
        let mut flipped = WireSegment::data(0, false, 1, Bytes::from_static(b"ghost"))
            .encode()
            .to_vec();
        flipped[crate::data::SEGMENT_HEADER_BYTES] ^= 1;
        let out = s.on_wire(Bytes::from(flipped), 2);
        assert!(out.delivered.is_empty());
        assert_eq!(s.rejected_segments(), 2);
        assert_eq!(s.received_segments(), 0);
        let clean = WireSegment::data(0, false, 1, Bytes::from_static(b"ghost")).encode();
        assert_eq!(s.on_wire(clean, 3).delivered.len(), 1);
        assert_eq!(s.rejected_segments(), 2);
        assert_eq!(s.received_segments(), 1);
    }

    /// The hybrid scheme's inter → intra adaptation: ordering switched on
    /// mid-session starts from the next undelivered sequence, not from 0.
    #[test]
    fn switching_to_an_ordered_configuration_keeps_delivering() {
        let mut a = Session::new(ChannelConfig::asynchronous_unreliable());
        let mut b = Session::new(ChannelConfig::asynchronous_unreliable());
        for i in 0..3 {
            let (_, out) = a.send(Bytes::from_static(b"free-running"), i);
            assert_eq!(deliver(&out, &mut b, 10 + i).delivered.len(), 1);
        }
        a.reconfigure(ChannelConfig::synchronous_reliable());
        b.reconfigure(ChannelConfig::synchronous_reliable());

        let (seq, out_a) = a.send(Bytes::from_static(b"lockstep"), 100);
        assert_eq!(seq, 3);
        let out_b = deliver(&out_a, &mut b, 110);
        assert_eq!(out_b.delivered.len(), 1, "sequence 3 is the next one");
        assert_eq!(out_b.delivered[0].as_ref(), b"lockstep");
        let out_a2 = deliver(&out_b, &mut a, 120);
        assert_eq!(out_a2.completions, vec![seq]);
        assert_eq!(out_a2.cancels, vec![(TRANSPORT_LAYER, seq)]);

        // Ordering is in force from there: 5 waits for 4, a late 2 is stale.
        let (_, four) = a.send(Bytes::from_static(b"four"), 130);
        let (_, five) = a.send(Bytes::from_static(b"five"), 131);
        assert!(deliver(&five, &mut b, 140).delivered.is_empty());
        let stale = WireSegment::data(2, false, 1, Bytes::from_static(b"stale")).encode();
        assert!(b.on_wire(stale, 141).delivered.is_empty());
        assert_eq!(deliver(&four, &mut b, 142).delivered.len(), 2);
    }

    /// An unreliable channel keeps nothing of what it sends: the caller gets
    /// its payload buffer back, and the session does not grow with the number
    /// of sends.
    #[test]
    fn unreliable_send_retains_nothing() {
        let mut s = Session::new(ChannelConfig::asynchronous_unreliable());
        let payload = Bytes::from(vec![7u8; 52]);
        let (_, out) = s.send(payload.clone(), 1);
        drop(out);
        let mut buf = payload.try_reclaim().expect("the session holds no clone");
        for now in 2..10_002 {
            let payload = Bytes::from(buf);
            let (_, out) = s.send(payload.clone(), now);
            drop(out);
            buf = payload.try_reclaim().expect("the session holds no clone");
        }
        assert!(s.unacked.is_empty() && s.pending.is_empty() && s.held_back.is_empty());
        assert_eq!(s.unacked.capacity() + s.pending.capacity(), 0);
    }

    /// A reliable channel holds the payload exactly until the acknowledgement.
    #[test]
    fn reliable_send_releases_its_copy_on_ack() {
        let mut a = Session::new(ChannelConfig::synchronous_reliable());
        let mut b = Session::new(ChannelConfig::synchronous_reliable());
        let payload = Bytes::from(vec![7u8; 64]);
        let (_, out_a) = a.send(payload.clone(), 1);
        let out_b = deliver(&out_a, &mut b, 2);
        drop(out_a);
        drop(b);
        let payload = payload.try_reclaim().expect_err("held for retransmission");
        deliver(&out_b, &mut a, 3);
        assert!(a.unacked.is_empty() && a.pending.is_empty());
        // `out_b.delivered` still shares the wire segment, not the payload.
        payload.try_reclaim().expect("released by the ack");
    }

    #[test]
    fn retransmission_schedule_is_pinned() {
        let mut a = Session::new(ChannelConfig::asynchronous_reliable());
        let (seq, first) = a.send(Bytes::from_static(b"x"), 7);
        let mut delays = vec![first.timers[0].delay_ns];
        loop {
            let out = a.on_timer(TRANSPORT_LAYER, seq, 1_000);
            let Some(timer) = out.timers.first() else {
                assert!(out.wire.is_empty(), "given up: nothing is sent");
                break;
            };
            assert_eq!((timer.layer, timer.tag), (TRANSPORT_LAYER, seq));
            assert_eq!(out.wire, first.wire, "the copy is the original segment");
            delays.push(timer.delay_ns);
        }
        let expected: Vec<u64> = (0..=5).map(|k| 600_000_000u64 << k).collect();
        assert_eq!(delays, expected);
        assert!(a.unacked.is_empty());
        // Timers of other layers, or of segments no longer held, do nothing.
        let (seq, _) = a.send(Bytes::from_static(b"y"), 8);
        assert!(a.on_timer(PHYSICAL_LAYER, seq, 9).wire.is_empty());
        assert!(a.on_timer(TRANSPORT_LAYER, seq + 1, 9).wire.is_empty());
    }

    #[test]
    fn congestion_control_sees_acks_and_timeouts() {
        let cfg = ChannelConfig::synchronous_reliable();
        let mut a = Session::new(cfg);
        let mut b = Session::new(cfg);
        let initial = a.congestion.cwnd();
        let (seq, out_a) = a.send(Bytes::from_static(b"x"), 1_000_000);
        let out_b = deliver(&out_a, &mut b, 2_000_000);
        deliver(&out_b, &mut a, 3_000_000);
        let grown = a.congestion.cwnd();
        assert!(grown > initial, "an ack grows the window");
        a.send(Bytes::from_static(b"y"), 4_000_000);
        a.on_timer(TRANSPORT_LAYER, seq + 1, 700_000_000);
        assert!(a.congestion.cwnd() < grown, "a timeout shrinks it");
        a.reconfigure(cfg.with_congestion(crate::config::CongestionAlgorithm::Tahoe));
        assert_eq!(a.congestion.name(), "tcp-tahoe");
    }
}
