//! The transport-layer micro-protocols of the P2PSAP data channel — the
//! reference implementation, not the data path. [`crate::Session`] runs the
//! composition its configuration names as straight-line code; these
//! micro-protocols, composed by [`crate::data::build_transport`], define what
//! that code must do and `tests/properties.rs` checks it against them step by
//! step. `repro table1`, `repro ablation` and the `protocol_adaptation` bench
//! exercise them directly.
//!
//! Each micro-protocol implements exactly one protocol function, as in the
//! Cactus methodology:
//!
//! * [`SynchronousMode`] / [`AsynchronousMode`] — the two communication modes
//!   the paper added to CTP, introducing the `UserSend`/`UserReceive` events;
//!   both turn the acknowledgements a segment carries into `SegmentAcked`
//!   and make a data segment that asks for one owe an acknowledgement
//!   ([`ACK_OWED`]).
//! * [`BufferManagement`] — hand-over to the application's receive queue and
//!   the send / acknowledged / delivered accounting.
//! * [`ReliabilityMicro`] — acknowledgement-and-retransmission reliability.
//! * [`OrderingMicro`] — in-sequence delivery (or passthrough when disabled),
//!   switched in place by [`SET_ORDERING`].
//! * [`CongestionMicro`] — glue binding a [`CongestionControl`] algorithm to
//!   the event stream.
//! * [`SegmentTx`] — the final hop that hands annotated segments to the layer
//!   below (lowest priority, so every other micro-protocol has run first),
//!   with the owed acknowledgements riding on them; what no data segment
//!   carries in time leaves in a bare ack.
//!
//! Handlers receive the current virtual/wall time through the message
//! attribute [`ATTR_NOW`], set by the session on every injection.

use crate::data::congestion::CongestionControl;
use crate::data::wire::{
    acks_of, acks_to_bytes, Ack, AckBlock, ATTR_ACKS, ATTR_ACK_REQUESTED, ATTR_KIND, ATTR_SENT_AT,
    ATTR_SEQ, ATTR_TIMER_TAG,
};
use crate::session::{ACK_DELAY_NS, ACK_TIMER_TAG, MAX_RETRANSMISSIONS, RETRANSMIT_TIMEOUT_NS};
use cactus::{events, AttrValue, EventName, Message, MicroProtocol, Operations};
use std::collections::{BTreeMap, HashMap};

/// Attribute: current time in nanoseconds, set by the session on every event
/// injected into the stack.
pub const ATTR_NOW: &str = "now_ns";

/// Internal event: a data segment passed the mode micro-protocol and is ready
/// for (ordered) delivery.
pub const DATA_IN: EventName = EventName("DataIn");

/// Internal event: a received data segment asked for an acknowledgement
/// (its [`ATTR_SEQ`] and [`ATTR_SENT_AT`]), which [`SegmentTx`] now owes.
pub const ACK_OWED: EventName = EventName("AckOwed");

/// Internal event: switch ordered delivery on or off in place, to the value
/// of the flag [`ATTR_ENFORCE`]. Substituting a fresh [`OrderingMicro`] would
/// forget how far delivery has got.
pub const SET_ORDERING: EventName = EventName("SetOrdering");
/// Attribute of [`SET_ORDERING`]: whether ordering is enforced from now on.
pub const ATTR_ENFORCE: &str = "enforce";

/// Kind value for data segments in [`ATTR_KIND`].
pub const KIND_DATA: u64 = 0;
/// Kind value for acknowledgement segments in [`ATTR_KIND`].
pub const KIND_ACK: u64 = 1;

fn now_ns(msg: &Message) -> u64 {
    msg.u64(ATTR_NOW).unwrap_or(0)
}

/// What both modes do with a segment from the network: each acknowledgement
/// it carries is raised as `SegmentAcked`, in order; then a data segment
/// that asks for an acknowledgement raises [`ACK_OWED`] and goes on to
/// [`DATA_IN`].
fn segment_from_net(msg: &Message, ops: &mut Operations) {
    for ack in acks_of(msg) {
        let mut acked = Message::default();
        acked.set_u64(ATTR_SEQ, ack.seq);
        acked.set_u64(ATTR_SENT_AT, ack.sent_at_ns);
        acked.set_u64(ATTR_NOW, now_ns(msg));
        ops.raise(events::SEGMENT_ACKED, acked);
    }
    if msg.u64(ATTR_KIND) == Some(KIND_ACK) {
        return;
    }
    if msg.flag(ATTR_ACK_REQUESTED) {
        let mut owed = Message::default();
        owed.set_u64(ATTR_SEQ, msg.u64(ATTR_SEQ).unwrap_or(0));
        // Echo the original send timestamp so the sender can measure the RTT.
        owed.set_u64(ATTR_SENT_AT, msg.u64(ATTR_SENT_AT).unwrap_or(0));
        ops.raise(ACK_OWED, owed);
    }
    ops.raise(DATA_IN, msg.clone());
}

// ---------------------------------------------------------------------------
// Communication modes
// ---------------------------------------------------------------------------

/// Synchronous communication mode: a send completes only when the receiver's
/// acknowledgement arrives; received data segments are acknowledged (the
/// acknowledgement is owed, see [`SegmentTx`]).
#[derive(Debug, Default)]
pub struct SynchronousMode {
    /// Sequence numbers of sends waiting for their acknowledgement.
    pending: std::collections::HashSet<u64>,
}

impl SynchronousMode {
    /// Create the micro-protocol.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MicroProtocol for SynchronousMode {
    fn name(&self) -> &'static str {
        "mode-synchronous"
    }
    fn subscriptions(&self) -> Vec<EventName> {
        vec![
            events::USER_SEND,
            events::MSG_FROM_NET,
            events::SEGMENT_ACKED,
        ]
    }
    fn handle(&mut self, event: EventName, msg: &mut Message, ops: &mut Operations) {
        if event == events::USER_SEND {
            let seq = msg.u64(ATTR_SEQ).unwrap_or(0);
            msg.set_u64(ATTR_KIND, KIND_DATA);
            msg.set_flag(ATTR_ACK_REQUESTED, true);
            self.pending.insert(seq);
            ops.raise(events::MSG_TO_NET, msg.clone());
        } else if event == events::MSG_FROM_NET {
            segment_from_net(msg, ops);
        } else if event == events::SEGMENT_ACKED {
            let seq = msg.u64(ATTR_SEQ).unwrap_or(0);
            if self.pending.remove(&seq) {
                ops.notify_send_complete(seq);
            }
        }
    }
    fn on_remove(&mut self) {
        self.pending.clear();
    }
}

/// Asynchronous communication mode: a send completes immediately; received
/// data segments are delivered without waiting and acknowledged only when the
/// sender requested it (i.e. when a reliability micro-protocol is configured
/// on the sending side).
#[derive(Debug, Default)]
pub struct AsynchronousMode;

impl AsynchronousMode {
    /// Create the micro-protocol.
    pub fn new() -> Self {
        Self
    }
}

impl MicroProtocol for AsynchronousMode {
    fn name(&self) -> &'static str {
        "mode-asynchronous"
    }
    fn subscriptions(&self) -> Vec<EventName> {
        vec![events::USER_SEND, events::MSG_FROM_NET]
    }
    fn handle(&mut self, event: EventName, msg: &mut Message, ops: &mut Operations) {
        if event == events::USER_SEND {
            let seq = msg.u64(ATTR_SEQ).unwrap_or(0);
            msg.set_u64(ATTR_KIND, KIND_DATA);
            ops.raise(events::MSG_TO_NET, msg.clone());
            // Asynchronous send: control returns to the application at once.
            ops.notify_send_complete(seq);
        } else if event == events::MSG_FROM_NET {
            segment_from_net(msg, ops);
        }
    }
}

// ---------------------------------------------------------------------------
// Buffer management
// ---------------------------------------------------------------------------

/// Buffer management: queues incoming messages for delivery to the
/// application and counts what was sent, acknowledged and delivered. It keeps
/// no copy of outgoing messages — the retransmission copy belongs to
/// [`ReliabilityMicro`], and an unreliable channel never sees the
/// acknowledgement that would release one.
#[derive(Debug, Default)]
pub struct BufferManagement {
    sent_total: u64,
    acked_total: u64,
    delivered_total: u64,
}

impl BufferManagement {
    /// Create the micro-protocol.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MicroProtocol for BufferManagement {
    fn name(&self) -> &'static str {
        "buffer-management"
    }
    fn subscriptions(&self) -> Vec<EventName> {
        vec![
            events::USER_SEND,
            events::SEGMENT_ACKED,
            events::MSG_TO_USER,
        ]
    }
    fn handle(&mut self, event: EventName, msg: &mut Message, ops: &mut Operations) {
        if event == events::USER_SEND {
            self.sent_total += 1;
        } else if event == events::SEGMENT_ACKED {
            self.acked_total += 1;
        } else if event == events::MSG_TO_USER {
            self.delivered_total += 1;
            ops.deliver_to_user(msg.clone());
        }
    }
}

// ---------------------------------------------------------------------------
// Reliability
// ---------------------------------------------------------------------------

/// Acknowledgement/retransmission reliability with exponential back-off.
#[derive(Debug)]
pub struct ReliabilityMicro {
    /// Copies of unacknowledged data segments, keyed by sequence number.
    unacked: HashMap<u64, (Message, u32)>,
    /// Initial retransmission timeout in nanoseconds.
    rto_ns: u64,
    /// Maximum number of retransmissions before giving up on a segment.
    max_retries: u32,
}

impl ReliabilityMicro {
    /// Create a reliability micro-protocol with the given initial RTO.
    pub fn new(rto_ns: u64, max_retries: u32) -> Self {
        Self {
            unacked: HashMap::new(),
            rto_ns,
            max_retries,
        }
    }

    /// Default configuration: the session's [`RETRANSMIT_TIMEOUT_NS`] and
    /// [`MAX_RETRANSMISSIONS`].
    pub fn with_defaults() -> Self {
        Self::new(RETRANSMIT_TIMEOUT_NS, MAX_RETRANSMISSIONS)
    }
}

impl MicroProtocol for ReliabilityMicro {
    fn name(&self) -> &'static str {
        "reliability"
    }
    fn subscriptions(&self) -> Vec<EventName> {
        vec![events::MSG_TO_NET, events::SEGMENT_ACKED, events::TIMEOUT]
    }
    fn handle(&mut self, event: EventName, msg: &mut Message, ops: &mut Operations) {
        if event == events::MSG_TO_NET {
            let seq = msg.u64(ATTR_SEQ).unwrap_or(0);
            msg.set_flag(ATTR_ACK_REQUESTED, true);
            self.unacked.insert(seq, (msg.clone(), 0));
            ops.set_timer(self.rto_ns, seq);
        } else if event == events::SEGMENT_ACKED {
            let seq = msg.u64(ATTR_SEQ).unwrap_or(0);
            if self.unacked.remove(&seq).is_some() {
                ops.cancel_timer(seq);
            }
        } else if event == events::TIMEOUT {
            let seq = msg.u64(ATTR_TIMER_TAG).unwrap_or(0);
            if let Some((copy, retries)) = self.unacked.get_mut(&seq) {
                if *retries >= self.max_retries {
                    // Give up: the segment is considered lost for good.
                    self.unacked.remove(&seq);
                    return;
                }
                *retries += 1;
                let retries_so_far = *retries;
                let retransmit = copy.clone();
                ops.raise(events::LOSS_DETECTED, msg.clone());
                ops.send_down(retransmit);
                // Exponential back-off.
                let backoff = self.rto_ns.saturating_mul(1 << retries_so_far.min(10));
                ops.set_timer(backoff, seq);
            }
        }
    }
    fn on_remove(&mut self) {
        self.unacked.clear();
    }
}

// ---------------------------------------------------------------------------
// Ordering
// ---------------------------------------------------------------------------

/// In-sequence delivery. When `enforce` is false the micro-protocol is a pure
/// passthrough (asynchronous channels deliver whatever arrives, freshest
/// first); when true, segments are delivered in sequence order and duplicates
/// are suppressed. Either way it knows the next sequence number not yet
/// delivered, so ordering switched on mid-session ([`SET_ORDERING`]) starts
/// where delivery stands instead of waiting for sequence 0. Switched off, it
/// delivers what it held back for a gap, in order.
#[derive(Debug)]
pub struct OrderingMicro {
    enforce: bool,
    next_expected: u64,
    held_back: BTreeMap<u64, Message>,
}

impl OrderingMicro {
    /// Create an ordering micro-protocol.
    pub fn new(enforce: bool) -> Self {
        Self {
            enforce,
            next_expected: 0,
            held_back: BTreeMap::new(),
        }
    }

    /// Whether ordering is enforced.
    pub fn enforced(&self) -> bool {
        self.enforce
    }
}

impl MicroProtocol for OrderingMicro {
    fn name(&self) -> &'static str {
        "ordering"
    }
    fn subscriptions(&self) -> Vec<EventName> {
        vec![DATA_IN, SET_ORDERING]
    }
    fn handle(&mut self, event: EventName, msg: &mut Message, ops: &mut Operations) {
        if event == SET_ORDERING {
            self.enforce = msg.flag(ATTR_ENFORCE);
            if !self.enforce {
                for (seq, held) in std::mem::take(&mut self.held_back) {
                    ops.raise(events::MSG_TO_USER, held);
                    self.next_expected = seq.saturating_add(1);
                }
            }
            return;
        }
        let seq = msg.u64(ATTR_SEQ).unwrap_or(0);
        if !self.enforce {
            self.next_expected = self.next_expected.max(seq.saturating_add(1));
            ops.raise(events::MSG_TO_USER, msg.clone());
            return;
        }
        if seq < self.next_expected || self.held_back.contains_key(&seq) {
            // Duplicate: drop.
            return;
        }
        self.held_back.insert(seq, msg.clone());
        while let Some(entry) = self.held_back.remove(&self.next_expected) {
            ops.raise(events::MSG_TO_USER, entry);
            self.next_expected = self.next_expected.saturating_add(1);
        }
    }
    fn on_remove(&mut self) {
        self.held_back.clear();
    }
}

// ---------------------------------------------------------------------------
// Congestion glue
// ---------------------------------------------------------------------------

/// Binds a [`CongestionControl`] algorithm to the transport event stream:
/// acknowledgements grow the window, loss events shrink it.
pub struct CongestionMicro {
    algorithm: Box<dyn CongestionControl>,
    in_flight: u64,
}

impl CongestionMicro {
    /// Wrap a congestion-control algorithm.
    pub fn new(algorithm: Box<dyn CongestionControl>) -> Self {
        Self {
            algorithm,
            in_flight: 0,
        }
    }

    /// Current congestion window (segments).
    pub fn cwnd(&self) -> f64 {
        self.algorithm.cwnd()
    }
}

impl MicroProtocol for CongestionMicro {
    fn name(&self) -> &'static str {
        "congestion-control"
    }
    fn subscriptions(&self) -> Vec<EventName> {
        vec![
            events::MSG_TO_NET,
            events::SEGMENT_ACKED,
            events::LOSS_DETECTED,
        ]
    }
    fn handle(&mut self, event: EventName, msg: &mut Message, _ops: &mut Operations) {
        let now = now_ns(msg) as f64 / 1e9;
        if event == events::MSG_TO_NET {
            self.in_flight += 1;
        } else if event == events::SEGMENT_ACKED {
            self.in_flight = self.in_flight.saturating_sub(1);
            let sent_at = msg.u64(ATTR_SENT_AT).unwrap_or(0);
            let now_ns_val = msg.u64(ATTR_NOW).unwrap_or(0);
            let rtt = if sent_at > 0 && now_ns_val > sent_at {
                (now_ns_val - sent_at) as f64 / 1e9
            } else {
                0.0
            };
            self.algorithm.on_ack(rtt, now);
        } else if event == events::LOSS_DETECTED {
            // Losses in this stack are detected by retransmission timeout.
            self.algorithm.on_timeout(now);
        }
    }
}

// ---------------------------------------------------------------------------
// Segment transmission
// ---------------------------------------------------------------------------

/// The last micro-protocol on the send path: hands the fully annotated data
/// segment to the layer below. Registered with the numerically largest
/// priority so every other micro-protocol has already seen (and possibly
/// annotated) the segment — the reliability copy included, so a
/// retransmission carries no acknowledgements.
///
/// It also holds the acknowledgements owed to the remote ([`ACK_OWED`]):
/// every one rides on the next data segment, which cancels the delayed-ack
/// timer the first of them armed ([`ACK_TIMER_TAG`], [`ACK_DELAY_NS`]). When
/// the block is full
/// ([`MAX_ACKS_PER_SEGMENT`](crate::data::wire::MAX_ACKS_PER_SEGMENT)), or
/// the timer fires first, they leave in one bare ack.
#[derive(Debug, Default)]
pub struct SegmentTx {
    owed: AckBlock,
}

impl SegmentTx {
    /// Create the micro-protocol.
    pub fn new() -> Self {
        Self::default()
    }
    /// Priority at which this micro-protocol must be registered.
    pub const PRIORITY: i32 = 1_000;

    /// The owed acknowledgements, taken, as an [`ATTR_ACKS`] value.
    fn take_owed(&mut self) -> AttrValue {
        AttrValue::Bytes(acks_to_bytes(std::mem::take(&mut self.owed).as_slice()))
    }

    /// A bare ack carrying every owed acknowledgement.
    fn bare_ack(&mut self) -> Message {
        let mut ack = Message::default();
        ack.set_u64(ATTR_KIND, KIND_ACK);
        ack.set_attr(ATTR_ACKS, self.take_owed());
        ack
    }
}

impl MicroProtocol for SegmentTx {
    fn name(&self) -> &'static str {
        "segment-tx"
    }
    fn subscriptions(&self) -> Vec<EventName> {
        vec![events::MSG_TO_NET, ACK_OWED, events::TIMEOUT]
    }
    fn handle(&mut self, event: EventName, msg: &mut Message, ops: &mut Operations) {
        if event == events::MSG_TO_NET {
            let mut segment = msg.clone();
            let carries_acks = !self.owed.is_empty();
            if carries_acks {
                segment.set_attr(ATTR_ACKS, self.take_owed());
            }
            ops.send_down(segment);
            if carries_acks {
                ops.cancel_timer(ACK_TIMER_TAG);
            }
        } else if event == ACK_OWED {
            if self.owed.is_empty() {
                ops.set_timer(ACK_DELAY_NS, ACK_TIMER_TAG);
            }
            // Never full here: a full block left at the previous push.
            self.owed.push(Ack {
                seq: msg.u64(ATTR_SEQ).unwrap_or(0),
                sent_at_ns: msg.u64(ATTR_SENT_AT).unwrap_or(0),
            });
            if self.owed.is_full() {
                let ack = self.bare_ack();
                ops.send_down(ack);
                ops.cancel_timer(ACK_TIMER_TAG);
            }
        } else if msg.u64(ATTR_TIMER_TAG) == Some(ACK_TIMER_TAG) && !self.owed.is_empty() {
            let ack = self.bare_ack();
            ops.send_down(ack);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use cactus::CompositeProtocol;

    /// A bare ack of `seq` as it enters the stack from the network at `now`.
    fn bare_ack(seq: u64, sent_at_ns: u64, now: u64) -> Message {
        let acks = [Ack { seq, sent_at_ns }].into_iter().collect();
        let mut msg = crate::data::WireSegment::bare_ack(acks).into_message();
        msg.set_u64(ATTR_NOW, now);
        msg
    }

    fn user_send_msg(seq: u64, payload: &'static [u8]) -> Message {
        let mut m = Message::new(Bytes::from_static(payload));
        m.set_u64(ATTR_SEQ, seq);
        m.set_u64(ATTR_NOW, 1_000);
        m.set_u64(ATTR_SENT_AT, 1_000);
        m
    }

    #[test]
    fn async_mode_completes_immediately() {
        let mut c = CompositeProtocol::new("t");
        c.add_micro(Box::new(AsynchronousMode::new()));
        c.add_micro_with_priority(Box::new(SegmentTx::new()), SegmentTx::PRIORITY);
        let effects = c.raise(events::USER_SEND, user_send_msg(3, b"x"));
        let mut saw_send = false;
        let mut saw_completion = false;
        for e in effects {
            match e {
                cactus::Effect::SendDown(m) => {
                    saw_send = true;
                    assert_eq!(m.u64(ATTR_SEQ), Some(3));
                    assert!(!m.flag(ATTR_ACK_REQUESTED));
                }
                cactus::Effect::NotifySendComplete { seq } => {
                    saw_completion = true;
                    assert_eq!(seq, 3);
                }
                _ => {}
            }
        }
        assert!(saw_send && saw_completion);
    }

    #[test]
    fn sync_mode_waits_for_ack() {
        let mut c = CompositeProtocol::new("t");
        c.add_micro(Box::new(SynchronousMode::new()));
        c.add_micro_with_priority(Box::new(SegmentTx::new()), SegmentTx::PRIORITY);
        let effects = c.raise(events::USER_SEND, user_send_msg(1, b"x"));
        assert!(
            !effects
                .iter()
                .any(|e| matches!(e, cactus::Effect::NotifySendComplete { .. })),
            "sync send must not complete before the ack"
        );
        // Ack arrives from the network.
        let effects = c.raise(events::MSG_FROM_NET, bare_ack(1, 0, 2_000));
        assert!(effects
            .iter()
            .any(|e| matches!(e, cactus::Effect::NotifySendComplete { seq: 1 })));
    }

    /// A received data segment is delivered and its acknowledgement owed:
    /// the delayed-ack timer is armed, and the next send carries the
    /// acknowledgement and cancels the timer.
    #[test]
    fn sync_mode_acknowledges_received_data() {
        let mut c = CompositeProtocol::new("t");
        c.add_micro(Box::new(SynchronousMode::new()));
        c.add_micro(Box::new(OrderingMicro::new(true)));
        c.add_micro(Box::new(BufferManagement::new()));
        c.add_micro_with_priority(Box::new(SegmentTx::new()), SegmentTx::PRIORITY);
        let mut data = Message::new(Bytes::from_static(b"payload"));
        data.set_u64(ATTR_SEQ, 0);
        data.set_u64(ATTR_KIND, KIND_DATA);
        data.set_u64(ATTR_SENT_AT, 4_000);
        data.set_flag(ATTR_ACK_REQUESTED, true);
        data.set_u64(ATTR_NOW, 5_000);
        let effects = c.raise(events::MSG_FROM_NET, data);
        assert!(!effects
            .iter()
            .any(|e| matches!(e, cactus::Effect::SendDown(_))));
        assert!(effects.iter().any(|e| matches!(
            e,
            cactus::Effect::SetTimer {
                delay_ns: ACK_DELAY_NS,
                tag: ACK_TIMER_TAG
            }
        )));
        let delivered = effects
            .iter()
            .filter(|e| matches!(e, cactus::Effect::DeliverToUser(_)))
            .count();
        assert_eq!(delivered, 1);

        let effects = c.raise(events::USER_SEND, user_send_msg(0, b"reply"));
        let carried: Vec<Ack> = effects
            .iter()
            .filter_map(|e| match e {
                cactus::Effect::SendDown(m) => Some(acks_of(m).collect::<Vec<_>>()),
                _ => None,
            })
            .flatten()
            .collect();
        assert_eq!(
            carried,
            [Ack {
                seq: 0,
                sent_at_ns: 4_000
            }]
        );
        assert!(effects
            .iter()
            .any(|e| matches!(e, cactus::Effect::CancelTimer { tag: ACK_TIMER_TAG })));
    }

    #[test]
    fn reliability_retransmits_until_acked() {
        let mut c = CompositeProtocol::new("t");
        c.add_micro(Box::new(AsynchronousMode::new()));
        c.add_micro_with_priority(Box::new(ReliabilityMicro::new(1_000_000, 3)), 10);
        c.add_micro_with_priority(Box::new(SegmentTx::new()), SegmentTx::PRIORITY);

        let effects = c.raise(events::USER_SEND, user_send_msg(7, b"d"));
        let timers: Vec<_> = effects
            .iter()
            .filter_map(|e| match e {
                cactus::Effect::SetTimer { tag, .. } => Some(*tag),
                _ => None,
            })
            .collect();
        assert_eq!(timers, vec![7]);
        // The outgoing segment must now request an ack (reliability added it).
        assert!(effects
            .iter()
            .any(|e| matches!(e, cactus::Effect::SendDown(m) if m.flag(ATTR_ACK_REQUESTED))));

        // Timer fires: a retransmission and a new timer with back-off.
        let mut timeout = Message::default();
        timeout.set_u64(ATTR_TIMER_TAG, 7);
        timeout.set_u64(ATTR_NOW, 10_000_000);
        let effects = c.raise(events::TIMEOUT, timeout.clone());
        assert!(effects
            .iter()
            .any(|e| matches!(e, cactus::Effect::SendDown(_))));
        let backoff: Vec<_> = effects
            .iter()
            .filter_map(|e| match e {
                cactus::Effect::SetTimer { delay_ns, tag } => Some((*delay_ns, *tag)),
                _ => None,
            })
            .collect();
        assert_eq!(backoff.len(), 1);
        assert_eq!(backoff[0].1, 7);
        assert!(
            backoff[0].0 > 1_000_000,
            "back-off must exceed the base RTO"
        );

        // Ack arrives: timer cancelled; later timeouts retransmit nothing.
        let effects = c.raise(events::MSG_FROM_NET, bare_ack(7, 0, 20_000_000));
        assert!(effects
            .iter()
            .any(|e| matches!(e, cactus::Effect::CancelTimer { tag: 7 })));
        let effects = c.raise(events::TIMEOUT, timeout);
        assert!(!effects
            .iter()
            .any(|e| matches!(e, cactus::Effect::SendDown(_))));
    }

    #[test]
    fn reliability_gives_up_after_max_retries() {
        let mut c = CompositeProtocol::new("t");
        c.add_micro(Box::new(AsynchronousMode::new()));
        c.add_micro_with_priority(Box::new(ReliabilityMicro::new(1_000, 2)), 10);
        c.add_micro_with_priority(Box::new(SegmentTx::new()), SegmentTx::PRIORITY);
        let _ = c.raise(events::USER_SEND, user_send_msg(1, b"d"));
        let mut timeout = Message::default();
        timeout.set_u64(ATTR_TIMER_TAG, 1);
        timeout.set_u64(ATTR_NOW, 1);
        // 2 allowed retries, the 3rd timeout abandons the segment.
        for round in 0..4 {
            let effects = c.raise(events::TIMEOUT, timeout.clone());
            let retransmitted = effects
                .iter()
                .any(|e| matches!(e, cactus::Effect::SendDown(_)));
            if round < 2 {
                assert!(retransmitted, "round {round} should retransmit");
            } else {
                assert!(!retransmitted, "round {round} should have given up");
            }
        }
    }

    #[test]
    fn ordering_enforced_delivers_in_sequence_and_drops_duplicates() {
        let mut c = CompositeProtocol::new("t");
        c.add_micro(Box::new(AsynchronousMode::new()));
        c.add_micro(Box::new(OrderingMicro::new(true)));
        c.add_micro(Box::new(BufferManagement::new()));

        let mk = |seq: u64| {
            let mut m = Message::new(Bytes::from_static(b"p"));
            m.set_u64(ATTR_SEQ, seq);
            m.set_u64(ATTR_KIND, KIND_DATA);
            m.set_u64(ATTR_NOW, 1);
            m
        };
        let delivered_seqs = |effects: &[cactus::Effect]| -> Vec<u64> {
            effects
                .iter()
                .filter_map(|e| match e {
                    cactus::Effect::DeliverToUser(m) => Some(m.u64(ATTR_SEQ).unwrap()),
                    _ => None,
                })
                .collect()
        };

        // Out of order: 1 first (held back), then 0 (releases 0 and 1).
        let e1 = c.raise(events::MSG_FROM_NET, mk(1));
        assert!(delivered_seqs(&e1).is_empty());
        let e0 = c.raise(events::MSG_FROM_NET, mk(0));
        assert_eq!(delivered_seqs(&e0), vec![0, 1]);
        // Duplicate of 1 is dropped.
        let dup = c.raise(events::MSG_FROM_NET, mk(1));
        assert!(delivered_seqs(&dup).is_empty());
        // Next in sequence flows through.
        let e2 = c.raise(events::MSG_FROM_NET, mk(2));
        assert_eq!(delivered_seqs(&e2), vec![2]);
    }

    #[test]
    fn ordering_passthrough_delivers_whatever_arrives() {
        let mut c = CompositeProtocol::new("t");
        c.add_micro(Box::new(AsynchronousMode::new()));
        c.add_micro(Box::new(OrderingMicro::new(false)));
        c.add_micro(Box::new(BufferManagement::new()));
        let mut m = Message::new(Bytes::from_static(b"p"));
        m.set_u64(ATTR_SEQ, 17);
        m.set_u64(ATTR_KIND, KIND_DATA);
        m.set_u64(ATTR_NOW, 1);
        let effects = c.raise(events::MSG_FROM_NET, m);
        assert!(effects
            .iter()
            .any(|e| matches!(e, cactus::Effect::DeliverToUser(m) if m.u64(ATTR_SEQ) == Some(17))));
    }

    #[test]
    fn congestion_micro_reacts_to_acks_and_losses() {
        use crate::data::congestion::{NewReno, INITIAL_CWND};
        let mut c = CompositeProtocol::new("t");
        c.add_micro(Box::new(AsynchronousMode::new()));
        c.add_micro_with_priority(Box::new(CongestionMicro::new(Box::new(NewReno::new()))), 20);
        c.add_micro_with_priority(Box::new(SegmentTx::new()), SegmentTx::PRIORITY);
        // One send, one ack: the window grows.
        let _ = c.raise(events::USER_SEND, user_send_msg(0, b"x"));
        let _ = c.raise(events::MSG_FROM_NET, bare_ack(0, 1_000_000, 2_000_000));
        // The micro-protocol is inside the composite; its state is not
        // directly observable, so this test only checks that the event flow
        // does not break. Window dynamics are covered by the congestion module
        // unit tests.
        let _ = INITIAL_CWND;
    }
}
