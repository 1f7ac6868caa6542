//! A P2PSAP data-channel session between two peers.
//!
//! The session owns the Cactus protocol stack (physical layer + transport
//! layer), assigns sequence numbers, encodes outgoing segments to their wire
//! representation and decodes incoming ones. It is transport-agnostic: the
//! runtime (simulated or threaded) carries the produced byte segments and
//! arms the requested timers.

use crate::config::ChannelConfig;
use crate::data::micros::ATTR_NOW;
use crate::data::physical::build_physical;
use crate::data::transport::{apply_reconfiguration, build_transport, plan_reconfiguration};
use crate::data::wire::{WireSegment, ATTR_SENT_AT, ATTR_SEQ};
use bytes::Bytes;
use cactus::{Message, ProtocolStack, StackOutput, TimerRequest};

/// Index of the transport layer inside the session's stack.
pub const TRANSPORT_LAYER: usize = 1;
/// Index of the physical layer inside the session's stack.
pub const PHYSICAL_LAYER: usize = 0;

/// Everything a session interaction produced, to be carried out by the
/// runtime.
#[derive(Debug, Default)]
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

/// A configured data-channel session.
pub struct Session {
    config: ChannelConfig,
    stack: ProtocolStack,
    next_seq: u64,
    sent_segments: u64,
    received_segments: u64,
    rejected_segments: u64,
    wire_pool: Vec<Vec<u8>>,
}

impl Session {
    /// Create a session with an initial data-channel configuration.
    pub fn new(config: ChannelConfig) -> Self {
        let mut stack = ProtocolStack::new();
        stack.push_layer(build_physical(config.physical));
        stack.push_layer(build_transport(config));
        Self {
            config,
            stack,
            next_seq: 0,
            sent_segments: 0,
            received_segments: 0,
            rejected_segments: 0,
            wire_pool: Vec::new(),
        }
    }

    /// Convert the protocol stack's raw output into session actions, drawing
    /// each outgoing segment's wire buffer from the session's pool.
    fn output_from_stack(&mut self, output: StackOutput) -> SessionOutput {
        let mut result = SessionOutput::default();
        for msg in output.to_net {
            let mut buf = self.wire_pool.pop().unwrap_or_default();
            WireSegment::from_message(&msg).encode_into(&mut buf);
            result.wire.push(Bytes::from(buf));
        }
        for msg in output.delivered.into_iter().chain(output.to_user) {
            result.delivered.push(msg.payload().clone());
        }
        result.timers = output.timers;
        result.cancels = output.cancels;
        result.completions = output.send_completions;
        result
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
    pub fn send(&mut self, payload: Bytes, now_ns: u64) -> (u64, SessionOutput) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.sent_segments += 1;
        let mut msg = Message::new(payload);
        msg.set_u64(ATTR_SEQ, seq);
        msg.set_u64(ATTR_NOW, now_ns);
        msg.set_u64(ATTR_SENT_AT, now_ns);
        let out = self.stack.from_user(msg);
        let out = self.output_from_stack(out);
        (seq, out)
    }

    /// Process a segment received from the wire.
    pub fn on_wire(&mut self, bytes: Bytes, now_ns: u64) -> SessionOutput {
        let Some(segment) = WireSegment::decode(bytes) else {
            self.rejected_segments += 1;
            return SessionOutput::default();
        };
        self.received_segments += 1;
        let mut msg = segment.into_message();
        msg.set_u64(ATTR_NOW, now_ns);
        let out = self.stack.from_net(msg);
        self.output_from_stack(out)
    }

    /// Fire a timer previously requested by the session.
    pub fn on_timer(&mut self, layer: usize, tag: u64, now_ns: u64) -> SessionOutput {
        let mut msg = Message::default();
        msg.set_u64(ATTR_NOW, now_ns);
        msg.set_u64("timer_tag", tag);
        let out = self.stack.raise_at(layer, cactus::events::TIMEOUT, msg);
        self.output_from_stack(out)
    }

    /// Reconfigure the data channel in place (mode, reliability, ordering,
    /// congestion). Pending reliability state of removed micro-protocols is
    /// released, as required by the explicit-removal semantics.
    pub fn reconfigure(&mut self, target: ChannelConfig) {
        if target == self.config {
            return;
        }
        let plan = plan_reconfiguration(self.config, target);
        apply_reconfiguration(self.stack.layer_mut(TRANSPORT_LAYER), &plan);
        // A change of physical network swaps the physical composite entirely.
        if target.physical != self.config.physical {
            let transport_cfg = target;
            let mut stack = ProtocolStack::new();
            stack.push_layer(build_physical(transport_cfg.physical));
            stack.push_layer(build_transport(transport_cfg));
            self.stack = stack;
        }
        self.config = target;
    }

    /// Names of the micro-protocols currently composing the transport layer.
    pub fn transport_micros(&self) -> Vec<&'static str> {
        self.stack.layer(TRANSPORT_LAYER).micro_names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommunicationMode, Reliability};

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
}
