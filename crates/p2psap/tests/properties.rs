//! Property-based tests for the P2PSAP protocol, among them the oracle: the
//! session's straight-line data path against the Cactus micro-protocol
//! composition it stands for.

use bytes::Bytes;
use cactus::{events, Message, ProtocolStack};
use netsim::ConnectionType;
use p2psap::data::wire::{ATTR_SENT_AT, ATTR_SEQ, ATTR_TIMER_TAG};
use p2psap::data::{
    apply_reconfiguration, build_physical, build_transport, frame_checksum, make_congestion,
    plan_reconfiguration, Ack, AckBlock, SegmentKind, WireSegment, ACK_BYTES, ATTR_NOW,
    MAX_ACKS_PER_SEGMENT, SEGMENT_CHECKSUM_BYTES, SEGMENT_HEADER_BYTES,
};
use p2psap::{
    ChannelConfig, CommunicationMode, CongestionAlgorithm, Controller, Reliability, Scheme,
    Session, SessionOutput, ACK_TIMER_TAG, TRANSPORT_LAYER,
};
use proptest::prelude::*;

/// An ack block of the first `MAX_ACKS_PER_SEGMENT` of `values`, each value
/// both a sequence number and a send time.
fn ack_block(values: &[u64]) -> AckBlock {
    values
        .iter()
        .map(|&v| Ack {
            seq: v,
            sent_at_ns: v.rotate_left(17),
        })
        .collect()
}

/// Decode `body` with a valid checksum appended: what the codec says of a
/// frame whose structure alone is wrong.
fn decode_rechecked(mut body: Vec<u8>) -> Option<WireSegment> {
    let checksum = frame_checksum(&body);
    body.extend_from_slice(&checksum.to_be_bytes());
    WireSegment::decode(Bytes::from(body))
}

fn any_scheme() -> impl Strategy<Value = Scheme> {
    prop_oneof![
        Just(Scheme::Synchronous),
        Just(Scheme::Asynchronous),
        Just(Scheme::Hybrid)
    ]
}

fn any_connection() -> impl Strategy<Value = ConnectionType> {
    prop_oneof![
        Just(ConnectionType::IntraCluster),
        Just(ConnectionType::InterCluster)
    ]
}

fn any_algorithm() -> impl Strategy<Value = CongestionAlgorithm> {
    prop_oneof![
        Just(CongestionAlgorithm::NewReno),
        Just(CongestionAlgorithm::HTcp),
        Just(CongestionAlgorithm::Tahoe),
        Just(CongestionAlgorithm::Scp)
    ]
}

const ALGORITHMS: [CongestionAlgorithm; 4] = [
    CongestionAlgorithm::NewReno,
    CongestionAlgorithm::HTcp,
    CongestionAlgorithm::Tahoe,
    CongestionAlgorithm::Scp,
];

/// The finite product of data-channel configurations on one physical
/// network: 2 modes × 2 reliabilities × ordered on/off × 4 algorithms.
fn all_configs() -> Vec<ChannelConfig> {
    let mut configs = Vec::new();
    for mode in [
        CommunicationMode::Synchronous,
        CommunicationMode::Asynchronous,
    ] {
        for reliability in [Reliability::Reliable, Reliability::Unreliable] {
            for ordered in [true, false] {
                for congestion in ALGORITHMS {
                    configs.push(ChannelConfig {
                        mode,
                        reliability,
                        ordered,
                        congestion,
                        ..ChannelConfig::synchronous_reliable()
                    });
                }
            }
        }
    }
    configs
}

/// One end of a data channel, as the oracle drives it.
trait Endpoint {
    fn open(config: ChannelConfig) -> Self;
    fn send(&mut self, payload: Bytes, now_ns: u64) -> SessionOutput;
    fn on_wire(&mut self, bytes: Bytes, now_ns: u64) -> SessionOutput;
    fn on_timer(&mut self, layer: usize, tag: u64, now_ns: u64) -> SessionOutput;
    fn reconfigure(&mut self, target: ChannelConfig) -> SessionOutput;
    fn micros(&self) -> Vec<&'static str>;
}

impl Endpoint for Session {
    fn open(config: ChannelConfig) -> Self {
        Session::new(config)
    }
    fn send(&mut self, payload: Bytes, now_ns: u64) -> SessionOutput {
        Session::send(self, payload, now_ns).1
    }
    fn on_wire(&mut self, bytes: Bytes, now_ns: u64) -> SessionOutput {
        Session::on_wire(self, bytes, now_ns)
    }
    fn on_timer(&mut self, layer: usize, tag: u64, now_ns: u64) -> SessionOutput {
        Session::on_timer(self, layer, tag, now_ns)
    }
    fn reconfigure(&mut self, target: ChannelConfig) -> SessionOutput {
        Session::reconfigure(self, target)
    }
    fn micros(&self) -> Vec<&'static str> {
        self.transport_micros()
    }
}

/// The reference: the Cactus stack (physical composite below the transport
/// composite) driven event by event, the way `Session` drove it while it was
/// the data path.
struct Reference {
    config: ChannelConfig,
    stack: ProtocolStack,
    next_seq: u64,
}

impl Reference {
    fn output(out: cactus::StackOutput) -> SessionOutput {
        SessionOutput {
            wire: out
                .to_net
                .iter()
                .map(|msg| WireSegment::from_message(msg).encode())
                .collect(),
            timers: out.timers,
            cancels: out.cancels,
            delivered: out
                .delivered
                .iter()
                .chain(&out.to_user)
                .map(|msg| msg.payload().clone())
                .collect(),
            completions: out.send_completions,
        }
    }
}

impl Endpoint for Reference {
    fn open(config: ChannelConfig) -> Self {
        let mut stack = ProtocolStack::new();
        stack.push_layer(build_physical(config.physical));
        stack.push_layer(build_transport(config));
        Self {
            config,
            stack,
            next_seq: 0,
        }
    }
    fn send(&mut self, payload: Bytes, now_ns: u64) -> SessionOutput {
        let mut msg = Message::new(payload);
        msg.set_u64(ATTR_SEQ, self.next_seq);
        msg.set_u64(ATTR_NOW, now_ns);
        msg.set_u64(ATTR_SENT_AT, now_ns);
        self.next_seq += 1;
        Self::output(self.stack.from_user(msg))
    }
    fn on_wire(&mut self, bytes: Bytes, now_ns: u64) -> SessionOutput {
        let Some(segment) = WireSegment::decode(bytes) else {
            return SessionOutput::default();
        };
        let mut msg = segment.into_message();
        msg.set_u64(ATTR_NOW, now_ns);
        Self::output(self.stack.from_net(msg))
    }
    fn on_timer(&mut self, layer: usize, tag: u64, now_ns: u64) -> SessionOutput {
        let mut msg = Message::default();
        msg.set_u64(ATTR_NOW, now_ns);
        msg.set_u64(ATTR_TIMER_TAG, tag);
        Self::output(self.stack.raise_at(layer, events::TIMEOUT, msg))
    }
    fn reconfigure(&mut self, target: ChannelConfig) -> SessionOutput {
        let plan = plan_reconfiguration(self.config, target);
        let effects = apply_reconfiguration(self.stack.layer_mut(TRANSPORT_LAYER), &plan);
        self.config = target;
        let delivered = effects.into_iter().filter_map(|effect| match effect {
            cactus::Effect::DeliverToUser(msg) => Some(msg.payload().clone()),
            _ => None,
        });
        SessionOutput {
            delivered: delivered.collect(),
            ..SessionOutput::default()
        }
    }
    fn micros(&self) -> Vec<&'static str> {
        self.stack.layer(TRANSPORT_LAYER).micro_names()
    }
}

/// Two endpoints, the segments in flight between them and the timers they
/// armed. Everything here follows from the endpoints' outputs, so two links
/// whose outputs agree step by step stay in the same state.
struct Link<E> {
    ends: [E; 2],
    /// (destination, segment)
    in_flight: Vec<(usize, Bytes)>,
    /// (deadline, owner, layer, tag), in arming order
    timers: Vec<(u64, usize, usize, u64)>,
    now_ns: u64,
    reconfigurations_left: u32,
    sent: u64,
}

impl<E: Endpoint> Link<E> {
    fn open(config: ChannelConfig) -> Self {
        Self {
            ends: [E::open(config), E::open(config)],
            in_flight: Vec::new(),
            timers: Vec::new(),
            now_ns: 1,
            reconfigurations_left: 2,
            sent: 0,
        }
    }

    /// Carry out what endpoint `end` asked for.
    fn absorb(&mut self, end: usize, out: &SessionOutput) {
        for segment in &out.wire {
            self.in_flight.push((1 - end, segment.clone()));
        }
        for (layer, tag) in &out.cancels {
            self.timers
                .retain(|&(_, owner, l, t)| (owner, l, t) != (end, *layer, *tag));
        }
        for timer in &out.timers {
            self.timers
                .push((self.now_ns + timer.delay_ns, end, timer.layer, timer.tag));
        }
    }

    /// One scripted step: `op`'s low bits choose among send, deliver (also
    /// lost, duplicated, corrupted; any segment in flight, so reordered),
    /// fire the next timer, let time pass, reconfigure one end or both.
    fn step(&mut self, op: u64, configs: &[ChannelConfig]) -> Vec<SessionOutput> {
        let (kind, end, pick, fate) = (op % 8, (op >> 3) as usize % 2, op >> 8, (op >> 40) % 8);
        self.now_ns += 1 + pick % 50_000;
        let mut outputs = Vec::new();
        match kind {
            0 | 1 => {
                let payload = format!("{end}:{}:{}", self.sent, "x".repeat(pick as usize % 40));
                self.sent += 1;
                let out = self.ends[end].send(Bytes::from(payload), self.now_ns);
                self.absorb(end, &out);
                outputs.push(out);
            }
            2..=4 if !self.in_flight.is_empty() => {
                let index = pick as usize % self.in_flight.len();
                let (dst, mut segment) = self.in_flight[index].clone();
                match fate {
                    0 => {
                        self.in_flight.remove(index);
                        return outputs; // lost
                    }
                    1 => {} // duplicated: delivered now and once more later
                    2 => {
                        let mut bad = segment.to_vec();
                        let at = (op >> 48) as usize % bad.len();
                        bad[at] ^= 0x10;
                        segment = Bytes::from(bad);
                        self.in_flight.remove(index);
                    }
                    _ => {
                        self.in_flight.remove(index);
                    }
                }
                let out = self.ends[dst].on_wire(segment, self.now_ns);
                self.absorb(dst, &out);
                outputs.push(out);
            }
            5 => {
                // Deadline order; `min_by_key` keeps the first armed on a tie.
                let next = (0..self.timers.len()).min_by_key(|&i| self.timers[i].0);
                if let Some(index) = next {
                    let (deadline, owner, layer, tag) = self.timers.remove(index);
                    self.now_ns = self.now_ns.max(deadline);
                    let out = self.ends[owner].on_timer(layer, tag, self.now_ns);
                    self.absorb(owner, &out);
                    outputs.push(out);
                }
            }
            6 => self.now_ns += pick % 2_000_000_000,
            7 if self.reconfigurations_left > 0 && pick % 4 == 0 => {
                self.reconfigurations_left -= 1;
                let target = configs[pick as usize % configs.len()];
                // Both ends as the coordination handshake leaves them, or one
                // end only as in the middle of it.
                for side in [0, 1] {
                    if fate < 6 || fate as usize - 6 == side {
                        let out = self.ends[side].reconfigure(target);
                        self.absorb(side, &out);
                        outputs.push(out);
                    }
                }
            }
            _ => {}
        }
        outputs
    }
}

/// A path the random scripts rarely reach: segments held back by an ordered
/// channel are delivered, in order, when ordering is switched off (their
/// sender may have seen them acknowledged and will not send them again);
/// the gap fills as it comes while unordered; and switching ordering back on
/// resumes after the highest sequence delivered meanwhile. Then the
/// delayed-ack timer sends every owed acknowledgement in one bare ack.
fn ordering_off_and_on_again<E: Endpoint>() -> Vec<SessionOutput> {
    let ordered = ChannelConfig::synchronous_reliable();
    let unordered = ChannelConfig::asynchronous_reliable();
    let (mut tx, mut rx) = (E::open(ordered), E::open(ordered));
    let sent: Vec<Bytes> = (0..6u64)
        .map(|seq| tx.send(Bytes::from(format!("m{seq}")), 10 + seq).wire[0].clone())
        .collect();
    let mut outputs = vec![rx.on_wire(sent[0].clone(), 20)];
    outputs.push(rx.on_wire(sent[2].clone(), 21)); // held back
    outputs.push(rx.on_wire(sent[3].clone(), 22)); // held back
    outputs.push(rx.reconfigure(unordered)); // and delivered
    outputs.push(rx.on_wire(sent[1].clone(), 23)); // delivered as it comes
    outputs.push(rx.reconfigure(ordered));
    for (seq, now_ns) in [(5, 24), (3, 25), (4, 26)] {
        outputs.push(rx.on_wire(sent[seq].clone(), now_ns)); // 5 waits for 4, 3 is stale
    }
    outputs.push(rx.on_timer(TRANSPORT_LAYER, ACK_TIMER_TAG, 27));
    outputs
}

#[test]
fn ordering_switched_off_flushes_the_gap_in_session_and_reference() {
    let got = ordering_off_and_on_again::<Session>();
    assert_eq!(got, ordering_off_and_on_again::<Reference>());
    let delivered: Vec<Vec<&[u8]>> = got
        .iter()
        .map(|out| {
            out.delivered
                .iter()
                .map(|payload| payload.as_ref())
                .collect()
        })
        .collect();
    let expected: [&[&[u8]]; 10] = [
        &[b"m0"],
        &[],
        &[],
        &[b"m2", b"m3"],
        &[b"m1"],
        &[],
        &[],
        &[],
        &[b"m4", b"m5"],
        &[],
    ];
    assert_eq!(delivered, expected);
    // Every copy is acknowledged, the duplicate included — by the timer,
    // as no data went the other way.
    let (last, before) = got.split_last().expect("outputs");
    assert!(before.iter().all(|out| out.wire.is_empty()));
    assert_eq!(last.wire.len(), 1);
    let bare = WireSegment::decode(last.wire[0].clone()).expect("decodes");
    assert_eq!(bare.kind, SegmentKind::Ack);
    let acked: Vec<u64> = bare.acks.as_slice().iter().map(|ack| ack.seq).collect();
    assert_eq!(acked, [0, 2, 3, 1, 5, 3, 4]);
}

proptest! {
    /// The oracle. For every configuration, a random script — sends,
    /// deliveries with loss, duplication, corruption and reorder, timers in
    /// deadline order, the clock, up to two reconfigurations — runs against
    /// two `Session`s and against two reference stacks: wire segments
    /// byte-identical and in the same order, identical timers, cancels,
    /// deliveries and completions after every step. The reference's
    /// unordered → ordered transition is fixed along with the session's, so
    /// no transition is left out of the script.
    #[test]
    fn session_matches_the_micro_protocol_reference(
        script in proptest::collection::vec(any::<u64>(), 48..160)
    ) {
        let configs = all_configs();
        prop_assert_eq!(configs.len(), 32);
        for &config in &configs {
            let mut direct = Link::<Session>::open(config);
            let mut reference = Link::<Reference>::open(config);
            prop_assert_eq!(direct.ends[0].micros(), reference.ends[0].micros());
            let mut delivered = 0;
            for (step, &op) in script.iter().enumerate() {
                let got = direct.step(op, &configs);
                let expected = reference.step(op, &configs);
                prop_assert_eq!(&got, &expected, "{:?}, step {} (op {:#x})", config, step, op);
                delivered += got.iter().map(|out| out.delivered.len()).sum::<usize>();
            }
            // The scripts are not vacuous.
            prop_assert!(delivered > 0, "{:?}: nothing was delivered", config);
            for side in [0, 1] {
                let (mut got, mut expected) =
                    (direct.ends[side].micros(), reference.ends[side].micros());
                got.sort_unstable();
                expected.sort_unstable();
                prop_assert_eq!(got, expected);
            }
        }
    }

    /// The wire codec round-trips arbitrary payloads and header fields,
    /// with 0 ..= `MAX_ACKS_PER_SEGMENT` acknowledgements carried along.
    #[test]
    fn wire_codec_round_trips(seq in any::<u64>(), ack in any::<bool>(),
                              sent_at in any::<u64>(),
                              acks in proptest::collection::vec(any::<u64>(), 0..2 * MAX_ACKS_PER_SEGMENT),
                              payload in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let acks = ack_block(&acks);
        let seg = WireSegment { acks, ..WireSegment::data(seq, ack, sent_at, Bytes::from(payload)) };
        let bytes = seg.encode();
        let block = if acks.is_empty() { 0 } else { 1 + ACK_BYTES * acks.len() };
        prop_assert_eq!(
            bytes.len(),
            SEGMENT_HEADER_BYTES + block + seg.payload.len() + SEGMENT_CHECKSUM_BYTES
        );
        let decoded = WireSegment::decode(bytes).expect("well-formed segment decodes");
        prop_assert_eq!(&decoded, &seg);
        let bare = WireSegment::bare_ack(acks);
        prop_assert_eq!(WireSegment::decode(bare.encode()), Some(bare));
    }

    /// Hostile ack blocks: the carries-acks flag without its count byte, a
    /// count of zero or above the cap, a block that runs past the frame, and
    /// a payload length that disagrees with what the block leaves. Each one
    /// is re-checksummed so only the structure is wrong; every one is
    /// rejected, none panics.
    #[test]
    fn malformed_ack_blocks_are_rejected(seq in any::<u64>(),
                                         acks in proptest::collection::vec(any::<u64>(), 1..MAX_ACKS_PER_SEGMENT + 1),
                                         payload in proptest::collection::vec(any::<u8>(), 0..64),
                                         shift in 1u32..64) {
        let acks = ack_block(&acks);
        let plain = WireSegment::data(seq, true, 1, Bytes::from(payload.clone()));
        let carrying = WireSegment { acks, ..plain.clone() };
        let body = |seg: &WireSegment| {
            let mut raw = seg.encode().to_vec();
            raw.truncate(raw.len() - SEGMENT_CHECKSUM_BYTES);
            raw
        };
        let count_at = SEGMENT_HEADER_BYTES;
        let len_at = SEGMENT_HEADER_BYTES - 4;

        // Flag set, count byte missing: a bare ack's frame ends at the header.
        let mut raw = body(&WireSegment::bare_ack(AckBlock::default()));
        raw[1] |= 2;
        prop_assert!(decode_rechecked(raw).is_none(), "missing count accepted");

        // Count zero, and count above the cap with enough bytes behind it.
        for count in [0, MAX_ACKS_PER_SEGMENT + 1, 255] {
            let mut raw = body(&carrying);
            raw[count_at] = count as u8;
            raw.extend(std::iter::repeat_n(0, ACK_BYTES * (count + 1)));
            prop_assert!(decode_rechecked(raw).is_none(), "count {} accepted", count);
        }

        // A block that runs past the frame: the count claims more acks
        // than there are bytes behind it (payload length zeroed to match).
        let mut raw = body(&WireSegment { payload: Bytes::new(), ..carrying.clone() });
        raw[count_at] = acks.len() as u8 + 1;
        prop_assert!(decode_rechecked(raw.clone()).is_none(), "block past the frame accepted");
        raw.truncate(count_at + 1 + ACK_BYTES * acks.len() - 1);
        raw[count_at] = acks.len() as u8;
        prop_assert!(decode_rechecked(raw).is_none(), "cut block accepted");

        // A payload length off by `shift` in either direction.
        for seg in [&plain, &carrying] {
            for declared in [payload.len() as u32 + shift, (payload.len() as u32).wrapping_sub(shift)] {
                let mut raw = body(seg);
                raw[len_at..len_at + 4].copy_from_slice(&declared.to_be_bytes());
                prop_assert!(decode_rechecked(raw).is_none(), "length {} accepted", declared);
            }
        }
    }

    /// The controller is total: every (scheme, connection) context yields a
    /// configuration, and the communication mode obeys Table I.
    #[test]
    fn controller_is_total_and_consistent(scheme in any_scheme(), conn in any_connection()) {
        let c = Controller::with_table1_rules();
        let cfg = c.decide_for(scheme, conn);
        match (scheme, conn) {
            (Scheme::Synchronous, _) => {
                prop_assert_eq!(cfg.mode, p2psap::CommunicationMode::Synchronous);
                prop_assert_eq!(cfg.reliability, Reliability::Reliable);
            }
            (Scheme::Asynchronous, ConnectionType::IntraCluster) => {
                prop_assert_eq!(cfg.mode, p2psap::CommunicationMode::Asynchronous);
                prop_assert_eq!(cfg.reliability, Reliability::Reliable);
            }
            (Scheme::Asynchronous, ConnectionType::InterCluster)
            | (Scheme::Hybrid, ConnectionType::InterCluster) => {
                prop_assert_eq!(cfg.mode, p2psap::CommunicationMode::Asynchronous);
                prop_assert_eq!(cfg.reliability, Reliability::Unreliable);
            }
            (Scheme::Hybrid, ConnectionType::IntraCluster) => {
                prop_assert_eq!(cfg.mode, p2psap::CommunicationMode::Synchronous);
                prop_assert_eq!(cfg.reliability, Reliability::Reliable);
            }
        }
    }

    /// Congestion windows stay within sane bounds under arbitrary ack/loss
    /// event sequences.
    #[test]
    fn congestion_window_bounded(alg in any_algorithm(),
                                 steps in proptest::collection::vec(any::<u8>(), 1..256)) {
        let mut cc = make_congestion(alg);
        let mut now = 0.0;
        for s in steps {
            now += 0.01;
            match s % 4 {
                0 | 1 => cc.on_ack(0.01, now),
                2 => cc.on_loss(now),
                _ => cc.on_timeout(now),
            }
            prop_assert!(cc.cwnd() >= 1.0, "{}: cwnd fell below 1", cc.name());
            prop_assert!(cc.cwnd() <= 1e7, "{}: cwnd diverged", cc.name());
            prop_assert!(cc.ssthresh() >= 1.0);
        }
    }

    /// An ordered reliable session delivers every distinct payload exactly
    /// once and in order, for any interleaving of two senders' segments.
    #[test]
    fn ordered_session_delivers_in_order(count in 1usize..32, seed in any::<u64>()) {
        let cfg = ChannelConfig::synchronous_reliable();
        let mut tx = Session::new(cfg);
        let mut rx = Session::new(cfg);
        // Produce `count` segments.
        let mut segments = Vec::new();
        for i in 0..count {
            let (_, out) = tx.send(Bytes::from(format!("payload-{i}")), i as u64);
            segments.extend(out.wire);
        }
        // Shuffle deterministically based on the seed.
        let mut order: Vec<usize> = (0..segments.len()).collect();
        let mut state = seed;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            order.swap(i, j);
        }
        let mut delivered = Vec::new();
        for idx in order {
            let out = rx.on_wire(segments[idx].clone(), 1_000);
            delivered.extend(out.delivered);
        }
        prop_assert_eq!(delivered.len(), count);
        for (i, d) in delivered.iter().enumerate() {
            let expected = format!("payload-{i}");
            prop_assert_eq!(d.as_ref(), expected.as_bytes());
        }
    }

    /// Reconfiguring a session to any target configuration and back leaves the
    /// micro-protocol set consistent with the configuration.
    #[test]
    fn reconfiguration_is_consistent(scheme in any_scheme(), conn in any_connection()) {
        let controller = Controller::with_table1_rules();
        let start = ChannelConfig::synchronous_reliable();
        let target = controller.decide_for(scheme, conn);
        let mut s = Session::new(start);
        s.reconfigure(target);
        let micros = s.transport_micros();
        let has_rel = micros.contains(&"reliability");
        prop_assert_eq!(has_rel, target.reliability == Reliability::Reliable);
        let has_sync = micros.contains(&"mode-synchronous");
        prop_assert_eq!(has_sync, target.mode == p2psap::CommunicationMode::Synchronous);
        // Round trip back to the start configuration.
        s.reconfigure(start);
        prop_assert!(s.transport_micros().contains(&"mode-synchronous"));
        prop_assert!(s.transport_micros().contains(&"reliability"));
    }
}
