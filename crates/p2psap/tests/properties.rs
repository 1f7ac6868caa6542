//! Property-based tests for the P2PSAP protocol, among them the oracle: the
//! session's straight-line data path against the Cactus micro-protocol
//! composition it stands for.

use bytes::Bytes;
use cactus::{events, Message, ProtocolStack};
use netsim::ConnectionType;
use p2psap::data::wire::{ATTR_SENT_AT, ATTR_SEQ, ATTR_TIMER_TAG};
use p2psap::data::{
    apply_reconfiguration, build_physical, build_transport, make_congestion, plan_reconfiguration,
    WireSegment, ATTR_NOW,
};
use p2psap::{
    ChannelConfig, CommunicationMode, CongestionAlgorithm, Controller, Reliability, Scheme,
    Session, SessionOutput, TRANSPORT_LAYER,
};
use proptest::prelude::*;

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
    fn reconfigure(&mut self, target: ChannelConfig);
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
    fn reconfigure(&mut self, target: ChannelConfig) {
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
    fn reconfigure(&mut self, target: ChannelConfig) {
        let plan = plan_reconfiguration(self.config, target);
        apply_reconfiguration(self.stack.layer_mut(TRANSPORT_LAYER), &plan);
        self.config = target;
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
                        self.ends[side].reconfigure(target);
                    }
                }
            }
            _ => {}
        }
        outputs
    }
}

/// A path the random scripts rarely reach: segments held back by an ordered
/// channel are dropped when ordering is switched off, and switching it back
/// on resumes after the highest sequence delivered meanwhile.
fn ordering_off_and_on_again<E: Endpoint>() -> Vec<SessionOutput> {
    let ordered = ChannelConfig::synchronous_reliable();
    let unordered = ChannelConfig::asynchronous_reliable();
    let (mut tx, mut rx) = (E::open(ordered), E::open(ordered));
    let sent: Vec<Bytes> = (0..6u64)
        .map(|seq| tx.send(Bytes::from(format!("m{seq}")), 10 + seq).wire[0].clone())
        .collect();
    let mut outputs = vec![rx.on_wire(sent[4].clone(), 20)]; // held back
    rx.reconfigure(unordered); // and dropped
    outputs.push(rx.on_wire(sent[1].clone(), 21)); // delivered as it comes
    rx.reconfigure(ordered);
    for (seq, now_ns) in [(0, 22), (2, 23), (3, 24), (5, 25), (4, 26)] {
        outputs.push(rx.on_wire(sent[seq].clone(), now_ns)); // 0 is stale, 5 waits for 4
    }
    outputs
}

#[test]
fn ordering_switched_off_drops_the_gap_in_session_and_reference() {
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
    let expected: [&[&[u8]]; 7] = [&[], &[b"m1"], &[], &[b"m2"], &[b"m3"], &[], &[b"m4", b"m5"]];
    assert_eq!(delivered, expected);
    assert!(
        got.iter().all(|out| out.wire.len() == 1),
        "every copy is acked"
    );
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

    /// The wire codec round-trips arbitrary payloads and header fields.
    #[test]
    fn wire_codec_round_trips(seq in any::<u64>(), ack in any::<bool>(),
                              sent_at in any::<u64>(),
                              payload in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let seg = WireSegment::data(seq, ack, sent_at, Bytes::from(payload));
        let decoded = WireSegment::decode(seg.encode()).expect("well-formed segment decodes");
        prop_assert_eq!(decoded, seg);
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
