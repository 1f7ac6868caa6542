//! End-to-end tests of the P2PSAP protocol stack over the simulated network:
//! two peer processes exchanging data through sockets, the fabric and netem
//! impairment, covering reliability recovery and the Table I configurations.

use bytes::Bytes;
use desim::{Context, Payload, Process, ProcessId, SimDuration, SimTime, Simulator, TimerId};
use netsim::{shared_stats, Deliver, LinkSpec, NetworkFabric, NodeId, Packet, Topology, Transmit};
use p2psap::{Scheme, Socket};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A minimal peer process: sends a fixed number of payloads to its remote and
/// records everything it receives.
struct ProtoPeer {
    rank: usize,
    remote: usize,
    fabric: ProcessId,
    socket: Socket,
    to_send: Vec<Vec<u8>>,
    received: Arc<Mutex<Vec<Vec<u8>>>>,
    timer_slots: Vec<(usize, u64)>,
    armed: HashMap<(usize, u64), desim::TimerId>,
}

impl ProtoPeer {
    fn run_output(&mut self, ctx: &mut Context<'_>, out: p2psap::SocketOutput) {
        for seg in out.data {
            let packet = Packet::new(NodeId(self.rank), NodeId(self.remote), seg);
            ctx.send(self.fabric, Box::new(Transmit { packet }));
        }
        for t in out.timers {
            let slot = self.timer_slots.len() as u64;
            self.timer_slots.push((t.layer, t.tag));
            let id = ctx.set_timer(SimDuration::from_nanos(t.delay_ns), slot);
            self.armed.insert((t.layer, t.tag), id);
        }
        for key in out.cancels {
            if let Some(id) = self.armed.remove(&key) {
                ctx.cancel_timer(id);
            }
        }
    }
}

impl Process for ProtoPeer {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        let sends = std::mem::take(&mut self.to_send);
        for payload in sends {
            let (_, out) = self.socket.send(Bytes::from(payload), ctx.now().as_nanos());
            self.run_output(ctx, out);
        }
    }
    fn on_message(&mut self, ctx: &mut Context<'_>, _from: ProcessId, payload: Payload) {
        if let Ok(deliver) = payload.downcast::<Deliver>() {
            let out = self
                .socket
                .on_data(deliver.packet.payload, ctx.now().as_nanos());
            while let Some(p) = self.socket.receive() {
                self.received.lock().unwrap().push(p.to_vec());
            }
            self.run_output(ctx, out);
        }
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, _timer: TimerId, tag: u64) {
        let Some(&(layer, ptag)) = self.timer_slots.get(tag as usize) else {
            return;
        };
        self.armed.remove(&(layer, ptag));
        let out = self.socket.on_timer(layer, ptag, ctx.now().as_nanos());
        while let Some(p) = self.socket.receive() {
            self.received.lock().unwrap().push(p.to_vec());
        }
        self.run_output(ctx, out);
    }
}

fn run_exchange(
    topology: Topology,
    scheme: Scheme,
    messages: usize,
) -> (Vec<Vec<u8>>, netsim::NetStats) {
    let connection = topology.connection_type(NodeId(0), NodeId(1));
    let received = Arc::new(Mutex::new(Vec::new()));
    let stats = shared_stats();
    let mut sim = Simulator::new(3);
    let fabric_id = ProcessId(2);
    let sender = ProtoPeer {
        rank: 0,
        remote: 1,
        fabric: fabric_id,
        socket: Socket::open(scheme, connection),
        to_send: (0..messages)
            .map(|i| format!("payload-{i}").into_bytes())
            .collect(),
        received: Arc::new(Mutex::new(Vec::new())),
        timer_slots: Vec::new(),
        armed: HashMap::new(),
    };
    let receiver = ProtoPeer {
        rank: 1,
        remote: 0,
        fabric: fabric_id,
        socket: Socket::open(scheme, connection),
        to_send: Vec::new(),
        received: Arc::clone(&received),
        timer_slots: Vec::new(),
        armed: HashMap::new(),
    };
    let p0 = sim.add_process(Box::new(sender));
    let p1 = sim.add_process(Box::new(receiver));
    let fabric = NetworkFabric::new(topology, vec![p0, p1], Arc::clone(&stats));
    let fid = sim.add_process(Box::new(fabric));
    assert_eq!(fid, fabric_id);
    sim.run_until(SimTime::from_secs_f64(60.0));
    let out = received.lock().unwrap().clone();
    (out, netsim::stats_snapshot(&stats))
}

#[test]
fn synchronous_reliable_exchange_delivers_everything_in_order() {
    let (received, stats) =
        run_exchange(Topology::nicta_single_cluster(2), Scheme::Synchronous, 20);
    assert_eq!(received.len(), 20);
    for (i, payload) in received.iter().enumerate() {
        assert_eq!(payload, format!("payload-{i}").as_bytes());
    }
    // The 20 payloads leave back to back and nothing flows the other way:
    // the receiver's acknowledgements leave in bare acks, one per full ack
    // block (two of eight) and one on the delayed-ack timer (the last
    // four) — 20 data segments and 3 acks on the wire, no retransmission.
    assert_eq!(stats.intra.packets_delivered, 23);
    assert_eq!(stats.intra.packets_sent, 23);
}

#[test]
fn reliability_recovers_from_heavy_loss() {
    // 30% loss on the only link; the synchronous reliable configuration must
    // still deliver every payload thanks to retransmissions.
    let topology = Topology::single_cluster(2, LinkSpec::ethernet_100mbps().with_loss(0.3));
    let (received, stats) = run_exchange(topology, Scheme::Synchronous, 15);
    assert_eq!(
        received.len(),
        15,
        "reliable channel must recover all losses"
    );
    assert!(
        stats.total_dropped() > 0,
        "the link should actually have dropped packets"
    );
}

#[test]
fn unreliable_asynchronous_channel_tolerates_loss_without_retransmission() {
    // Same lossy link, asynchronous scheme across clusters => unreliable
    // channel: some payloads are lost and never retransmitted.
    let topology = Topology::two_clusters(
        2,
        LinkSpec::ethernet_100mbps(),
        LinkSpec::internet_100ms().with_loss(0.4),
    );
    let (received, stats) = run_exchange(topology, Scheme::Asynchronous, 50);
    assert!(
        received.len() < 50,
        "with 40% loss some messages must be missing"
    );
    assert!(!received.is_empty(), "but not everything is lost");
    assert!(stats.inter.packets_dropped > 0);
    // No retransmissions: the number of packets put on the wire equals the
    // number of application sends (50), within the single original attempt.
    assert_eq!(stats.inter.packets_sent, 50);
}

#[test]
fn hybrid_scheme_picks_different_configs_per_connection() {
    let sock_intra = Socket::open(Scheme::Hybrid, netsim::ConnectionType::IntraCluster);
    let sock_inter = Socket::open(Scheme::Hybrid, netsim::ConnectionType::InterCluster);
    assert_eq!(
        sock_intra.config().mode,
        p2psap::CommunicationMode::Synchronous
    );
    assert_eq!(
        sock_inter.config().mode,
        p2psap::CommunicationMode::Asynchronous
    );
    assert_eq!(
        sock_intra.config().reliability,
        p2psap::Reliability::Reliable
    );
    assert_eq!(
        sock_inter.config().reliability,
        p2psap::Reliability::Unreliable
    );
}
