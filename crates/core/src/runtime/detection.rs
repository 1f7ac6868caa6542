//! Wall-clock failure detection shared by the thread and socket runtimes.
//!
//! The real-time backends detect peer death the way the paper's
//! centralized topology manager does: every peer pings a run-local
//! [`TopologyManager`] server on a fixed cadence, a peer missing three
//! consecutive periods is evicted, and a monitor thread sweeping
//! [`TopologyManager::evictions_since`] feeds each eviction into the
//! volatility coordinator's recovery grant. This module keeps the
//! backends on one implementation of that rule — the cadence, the
//! registration bookkeeping, the re-register-on-spurious-eviction
//! behaviour and the monitor loop live here, not in each drive loop. The
//! crashed peer's side — polling for the grant the monitor lands — is
//! `RunScaffold::crash_verdict`, whoever detects the failure.

use crate::churn::SharedVolatility;
use crate::runtime::report_cell::contention;
use crate::runtime::stop::SharedDetector;
use crate::topology_manager::TopologyManager;
use desim::{SimDuration, SimTime};
use netsim::{ClusterId, NodeId, Topology};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Ping period of the failure detector: peers ping on this cadence and a
/// peer missing three periods is evicted.
pub(crate) const PING_PERIOD: Duration = Duration::from_millis(10);

/// How often the failure monitor sweeps for missed pings.
const MONITOR_SWEEP: Duration = Duration::from_millis(5);

/// The run-local topology-manager server, shared by peers and monitor.
pub(crate) type SharedTopologyManager = Arc<Mutex<TopologyManager>>;

/// Wall-clock time as the topology manager's `SimTime`, measured from the
/// run's start instant.
fn now_since(start: Instant) -> SimTime {
    SimTime::from_secs_f64(start.elapsed().as_secs_f64())
}

/// Create the run's failure-detector server with every rank registered (at
/// time zero, before any peer thread spawns — a slow spawn must not read as
/// missed pings). `multiplex` is how many peers share one heartbeat driver:
/// 1 for the thread-per-peer backends, peers-per-loop for the reactor. A
/// loop multiplexing hundreds of peers beats them all once per loop
/// iteration, and a loaded iteration can easily outlast three bare ping
/// periods — so the eviction window scales with the multiplex degree
/// instead of reading a busy loop as mass death.
pub(crate) fn server_with_all_ranks(
    topology: &Topology,
    multiplex: usize,
) -> SharedTopologyManager {
    let factor = multiplex.div_ceil(64).max(1) as u64;
    let period = PING_PERIOD.as_nanos() as u64 * factor;
    let mut server = TopologyManager::new(SimDuration::from_nanos(period));
    for rank in 0..topology.len() {
        let node = NodeId(rank);
        server.register(
            node,
            topology.cluster_of(node),
            topology.node(node).cpu_speed,
            SimTime::ZERO,
        );
    }
    Arc::new(Mutex::new(server))
}

/// The failure monitor's loop: sweep the server for missed-ping evictions,
/// grant recovery for every evicted rank, exit once the run stops. Run this
/// inside a thread of the backend's scope.
pub(crate) fn run_monitor(
    volatility: &SharedVolatility,
    topo: &SharedTopologyManager,
    shared: &SharedDetector,
    alpha: usize,
    start: Instant,
) {
    let mut watermark = SimTime::ZERO;
    // Evicted ranks whose fate is unresolved. An eviction is only a
    // *symptom*: the rank may be dead (grant recovery) or merely late (it
    // re-registers on its next heartbeat). The grant is gated on the
    // volatility coordinator having recorded the crash, and that record can
    // land AFTER the eviction — a peer evicted for slowness just before it
    // really dies never pings again, so no second eviction will ever fire.
    // Keeping the symptom pending and re-trying every sweep (level-
    // triggered) instead of acting once on the eviction edge closes that
    // race: the rank leaves the set when it re-registers or when the grant
    // lands.
    let mut pending: Vec<NodeId> = Vec::new();
    loop {
        std::thread::sleep(MONITOR_SWEEP);
        let now = now_since(start);
        {
            let mut topo = topo.lock().unwrap();
            for node in topo.evictions_since(watermark, now) {
                if node.0 < alpha && !pending.contains(&node) {
                    pending.push(node);
                }
            }
            pending.retain(|node| topo.peer(*node).is_none());
        }
        watermark = now;
        if !pending.is_empty() {
            let loads = shared.lock().loads().to_vec();
            let mut volatility = volatility.lock();
            pending.retain(|node| {
                volatility.grant(node.0, &loads);
                !volatility.is_granted(node.0)
            });
        }
        if shared.stopped() {
            break;
        }
    }
}

/// One peer's heartbeat towards the failure detector.
pub(crate) struct Heartbeat {
    rank: usize,
    cluster: ClusterId,
    cpu_speed: f64,
    last_ping: Instant,
}

impl Heartbeat {
    /// The heartbeat of `rank` (topology supplies its cluster and speed).
    pub(crate) fn new(topology: &Topology, rank: usize) -> Self {
        let node = NodeId(rank);
        Self {
            rank,
            cluster: topology.cluster_of(node),
            cpu_speed: topology.node(node).cpu_speed,
            last_ping: Instant::now(),
        }
    }

    /// Ping the server if a period has elapsed. A peer the server no longer
    /// knows (evicted spuriously, e.g. after a scheduling hiccup)
    /// re-registers, as the paper's protocol demands of evicted peers.
    pub(crate) fn beat(&mut self, topo: &SharedTopologyManager, start: Instant) {
        if self.last_ping.elapsed() < PING_PERIOD {
            return;
        }
        let now = now_since(start);
        contention::count_topology_lock();
        let mut topo = topo.lock().unwrap();
        if !topo.ping(NodeId(self.rank), now) {
            topo.register(NodeId(self.rank), self.cluster, self.cpu_speed, now);
        }
        self.last_ping = Instant::now();
    }

    /// A revived rank rejoins: register afresh and restart the cadence.
    pub(crate) fn rejoin(&mut self, topo: &SharedTopologyManager, start: Instant) {
        let now = now_since(start);
        contention::count_topology_lock();
        topo.lock()
            .unwrap()
            .register(NodeId(self.rank), self.cluster, self.cpu_speed, now);
        self.last_ping = Instant::now();
    }
}

/// One event loop's batched heartbeat towards the failure detector: a
/// single server acquisition per [`PING_PERIOD`] pings for *every* running
/// peer the loop multiplexes ([`TopologyManager::ping_many`]), instead of
/// one acquisition per peer per period — at 1024 reactor peers sharing one
/// manager, the difference between ~100 and ~100k lock acquisitions per
/// second.
pub(crate) struct LoopHeartbeat {
    last_ping: Instant,
}

impl LoopHeartbeat {
    pub(crate) fn new() -> Self {
        Self {
            last_ping: Instant::now(),
        }
    }

    /// Whether a ping period has elapsed (callers build the rank list only
    /// when it has).
    pub(crate) fn due(&self) -> bool {
        self.last_ping.elapsed() >= PING_PERIOD
    }

    /// Ping on behalf of `nodes`; any the server no longer knows (evicted
    /// spuriously) are re-registered from the topology's specs, exactly as
    /// [`Heartbeat::beat`] does for a single peer.
    pub(crate) fn beat_many(
        &mut self,
        topo: &SharedTopologyManager,
        topology: &Topology,
        start: Instant,
        nodes: &[NodeId],
    ) {
        if nodes.is_empty() || !self.due() {
            return;
        }
        let now = now_since(start);
        contention::count_topology_lock();
        let mut topo = topo.lock().unwrap();
        for node in topo.ping_many(nodes, now) {
            topo.register(
                node,
                topology.cluster_of(node),
                topology.node(node).cpu_speed,
                now,
            );
        }
        self.last_ping = Instant::now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churn::{ChurnPlan, VolatilityState};
    use crate::runtime::stop::ConvergenceDetector;
    use netsim::LinkSpec;
    use p2psap::Scheme;

    /// An eviction can land *before* the coordinator records the rank's
    /// crash: a peer evicted for slowness just before it really dies never
    /// pings again, so no second eviction ever fires. The edge-triggered
    /// monitor consumed that one eviction while `grant` was still a no-op
    /// and the run livelocked waiting for a recovery nobody would ever
    /// grant. The level-triggered monitor must keep retrying until the
    /// grant lands.
    #[test]
    fn monitor_grants_rank_evicted_before_its_crash_is_recorded() {
        let topology = Topology::single_cluster(2, LinkSpec::ethernet_100mbps());
        let topo = server_with_all_ranks(&topology, 1);
        let volatility = VolatilityState::shared(&ChurnPlan::kill(0, 5), 2, Scheme::Asynchronous);
        let shared = ConvergenceDetector::shared(1e-6, Scheme::Asynchronous, 2);
        let start = Instant::now();

        std::thread::scope(|scope| {
            let monitor = {
                let volatility = Arc::clone(&volatility);
                let topo = Arc::clone(&topo);
                let shared = Arc::clone(&shared);
                scope.spawn(move || run_monitor(&volatility, &topo, &shared, 2, start))
            };
            // Rank 1 heartbeats; rank 0 never pings, so the monitor evicts
            // it while the coordinator knows of no crash — the grant it
            // attempts on that eviction edge is a no-op.
            let mut heartbeat = Heartbeat::new(&topology, 1);
            let deadline = Instant::now() + Duration::from_secs(10);
            while topo.lock().unwrap().peer(NodeId(0)).is_some() {
                assert!(Instant::now() < deadline, "rank 0 was never evicted");
                heartbeat.beat(&topo, start);
                std::thread::sleep(Duration::from_millis(2));
            }
            // Let the monitor sweep past the eviction edge, then land the
            // crash record — the order the race produces.
            std::thread::sleep(MONITOR_SWEEP * 4);
            volatility.lock().on_crash(0, 1);
            while !volatility.lock().is_granted(0) {
                assert!(
                    Instant::now() < deadline,
                    "eviction edge was consumed without a grant"
                );
                heartbeat.beat(&topo, start);
                std::thread::sleep(Duration::from_millis(2));
            }
            // Stop the run so the monitor loop exits.
            shared.lock().deposit_result(1, 0, Vec::new(), 1);
            monitor.join().expect("monitor thread");
        });
    }
}
