//! A reactor run's heap grows linearly in its peers: what a peer owns is
//! O(its neighbours), and what every peer reads — the topology's node
//! table, the port table, the partition, the detector board — is held once
//! per run (ARCHITECTURE.md, "Per-peer state budget").
//!
//! Its own binary, because it installs [`PeakAllocator`] as the global
//! allocator and reads process-global tallies; one `#[test]`, so no
//! parallel test thread allocates into the measured window.

use p2pdc::allocs::{self, PeakAllocator};
use p2pdc::{run_on, BackendExtras, RunConfig, RuntimeKind, Scheme, WorkloadKind};

#[global_allocator]
static PEAK: PeakAllocator = PeakAllocator;

/// The most heap one reactor run held at once, above what was live before
/// it: PageRank at 4 vertices per peer, asynchronous, on 2 event loops —
/// the cell of `repro scale`.
fn heap_peak(peers: usize) -> usize {
    let workload = WorkloadKind::PageRank.build(4 * peers, peers);
    let mut config = RunConfig::single_cluster(Scheme::Asynchronous, peers).with_extras(
        BackendExtras::Reactor {
            event_loops: 2,
            loss_probability: 0.0,
            reorder_probability: 0.0,
        },
    );
    config.tolerance = 1e-6;
    allocs::reset_peak();
    let before = allocs::heap().live;
    let result = run_on(workload.as_ref(), &config, RuntimeKind::Reactor);
    let peak = allocs::heap().peak - before;
    assert!(
        result.measurement.converged,
        "{peers} peers did not converge"
    );
    peak
}

/// Four times the peers may cost at most five times the heap: linear growth
/// reads about 4×, a table per peer per rank about 8×.
#[test]
fn a_reactor_runs_heap_peak_grows_linearly_in_its_peers() {
    let mib = |bytes: usize| bytes as f64 / (1024.0 * 1024.0);
    let (small, large) = (heap_peak(64), heap_peak(256));
    println!(
        "heap peak: {:.2} MiB at 64 peers, {:.2} MiB at 256 peers ({:.2}x)",
        mib(small),
        mib(large),
        large as f64 / small as f64
    );
    assert!(
        large <= 5 * small,
        "heap peak grew {:.2}x from 64 to 256 peers",
        large as f64 / small as f64
    );
}
