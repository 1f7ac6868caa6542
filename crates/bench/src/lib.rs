//! Shared harness code for the evaluation reproduction: figure sweeps
//! (Figures 5 and 6), the Table I check, the ablation experiments and the
//! reactor peer-scaling curve. Both the `repro` binary and the Criterion
//! benches call into this crate. What a run costs, end to end and per layer,
//! is measured by the benchmark of record (`benchmark/`), not here.

use p2pdc::{
    derive_row, run_on, BackendExtras, ChurnPlan, ComputeModel, FigureRow, RunConfig, RuntimeKind,
    Scheme, WorkloadKind,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Peer counts used by the paper's experiments.
pub const PAPER_PEER_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 24];

/// Configuration of a figure sweep. The paper's figures run the obstacle
/// workload (membrane instance); the sweep itself goes through the
/// workload-generic experiment driver.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureConfig {
    /// Grid size actually simulated.
    pub n: usize,
    /// Grid size of the paper experiment this sweep reproduces (96 or 144).
    pub paper_n: usize,
    /// Convergence tolerance.
    pub tolerance: f64,
    /// Peer counts to sweep.
    pub peer_counts: Vec<usize>,
}

impl FigureConfig {
    /// Figure 5 (96³). By default the grid is scaled down to `n = 32` for
    /// speed; pass `full = true` to run the paper's actual 96³ size.
    pub fn figure5(full: bool) -> Self {
        Self {
            n: if full { 96 } else { 32 },
            paper_n: 96,
            tolerance: 1e-4,
            peer_counts: PAPER_PEER_COUNTS.to_vec(),
        }
    }

    /// Figure 6 (144³), scaled to `n = 48` unless `full` is set.
    pub fn figure6(full: bool) -> Self {
        Self {
            n: if full { 144 } else { 48 },
            paper_n: 144,
            tolerance: 1e-4,
            peer_counts: PAPER_PEER_COUNTS.to_vec(),
        }
    }

    /// The compute model used for this sweep.
    ///
    /// When the grid is scaled down from the paper's size, the per-point cost
    /// is scaled **up** by the cube of the ratio, so each peer's relaxation
    /// takes the same *virtual* time as it would at full size. This preserves
    /// the computation/communication granularity — the quantity that decides
    /// where synchronous schemes collapse and asynchronous schemes keep their
    /// efficiency — while keeping the real (wall-clock) kernel cost small.
    pub fn compute_model(&self) -> ComputeModel {
        let base = ComputeModel::nicta_1ghz();
        let ratio = self.paper_n as f64 / self.n as f64;
        ComputeModel::calibrated(base.ns_per_point * ratio * ratio * ratio)
    }
}

/// A complete figure: one row per (scheme, topology, peer count).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureResult {
    /// Title (e.g. "Figure 5 (96x96x96)").
    pub title: String,
    /// Sweep configuration.
    pub config: FigureConfig,
    /// All rows.
    pub rows: Vec<FigureRow>,
}

/// Run a full figure sweep: every scheme × topology × peer count.
pub fn run_figure(title: &str, config: &FigureConfig) -> FigureResult {
    run_figure_filtered(title, config, |_, _, _| true)
}

/// Run a figure sweep restricted to the configurations accepted by `keep`
/// (scheme, clusters, peers). Used by the Criterion benches to time a subset.
pub fn run_figure_filtered<F>(title: &str, config: &FigureConfig, keep: F) -> FigureResult
where
    F: Fn(Scheme, usize, usize) -> bool,
{
    let compute = config.compute_model();
    // Single-peer reference (the speedup baseline of the paper's figures).
    let reference = run_single(config, compute, Scheme::Synchronous, 1, 1);
    let reference_elapsed = reference.elapsed;

    let mut rows = Vec::new();
    for &clusters in &[1usize, 2] {
        for &scheme in &[Scheme::Synchronous, Scheme::Asynchronous, Scheme::Hybrid] {
            for &peers in &config.peer_counts {
                if peers == 1 {
                    // A single peer has no communication; the reference row
                    // already covers it (the paper's figures likewise have a
                    // single 1-machine bar).
                    continue;
                }
                if clusters == 2 && peers < 2 {
                    continue;
                }
                if !keep(scheme, clusters, peers) {
                    continue;
                }
                let measurement = run_single(config, compute, scheme, peers, clusters);
                rows.push(derive_row(
                    &scheme.to_string(),
                    if clusters == 1 {
                        "1 cluster"
                    } else {
                        "2 clusters"
                    },
                    reference_elapsed,
                    &measurement,
                ));
            }
        }
    }
    // Reference row first.
    let mut all_rows = vec![derive_row(
        "synchronous",
        "1 cluster",
        reference_elapsed,
        &reference,
    )];
    all_rows.extend(rows);
    FigureResult {
        title: title.to_string(),
        config: config.clone(),
        rows: all_rows,
    }
}

fn run_single(
    config: &FigureConfig,
    compute: ComputeModel,
    scheme: Scheme,
    peers: usize,
    clusters: usize,
) -> p2pdc::RunMeasurement {
    let workload = WorkloadKind::Obstacle.build(config.n, peers);
    let mut run = RunConfig::clustered(scheme, peers, clusters);
    run.tolerance = config.tolerance;
    run.compute = compute;
    run_on(workload.as_ref(), &run, RuntimeKind::Sim).measurement
}

/// One row of the peer-scaling curve: the reactor backend multiplexing
/// `peers` engines over nonblocking localhost sockets on a handful of event
/// loops — the regime where one-OS-thread-per-peer backends stop scaling.
/// The curve runs asynchronous PageRank: its vertex count scales linearly
/// with the peer count, keeping per-peer work constant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScaleBenchRow {
    /// Number of peers multiplexed onto the event loops.
    pub peers: usize,
    /// Problem size (PageRank vertices = 4 × peers).
    pub size: usize,
    /// Event loops the run was multiplexed onto.
    pub event_loops: usize,
    /// Whether the run included one seeded crash + recovery.
    pub churn: bool,
    /// Real time the whole run took on the bench machine, in seconds.
    pub wall_time_s: f64,
    /// The elapsed time the runtime itself reported, in seconds.
    pub reported_elapsed_s: f64,
    /// Total relaxations across all peers.
    pub total_relaxations: u64,
    /// Whether the run converged.
    pub converged: bool,
    /// Residual of the assembled solution under the workload's metric.
    pub residual: f64,
    /// Crashes injected (0 on fault-free rows).
    pub crashes: u64,
    /// Recoveries completed (must equal `crashes` on a healthy run).
    pub recoveries: u64,
}

/// Run one cell of the peer-scaling curve: PageRank with 4 vertices per
/// peer, asynchronous scheme, on the reactor backend; optionally with one
/// seeded mid-run crash (checkpointed, detected, recovered live).
pub fn run_scale_once(peers: usize, churn: bool) -> ScaleBenchRow {
    let size = peers * 4;
    let workload = WorkloadKind::PageRank.build(size, peers);
    let mut config = RunConfig::single_cluster(Scheme::Asynchronous, peers).with_extras(
        BackendExtras::Reactor {
            event_loops: 0, // auto: one per core
            loss_probability: 0.0,
            reorder_probability: 0.0,
        },
    );
    config.tolerance = 1e-6;
    if churn {
        config = config.with_churn(ChurnPlan::kill(peers / 2, 12).with_checkpoint_interval(5));
    }
    let event_loops = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .clamp(1, peers);
    let started = Instant::now();
    let result = run_on(workload.as_ref(), &config, RuntimeKind::Reactor);
    let wall = started.elapsed();
    ScaleBenchRow {
        peers,
        size,
        event_loops,
        churn,
        wall_time_s: wall.as_secs_f64(),
        reported_elapsed_s: result.measurement.elapsed.as_secs_f64(),
        total_relaxations: result.measurement.total_relaxations(),
        converged: result.measurement.converged,
        residual: result.measurement.residual,
        crashes: result.measurement.crashes,
        recoveries: result.measurement.recoveries,
    }
}

/// Run the peer-scaling curve. The CI smoke sweep stops at 256 peers; the
/// full (local/nightly) sweep adds the 1024-peer point and a 1024-peer run
/// with one seeded crash + recovery.
pub fn run_scale_curve(full: bool) -> Vec<ScaleBenchRow> {
    let mut rows = vec![run_scale_once(64, false), run_scale_once(256, false)];
    if full {
        rows.push(run_scale_once(1024, false));
        rows.push(run_scale_once(1024, true));
    }
    rows
}

/// Render the peer-scaling curve as text.
pub fn format_scale_curve(rows: &[ScaleBenchRow]) -> String {
    let mut out = String::from("== Reactor peer-scaling curve ==\n");
    out.push_str(&format!(
        "{:<8} {:<8} {:<7} {:>10} {:>13} {:>13} {:>8} {:>10}\n",
        "peers", "loops", "churn", "wall [s]", "relaxations", "crash/rec", "conv", "residual"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<8} {:<7} {:>10.3} {:>13} {:>13} {:>8} {:>10.2e}\n",
            r.peers,
            r.event_loops,
            r.churn,
            r.wall_time_s,
            r.total_relaxations,
            format!("{}/{}", r.crashes, r.recoveries),
            r.converged,
            r.residual
        ));
    }
    out
}

/// The Table I verification: for every (scheme, connection) cell, the
/// controller's decision compared to the paper's table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Scheme of computation.
    pub scheme: String,
    /// Connection type.
    pub connection: String,
    /// Communication mode the controller selected.
    pub mode: String,
    /// Reliability the controller selected.
    pub reliability: String,
    /// Congestion control the controller selected.
    pub congestion: String,
    /// The paper's expected (mode, reliability) for that cell.
    pub paper_expected: String,
    /// Whether the decision matches the paper.
    pub matches_paper: bool,
}

/// Evaluate all six cells of Table I against the paper.
pub fn run_table1() -> Vec<Table1Row> {
    use netsim::ConnectionType;
    use p2psap::{CommunicationMode, Controller, Reliability};
    let controller = Controller::with_table1_rules();
    let expectations = [
        (
            Scheme::Synchronous,
            ConnectionType::IntraCluster,
            "synchronous reliable",
        ),
        (
            Scheme::Synchronous,
            ConnectionType::InterCluster,
            "synchronous reliable",
        ),
        (
            Scheme::Asynchronous,
            ConnectionType::IntraCluster,
            "asynchronous reliable",
        ),
        (
            Scheme::Asynchronous,
            ConnectionType::InterCluster,
            "asynchronous unreliable",
        ),
        (
            Scheme::Hybrid,
            ConnectionType::IntraCluster,
            "synchronous reliable",
        ),
        (
            Scheme::Hybrid,
            ConnectionType::InterCluster,
            "asynchronous unreliable",
        ),
    ];
    expectations
        .iter()
        .map(|(scheme, connection, expected)| {
            let cfg = controller.decide_for(*scheme, *connection);
            let mode = match cfg.mode {
                CommunicationMode::Synchronous => "synchronous",
                CommunicationMode::Asynchronous => "asynchronous",
            };
            let reliability = match cfg.reliability {
                Reliability::Reliable => "reliable",
                Reliability::Unreliable => "unreliable",
            };
            let decided = format!("{mode} {reliability}");
            Table1Row {
                scheme: scheme.to_string(),
                connection: match connection {
                    ConnectionType::IntraCluster => "intra-cluster".to_string(),
                    ConnectionType::InterCluster => "inter-cluster".to_string(),
                },
                mode: mode.to_string(),
                reliability: reliability.to_string(),
                congestion: format!("{:?}", cfg.congestion),
                paper_expected: expected.to_string(),
                matches_paper: decided == *expected,
            }
        })
        .collect()
}

/// Render the Table I verification as text.
pub fn format_table1(rows: &[Table1Row]) -> String {
    let mut out = String::from("== Table I: communication adaptation rules ==\n");
    out.push_str(&format!(
        "{:<14} {:<14} {:<14} {:<12} {:<10} {:<24} {}\n",
        "scheme", "connection", "mode", "reliability", "congestion", "paper expects", "match"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<14} {:<14} {:<12} {:<10} {:<24} {}\n",
            r.scheme,
            r.connection,
            r.mode,
            r.reliability,
            r.congestion,
            r.paper_expected,
            r.matches_paper
        ));
    }
    out
}

/// One ablation comparison: the effect of pinning a data-channel design
/// choice away from the Table I decision.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationRow {
    /// Description of the variant.
    pub variant: String,
    /// Synchronous-send completion latency in milliseconds (mean).
    pub sync_send_latency_ms: f64,
    /// Number of data segments put on the wire for 100 application sends.
    pub wire_segments: u64,
}

/// Session-level ablation: compare reliable vs unreliable and New-Reno vs
/// H-TCP channels on an emulated lossy inter-cluster path by replaying a
/// fixed exchange of 100 sends with a given loss pattern.
pub fn run_ablation() -> Vec<AblationRow> {
    use bytes::Bytes;
    use p2psap::{ChannelConfig, Session};
    let mut rows = Vec::new();
    for (label, cfg, loss_every) in [
        (
            "async unreliable (Table I inter-cluster choice)",
            ChannelConfig::asynchronous_unreliable(),
            10usize,
        ),
        (
            "async reliable (ablation: keep reliability on the WAN)",
            ChannelConfig::asynchronous_reliable(),
            10usize,
        ),
        (
            "sync reliable (ablation: force synchronous on the WAN)",
            ChannelConfig::synchronous_reliable(),
            10usize,
        ),
    ] {
        let mut tx = Session::new(cfg);
        let mut rx = Session::new(cfg);
        let mut wire_segments = 0u64;
        let mut completion_delays = Vec::new();
        let rtt_ns: u64 = 200_000_000; // 100 ms each way
        let mut now: u64 = 0;
        for i in 0..100usize {
            now += 1_000_000;
            let (seq, out) = tx.send(Bytes::from(vec![0u8; 1024]), now);
            let mut acks = Vec::new();
            for (k, seg) in out.wire.iter().enumerate() {
                wire_segments += 1;
                let dropped = loss_every > 0 && (i + k) % loss_every == 0;
                if dropped {
                    continue;
                }
                let deliver_time = now + rtt_ns / 2;
                let rx_out = rx.on_wire(seg.clone(), deliver_time);
                for back in rx_out.wire {
                    acks.push((back, deliver_time + rtt_ns / 2));
                }
            }
            let mut completed_at = None;
            for (ack, at) in acks {
                let tx_out = tx.on_wire(ack, at);
                if tx_out.completions.contains(&seq) {
                    completed_at = Some(at);
                }
            }
            if let Some(at) = completed_at {
                completion_delays.push((at - now) as f64 / 1e6);
            } else if cfg.mode == p2psap::CommunicationMode::Asynchronous {
                completion_delays.push(0.0);
            }
        }
        let mean = if completion_delays.is_empty() {
            f64::NAN
        } else {
            completion_delays.iter().sum::<f64>() / completion_delays.len() as f64
        };
        rows.push(AblationRow {
            variant: label.to_string(),
            sync_send_latency_ms: mean,
            wire_segments,
        });
    }
    rows
}

/// Render the ablation rows as text.
pub fn format_ablation(rows: &[AblationRow]) -> String {
    let mut out =
        String::from("== Ablation: data-channel configuration on a lossy 100 ms path ==\n");
    out.push_str(&format!(
        "{:<55} {:>22} {:>15}\n",
        "variant", "send latency [ms]", "wire segments"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<55} {:>22.2} {:>15}\n",
            r.variant, r.sync_send_latency_ms, r.wire_segments
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_the_paper_in_all_six_cells() {
        let rows = run_table1();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|r| r.matches_paper));
    }

    #[test]
    fn compute_model_scaling_preserves_granularity() {
        let scaled = FigureConfig::figure5(false);
        let full = FigureConfig::figure5(true);
        // Per-sweep virtual cost of the whole grid must match between the
        // scaled and full configurations.
        let scaled_cost = scaled.compute_model().ns_per_point * (scaled.n as f64).powi(3);
        let full_cost = full.compute_model().ns_per_point * (full.n as f64).powi(3);
        assert!((scaled_cost - full_cost).abs() / full_cost < 1e-12);
    }

    #[test]
    fn ablation_produces_three_variants() {
        let rows = run_ablation();
        assert_eq!(rows.len(), 3);
        // The synchronous variant has a real (positive) completion latency.
        assert!(rows[2].sync_send_latency_ms > 100.0);
        // Reliable variants put more segments on the wire than the unreliable one.
        assert!(rows[1].wire_segments >= rows[0].wire_segments);
    }

    #[test]
    fn scale_cell_runs() {
        // A miniature cell keeps the test fast; the 64/256-peer sweep runs
        // in CI's bench-smoke job and the 1024-peer points run nightly.
        let row = run_scale_once(8, false);
        assert!(row.converged, "8-peer reactor cell did not converge");
        assert_eq!(row.size, 32);
        assert_eq!(row.crashes, 0);
        assert!(row.event_loops >= 1);
        assert!(row.wall_time_s > 0.0);
    }

    #[test]
    fn tiny_figure_sweep_produces_consistent_rows() {
        let config = FigureConfig {
            n: 8,
            paper_n: 8,
            tolerance: 1e-3,
            peer_counts: vec![1, 2, 4],
        };
        let result = run_figure_filtered("tiny", &config, |_, clusters, _| clusters == 1);
        assert!(result.rows.len() >= 7);
        for row in &result.rows {
            assert!(row.converged, "row {row:?} did not converge");
            assert!(row.time_s > 0.0);
            assert!(row.speedup > 0.0);
        }
        // The single-peer reference has speedup exactly 1.
        assert!((result.rows[0].speedup - 1.0).abs() < 1e-9);
    }
}
