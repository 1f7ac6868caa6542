//! The benchmark's metric names, units and directions — the one list the
//! binaries print from and `BENCHMARK.json` is checked against.

/// One metric definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median; 0 for a metric
    /// that is not gated (every per-layer metric).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: 0.0,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
        bound: 0.0,
    }
}

/// What a user of the system sees, per workload (`--trace 0`): the metrics
/// of the result line, gated by the benchmark contract.
///
/// Every bound is the contract's cap of 25 %: on the shared 2-core reference
/// box the CPU's speed wanders by 5–10 % from run to run and steps by 25 %
/// or more for minutes at a time, so ten runs of one commit spread by up to
/// 12 % on a quiet hour.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("solve_s_p50", "s", 0.25),
    e2e("solve_cpu_s_p50", "s", 0.25),
    e2e("peak_rss_mb", "MiB", 0.25),
    e2e("setup_s", "s", 0.25),
];

/// End-to-end metrics the measured pass computes from the same samples and
/// prints by name, but which the contract's result line cannot carry: it
/// wants every metric non-zero on every workload and steady within 25 % over
/// ten runs. They travel in the result sets of `bench run`, and `bench
/// agree` gates the ones with a bound.
pub const REPORTED: [MetricDef; 3] = [
    // Single solves return on a 24 ms tick, so the p90 sits on one of two
    // neighbouring ticks (a 14 % step): printed with its sample count, no gate.
    e2e("solve_s_p90", "s", 0.0),
    // 0 on the three workloads without a crash; gated where it is not.
    e2e("recovery_s_p50", "s", 0.15),
    // 0 on a healthy run; `agree` refuses any failed solve outright.
    e2e("failed_share", "ratio", 0.0),
];

/// Single-layer metrics from the traced pass (`--trace 1`); layer = module.
pub const PER_LAYER: [MetricDef; 68] = [
    // Application kernel (obstacle::block on the obstacle rows,
    // pagerank_app::pagerank_step on the pagerank rows) and its plain
    // sequential baseline.
    lower("obstacle.sweep_ns_per_point", "ns/point"),
    lower("obstacle.points_per_solve", "count"),
    higher("obstacle.gb_per_s_computed", "GB/s"),
    lower("obstacle.sequential_solve_s", "s"),
    lower("engine.overhead_vs_sequential", "ratio"),
    // Application boundary (app.rs, *_app.rs): spans on the real backend.
    lower("app.relax_s_per_solve", "s"),
    lower("app.encode_s_per_solve", "s"),
    lower("app.incorporate_s_per_solve", "s"),
    lower("app.checkpoint_s_per_solve", "s"),
    lower("app.restore_s_per_solve", "s"),
    higher("app.relax_share_of_solve", "ratio"),
    lower("app.encode_ns_per_exchange", "ns"),
    lower("app.encode_allocs_per_exchange", "count"),
    lower("app.frames_per_relaxation", "count"),
    lower("app.bytes_per_frame", "B"),
    // P2PSAP session + cactus composite stack.
    lower("p2psap.roundtrip_ns_reliable", "ns"),
    lower("p2psap.roundtrip_ns_unreliable", "ns"),
    lower("p2psap.allocs_per_send", "count"),
    lower("p2psap.wire_overhead_bytes", "B"),
    lower("cactus.dispatch_ns", "ns"),
    // runtime::udp framing.
    lower("framing.encode_ns_per_datagram", "ns"),
    lower("framing.reassemble_ns_per_datagram", "ns"),
    lower("framing.datagrams_per_msg", "count"),
    lower("framing.allocs_per_msg", "count"),
    // Sockets, the vendored poller and the kernel's share.
    lower("socket.sendrecv_ns_per_datagram", "ns"),
    lower("poll.wake_ns", "ns"),
    lower("proc.sys_share", "ratio"),
    lower("proc.ctx_switches_per_solve", "count"),
    // runtime::engine.
    lower("engine.relaxations_per_solve", "count"),
    lower("engine.min_relaxations_per_solve", "count"),
    lower("engine.runtime_cpu_s_per_solve", "s"),
    lower("engine.runtime_idle_s_per_solve", "s"),
    lower("engine.idle_share", "ratio"),
    lower("engine.allocs_per_relaxation", "count"),
    // runtime::reactor.
    lower("reactor.out_of_clock_s_p50", "s"),
    lower("reactor.loop_busy_share_max", "ratio"),
    higher("reactor.loop_busy_share_min", "ratio"),
    lower("reactor.migrations_per_solve", "count"),
    lower("reactor.startup_stall_share", "ratio"),
    lower("reactor.solve_s_max", "s"),
    lower("reactor.slow_solves", "count"),
    // Control plane: report_cell, churn, topology_manager.
    lower("detector.publish_ns", "ns"),
    lower("detector.locks_per_relaxation", "count"),
    lower("detector.report_locks_per_relaxation", "count"),
    lower("volatility.sweep_locks_per_relaxation", "count"),
    lower("topology.locks_per_relaxation", "count"),
    lower("topology.ping_many_ns", "ns"),
    lower("churn.checkpoint_ns", "ns"),
    lower("churn.checkpoint_bytes", "B"),
    lower("churn.restore_ns", "ns"),
    lower("churn.recoveries_per_solve", "count"),
    lower("churn.recovery_s_p50", "s"),
    lower("churn.overhead_relaxations_pct", "%"),
    // gossip.
    lower("gossip.codec_encode_ns", "ns"),
    lower("gossip.codec_decode_ns", "ns"),
    lower("gossip.datagram_bytes", "B"),
    lower("gossip.probes_per_solve", "count"),
    lower("gossip.rumors_per_solve", "count"),
    lower("gossip.indirect_probe_share", "ratio"),
    lower("gossip.death_verdicts_per_solve", "count"),
    lower("gossip.decision_lag_relaxations", "count"),
    // workload: assembly and the residual metric.
    lower("workload.assemble_ns", "ns"),
    lower("workload.residual_ns", "ns"),
    // Deterministic model guard on the simulated backend (virtual time).
    lower("sim.virtual_s_sync_2c16", "sim_s"),
    lower("sim.virtual_s_async_2c16", "sim_s"),
    higher("sim.events_per_wall_s", "1/s"),
    // Harness validity.
    lower("trace.overhead_share", "ratio"),
    lower("model.unattributed_share", "ratio"),
];

/// Measured values keyed by metric name, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Record `name = value`. Panics on a name recorded twice.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(self.get(name).is_none(), "metric {name} recorded twice");
        self.0.push((name, value));
    }

    /// Look a recorded value up.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Render exactly the metrics of `defs`, in their order, as the
    /// `metrics` object of the result line. Panics when a defined metric was
    /// never recorded or a recorded one is not defined — the binary prints
    /// the list it is checked against, nothing more and nothing less.
    pub fn to_json(&self, defs: &[MetricDef]) -> serde_json::Value {
        for (name, _) in &self.0 {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "metric {name} is not defined"
            );
        }
        serde_json::Value::Map(
            defs.iter()
                .map(|def| {
                    let value = self
                        .get(def.name)
                        .unwrap_or_else(|| panic!("metric {} was not measured", def.name));
                    (
                        def.name.to_string(),
                        serde_json::json!({"value": value, "unit": def.unit}),
                    )
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn names_and_units_fit_the_benchmark_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(&REPORTED).chain(&PER_LAYER) {
            assert!(valid_name(def.name), "bad metric name {}", def.name);
            assert!(
                valid_unit(def.unit),
                "bad unit {} of {}",
                def.unit,
                def.name
            );
            assert!(matches!(def.better, "lower" | "higher"));
            assert!(seen.insert(def.name), "{} listed twice", def.name);
        }
        for spec in &WORKLOADS {
            assert!(valid_name(spec.name), "bad workload name {}", spec.name);
            assert!(seen.insert(spec.name), "{} used twice", spec.name);
            assert!(spec.why.len() <= 200 && !spec.why.contains('\n'));
        }
        for def in &END_TO_END {
            assert!(def.bound > 0.0 && def.bound <= 0.25, "{}", def.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
    }

    /// `BENCHMARK.json` lists exactly what the binaries print.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let serde_json::Value::Map(keys) = &json else {
            panic!("BENCHMARK.json is not an object");
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("array")
                .clone()
        };
        let text_of = |v: &serde_json::Value, key: &str| {
            v.get(key)
                .and_then(|s| s.as_str())
                .expect("string")
                .to_string()
        };

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text_of(w, "name"), text_of(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, expected);

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = list(key);
            assert_eq!(listed.len(), defs.len(), "{key} length");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(text_of(entry, "name"), def.name);
                assert_eq!(text_of(entry, "unit"), def.unit, "{}", def.name);
                assert_eq!(text_of(entry, "better"), def.better, "{}", def.name);
                let bound = entry.get("bound").and_then(|b| b.as_f64());
                if key == "end_to_end" {
                    assert_eq!(bound, Some(def.bound), "{}", def.name);
                } else {
                    assert_eq!(bound, None, "{} has no bound", def.name);
                }
            }
        }
        assert_eq!(
            json.get("paths").and_then(|p| p.as_array()).map(Vec::len),
            Some(1)
        );
        assert_eq!(
            json.get("run_seconds").and_then(|s| s.as_f64()),
            Some(crate::report::RUN_SECONDS as f64)
        );
    }
}
