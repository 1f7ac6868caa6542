//! Full result sets: `bench run` (every workload, measured pass then traced
//! pass, one child process per pass) and `bench agree` (two sets of one
//! commit must agree within the benchmark's own bounds).

use crate::cli::{PassArgs, REPORTED_PREFIX};
use crate::metrics::{MetricDef, END_TO_END, REPORTED};
use crate::solve::Sample;
use crate::traced::SIM_GUARD_WORKLOAD;
use crate::workloads::WORKLOADS;
use serde_json::{json, Value};
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Seconds each pass of a full set measures for (`run_seconds` of
/// `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 24;
/// Solves per workload of a `--quick` set.
const QUICK_SOLVES: u64 = 5;
/// A pass that has not exited after this long is killed (the contract's
/// limit for one run).
const PASS_TIMEOUT: Duration = Duration::from_secs(180);

/// Keep the raw samples of the measured pass beside the traces: when a
/// number looks odd, the evidence is already on disk.
pub fn write_samples(pass: &PassArgs, samples: &[Sample]) {
    let dir = crate::out_dir();
    let path = dir.join(format!("samples-{}.json", pass.spec.name));
    let doc = json!({
        "workload": pass.spec.name,
        "seed": pass.seed,
        "wall_s": samples.iter().map(|s| s.wall_s).collect::<Vec<f64>>(),
        "cpu_s": samples.iter().map(|s| s.cpu_s).collect::<Vec<f64>>(),
        "setup_s": samples.iter().map(|s| s.setup_s).collect::<Vec<f64>>(),
        "downtime_s": samples.iter().map(|s| s.downtime_s).collect::<Vec<f64>>(),
        "failures": samples.iter().filter_map(|s| s.failure.clone()).collect::<Vec<String>>(),
    });
    let text = serde_json::to_string(&doc).expect("serialize samples");
    if let Err(error) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("could not write {}: {error}", path.display());
    }
}

/// First line of a command's standard output, or "unknown".
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run one pass as a child process (the same entry point the benchmark
/// contract drives) and parse the result line it prints last.
fn run_child(workload: &str, seed: u64, trace: bool, quick: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if quick {
        command.args(["--max-solves", &QUICK_SOLVES.to_string()]);
    }
    let mut child = command
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stdout.read_to_string(&mut text);
        text
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| e.to_string())? {
            Some(status) => break status,
            None if started.elapsed() > PASS_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("killed after {PASS_TIMEOUT:?}"));
            }
            None => std::thread::sleep(Duration::from_millis(50)),
        }
    };
    let text = reader
        .join()
        .map_err(|_| "stdout reader panicked".to_string())?;
    if !status.success() {
        return Err(format!("exited with {status}"));
    }
    // Everything before the result line is the pass's own table of metrics;
    // the measured pass ends it with its reported metrics as JSON.
    let (table, line) = text.trim_end().rsplit_once('\n').ok_or("no result line")?;
    let result: Value = serde_json::from_str(line).map_err(|e| format!("result line: {e}"))?;
    let Value::Map(mut fields) = result else {
        return Err("result line is not an object".into());
    };
    for row in table.lines() {
        match row.strip_prefix(REPORTED_PREFIX) {
            Some(reported) => fields.push((
                "reported".to_string(),
                serde_json::from_str(reported).map_err(|e| format!("reported: {e}"))?,
            )),
            None => eprintln!("{row}"),
        }
    }
    Ok(Value::Map(fields))
}

/// `bench run`: every workload's measured pass, then (unless `quick`) its
/// traced pass, each in its own sequential child process. Prints the set as
/// JSON and writes it to `out` (default `benchmark/out/result-<seed>.json`).
pub fn run_full_set(seed: u64, quick: bool, out: Option<&str>) -> i32 {
    let mut workloads = Vec::new();
    let mut failures = 0;
    for spec in &WORKLOADS {
        let mut passes = Vec::new();
        for trace in [false, true] {
            if trace && quick {
                continue;
            }
            let label = if trace { "per_layer" } else { "end_to_end" };
            eprintln!("== {} {label}", spec.name);
            match run_child(spec.name, seed, trace, quick) {
                Ok(result) => {
                    if result.get("failed").and_then(Value::as_u64) != Some(0) {
                        failures += 1;
                    }
                    passes.push((label.to_string(), result));
                }
                Err(error) => {
                    eprintln!("{} {label}: {error}", spec.name);
                    failures += 1;
                }
            }
        }
        workloads.push((spec.name.to_string(), Value::Map(passes)));
    }
    let set = json!({
        "schema": 1,
        "quick": quick,
        "commit": first_line_of("git", &["rev-parse", "HEAD"]),
        "seed": seed,
        "run_seconds": RUN_SECONDS,
        "nproc": std::thread::available_parallelism().map_or(0, usize::from),
        "kernel": first_line_of("uname", &["-r"]),
        "rustc": first_line_of("rustc", &["-V"]),
        "workloads": Value::Map(workloads),
    });
    let text = serde_json::to_string_pretty(&set).expect("serialize the result set");
    let path = out.map_or_else(
        || crate::out_dir().join(format!("result-{seed}.json")),
        std::path::PathBuf::from,
    );
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&path, text + "\n") {
        Ok(()) => eprintln!("result set written to {}", path.display()),
        Err(error) => {
            eprintln!("could not write {}: {error}", path.display());
            return 1;
        }
    }
    i32::from(failures > 0)
}

fn load_set(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let set: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    if set.get("quick").and_then(Value::as_bool) != Some(false) {
        return Err(format!("{path}: a --quick set is not a measurement"));
    }
    Ok(set)
}

/// Metric `name` of `workload` under `pass` (`end_to_end` / `per_layer`) and
/// `group` (`metrics`, or `reported` beside the end-to-end ones).
fn metric_of(set: &Value, workload: &str, pass: &str, group: &str, name: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get(pass)?
        .get(group)?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// How much worse `b` is than `a`, as a share of `a`, in the metric's own
/// direction (negative: better).
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    match def.better {
        "lower" => b / a - 1.0,
        _ => a / b - 1.0,
    }
}

/// `bench agree`: two full sets of one commit must agree. Every end-to-end
/// metric of every workload may differ by at most its bound in either
/// direction, no solve may have failed, and the simulated backend's virtual
/// times must be bit-identical. Prints each ratio with its base.
pub fn agree(path_a: &str, path_b: &str) -> i32 {
    let (a, b) = match (load_set(path_a), load_set(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            for error in [a.err(), b.err()].into_iter().flatten() {
                eprintln!("{error}");
            }
            return 2;
        }
    };
    let mut disagreements = 0;
    let mut complain = |message: String| {
        println!("DISAGREE {message}");
        disagreements += 1;
    };
    println!(
        "{:<18} {:<18} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "a (base)", "b", "b/a", "bound"
    );
    for spec in &WORKLOADS {
        for set in [&a, &b] {
            for pass in ["end_to_end", "per_layer"] {
                let failed = set
                    .get("workloads")
                    .and_then(|w| w.get(spec.name))
                    .and_then(|w| w.get(pass))
                    .and_then(|p| p.get("failed"))
                    .and_then(Value::as_u64);
                if failed != Some(0) {
                    complain(format!(
                        "{} {pass}: failed solves or missing pass ({failed:?})",
                        spec.name
                    ));
                }
            }
        }
        let groups = [("metrics", &END_TO_END[..]), ("reported", &REPORTED[..])];
        for (group, defs) in groups {
            for def in defs {
                let values = (
                    metric_of(&a, spec.name, "end_to_end", group, def.name),
                    metric_of(&b, spec.name, "end_to_end", group, def.name),
                );
                let (Some(va), Some(vb)) = values else {
                    complain(format!("{} {}: missing", spec.name, def.name));
                    continue;
                };
                // A reported metric reads 0 where the workload has nothing
                // to report (no crash, no failure): nothing to compare.
                if (va, vb) == (0.0, 0.0) {
                    continue;
                }
                let gated = def.bound > 0.0;
                println!(
                    "{:<18} {:<18} {:>12.6} {:>12.6} {:>8.4} {:>7}",
                    spec.name,
                    def.name,
                    va,
                    vb,
                    vb / va,
                    if gated {
                        format!("{:.2}", def.bound)
                    } else {
                        "-".to_string()
                    }
                );
                let worse = worsening(def, va, vb).max(worsening(def, vb, va));
                if gated && (worse.is_nan() || worse > def.bound) {
                    complain(format!(
                        "{} {}: {va} vs {vb} differ by {:.1} % (bound {:.0} %)",
                        spec.name,
                        def.name,
                        worse * 100.0,
                        def.bound * 100.0
                    ));
                }
            }
        }
    }
    // The simulated backend's virtual times, from the one traced pass that
    // runs the guard.
    for name in ["sim.virtual_s_sync_2c16", "sim.virtual_s_async_2c16"] {
        let va = metric_of(&a, SIM_GUARD_WORKLOAD, "per_layer", "metrics", name);
        let vb = metric_of(&b, SIM_GUARD_WORKLOAD, "per_layer", "metrics", name);
        println!("{SIM_GUARD_WORKLOAD:<18} {name:<24} {va:?} {vb:?}");
        if va.is_none_or(|v| v <= 0.0) || va.map(f64::to_bits) != vb.map(f64::to_bits) {
            complain(format!("{name}: {va:?} vs {vb:?} must be bit-identical"));
        }
    }
    if disagreements == 0 {
        println!("the two sets agree within the benchmark's bounds");
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        let lower = END_TO_END[0];
        assert_eq!(lower.better, "lower");
        assert!((worsening(&lower, 1.0, 1.1) - 0.1).abs() < 1e-12);
        assert!(worsening(&lower, 1.0, 0.9) < 0.0);
        let higher = MetricDef {
            better: "higher",
            ..lower
        };
        assert!((worsening(&higher, 1.1, 1.0) - 0.1).abs() < 1e-12);
        assert!(worsening(&higher, 1.0, 1.1) < 0.0);
    }

    #[test]
    fn agree_refuses_quick_sets() {
        let dir = crate::out_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let quick = dir.join("test-quick-set.json");
        std::fs::write(&quick, r#"{"quick": true, "workloads": {}}"#).unwrap();
        let error = load_set(quick.to_str().unwrap()).unwrap_err();
        assert!(error.contains("--quick"), "{error}");
        std::fs::remove_file(&quick).unwrap();
    }
}
