//! Command line of the `bench` / `bench-trace` binaries.
//!
//! ```text
//! bench --workload <name> --seed <u64> --seconds <n> --trace <0|1>   one pass of one workload
//! bench run --seed <u64> [--quick] [--out <file>]                     the full set, one child per pass
//! bench agree <a.json> <b.json>                                       compare two full sets
//! ```

use crate::measured;
use crate::metrics::{MetricDef, Metrics, END_TO_END, PER_LAYER, REPORTED};
use crate::report;
use crate::solve::{Event, Sample};
use crate::traced;
use crate::workloads::{self, Spec};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Longest one solve (or one set-up step) may take before the pass counts as
/// wedged: the solve is recorded as failed and the benchmark ends instead of
/// hanging.
const WATCHDOG: Duration = Duration::from_secs(30);

/// Starts the line of the measured pass that carries the [`REPORTED`]
/// metrics as JSON, right before the result line.
pub const REPORTED_PREFIX: &str = "# reported ";

/// The arguments of one pass.
#[derive(Debug, Clone)]
pub struct PassArgs {
    /// The workload to run.
    pub spec: &'static Spec,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Seconds the pass measures for.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the measured pass.
    pub trace: bool,
    /// Stop after this many measured solves even if the window is not over
    /// (`--quick`).
    pub max_solves: Option<u64>,
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  bench --workload <{}> --seed <u64> --seconds <n> --trace <0|1>\n  bench run --seed <u64> [--quick] [--out <file>]\n  bench agree <a.json> <b.json>",
        workloads::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

/// Value of `--flag` in `args`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let at = args.iter().position(|a| a == name)?;
    match args.get(at + 1).map(|v| v.parse()) {
        Some(Ok(value)) => Some(value),
        _ => {
            eprintln!("bad or missing value for {name}");
            usage()
        }
    }
}

/// Entry point of both binaries; `counting_allocator` says which one runs.
pub fn main(counting_allocator: bool) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let seed = flag(&args, "--seed").unwrap_or_else(|| usage());
            let quick = args.iter().any(|a| a == "--quick");
            let out: Option<String> = flag(&args, "--out");
            std::process::exit(report::run_full_set(seed, quick, out.as_deref()));
        }
        Some("agree") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => std::process::exit(report::agree(a, b)),
            _ => usage(),
        },
        _ => {}
    }
    let name: String = flag(&args, "--workload").unwrap_or_else(|| usage());
    let Some(spec) = workloads::find(&name) else {
        eprintln!("unknown workload {name}");
        usage()
    };
    let trace = match flag::<u8>(&args, "--trace") {
        Some(0) => false,
        Some(1) => true,
        _ => usage(),
    };
    let pass = PassArgs {
        spec,
        seed: flag(&args, "--seed").unwrap_or_else(|| usage()),
        seconds: flag(&args, "--seconds").unwrap_or_else(|| usage()),
        trace,
        max_solves: flag(&args, "--max-solves"),
    };
    if pass.trace && !counting_allocator {
        exec_sibling("bench-trace", &args);
    }
    std::process::exit(run_pass(&pass));
}

/// One `name value unit` line per metric of `defs`.
fn print_table(defs: &[MetricDef], metrics: &Metrics) {
    for def in defs {
        let value = metrics
            .get(def.name)
            .expect("every defined metric is measured");
        println!("{:<40} {:>16.9} {}", def.name, value, def.unit);
    }
}

/// Replace this process with the sibling binary `name` (same directory).
fn exec_sibling(name: &str, args: &[String]) -> ! {
    use std::os::unix::process::CommandExt;
    let sibling = std::env::current_exe()
        .expect("path of the running binary")
        .with_file_name(name);
    let error = std::process::Command::new(&sibling).args(args).exec();
    eprintln!("cannot execute {}: {error}", sibling.display());
    std::process::exit(1);
}

/// Run one pass under the watchdog and print its result. Returns the exit
/// code.
fn run_pass(pass: &PassArgs) -> i32 {
    let (progress, events) = mpsc::channel();
    let worker = {
        let pass = pass.clone();
        std::thread::Builder::new()
            .name("pass".into())
            .spawn(move || {
                if pass.trace {
                    traced::run(pass.spec, pass.seed, pass.seconds, &progress);
                } else {
                    measured::run(
                        pass.spec,
                        pass.seed,
                        pass.seconds,
                        pass.max_solves,
                        &progress,
                    );
                }
            })
            .expect("spawn the pass thread")
    };

    let mut samples: Vec<Sample> = Vec::new();
    let mut layers: Option<Metrics> = None;
    let mut wedged = false;
    loop {
        match events.recv_timeout(WATCHDOG) {
            Ok(Event::Progress) => {}
            Ok(Event::Solved(sample)) => {
                if let Some(why) = &sample.failure {
                    eprintln!("solve {} failed: {why}", samples.len());
                }
                samples.push(sample);
            }
            Ok(Event::Layers(metrics)) => layers = Some(*metrics),
            Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                eprintln!("no progress for {WATCHDOG:?}: the running solve counts as failed");
                wedged = true;
                break;
            }
        }
    }
    // A wedged pass thread cannot be joined; the process exit below ends it.
    if !wedged && worker.join().is_err() {
        eprintln!("the pass panicked outside a solve");
        return 1;
    }

    let attempted = samples.len() + usize::from(wedged);
    let failed = samples.iter().filter(|s| s.failure.is_some()).count() + usize::from(wedged);
    let (defs, metrics) = if pass.trace {
        let Some(layers) = layers else {
            eprintln!("the traced pass did not finish: no per-layer metrics");
            return 1;
        };
        (&PER_LAYER[..], layers)
    } else {
        (
            &END_TO_END[..],
            measured::end_to_end(&samples, WATCHDOG.as_secs_f64()),
        )
    };
    if attempted == 0 {
        eprintln!("no solve was attempted");
        return 1;
    }

    println!(
        "# {} seed {} trace {} — {} solves, {} failed",
        pass.spec.name,
        pass.seed,
        u8::from(pass.trace),
        attempted,
        failed
    );
    print_table(defs, &metrics);
    if !pass.trace {
        let reported = measured::reported(&samples, attempted, failed);
        print_table(&REPORTED, &reported);
        for note in measured::notes(&samples) {
            println!("# {note}");
        }
        report::write_samples(pass, &samples);
        // For `bench run`: the result line below carries the contract's
        // metrics and nothing else.
        println!(
            "{REPORTED_PREFIX}{}",
            serde_json::to_string(&reported.to_json(&REPORTED)).expect("serialize")
        );
    }
    let line = serde_json::json!({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics.to_json(defs),
    });
    println!(
        "{}",
        serde_json::to_string(&line).expect("serialize the result line")
    );
    if wedged {
        // Skip destructors: the wedged solve still holds sockets and threads.
        std::process::exit(0);
    }
    0
}
