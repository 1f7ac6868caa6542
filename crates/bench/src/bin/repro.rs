//! `repro` — regenerate the paper's evaluation artifacts.
//!
//! Usage:
//!
//! ```text
//! repro table1                 # Table I: adaptation rules
//! repro fig5 [--full]          # Figure 5: 96³ obstacle problem (default: scaled 32³)
//! repro fig6 [--full]          # Figure 6: 144³ obstacle problem (default: scaled 48³)
//! repro ablation               # data-channel design-choice ablation
//! repro scale [--full]         # reactor peer-scaling curve (64/256; --full adds 1024 and a
//!                              # 1024-peer crash+recovery run)
//! repro fuzz [--seed-batch ci | --seed N] [--count N]
//!                              # scenario fuzzer: seeded random churn plans over random
//!                              # (workload x scheme x control plane) configs, run on sim +
//!                              # loopback and checked against the invariant oracles; failing
//!                              # plans shrink to minimal repros under results/fuzz_repros/
//! repro fuzz --replay <file>   # re-run one saved minimal repro and compare its violations
//! repro all [--full]           # table1, fig5, fig6, ablation, scale
//! ```
//!
//! Results are printed as text tables and also written as JSON under
//! `results/`. Timings and per-layer costs are the benchmark's business
//! (`benchmark/README.md`), not this binary's.

use bench_suite::{
    format_ablation, format_scale_curve, format_table1, run_ablation, run_figure, run_scale_curve,
    run_table1, FigureConfig,
};
use p2pdc::format_table;

fn write_json(name: &str, value: &impl serde::Serialize) {
    let _ = std::fs::create_dir_all("results");
    let path = format!("results/{name}.json");
    match serde_json::to_string_pretty(value) {
        Ok(body) => match std::fs::write(&path, body) {
            Ok(()) => eprintln!("(wrote {path})"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        },
        Err(e) => eprintln!("could not serialize {path}: {e}"),
    }
}

fn run_fig(which: u8, full: bool) {
    let (config, paper_label) = match which {
        5 => (FigureConfig::figure5(full), "96x96x96"),
        _ => (FigureConfig::figure6(full), "144x144x144"),
    };
    let title = format!(
        "Figure {which}: obstacle problem {paper_label} (simulated at {n}^3, granularity-preserving compute model)",
        n = config.n
    );
    eprintln!("running {title} ...");
    let result = run_figure(&title, &config);
    println!("{}", format_table(&result.title, &result.rows));
    write_json(
        &format!("fig{which}{}", if full { "_full" } else { "" }),
        &result,
    );
}

fn run_scale(full: bool) {
    eprintln!("running the reactor peer-scaling curve ...");
    let rows = run_scale_curve(full);
    println!("{}", format_scale_curve(&rows));
    write_json("scale", &rows);
    if !rows.iter().all(|r| r.converged) {
        eprintln!("WARNING: a peer-scaling cell failed to converge");
        std::process::exit(1);
    }
}

/// The pinned master seed and batch size of `repro fuzz --seed-batch ci`
/// (the CI fuzz-smoke job): ≥ 40 plans covering the full
/// (workload × scheme × control plane) grid at least twice.
const CI_FUZZ_SEED: u64 = 42;
const CI_FUZZ_COUNT: usize = 40;

fn run_fuzz(args: &[String]) {
    use p2pdc::scenario::{check_case, fuzz};

    // --replay <file>: re-run one saved minimal repro.
    if let Some(at) = args.iter().position(|a| a == "--replay") {
        let Some(path) = args.get(at + 1) else {
            eprintln!("--replay needs a file path");
            std::process::exit(2);
        };
        let repro = match fuzz::load_repro(std::path::Path::new(path)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(2);
            }
        };
        eprintln!("replaying {} ({})", path, repro.case.label());
        let violations = check_case(&repro.case);
        for v in &violations {
            println!("[{}] {}", v.oracle, v.detail);
        }
        if violations == repro.violations {
            eprintln!("replay reproduced the saved violations exactly");
            std::process::exit(if violations.is_empty() { 0 } else { 1 });
        }
        eprintln!(
            "replay DIVERGED from the saved violations (saved {:?})",
            repro.violations
        );
        std::process::exit(1);
    }

    let seed = if args.iter().any(|a| a == "--seed-batch") {
        CI_FUZZ_SEED
    } else {
        args.iter()
            .position(|a| a == "--seed")
            .and_then(|at| args.get(at + 1))
            .and_then(|s| s.parse().ok())
            .unwrap_or(CI_FUZZ_SEED)
    };

    // --only <index>: debug one generated case with per-backend timing and
    // the raw measurements (the batch only prints oracle verdicts).
    if let Some(at) = args.iter().position(|a| a == "--only") {
        let Some(index) = args.get(at + 1).and_then(|s| s.parse().ok()) else {
            eprintln!("--only needs a case index");
            std::process::exit(2);
        };
        let case = fuzz::generate_case(seed, index);
        eprintln!("case {index:03} {}", case.label());
        eprintln!("{}", serde_json::to_string_pretty(&case).unwrap());
        let workload = case.workload.build(case.size, case.peers);
        let config = case.config();
        for kind in [p2pdc::RuntimeKind::Sim, p2pdc::RuntimeKind::Loopback] {
            let start = std::time::Instant::now();
            let result = p2pdc::run_on(workload.as_ref(), &config, kind);
            let m = &result.measurement;
            eprintln!(
                "  {kind:?}: {:.2?} wall, converged={} residual={:.3e} relax={:?} crashes={} recoveries={} joins={} repartitions={}",
                start.elapsed(),
                m.converged,
                m.residual,
                m.relaxations_per_peer,
                m.crashes,
                m.recoveries,
                m.joins,
                m.repartitions,
            );
        }
        let mut counter = config.clone();
        counter.control_plane = case.counterpart_control();
        let start = std::time::Instant::now();
        let result = p2pdc::run_on(workload.as_ref(), &counter, p2pdc::RuntimeKind::Loopback);
        let m = &result.measurement;
        eprintln!(
            "  Loopback/{:?}: {:.2?} wall, converged={} residual={:.3e} relax={:?} crashes={} recoveries={} joins={} repartitions={}",
            counter.control_plane,
            start.elapsed(),
            m.converged,
            m.residual,
            m.relaxations_per_peer,
            m.crashes,
            m.recoveries,
            m.joins,
            m.repartitions,
        );
        let violations = check_case(&case);
        for v in &violations {
            println!("[{}] {}", v.oracle, v.detail);
        }
        if !violations.is_empty() && args.iter().any(|a| a == "--shrink") {
            let start = std::time::Instant::now();
            let shrunk = fuzz::shrink(&case);
            eprintln!(
                "  shrink: {:.2?} wall, {} -> {} events",
                start.elapsed(),
                case.plan.events.len(),
                shrunk.plan.events.len()
            );
            eprintln!("{}", serde_json::to_string_pretty(&shrunk.plan).unwrap());
        }
        std::process::exit(if violations.is_empty() { 0 } else { 1 });
    }
    let count = args
        .iter()
        .position(|a| a == "--count")
        .and_then(|at| args.get(at + 1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(CI_FUZZ_COUNT);

    eprintln!("fuzzing {count} scenario plans from master seed {seed} (sim + loopback) ...");
    let outcome = fuzz::run_batch(seed, count, &mut |index, case, violations| {
        if violations.is_empty() {
            eprintln!("  case {index:03} ok       {}", case.label());
        } else {
            eprintln!("  case {index:03} FAILED   {}", case.label());
            for v in violations {
                eprintln!("           [{}] {}", v.oracle, v.detail);
            }
        }
    });
    write_json("fuzz", &outcome);
    if outcome.failures.is_empty() {
        eprintln!("all {count} plans hold every oracle");
        return;
    }
    let dir = std::path::Path::new("results/fuzz_repros");
    for failure in &outcome.failures {
        eprintln!(
            "case {:03} shrank from {} to {} events; violations: {}",
            failure.index,
            failure.case.plan.events.len(),
            failure.shrunk.plan.events.len(),
            failure
                .shrunk_violations
                .iter()
                .map(|v| v.oracle.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        );
        match fuzz::save_repro(dir, failure) {
            Ok(path) => eprintln!("  minimal repro saved to {}", path.display()),
            Err(e) => eprintln!("  could not save the repro: {e}"),
        }
    }
    eprintln!(
        "WARNING: {} of {count} plans violated an oracle",
        outcome.failures.len()
    );
    std::process::exit(1);
}

fn run_table1_check() {
    let rows = run_table1();
    println!("{}", format_table1(&rows));
    write_json("table1", &rows);
    if !rows.iter().all(|r| r.matches_paper) {
        eprintln!("WARNING: controller decisions deviate from the paper's Table I");
        std::process::exit(1);
    }
}

fn run_ablation_table() {
    let rows = run_ablation();
    println!("{}", format_ablation(&rows));
    write_json("ablation", &rows);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(|s| s.as_str()).unwrap_or("all");
    let full = args.iter().any(|a| a == "--full");

    match command {
        "table1" => run_table1_check(),
        "fig5" => run_fig(5, full),
        "fig6" => run_fig(6, full),
        "ablation" => run_ablation_table(),
        "scale" => run_scale(full),
        "fuzz" => run_fuzz(&args[1..]),
        "all" => {
            run_table1_check();
            run_fig(5, full);
            run_fig(6, full);
            run_ablation_table();
            run_scale(full);
        }
        other => {
            eprintln!(
                "unknown command '{other}'; expected table1 | fig5 | fig6 | ablation | scale | fuzz | all"
            );
            std::process::exit(2);
        }
    }
}
