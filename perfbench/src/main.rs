//! The repository's benchmark: four workloads driven through the
//! workspace crates' public functions, each output checked.
//!
//! ```text
//! perfbench --workload dense|tail|cluster|serve|all --seed N --seconds S --trace 0|1
//!           [--size full|tiny] [--corrupt]
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) times the calls into each layer and prints the
//! per-layer metrics. Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. A failed
//! output check is counted there and makes the exit code nonzero.
//! `--workload all` runs each workload in turn, each in its own process;
//! `--size tiny` shrinks every problem for the benchmark's own
//! tests; `--corrupt` corrupts one output before its check, as a
//! negative control. `perfbench shard-worker` is the shard worker the
//! `cluster` workload spawns.

mod cluster;
mod dense;
mod floor;
mod harness;
mod layers;
mod serve;
mod sink;
mod tail;

use std::process::{Command, ExitCode};

use harness::{host_line, print_metric, Args, Report};
use layers::{LayerValues, END_TO_END, PER_LAYER};

const WORKLOADS: &[&str] = &["dense", "tail", "cluster", "serve"];

fn main() -> ExitCode {
    harness::mark_process_start();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("shard-worker") {
        return match pba_cluster::worker::serve_stdio() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench shard-worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let mut layers = LayerValues::default();
    let mut report = match args.workload.as_str() {
        "dense" => dense::run_workload(&args, &mut layers),
        "tail" => tail::run_workload(&args, &mut layers),
        "cluster" => cluster::run_workload(&args, &mut layers),
        "serve" => serve::run_workload(&args, &mut layers),
        other => {
            eprintln!("perfbench: unknown workload '{other}' (one of {WORKLOADS:?} or all)");
            return ExitCode::from(2);
        }
    };
    report.info("error_rate", report.error_rate(), "share");
    finish(&args, report, layers)
}

/// Print the readable lines, then the result line; nonzero exit on any
/// failed check.
fn finish(args: &Args, mut report: Report, mut layers: LayerValues) -> ExitCode {
    println!(
        "workload: {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("host: {}", host_line());
    for m in &report.info {
        print_metric("  ", m);
    }
    if args.trace {
        for m in &report.info {
            if PER_LAYER.iter().any(|&(name, _)| name == m.name) {
                layers.set(m.name, m.value);
            }
        }
        report.metrics = PER_LAYER
            .iter()
            .map(|&(name, unit)| harness::Metric {
                name,
                value: layers.get(name),
                unit,
            })
            .collect();
    } else {
        for &(name, unit) in END_TO_END {
            let found = report.metrics.iter().find(|m| m.name == name);
            assert!(
                found.is_some_and(|m| m.unit == unit),
                "{} did not report {name} in {unit}",
                args.workload
            );
        }
    }
    for m in &report.metrics {
        print_metric("", m);
    }
    println!("{}", report.json_line());
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One command for every workload: each runs in its own process, so its
/// peak memory is its own, and prints its own lines.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut child_args = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            child_args.push(a.clone());
        }
    }
    let mut ok = true;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(&child_args)
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
