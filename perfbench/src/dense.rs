//! `dense`: `single-choice` at m = n = 2²⁴ on every lane. Each round is
//! full width over a 64 MiB load array, so the kernel's gather,
//! count/scan and resolve/commit phases and the pool do nearly all the
//! work; the floor loop is the reference it is measured against.

use std::sync::Arc;

use pba_core::{ProblemSpec, RunConfig, RunOutcome};

use crate::floor::single_choice_loads;
use crate::harness::{lanes, median, repeated_setup, timed_reps, Args, Report, Size};
use crate::layers::{engine_phase_metrics, LayerValues};
use crate::sink::LayerSink;

fn spec(size: Size) -> ProblemSpec {
    let log = match size {
        Size::Full => 24,
        Size::Tiny => 12,
    };
    ProblemSpec::new(1 << log, 1 << log).expect("valid spec")
}

fn config(seed: u64, parallel: bool) -> RunConfig {
    let config = RunConfig::seeded(seed);
    if parallel {
        config.parallel_with(lanes())
    } else {
        config
    }
}

fn run(spec: ProblemSpec, config: RunConfig) -> RunOutcome {
    pba_protocols::run_by_name("single-choice", spec, config)
        .expect("registered protocol")
        .expect("single-choice cannot fail")
}

fn check(report: &mut Report, out: &RunOutcome, expect: &[u32]) {
    report.check(
        out.loads == expect && out.rounds == 1 && out.is_complete(),
        || "dense: engine loads differ from the floor's".into(),
    );
}

pub fn run_workload(args: &Args, layers: &mut LayerValues) -> Report {
    let spec = spec(args.size);
    let (m, n) = (spec.balls(), spec.bins());
    // Set-up: the floor's loads are the expected output.
    let (expect, setup_s) = repeated_setup(|| single_choice_loads(args.seed, m, n), drop);

    let mut report = Report::default();
    // Keep only figures from the last outcome: holding it whole would
    // put its 192 MiB in the next repetition's peak memory.
    let mut last = None;
    let walls = timed_reps(
        args.budget(),
        3,
        || run(spec, config(args.seed, true)),
        |rep, mut out| {
            if args.corrupt && rep == 0 {
                out.loads[0] += 1;
            }
            check(&mut report, &out, &expect);
            last = Some((out.gap(), out.rounds));
        },
    );
    let (gap, rounds) = last.expect("at least one repetition");
    report.e2e_runs(m, &walls, setup_s);
    report.info("gap", f64::from(gap), "balls");
    report.info("rounds", f64::from(rounds), "count");

    if args.trace {
        trace(args, spec, &expect, median(&walls), layers, &mut report);
    }
    report
}

/// Traced run: the floor's time, the phase split and pool use under a
/// sink, and a sequential run for the pool's speed-up.
fn trace(
    args: &Args,
    spec: ProblemSpec,
    expect: &[u32],
    untraced_wall: f64,
    layers: &mut LayerValues,
    report: &mut Report,
) {
    let (m, n) = (spec.balls(), spec.bins());
    let share = args.budget() / 4;

    let floor_walls = timed_reps(
        share,
        3,
        || single_choice_loads(args.seed, m, n),
        |_, loads| {
            report.check(loads == expect, || {
                "dense: floor is not deterministic".into()
            })
        },
    );
    let floor_ns = median(&floor_walls) * 1e9 / m as f64;
    layers.set("floor.ns_per_ball", floor_ns);
    layers.set(
        "exec.floor_ratio",
        untraced_wall * 1e9 / m as f64 / floor_ns,
    );

    let sink = Arc::new(LayerSink::default());
    let traced_walls = timed_reps(
        share,
        2,
        || run(spec, config(args.seed, true).with_metrics(sink.clone())),
        |_, out| check(report, &out, expect),
    );
    let t = sink.totals();
    engine_phase_metrics(layers, &t, m * t.runs);
    layers.set(
        "par.busy_share",
        t.pool_busy_nanos as f64 / (t.pool_lanes.max(1) as f64 * t.run_wall_nanos as f64),
    );
    layers.set("par.tasks", t.pool_tasks as f64 / t.runs as f64);
    layers.set(
        "trace.overhead",
        median(&traced_walls) / untraced_wall - 1.0,
    );

    let seq_walls = timed_reps(
        share,
        1,
        || run(spec, config(args.seed, false)),
        |_, out| check(report, &out, expect),
    );
    layers.set("par.speedup", median(&seq_walls) / untraced_wall);
}
