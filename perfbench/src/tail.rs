//! `tail`: `estimated-average` at m = n = 2¹⁸, sequential. Hundreds of
//! rounds run with fewer than 1,024 active balls, so the run's time is
//! per-round bookkeeping over all n bins, not work per ball: a
//! sparse-bookkeeping change shows here and not on `dense`.

use std::sync::Arc;

use pba_core::{ProblemSpec, RunConfig, RunOutcome};

use crate::harness::{median, repeated_setup, timed_reps, Args, Report, Size};
use crate::layers::{engine_phase_metrics, LayerValues};
use crate::sink::LayerSink;

/// The protocol seed, the same on every run whatever `--seed` says:
/// estimated-average's endgame makes its round count (and so the run's
/// work) vary almost fivefold between seeds (378 to 1,804 rounds over
/// seeds 1 to 8), which would measure the seed instead of the code. Seed
/// 0 runs 660 rounds, 643 of them with fewer than 1,024 active balls.
const PROTOCOL_SEED: u64 = 0;

fn spec(size: Size) -> ProblemSpec {
    let log = match size {
        Size::Full => 18,
        Size::Tiny => 10,
    };
    ProblemSpec::new(1 << log, 1 << log).expect("valid spec")
}

fn run(spec: ProblemSpec, config: RunConfig) -> RunOutcome {
    pba_protocols::run_by_name("estimated-average", spec, config)
        .expect("registered protocol")
        .expect("estimated-average completes within its budget")
}

/// The protocol's hard ⌈m/n⌉ cap makes a complete run perfectly
/// balanced: loads sum to m and the gap is 0.
fn check(report: &mut Report, out: &RunOutcome) {
    let sum: u64 = out.loads.iter().map(|&l| u64::from(l)).sum();
    let max = out.max_load();
    report.check(
        out.is_complete() && sum == out.spec.balls() && max == out.spec.ceil_avg(),
        || format!("tail: loads sum to {sum} with max {max}"),
    );
}

pub fn run_workload(args: &Args, layers: &mut LayerValues) -> Report {
    let spec = spec(args.size);
    let config = RunConfig::seeded(PROTOCOL_SEED);
    let mut report = Report::default();
    // Nothing to generate: set-up is one warm run, which faults in the
    // allocator's arenas before the clock starts.
    let (_, setup_s) = repeated_setup(|| check(&mut report, &run(spec, config.clone())), drop);

    let mut last = None;
    let walls = timed_reps(
        args.budget(),
        3,
        || run(spec, config.clone()),
        |rep, mut out| {
            if args.corrupt && rep == 0 {
                out.loads[0] += 1;
            }
            check(&mut report, &out);
            last = Some((out.gap(), out.rounds));
        },
    );
    let (gap, rounds) = last.expect("at least one repetition");
    report.e2e_runs(spec.balls(), &walls, setup_s);
    report.info("gap", f64::from(gap), "balls");
    report.info("rounds", f64::from(rounds), "count");

    if args.trace {
        let sink = Arc::new(LayerSink::default());
        let traced = timed_reps(
            args.budget() / 4,
            2,
            || run(spec, config.clone().with_metrics(sink.clone())),
            |_, out| check(&mut report, &out),
        );
        let t = sink.totals();
        engine_phase_metrics(layers, &t, spec.balls() * t.runs);
        layers.set("trace.overhead", median(&traced) / median(&walls) - 1.0);
    }
    report
}
