//! `cluster`: the paper's `collision` protocol at m = n = 2²¹ over two
//! shard worker processes on pipes, binary wire, overlapped sends (all
//! defaults). The benchmark binary is its own shard worker. Codec,
//! transport and barrier costs are what this run pays over the same run
//! in-process, and no in-process workload touches them.

use std::hint::black_box;
use std::sync::Arc;

use pba_cluster::{shard_lo, ClusterConfig, ClusterOutcome, Frame};
use pba_core::rng::{Rand64, SplitMix64};
use pba_core::{ProblemSpec, RoundRecord, RunConfig, RunOutcome};

use crate::harness::{median, repeated_setup, timed_reps, Args, Report, Size};
use crate::layers::{engine_phase_metrics, LayerValues};
use crate::sink::LayerSink;

const PROTOCOL: &str = "collision";
const SHARDS: u32 = 2;

fn spec(size: Size) -> ProblemSpec {
    let log = match size {
        Size::Full => 21,
        Size::Tiny => 12,
    };
    ProblemSpec::new(1 << log, 1 << log).expect("valid spec")
}

fn in_process(spec: ProblemSpec, seed: u64) -> RunOutcome {
    pba_protocols::run_by_name(PROTOCOL, spec, RunConfig::seeded(seed))
        .expect("registered protocol")
        .expect("collision completes")
}

fn config(spec: ProblemSpec, seed: u64) -> ClusterConfig {
    ClusterConfig::engine(PROTOCOL, spec, seed).with_shards(SHARDS)
}

/// A cluster run must land where the in-process run lands.
fn check(report: &mut Report, out: &Result<ClusterOutcome, String>, expect: &RunOutcome) {
    let ok = match out {
        Ok(out) => {
            let same_loads = out
                .loads
                .iter()
                .map(|&l| l as u32)
                .eq(expect.loads.iter().copied());
            let rounds = out.run.as_ref().map_or(0, |r| r.rounds);
            same_loads && rounds == expect.rounds
        }
        Err(e) => {
            eprintln!("perfbench: cluster run failed: {e}");
            false
        }
    };
    report.check(ok, || {
        "cluster: loads or rounds differ from the in-process run".into()
    });
}

fn run_process(config: ClusterConfig) -> Result<ClusterOutcome, String> {
    config.run_process().map_err(|e| e.to_string())
}

pub fn run_workload(args: &Args, layers: &mut LayerValues) -> Report {
    let spec = spec(args.size);
    let m = spec.balls();
    // Set-up: the in-process reference the cluster's output must equal.
    let (expect, setup_s) = repeated_setup(|| in_process(spec, args.seed), drop);

    let mut report = Report::default();
    let mut last = None;
    let walls = timed_reps(
        args.budget(),
        3,
        || run_process(config(spec, args.seed)),
        |rep, mut out| {
            if let (true, 0, Ok(out)) = (args.corrupt, rep, &mut out) {
                out.loads[0] += 1;
            }
            check(&mut report, &out, &expect);
            last = out.ok().map(|out| {
                let waves = out.shard_records.iter().map(|r| r.barriers).max();
                (out.total_bytes(), out.total_frames(), waves.unwrap_or(0))
            });
        },
    );
    report.e2e_runs(m, &walls, setup_s);
    report.info("gap", f64::from(expect.gap()), "balls");
    report.info("rounds", f64::from(expect.rounds), "count");
    let Some((bytes, frames, waves)) = last else {
        return report;
    };
    report.info("wire_bytes_per_ball", bytes as f64 / m as f64, "bytes/ball");

    if args.trace {
        let share = args.budget() / 4;
        layers.set("cluster.frames", frames as f64);
        layers.set("cluster.bytes", bytes as f64);
        layers.set("cluster.waves", waves as f64);

        let local_walls = timed_reps(share, 2, || in_process(spec, args.seed), |_, _| {});
        let tax_s = median(&walls) - median(&local_walls);
        layers.set("cluster.tax_s", tax_s);

        let (encode_ns, decode_ns) = codec_ns_per_byte(spec, args.seed, share, &mut report);
        layers.set("wire.encode_ns_per_byte", encode_ns);
        layers.set("wire.decode_ns_per_byte", decode_ns);
        let codec_s = bytes as f64 * (encode_ns + decode_ns) * 1e-9;
        layers.set(
            "cluster.wave_wait_ms",
            (tax_s - codec_s) / waves.max(1) as f64 * 1e3,
        );

        let sink = Arc::new(LayerSink::default());
        let traced = timed_reps(
            share,
            2,
            || run_process(config(spec, args.seed).with_metrics(sink.clone())),
            |_, out| check(&mut report, &out, &expect),
        );
        let t = sink.totals();
        engine_phase_metrics(layers, &t, m * t.runs);
        layers.set("trace.overhead", median(&traced) / median(&walls) - 1.0);
    }
    report
}

/// Frames shaped like a `collision` round 0, the round that carries
/// most of the run's bytes: per shard, a request wave of every hit bin's
/// arrival count (two choices per ball), its grant reply and the commit.
fn round_shaped_frames(spec: ProblemSpec, seed: u64) -> Vec<Frame> {
    let n = spec.bins();
    let mut rng = SplitMix64::new(seed);
    let mut arrivals = vec![0u64; n as usize];
    for _ in 0..2 * spec.balls() {
        arrivals[rng.below(n) as usize] += 1;
    }
    let bound = 2 * u64::from(spec.ceil_avg() + 2);
    let mut frames = Vec::new();
    for s in 0..SHARDS {
        let range = shard_lo(s, n, SHARDS)..shard_lo(s + 1, n, SHARDS);
        let hit = |keep: &dyn Fn(u64) -> Option<u64>| -> Vec<(u32, u64)> {
            range
                .clone()
                .filter_map(|b| keep(arrivals[b as usize]).map(|v| (b, v)))
                .collect()
        };
        frames.push(Frame::Grants {
            round: 0,
            active: spec.balls(),
            placed: 0,
            counts: hit(&|a| (a > 0).then_some(a)),
            crashed: Vec::new(),
        });
        frames.push(Frame::GrantsOk {
            round: 0,
            accept: hit(&|a| (a > 0 && a <= bound).then_some(a)),
            underloaded: 0,
            unfilled: 0,
        });
        frames.push(Frame::Commit {
            round: 0,
            loads: hit(&|a| (a > 0 && a <= bound).then_some(a.div_ceil(2))),
            record: RoundRecord::default(),
        });
    }
    frames
}

/// Time `Frame::encode_binary` and `Frame::decode_binary` over
/// round-shaped frames; every decode must give back its frame.
fn codec_ns_per_byte(
    spec: ProblemSpec,
    seed: u64,
    budget: std::time::Duration,
    report: &mut Report,
) -> (f64, f64) {
    let frames = round_shaped_frames(spec, seed);
    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode_binary).collect();
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    for (frame, wire) in frames.iter().zip(&encoded) {
        let back = Frame::decode_binary(wire);
        report.check(back.as_ref() == Ok(frame), || {
            "wire: frame did not round-trip".into()
        });
    }
    let half = budget / 2;
    let enc = timed_reps(
        half,
        3,
        || {
            frames
                .iter()
                .map(|f| black_box(f.encode_binary()).len())
                .sum::<usize>()
        },
        |_, _| {},
    );
    let dec = timed_reps(
        half,
        3,
        || {
            encoded
                .iter()
                .filter(|w| black_box(Frame::decode_binary(w)).is_ok())
                .count()
        },
        |_, _| {},
    );
    let per_byte = |walls: &[f64]| median(walls) * 1e9 / bytes as f64;
    (per_byte(&enc), per_byte(&dec))
}
