//! `pba-run` — run the reproduction experiments and ad-hoc protocol
//! simulations from the command line. `USAGE` lists every command;
//! each command's flag table (a `Spec`) sits next to the function that
//! runs it.

use std::process::ExitCode;
use std::sync::Arc;

use pba_cluster::ClusterConfig;
use pba_conformance::{Claim, VerifyOptions, VerifyScale};
use pba_core::metrics::{EngineMetrics, FanoutSink, MetricsSink, Phase};
use pba_core::{ExecutorKind, ProblemSpec, RunConfig, RunOutcome, Tuning};
use pba_protocols::{protocol_names, run_by_name};
use pba_runner::flags::{suggest, Flag, Flags, Spec};
use pba_runner::json::{escape as json_escape, executor_str, u64_array, JsonObject};
use pba_runner::{
    all_experiments, describe_fault_plan, experiment_by_id, parse_fault_spec, Experiment,
    JsonlTrace, RunOptions, Scale, Table,
};
use pba_stream::{
    replay, PolicyKind, ServiceConfig, StreamAllocator, WeightDist, Workload, WorkloadCfg,
    WorkloadKind,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  pba-run help | --help
  pba-run list
  pba-run all [--scale smoke|default|full] [--out DIR] [--trace FILE.jsonl]
  pba-run <experiment-id e01..e25> [--scale ...] [--out DIR] [--trace FILE.jsonl]
  pba-run protocol <name> --m M --n N [--seed S] [--parallel] [--trace FILE.jsonl]
                 [--faults SPEC]
  pba-run protocols
  pba-run stream [--policy one-choice|two-choice|batched-two-choice|threshold]
                 [--n N] [--batch B | Kn] [--batches K] [--workload uniform|zipf|burst]
                 [--churn F] [--shards S] [--seed S] [--parallel] [--trace FILE.jsonl]
                 [--faults SPEC]
  pba-run serve --replay [--policy P] [--n N] [--batch B | Kn] [--batches K]
                 [--workload W] [--churn F] [--shards S] [--seed S] [--parallel]
                 [--rate BALLS_PER_SEC] [--queue DEPTH] [--checkpoint-every K]
                 [--snapshot-at K] [--snapshot FILE] [--restore FILE]
                 [--faults SPEC] [--trace FILE.jsonl]
  pba-run serve --listen ADDR [--policy P] [--n N] [--shards S] [--seed S] [--parallel]
                 (accept framed batches from one `serve --send` client)
  pba-run serve --send ADDR [--policy P] [--n N] [--batch B | Kn] [--batches K]
                 [--workload W] [--churn F] [--seed S]
  pba-run cluster protocol <name> --m M --n N [--shards S] [--seed S]
                 [--local | --socket | --connect A1,A2,…]
                 [--no-overlap] [--faults SPEC] [--trace FILE.jsonl]
  pba-run cluster stream [--policy P] [--n N] [--batch B | Kn] [--batches K]
                 [--workload W] [--churn F] [--shards S] [--seed S] [--kill S@B]
                 [--local | --socket | --connect A1,A2,…]
                 [--no-overlap] [--faults SPEC] [--trace FILE.jsonl]
  pba-run shard-worker [--listen ADDR]   (internal: spawned per shard by
                 `cluster`; --listen serves one orchestrator over TCP/UDS)
  pba-run bench [--tier smoke|small|medium|large|xl] [--out DIR|FILE.json]
  pba-run verify [CLAIM…] [--scale ci|full] [--json] [--faults SPEC]

fault spec: comma-separated key=value clauses, e.g.
  --faults drop=0.1,crash=0.02,straggle=8x0.2,domains=8x0.3,kill=2x5,seed=7";

/// `--trace FILE.jsonl`: stream every event of the run as JSON lines.
const TRACE: &[Flag] = &[Flag::value("--trace")];

/// `--faults SPEC`: inject the seeded fault plan (see `parse_fault_spec`).
const FAULTS: &[Flag] = &[Flag::value("--faults")];

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
    let rest = &args[1..];
    let done = |()| ExitCode::SUCCESS;
    match cmd.as_str() {
        "list" => {
            for e in all_experiments() {
                println!("{}  {}", e.id(), e.title());
            }
            Ok(ExitCode::SUCCESS)
        }
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        "protocols" => {
            for name in protocol_names() {
                println!("{name}");
            }
            Ok(ExitCode::SUCCESS)
        }
        "all" => run_experiments(&ALL, all_experiments(), rest).map(done),
        "protocol" => run_protocol(rest).map(done),
        "stream" => run_stream_cmd(rest).map(done),
        "serve" => run_serve(rest).map(done),
        "cluster" => run_cluster(rest).map(done),
        // The child mode `cluster` spawns per shard. Errors go to stderr
        // without the usage banner: the orchestrator is the audience.
        "shard-worker" => {
            let served = Flags::parse(&SHARD_WORKER, rest).and_then(|flags| {
                match flags.opt::<String>("--listen")? {
                    None => pba_cluster::worker::serve_stdio(),
                    Some(addr) => pba_cluster::worker::serve_listen(&addr),
                }
            });
            match served {
                Ok(()) => Ok(ExitCode::SUCCESS),
                Err(detail) => {
                    eprintln!("shard-worker: {detail}");
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        "bench" => run_bench(rest).map(done),
        // `verify` owns its exit code: a refuted claim is a nonzero exit
        // with the verdict table printed, not a usage error.
        "verify" => run_verify(rest),
        id => {
            let e = experiment_by_id(id).ok_or_else(|| unknown_command_message(id))?;
            run_experiments(&EXPERIMENT, vec![e], rest).map(done)
        }
    }
}

static SHARD_WORKER: Spec = Spec {
    command: "shard-worker",
    flags: &[&[Flag::value("--listen")]],
    positionals: 0,
};

/// Error text for an unrecognized first argument: name the valid range
/// and, when something known is close, suggest it.
fn unknown_command_message(id: &str) -> String {
    const COMMANDS: [&str; 10] = [
        "help",
        "list",
        "all",
        "protocol",
        "protocols",
        "stream",
        "serve",
        "cluster",
        "bench",
        "verify",
    ];
    let experiments = all_experiments();
    let hint = suggest(id, experiments.iter().map(|e| e.id()).chain(COMMANDS));
    format!(
        "unknown experiment or command '{id}': {hint}valid experiment ids are \
         e01..e25 (see `pba-run list`)"
    )
}

/// The sinks a run reports through: the [`EngineMetrics`] aggregator its
/// summary reads, fanned out to the `--trace` JSONL file when one was
/// asked for.
struct RunSinks {
    metrics: Arc<EngineMetrics>,
    trace: Option<(String, Arc<JsonlTrace>)>,
}

impl RunSinks {
    /// Create the `--trace` file, if the command line names one.
    fn open(flags: &Flags) -> Result<Self, String> {
        let trace = match flags.opt::<String>("--trace")? {
            None => None,
            Some(path) => {
                let t = JsonlTrace::create(&path).map_err(|e| format!("--trace {path}: {e}"))?;
                Some((path, Arc::new(t)))
            }
        };
        Ok(RunSinks {
            metrics: Arc::new(EngineMetrics::new()),
            trace,
        })
    }

    /// The sink to attach to the run.
    fn sink(&self) -> Arc<dyn MetricsSink> {
        match &self.trace {
            None => self.metrics.clone(),
            Some((_, t)) => Arc::new(FanoutSink::new(vec![
                self.metrics.clone() as Arc<dyn MetricsSink>,
                t.clone() as Arc<dyn MetricsSink>,
            ])),
        }
    }

    /// Flush the trace file, if there is one.
    fn flush(&self) -> Result<(), String> {
        match &self.trace {
            None => Ok(()),
            Some((_, t)) => t.flush().map_err(|e| format!("trace flush: {e}")),
        }
    }

    /// The closing `trace:` line of a run summary.
    fn print_path(&self) {
        if let Some((path, _)) = &self.trace {
            println!("trace:      {path}");
        }
    }
}

const EXPERIMENT_FLAGS: &[&[Flag]] = &[&[Flag::value("--scale"), Flag::value("--out")], TRACE];

static ALL: Spec = Spec {
    command: "all",
    flags: EXPERIMENT_FLAGS,
    positionals: 0,
};

static EXPERIMENT: Spec = Spec {
    command: "<experiment-id e01..e25>",
    flags: EXPERIMENT_FLAGS,
    positionals: 0,
};

/// `pba-run all` and `pba-run <experiment-id>`: run each experiment at
/// `--scale`, print its report and, with `--out DIR`, write it there as
/// markdown plus one CSV per table.
fn run_experiments(
    spec: &'static Spec,
    experiments: Vec<Box<dyn Experiment>>,
    args: &[String],
) -> Result<(), String> {
    let flags = Flags::parse(spec, args)?;
    let scale = flags
        .opt_with("--scale", |v| {
            Scale::parse(v).ok_or_else(|| format!("bad --scale '{v}' (smoke, default or full)"))
        })?
        .unwrap_or(Scale::Default);
    let out_dir = flags.opt::<String>("--out")?;
    let sinks = RunSinks::open(&flags)?;
    let mut opts = RunOptions::new();
    if let Some((_, t)) = &sinks.trace {
        opts = opts.with_metrics(t.clone());
    }
    for e in experiments {
        run_experiment(e.as_ref(), scale, out_dir.as_deref(), &opts)?;
    }
    sinks.flush()
}

fn run_experiment(
    e: &dyn Experiment,
    scale: Scale,
    out_dir: Option<&str>,
    opts: &RunOptions,
) -> Result<(), String> {
    eprintln!("running {} ({})…", e.id(), e.title());
    let started = std::time::Instant::now();
    let report = e.run_with(scale, opts);
    eprintln!("  done in {:.1?}", started.elapsed());
    let md = report.to_markdown();
    println!("{md}");
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|err| err.to_string())?;
        let path = format!("{dir}/{}.md", report.id);
        std::fs::write(&path, &md).map_err(|err| err.to_string())?;
        for (i, t) in report.tables.iter().enumerate() {
            let csv_path = format!("{dir}/{}_{}.csv", report.id, i);
            std::fs::write(&csv_path, t.to_csv()).map_err(|err| err.to_string())?;
        }
    }
    Ok(())
}

static PROTOCOL: Spec = Spec {
    command: "protocol",
    flags: &[
        &[
            Flag::value("--m"),
            Flag::value("--n"),
            Flag::value("--seed"),
            Flag::switch("--parallel"),
        ],
        TRACE,
        FAULTS,
    ],
    positionals: 1,
};

fn run_protocol(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(&PROTOCOL, args)?;
    let Some(name) = flags.positionals().first() else {
        return Err("protocol: missing name".into());
    };
    let spec = ProblemSpec::new(flags.get("--m", 1u64 << 20)?, flags.get("--n", 1u32 << 10)?)
        .map_err(|e| e.to_string())?;
    let faults = flags.opt_with("--faults", parse_fault_spec)?;
    let mut cfg = RunConfig::seeded(flags.get("--seed", 0)?);
    if flags.switch("--parallel") {
        cfg = cfg.parallel();
    }
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    let sinks = RunSinks::open(&flags)?;
    cfg = cfg.with_metrics(sinks.sink());
    let started = std::time::Instant::now();
    let out = run_by_name(name, spec, cfg)
        .ok_or_else(|| format!("unknown protocol '{name}' (try `pba-run protocols`)"))?
        .map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    sinks.flush()?;
    let stats = out.load_stats();
    let report = sinks.metrics.report();
    println!("protocol:   {}", out.protocol);
    println!("spec:       {spec}");
    print_outcome(&out);
    println!("load stats: {stats}");
    if let Some(plan) = &faults {
        println!("faults:     {}", describe_fault_plan(plan));
    }
    if let Some(f) = &out.faults {
        println!(
            "fault hits: {} dropped, {} crash-lost ({} redraws), {} straggled, \
             {} deferred, {} escalations, {} crashed bins",
            f.dropped_requests,
            f.crash_lost,
            f.crash_redraws,
            f.straggler_balls,
            f.deferred_balls,
            f.backoff_escalations,
            f.crashed_bins
        );
    }
    println!(
        "messages:   {} total ({} requests, {} responses, {} commits)",
        out.messages.total(),
        out.messages.requests,
        out.messages.responses,
        out.messages.commits
    );
    if let Some(max_bin) = out.max_bin_received() {
        println!("max bin rx: {max_bin}");
    }
    println!("wall time:  {elapsed:.2?}");
    println!(
        "throughput: {:.0} balls/s, {:.1} rounds/s",
        report.balls_per_sec(),
        report.rounds_per_sec()
    );
    let phases: Vec<String> = Phase::ALL
        .iter()
        .map(|&p| format!("{} {:.0}%", p.name(), 100.0 * report.phase_fraction(p)))
        .collect();
    println!("phases:     {}", phases.join(", "));
    if let Some(pool) = &report.pool {
        println!(
            "pool:       {} jobs, {} tasks, busy {:.2?}",
            pool.jobs,
            pool.tasks,
            std::time::Duration::from_nanos(pool.total_busy_nanos())
        );
    }
    sinks.print_path();
    Ok(())
}

/// Parse a batch size: an absolute count (`4096`) or a multiple of the
/// bin count (`8n`, `n`).
fn parse_batch_size(spec: &str, n: u32) -> Result<u64, String> {
    let s = spec.trim();
    let value = if let Some(mult) = s.strip_suffix(['n', 'N']) {
        let mult: u64 = if mult.is_empty() {
            1
        } else {
            mult.parse().map_err(|_| {
                format!("bad --batch '{spec}' (absolute count or multiple like '8n')")
            })?
        };
        mult.checked_mul(n as u64)
            .ok_or_else(|| format!("--batch '{spec}' overflows"))?
    } else {
        s.parse()
            .map_err(|_| format!("bad --batch '{spec}' (absolute count or multiple like '8n')"))?
    };
    if value == 0 {
        return Err("--batch must be at least 1".into());
    }
    Ok(value)
}

/// Parse a `--workload` name, shared by `stream`, `serve`, and
/// `cluster stream`; unknown names get a did-you-mean suggestion.
fn parse_workload_kind(name: &str) -> Result<WorkloadKind, String> {
    const WORKLOADS: [&str; 3] = ["uniform", "zipf", "burst"];
    match name {
        "uniform" => Ok(WorkloadKind::Uniform),
        "zipf" => Ok(WorkloadKind::Zipf { s: 1.2, max: 32 }),
        "burst" => Ok(WorkloadKind::Burst {
            period: 8,
            factor: 4,
        }),
        other => Err(format!(
            "unknown workload '{other}' ({}choose from: {})",
            suggest(other, WORKLOADS),
            WORKLOADS.join(", ")
        )),
    }
}

/// Parse a `--policy` name; an unknown one lists the choices.
fn parse_policy(name: &str) -> Result<PolicyKind, String> {
    PolicyKind::parse(name).ok_or_else(|| {
        let names: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
        format!(
            "unknown policy '{name}' (choose from: {})",
            names.join(", ")
        )
    })
}

/// The workload generator's flags, shared by `stream`, `serve --replay`,
/// `serve --send` and `cluster stream`.
const WORKLOAD: &[Flag] = &[
    Flag::value("--policy"),
    Flag::value("--n"),
    Flag::value("--batch"),
    Flag::value("--batches"),
    Flag::value("--workload"),
    Flag::value("--churn"),
    Flag::value("--seed"),
];

/// The values of the [`WORKLOAD`] flags, checked.
struct WorkloadFlags {
    policy: PolicyKind,
    n: u32,
    /// `--batch` as given: an absolute count or a multiple of n.
    batch_spec: String,
    batches: u64,
    workload: String,
    churn: f64,
    seed: u64,
}

impl WorkloadFlags {
    fn parse(flags: &Flags) -> Result<Self, String> {
        let w = WorkloadFlags {
            policy: flags
                .opt_with("--policy", parse_policy)?
                .unwrap_or(PolicyKind::BatchedTwoChoice),
            n: flags.get("--n", 1 << 10)?,
            batch_spec: flags.get("--batch", "4n".to_string())?,
            batches: flags.get("--batches", 32)?,
            workload: flags.get("--workload", "uniform".to_string())?,
            churn: flags.get("--churn", 0.0)?,
            seed: flags.get("--seed", 0)?,
        };
        if w.n == 0 {
            return Err("--n must be at least 1".into());
        }
        if w.batches == 0 {
            return Err("--batches must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&w.churn) {
            return Err("--churn must be in [0, 1]".into());
        }
        Ok(w)
    }

    /// The generator config, with `--batch` resolved against `n` bins
    /// (after `serve --restore`, the snapshot's bin count).
    fn cfg(&self, n: u32) -> Result<WorkloadCfg, String> {
        Ok(WorkloadCfg {
            kind: parse_workload_kind(&self.workload)?,
            batch: parse_batch_size(&self.batch_spec, n)?,
            churn: self.churn,
            weights: WeightDist::Constant(1),
        })
    }
}

/// Salt of the workload generator's seed, shared by `stream` and every
/// `serve` mode so their traffic matches batch for batch; it keeps the
/// workload draws off the placement streams.
const TRAFFIC_SALT: u64 = 0x57AEA3;

static STREAM: Spec = Spec {
    command: "stream",
    flags: &[
        WORKLOAD,
        &[Flag::value("--shards"), Flag::switch("--parallel")],
        TRACE,
        FAULTS,
    ],
    positionals: 0,
};

/// `pba-run stream` — drive a synthetic workload through a long-lived
/// [`StreamAllocator`] and print a paper-style checkpoint table plus a
/// throughput summary.
fn run_stream_cmd(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(&STREAM, args)?;
    let w = WorkloadFlags::parse(&flags)?;
    let shards: usize = flags.get("--shards", 1)?;
    let parallel = flags.switch("--parallel");
    let faults = flags.opt_with("--faults", parse_fault_spec)?;
    let cfg = w.cfg(w.n)?;
    let b = cfg.batch;
    let WorkloadFlags {
        policy,
        n,
        batch_spec,
        batches,
        workload,
        churn,
        seed,
    } = w;
    let sinks = RunSinks::open(&flags)?;
    let mut alloc = StreamAllocator::new(n, seed, policy)
        .with_shards(shards)
        .with_metrics(sinks.sink());
    if parallel {
        alloc = alloc.parallel();
    }
    if let Some(plan) = faults {
        alloc = alloc.with_faults(plan);
    }
    let mut traffic = Workload::new(cfg, seed ^ TRAFFIC_SALT);

    let started = std::time::Instant::now();
    let records: Vec<_> = (0..batches)
        .map(|_| alloc.ingest(&traffic.next_batch()).record)
        .collect();
    let elapsed = started.elapsed();
    sinks.flush()?;

    let mut table = Table::new(
        format!(
            "Streaming {}: {batches} batches of b = {batch_spec} ({b} arrivals), \
             n = {n}, churn {churn}",
            policy.name()
        ),
        &[
            "batch",
            "arrivals",
            "departures",
            "resident",
            "max load",
            "gap",
        ],
    );
    let step = (batches / 8).max(1);
    for (t, r) in records.iter().enumerate() {
        let t = t as u64;
        if t.is_multiple_of(step) || t == batches - 1 {
            table.push_row(vec![
                t.to_string(),
                r.arrivals.to_string(),
                r.departures.to_string(),
                r.resident.to_string(),
                r.max_load.to_string(),
                r.gap.to_string(),
            ]);
        }
    }
    println!("{}", table.to_markdown());

    let report = sinks.metrics.report();
    let last = records.last().expect("batches >= 1");
    let mode = if parallel { ", parallel" } else { "" };
    println!("policy:     {} ({shards} shard(s){mode})", policy.name());
    println!("workload:   {workload}, b = {b}, churn {churn}, seed {seed}");
    if let Some(plan) = &faults {
        let redirects: u64 = records.iter().map(|r| r.fault_redirects).sum();
        let faulted = records.iter().filter(|r| r.failed_domains > 0).count();
        println!(
            "faults:     {} — {faulted}/{batches} batches degraded, {redirects} redirects",
            describe_fault_plan(plan)
        );
    }
    println!(
        "resident:   {} balls in {n} bins (max load {}, gap {})",
        last.resident, last.max_load, last.gap
    );
    println!("wall time:  {elapsed:.2?}");
    println!(
        "throughput: {:.1} batches/s, {:.0} balls/s",
        report.batches_per_sec(),
        report.stream_balls_per_sec()
    );
    sinks.print_path();
    Ok(())
}

/// Render nanoseconds as microseconds with one decimal, for the serve
/// checkpoint table.
fn micros(nanos: u64) -> String {
    format!("{:.1}", nanos as f64 / 1e3)
}

static SERVE_REPLAY: Spec = Spec {
    command: "serve --replay",
    flags: &[
        WORKLOAD,
        &[
            // The default mode, named so scripts can spell it out.
            Flag::switch("--replay"),
            Flag::value("--shards"),
            Flag::switch("--parallel"),
            Flag::value("--rate"),
            Flag::value("--queue"),
            Flag::value("--checkpoint-every"),
            Flag::value("--snapshot-at"),
            Flag::value("--snapshot"),
            Flag::value("--restore"),
        ],
        TRACE,
        FAULTS,
    ],
    positionals: 0,
};

/// `pba-run serve --replay` — the production facade: replay a synthetic
/// workload through a long-lived [`pba_stream::ReplayService`] (worker
/// thread + bounded backpressure queue) at a target rate, print one row
/// per checkpoint window with queue-to-placement latency percentiles, and
/// optionally snapshot the allocator state mid-replay (`--snapshot-at K
/// --snapshot FILE`) or resume a previous session (`--restore FILE`).
///
/// With `--snapshot FILE` but no `--snapshot-at`, the *final* state is
/// written — the natural handoff for a later `--restore` run. On restore
/// the snapshot defines the bin count, policy, shards, and seed (the
/// corresponding flags are ignored) and the workload generator is
/// fast-forwarded past the already-ingested prefix, so the resumed replay
/// continues bit-identically to an uninterrupted one.
fn run_serve(args: &[String]) -> Result<(), String> {
    if args.iter().any(|a| a == "--listen") {
        return run_serve_listen(args);
    }
    if args.iter().any(|a| a == "--send") {
        return run_serve_send(args);
    }
    let flags = Flags::parse(&SERVE_REPLAY, args)?;
    let w = WorkloadFlags::parse(&flags)?;
    let shards: usize = flags.get("--shards", 1)?;
    let parallel = flags.switch("--parallel");
    let rate: f64 = flags.get("--rate", 0.0)?;
    let queue: usize = flags.get("--queue", 4)?;
    let checkpoint_every: u64 = flags.get("--checkpoint-every", 8)?;
    let snapshot_at: Option<u64> = flags.opt("--snapshot-at")?;
    let snapshot_path: Option<String> = flags.opt("--snapshot")?;
    let restore_path: Option<String> = flags.opt("--restore")?;
    let faults = flags.opt_with("--faults", parse_fault_spec)?;
    let batches = w.batches;
    if !rate.is_finite() || rate < 0.0 {
        return Err("--rate must be a finite rate >= 0 (0 = unthrottled)".into());
    }
    if queue == 0 {
        return Err("--queue must be at least 1".into());
    }
    if checkpoint_every == 0 {
        return Err("--checkpoint-every must be at least 1".into());
    }
    if snapshot_at.is_some_and(|k| k == 0 || k > batches) {
        return Err(format!(
            "--snapshot-at must be in 1..={batches} (--batches)"
        ));
    }

    let (alloc, restored_bytes) = match &restore_path {
        Some(path) => {
            let bytes = std::fs::read(path).map_err(|e| format!("--restore {path}: {e}"))?;
            let alloc =
                StreamAllocator::restore(&bytes).map_err(|e| format!("--restore {path}: {e}"))?;
            (alloc, bytes.len() as u64)
        }
        None => (
            StreamAllocator::new(w.n, w.seed, w.policy).with_shards(shards),
            0,
        ),
    };
    // From here on the allocator is authoritative: on restore its meta
    // (bins, seed, policy, shards) comes from the snapshot, not the flags.
    let meta = alloc.meta();
    let (n, seed, shards, policy_name) = (meta.bins, meta.seed, meta.shards, meta.policy);
    let start_batch = alloc.batches();

    let cfg = w.cfg(n)?;
    let b = cfg.batch;
    let WorkloadFlags {
        batch_spec,
        workload,
        churn,
        ..
    } = w;
    let sinks = RunSinks::open(&flags)?;
    let mut alloc = alloc.with_metrics(sinks.sink());
    if parallel {
        alloc = alloc.parallel();
    }
    if let Some(plan) = faults {
        alloc = alloc.with_faults(plan);
    }

    // A restored session fast-forwards the deterministic generator past
    // the ingested prefix.
    let mut traffic = Workload::new(cfg, seed ^ TRAFFIC_SALT);
    for _ in 0..start_batch {
        traffic.next_batch();
    }

    let mut service_cfg = ServiceConfig::default()
        .with_queue_capacity(queue)
        .with_checkpoint_every(checkpoint_every)
        .with_rate(rate);
    if let Some(k) = snapshot_at {
        service_cfg = service_cfg.with_snapshot_at(k);
    }

    let started = std::time::Instant::now();
    let (alloc, report) = replay(alloc, &mut traffic, batches, service_cfg);
    let elapsed = started.elapsed();
    sinks.flush()?;

    // `--snapshot FILE` writes the mid-replay capture when `--snapshot-at`
    // named one, the final state otherwise.
    let mut snapshot_note = None;
    if let Some(path) = &snapshot_path {
        let (at, bytes) = match &report.snapshot {
            Some((at, bytes)) => (start_batch + at, bytes.clone()),
            None => (start_batch + report.batches, alloc.snapshot()),
        };
        std::fs::write(path, &bytes).map_err(|e| format!("--snapshot {path}: {e}"))?;
        snapshot_note = Some(format!("{path} ({} bytes, after batch {at})", bytes.len()));
    }

    let mut table = Table::new(
        format!(
            "Replay service {policy_name}: {batches} batches of b = {batch_spec} \
             ({b} arrivals), n = {n}, queue {queue}"
        ),
        &[
            "ckpt", "batches", "balls", "resident", "gap", "p50 µs", "p99 µs", "p999 µs",
        ],
    );
    for c in &report.checkpoints {
        table.push_row(vec![
            c.checkpoint.to_string(),
            c.batches.to_string(),
            c.balls.to_string(),
            c.resident.to_string(),
            c.gap.to_string(),
            micros(c.p50_nanos),
            micros(c.p99_nanos),
            micros(c.p999_nanos),
        ]);
    }
    println!("{}", table.to_markdown());

    let mode = if parallel { ", parallel" } else { "" };
    println!("policy:     {policy_name} ({shards} shard(s){mode})");
    println!("workload:   {workload}, b = {b}, churn {churn}, seed {seed}");
    let pacing = if rate > 0.0 {
        format!("{rate:.0} balls/s target")
    } else {
        "unthrottled".into()
    };
    println!("service:    queue {queue}, checkpoint every {checkpoint_every} batches, {pacing}");
    if let Some(path) = &restore_path {
        println!("restored:   {path} ({restored_bytes} bytes, resumed at batch {start_batch})");
    }
    if let Some(plan) = &faults {
        println!(
            "faults:     {} — {}/{batches} batches degraded, {} redirects",
            describe_fault_plan(plan),
            report.degraded_batches,
            report.fault_redirects
        );
    }
    println!(
        "latency:    p50 {} µs, p99 {} µs, p999 {} µs, max {} µs (queue to placement)",
        micros(report.total.p50()),
        micros(report.total.p99()),
        micros(report.total.p999()),
        micros(report.total.max())
    );
    println!(
        "resident:   {} balls in {n} bins (max load {}, gap {})",
        alloc.resident(),
        alloc.bin_state().max_load(),
        alloc.bin_state().gap()
    );
    if let Some(note) = snapshot_note {
        println!("snapshot:   {note}");
    } else if let Some((at, bytes)) = &report.snapshot {
        println!(
            "snapshot:   {} bytes after batch {} (pass --snapshot FILE to keep it)",
            bytes.len(),
            start_batch + at
        );
    }
    println!("wall time:  {elapsed:.2?}");
    println!(
        "throughput: {:.0} balls/s through the service",
        report.balls as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    sinks.print_path();
    Ok(())
}

/// The two halves of a connected ingest socket.
type IngestHalves = (Box<dyn std::io::Read>, Box<dyn std::io::Write>);

/// A connected ingest socket, split into its two halves.
fn connect_ingest(addr: &str) -> Result<IngestHalves, String> {
    if pba_cluster::transport::is_unix_addr(addr) {
        #[cfg(unix)]
        {
            let stream = std::os::unix::net::UnixStream::connect(addr)
                .map_err(|e| format!("connect {addr}: {e}"))?;
            let r = stream.try_clone().map_err(|e| format!("{addr}: {e}"))?;
            return Ok((Box::new(r), Box::new(stream)));
        }
        #[cfg(not(unix))]
        return Err(format!(
            "unix socket path '{addr}' unsupported on this platform"
        ));
    }
    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let r = stream.try_clone().map_err(|e| format!("{addr}: {e}"))?;
    Ok((Box::new(r), Box::new(stream)))
}

static SERVE_LISTEN: Spec = Spec {
    command: "serve --listen",
    flags: &[&[
        Flag::value("--listen"),
        Flag::value("--policy"),
        Flag::value("--n"),
        Flag::value("--shards"),
        Flag::value("--seed"),
        Flag::switch("--parallel"),
    ]],
    positionals: 0,
};

/// `pba-run serve --listen ADDR` — real traffic for the allocator: bind a
/// TCP or Unix-domain socket, accept one `serve --send` client, ingest
/// its framed batches (binary wire codec, checksummed), and report the
/// final state. The allocator ends bit-identical to an in-process run
/// that ingested the same batches.
fn run_serve_listen(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(&SERVE_LISTEN, args)?;
    let addr: String = flags.get("--listen", String::new())?;
    let policy = flags
        .opt_with("--policy", parse_policy)?
        .unwrap_or(PolicyKind::BatchedTwoChoice);
    let n: u32 = flags.get("--n", 1 << 10)?;
    let shards: usize = flags.get("--shards", 1)?;
    let seed: u64 = flags.get("--seed", 0)?;
    let parallel = flags.switch("--parallel");
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    let mut alloc = StreamAllocator::new(n, seed, policy).with_shards(shards);
    if parallel {
        alloc = alloc.parallel();
    }
    let started = std::time::Instant::now();
    let (mut reader, mut writer): (Box<dyn std::io::Read>, Box<dyn std::io::Write>) =
        if pba_cluster::transport::is_unix_addr(&addr) {
            #[cfg(unix)]
            {
                let _ = std::fs::remove_file(&addr);
                let listener = std::os::unix::net::UnixListener::bind(&addr)
                    .map_err(|e| format!("bind {addr}: {e}"))?;
                println!("listening:  {addr} (unix)");
                let (stream, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
                let _ = std::fs::remove_file(&addr);
                let r = stream.try_clone().map_err(|e| format!("{addr}: {e}"))?;
                (Box::new(r), Box::new(stream))
            }
            #[cfg(not(unix))]
            return Err(format!(
                "unix socket path '{addr}' unsupported on this platform"
            ));
        } else {
            let listener =
                std::net::TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
            println!("listening:  {addr} (tcp)");
            let (stream, peer) = listener.accept().map_err(|e| format!("accept: {e}"))?;
            println!("client:     {peer}");
            let r = stream.try_clone().map_err(|e| format!("{addr}: {e}"))?;
            (Box::new(r), Box::new(stream))
        };
    let summary = pba_stream::ingest::serve_ingest(&mut reader, &mut writer, &mut alloc)?;
    let elapsed = started.elapsed();
    println!("policy:     {} ({shards} shard(s))", policy.name());
    println!(
        "ingested:   {} batches, {} balls over the socket",
        summary.batches, summary.balls
    );
    println!(
        "resident:   {} balls in {n} bins (max load {}, gap {})",
        summary.resident, summary.max_load, summary.gap
    );
    println!("wall time:  {elapsed:.2?}");
    Ok(())
}

static SERVE_SEND: Spec = Spec {
    command: "serve --send",
    flags: &[&[Flag::value("--send")], WORKLOAD],
    positionals: 0,
};

/// `pba-run serve --send ADDR` — the driver for `serve --listen`:
/// generate the deterministic synthetic workload locally and ship it to
/// the listening allocator as framed batches, verifying every ack.
fn run_serve_send(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(&SERVE_SEND, args)?;
    let addr: String = flags.get("--send", String::new())?;
    let w = WorkloadFlags::parse(&flags)?;
    let cfg = w.cfg(w.n)?;
    let b = cfg.batch;
    let WorkloadFlags {
        policy,
        n,
        batches,
        seed,
        ..
    } = w;
    // With the same flags, a listen/send pair reproduces the local replay
    // bit for bit.
    let mut traffic = Workload::new(cfg, seed ^ TRAFFIC_SALT);
    let hello = pba_stream::IngestFrame::Hello {
        n,
        seed,
        policy: policy.name().to_owned(),
    };
    let started = std::time::Instant::now();
    let (mut reader, mut writer) = connect_ingest(&addr)?;
    let summary =
        pba_stream::ingest::drive_ingest(&mut reader, &mut writer, &hello, &mut traffic, batches)?;
    let elapsed = started.elapsed();
    println!("sent:       {batches} batches of b = {b} to {addr}");
    println!(
        "server:     {} balls ingested, resident {}, max load {}, gap {}",
        summary.balls, summary.resident, summary.max_load, summary.gap
    );
    println!("wall time:  {elapsed:.2?}");
    Ok(())
}

/// `pba-run cluster` — run an engine protocol or a streaming policy over
/// real shard processes: one `pba-run shard-worker` child per bin range
/// (stdin/stdout pipes by default; `--socket` swaps in Unix-domain
/// sockets, `--connect` targets already-listening workers, `--local`
/// worker threads over in-memory pipes). All transports speak the same
/// checksummed binary wire frames. Runs are bit-identical to the
/// single-process equivalent for the same seed regardless of transport
/// or `--no-overlap`; the orchestrator verifies per-wave checksums and a
/// final drain.
fn run_cluster(args: &[String]) -> Result<(), String> {
    let Some(mode) = args.first() else {
        return Err("cluster: missing mode ('protocol' or 'stream')".into());
    };
    match mode.as_str() {
        "protocol" => run_cluster_protocol(&args[1..]),
        "stream" => run_cluster_stream(&args[1..]),
        other => Err(format!(
            "cluster: unknown mode '{other}' (protocol or stream)"
        )),
    }
}

/// Which transport carries the cluster's wire frames.
enum ClusterTransport {
    /// Child processes over stdin/stdout pipes (the default).
    Process,
    /// Worker threads over in-memory pipes.
    Local,
    /// Managed child processes over Unix-domain sockets.
    Socket,
    /// Unmanaged, already-listening workers (one address per shard).
    Connect(Vec<String>),
}

impl ClusterTransport {
    /// The transport `--local`, `--socket` or `--connect A1,A2,…` picks
    /// (the last one given wins); child processes over pipes otherwise.
    fn from_flags(flags: &Flags) -> Self {
        match flags.last_of(&["--local", "--socket", "--connect"]) {
            None => ClusterTransport::Process,
            Some(("--local", _)) => ClusterTransport::Local,
            Some(("--socket", _)) => ClusterTransport::Socket,
            Some((_, addrs)) => ClusterTransport::Connect(
                addrs
                    .expect("--connect takes a value")
                    .split(',')
                    .map(str::to_owned)
                    .collect(),
            ),
        }
    }

    fn describe(&self) -> &'static str {
        match self {
            ClusterTransport::Process => "processes",
            ClusterTransport::Local => "local threads",
            ClusterTransport::Socket => "socket workers",
            ClusterTransport::Connect(_) => "remote workers",
        }
    }

    fn run(&self, cfg: pba_cluster::ClusterConfig) -> Result<pba_cluster::ClusterOutcome, String> {
        match self {
            ClusterTransport::Process => cfg.run_process(),
            ClusterTransport::Local => cfg.run_local(),
            ClusterTransport::Socket => cfg.run_socket(),
            ClusterTransport::Connect(addrs) => cfg.run_connect(addrs),
        }
        .map_err(|e| e.to_string())
    }
}

/// Parse `--kill SHARD@BATCH`, e.g. `2@5`.
fn parse_kill(v: &str) -> Result<(u32, u64), String> {
    let (s, b) = v
        .split_once('@')
        .ok_or_else(|| format!("bad --kill '{v}' (expected SHARD@BATCH, e.g. 2@5)"))?;
    let shard = s.parse().map_err(|_| format!("bad --kill shard '{s}'"))?;
    let batch = b.parse().map_err(|_| format!("bad --kill batch '{b}'"))?;
    Ok((shard, batch))
}

/// The outcome lines `protocol` and `cluster protocol` share, which must
/// match bit for bit across executors, shard counts and transports. The
/// loads digest (FNV-1a over the final loads' little-endian bytes)
/// catches what the summary lines miss, such as two bins swapping loads.
fn print_outcome(out: &RunOutcome) {
    let bytes: Vec<u8> = out.loads.iter().flat_map(|l| l.to_le_bytes()).collect();
    println!("rounds:     {}", out.rounds);
    println!(
        "placed:     {} ({} unallocated)",
        out.placed, out.unallocated
    );
    println!("max load:   {} (gap {})", out.load_stats().max(), out.gap());
    println!("loads digest: {:#018x}", pba_core::wire::fnv1a(&bytes));
}

/// Per-shard wire accounting lines shared by both cluster sub-modes.
fn print_cluster_wire(out: &pba_cluster::ClusterOutcome) {
    println!(
        "wire:       {} frames, {} bytes over {} shard link(s)",
        out.total_frames(),
        out.total_bytes(),
        out.shard_records.len()
    );
    for r in &out.shard_records {
        println!(
            "  shard {}: bins [{}, {}), frames {} out / {} in, bytes {} out / {} in, \
             {} barriers{}",
            r.shard,
            r.lo,
            r.hi,
            r.frames_sent,
            r.frames_recv,
            r.bytes_sent,
            r.bytes_recv,
            r.barriers,
            if r.killed { ", killed" } else { "" }
        );
    }
}

/// The transport and sharding flags of both cluster sub-modes.
const CLUSTER: &[Flag] = &[
    Flag::value("--shards"),
    Flag::switch("--local"),
    Flag::switch("--socket"),
    Flag::value("--connect"),
    Flag::switch("--no-overlap"),
];

static CLUSTER_PROTOCOL: Spec = Spec {
    command: "cluster protocol",
    flags: &[
        &[
            Flag::value("--m"),
            Flag::value("--n"),
            Flag::value("--seed"),
        ],
        CLUSTER,
        TRACE,
        FAULTS,
    ],
    positionals: 1,
};

fn run_cluster_protocol(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(&CLUSTER_PROTOCOL, args)?;
    let Some(name) = flags.positionals().first() else {
        return Err("cluster protocol: missing name".into());
    };
    let n: u32 = flags.get("--n", 1 << 10)?;
    let spec = ProblemSpec::new(flags.get("--m", 1u64 << 20)?, n).map_err(|e| e.to_string())?;
    if !protocol_names().contains(&name.as_str()) {
        return Err(format!(
            "unknown protocol '{name}' (try `pba-run protocols`)"
        ));
    }
    let shards: u32 = flags.get("--shards", 2)?;
    if shards == 0 || shards > n {
        return Err(format!("--shards must be in 1..={n} (the bin count)"));
    }
    let faults = flags.opt_with("--faults", parse_fault_spec)?;
    let transport = ClusterTransport::from_flags(&flags);
    let overlap = !flags.switch("--no-overlap");
    let seed: u64 = flags.get("--seed", 0)?;
    let sinks = RunSinks::open(&flags)?;
    let mut cfg = ClusterConfig::engine(name, spec, seed)
        .with_shards(shards)
        .with_overlap(overlap)
        .with_metrics(sinks.sink());
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    let started = std::time::Instant::now();
    let out = transport.run(cfg)?;
    let elapsed = started.elapsed();
    sinks.flush()?;
    let run = out.run.as_ref().expect("engine outcome");
    println!(
        "protocol:   {} (cluster: {shards} shard(s) as {}{})",
        run.protocol,
        transport.describe(),
        if overlap { "" } else { ", no overlap" }
    );
    println!("spec:       {spec}");
    print_outcome(run);
    if let Some(plan) = &faults {
        println!("faults:     {}", describe_fault_plan(plan));
    }
    println!(
        "messages:   {} total ({} requests, {} responses, {} commits)",
        run.messages.total(),
        run.messages.requests,
        run.messages.responses,
        run.messages.commits
    );
    print_cluster_wire(&out);
    println!("wall time:  {elapsed:.2?}");
    sinks.print_path();
    Ok(())
}

static CLUSTER_STREAM: Spec = Spec {
    command: "cluster stream",
    flags: &[WORKLOAD, &[Flag::value("--kill")], CLUSTER, TRACE, FAULTS],
    positionals: 0,
};

fn run_cluster_stream(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(&CLUSTER_STREAM, args)?;
    let w = WorkloadFlags::parse(&flags)?;
    let shards: u32 = flags.get("--shards", 2)?;
    if shards == 0 || shards > w.n {
        return Err(format!("--shards must be in 1..={} (the bin count)", w.n));
    }
    let kill = flags.opt_with("--kill", parse_kill)?;
    let faults = flags.opt_with("--faults", parse_fault_spec)?;
    let transport = ClusterTransport::from_flags(&flags);
    let overlap = !flags.switch("--no-overlap");
    let cfg = w.cfg(w.n)?;
    let b = cfg.batch;
    let WorkloadFlags {
        policy,
        n,
        batches,
        workload,
        churn,
        seed,
        ..
    } = w;
    let sinks = RunSinks::open(&flags)?;
    let mut cluster = ClusterConfig::stream(policy, n, seed, batches, b)
        .with_workload(cfg)
        .with_shards(shards)
        .with_overlap(overlap)
        .with_metrics(sinks.sink());
    if let Some(plan) = faults {
        cluster = cluster.with_faults(plan);
    }
    if let Some((s, t)) = kill {
        cluster = cluster.with_kill(s, t);
    }
    let started = std::time::Instant::now();
    let out = transport.run(cluster)?;
    let elapsed = started.elapsed();
    sinks.flush()?;
    let resident: u64 = out.loads.iter().sum();
    let max_load = out.loads.iter().copied().max().unwrap_or(0);
    println!(
        "policy:     {} (cluster: {shards} shard(s) as {}{})",
        out.workload,
        transport.describe(),
        if overlap { "" } else { ", no overlap" }
    );
    println!("workload:   {workload}, b = {b}, churn {churn}, seed {seed}");
    if let Some((s, t)) = kill {
        println!(
            "chaos:      shard {s} killed before batch {t}; placements redirected to live domains"
        );
    }
    if let Some(plan) = &faults {
        println!("faults:     {}", describe_fault_plan(plan));
    }
    println!("batches:    {}", out.batches);
    println!(
        "resident:   {resident} balls in {n} bins (max load {max_load}, gap {})",
        max_load.saturating_sub(resident / u64::from(n))
    );
    print_cluster_wire(&out);
    println!("wall time:  {elapsed:.2?}");
    sinks.print_path();
    Ok(())
}

/// One benchmark tier: problem size, rep count, protocol subset, executor
/// sweep, and tuning mode.
struct BenchTier {
    name: &'static str,
    n: u32,
    reps: u64,
    protocols: Vec<&'static str>,
    executors: Vec<ExecutorKind>,
    tuning: Tuning,
    stream: bool,
}

/// The hot subset measured at medium+ tiers: the paper's headline
/// protocols plus the single-choice baseline.
const HOT_PROTOCOLS: [&str; 4] = [
    "single-choice",
    "collision",
    "parallel-two-choice",
    "stemann-heavy",
];

/// Small-shaped tier: the full registry plus the stream section, with a
/// pinned fan-out geometry. The parallel rows need two fixes to report
/// genuine pool numbers in `BENCH_*.json` instead of `pool_jobs: 0`: a
/// dedicated 4-lane pool (the global pool collapses to one lane on
/// single-core runners, and one-lane rounds never fan out), and a chunk
/// geometry under the bench sizes (m = n ≤ 4096 sits below the auto
/// fan-out cutoff, which would silently serialize every round).
fn small_shaped_tier(name: &'static str, n: u32, reps: u64) -> BenchTier {
    BenchTier {
        name,
        n,
        reps,
        protocols: protocol_names().to_vec(),
        executors: vec![ExecutorKind::Sequential, ExecutorKind::ParallelWith(4)],
        tuning: Tuning::fixed(256, n as usize),
        stream: true,
    }
}

/// Medium+ tier: the hot subset across a lane sweep under [`Tuning::Auto`]
/// so lane-scaling curves come out of one invocation.
fn lane_sweep_tier(name: &'static str, n: u32, reps: u64) -> BenchTier {
    BenchTier {
        name,
        n,
        reps,
        protocols: HOT_PROTOCOLS.to_vec(),
        executors: vec![
            ExecutorKind::Sequential,
            ExecutorKind::ParallelWith(2),
            ExecutorKind::ParallelWith(4),
        ],
        tuning: Tuning::Auto,
        stream: false,
    }
}

/// The named bench tiers, in size order.
const TIER_NAMES: [&str; 5] = ["smoke", "small", "medium", "large", "xl"];

fn bench_tier(tier: &str) -> Result<BenchTier, String> {
    Ok(match tier {
        "smoke" => small_shaped_tier("smoke", 1 << 8, 2),
        "small" => small_shaped_tier("small", 1 << 10, 5),
        "medium" => lane_sweep_tier("medium", 1 << 16, 3),
        "large" => lane_sweep_tier("large", 1 << 20, 2),
        "xl" => lane_sweep_tier("xl", 1 << 24, 1),
        other => {
            return Err(format!(
                "unknown tier '{other}': {}choose from: {}",
                suggest(other, TIER_NAMES),
                TIER_NAMES.join(", ")
            ))
        }
    })
}

/// Lanes an executor actually runs with (reported in every bench row).
fn executor_lanes(executor: ExecutorKind) -> usize {
    match executor {
        ExecutorKind::Sequential => 1,
        ExecutorKind::Parallel => pba_par::global_pool().lanes(),
        ExecutorKind::ParallelWith(lanes) => lanes.max(1),
    }
}

fn tuning_mode(tuning: Tuning) -> &'static str {
    match tuning {
        Tuning::Auto => "auto",
        Tuning::Fixed(_) => "fixed",
    }
}

/// Resolve `--out` into a file path: a value ending in `.json` names the
/// file exactly (for side-by-side baseline comparisons via
/// `scripts/bench_diff.sh`); anything else is a directory receiving
/// `default_name`.
fn resolve_out_path(out: Option<&str>, default_name: &str) -> Result<String, String> {
    let out = out.unwrap_or(".");
    if out.ends_with(".json") {
        if let Some(parent) = std::path::Path::new(out).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
            }
        }
        Ok(out.to_string())
    } else {
        std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
        Ok(format!("{out}/{default_name}"))
    }
}

static BENCH: Spec = Spec {
    command: "bench",
    flags: &[&[Flag::value("--tier"), Flag::value("--out")]],
    positionals: 0,
};

/// Criterion-free self-timing benchmark of the protocol registry at one
/// tier: each tier's protocol subset at `m = n` across its executor
/// sweep, `reps` seeds each, measured by the engine's own
/// [`EngineMetrics`]; the small-shaped tiers additionally time every
/// streaming placement policy ingesting 32n-ball batches. Every JSON row
/// carries the actual lane count and the resolved tuning, and the doc is
/// written to `BENCH_<tier>.json`.
fn run_bench(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(&BENCH, args)?;
    // The default is the small tier: the committed BENCH_small.json
    // baseline and the CI throughput gate.
    let tier = bench_tier(&flags.get("--tier", "small".to_string())?)?;
    let out_dir = flags.opt::<String>("--out")?;

    let n = tier.n;
    let reps = tier.reps;
    let spec = ProblemSpec::new(n as u64, n).map_err(|e| e.to_string())?;
    eprintln!(
        "benchmarking {} protocol(s) at m = n = {n} ({} tier), {reps} seed(s), {} executor(s)…",
        tier.protocols.len(),
        tier.name,
        tier.executors.len()
    );
    let mut entries = Vec::new();
    println!(
        "{:<22} {:<12} {:>6} {:>12} {:>12} {:>9}",
        "protocol", "executor", "lanes", "balls/s", "rounds/s", "rounds"
    );
    for &name in &tier.protocols {
        for &executor in &tier.executors {
            let lanes = executor_lanes(executor);
            let metrics = Arc::new(EngineMetrics::new());
            for rep in 0..reps {
                let cfg = RunConfig::seeded(90_000 + rep)
                    .with_executor(executor)
                    .with_tuning(tier.tuning)
                    .with_trace(false)
                    .with_metrics(metrics.clone());
                run_by_name(name, spec, cfg)
                    .expect("registry name")
                    .map_err(|e| format!("{name} ({}): {e}", executor_str(executor)))?;
            }
            let report = metrics.report();
            println!(
                "{:<22} {:<12} {:>6} {:>12.0} {:>12.1} {:>9}",
                name,
                executor_str(executor),
                lanes,
                report.balls_per_sec(),
                report.rounds_per_sec(),
                report.rounds
            );
            // The resolved plan for a full-size round (under auto tuning
            // later rounds re-resolve as the active set drains).
            let plan = tier.tuning.plan(spec.balls(), lanes);
            let mut entry = JsonObject::new()
                .str("protocol", name)
                .str("executor", &executor_str(executor))
                .u64("lanes", lanes as u64)
                .str("tuning", tuning_mode(tier.tuning))
                .u64("min_chunk", plan.min_chunk as u64)
                .u64("par_cutoff", plan.par_cutoff as u64)
                .u64("runs", report.runs)
                .u64("rounds", report.rounds)
                .u64("placed", report.placed)
                .u64("run_nanos", report.run_nanos)
                .u64("round_nanos", report.round_nanos)
                .f64("balls_per_sec", report.balls_per_sec())
                .f64("rounds_per_sec", report.rounds_per_sec())
                .raw("phase_nanos", &u64_array(&report.phase_nanos));
            if let Some(pool) = &report.pool {
                entry = entry
                    .u64("pool_jobs", pool.jobs)
                    .u64("pool_tasks", pool.tasks)
                    .u64("pool_busy_nanos", pool.total_busy_nanos());
            }
            entries.push(entry.finish());
        }
    }

    // Streaming throughput (small-shaped tiers): every placement policy
    // ingesting 32n-ball batches (32n ≥ the ingest parallel cutoff at
    // every scale), so the parallel rows genuinely exercise the pool.
    let stream_b = 32 * n as u64;
    let stream_batches = 8u64;
    let mut stream_entries = Vec::new();
    if tier.stream {
        eprintln!(
            "benchmarking {} stream policies at n = {n}, b = 32n, {reps} seeds…",
            PolicyKind::ALL.len()
        );
        println!();
        println!(
            "{:<22} {:<12} {:>12} {:>12} {:>14}",
            "stream policy", "ingest", "batches/s", "balls/s", "balls/s/lane"
        );
        for kind in PolicyKind::ALL {
            for parallel in [false, true] {
                // Live-load two-choice is defined by sequential ingestion;
                // a "parallel" row would just repeat the sequential
                // numbers.
                if parallel && matches!(kind, PolicyKind::TwoChoice) {
                    continue;
                }
                let lanes = if parallel {
                    pba_par::global_pool().lanes() as u64
                } else {
                    1
                };
                let metrics = Arc::new(EngineMetrics::new());
                for rep in 0..reps {
                    let mut alloc = StreamAllocator::new(n, 91_000 + rep, kind)
                        .with_shards(lanes as usize)
                        .with_metrics(metrics.clone());
                    if parallel {
                        alloc = alloc.parallel();
                    }
                    let mut traffic = Workload::new(WorkloadCfg::uniform(stream_b), 92_000 + rep);
                    for _ in 0..stream_batches {
                        alloc.ingest(&traffic.next_batch());
                    }
                }
                let report = metrics.report();
                let ingest = if parallel { "parallel" } else { "sequential" };
                let balls_per_sec = report.stream_balls_per_sec();
                println!(
                    "{:<22} {:<12} {:>12.1} {:>12.0} {:>14.0}",
                    kind.name(),
                    ingest,
                    report.batches_per_sec(),
                    balls_per_sec,
                    balls_per_sec / lanes as f64
                );
                // The allocator runs Tuning::Auto; report the plan it
                // resolves for a full-size batch.
                let plan = Tuning::Auto.plan_ingest(stream_b, lanes as usize);
                stream_entries.push(
                    JsonObject::new()
                        .str("policy", kind.name())
                        .str("ingest", ingest)
                        .u64("lanes", lanes)
                        .str("tuning", "auto")
                        .u64("min_chunk", plan.min_chunk as u64)
                        .u64("par_cutoff", plan.par_cutoff as u64)
                        .u64("batches", report.batches)
                        .u64("balls", report.batch_arrivals)
                        .u64("batch_nanos", report.batch_nanos)
                        .f64("batches_per_sec", report.batches_per_sec())
                        .f64("balls_per_sec", balls_per_sec)
                        .f64("balls_per_sec_per_lane", balls_per_sec / lanes as f64)
                        .finish(),
                );
            }
        }
    }

    // Cluster mode (small-shaped tiers): wire cost and throughput of the
    // sharded orchestration at 1/2/4 shards, plus one 4-shard row at
    // n = 2^20 whatever the tier, so wire bytes per wave are comparable
    // across tiers. Worker threads over in-memory pipes carry the
    // identical wire protocol; spawning real processes here would
    // benchmark the OS, not the waves. The rows lack the
    // protocol/executor and policy/ingest keys `bench_diff.sh` matches
    // on, so the section rides along outside the regression gate.
    let mut cluster_entries = Vec::new();
    if tier.stream {
        eprintln!("benchmarking cluster mode at m = n = {n} (shards 1/2/4) and 2^20 (4 shards)…");
        println!();
        println!(
            "{:<22} {:>7} {:>7} {:>12} {:>12} {:>12} {:>12}",
            "cluster", "shards", "wire", "balls/s", "frames", "bytes", "bytes/wave"
        );
        let wide_n = 1u32 << 20;
        for (bins, shards) in [(n, 1u32), (n, 2), (n, 4), (wide_n, 4)] {
            let spec = ProblemSpec::new(u64::from(bins), bins).map_err(|e| e.to_string())?;
            let started = std::time::Instant::now();
            let out = ClusterConfig::engine("collision", spec, 93_000)
                .with_shards(shards)
                .run_local()
                .map_err(|e| format!("cluster bench (n = {bins}, {shards} shards): {e}"))?;
            let nanos = started.elapsed().as_nanos() as u64;
            let run = out.run.as_ref().expect("engine outcome");
            let bps = run.placed as f64 / (nanos as f64 / 1e9);
            // Every shard crosses the same barriers; shard 0's count is
            // the wave count of the whole run.
            let waves = out.shard_records.first().map_or(0, |r| r.barriers);
            let bytes_per_wave = out.total_bytes() / waves.max(1);
            let label = if bins == n {
                "engine/collision"
            } else {
                "engine/collision 2^20"
            };
            println!(
                "{:<22} {:>7} {:>7} {:>12.0} {:>12} {:>12} {:>12}",
                label,
                shards,
                "binary",
                bps,
                out.total_frames(),
                out.total_bytes(),
                bytes_per_wave
            );
            cluster_entries.push(
                JsonObject::new()
                    .str("mode", "engine")
                    .str("workload", out.workload)
                    .str("wire", "binary")
                    .u64("n", u64::from(bins))
                    .u64("shards", u64::from(shards))
                    .u64("rounds", u64::from(run.rounds))
                    .u64("placed", run.placed)
                    .u64("messages", run.messages.total())
                    .u64("frames", out.total_frames())
                    .u64("bytes", out.total_bytes())
                    .u64("waves", waves)
                    .u64("wire_bytes_per_wave", bytes_per_wave)
                    .u64("wall_nanos", nanos)
                    .f64("balls_per_sec", bps)
                    .finish(),
            );
        }
    }

    // Replay-service latency (small-shaped tiers): each workload shape
    // replayed unthrottled through the service facade, reporting
    // queue-to-placement latency percentiles per ball. Entries carry no
    // `ingest` key, so they ride outside the `bench_diff.sh` gate like
    // the cluster section.
    let serve_b = 4 * n as u64;
    let serve_batches = 12u64;
    let mut service_entries = Vec::new();
    if tier.stream {
        eprintln!("benchmarking replay service at n = {n}, b = 4n, 3 workloads…");
        println!();
        println!(
            "{:<22} {:>12} {:>10} {:>10} {:>10}",
            "serve workload", "balls/s", "p50 µs", "p99 µs", "p999 µs"
        );
        for workload in ["uniform", "zipf", "burst"] {
            let kind = parse_workload_kind(workload)?;
            let cfg = WorkloadCfg {
                kind,
                batch: serve_b,
                churn: 0.0,
                weights: WeightDist::Constant(1),
            };
            let alloc = StreamAllocator::new(n, 94_000, PolicyKind::BatchedTwoChoice);
            let mut traffic = Workload::new(cfg, 94_500);
            let service_cfg = ServiceConfig::default()
                .with_queue_capacity(4)
                .with_checkpoint_every(4);
            let started = std::time::Instant::now();
            let (_, report) = replay(alloc, &mut traffic, serve_batches, service_cfg);
            let nanos = started.elapsed().as_nanos() as u64;
            let bps = report.balls as f64 / (nanos as f64 / 1e9);
            println!(
                "{:<22} {:>12.0} {:>10.1} {:>10.1} {:>10.1}",
                workload,
                bps,
                report.total.p50() as f64 / 1e3,
                report.total.p99() as f64 / 1e3,
                report.total.p999() as f64 / 1e3
            );
            service_entries.push(
                JsonObject::new()
                    .str("workload", workload)
                    .str("policy", "batched-two-choice")
                    .u64("queue", 4)
                    .u64("batches", report.batches)
                    .u64("balls", report.balls)
                    .u64("checkpoints", report.checkpoints.len() as u64)
                    .u64("p50_nanos", report.total.p50())
                    .u64("p99_nanos", report.total.p99())
                    .u64("p999_nanos", report.total.p999())
                    .u64("max_nanos", report.total.max())
                    .u64("wall_nanos", nanos)
                    .f64("balls_per_sec", bps)
                    .finish(),
            );
        }
    }

    let mut doc = JsonObject::new()
        .str("bench", "pba protocol registry")
        .str("tier", tier.name)
        .str("scale", tier.name)
        .u64("m", spec.balls())
        .u64("n", spec.bins() as u64)
        .u64("reps", reps)
        .str("tuning", tuning_mode(tier.tuning))
        .raw("phases", &phase_names_json())
        .raw("entries", &format!("[{}]", entries.join(",")));
    if tier.stream {
        doc = doc
            .u64("stream_batch", stream_b)
            .u64("stream_batches", stream_batches)
            .raw("stream_entries", &format!("[{}]", stream_entries.join(",")))
            .raw(
                "cluster_entries",
                &format!("[{}]", cluster_entries.join(",")),
            )
            .u64("service_batch", serve_b)
            .u64("service_batches", serve_batches)
            .raw(
                "service_entries",
                &format!("[{}]", service_entries.join(",")),
            );
    }
    let doc = doc.finish();
    let path = resolve_out_path(out_dir.as_deref(), &format!("BENCH_{}.json", tier.name))?;
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| e.to_string())?;
    eprintln!("wrote {path}");
    Ok(())
}

static VERIFY: Spec = Spec {
    command: "verify",
    flags: &[&[Flag::value("--scale"), Flag::switch("--json")], FAULTS],
    positionals: usize::MAX,
};

/// `pba-run verify` — run the statistical claim oracles from
/// `pba-conformance` and render a paper-style verdict table. Exits
/// nonzero when any claim is REFUTED, so CI catches a miswired engine;
/// `--faults` deliberately miswires every run (the negative control).
fn run_verify(args: &[String]) -> Result<ExitCode, String> {
    let flags = Flags::parse(&VERIFY, args)?;
    let scale = flags
        .opt_with("--scale", |v| {
            VerifyScale::parse(v).ok_or_else(|| format!("bad --scale '{v}' (ci or full)"))
        })?
        .unwrap_or(VerifyScale::Ci);
    let json = flags.switch("--json");
    let faults = flags.opt_with("--faults", parse_fault_spec)?;
    let claims: Vec<Box<dyn Claim>> = if flags.positionals().is_empty() {
        pba_conformance::all_claims()
    } else {
        let ids = pba_conformance::claim_ids();
        flags
            .positionals()
            .iter()
            .map(|id| {
                pba_conformance::claim_by_id(id).ok_or_else(|| {
                    format!(
                        "unknown claim '{id}': {}registered oracles are {}",
                        suggest(id, ids.iter().copied()),
                        ids.join(", ")
                    )
                })
            })
            .collect::<Result<_, _>>()?
    };
    let opts = VerifyOptions {
        scale,
        miswire: faults,
    };

    eprintln!(
        "verifying {} claim(s) at {} scale ({} replicates each)…",
        claims.len(),
        scale.name(),
        scale.reps()
    );
    if let Some(plan) = &faults {
        eprintln!("miswired on purpose: {}", describe_fault_plan(plan));
    }
    let started = std::time::Instant::now();
    let reports: Vec<_> = claims
        .iter()
        .map(|c| {
            let t = std::time::Instant::now();
            let r = c.check(&opts);
            eprintln!(
                "  {:<12} {:<9} {:.1?}",
                r.id,
                r.verdict.as_str(),
                t.elapsed()
            );
            r
        })
        .collect();
    let elapsed = started.elapsed();
    let refuted = reports.iter().filter(|r| !r.confirmed()).count();

    if json {
        let entries: Vec<String> = reports
            .iter()
            .map(|r| {
                let notes: Vec<String> = r
                    .notes
                    .iter()
                    .map(|s| format!("\"{}\"", json_escape(s)))
                    .collect();
                JsonObject::new()
                    .str("id", r.id)
                    .str("experiment", r.experiment)
                    .str("title", r.title)
                    .str("bound", &r.bound)
                    .str("observed", &r.observed)
                    .f64("mean", r.mean)
                    .f64("ci_lo", r.ci.0)
                    .f64("ci_hi", r.ci.1)
                    .str("verdict", r.verdict.as_str())
                    .raw("notes", &format!("[{}]", notes.join(",")))
                    .finish()
            })
            .collect();
        let doc = JsonObject::new()
            .str("scale", scale.name())
            .u64("claims", reports.len() as u64)
            .u64("refuted", refuted as u64)
            .raw("reports", &format!("[{}]", entries.join(",")))
            .finish();
        println!("{doc}");
    } else {
        let mut table = Table::new(
            format!(
                "Conformance verdicts at {} scale ({} replicates per point)",
                scale.name(),
                scale.reps()
            ),
            &["oracle", "exp", "bound", "observed", "verdict"],
        );
        for r in &reports {
            table.push_row(vec![
                r.id.to_string(),
                r.experiment.to_string(),
                r.bound.clone(),
                r.observed.clone(),
                r.verdict.as_str().to_string(),
            ]);
        }
        println!("{}", table.to_markdown());
        for r in &reports {
            if !r.notes.is_empty() {
                println!("{} — {}", r.id, r.title);
                for note in &r.notes {
                    println!("  · {note}");
                }
            }
        }
        println!();
        println!(
            "{} claim(s) checked in {:.1?}: {} CONFIRMED, {} REFUTED",
            reports.len(),
            elapsed,
            reports.len() - refuted,
            refuted
        );
    }
    Ok(if refuted == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The phase-name legend for `phase_nanos` arrays in `BENCH_*.json`.
fn phase_names_json() -> String {
    let names: Vec<String> = Phase::ALL
        .iter()
        .map(|p| format!("\"{}\"", p.name()))
        .collect();
    format!("[{}]", names.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The usage lines of `command`: its `pba-run …` line and the
    /// indented continuation lines under it.
    fn usage_of(command: &str) -> String {
        let head = format!("  pba-run {command}");
        let mut lines = USAGE.lines().skip_while(|l| {
            l.strip_prefix(&head)
                .is_none_or(|rest| !rest.is_empty() && !rest.starts_with(' '))
        });
        let first = lines.next().expect("every command has a usage line");
        std::iter::once(first)
            .chain(lines.take_while(|l| l.starts_with("   ")))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Whether `text` names `flag` as a whole word, so that `--batch`
    /// does not match `--batches`.
    fn names(text: &str, flag: &str) -> bool {
        text.match_indices(flag).any(|(i, _)| {
            !text[i + flag.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '-')
        })
    }

    #[test]
    fn usage_lists_every_flag_each_command_accepts() {
        let specs = [
            &ALL,
            &EXPERIMENT,
            &PROTOCOL,
            &STREAM,
            &SERVE_REPLAY,
            &SERVE_LISTEN,
            &SERVE_SEND,
            &CLUSTER_PROTOCOL,
            &CLUSTER_STREAM,
            &SHARD_WORKER,
            &BENCH,
            &VERIFY,
        ];
        for spec in specs {
            let usage = usage_of(spec.command);
            for flag in spec.all_flags() {
                assert!(
                    names(&usage, flag.name),
                    "the usage of {} omits {}:\n{usage}",
                    spec.command,
                    flag.name
                );
            }
        }
    }
}
