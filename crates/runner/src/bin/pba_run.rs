//! `pba-run` — run the reproduction experiments and ad-hoc protocol
//! simulations from the command line.
//!
//! ```text
//! pba-run list
//! pba-run all [--scale smoke|default|full] [--out DIR] [--trace F.jsonl]
//! pba-run <experiment-id> [--scale ...] [--out DIR] [--trace F.jsonl]
//! pba-run protocol <name> --m M --n N [--seed S] [--parallel] [--trace F.jsonl]
//! pba-run protocols            # list protocol names
//! pba-run stream [--policy P] [--n N] [--batch 8n] …   # streaming allocator
//! pba-run serve --replay [--rate R] [--snapshot F] …   # replay service facade
//! pba-run cluster protocol <name> --shards S …   # multi-process shards
//! pba-run cluster stream --shards S [--kill S@B] …
//! pba-run bench [--tier small|medium|large|xl] [--out DIR|FILE.json]
//! pba-run tune [--tier ...] [--out DIR|FILE.json]     # autotune chunk geometry
//! pba-run verify [CLAIM…] [--scale ci|full] [--json]  # statistical claim oracles
//! ```

use std::process::ExitCode;
use std::sync::Arc;

use pba_cluster::ClusterConfig;
use pba_conformance::{Claim, VerifyOptions, VerifyScale};
use pba_core::metrics::{EngineMetrics, FanoutSink, MetricsSink, Phase};
use pba_core::{ExecutorKind, ProblemSpec, RunConfig, RunOutcome, Tuning};
use pba_protocols::{protocol_names, run_by_name};
use pba_runner::json::{escape as json_escape, executor_str, u64_array, JsonObject};
use pba_runner::{
    all_experiments, describe_fault_plan, experiment_by_id, parse_fault_spec, JsonlTrace,
    RunOptions, Scale, Table,
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
  pba-run serve --listen ADDR [--policy P] [--n N] [--shards S] [--seed S]
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
  pba-run bench [--tier small|medium|large|xl | --scale smoke|default|full]
                [--out DIR|FILE.json]
  pba-run tune [--tier small|medium|large|xl] [--out DIR|FILE.json]
  pba-run verify [CLAIM…] [--scale ci|full] [--json] [--faults SPEC]

fault spec: comma-separated key=value clauses, e.g.
  --faults drop=0.1,crash=0.02,straggle=8x0.2,domains=8x0.3,kill=2x5,seed=7";

fn run(args: &[String]) -> Result<ExitCode, String> {
    let Some(cmd) = args.first() else {
        return Err("missing command".into());
    };
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
        "all" => {
            let flags = RunFlags::parse(&args[1..])?;
            let trace = flags.open_trace()?;
            for e in all_experiments() {
                run_experiment(e.as_ref(), &flags, trace.clone())?;
            }
            flush_trace(trace).map(done)
        }
        "protocol" => run_protocol(&args[1..]).map(done),
        "stream" => run_stream_cmd(&args[1..]).map(done),
        "serve" => run_serve(&args[1..]).map(done),
        "cluster" => run_cluster(&args[1..]).map(done),
        // The child mode `cluster` spawns per shard. Errors go to stderr
        // without the usage banner: the orchestrator is the audience.
        "shard-worker" => {
            let served = match args.get(1).map(String::as_str) {
                None => pba_cluster::worker::serve_stdio(),
                Some("--listen") => match args.get(2) {
                    Some(addr) => pba_cluster::worker::serve_listen(addr),
                    None => Err("--listen needs an address".into()),
                },
                Some(other) => Err(format!("unknown flag '{other}' (--listen ADDR)")),
            };
            match served {
                Ok(()) => Ok(ExitCode::SUCCESS),
                Err(detail) => {
                    eprintln!("shard-worker: {detail}");
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        "bench" => run_bench(&args[1..]).map(done),
        "tune" => run_tune(&args[1..]).map(done),
        // `verify` owns its exit code: a refuted claim is a nonzero exit
        // with the verdict table printed, not a usage error.
        "verify" => run_verify(&args[1..]),
        id => {
            let e = experiment_by_id(id).ok_or_else(|| unknown_command_message(id))?;
            let flags = RunFlags::parse(&args[1..])?;
            let trace = flags.open_trace()?;
            run_experiment(e.as_ref(), &flags, trace.clone())?;
            flush_trace(trace).map(done)
        }
    }
}

/// Error text for an unrecognized first argument: name the valid range
/// and, when something known is close, suggest it.
fn unknown_command_message(id: &str) -> String {
    const COMMANDS: [&str; 11] = [
        "help",
        "list",
        "all",
        "protocol",
        "protocols",
        "stream",
        "serve",
        "cluster",
        "bench",
        "tune",
        "verify",
    ];
    let lowered = id.to_lowercase();
    let best = all_experiments()
        .iter()
        .map(|e| e.id())
        .chain(COMMANDS)
        .map(|c| (edit_distance(&lowered, c), c))
        .min()
        .filter(|&(d, _)| d <= 2);
    let hint = match best {
        Some((_, c)) => format!("did you mean '{c}'? "),
        None => String::new(),
    };
    format!(
        "unknown experiment or command '{id}': {hint}valid experiment ids are \
         e01..e25 (see `pba-run list`)"
    )
}

/// Levenshtein distance, for the did-you-mean suggestion.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = Vec::with_capacity(b.len() + 1);
        cur.push(i + 1);
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur.push((prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// Flags shared by the experiment-running commands.
struct RunFlags {
    scale: Scale,
    out_dir: Option<String>,
    trace_path: Option<String>,
}

impl RunFlags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut flags = RunFlags {
            scale: Scale::Default,
            out_dir: None,
            trace_path: None,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--scale" => {
                    let v = it.next().ok_or("--scale needs a value")?;
                    flags.scale = Scale::parse(v).ok_or_else(|| format!("bad scale '{v}'"))?;
                }
                "--out" => {
                    flags.out_dir = Some(it.next().ok_or("--out needs a value")?.clone());
                }
                "--trace" => {
                    flags.trace_path = Some(it.next().ok_or("--trace needs a value")?.clone());
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(flags)
    }

    /// Open the JSONL trace sink, when requested.
    fn open_trace(&self) -> Result<Option<Arc<JsonlTrace>>, String> {
        match &self.trace_path {
            None => Ok(None),
            Some(path) => JsonlTrace::create(path)
                .map(|t| Some(Arc::new(t)))
                .map_err(|e| format!("--trace {path}: {e}")),
        }
    }
}

fn flush_trace(trace: Option<Arc<JsonlTrace>>) -> Result<(), String> {
    if let Some(t) = trace {
        t.flush().map_err(|e| format!("trace flush: {e}"))?;
    }
    Ok(())
}

fn run_experiment(
    e: &dyn pba_runner::Experiment,
    flags: &RunFlags,
    trace: Option<Arc<JsonlTrace>>,
) -> Result<(), String> {
    eprintln!("running {} ({})…", e.id(), e.title());
    let started = std::time::Instant::now();
    let mut opts = RunOptions::new();
    if let Some(t) = trace {
        opts = opts.with_metrics(t);
    }
    let report = e.run_with(flags.scale, &opts);
    eprintln!("  done in {:.1?}", started.elapsed());
    let md = report.to_markdown();
    println!("{md}");
    if let Some(dir) = &flags.out_dir {
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

fn run_protocol(args: &[String]) -> Result<(), String> {
    let Some(name) = args.first() else {
        return Err("protocol: missing name".into());
    };
    let mut m = 1u64 << 20;
    let mut n = 1u32 << 10;
    let mut seed = 0u64;
    let mut parallel = false;
    let mut trace_path: Option<String> = None;
    let mut faults = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--faults" => {
                faults = Some(parse_fault_spec(
                    it.next().ok_or("--faults needs a value")?,
                )?);
            }
            "--m" => {
                m = it
                    .next()
                    .ok_or("--m needs a value")?
                    .parse()
                    .map_err(|_| "bad --m")?
            }
            "--n" => {
                n = it
                    .next()
                    .ok_or("--n needs a value")?
                    .parse()
                    .map_err(|_| "bad --n")?
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "bad --seed")?
            }
            "--parallel" => parallel = true,
            "--trace" => {
                trace_path = Some(it.next().ok_or("--trace needs a value")?.clone());
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let spec = ProblemSpec::new(m, n).map_err(|e| e.to_string())?;
    let mut cfg = RunConfig::seeded(seed);
    if parallel {
        cfg = cfg.parallel();
    }
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    let metrics = Arc::new(EngineMetrics::new());
    let trace = match &trace_path {
        None => None,
        Some(path) => Some(Arc::new(
            JsonlTrace::create(path).map_err(|e| format!("--trace {path}: {e}"))?,
        )),
    };
    cfg = match &trace {
        None => cfg.with_metrics(metrics.clone()),
        Some(t) => cfg.with_metrics(Arc::new(FanoutSink::new(vec![
            metrics.clone() as Arc<dyn MetricsSink>,
            t.clone() as Arc<dyn MetricsSink>,
        ]))),
    };
    let started = std::time::Instant::now();
    let out = run_by_name(name, spec, cfg)
        .ok_or_else(|| format!("unknown protocol '{name}' (try `pba-run protocols`)"))?
        .map_err(|e| e.to_string())?;
    let elapsed = started.elapsed();
    if let Some(t) = &trace {
        t.flush().map_err(|e| format!("trace flush: {e}"))?;
    }
    let stats = out.load_stats();
    let report = metrics.report();
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
    if let Some(path) = &trace_path {
        println!("trace:      {path}");
    }
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
        other => {
            let lowered = other.to_lowercase();
            let hint = WORKLOADS
                .iter()
                .map(|&w| (edit_distance(&lowered, w), w))
                .min()
                .filter(|&(d, _)| d <= 2)
                .map(|(_, w)| format!("did you mean '{w}'? "))
                .unwrap_or_default();
            Err(format!(
                "unknown workload '{other}' ({hint}choose from: {})",
                WORKLOADS.join(", ")
            ))
        }
    }
}

/// `pba-run stream` — drive a synthetic workload through a long-lived
/// [`StreamAllocator`] and print a paper-style checkpoint table plus a
/// throughput summary.
fn run_stream_cmd(args: &[String]) -> Result<(), String> {
    let mut policy = PolicyKind::BatchedTwoChoice;
    let mut n: u32 = 1 << 10;
    let mut batch_spec = "4n".to_string();
    let mut batches: u64 = 32;
    let mut workload = "uniform".to_string();
    let mut churn = 0.0f64;
    let mut shards: usize = 1;
    let mut seed = 0u64;
    let mut parallel = false;
    let mut trace_path: Option<String> = None;
    let mut faults = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--faults" => {
                faults = Some(parse_fault_spec(
                    it.next().ok_or("--faults needs a value")?,
                )?);
            }
            "--policy" => {
                let v = it.next().ok_or("--policy needs a value")?;
                policy = PolicyKind::parse(v).ok_or_else(|| {
                    let names: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown policy '{v}' (choose from: {})", names.join(", "))
                })?;
            }
            "--n" => {
                n = it
                    .next()
                    .ok_or("--n needs a value")?
                    .parse()
                    .map_err(|_| "bad --n")?;
            }
            "--batch" => batch_spec = it.next().ok_or("--batch needs a value")?.clone(),
            "--batches" => {
                batches = it
                    .next()
                    .ok_or("--batches needs a value")?
                    .parse()
                    .map_err(|_| "bad --batches")?;
            }
            "--workload" => workload = it.next().ok_or("--workload needs a value")?.clone(),
            "--churn" => {
                churn = it
                    .next()
                    .ok_or("--churn needs a value")?
                    .parse()
                    .map_err(|_| "bad --churn")?;
            }
            "--shards" => {
                shards = it
                    .next()
                    .ok_or("--shards needs a value")?
                    .parse()
                    .map_err(|_| "bad --shards")?;
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "bad --seed")?;
            }
            "--parallel" => parallel = true,
            "--trace" => {
                trace_path = Some(it.next().ok_or("--trace needs a value")?.clone());
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    if batches == 0 {
        return Err("--batches must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&churn) {
        return Err("--churn must be in [0, 1]".into());
    }
    let b = parse_batch_size(&batch_spec, n)?;
    let kind = parse_workload_kind(&workload)?;
    let cfg = WorkloadCfg {
        kind,
        batch: b,
        churn,
        weights: WeightDist::Constant(1),
    };

    let metrics = Arc::new(EngineMetrics::new());
    let trace = match &trace_path {
        None => None,
        Some(path) => Some(Arc::new(
            JsonlTrace::create(path).map_err(|e| format!("--trace {path}: {e}"))?,
        )),
    };
    let sink: Arc<dyn MetricsSink> = match &trace {
        None => metrics.clone(),
        Some(t) => Arc::new(FanoutSink::new(vec![
            metrics.clone() as Arc<dyn MetricsSink>,
            t.clone() as Arc<dyn MetricsSink>,
        ])),
    };
    let mut alloc = StreamAllocator::new(n, seed, policy)
        .with_shards(shards)
        .with_metrics(sink);
    if parallel {
        alloc = alloc.parallel();
    }
    if let Some(plan) = faults {
        alloc = alloc.with_faults(plan);
    }
    // Distinct salt keeps workload draws off the placement streams.
    let mut traffic = Workload::new(cfg, seed ^ 0x57AEA3);

    let started = std::time::Instant::now();
    let records: Vec<_> = (0..batches)
        .map(|_| alloc.ingest(&traffic.next_batch()).record)
        .collect();
    let elapsed = started.elapsed();
    if let Some(t) = &trace {
        t.flush().map_err(|e| format!("trace flush: {e}"))?;
    }

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

    let report = metrics.report();
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
    if let Some(path) = &trace_path {
        println!("trace:      {path}");
    }
    Ok(())
}

/// Render nanoseconds as microseconds with one decimal, for the serve
/// checkpoint table.
fn micros(nanos: u64) -> String {
    format!("{:.1}", nanos as f64 / 1e3)
}

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
    let mut policy = PolicyKind::BatchedTwoChoice;
    let mut n: u32 = 1 << 10;
    let mut batch_spec = "4n".to_string();
    let mut batches: u64 = 32;
    let mut workload = "uniform".to_string();
    let mut churn = 0.0f64;
    let mut shards: usize = 1;
    let mut seed = 0u64;
    let mut parallel = false;
    let mut rate = 0.0f64;
    let mut queue: usize = 4;
    let mut checkpoint_every: u64 = 8;
    let mut snapshot_at: Option<u64> = None;
    let mut snapshot_path: Option<String> = None;
    let mut restore_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut faults = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            // The only mode today; named so `serve` can grow ingestion
            // modes later without breaking scripts.
            "--replay" => {}
            "--faults" => {
                faults = Some(parse_fault_spec(
                    it.next().ok_or("--faults needs a value")?,
                )?);
            }
            "--policy" => {
                let v = it.next().ok_or("--policy needs a value")?;
                policy = PolicyKind::parse(v).ok_or_else(|| {
                    let names: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown policy '{v}' (choose from: {})", names.join(", "))
                })?;
            }
            "--n" => {
                n = it
                    .next()
                    .ok_or("--n needs a value")?
                    .parse()
                    .map_err(|_| "bad --n")?;
            }
            "--batch" => batch_spec = it.next().ok_or("--batch needs a value")?.clone(),
            "--batches" => {
                batches = it
                    .next()
                    .ok_or("--batches needs a value")?
                    .parse()
                    .map_err(|_| "bad --batches")?;
            }
            "--workload" => workload = it.next().ok_or("--workload needs a value")?.clone(),
            "--churn" => {
                churn = it
                    .next()
                    .ok_or("--churn needs a value")?
                    .parse()
                    .map_err(|_| "bad --churn")?;
            }
            "--shards" => {
                shards = it
                    .next()
                    .ok_or("--shards needs a value")?
                    .parse()
                    .map_err(|_| "bad --shards")?;
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "bad --seed")?;
            }
            "--parallel" => parallel = true,
            "--rate" => {
                rate = it
                    .next()
                    .ok_or("--rate needs a value")?
                    .parse()
                    .map_err(|_| "bad --rate")?;
            }
            "--queue" => {
                queue = it
                    .next()
                    .ok_or("--queue needs a value")?
                    .parse()
                    .map_err(|_| "bad --queue")?;
            }
            "--checkpoint-every" => {
                checkpoint_every = it
                    .next()
                    .ok_or("--checkpoint-every needs a value")?
                    .parse()
                    .map_err(|_| "bad --checkpoint-every")?;
            }
            "--snapshot-at" => {
                snapshot_at = Some(
                    it.next()
                        .ok_or("--snapshot-at needs a value")?
                        .parse()
                        .map_err(|_| "bad --snapshot-at")?,
                );
            }
            "--snapshot" => {
                snapshot_path = Some(it.next().ok_or("--snapshot needs a value")?.clone());
            }
            "--restore" => {
                restore_path = Some(it.next().ok_or("--restore needs a value")?.clone());
            }
            "--trace" => {
                trace_path = Some(it.next().ok_or("--trace needs a value")?.clone());
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    if batches == 0 {
        return Err("--batches must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&churn) {
        return Err("--churn must be in [0, 1]".into());
    }
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
        None => (StreamAllocator::new(n, seed, policy).with_shards(shards), 0),
    };
    // From here on the allocator is authoritative: on restore its meta
    // (bins, seed, policy, shards) comes from the snapshot, not the flags.
    let meta = alloc.meta();
    let (n, seed, shards, policy_name) = (meta.bins, meta.seed, meta.shards, meta.policy);
    let start_batch = alloc.batches();

    let b = parse_batch_size(&batch_spec, n)?;
    let kind = parse_workload_kind(&workload)?;
    let cfg = WorkloadCfg {
        kind,
        batch: b,
        churn,
        weights: WeightDist::Constant(1),
    };

    let metrics = Arc::new(EngineMetrics::new());
    let trace = match &trace_path {
        None => None,
        Some(path) => Some(Arc::new(
            JsonlTrace::create(path).map_err(|e| format!("--trace {path}: {e}"))?,
        )),
    };
    let sink: Arc<dyn MetricsSink> = match &trace {
        None => metrics.clone(),
        Some(t) => Arc::new(FanoutSink::new(vec![
            metrics.clone() as Arc<dyn MetricsSink>,
            t.clone() as Arc<dyn MetricsSink>,
        ])),
    };
    let mut alloc = alloc.with_metrics(sink);
    if parallel {
        alloc = alloc.parallel();
    }
    if let Some(plan) = faults {
        alloc = alloc.with_faults(plan);
    }

    // Same workload salt as `pba-run stream`; a restored session
    // fast-forwards the deterministic generator past the ingested prefix.
    let mut traffic = Workload::new(cfg, seed ^ 0x57AEA3);
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
    if let Some(t) = &trace {
        t.flush().map_err(|e| format!("trace flush: {e}"))?;
    }

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
    if let Some(path) = &trace_path {
        println!("trace:      {path}");
    }
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

/// `pba-run serve --listen ADDR` — real traffic for the allocator: bind a
/// TCP or Unix-domain socket, accept one `serve --send` client, ingest
/// its framed batches (binary wire codec, checksummed), and report the
/// final state. The allocator ends bit-identical to an in-process run
/// that ingested the same batches.
fn run_serve_listen(args: &[String]) -> Result<(), String> {
    let mut addr = String::new();
    let mut policy = PolicyKind::BatchedTwoChoice;
    let mut n: u32 = 1 << 10;
    let mut shards: usize = 1;
    let mut seed = 0u64;
    let mut parallel = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => addr = it.next().ok_or("--listen needs an address")?.clone(),
            "--policy" => {
                let v = it.next().ok_or("--policy needs a value")?;
                policy = PolicyKind::parse(v).ok_or_else(|| format!("unknown policy '{v}'"))?;
            }
            "--n" => {
                n = it
                    .next()
                    .ok_or("--n needs a value")?
                    .parse()
                    .map_err(|_| "bad --n")?;
            }
            "--shards" => {
                shards = it
                    .next()
                    .ok_or("--shards needs a value")?
                    .parse()
                    .map_err(|_| "bad --shards")?;
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "bad --seed")?;
            }
            "--parallel" => parallel = true,
            other => return Err(format!("unknown flag '{other}' for serve --listen")),
        }
    }
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

/// `pba-run serve --send ADDR` — the driver for `serve --listen`:
/// generate the deterministic synthetic workload locally and ship it to
/// the listening allocator as framed batches, verifying every ack.
fn run_serve_send(args: &[String]) -> Result<(), String> {
    let mut addr = String::new();
    let mut policy = PolicyKind::BatchedTwoChoice;
    let mut n: u32 = 1 << 10;
    let mut batch_spec = "4n".to_string();
    let mut batches: u64 = 32;
    let mut workload = "uniform".to_string();
    let mut churn = 0.0f64;
    let mut seed = 0u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--send" => addr = it.next().ok_or("--send needs an address")?.clone(),
            "--policy" => {
                let v = it.next().ok_or("--policy needs a value")?;
                policy = PolicyKind::parse(v).ok_or_else(|| format!("unknown policy '{v}'"))?;
            }
            "--n" => {
                n = it
                    .next()
                    .ok_or("--n needs a value")?
                    .parse()
                    .map_err(|_| "bad --n")?;
            }
            "--batch" => batch_spec = it.next().ok_or("--batch needs a value")?.clone(),
            "--batches" => {
                batches = it
                    .next()
                    .ok_or("--batches needs a value")?
                    .parse()
                    .map_err(|_| "bad --batches")?;
            }
            "--workload" => workload = it.next().ok_or("--workload needs a value")?.clone(),
            "--churn" => {
                churn = it
                    .next()
                    .ok_or("--churn needs a value")?
                    .parse()
                    .map_err(|_| "bad --churn")?;
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "bad --seed")?;
            }
            other => return Err(format!("unknown flag '{other}' for serve --send")),
        }
    }
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&churn) {
        return Err("--churn must be in [0, 1]".into());
    }
    let b = parse_batch_size(&batch_spec, n)?;
    let kind = parse_workload_kind(&workload)?;
    let cfg = WorkloadCfg {
        kind,
        batch: b,
        churn,
        weights: WeightDist::Constant(1),
    };
    // Same workload salt as `pba-run serve --replay`: a listen/send pair
    // with these flags reproduces the local replay bit for bit.
    let mut traffic = Workload::new(cfg, seed ^ 0x57AEA3);
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

/// The metrics sink for a cluster run: the aggregator, fanned out to the
/// JSONL trace when one was requested.
fn cluster_sink(
    metrics: &Arc<EngineMetrics>,
    trace: &Option<Arc<JsonlTrace>>,
) -> Arc<dyn MetricsSink> {
    match trace {
        None => metrics.clone(),
        Some(t) => Arc::new(FanoutSink::new(vec![
            metrics.clone() as Arc<dyn MetricsSink>,
            t.clone() as Arc<dyn MetricsSink>,
        ])),
    }
}

/// Per-shard wire accounting lines shared by both cluster sub-modes.
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

fn run_cluster_protocol(args: &[String]) -> Result<(), String> {
    let Some(name) = args.first() else {
        return Err("cluster protocol: missing name".into());
    };
    let mut m = 1u64 << 20;
    let mut n = 1u32 << 10;
    let mut seed = 0u64;
    let mut shards = 2u32;
    let mut transport = ClusterTransport::Process;
    let mut overlap = true;
    let mut trace_path: Option<String> = None;
    let mut faults = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--faults" => {
                faults = Some(parse_fault_spec(
                    it.next().ok_or("--faults needs a value")?,
                )?);
            }
            "--m" => {
                m = it
                    .next()
                    .ok_or("--m needs a value")?
                    .parse()
                    .map_err(|_| "bad --m")?
            }
            "--n" => {
                n = it
                    .next()
                    .ok_or("--n needs a value")?
                    .parse()
                    .map_err(|_| "bad --n")?
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "bad --seed")?
            }
            "--shards" => {
                shards = it
                    .next()
                    .ok_or("--shards needs a value")?
                    .parse()
                    .map_err(|_| "bad --shards")?
            }
            "--local" => transport = ClusterTransport::Local,
            "--socket" => transport = ClusterTransport::Socket,
            "--connect" => {
                let addrs = it.next().ok_or("--connect needs addresses")?;
                transport =
                    ClusterTransport::Connect(addrs.split(',').map(str::to_owned).collect());
            }
            "--no-overlap" => overlap = false,
            "--trace" => {
                trace_path = Some(it.next().ok_or("--trace needs a value")?.clone());
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if !protocol_names().contains(&name.as_str()) {
        return Err(format!(
            "unknown protocol '{name}' (try `pba-run protocols`)"
        ));
    }
    if shards == 0 || shards > n {
        return Err(format!("--shards must be in 1..={n} (the bin count)"));
    }
    let spec = ProblemSpec::new(m, n).map_err(|e| e.to_string())?;
    let metrics = Arc::new(EngineMetrics::new());
    let trace = match &trace_path {
        None => None,
        Some(path) => Some(Arc::new(
            JsonlTrace::create(path).map_err(|e| format!("--trace {path}: {e}"))?,
        )),
    };
    let mut cfg = ClusterConfig::engine(name, spec, seed)
        .with_shards(shards)
        .with_overlap(overlap)
        .with_metrics(cluster_sink(&metrics, &trace));
    if let Some(plan) = faults {
        cfg = cfg.with_faults(plan);
    }
    let started = std::time::Instant::now();
    let out = transport.run(cfg)?;
    let elapsed = started.elapsed();
    if let Some(t) = &trace {
        t.flush().map_err(|e| format!("trace flush: {e}"))?;
    }
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
    if let Some(path) = &trace_path {
        println!("trace:      {path}");
    }
    Ok(())
}

fn run_cluster_stream(args: &[String]) -> Result<(), String> {
    let mut policy = PolicyKind::BatchedTwoChoice;
    let mut n: u32 = 1 << 10;
    let mut batch_spec = "4n".to_string();
    let mut batches: u64 = 32;
    let mut workload = "uniform".to_string();
    let mut churn = 0.0f64;
    let mut shards = 2u32;
    let mut seed = 0u64;
    let mut kill: Option<(u32, u64)> = None;
    let mut transport = ClusterTransport::Process;
    let mut overlap = true;
    let mut trace_path: Option<String> = None;
    let mut faults = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--faults" => {
                faults = Some(parse_fault_spec(
                    it.next().ok_or("--faults needs a value")?,
                )?);
            }
            "--policy" => {
                let v = it.next().ok_or("--policy needs a value")?;
                policy = PolicyKind::parse(v).ok_or_else(|| {
                    let names: Vec<&str> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown policy '{v}' (choose from: {})", names.join(", "))
                })?;
            }
            "--n" => {
                n = it
                    .next()
                    .ok_or("--n needs a value")?
                    .parse()
                    .map_err(|_| "bad --n")?;
            }
            "--batch" => batch_spec = it.next().ok_or("--batch needs a value")?.clone(),
            "--batches" => {
                batches = it
                    .next()
                    .ok_or("--batches needs a value")?
                    .parse()
                    .map_err(|_| "bad --batches")?;
            }
            "--workload" => workload = it.next().ok_or("--workload needs a value")?.clone(),
            "--churn" => {
                churn = it
                    .next()
                    .ok_or("--churn needs a value")?
                    .parse()
                    .map_err(|_| "bad --churn")?;
            }
            "--shards" => {
                shards = it
                    .next()
                    .ok_or("--shards needs a value")?
                    .parse()
                    .map_err(|_| "bad --shards")?;
            }
            "--seed" => {
                seed = it
                    .next()
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "bad --seed")?;
            }
            "--kill" => {
                kill = Some(parse_kill(it.next().ok_or("--kill needs a value")?)?);
            }
            "--local" => transport = ClusterTransport::Local,
            "--socket" => transport = ClusterTransport::Socket,
            "--connect" => {
                let addrs = it.next().ok_or("--connect needs addresses")?;
                transport =
                    ClusterTransport::Connect(addrs.split(',').map(str::to_owned).collect());
            }
            "--no-overlap" => overlap = false,
            "--trace" => {
                trace_path = Some(it.next().ok_or("--trace needs a value")?.clone());
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if n == 0 {
        return Err("--n must be at least 1".into());
    }
    if batches == 0 {
        return Err("--batches must be at least 1".into());
    }
    if !(0.0..=1.0).contains(&churn) {
        return Err("--churn must be in [0, 1]".into());
    }
    if shards == 0 || shards > n {
        return Err(format!("--shards must be in 1..={n} (the bin count)"));
    }
    let b = parse_batch_size(&batch_spec, n)?;
    let kind = parse_workload_kind(&workload)?;
    let cfg = WorkloadCfg {
        kind,
        batch: b,
        churn,
        weights: WeightDist::Constant(1),
    };
    let metrics = Arc::new(EngineMetrics::new());
    let trace = match &trace_path {
        None => None,
        Some(path) => Some(Arc::new(
            JsonlTrace::create(path).map_err(|e| format!("--trace {path}: {e}"))?,
        )),
    };
    let mut cluster = ClusterConfig::stream(policy, n, seed, batches, b)
        .with_workload(cfg)
        .with_shards(shards)
        .with_overlap(overlap)
        .with_metrics(cluster_sink(&metrics, &trace));
    if let Some(plan) = faults {
        cluster = cluster.with_faults(plan);
    }
    if let Some((s, t)) = kill {
        cluster = cluster.with_kill(s, t);
    }
    let started = std::time::Instant::now();
    let out = transport.run(cluster)?;
    let elapsed = started.elapsed();
    if let Some(t) = &trace {
        t.flush().map_err(|e| format!("trace flush: {e}"))?;
    }
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
    if let Some(path) = &trace_path {
        println!("trace:      {path}");
    }
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

/// The named bench/tune tiers, in size order.
const TIER_NAMES: [&str; 4] = ["small", "medium", "large", "xl"];

fn bench_tier(tier: &str) -> Result<BenchTier, String> {
    Ok(match tier {
        "small" => small_shaped_tier("small", 1 << 10, 5),
        "medium" => lane_sweep_tier("medium", 1 << 16, 3),
        "large" => lane_sweep_tier("large", 1 << 20, 2),
        "xl" => lane_sweep_tier("xl", 1 << 24, 1),
        other => return Err(unknown_tier_message(other)),
    })
}

/// Error text for an unrecognized `--tier` value: list the tiers and,
/// when something known is close, suggest it — same treatment experiment
/// ids and verify claims get.
fn unknown_tier_message(tier: &str) -> String {
    let lowered = tier.to_lowercase();
    let best = TIER_NAMES
        .iter()
        .map(|t| (edit_distance(&lowered, t), *t))
        .min()
        .filter(|&(d, _)| d <= 2);
    let hint = match best {
        Some((_, t)) => format!("did you mean '{t}'? "),
        None => String::new(),
    };
    format!(
        "unknown tier '{tier}': {hint}choose from: {}",
        TIER_NAMES.join(", ")
    )
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

/// Criterion-free self-timing benchmark of the protocol registry at one
/// tier: each tier's protocol subset at `m = n` across its executor
/// sweep, `reps` seeds each, measured by the engine's own
/// [`EngineMetrics`]; the small-shaped tiers additionally time every
/// streaming placement policy ingesting 32n-ball batches. Every JSON row
/// carries the actual lane count and the resolved tuning, and the doc is
/// written to `BENCH_<tier>.json`.
fn run_bench(args: &[String]) -> Result<(), String> {
    let mut tier_name: Option<String> = None;
    let mut scale: Option<Scale> = None;
    let mut out_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tier" => {
                tier_name = Some(it.next().ok_or("--tier needs a value")?.clone());
            }
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                scale = Some(Scale::parse(v).ok_or_else(|| format!("bad scale '{v}'"))?);
            }
            "--out" => out_dir = Some(it.next().ok_or("--out needs a value")?.clone()),
            "--trace" => return Err("bench does not take --trace".into()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if tier_name.is_some() && scale.is_some() {
        return Err("bench takes --tier or --scale, not both".into());
    }
    // `--scale` is the legacy spelling of the small-shaped tiers (smoke
    // and full keep their historical sizes); `--tier` adds the lane-sweep
    // campaign sizes. The default is the small tier — the committed
    // BENCH_small.json baseline and the CI throughput gate.
    let tier = match (tier_name.as_deref(), scale) {
        (Some(t), None) => bench_tier(t)?,
        (None, Some(Scale::Smoke)) => {
            small_shaped_tier("smoke", 1 << 8, Scale::Smoke.reps() as u64)
        }
        (None, Some(Scale::Full)) => small_shaped_tier("full", 1 << 12, Scale::Full.reps() as u64),
        (None, _) => small_shaped_tier("small", 1 << 10, Scale::Default.reps() as u64),
        (Some(_), Some(_)) => unreachable!("rejected above"),
    };

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

/// Measure one registry protocol's throughput (balls/s) at `m = n` with
/// a pinned executor and tuning, aggregated over `reps` seeded runs.
fn tune_point(
    name: &str,
    n: u32,
    executor: ExecutorKind,
    tuning: Tuning,
    reps: u64,
) -> Result<f64, String> {
    let spec = ProblemSpec::new(n as u64, n).map_err(|e| e.to_string())?;
    let metrics = Arc::new(EngineMetrics::new());
    for rep in 0..reps {
        let cfg = RunConfig::seeded(95_000 + rep)
            .with_executor(executor)
            .with_tuning(tuning)
            .with_trace(false)
            .with_metrics(metrics.clone());
        run_by_name(name, spec, cfg)
            .expect("registry name")
            .map_err(|e| format!("{name}: {e}"))?;
    }
    Ok(metrics.report().balls_per_sec())
}

/// Measure streaming ingest throughput (balls/s) for one batch size.
fn tune_ingest_point(n: u32, b: u64, parallel: bool, tuning: Tuning, reps: u64) -> f64 {
    let metrics = Arc::new(EngineMetrics::new());
    for rep in 0..reps {
        let mut alloc = StreamAllocator::new(n, 96_000 + rep, PolicyKind::BatchedTwoChoice)
            .with_shards(4)
            .with_tuning(tuning)
            .with_metrics(metrics.clone());
        if parallel {
            alloc = alloc.parallel();
        }
        let mut traffic = Workload::new(WorkloadCfg::uniform(b), 97_000 + rep);
        for _ in 0..4 {
            alloc.ingest(&traffic.next_batch());
        }
    }
    metrics.report().stream_balls_per_sec()
}

/// `pba-run tune` — sweep the chunk-geometry knobs at one tier and write
/// `tuning.json`: the measurements that feed the shipped `Tuning::Auto`
/// tables (`AUTO_*` constants in `pba_core::exec`). Three sweeps:
///
/// 1. **min_chunk** — parallel(4) single-choice at the tier size with the
///    fan-out forced, across per-chunk floors; the best floor is the
///    `AUTO_MIN_CHUNK_FLOOR` candidate.
/// 2. **crossover** — sequential vs parallel(4) across geometric problem
///    sizes up to the tier size; the smallest size where parallel wins is
///    the `AUTO_PAR_CUTOFF` candidate (absent on hardware where parallel
///    never wins — single-core runners — in which case the shipped
///    default is kept and reported as such).
/// 3. **ingest** — the same two sweeps for the streaming snapshot path.
fn run_tune(args: &[String]) -> Result<(), String> {
    let mut tier_name = "medium".to_string();
    let mut out_dir: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tier" => tier_name = it.next().ok_or("--tier needs a value")?.clone(),
            "--out" => out_dir = Some(it.next().ok_or("--out needs a value")?.clone()),
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    let tier = bench_tier(&tier_name)?;
    let n = tier.n;
    let reps = tier.reps.max(2);
    let par4 = ExecutorKind::ParallelWith(4);

    // --- Sweep 1: per-chunk floor at the tier size, fan-out forced.
    eprintln!("tune: min_chunk sweep at m = n = {n} ({tier_name} tier)…");
    println!("{:<14} {:>14}", "min_chunk", "par(4) balls/s");
    let mut mc_rows = Vec::new();
    let mut best_mc = (pba_core::exec::AUTO_MIN_CHUNK_FLOOR, 0.0f64);
    for mc in [1usize << 10, 1 << 12, 1 << 13, 1 << 14, 1 << 16] {
        if mc > n as usize {
            continue;
        }
        let bps = tune_point("single-choice", n, par4, Tuning::fixed(mc, 1), reps)?;
        println!("{:<14} {:>14.0}", mc, bps);
        if bps > best_mc.1 {
            best_mc = (mc, bps);
        }
        mc_rows.push(
            JsonObject::new()
                .u64("min_chunk", mc as u64)
                .f64("balls_per_sec", bps)
                .finish(),
        );
    }

    // --- Sweep 2: serial→parallel crossover over geometric sizes.
    eprintln!("tune: crossover sweep (sequential vs parallel(4))…");
    println!();
    println!(
        "{:<12} {:>14} {:>14} {:>8}",
        "work", "seq balls/s", "par(4) balls/s", "winner"
    );
    let mut cross_rows = Vec::new();
    let mut crossover: Option<u64> = None;
    let mut w = 1u32 << 12;
    loop {
        let seq = tune_point(
            "single-choice",
            w,
            ExecutorKind::Sequential,
            Tuning::Auto,
            reps,
        )?;
        let par = tune_point(
            "single-choice",
            w,
            par4,
            Tuning::fixed(best_mc.0.min(w as usize), 1),
            reps,
        )?;
        let winner = if par > seq { "parallel" } else { "serial" };
        if par > seq && crossover.is_none() {
            crossover = Some(w as u64);
        }
        println!("{:<12} {:>14.0} {:>14.0} {:>8}", w, seq, par, winner);
        cross_rows.push(
            JsonObject::new()
                .u64("work", w as u64)
                .f64("seq_balls_per_sec", seq)
                .f64("par_balls_per_sec", par)
                .str("winner", winner)
                .finish(),
        );
        if w >= n {
            break;
        }
        w = (w << 2).min(n);
    }

    // --- Sweep 3: ingest crossover + floor for the streaming path.
    let ingest_n = n.min(1 << 12);
    eprintln!("tune: ingest sweep at n = {ingest_n} (batched-two-choice)…");
    println!();
    println!(
        "{:<12} {:>14} {:>14} {:>8}",
        "batch", "seq balls/s", "par balls/s", "winner"
    );
    let mut ingest_rows = Vec::new();
    let mut ingest_crossover: Option<u64> = None;
    for b in [1u64 << 11, 1 << 13, 1 << 15, 1 << 17] {
        let seq = tune_ingest_point(ingest_n, b, false, Tuning::Auto, reps);
        let par = tune_ingest_point(
            ingest_n,
            b,
            true,
            Tuning::fixed(pba_core::exec::AUTO_INGEST_MIN_CHUNK, 1),
            reps,
        );
        let winner = if par > seq { "parallel" } else { "serial" };
        if par > seq && ingest_crossover.is_none() {
            ingest_crossover = Some(b);
        }
        println!("{:<12} {:>14.0} {:>14.0} {:>8}", b, seq, par, winner);
        ingest_rows.push(
            JsonObject::new()
                .u64("batch", b)
                .f64("seq_balls_per_sec", seq)
                .f64("par_balls_per_sec", par)
                .str("winner", winner)
                .finish(),
        );
    }

    // Shipped constants, and what this box's measurements suggest. A null
    // crossover means parallel never won (expected on single-core
    // runners): the shipped cutoff is kept rather than disabling fan-out
    // for the hardware the binary was tuned on elsewhere.
    let suggested_cutoff = crossover.unwrap_or(pba_core::exec::AUTO_PAR_CUTOFF as u64);
    let suggested_ingest_cutoff =
        ingest_crossover.unwrap_or(pba_core::exec::AUTO_INGEST_PAR_CUTOFF as u64);
    println!();
    println!(
        "suggested: min_chunk_floor {} (measured best), par_cutoff {} ({}), \
         ingest_par_cutoff {} ({})",
        best_mc.0,
        suggested_cutoff,
        if crossover.is_some() {
            "measured crossover"
        } else {
            "no crossover measured; shipped default kept"
        },
        suggested_ingest_cutoff,
        if ingest_crossover.is_some() {
            "measured crossover"
        } else {
            "no crossover measured; shipped default kept"
        },
    );

    let doc = JsonObject::new()
        .str("tool", "pba-run tune")
        .str("tier", tier.name)
        .u64("n", n as u64)
        .u64("reps", reps)
        .raw("min_chunk_sweep", &format!("[{}]", mc_rows.join(",")))
        .u64("best_min_chunk", best_mc.0 as u64)
        .raw("crossover_sweep", &format!("[{}]", cross_rows.join(",")))
        .raw(
            "measured_par_crossover",
            &crossover.map_or("null".into(), |c| c.to_string()),
        )
        .raw("ingest_sweep", &format!("[{}]", ingest_rows.join(",")))
        .raw(
            "measured_ingest_crossover",
            &ingest_crossover.map_or("null".into(), |c| c.to_string()),
        )
        .raw(
            "suggested",
            &JsonObject::new()
                .u64("min_chunk_floor", best_mc.0 as u64)
                .u64("par_cutoff", suggested_cutoff)
                .u64(
                    "ingest_min_chunk",
                    pba_core::exec::AUTO_INGEST_MIN_CHUNK as u64,
                )
                .u64("ingest_par_cutoff", suggested_ingest_cutoff)
                .finish(),
        )
        .raw(
            "shipped",
            &JsonObject::new()
                .u64(
                    "min_chunk_floor",
                    pba_core::exec::AUTO_MIN_CHUNK_FLOOR as u64,
                )
                .u64("par_cutoff", pba_core::exec::AUTO_PAR_CUTOFF as u64)
                .u64(
                    "ingest_min_chunk",
                    pba_core::exec::AUTO_INGEST_MIN_CHUNK as u64,
                )
                .u64(
                    "ingest_par_cutoff",
                    pba_core::exec::AUTO_INGEST_PAR_CUTOFF as u64,
                )
                .finish(),
        )
        .finish();
    let path = resolve_out_path(out_dir.as_deref(), "tuning.json")?;
    std::fs::write(&path, format!("{doc}\n")).map_err(|e| e.to_string())?;
    eprintln!("wrote {path}");
    Ok(())
}

/// Error text for an unrecognized claim id: list the registry and, when
/// something known is close, suggest it — same treatment experiment ids
/// get in [`unknown_command_message`].
fn unknown_claim_message(id: &str) -> String {
    let ids = pba_conformance::claim_ids();
    let lowered = id.to_lowercase();
    let best = ids
        .iter()
        .map(|c| (edit_distance(&lowered, c), *c))
        .min()
        .filter(|&(d, _)| d <= 2);
    let hint = match best {
        Some((_, c)) => format!("did you mean '{c}'? "),
        None => String::new(),
    };
    format!(
        "unknown claim '{id}': {hint}registered oracles are {}",
        ids.join(", ")
    )
}

/// `pba-run verify` — run the statistical claim oracles from
/// `pba-conformance` and render a paper-style verdict table. Exits
/// nonzero when any claim is REFUTED, so CI catches a miswired engine;
/// `--faults` deliberately miswires every run (the negative control).
fn run_verify(args: &[String]) -> Result<ExitCode, String> {
    let mut scale = VerifyScale::Ci;
    let mut json = false;
    let mut faults = None;
    let mut requested: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                let v = it.next().ok_or("--scale needs a value")?;
                scale = VerifyScale::parse(v)
                    .ok_or_else(|| format!("bad verify scale '{v}' (ci or full)"))?;
            }
            "--json" => json = true,
            "--faults" => {
                faults = Some(parse_fault_spec(
                    it.next().ok_or("--faults needs a value")?,
                )?);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag '{other}'")),
            claim => requested.push(claim.to_string()),
        }
    }
    let claims: Vec<Box<dyn Claim>> = if requested.is_empty() {
        pba_conformance::all_claims()
    } else {
        requested
            .iter()
            .map(|id| pba_conformance::claim_by_id(id).ok_or_else(|| unknown_claim_message(id)))
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
