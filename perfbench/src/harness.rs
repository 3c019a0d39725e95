//! What every workload shares: command-line arguments, the set-up clock,
//! the result record and its JSON line, order statistics, peak memory
//! and the host fingerprint.

use std::hint::black_box;
use std::process::Command;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use pba_core::json::JsonObject;

/// Set-up runs this many times per run; `setup_s` is the median, so one
/// slow page-fault storm does not decide the figure.
pub const SETUP_REPS: usize = 3;

static PROCESS_START: OnceLock<Instant> = OnceLock::new();

/// Pin the process start; call first thing in `main`.
pub fn mark_process_start() {
    PROCESS_START.get_or_init(Instant::now);
}

fn process_start() -> Instant {
    *PROCESS_START.get_or_init(Instant::now)
}

/// Problem sizes: `Full` is what `BENCHMARK.json` measures, `Tiny` keeps
/// the benchmark's own tests to a fraction of a second per workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Parsed command line of one workload run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Negative control: corrupt one output before it is checked. The run
    /// must then report the failure and exit nonzero.
    pub corrupt: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            size: Size::Full,
            corrupt: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?.clone(),
                "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                    if !args.seconds.is_finite() || args.seconds <= 0.0 {
                        return Err("--seconds must be positive".into());
                    }
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--size" => {
                    args.size = match value()?.as_str() {
                        "full" => Size::Full,
                        "tiny" => Size::Tiny,
                        _ => return Err("--size takes full or tiny".into()),
                    }
                }
                "--corrupt" => args.corrupt = true,
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        if args.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(args)
    }

    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Run `setup` [`SETUP_REPS`] times and keep the last result; earlier
/// results go to `discard` (untimed) before the next set-up starts. The
/// first sample is timed from process start, so it also carries runtime
/// and binary start-up; `setup_s` is the median sample.
pub fn repeated_setup<T>(mut setup: impl FnMut() -> T, mut discard: impl FnMut(T)) -> (T, f64) {
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let start = if rep == 0 {
            process_start()
        } else {
            Instant::now()
        };
        kept = Some(setup());
        samples.push(start.elapsed().as_secs_f64());
    }
    (kept.expect("SETUP_REPS > 0"), median(&samples))
}

/// Repeat `op` until `budget` has passed and at least `min_reps` ran,
/// handing each result to `after` (with its repetition index) outside the
/// clock; returns each `op`'s wall time in seconds.
///
/// Each repetition runs beside a heap spacer of a different size, so the
/// program's freed-and-reused arrays land at different addresses from one
/// repetition to the next. Otherwise one process keeps one memory layout
/// for all its repetitions, and the cache conflicts of that layout would
/// set the whole run's median.
pub fn timed_reps<T>(
    budget: Duration,
    min_reps: usize,
    mut op: impl FnMut() -> T,
    mut after: impl FnMut(usize, T),
) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    while walls.len() < min_reps || start.elapsed() < budget {
        let rep = walls.len();
        let spacer = black_box(vec![1u8; 4096 * (1 + rep * 37 % 61) + 64 * (rep % 64)]);
        let t = Instant::now();
        let out = op();
        walls.push(t.elapsed().as_secs_f64());
        drop(spacer);
        after(rep, out);
    }
    walls
}

/// Median of a non-empty sample (mean of the middle pair when even).
/// Unlike `pba_analysis::summary::Summary`, the order statistics here
/// accept infinite samples: the latency of a batch that was never acked.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank quantile `q` in (0, 1] of a non-empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// One metric as printed: name, value, unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Checked operations (protocol runs, or batches for `serve`).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Metrics printed for a reader but kept out of the result line: the
    /// end-to-end figures a workload has that are zero or undefined on
    /// other workloads.
    pub info: Vec<Metric>,
}

impl Report {
    /// Record one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.info.push(Metric { name, value, unit });
    }

    /// The end-to-end metrics of a workload whose operation is one
    /// protocol run of `balls` balls, from the runs' wall times.
    pub fn e2e_runs(&mut self, balls: u64, walls: &[f64], setup_s: f64) {
        self.metric("balls_per_s", balls as f64 / median(walls), "balls/s");
        self.metric("setup_s", setup_s, "s");
        self.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        self.metric("p50_ms", median(walls) * 1e3, "ms");
        self.info("p99_ms", quantile(walls, 0.99) * 1e3, "ms");
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .fold(JsonObject::new(), |obj, m| {
                let value = JsonObject::new()
                    .f64("value", m.value)
                    .str("unit", m.unit)
                    .finish();
                obj.raw(m.name, &value)
            })
            .finish();
        JsonObject::new()
            .raw(
                "correct",
                if self.failed == 0 && self.attempted > 0 {
                    "true"
                } else {
                    "false"
                },
            )
            .u64("attempted", self.attempted)
            .u64("failed", self.failed)
            .raw("metrics", &metrics)
            .finish()
    }
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kib: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn maxrss_kib(who: i32) -> i64 {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the Linux
    // x86-64/aarch64 layout (two timevals, then fourteen longs), and `who`
    // is one of the two selectors the kernel accepts.
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc == 0 {
        usage.maxrss_kib
    } else {
        0
    }
}

/// Peak resident set in MiB: this process plus the largest child it has
/// waited for (the shard workers of `cluster`; 0 elsewhere).
pub fn peak_rss_mb() -> f64 {
    (maxrss_kib(RUSAGE_SELF) + maxrss_kib(RUSAGE_CHILDREN)) as f64 / 1024.0
}

/// Host fingerprint printed with every result: lanes, CPU model,
/// compiler and commit (where the checkout is a git repository).
pub fn host_line() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = first_line_of(Command::new("rustc").arg("-V"));
    // Stop git at the checkout root, so a checkout that is not a
    // repository reports "unknown" instead of some enclosing repository.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.display().to_string()))
        .unwrap_or_default();
    let commit = first_line_of(
        Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    );
    JsonObject::new()
        .u64("nproc", lanes() as u64)
        .str("cpu", &cpu)
        .str("rustc", &rustc)
        .str("commit", &commit)
        .finish()
}

/// What a successful `cmd` printed, trimmed; "unknown" otherwise.
fn first_line_of(cmd: &mut Command) -> String {
    cmd.stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

/// Execution lanes of this host.
pub fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Print one metric line a reader can scan: `name value unit`.
pub fn print_metric(prefix: &str, m: &Metric) {
    println!(
        "{prefix}{:<34} {:>16} {}",
        m.name,
        format_value(m.value),
        m.unit
    );
}

fn format_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}
