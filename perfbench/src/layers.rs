//! The metric catalogue. Every run prints every metric of its kind, so
//! the two lists here must match `BENCHMARK.json` name for name and unit
//! for unit (the benchmark's tests hold them to it).

use std::collections::BTreeMap;

use pba_core::Phase;

use crate::sink::Totals;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("balls_per_s", "balls/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("exec.gather_ns_per_ball", "ns/ball"),
    ("exec.count_scan_ns_per_ball", "ns/ball"),
    ("exec.resolve_commit_ns_per_ball", "ns/ball"),
    ("exec.grant_ns_per_round", "ns/round"),
    ("exec.bookkeeping_ns_per_round", "ns/round"),
    ("exec.small_round_share", "share"),
    ("exec.grant_efficiency", "share"),
    ("floor.ns_per_ball", "ns/ball"),
    ("exec.floor_ratio", "ratio"),
    ("par.busy_share", "share"),
    ("par.tasks", "count"),
    ("par.speedup", "ratio"),
    ("cluster.frames", "count"),
    ("cluster.bytes", "bytes"),
    ("cluster.waves", "count"),
    ("wire.encode_ns_per_byte", "ns/byte"),
    ("wire.decode_ns_per_byte", "ns/byte"),
    ("cluster.tax_s", "s"),
    ("cluster.wave_wait_ms", "ms"),
    ("stream.ingest_us_per_batch", "us/batch"),
    ("ingest.codec_us_per_batch", "us/batch"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.late_ms", "ms"),
    ("trace.overhead", "share"),
    ("p99_ms", "ms"),
    ("error_rate", "share"),
    ("gap", "balls"),
    ("rounds", "count"),
    ("wire_bytes_per_ball", "bytes/ball"),
];

/// Per-layer values a traced run measured, by name.
#[derive(Debug, Default)]
pub struct LayerValues {
    values: BTreeMap<&'static str, f64>,
}

impl LayerValues {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|&(n, _)| n == name),
            "{name} is not a per-layer metric"
        );
        self.values.insert(name, value);
    }

    /// The value of `name`, 0 when the workload does not measure it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// The engine's phase split from a traced run, per ball of `balls` and
/// per round, plus the grant efficiency and small-round share.
pub fn engine_phase_metrics(layers: &mut LayerValues, t: &Totals, balls: u64) {
    let per_ball = |nanos: u64| nanos as f64 / balls.max(1) as f64;
    let per_round = |nanos: u64| nanos as f64 / t.rounds.max(1) as f64;
    layers.set("exec.gather_ns_per_ball", per_ball(t.phase(Phase::Gather)));
    layers.set(
        "exec.count_scan_ns_per_ball",
        per_ball(t.phase(Phase::CountScan)),
    );
    layers.set(
        "exec.resolve_commit_ns_per_ball",
        per_ball(t.phase(Phase::ResolveCommit)),
    );
    layers.set("exec.grant_ns_per_round", per_round(t.phase(Phase::Grant)));
    layers.set(
        "exec.bookkeeping_ns_per_round",
        per_round(t.bookkeeping_nanos()),
    );
    layers.set(
        "exec.small_round_share",
        t.small_round_nanos as f64 / t.round_nanos.max(1) as f64,
    );
    layers.set(
        "exec.grant_efficiency",
        t.committed as f64 / t.granted.max(1) as f64,
    );
}
