//! The traced run's `MetricsSink`: it sums the engine's per-round phase
//! clocks and counters, the pool's busy time and the stream allocator's
//! batches, so each workload can split its wall time by layer.

use std::sync::Mutex;

use pba_core::metrics::{BatchRecord, RoundTiming, RunMeta, StreamMeta};
use pba_core::{MetricsSink, Phase, RoundRecord};
use pba_par::PoolStats;

/// Rounds with fewer active balls than this count as "small": their cost
/// should scale with the active balls, not with `n`.
pub const SMALL_ROUND: u64 = 1024;

/// Sums over every round, run and batch the sink saw.
#[derive(Debug, Clone, Default)]
pub struct Totals {
    pub runs: u64,
    pub rounds: u64,
    pub phase_nanos: [u64; 4],
    pub round_nanos: u64,
    pub small_round_nanos: u64,
    pub granted: u64,
    pub committed: u64,
    pub pool_tasks: u64,
    pub pool_busy_nanos: u64,
    pub pool_lanes: u64,
    pub run_wall_nanos: u64,
    pub batches: u64,
}

impl Totals {
    pub fn phase(&self, phase: Phase) -> u64 {
        self.phase_nanos[phase.index()]
    }

    /// Round time outside the four timed phases.
    pub fn bookkeeping_nanos(&self) -> u64 {
        self.round_nanos
            .saturating_sub(self.phase_nanos.iter().sum::<u64>())
    }
}

#[derive(Debug, Default)]
pub struct LayerSink {
    totals: Mutex<Totals>,
}

impl LayerSink {
    pub fn totals(&self) -> Totals {
        self.totals.lock().expect("sink poisoned").clone()
    }
}

impl MetricsSink for LayerSink {
    fn on_round(&self, _meta: &RunMeta, record: &RoundRecord, timing: &RoundTiming) {
        let mut t = self.totals.lock().expect("sink poisoned");
        t.rounds += 1;
        for (sum, &nanos) in t.phase_nanos.iter_mut().zip(&timing.phase_nanos) {
            *sum += nanos;
        }
        t.round_nanos += timing.total_nanos;
        if record.active_before < SMALL_ROUND {
            t.small_round_nanos += timing.total_nanos;
        }
        t.granted += record.granted;
        t.committed += record.committed;
    }

    fn on_run(&self, _meta: &RunMeta, summary: &pba_core::RunSummary) {
        let mut t = self.totals.lock().expect("sink poisoned");
        t.runs += 1;
        t.run_wall_nanos += summary.wall_nanos;
    }

    fn on_pool(&self, _meta: &RunMeta, stats: &PoolStats) {
        let mut t = self.totals.lock().expect("sink poisoned");
        t.pool_tasks += stats.tasks;
        t.pool_busy_nanos += stats.total_busy_nanos();
        t.pool_lanes = stats.busy_nanos.len() as u64;
    }

    fn on_batch(&self, _meta: &StreamMeta, _record: &BatchRecord) {
        self.totals.lock().expect("sink poisoned").batches += 1;
    }
}
