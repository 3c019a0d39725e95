//! The `RoundProtocol::idle_want` hook: its contract, the equivalence of
//! the sparse and full grant paths, and the sparsity it buys.
//!
//! Every registry protocol runs wrapped in [`Probe`], which forwards
//! every hook and counts `bin_grant` / `idle_want` calls. With
//! `sparse = false` the probe hides `idle_want`, forcing the engine's
//! full grant pass over all `n` bins — the reference the sparse path
//! must reproduce exactly.

use std::sync::atomic::{AtomicU64, Ordering};

use pba::core::protocol::{BallContext, BinGrant, ChoiceSink, CommitOption, Flow, RoundContext};
use pba::core::{MessageTracking, RoundRecord, SplitMix64};
use pba::prelude::*;
use pba::protocols::{protocol_names, visit_protocol, ProtocolVisitor};

/// One round as the probe saw it.
#[derive(Debug, Clone, Copy)]
struct Row {
    active_before: u64,
    requests: u64,
    max_load: u32,
    grant_calls: u64,
    idle_calls: u64,
}

struct Probe<P> {
    inner: P,
    /// Forward `idle_want`; `false` answers `None` for every load.
    sparse: bool,
    /// Check the hook contract at the start of every round for loads
    /// `0..=check_loads` (0 = no check).
    check_loads: u32,
    grant_calls: AtomicU64,
    idle_calls: AtomicU64,
    rows: Vec<Row>,
}

impl<P> Probe<P> {
    fn new(inner: P, sparse: bool, check_loads: u32) -> Self {
        Self {
            inner,
            sparse,
            check_loads,
            grant_calls: AtomicU64::new(0),
            idle_calls: AtomicU64::new(0),
            rows: Vec::new(),
        }
    }
}

impl<P: RoundProtocol> RoundProtocol for Probe<P> {
    type BallState = P::BallState;
    const NEEDS_COMMIT_CHOICE: bool = P::NEEDS_COMMIT_CHOICE;
    const MAY_REDIRECT: bool = P::MAY_REDIRECT;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn round_budget(&self, spec: &ProblemSpec) -> u32 {
        self.inner.round_budget(spec)
    }

    fn begin_round(&mut self, ctx: &RoundContext) {
        self.inner.begin_round(ctx);
        if self.check_loads == 0 {
            return;
        }
        for load in 0..=self.check_loads {
            let Some(want) = self.inner.idle_want(ctx, load) else {
                continue;
            };
            for bin in 0..ctx.spec.bins() {
                assert_eq!(
                    want,
                    self.inner.bin_grant(ctx, bin, load, 0).want,
                    "{}: round {} idle_want({load}) disagrees with bin {bin}'s idle grant",
                    self.inner.name(),
                    ctx.round
                );
            }
        }
    }

    fn ball_choices(
        &self,
        ctx: &RoundContext,
        ball: BallContext,
        state: &mut Self::BallState,
        rng: &mut SplitMix64,
        out: &mut ChoiceSink<'_>,
    ) {
        self.inner.ball_choices(ctx, ball, state, rng, out);
    }

    fn bin_grant(&self, ctx: &RoundContext, bin: u32, load: u32, arrivals: u32) -> BinGrant {
        self.grant_calls.fetch_add(1, Ordering::Relaxed);
        self.inner.bin_grant(ctx, bin, load, arrivals)
    }

    fn idle_want(&self, ctx: &RoundContext, load: u32) -> Option<u32> {
        self.idle_calls.fetch_add(1, Ordering::Relaxed);
        if self.sparse {
            self.inner.idle_want(ctx, load)
        } else {
            None
        }
    }

    fn redirect(&self, ctx: &RoundContext, bin: u32, slot: u32) -> u32 {
        self.inner.redirect(ctx, bin, slot)
    }

    fn replicas(&self) -> u32 {
        self.inner.replicas()
    }

    fn pick_commit(
        &self,
        ctx: &RoundContext,
        ball: BallContext,
        options: &[CommitOption],
    ) -> usize {
        self.inner.pick_commit(ctx, ball, options)
    }

    fn select_commits(
        &self,
        ctx: &RoundContext,
        ball: BallContext,
        options: &[CommitOption],
        picks: &mut Vec<u32>,
    ) {
        self.inner.select_commits(ctx, ball, options, picks);
    }

    fn after_round(&mut self, ctx: &RoundContext, record: &RoundRecord) -> Flow {
        self.rows.push(Row {
            active_before: record.active_before,
            requests: record.requests,
            max_load: record.max_load,
            grant_calls: self.grant_calls.swap(0, Ordering::Relaxed),
            idle_calls: self.idle_calls.swap(0, Ordering::Relaxed),
        });
        self.inner.after_round(ctx, record)
    }
}

/// Runs a registry protocol inside a [`Probe`].
struct ProbeRun {
    spec: ProblemSpec,
    config: RunConfig,
    sparse: bool,
    check_loads: u32,
}

impl ProtocolVisitor for ProbeRun {
    type Output = (Result<RunOutcome, String>, Vec<Row>);

    fn visit<P: RoundProtocol + 'static>(self, protocol: P) -> Self::Output {
        let mut probe = Probe::new(protocol, self.sparse, self.check_loads);
        let out = Simulator::new(self.spec, self.config)
            .run_mut(&mut probe)
            .map_err(|e| e.to_string());
        (out, probe.rows)
    }
}

fn probe_run(
    name: &str,
    spec: ProblemSpec,
    config: RunConfig,
    sparse: bool,
    check_loads: u32,
) -> (Result<RunOutcome, String>, Vec<Row>) {
    let run = ProbeRun {
        spec,
        config,
        sparse,
        check_loads,
    };
    visit_protocol(name, spec, run).expect("registry name")
}

/// `idle_want(ctx, load)` is `None` or every bin's idle want, at every
/// round of a real run (so phase changes are covered) and every load up
/// to well past each protocol's caps.
#[test]
fn idle_want_matches_every_bins_idle_grant() {
    for spec in [
        ProblemSpec::new(256, 64).unwrap(),
        ProblemSpec::new(1 << 12, 64).unwrap(),
    ] {
        for &name in protocol_names() {
            let cfg = RunConfig::seeded(5).with_trace(false);
            let (out, rows) = probe_run(name, spec, cfg, true, 3 * spec.ceil_avg() + 16);
            out.unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!rows.is_empty(), "{name} ran no rounds");
        }
    }
}

/// The sparse path (touched bins + load histogram) and the full grant
/// pass produce the same round records, loads and per-bin message
/// counts — with and without crashed bins, serial and on a pool.
#[test]
fn sparse_and_full_grant_paths_agree() {
    let spec = ProblemSpec::new(1 << 11, 1 << 9).unwrap();
    let crash = FaultPlan::new(0xFA11)
        .with_crashed_bins(0.05)
        .with_drop_prob(0.05);
    for &name in protocol_names() {
        for plan in [None, Some(crash)] {
            for lanes in [1usize, 3] {
                let mut cfg = RunConfig::seeded(17)
                    .with_trace(true)
                    .with_tracking(MessageTracking::PerBin)
                    .with_max_rounds(200);
                if lanes > 1 {
                    cfg = cfg
                        .with_executor(ExecutorKind::ParallelWith(lanes))
                        .with_tuning(Tuning::fixed(128, 256));
                }
                if let Some(p) = plan {
                    cfg = cfg.with_faults(p);
                }
                let view = |sparse: bool| {
                    probe_run(name, spec, cfg.clone(), sparse, 0).0.map(|out| {
                        (
                            out.trace.expect("trace").records().to_vec(),
                            out.loads,
                            out.per_bin_received,
                        )
                    })
                };
                assert_eq!(
                    view(true),
                    view(false),
                    "{name} (crashes: {}, lanes {lanes}): sparse and full grant paths diverged",
                    plan.is_some()
                );
            }
        }
    }
}

/// Estimated-average at n = 2^16: once fewer than 1,024 balls remain, a
/// round asks the protocol for at most one grant per touched bin (at
/// most one per request) plus one idle want per distinct load — never
/// one per bin. The full path, the control, asks every bin.
#[test]
fn estimated_average_rounds_cost_touched_bins_not_n() {
    let n = 1u32 << 16;
    let spec = ProblemSpec::new(u64::from(n), n).unwrap();
    let cfg = RunConfig::seeded(3).with_trace(false);

    let (out, rows) = probe_run("estimated-average", spec, cfg.clone(), true, 0);
    assert!(out.expect("completes").is_complete());
    let mut small = 0;
    let mut prev_max = 0;
    for (r, row) in rows.iter().enumerate() {
        // Distinct loads at round start: at most 0..=max load so far.
        let distinct_loads = u64::from(prev_max) + 1;
        prev_max = row.max_load;
        if row.active_before >= 1024 {
            continue;
        }
        small += 1;
        assert!(
            row.grant_calls <= row.requests,
            "round {r}: {} bin_grant calls for {} requests",
            row.grant_calls,
            row.requests
        );
        assert!(
            row.idle_calls <= distinct_loads,
            "round {r}: {} idle_want calls for at most {distinct_loads} distinct loads",
            row.idle_calls
        );
    }
    assert!(small >= 100, "only {small} rounds had < 1,024 active balls");

    let (_, dense) = probe_run("estimated-average", spec, cfg, false, 0);
    assert!(
        dense.iter().all(|row| row.grant_calls == u64::from(n)),
        "the full grant path asks every bin every round"
    );
}

/// At n = 2^18 the touched-bin walk spans four summary blocks, so a pool
/// splits it across tasks; the result must match the serial walk.
#[test]
fn touched_pass_split_across_blocks_matches_serial() {
    let spec = ProblemSpec::new(1 << 18, 1 << 18).unwrap();
    for name in ["single-choice", "collision", "kd-choice"] {
        let view = |lanes: usize| {
            let mut cfg = RunConfig::seeded(23)
                .with_trace(true)
                .with_tracking(MessageTracking::PerBin);
            if lanes > 1 {
                cfg = cfg
                    .with_executor(ExecutorKind::ParallelWith(lanes))
                    .with_tuning(Tuning::fixed(4096, 8192));
            }
            let out = probe_run(name, spec, cfg, true, 0).0.expect("completes");
            (
                out.trace.expect("trace").records().to_vec(),
                out.loads,
                out.per_bin_received,
            )
        };
        assert_eq!(view(1), view(3), "{name}: split walk diverged from serial");
    }
}
