//! Serial ≡ pool across owner-range boundaries.
//!
//! The round kernel routes every request to the owner of its bin's
//! 2¹⁶-bin range, and each owner counts, grants, ranks and commits its
//! range alone. Below 2¹⁶ bins there is a single owner, so the golden,
//! fuzz and determinism suites (n ≤ 2¹³) never cross a range boundary.
//! Here n = 2·2¹⁶ + 17: three owners, the last holding 17 bins. Every
//! pool width must reproduce the serial run exactly — loads, rounds,
//! every round record, message totals and per-bin received counts — for
//! single-request and multi-request protocols, replica commits
//! (kd-choice), redirected commits and a full grant pass (asymmetric's
//! leader phase), commit choice on round-start loads
//! (estimated-average), with and without a fault plan that drops
//! requests and crashes bins. The in-engine invariant checker is armed
//! throughout. A protocol that redirects every commit into the next
//! owner range covers commits routed away from the range that granted
//! them. A cluster run, whose grant delegate receives the touched bins
//! the owners list, must land on the same outcome too.

use pba::cluster::ClusterConfig;
use pba::core::protocol::{BallContext, BinGrant, ChoiceSink, RoundContext};
use pba::core::rng::{Rand64, SplitMix64};
use pba::core::{FaultStats, MessageStats, MessageTracking, RoundRecord};
use pba::prelude::*;
use pba::protocols::run_by_name;

/// Two full owner ranges and a partial third.
const N: u32 = 2 * (1 << 16) + 17;

/// Balls per run: enough for every owner to see thousands of requests
/// in round 0, small enough for a debug build.
const M: u64 = 1 << 15;

const PROTOCOLS: [&str; 6] = [
    "single-choice",
    "collision",
    "kd-choice",
    "asymmetric",
    "estimated-average",
    "cross-range",
];

fn fault_plan() -> FaultPlan {
    FaultPlan::new(0x0BAD_5EED)
        .with_drop_prob(0.1)
        .with_crashed_bins(0.02)
}

/// Everything a run reports that the executor must not change.
#[derive(Debug, PartialEq)]
struct Observed {
    loads: Vec<u32>,
    rounds: u32,
    placed: u64,
    records: Vec<RoundRecord>,
    messages: MessageStats,
    per_bin_received: Vec<u64>,
    faults: Option<FaultStats>,
}

/// One uniform choice per ball, capacity ⌈m/n⌉ per granting bin, and
/// every accepted slot redirected one owner range up (mod n): no commit
/// lands in the range of the bin that granted it.
struct CrossRange;

impl RoundProtocol for CrossRange {
    type BallState = ();
    const MAY_REDIRECT: bool = true;

    fn name(&self) -> &'static str {
        "cross-range"
    }

    fn round_budget(&self, _spec: &ProblemSpec) -> u32 {
        64
    }

    fn ball_choices(
        &self,
        ctx: &RoundContext,
        _ball: BallContext,
        _state: &mut (),
        rng: &mut SplitMix64,
        out: &mut ChoiceSink<'_>,
    ) {
        out.push(rng.below(ctx.spec.bins()));
    }

    fn bin_grant(&self, ctx: &RoundContext, _bin: u32, load: u32, _arrivals: u32) -> BinGrant {
        BinGrant::up_to(ctx.spec.ceil_avg().saturating_sub(load))
    }

    fn redirect(&self, ctx: &RoundContext, bin: u32, _slot: u32) -> u32 {
        (bin + (1 << 16)) % ctx.spec.bins()
    }
}

fn config(plan: Option<FaultPlan>, lanes: usize) -> RunConfig {
    let mut cfg = RunConfig::seeded(14)
        .with_trace(true)
        .with_tracking(MessageTracking::PerBin)
        .with_validation(true);
    if lanes > 1 {
        cfg = cfg
            .with_executor(ExecutorKind::ParallelWith(lanes))
            .with_tuning(Tuning::fixed(512, 1024));
    }
    if let Some(p) = plan {
        cfg = cfg.with_faults(p);
    }
    cfg
}

fn run(name: &str, plan: Option<FaultPlan>, lanes: usize) -> Result<Observed, String> {
    let spec = ProblemSpec::new(M, N).unwrap();
    let out = if name == "cross-range" {
        Simulator::new(spec, config(plan, lanes)).run(CrossRange)
    } else {
        run_by_name(name, spec, config(plan, lanes)).expect("registry name")
    };
    let out = out.map_err(|e| e.to_string())?;
    Ok(Observed {
        records: out
            .trace
            .as_ref()
            .expect("trace recorded")
            .records()
            .to_vec(),
        per_bin_received: out.per_bin_received.clone().expect("per-bin tracked"),
        loads: out.loads,
        rounds: out.rounds,
        placed: out.placed,
        messages: out.messages,
        faults: out.faults,
    })
}

#[test]
fn every_pool_width_matches_serial_across_owner_ranges() {
    for name in PROTOCOLS {
        for plan in [None, Some(fault_plan())] {
            let serial = run(name, plan, 1);
            if let Ok(s) = &serial {
                // Every owner range, the partial last one included, must
                // have received requests, or the case proves nothing.
                for range in [0..1 << 16, 1 << 16..2 << 16, 2 << 16..N as usize] {
                    assert!(
                        s.per_bin_received[range.clone()].iter().any(|&r| r > 0),
                        "{name}: no requests reached bins {range:?}"
                    );
                }
            } else if plan.is_none() {
                panic!("{name}: fault-free serial run failed: {serial:?}");
            }
            for lanes in [2, 3, 5] {
                assert!(
                    run(name, plan, lanes) == serial,
                    "{name} (faults: {}): {lanes}-lane pool diverged from serial",
                    plan.is_some()
                );
            }
        }
    }
}

#[test]
fn cluster_grant_delegate_matches_serial_across_owner_ranges() {
    let spec = ProblemSpec::new(M, N).unwrap();
    for name in ["collision", "estimated-average"] {
        for plan in [None, Some(fault_plan())] {
            let serial = run(name, plan, 1).expect("serial run");
            // Three shards cut the bin space off the owner-range grid.
            for shards in [2, 3] {
                let mut cfg = ClusterConfig::engine(name, spec, 14)
                    .with_shards(shards)
                    .with_validation(true);
                if let Some(p) = plan {
                    cfg = cfg.with_faults(p);
                }
                let out = cfg.run_local().expect("cluster run");
                let run = out.run.expect("engine outcome");
                let at = format!("{name} (faults: {}) at {shards} shards", plan.is_some());
                assert_eq!(run.loads, serial.loads, "{at}: loads");
                assert_eq!(run.rounds, serial.rounds, "{at}: rounds");
                assert_eq!(run.messages, serial.messages, "{at}: messages");
                assert_eq!(run.placed, serial.placed, "{at}: placed");
            }
        }
    }
}
