//! Estimated-average retry loop (after Dutta et al.,
//! arXiv:1111.0801): each ball probes a few bins, treats the
//! sample mean of their loads as an estimate of the global average, and
//! *rejects its own placement* when the candidate bin sits above that
//! estimate — retrying in the next round. Bins additionally hard-cap at
//! `⌈m/n⌉`, so a completed run is **perfectly balanced** by construction:
//! `max load = ⌈m/n⌉` exactly (for `m ≥ n`), with the paper's claim being
//! that each ball pays only *expected-constant* retries to get there.
//!
//! Determinism: the protocol keeps no per-ball state. The active set only
//! shrinks, so every ball active in round `r` has retried exactly `r`
//! times — the retry counter *is* `ctx.round`, and the accept/decline
//! rule is a pure function of `(round, options)`. Serial and Pool
//! backends are therefore bit-identical at every lane count, and the
//! retry cap needs no side table.
//!
//! Two measures keep the retry loop from colliding with the coupon-
//! collector endgame (the hard `⌈m/n⌉` cap leaves zero aggregate slack,
//! so the last balls must *find* the few underfull bins):
//! * the sample-mean gate trivially accepts single-option balls
//!   (`load ≤ mean` of a 1-sample is always true), so a biased-low
//!   estimate can never deadlock a ball that found headroom;
//! * past [`EstimatedAverage::retry_cap`] rounds the ball goes
//!   *desperate* — it commits to its least-loaded accepting probe
//!   unconditionally — and the probe degree escalates with the round
//!   index, so locating the final underfull bins takes `O(log n)` rounds
//!   instead of a coupon-collector `Ω(n)`.

use pba_core::protocol::{
    BallContext, BinGrant, ChoiceSink, CommitOption, NoBallState, RoundContext,
};
use pba_core::rng::{Rand64, SplitMix64};
use pba_core::{ProblemSpec, RoundProtocol};

/// Hard cap on an escalated probe degree.
const MAX_DEGREE: u32 = 512;

/// Probe–estimate–retry protocol with a perfect-balance hard cap.
#[derive(Debug, Clone, Copy)]
pub struct EstimatedAverage {
    spec: ProblemSpec,
    probes: u32,
    retry_cap: u32,
    threshold: u32,
}

impl EstimatedAverage {
    /// Registry defaults: 3 probes per round, desperation after 8 retries.
    pub fn new(spec: ProblemSpec) -> Self {
        Self::with_params(spec, 3, 8)
    }

    /// Custom probe count (`1..=8`) and retry cap (`1..=64`).
    pub fn with_params(spec: ProblemSpec, probes: u32, retry_cap: u32) -> Self {
        assert!((1..=8).contains(&probes), "probes must be in 1..=8");
        assert!((1..=64).contains(&retry_cap), "retry_cap must be in 1..=64");
        Self {
            spec,
            probes,
            retry_cap,
            threshold: spec.ceil_avg(),
        }
    }

    /// The problem instance this protocol was configured for.
    pub fn spec(&self) -> ProblemSpec {
        self.spec
    }

    /// Probes drawn per round before escalation.
    pub fn probes(&self) -> u32 {
        self.probes
    }

    /// Rounds of estimate-gated retries before desperation mode.
    pub fn retry_cap(&self) -> u32 {
        self.retry_cap
    }

    /// The structural per-bin cap `⌈m/n⌉`.
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// Probe degree for `round`: the base count while the estimate gate
    /// is live, doubling every 2 rounds in desperation mode (capped at
    /// [`MAX_DEGREE`] and `n`) to beat the endgame coupon collector.
    fn effective_degree(&self, round: u32, n: u32) -> u32 {
        if round < self.retry_cap {
            return self.probes;
        }
        let shift = ((round - self.retry_cap) / 2 + 1).min(9);
        (self.probes << shift)
            .min(MAX_DEGREE)
            .min(n.max(self.probes))
    }
}

impl RoundProtocol for EstimatedAverage {
    type BallState = NoBallState;

    const NEEDS_COMMIT_CHOICE: bool = true;

    fn name(&self) -> &'static str {
        "estimated-average"
    }

    fn round_budget(&self, spec: &ProblemSpec) -> u32 {
        // The zero-slack endgame is a coupon collector tamed by degree
        // escalation: clearing the last balls takes ≈ 0.8·n/MAX_DEGREE
        // rounds at m = n, hence the n-proportional term. Keeping the
        // budget within a small multiple of that matters: an infeasible
        // instance (crashed bins shrinking live capacity below m) should
        // error out fast instead of looping at full probe degree.
        256 + 32 * (64 - (spec.balls() + spec.bins() as u64).leading_zeros()) + spec.bins() / 128
    }

    fn ball_choices(
        &self,
        ctx: &RoundContext,
        _ball: BallContext,
        _state: &mut NoBallState,
        rng: &mut SplitMix64,
        out: &mut ChoiceSink<'_>,
    ) {
        let n = ctx.spec.bins();
        for _ in 0..self.effective_degree(ctx.round, n) {
            out.push(rng.below(n));
        }
    }

    fn bin_grant(&self, _ctx: &RoundContext, _bin: u32, load: u32, _arrivals: u32) -> BinGrant {
        // Never exceed the balanced target: completion ⇒ perfect balance.
        BinGrant::up_to(self.threshold.saturating_sub(load))
    }

    fn idle_want(&self, ctx: &RoundContext, load: u32) -> Option<u32> {
        // The grant ignores the bin id.
        Some(self.bin_grant(ctx, 0, load, 0).want)
    }

    fn select_commits(
        &self,
        ctx: &RoundContext,
        _ball: BallContext,
        options: &[CommitOption],
        picks: &mut Vec<u32>,
    ) {
        if ctx.round >= self.retry_cap {
            // Desperation: the estimate gate is off; take the least-
            // loaded accepting probe so the run always terminates.
            let best = options
                .iter()
                .enumerate()
                .min_by_key(|(i, o)| (o.load_before, *i))
                .map(|(i, _)| i as u32)
                .unwrap_or(0);
            picks.push(best);
            return;
        }
        // The first accepted probe is the placement candidate; the whole
        // sample estimates the average. Integer form of
        // `candidate ≤ mean(sample)`: cand · |sample| ≤ Σ sample.
        let candidate = options[0];
        let sum: u64 = options.iter().map(|o| o.load_before as u64).sum();
        if candidate.load_before as u64 * options.len() as u64 <= sum {
            picks.push(0);
        }
        // else: decline the round entirely — the retry the paper counts.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::{RunConfig, Simulator};

    #[test]
    fn completion_means_perfect_balance() {
        let spec = ProblemSpec::new(1 << 14, 1 << 10).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(1).with_validation(true))
            .run(EstimatedAverage::new(spec))
            .unwrap();
        assert!(out.is_complete());
        assert_eq!(
            out.max_load(),
            spec.ceil_avg(),
            "hard cap makes the balanced target exact"
        );
        assert_eq!(out.gap(), 0);
    }

    #[test]
    fn mean_retries_stay_constant_ish() {
        // Σ_r active(r) / m − 1 = retries per ball; the paper's claim is
        // that it is O(1). Allow generous slack — the point is that it
        // does not scale with n (the oracle pins the flatness claim).
        for n_log in [8u32, 10, 12] {
            let n = 1u32 << n_log;
            let spec = ProblemSpec::new(4 * n as u64, n).unwrap();
            let out = Simulator::new(spec, RunConfig::seeded(2).with_trace(true))
                .run(EstimatedAverage::new(spec))
                .unwrap();
            let trace = out.trace.as_ref().expect("trace requested");
            let probed: u64 = trace.records().iter().map(|r| r.active_before).sum();
            let retries = probed as f64 / spec.balls() as f64 - 1.0;
            assert!(
                retries < 4.0,
                "n = 2^{n_log}: mean retries {retries:.2} not constant-like"
            );
        }
    }

    #[test]
    fn m_equals_n_endgame_terminates_quickly() {
        // Hardest case: threshold 1, last balls must find empty bins.
        let spec = ProblemSpec::new(1 << 12, 1 << 12).unwrap();
        let p = EstimatedAverage::new(spec);
        let out = Simulator::new(spec, RunConfig::seeded(3).with_validation(true))
            .run(p)
            .unwrap();
        assert!(out.is_complete());
        assert_eq!(out.max_load(), 1, "perfect balance at m = n");
        assert!(
            out.rounds <= p.retry_cap() + 40,
            "degree escalation should finish the tail fast, took {}",
            out.rounds
        );
    }

    #[test]
    fn single_option_always_commits() {
        let spec = ProblemSpec::new(1 << 10, 1 << 5).unwrap();
        let p = EstimatedAverage::new(spec);
        let ctx = RoundContext {
            spec,
            round: 0,
            active: 1,
            placed: 0,
            seed: 0,
        };
        let options = [CommitOption {
            bin: 3,
            slot: 0,
            load_before: 31,
        }];
        let mut picks = Vec::new();
        p.select_commits(&ctx, BallContext { ball: 0 }, &options, &mut picks);
        assert_eq!(picks, vec![0], "1-sample mean equals the candidate");
    }

    #[test]
    fn overfull_candidate_declines_until_desperation() {
        let spec = ProblemSpec::new(1 << 10, 1 << 5).unwrap();
        let p = EstimatedAverage::with_params(spec, 3, 4);
        let options = [
            CommitOption {
                bin: 0,
                slot: 0,
                load_before: 9,
            },
            CommitOption {
                bin: 1,
                slot: 0,
                load_before: 2,
            },
            CommitOption {
                bin: 2,
                slot: 0,
                load_before: 1,
            },
        ];
        let mut picks = Vec::new();
        let gated = RoundContext {
            spec,
            round: 0,
            active: 1,
            placed: 0,
            seed: 0,
        };
        p.select_commits(&gated, BallContext { ball: 0 }, &options, &mut picks);
        assert!(picks.is_empty(), "candidate above sample mean is rejected");
        let desperate = RoundContext {
            spec,
            round: 4,
            active: 1,
            placed: 0,
            seed: 0,
        };
        p.select_commits(&desperate, BallContext { ball: 0 }, &options, &mut picks);
        assert_eq!(picks, vec![2], "desperation takes the least-loaded probe");
    }

    #[test]
    #[should_panic(expected = "probes must be in 1..=8")]
    fn zero_probes_rejected() {
        let spec = ProblemSpec::new(16, 4).unwrap();
        let _ = EstimatedAverage::with_params(spec, 0, 8);
    }
}
