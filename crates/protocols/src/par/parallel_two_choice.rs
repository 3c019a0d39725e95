//! Parallel adaptive two-choice — the natural "just parallelize
//! GREEDY\[2\]" heuristic, included as a foil for `A_heavy`.
//!
//! Every round, each unallocated ball samples `d = 2` *fresh* uniform
//! bins (adaptive, unlike \[ACMR98\]); bins accept up to the capacity
//! `⌈m/n⌉ + slack` and attach their round-start load to accept messages;
//! a multi-accepted ball commits to the lower landing height.
//!
//! This protocol reaches the same `m/n + O(1)` load as `A_heavy` (the
//! capacity is structural) but — lacking the undershooting thresholds —
//! it inherits [`crate::FixedThreshold`]'s full-bin-hammering tail, with
//! the second choice squaring the per-round rejection probability: the
//! tail is `Θ(log n)/2`-flavoured instead of `Θ(log log(m/n))`. At
//! moderate `n` the round counts are close (`log n ≈ 2·log log(m/n)`
//! there); the unambiguous cost is **twice the messages per round**, and
//! the asymptotic round separation belongs to `A_heavy`.

use pba_core::protocol::{
    BallContext, BinGrant, ChoiceSink, CommitOption, NoBallState, RoundContext,
};
use pba_core::rng::{Rand64, SplitMix64};
use pba_core::{ProblemSpec, RoundProtocol};

/// Adaptive parallel d-choice with fixed capacity.
#[derive(Debug, Clone, Copy)]
pub struct ParallelTwoChoice {
    spec: ProblemSpec,
    d: u32,
    capacity: u32,
}

impl ParallelTwoChoice {
    /// `d = 2`, capacity `⌈m/n⌉ + slack`, `slack ≥ 1`.
    pub fn new(spec: ProblemSpec, slack: u32) -> Self {
        Self::with_degree(spec, 2, slack)
    }

    /// Custom degree `1 ≤ d ≤ 8`.
    pub fn with_degree(spec: ProblemSpec, d: u32, slack: u32) -> Self {
        assert!((1..=8).contains(&d));
        assert!(slack >= 1, "slack must be ≥ 1 for guaranteed completion");
        let capacity = spec.ceil_avg().saturating_add(slack);
        Self { spec, d, capacity }
    }

    /// The problem instance this protocol was configured for.
    pub fn spec(&self) -> ProblemSpec {
        self.spec
    }

    /// The per-bin capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}

impl RoundProtocol for ParallelTwoChoice {
    type BallState = NoBallState;

    const NEEDS_COMMIT_CHOICE: bool = true;

    fn name(&self) -> &'static str {
        "parallel-two-choice"
    }

    fn round_budget(&self, spec: &ProblemSpec) -> u32 {
        300 * (64 - (spec.balls() + spec.bins() as u64).leading_zeros())
    }

    fn ball_choices(
        &self,
        ctx: &RoundContext,
        _ball: BallContext,
        _state: &mut NoBallState,
        rng: &mut SplitMix64,
        out: &mut ChoiceSink<'_>,
    ) {
        for _ in 0..self.d {
            out.push(rng.below(ctx.spec.bins()));
        }
    }

    fn bin_grant(&self, _ctx: &RoundContext, _bin: u32, load: u32, _arrivals: u32) -> BinGrant {
        BinGrant::up_to(self.capacity.saturating_sub(load))
    }

    fn idle_want(&self, ctx: &RoundContext, load: u32) -> Option<u32> {
        // The grant ignores the bin id.
        Some(self.bin_grant(ctx, 0, load, 0).want)
    }

    fn pick_commit(
        &self,
        _ctx: &RoundContext,
        _ball: BallContext,
        options: &[CommitOption],
    ) -> usize {
        options
            .iter()
            .enumerate()
            .min_by_key(|(_, o)| o.load_before + o.slot)
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::{RunConfig, Simulator};

    #[test]
    fn completes_with_capped_load() {
        let spec = ProblemSpec::new(1 << 16, 1 << 8).unwrap();
        let p = ParallelTwoChoice::new(spec, 2);
        let cap = p.capacity();
        let out = Simulator::new(spec, RunConfig::seeded(1)).run(p).unwrap();
        assert!(out.is_complete());
        assert!(out.max_load() <= cap);
        assert!(out.gap() <= 2);
    }

    #[test]
    fn fewer_rounds_than_degree_one_retry() {
        let n = 1u32 << 10;
        let spec = ProblemSpec::new((n as u64) << 6, n).unwrap();
        let two = Simulator::new(spec, RunConfig::seeded(3))
            .run(ParallelTwoChoice::new(spec, 1))
            .unwrap();
        let one = Simulator::new(spec, RunConfig::seeded(3))
            .run(crate::FixedThreshold::new(spec, 1))
            .unwrap();
        assert!(
            two.rounds <= one.rounds,
            "2-choice {} rounds vs 1-choice {} rounds",
            two.rounds,
            one.rounds
        );
    }

    #[test]
    fn pays_double_the_messages_of_threshold_heavy() {
        // The paper's point: adaptivity of the *thresholds* (not extra
        // choices) gets m/n + O(1) with degree-1 messaging. At moderate n
        // the round counts are close (log n ≈ 2·log log(m/n)), so the
        // clean separation is the message bill.
        let n = 1u32 << 10;
        let spec = ProblemSpec::new((n as u64) << 8, n).unwrap();
        let two = Simulator::new(spec, RunConfig::seeded(5))
            .run(ParallelTwoChoice::new(spec, 2))
            .unwrap();
        let heavy = Simulator::new(spec, RunConfig::seeded(5))
            .run(crate::ThresholdHeavy::new(spec))
            .unwrap();
        assert!(
            two.messages.requests as f64 >= 1.7 * heavy.messages.requests as f64,
            "2-choice {} requests vs A_heavy {}",
            two.messages.requests,
            heavy.messages.requests
        );
        // And it is never dramatically faster in rounds.
        assert!(two.rounds + 4 >= heavy.rounds);
    }

    #[test]
    fn message_cost_doubles_per_round() {
        let spec = ProblemSpec::new(1 << 14, 1 << 7).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(7))
            .run(ParallelTwoChoice::new(spec, 2))
            .unwrap();
        let r0 = out.trace.as_ref().unwrap().records()[0];
        assert_eq!(r0.requests, 2 * r0.active_before);
    }

    #[test]
    fn higher_degree_supported() {
        let spec = ProblemSpec::new(1 << 12, 1 << 6).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(9))
            .run(ParallelTwoChoice::with_degree(spec, 4, 2))
            .unwrap();
        assert!(out.is_complete());
    }
}
