//! The naive fixed-threshold retry protocol — the introduction's
//! motivating negative example and the object of the Theorem 2 lower
//! bound.
//!
//! Every bin accepts up to `T = ⌈m/n⌉ + slack` balls *in total*, never
//! adjusting. Each unallocated ball retries a fresh uniform bin each
//! round. The final load is trivially ≤ `T`, but:
//!
//! * after one round a constant fraction of bins is full, so unallocated
//!   balls keep hitting full bins — `Ω(log n)` rounds (E11);
//! * the per-phase rejection count matches Theorem 7's
//!   `Ω(√(M·n)/t)` (E5).

use pba_core::protocol::{BallContext, BinGrant, ChoiceSink, NoBallState, RoundContext};
use pba_core::rng::{Rand64, SplitMix64};
use pba_core::{ProblemSpec, RoundProtocol};

/// Fixed total capacity `⌈m/n⌉ + slack` per bin, uniform retry.
#[derive(Debug, Clone, Copy)]
pub struct FixedThreshold {
    spec: ProblemSpec,
    capacity: u32,
}

impl FixedThreshold {
    /// Capacity `⌈m/n⌉ + slack` per bin. `slack ≥ 1` is required for
    /// guaranteed completion when `n ∤ m` is false… more precisely, total
    /// capacity must strictly exceed `m` for the retry tail to drain, so
    /// we require `n·(⌈m/n⌉ + slack) > m`, which any `slack ≥ 1` gives.
    pub fn new(spec: ProblemSpec, slack: u32) -> Self {
        let capacity = spec.ceil_avg().saturating_add(slack);
        assert!(
            (capacity as u64) * (spec.bins() as u64) > spec.balls(),
            "total capacity must exceed m"
        );
        Self { spec, capacity }
    }

    /// The problem instance this protocol was configured for.
    pub fn spec(&self) -> ProblemSpec {
        self.spec
    }

    /// The per-bin capacity `T`.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }
}

impl RoundProtocol for FixedThreshold {
    type BallState = NoBallState;

    fn name(&self) -> &'static str {
        "fixed-threshold"
    }

    fn round_budget(&self, spec: &ProblemSpec) -> u32 {
        // Ω(log n) expected; the tail is geometric with constant rate once
        // O(n) balls remain. 300·log₂(n+m) is astronomically safe.
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
        out.push(rng.below(ctx.spec.bins()));
    }

    fn bin_grant(&self, _ctx: &RoundContext, _bin: u32, load: u32, _arrivals: u32) -> BinGrant {
        BinGrant::up_to(self.capacity.saturating_sub(load))
    }

    fn idle_want(&self, ctx: &RoundContext, load: u32) -> Option<u32> {
        // The grant ignores the bin id.
        Some(self.bin_grant(ctx, 0, load, 0).want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::{RunConfig, Simulator};

    #[test]
    fn completes_with_capped_load() {
        let spec = ProblemSpec::new(50_000, 128).unwrap();
        let p = FixedThreshold::new(spec, 2);
        let cap = p.capacity();
        let out = Simulator::new(spec, RunConfig::seeded(1)).run(p).unwrap();
        assert!(out.is_complete());
        assert!(out.max_load() <= cap);
        assert!(out.gap() <= 2);
    }

    #[test]
    fn needs_many_rounds_compared_to_log_scale() {
        // The motivating observation: with tight capacity, rounds ≈ Ω(log n).
        let n = 1u32 << 10;
        let spec = ProblemSpec::new((n as u64) * 64, n).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(5))
            .run(FixedThreshold::new(spec, 1))
            .unwrap();
        assert!(out.is_complete());
        assert!(out.rounds >= 5, "expected ≥5 rounds, got {}", out.rounds);
    }

    #[test]
    fn remaining_sequence_is_monotone_decreasing() {
        let spec = ProblemSpec::new(100_000, 256).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(2))
            .run(FixedThreshold::new(spec, 1))
            .unwrap();
        let seq = out.trace.unwrap().remaining_sequence();
        // Non-increasing (ties possible in the straggler tail, where a
        // round may place nobody), strictly positive progress overall.
        assert!(seq.windows(2).all(|w| w[1] <= w[0]), "{seq:?}");
        assert_eq!(*seq.last().unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_slack_exact_division_rejected() {
        // m = n·⌈m/n⌉ exactly: capacity == m, no strict excess.
        let spec = ProblemSpec::new(1024, 32).unwrap();
        let _ = FixedThreshold::new(spec, 0);
    }
}
