//! Protocol combinators.
//!
//! The heavily loaded algorithm is structurally *two protocols run in
//! sequence on the same bins* (threshold phase, then light phase).
//! [`Sequenced`] generalizes that composition: run `A` until it declares
//! itself finished, then hand the remaining balls to `B` — loads carry
//! over automatically because bins are engine state, not protocol state.
//!
//! This lets users compose e.g. `StemannHeavy` (bulk placement, O(m/n)
//! cap) with `ALight` (O(1)-gap finishing), or prepend a single
//! symmetric round to the asymmetric protocol as Theorem 3's
//! message-reduction variant does.

use pba_core::protocol::{
    BallContext, BinGrant, ChoiceSink, CommitOption, Flow, RoundContext, RoundProtocol,
};
use pba_core::rng::SplitMix64;
use pba_core::trace::RoundRecord;
use pba_core::ProblemSpec;

/// When the first phase of a [`Sequenced`] composition should yield.
pub trait PhaseLimit: Send + Sync {
    /// True when the first protocol should stop after this round.
    fn phase_done(&self, ctx: &RoundContext, record: &RoundRecord) -> bool;
}

/// Yield after a fixed number of rounds.
#[derive(Debug, Clone, Copy)]
pub struct AfterRounds(pub u32);

impl PhaseLimit for AfterRounds {
    fn phase_done(&self, ctx: &RoundContext, _record: &RoundRecord) -> bool {
        ctx.round + 1 >= self.0
    }
}

/// Yield once at most `threshold · n` balls remain unallocated.
#[derive(Debug, Clone, Copy)]
pub struct WhenRemainingPerBin(pub f64);

impl PhaseLimit for WhenRemainingPerBin {
    fn phase_done(&self, ctx: &RoundContext, record: &RoundRecord) -> bool {
        let remaining = ctx.active - record.committed;
        (remaining as f64) <= self.0 * ctx.spec.bins() as f64
    }
}

/// Run `A` until `limit` fires, then `B` on whatever remains.
///
/// Ball state is the pair of both phases' states; rounds are globally
/// numbered (phase `B` sees the true round index in its context and can
/// compute its phase-local age from [`Sequenced::second_phase_start`]
/// being stored before its first round — protocols in this workspace use
/// only per-round degree schedules, which the adapter offsets for them
/// is *not* attempted; compose protocols that tolerate a nonzero
/// starting round, which all of ours do except round-age-sensitive ones
/// like `ALight`'s doubling — for those, prefer their built-in phase
/// handling).
pub struct Sequenced<A: RoundProtocol, B: RoundProtocol, L: PhaseLimit> {
    first: A,
    second: B,
    limit: L,
    in_second: bool,
    second_start: u32,
}

impl<A: RoundProtocol, B: RoundProtocol, L: PhaseLimit> Sequenced<A, B, L> {
    /// Compose `first` then `second`, switching when `limit` fires.
    pub fn new(first: A, second: B, limit: L) -> Self {
        Self {
            first,
            second,
            limit,
            in_second: false,
            second_start: 0,
        }
    }

    /// The round at which the second phase began (0 until it does).
    pub fn second_phase_start(&self) -> u32 {
        self.second_start
    }

    /// Whether the composition is currently in its second phase.
    pub fn in_second_phase(&self) -> bool {
        self.in_second
    }
}

impl<A, B, L> RoundProtocol for Sequenced<A, B, L>
where
    A: RoundProtocol,
    B: RoundProtocol,
    L: PhaseLimit,
{
    type BallState = (A::BallState, B::BallState);

    // Conservative: pay the snapshot cost if either phase needs it.
    const NEEDS_COMMIT_CHOICE: bool = A::NEEDS_COMMIT_CHOICE || B::NEEDS_COMMIT_CHOICE;

    // Conservative: relax the validator's capacity check if either phase
    // redirects commits.
    const MAY_REDIRECT: bool = A::MAY_REDIRECT || B::MAY_REDIRECT;

    fn name(&self) -> &'static str {
        "sequenced"
    }

    fn round_budget(&self, spec: &ProblemSpec) -> u32 {
        self.first
            .round_budget(spec)
            .saturating_add(self.second.round_budget(spec))
    }

    fn begin_round(&mut self, ctx: &RoundContext) {
        if self.in_second {
            self.second.begin_round(ctx);
        } else {
            self.first.begin_round(ctx);
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
        if self.in_second {
            self.second.ball_choices(ctx, ball, &mut state.1, rng, out);
        } else {
            self.first.ball_choices(ctx, ball, &mut state.0, rng, out);
        }
    }

    fn bin_grant(&self, ctx: &RoundContext, bin: u32, load: u32, arrivals: u32) -> BinGrant {
        if self.in_second {
            self.second.bin_grant(ctx, bin, load, arrivals)
        } else {
            self.first.bin_grant(ctx, bin, load, arrivals)
        }
    }

    fn idle_want(&self, ctx: &RoundContext, load: u32) -> Option<u32> {
        if self.in_second {
            self.second.idle_want(ctx, load)
        } else {
            self.first.idle_want(ctx, load)
        }
    }

    fn redirect(&self, ctx: &RoundContext, bin: u32, slot: u32) -> u32 {
        if self.in_second {
            self.second.redirect(ctx, bin, slot)
        } else {
            self.first.redirect(ctx, bin, slot)
        }
    }

    fn pick_commit(
        &self,
        ctx: &RoundContext,
        ball: BallContext,
        options: &[CommitOption],
    ) -> usize {
        if self.in_second {
            self.second.pick_commit(ctx, ball, options)
        } else {
            self.first.pick_commit(ctx, ball, options)
        }
    }

    fn after_round(&mut self, ctx: &RoundContext, record: &RoundRecord) -> Flow {
        if self.in_second {
            return self.second.after_round(ctx, record);
        }
        let flow = self.first.after_round(ctx, record);
        if self.limit.phase_done(ctx, record) {
            self.in_second = true;
            self.second_start = ctx.round + 1;
            return Flow::Continue; // hand off instead of whatever A said
        }
        flow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FixedThreshold, SingleChoice, StemannHeavy};
    use pba_core::{RunConfig, Simulator};

    #[test]
    fn stemann_then_fixed_finisher_gets_tight_gap() {
        // Phase 1: all-or-nothing bulk placement with a *tight* cumulative
        // cap (β = 1 ⇒ cap ≈ m/n + 2) — fast for the bulk, but its
        // reject-everything rule stalls on the tail. Phase 2: a fixed
        // tight threshold drains the stragglers with partial acceptance.
        // The composition gets the tight gap neither phase alone delivers
        // comfortably (note: composition can never *undo* phase-1
        // overshoot, which is why phase 1 must already be capped).
        let n = 1u32 << 9;
        let spec = ProblemSpec::new((n as u64) << 7, n).unwrap();
        let composed = Sequenced::new(
            StemannHeavy::with_factors(spec, 1.0, 1.0),
            FixedThreshold::new(spec, 2),
            WhenRemainingPerBin(4.0),
        );
        let out = Simulator::new(spec, RunConfig::seeded(1))
            .run(composed)
            .unwrap();
        assert!(out.is_complete());
        assert!(out.gap() <= 2, "gap {}", out.gap());
        // And far tighter than the default StemannHeavy's O(m/n) slack.
        let pure = Simulator::new(spec, RunConfig::seeded(1))
            .run(StemannHeavy::new(spec))
            .unwrap();
        assert!(out.gap() <= pure.gap());
    }

    #[test]
    fn after_rounds_switches_exactly() {
        let n = 1u32 << 8;
        let spec = ProblemSpec::new((n as u64) * 8, n).unwrap();
        let composed = Sequenced::new(
            SingleChoice::new(spec),
            FixedThreshold::new(spec, 1),
            AfterRounds(1),
        );
        // SingleChoice accepts everything in round 0 → done in one round;
        // the handoff never runs B but must not break anything.
        let out = Simulator::new(spec, RunConfig::seeded(2))
            .run(composed)
            .unwrap();
        assert!(out.is_complete());
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn handoff_preserves_loads() {
        // A places some balls with a low cap; B must see those loads (its
        // thresholds bind against them), so the final max respects B's cap.
        let n = 1u32 << 8;
        let spec = ProblemSpec::new((n as u64) * 16, n).unwrap();
        let composed = Sequenced::new(
            FixedThreshold::new(spec, 3),
            FixedThreshold::new(spec, 1),
            AfterRounds(2),
        );
        let out = Simulator::new(spec, RunConfig::seeded(3))
            .run(composed)
            .unwrap();
        assert!(out.is_complete());
        // Phase A cap is 19; phase B cap is 17. Loads placed in phase A up
        // to 19 stay; B adds nothing beyond 17 — the final max is ≤ A's cap.
        assert!(out.max_load() <= 19);
    }

    #[test]
    fn remaining_per_bin_limit_fires() {
        let n = 1u32 << 8;
        let spec = ProblemSpec::new((n as u64) * 64, n).unwrap();
        let mut composed = Sequenced::new(
            StemannHeavy::new(spec),
            FixedThreshold::new(spec, 2),
            WhenRemainingPerBin(8.0),
        );
        // Drive manually through the simulator; afterwards the protocol
        // must have ended in its second phase.
        let sim = Simulator::new(spec, RunConfig::seeded(4));
        // Need access to the protocol after the run: run a clone-style
        // manual loop instead.
        let out = sim.run_mut(&mut composed).unwrap();
        assert!(out.is_complete());
        assert!(composed.in_second_phase());
        assert!(composed.second_phase_start() >= 1);
    }
}
