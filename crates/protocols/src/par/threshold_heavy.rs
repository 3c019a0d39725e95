//! `A_heavy` — the heavily loaded symmetric threshold algorithm
//! (Theorem 1 / Section 3 of the heavily loaded paper).
//!
//! **Phase 1 (threshold).** In round `i`, every unallocated ball contacts
//! one uniform bin; every bin accepts up to `T_i − load` balls where the
//! *cumulative* threshold is deliberately undershot:
//!
//! ```text
//! T_i = m/n − (m̃_i/n)^{2/3},     m̃_{i+1} = m̃_i^{2/3} · n^{1/3}
//! ```
//!
//! The undershoot keeps all bins equally loaded (w.h.p. every bin receives
//! more requests than it may accept — Claim 1), so the unallocated count
//! follows the recurrence and drops below `2n` in `O(log log(m/n))`
//! rounds (Claims 2–4).
//!
//! **Phase 2 (light).** The remaining `O(n)` balls are finished with the
//! LW16-style adaptive symmetric scheme of [`crate::ALight`]: active balls
//! double their request degree each round and bins accept all-or-nothing
//! under the cap `⌈m/n⌉ + light_extra` — each bin takes only `O(1)` balls
//! beyond its phase-1 threshold, so the final load is `m/n + O(1)`.
//!
//! The undershoot exponent `γ = 2/3` is exposed for the E13 ablation.

use pba_core::protocol::{BallContext, BinGrant, ChoiceSink, Flow, NoBallState, RoundContext};
use pba_core::rng::{Rand64, SplitMix64};
use pba_core::trace::RoundRecord;
use pba_core::{ProblemSpec, RoundProtocol};

use crate::schedule::UndershootSchedule;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Threshold,
    Light,
}

/// The heavily loaded threshold algorithm `A_heavy`.
#[derive(Debug, Clone)]
pub struct ThresholdHeavy {
    spec: ProblemSpec,
    /// The undershoot recurrence (paper: `γ = 2/3`).
    schedule: UndershootSchedule,
    /// Extra per-bin capacity in the light phase (the `O(1)`).
    light_extra: u32,
    /// Cap on the light phase's doubling request degree.
    degree_cap: u32,
    // --- round state ---
    phase: Phase,
    /// Cumulative threshold `T_i` for the current round (floored).
    threshold: u64,
    light_start: u32,
}

impl ThresholdHeavy {
    /// The paper's parameters: `γ = 2/3`, switch at `m̃ ≤ 2n`, light-phase
    /// extra capacity 2, degree cap 8.
    pub fn new(spec: ProblemSpec) -> Self {
        Self::with_gamma(spec, 2.0 / 3.0)
    }

    /// Ablation constructor: undershoot `T_i = m/n − (m̃_i/n)^γ` with
    /// `γ ∈ (0, 1)` and update `m̃_{i+1}/n = (m̃_i/n)^γ`.
    pub fn with_gamma(spec: ProblemSpec, gamma: f64) -> Self {
        let schedule = UndershootSchedule::with_gamma(spec.bins(), spec.balls() as f64, gamma);
        let phase = if schedule.exhausted() {
            Phase::Light
        } else {
            Phase::Threshold
        };
        Self {
            spec,
            schedule,
            light_extra: 2,
            degree_cap: 8,
            phase,
            threshold: 0,
            light_start: 0,
        }
    }

    /// Override the light phase's extra capacity (gap bound).
    pub fn with_light_extra(mut self, extra: u32) -> Self {
        assert!(extra >= 1);
        self.light_extra = extra;
        self
    }

    /// The light-phase all-or-nothing cap `⌈m/n⌉ + light_extra`.
    fn light_cap(&self) -> u32 {
        self.spec.ceil_avg().saturating_add(self.light_extra)
    }

    /// The round at which the light phase began (meaningful after the
    /// run; used by experiments to split phase statistics).
    pub fn light_phase_start(&self) -> u32 {
        self.light_start
    }

    /// The undershoot exponent.
    pub fn gamma(&self) -> f64 {
        self.schedule.gamma()
    }
}

impl RoundProtocol for ThresholdHeavy {
    type BallState = NoBallState;

    fn name(&self) -> &'static str {
        "threshold-heavy"
    }

    fn round_budget(&self, spec: &ProblemSpec) -> u32 {
        // O(log log(m/n)) + O(log* n) w.h.p.; the cap is vastly larger.
        let ratio = spec.average_load().max(2.0);
        200 + 10 * (ratio.log2().max(1.0).log2().max(1.0) as u32)
            + 4 * (64 - spec.bins().leading_zeros())
    }

    fn begin_round(&mut self, ctx: &RoundContext) {
        match self.phase {
            Phase::Threshold => {
                if self.schedule.exhausted() {
                    self.phase = Phase::Light;
                    self.light_start = ctx.round;
                } else {
                    self.threshold = self.schedule.threshold(self.spec.average_load());
                }
            }
            Phase::Light => {}
        }
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
        match self.phase {
            Phase::Threshold => out.push(rng.below(n)),
            Phase::Light => {
                let age = ctx.round - self.light_start;
                let degree = crate::par::a_light::throttled_degree(
                    age,
                    self.degree_cap,
                    ctx,
                    self.light_cap(),
                );
                for _ in 0..degree {
                    out.push(rng.below(n));
                }
            }
        }
    }

    fn bin_grant(&self, _ctx: &RoundContext, _bin: u32, load: u32, arrivals: u32) -> BinGrant {
        match self.phase {
            Phase::Threshold => {
                let t = self.threshold.min(u32::MAX as u64) as u32;
                BinGrant::up_to(t.saturating_sub(load))
            }
            Phase::Light => {
                // `want = accept`: the all-or-nothing headroom is not a
                // threshold demand, so light-phase rounds do not count as
                // "underloaded" in the Claims 1-2 statistics.
                let g = BinGrant::all_or_nothing(self.light_cap(), load, arrivals);
                BinGrant {
                    accept: g.accept,
                    want: g.accept,
                }
            }
        }
    }

    fn idle_want(&self, ctx: &RoundContext, load: u32) -> Option<u32> {
        // The grant ignores the bin id.
        Some(self.bin_grant(ctx, 0, load, 0).want)
    }

    fn after_round(&mut self, _ctx: &RoundContext, _record: &RoundRecord) -> Flow {
        if self.phase == Phase::Threshold {
            self.schedule.advance();
        }
        Flow::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_analysis::predict::predicted_rounds_total;
    use pba_core::{RunConfig, Simulator};

    fn run(m: u64, n: u32, seed: u64) -> pba_core::RunOutcome {
        let spec = ProblemSpec::new(m, n).unwrap();
        Simulator::new(spec, RunConfig::seeded(seed))
            .run(ThresholdHeavy::new(spec))
            .unwrap()
    }

    #[test]
    fn heavy_case_constant_gap() {
        let out = run(1 << 20, 1 << 10, 1); // m/n = 1024
        assert!(out.is_complete());
        assert!(out.gap() <= 2, "gap {} exceeds light_extra", out.gap());
    }

    #[test]
    fn gap_bound_is_structural() {
        // The light-phase cap makes gap ≤ light_extra a hard invariant,
        // not a probabilistic one.
        for seed in 0..5 {
            let out = run(1 << 18, 1 << 8, seed);
            assert!(out.is_complete());
            assert!(out.gap() <= 2);
        }
    }

    #[test]
    fn rounds_scale_like_log_log_ratio() {
        let n = 1u32 << 10;
        let small = run((n as u64) << 4, n, 3).rounds; // m/n = 16
        let large = run((n as u64) << 10, n, 3).rounds; // m/n = 1024
                                                        // log log grows from 2 to ~3.3: rounds grow, but far from the
                                                        // 64-fold growth of m/n itself.
        assert!(large >= small, "small={small} large={large}");
        assert!(large <= small + 12, "small={small} large={large}");
        let predicted = predicted_rounds_total((n as u64) << 10, n);
        assert!(
            large <= 3 * predicted + 10,
            "rounds {large} vs predicted {predicted}"
        );
    }

    #[test]
    fn messages_bounded_by_geometric_series() {
        // Theorem 6: total ball-sent messages ≤ 2m-ish (requests decay
        // geometrically). Allow 4m for the light phase's doubling.
        let out = run(1 << 20, 1 << 10, 7);
        assert!(
            out.messages.requests <= 4 * (1 << 20),
            "requests {} too large",
            out.messages.requests
        );
    }

    #[test]
    fn no_underloaded_bins_in_early_rounds() {
        // Claim 2: while m̃_i ≥ n·polylog(n), every bin fills its
        // threshold. At this size only round 0 sits safely inside the
        // polylog regime (round 1 has m̃/n ≈ 645, where the per-bin
        // underload probability e^{-(m̃/n)^{1/3}/2} ≈ 1.3% is no longer
        // ≪ 1/n); round 1 must still be nearly saturated.
        let out = run(1 << 22, 1 << 8, 9); // m/n = 16384
        let trace = out.trace.as_ref().unwrap();
        let first = trace.records()[0];
        assert_eq!(first.underloaded_bins, 0, "round 0 must saturate all bins");
        assert!(trace.records()[1].underloaded_bins <= (1 << 8) / 16);
    }

    #[test]
    fn light_case_still_completes() {
        // m = n: phase 1 is skipped entirely.
        let out = run(1 << 12, 1 << 12, 11);
        assert!(out.is_complete());
        assert!(out.gap() <= 3);
    }

    #[test]
    fn small_ratio_completes() {
        let out = run(3000, 1000, 13); // m/n = 3, just above switch
        assert!(out.is_complete());
        assert!(out.gap() <= 3);
    }

    #[test]
    fn ablation_gamma_variants_complete() {
        let spec = ProblemSpec::new(1 << 18, 1 << 8).unwrap();
        for gamma in [0.5, 0.75, 0.9] {
            let out = Simulator::new(spec, RunConfig::seeded(17))
                .run(ThresholdHeavy::with_gamma(spec, gamma))
                .unwrap();
            assert!(out.is_complete(), "gamma {gamma}");
            assert!(out.gap() <= 2, "gamma {gamma} gap {}", out.gap());
        }
    }

    #[test]
    #[should_panic(expected = "gamma")]
    fn gamma_out_of_range_rejected() {
        let spec = ProblemSpec::new(1 << 10, 1 << 5).unwrap();
        let _ = ThresholdHeavy::with_gamma(spec, 1.0);
    }
}
