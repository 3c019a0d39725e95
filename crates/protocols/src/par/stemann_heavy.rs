//! Collision-style protocol for the heavily loaded case with load
//! `O(m/n)` — the regime Stemann's 1996 paper covers (per footnote 2 of
//! the heavily loaded successor: "\[Ste96\] …provides algorithms for load
//! O(m/n) only").
//!
//! Reconstruction: each unallocated ball contacts one uniform bin per
//! round. A bin accepts a round's arrivals all-or-nothing iff
//!
//! * the arrival burst is modest (`arrivals ≤ m/n + α·√(m/n) + 1`), and
//! * the cumulative load stays within the cap (`load + arrivals ≤
//!   ⌈β·m/n⌉ + 2`).
//!
//! Round one places the bulk of the balls (a uniform burst is
//! `m/n ± O(√(m/n))`, within the `α`-sigma bound for most bins), and
//! stragglers drain geometrically. The maximal load is structurally
//! `≤ ⌈β·m/n⌉ + 2 = O(m/n)` — the guarantee this protocol reproduces
//! (E8) — which the threshold algorithm of the successor paper then
//! sharpens to `m/n + O(1)`.

use pba_core::mathutil::f64_to_u32_floor;
use pba_core::protocol::{BallContext, BinGrant, ChoiceSink, NoBallState, RoundContext};
use pba_core::rng::{Rand64, SplitMix64};
use pba_core::{ProblemSpec, RoundProtocol};

/// Heavily loaded collision protocol with load `O(m/n)`.
#[derive(Debug, Clone, Copy)]
pub struct StemannHeavy {
    spec: ProblemSpec,
    burst_bound: u32,
    load_cap: u32,
}

impl StemannHeavy {
    /// Default parameters `α = 1.0`, `β = 2.0`.
    pub fn new(spec: ProblemSpec) -> Self {
        Self::with_factors(spec, 1.0, 2.0)
    }

    /// The problem instance this protocol was configured for.
    pub fn spec(&self) -> ProblemSpec {
        self.spec
    }

    /// Custom burst slack `α > 0` and load-cap factor `β ≥ 1`.
    ///
    /// The per-round burst bound scales as `m/n + α·√(m/n) + 1` — one
    /// standard-deviation unit above the mean arrival count per `α` —
    /// so the collision dynamics stay meaningful at every ratio (a bound
    /// proportional to `m/n` itself becomes vacuous as `m/n` grows).
    pub fn with_factors(spec: ProblemSpec, alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && beta >= 1.0, "need α > 0 and β ≥ 1");
        let avg = spec.average_load();
        let burst_bound = f64_to_u32_floor(avg + alpha * avg.sqrt()) + 1;
        let load_cap = f64_to_u32_floor(beta * avg) + 2;
        Self {
            spec,
            burst_bound,
            load_cap,
        }
    }

    /// The per-round arrival bound.
    pub fn burst_bound(&self) -> u32 {
        self.burst_bound
    }

    /// The structural load cap (`O(m/n)`).
    pub fn load_cap(&self) -> u32 {
        self.load_cap
    }
}

impl RoundProtocol for StemannHeavy {
    type BallState = NoBallState;

    fn name(&self) -> &'static str {
        "stemann-heavy"
    }

    fn round_budget(&self, spec: &ProblemSpec) -> u32 {
        100 + 8 * (64 - spec.bins().leading_zeros())
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

    fn bin_grant(&self, _ctx: &RoundContext, _bin: u32, load: u32, arrivals: u32) -> BinGrant {
        let headroom = self.load_cap.saturating_sub(load);
        if arrivals <= self.burst_bound && arrivals <= headroom {
            BinGrant {
                accept: arrivals,
                want: headroom.min(self.burst_bound),
            }
        } else {
            BinGrant {
                accept: 0,
                want: headroom.min(self.burst_bound),
            }
        }
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
    fn completes_with_load_big_o_of_average() {
        let n = 1u32 << 10;
        let spec = ProblemSpec::new((n as u64) << 8, n).unwrap(); // m/n = 256
        let p = StemannHeavy::new(spec);
        let cap = p.load_cap();
        let out = Simulator::new(spec, RunConfig::seeded(1)).run(p).unwrap();
        assert!(out.is_complete());
        assert!(out.max_load() <= cap);
        // O(m/n): within 2× of the average, i.e. β·(m/n).
        assert!(out.max_load() as f64 <= 2.0 * spec.average_load() + 2.0);
    }

    #[test]
    fn few_rounds_in_heavy_regime() {
        let n = 1u32 << 12;
        let spec = ProblemSpec::new((n as u64) << 6, n).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(3))
            .run(StemannHeavy::new(spec))
            .unwrap();
        assert!(out.is_complete());
        assert!(out.rounds <= 10, "rounds {}", out.rounds);
    }

    #[test]
    fn bulk_placed_in_round_one() {
        let n = 1u32 << 10;
        let spec = ProblemSpec::new((n as u64) << 7, n).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(5))
            .run(StemannHeavy::new(spec))
            .unwrap();
        let r0 = out.trace.as_ref().unwrap().records()[0];
        assert!(
            r0.committed as f64 >= 0.8 * spec.balls() as f64,
            "round 0 placed only {}",
            r0.committed
        );
    }

    #[test]
    fn load_worse_than_threshold_heavy() {
        // The successor paper's point: O(m/n) ≫ m/n + O(1).
        let n = 1u32 << 10;
        let spec = ProblemSpec::new((n as u64) << 8, n).unwrap();
        let stemann = Simulator::new(spec, RunConfig::seeded(7))
            .run(StemannHeavy::new(spec))
            .unwrap();
        let heavy = Simulator::new(spec, RunConfig::seeded(7))
            .run(crate::ThresholdHeavy::new(spec))
            .unwrap();
        assert!(
            stemann.gap() > heavy.gap(),
            "stemann gap {} vs threshold-heavy gap {}",
            stemann.gap(),
            heavy.gap()
        );
    }

    #[test]
    #[should_panic(expected = "α")]
    fn invalid_factors_rejected() {
        let spec = ProblemSpec::new(1000, 10).unwrap();
        let _ = StemannHeavy::with_factors(spec, 0.0, 2.0);
    }

    #[test]
    fn burst_bound_scales_with_sqrt() {
        let n = 1u32 << 10;
        let spec = ProblemSpec::new((n as u64) << 10, n).unwrap(); // avg 1024
        let p = StemannHeavy::new(spec);
        // avg + √avg + 1 = 1024 + 32 + 1
        assert_eq!(p.burst_bound(), 1057);
    }
}
