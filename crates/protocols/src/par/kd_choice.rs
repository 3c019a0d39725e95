//! Park's (k,d)-choice generalization (arXiv:1201.3310): each ball
//! requests `k` slots among `d` sampled bins and — once at least `k`
//! distinct bins accept — commits **k replicas at once**, one per bin.
//!
//! This is the first protocol family exercising the engine's k-slot
//! request path: [`RoundProtocol::replicas`] returns `k`, the commit
//! choice is the full set returned by [`RoundProtocol::select_commits`]
//! (the `k` least-loaded distinct accepting bins, GREEDY-style), and the
//! in-engine invariant checker enforces that every committed ball
//! contributes exactly `k` load units. Loads therefore sum to `k·m`, and
//! the balanced target is `⌈k·m/n⌉`.
//!
//! The published bound (Park, Theorem 1): the greedy k-out-of-d scheme
//! reaches max load `k·m/n + ln ln n / ln(d/k) + O(1)` w.h.p. — the
//! two-choice `ln ln n / ln 2` window with the base improved to `d/k`.
//! In the synchronous-round setting balls only see round-start loads, so
//! the window is enforced collision-style: bins cap one Park window
//! above the balanced target and overfull requests retry. The oracle
//! (`e24-kd-load`) then pins the nontrivial part — runs complete within
//! the round budget while the max stays inside the window.
//!
//! An all-or-nothing commit needs `k` distinct accepting bins in one
//! round; as bins fill, a fixed degree `d` would leave the last balls
//! hunting for slack at probability `O((d/n)^k)` per round. Active balls
//! therefore escalate their probe degree deterministically with the
//! round index (a pure function of `ctx.round`, so Serial/Pool
//! bit-identity is untouched), which collapses the tail to a handful of
//! rounds.

use pba_core::protocol::{
    BallContext, BinGrant, ChoiceSink, CommitOption, NoBallState, RoundContext,
};
use pba_core::rng::{Rand64, SplitMix64};
use pba_core::{ProblemSpec, RoundProtocol};

/// Rounds at the base degree before probe escalation kicks in.
const ESCALATE_AFTER: u32 = 12;

/// Hard cap on an escalated probe degree.
const MAX_DEGREE: u32 = 256;

/// Park's (k,d)-choice: `d` sampled bins, `k` committed replicas.
#[derive(Debug, Clone, Copy)]
pub struct KdChoice {
    spec: ProblemSpec,
    k: u32,
    d: u32,
    capacity: u32,
}

/// `⌈ln ln n / ln(d/k)⌉` — Park's additive window above `k·m/n`.
pub fn park_window(n: u32, k: u32, d: u32) -> u32 {
    let lnln = (n.max(4) as f64).ln().ln().max(0.0);
    (lnln / (d as f64 / k as f64).ln()).ceil() as u32
}

impl KdChoice {
    /// The registry's named point `k = 2, d = 4`.
    pub fn new(spec: ProblemSpec) -> Self {
        Self::with_params(spec, 2, 4)
    }

    /// Custom `(k, d)` with `1 ≤ k < d ≤ 8`. `k` is clamped to the bin
    /// count (fewer distinct bins than replicas cannot exist).
    pub fn with_params(spec: ProblemSpec, k: u32, d: u32) -> Self {
        assert!(k >= 1, "k must be ≥ 1");
        assert!(d > k, "d must exceed k (the bound window is ln(d/k))");
        assert!(d <= 8, "base degree is capped at 8");
        let k = k.min(spec.bins());
        let n = spec.bins();
        let target = (k as u64 * spec.balls()).div_ceil(n as u64);
        let target = u32::try_from(target).expect("k·m/n fits in u32");
        // Structural cap one Park window (+2) above the balanced target.
        // In a synchronous round every ball sees round-*start* loads, so
        // greedy choice alone cannot keep round 0 inside the window —
        // the bound is enforced the way collision-style protocols do it:
        // bins cap at target + window and overflow retries. The
        // nontrivial part (what e24-kd-load + the budget check pin) is
        // that retries still terminate fast, and the +2 aggregate slack
        // is what absorbs crashed-bin capacity loss in chaos runs.
        let capacity = target
            .saturating_add(park_window(n, k, d.min(8)))
            .saturating_add(2);
        Self {
            spec,
            k,
            d,
            capacity,
        }
    }

    /// The problem instance this protocol was configured for.
    pub fn spec(&self) -> ProblemSpec {
        self.spec
    }

    /// Replicas committed per ball (after clamping to the bin count).
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Base probe degree.
    pub fn d(&self) -> u32 {
        self.d
    }

    /// The structural per-bin capacity.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Probe degree for `round`: the base `d`, doubling every 4 rounds
    /// once the tail phase starts, capped at [`MAX_DEGREE`] and `n`.
    fn effective_degree(&self, round: u32, n: u32) -> u32 {
        if round < ESCALATE_AFTER {
            return self.d;
        }
        let shift = ((round - ESCALATE_AFTER) / 4 + 1).min(8);
        (self.d << shift).min(MAX_DEGREE).min(n.max(self.d))
    }
}

impl RoundProtocol for KdChoice {
    type BallState = NoBallState;

    const NEEDS_COMMIT_CHOICE: bool = true;

    fn name(&self) -> &'static str {
        match (self.k, self.d) {
            (2, 4) => "kd-choice",
            (3, 6) => "kd-choice-36",
            _ => "kd-choice-custom",
        }
    }

    fn round_budget(&self, spec: &ProblemSpec) -> u32 {
        // Clean runs finish in ~15–25 rounds at any size (the +2 aggregate
        // slack keeps accepting bins plentiful through the endgame), so a
        // tight budget is safe — and it matters: an *infeasible* instance
        // (e.g. enough crashed bins that live capacity < k·m) should
        // error out quickly instead of burning escalated-degree rounds.
        64 + 4 * (64 - (spec.balls() + spec.bins() as u64).leading_zeros())
    }

    fn replicas(&self) -> u32 {
        self.k
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
        let deg = self.effective_degree(ctx.round, n);
        if deg <= 8 && n >= deg {
            // The paper's scheme samples d *distinct* bins; rejection
            // sampling on a stack array keeps the round allocation-free.
            let mut picked = [0u32; 8];
            for i in 0..deg as usize {
                let bin = loop {
                    let c = rng.below(n);
                    if !picked[..i].contains(&c) {
                        break c;
                    }
                };
                picked[i] = bin;
                out.push(bin);
            }
        } else {
            // Escalated tail probes draw with replacement: duplicates
            // only waste probes, and the degree dwarfs k by then.
            for _ in 0..deg {
                out.push(rng.below(n));
            }
        }
    }

    fn bin_grant(&self, _ctx: &RoundContext, _bin: u32, load: u32, _arrivals: u32) -> BinGrant {
        BinGrant::up_to(self.capacity.saturating_sub(load))
    }

    fn idle_want(&self, ctx: &RoundContext, load: u32) -> Option<u32> {
        // The grant ignores the bin id.
        Some(self.bin_grant(ctx, 0, load, 0).want)
    }

    fn select_commits(
        &self,
        _ctx: &RoundContext,
        _ball: BallContext,
        options: &[CommitOption],
        picks: &mut Vec<u32>,
    ) {
        // Greedy k-out-of-d: commit the k least-loaded *distinct*
        // accepting bins (ties broken by acceptance order), all-or-
        // nothing — with fewer than k distinct accepting bins the ball
        // declines the whole round and retries.
        let k = self.k as usize;
        let mut picked_bins = [u32::MAX; 8];
        for slot in 0..k {
            let mut best: Option<(u32, usize)> = None;
            for (i, o) in options.iter().enumerate() {
                if picked_bins[..slot].contains(&o.bin) {
                    continue;
                }
                if best.is_none_or(|(load, _)| o.load_before < load) {
                    best = Some((o.load_before, i));
                }
            }
            match best {
                Some((_, i)) => {
                    picked_bins[slot] = options[i].bin;
                    picks.push(i as u32);
                }
                None => {
                    picks.clear();
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::{RunConfig, Simulator};

    #[test]
    fn completes_with_k_times_m_units() {
        let spec = ProblemSpec::new(1 << 14, 1 << 8).unwrap();
        let p = KdChoice::new(spec);
        let cap = p.capacity();
        let out = Simulator::new(spec, RunConfig::seeded(1).with_validation(true))
            .run(p)
            .unwrap();
        assert!(out.is_complete());
        assert_eq!(out.replicas, 2);
        let total: u64 = out.loads.iter().map(|&l| l as u64).sum();
        assert_eq!(total, 2 * spec.balls(), "each ball contributes k units");
        assert!(out.max_load() <= cap);
    }

    #[test]
    fn achieved_max_sits_inside_one_park_window() {
        let n = 1u32 << 10;
        let spec = ProblemSpec::new(4 * n as u64, n).unwrap();
        let p = KdChoice::new(spec);
        let out = Simulator::new(spec, RunConfig::seeded(3)).run(p).unwrap();
        assert!(out.is_complete());
        // Balanced target 8, window ln ln n / ln 2 ≈ 3, slack +2.
        assert!(
            out.gap() <= park_window(n, 2, 4) + 2,
            "gap {} exceeds the Park window",
            out.gap()
        );
        // The cap must not make completion slow: one window of headroom
        // still finishes in far fewer rounds than the budget.
        assert!(out.rounds <= 32, "took {} rounds", out.rounds);
    }

    #[test]
    fn replica_assignment_is_primary_only_and_well_formed() {
        let spec = ProblemSpec::new(1 << 12, 1 << 6).unwrap();
        let out = Simulator::new(spec, RunConfig::seeded(5).with_assignment(true))
            .run(KdChoice::new(spec))
            .unwrap();
        let alloc = out.allocation();
        assert_eq!(alloc.replicas(), 2);
        assert!(alloc.is_well_formed(), "{:?}", alloc.verify());
    }

    #[test]
    fn wider_probe_set_tightens_the_window() {
        // ln(d/k) grows with d at fixed k, so the (2,6) point's window is
        // no wider than the (2,4) point's.
        assert!(park_window(1 << 20, 2, 6) <= park_window(1 << 20, 2, 4));
        assert!(park_window(1 << 20, 3, 6) <= park_window(1 << 20, 3, 4));
    }

    #[test]
    fn k_clamps_to_tiny_bin_counts() {
        let spec = ProblemSpec::new(64, 2).unwrap();
        let p = KdChoice::with_params(spec, 3, 6);
        assert_eq!(p.k(), 2, "k clamps to n");
        let out = Simulator::new(spec, RunConfig::seeded(7).with_validation(true))
            .run(p)
            .unwrap();
        assert!(out.is_complete());
    }

    #[test]
    fn named_points_report_their_registry_names() {
        let spec = ProblemSpec::new(1 << 10, 1 << 5).unwrap();
        assert_eq!(KdChoice::new(spec).name(), "kd-choice");
        assert_eq!(KdChoice::with_params(spec, 3, 6).name(), "kd-choice-36");
        assert_eq!(KdChoice::with_params(spec, 2, 8).name(), "kd-choice-custom");
    }

    #[test]
    #[should_panic(expected = "d must exceed k")]
    fn degenerate_degree_rejected() {
        let spec = ProblemSpec::new(16, 4).unwrap();
        let _ = KdChoice::with_params(spec, 2, 2);
    }
}
