//! The asymmetric superbin protocol (Theorem 3 / Section 5 of the heavily
//! loaded paper): maximal load `m/n + O(1)` in `O(1)` rounds, each bin
//! receiving `(1+o(1))·m/n + O(log n)` messages.
//!
//! Bins carry globally known IDs. In round `r` the active balls spread
//! over `n_r = m_r·min(n/m_r, 1/ln n)` **superbin leaders** (every
//! `⌊n/n_r⌋`-th bin). A leader accepts up to
//!
//! ```text
//! L_r = ⌈m_r/n_r − δ_r⌉  with  δ_r = c·√((m_r/n_r)·ln n)
//! ```
//!
//! requests (or `⌈4c² ln n⌉` once `m_r/n_r ≤ 2c² ln n` — the final round)
//! and spreads the accepted balls **round-robin over its member bins** via
//! the response index — the engine's `redirect(bin, slot)` hook. Because
//! leaders receive at least `L_r` requests w.h.p., every member bin gains
//! the *same* load each non-final round, and the final round adds `O(1)`
//! per bin (each superbin then spans ≥ ln n members).
//!
//! When `m > n·ln n`, a single preliminary round of the symmetric
//! threshold algorithm (threshold `m/n − (m/n)^{2/3}`) first reduces the
//! active set to `o(m)`, which caps per-bin message counts at
//! `(1+o(1))·m/n + O(log n)`.

use pba_core::mathutil::{f64_to_u32_floor, f64_to_u64_floor};
use pba_core::protocol::{BallContext, BinGrant, ChoiceSink, NoBallState, RoundContext};
use pba_core::rng::{Rand64, SplitMix64};
use pba_core::{ProblemSpec, RoundProtocol};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Symmetric threshold pre-round (only when `m > n ln n`).
    PreRound,
    /// Superbin rounds.
    Main,
}

/// The constant-round asymmetric superbin protocol.
#[derive(Debug, Clone)]
pub struct Asymmetric {
    spec: ProblemSpec,
    /// The concentration constant `c` of `δ_r` (paper: "sufficiently
    /// large"; 1.5 keeps underload probability negligible at all tested
    /// sizes).
    c: f64,
    phase: Phase,
    pre_threshold: u64,
    // Per-round superbin geometry (recomputed in `begin_round`).
    n_r: u32,
    group: u32,
    l_r: u32,
    log_case: bool,
}

impl Asymmetric {
    /// Create with the default concentration constant.
    pub fn new(spec: ProblemSpec) -> Self {
        Self::with_constant(spec, 2.5)
    }

    /// Create with an explicit concentration constant `c > 0`.
    pub fn with_constant(spec: ProblemSpec, c: f64) -> Self {
        assert!(c > 0.0);
        let ln_n = (spec.bins() as f64).max(2.0).ln();
        let needs_pre_round = spec.balls() as f64 > spec.bins() as f64 * ln_n;
        let avg = spec.average_load();
        Self {
            spec,
            c,
            phase: if needs_pre_round {
                Phase::PreRound
            } else {
                Phase::Main
            },
            pre_threshold: f64_to_u64_floor(avg - avg.powf(2.0 / 3.0)),
            n_r: 1,
            group: spec.bins(),
            l_r: 0,
            log_case: false,
        }
    }

    fn ln_n(&self) -> f64 {
        (self.spec.bins() as f64).max(2.0).ln()
    }

    /// Superbin geometry and acceptance quota for `m_r` active balls.
    ///
    /// Finite-scale reconstruction of the paper's schedule (whose
    /// `min(n/m, 1/log n)` constants only cohere asymptotically):
    ///
    /// * **Bulk rounds** (`m_r/n > 2c²·ln n`): every bin is its own
    ///   superbin (`n_r = n`) and accepts exactly
    ///   `L_r = ⌊m_r/n − δ_r⌋` requests, `δ_r = c·√((m_r/n)·ln n)`. All
    ///   bins receive ≥ `L_r` requests w.h.p., so loads stay perfectly
    ///   even; the active set shrinks by the factor `δ_r·n/m_r =
    ///   c√(ln n·n/m_r)` per round, so at most a couple of bulk rounds
    ///   occur before the ratio falls below `2c²·ln n`.
    /// * **Final round** (`m_r/n ≤ 2c²·ln n`): superbins of
    ///   `members = min(max(4, ⌈m_r/n⌉), ⌈2·ln n⌉)` bins; leaders accept
    ///   *everything* and spread it round-robin, so the round is terminal
    ///   by construction. Each member gains `≈ m_r/n ± O(√(m_r/(n·members)))`
    ///   — the leader's arrival fluctuation divided by its member count —
    ///   while leaders receive only `members·m_r/n = O(log²n)` extra
    ///   messages, keeping the per-bin total at `(1+o(1))·m/n + O(log²n)`
    ///   (the paper's `O(log n)` term needs its asymptotic regime
    ///   `m/n ≫ log³n`; the trend is verified separately).
    fn configure_round(&mut self, m_r: u64) {
        let n = self.spec.bins();
        let ln_n = self.ln_n();
        let ratio = m_r as f64 / n as f64;
        let bulk_limit = 2.0 * self.c * self.c * ln_n;
        if ratio > bulk_limit {
            let delta = self.c * (ratio * ln_n).sqrt();
            self.n_r = n;
            self.group = 1;
            self.l_r = f64_to_u32_floor(ratio - delta).max(1);
            self.log_case = false;
        } else {
            let members = (ratio.ceil().max(4.0).min((2.0 * ln_n).ceil()) as u32)
                .min(n)
                .max(1);
            self.n_r = (n / members).max(1);
            self.group = n / self.n_r;
            self.l_r = u32::MAX; // leaders accept everything
            self.log_case = true;
        }
    }

    #[inline]
    fn is_leader(&self, bin: u32) -> bool {
        bin.is_multiple_of(self.group) && bin / self.group < self.n_r
    }

    /// Number of member bins owned by the leader at `bin`.
    #[inline]
    fn members_of(&self, leader: u32) -> u32 {
        let idx = leader / self.group;
        if idx + 1 == self.n_r {
            self.spec.bins() - leader
        } else {
            self.group
        }
    }
}

impl RoundProtocol for Asymmetric {
    type BallState = NoBallState;

    // Main-phase commits are spread round-robin over member bins, so a
    // commit may land on a different bin than the granting leader.
    const MAY_REDIRECT: bool = true;

    fn name(&self) -> &'static str {
        "asymmetric"
    }

    fn round_budget(&self, _spec: &ProblemSpec) -> u32 {
        // Paper: ≤ 3 superbin rounds (+1 pre-round) w.h.p.; generous cap
        // for the improbable straggler tail.
        24
    }

    fn begin_round(&mut self, ctx: &RoundContext) {
        match self.phase {
            Phase::PreRound if ctx.round == 0 => {}
            _ => {
                self.phase = Phase::Main;
                self.configure_round(ctx.active);
            }
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
        match self.phase {
            Phase::PreRound => out.push(rng.below(ctx.spec.bins())),
            Phase::Main => out.push(self.group * rng.below(self.n_r)),
        }
    }

    fn bin_grant(&self, _ctx: &RoundContext, bin: u32, load: u32, arrivals: u32) -> BinGrant {
        match self.phase {
            Phase::PreRound => {
                let t = self.pre_threshold.min(u32::MAX as u64) as u32;
                BinGrant::up_to(t.saturating_sub(load))
            }
            Phase::Main => {
                if self.is_leader(bin) {
                    if self.log_case {
                        // Final round: accept all arrivals and spread them
                        // round-robin over the member bins.
                        BinGrant {
                            accept: arrivals,
                            want: arrivals,
                        }
                    } else {
                        BinGrant::up_to(self.l_r)
                    }
                } else {
                    BinGrant::reject()
                }
            }
        }
    }

    fn idle_want(&self, ctx: &RoundContext, load: u32) -> Option<u32> {
        // The pre-round grant ignores the bin id; the main phase's depends
        // on whether the bin leads its superbin, so it takes the full pass.
        match self.phase {
            Phase::PreRound => Some(self.bin_grant(ctx, 0, load, 0).want),
            Phase::Main => None,
        }
    }

    fn redirect(&self, _ctx: &RoundContext, bin: u32, slot: u32) -> u32 {
        match self.phase {
            Phase::PreRound => bin,
            Phase::Main => bin + slot % self.members_of(bin),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::{RunConfig, Simulator};

    fn run(m: u64, n: u32, seed: u64) -> pba_core::RunOutcome {
        let spec = ProblemSpec::new(m, n).unwrap();
        Simulator::new(spec, RunConfig::seeded(seed))
            .run(Asymmetric::new(spec))
            .unwrap()
    }

    #[test]
    fn constant_rounds_heavy_regime() {
        let out = run(1 << 22, 1 << 10, 1); // m/n = 4096 > ln n
        assert!(out.is_complete());
        // ≤ 3 superbin rounds + 1 pre-round per Claim 9.
        assert!(out.rounds <= 5, "rounds {}", out.rounds);
        assert!(out.gap() <= 8, "gap {}", out.gap());
    }

    #[test]
    fn constant_rounds_light_regime() {
        // m ≤ n ln n: no pre-round; log-case quota finishes immediately.
        let out = run(1 << 12, 1 << 12, 3);
        assert!(out.is_complete());
        assert!(out.rounds <= 3, "rounds {}", out.rounds);
    }

    #[test]
    fn rounds_do_not_grow_with_m() {
        let r_small = run(1 << 16, 1 << 10, 5).rounds;
        let r_large = run(1 << 24, 1 << 10, 5).rounds;
        assert!(r_large <= r_small + 2, "small {r_small}, large {r_large}");
        assert!(r_large <= 5);
    }

    #[test]
    fn per_bin_messages_near_average() {
        // Theorem 3: bins receive (1+o(1))·m/n + O(log n) ball→bin
        // messages. Our ledger counts requests AND commit notifications
        // (≈ one per placed ball), so the baseline is 2·m/n; the bound
        // below checks the o(1)-style overhead plus the polylog term, in
        // the regime m/n ≫ log n where the theorem's asymptotics apply.
        let n = 1u32 << 10;
        let m = (n as u64) << 12; // m/n = 4096
        let out = run(m, n, 7);
        let max_recv = out.max_bin_received().unwrap() as f64;
        let avg = m as f64 / n as f64;
        let ln_n = (n as f64).ln();
        assert!(
            max_recv <= 2.8 * avg + 60.0 * ln_n,
            "max per-bin messages {max_recv} vs avg {avg}"
        );
    }

    #[test]
    fn per_bin_message_overhead_shrinks_as_ratio_grows() {
        // The (1+o(1)) claim as a shape: relative overhead over the 2·m/n
        // baseline decreases when m/n grows.
        let n = 1u32 << 10;
        let rel = |shift: u64| {
            let m = (n as u64) << shift;
            let out = run(m, n, 11);
            out.max_bin_received().unwrap() as f64 / (2.0 * m as f64 / n as f64)
        };
        let low = rel(6); // m/n = 64
        let high = rel(12); // m/n = 4096
        assert!(
            high < low,
            "overhead should shrink: low {low:.3}, high {high:.3}"
        );
    }

    #[test]
    fn round_robin_spreads_loads_evenly() {
        let out = run(1 << 20, 1 << 8, 9);
        let stats = out.load_stats();
        // All-but-final rounds add identical load to every bin w.h.p.;
        // the final round adds m_r/n ± √(m_r/(n·members)) per bin. At
        // n = 256 that residual deviation is ≈ ±2.3σ per leader, so the
        // end-to-end spread stays a small constant — compare against the
        // naive one-round spread of ≈ 2·√(2·4096·ln 256) ≈ 430.
        assert!(stats.spread() <= 25, "spread {}", stats.spread());
    }

    #[test]
    fn many_seeds_complete_fast() {
        for seed in 0..8 {
            let out = run(1 << 18, 1 << 9, seed);
            assert!(out.is_complete(), "seed {seed}");
            assert!(out.rounds <= 5, "seed {seed}: rounds {}", out.rounds);
            assert!(out.gap() <= 8, "seed {seed}: gap {}", out.gap());
        }
    }
}
