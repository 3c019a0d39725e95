//! Sparse per-round bookkeeping: the state that lets a round's bin-side
//! work cost `O(requests + touched bins)` instead of `O(n)`.
//!
//! * [`TouchedBins`] — the round's touched bins as a bitmap of 16-bin
//!   groups with a one-bit-per-word summary, walked in ascending bin
//!   order. Ascending order keeps the single full-width round of a dense
//!   run streaming through memory, and the summary keeps a sparse
//!   round's walk from scanning every empty word.
//! * [`LoadHistogram`] — bins per load, kept in step with the commits
//!   themselves (each resolve arena tallies the load transitions its
//!   `fetch_add`s report). It yields the max load and, through
//!   [`RoundProtocol::idle_want`], the underload of every bin no request
//!   reached — the only round statistics that depend on idle bins.

use std::ops::Range;

use crate::protocol::{RoundContext, RoundProtocol};

/// Bins per group: one 64-byte cache line of a per-bin `u32` array.
pub(crate) const GROUP_BINS: usize = 16;

/// Bins covered by one summary word: 64 words of 64 groups.
pub(crate) const BLOCK_BINS: usize = 64 * 64 * GROUP_BINS;

/// The groups of [`GROUP_BINS`] bins that a round's requests reached,
/// walked in ascending order in `O(groups + n / 65536)`.
///
/// The set records groups, not bins: a caller finds the touched bins of
/// a group by their nonzero arrival counts, which it reads anyway. One
/// bit per cache line of counts keeps the set small enough to stay in
/// cache while the scan marks it (n/128 bytes), and a walk reads no line
/// of counts it would not read per bin.
pub(crate) struct TouchedBins {
    n: usize,
    /// Bit `g % 64` of word `g / 64` is set iff group `g` was touched.
    groups: Vec<u64>,
    /// Bit `w % 64` of summary word `w / 64` is set iff `groups[w] != 0`.
    summary: Vec<u64>,
}

impl TouchedBins {
    pub(crate) fn new(n: usize) -> Self {
        let words = n.div_ceil(GROUP_BINS).div_ceil(64);
        Self {
            n,
            groups: vec![0; words],
            summary: vec![0; words.div_ceil(64)],
        }
    }

    #[inline]
    pub(crate) fn insert(&mut self, bin: u32) {
        let g = bin as usize / GROUP_BINS;
        self.groups[g / 64] |= 1 << (g % 64);
        self.summary[g / (64 * 64)] |= 1 << (g / 64 % 64);
    }

    /// Empty the set: `O(touched groups + n / 65536)`.
    pub(crate) fn clear(&mut self) {
        for (s, summary) in self.summary.iter_mut().enumerate() {
            let mut bits = std::mem::take(summary);
            while bits != 0 {
                self.groups[s * 64 + bits.trailing_zeros() as usize] = 0;
                bits &= bits - 1;
            }
        }
    }

    /// Number of summary blocks ([`BLOCK_BINS`] bins each) — the unit
    /// callers split the walk into.
    pub(crate) fn blocks(&self) -> usize {
        self.summary.len()
    }

    /// Call `f` on the bin range of every touched group in `blocks`, in
    /// ascending order.
    #[inline]
    pub(crate) fn for_each_group(&self, blocks: Range<usize>, mut f: impl FnMut(Range<usize>)) {
        for s in blocks {
            let mut summary = self.summary[s];
            while summary != 0 {
                let w = s * 64 + summary.trailing_zeros() as usize;
                summary &= summary - 1;
                let mut bits = self.groups[w];
                while bits != 0 {
                    let lo = (w * 64 + bits.trailing_zeros() as usize) * GROUP_BINS;
                    f(lo..(lo + GROUP_BINS).min(self.n));
                    bits &= bits - 1;
                }
            }
        }
    }
}

/// Bins per load: `counts[i]` bins hold load `base + i`.
///
/// Loads only grow in the round engine, so `base` (the minimum load)
/// only grows and the table spans the load spread, not the load itself.
pub(crate) struct LoadHistogram {
    base: u32,
    counts: Vec<u32>,
    /// Scratch for [`LoadHistogram::idle_underload`]: the idle want of
    /// each load, aligned with `counts` (stale where `counts` is 0).
    wants: Vec<u32>,
}

impl LoadHistogram {
    /// `n` empty bins.
    pub(crate) fn new(n: u32) -> Self {
        Self {
            base: 0,
            counts: vec![n],
            wants: Vec::new(),
        }
    }

    /// The minimum load; load transitions are recorded relative to it.
    pub(crate) fn base(&self) -> u32 {
        self.base
    }

    /// Fold in one arena's load transitions: `lifts[i]` bins went from
    /// load `base + i` to `base + i + 1`. Call [`LoadHistogram::settle`]
    /// once every arena of the round is folded in.
    pub(crate) fn apply(&mut self, lifts: &[u32]) {
        if self.counts.len() <= lifts.len() {
            self.counts.resize(lifts.len() + 1, 0);
        }
        for (i, &c) in lifts.iter().enumerate() {
            // Arenas commit concurrently, so one arena may lift a bin out
            // of a load that another arena lifted it into: a partial fold
            // can dip below zero. Wrapping keeps every entry exact modulo
            // 2^32, and the round's full fold is a true count.
            self.counts[i] = self.counts[i].wrapping_sub(c);
            self.counts[i + 1] = self.counts[i + 1].wrapping_add(c);
        }
    }

    /// Drop emptied loads below the new minimum.
    pub(crate) fn settle(&mut self) {
        let empty = self.counts.iter().take_while(|&&c| c == 0).count();
        self.counts.drain(..empty);
        self.base += empty as u32;
    }

    pub(crate) fn max_load(&self) -> u32 {
        let top = self.counts.iter().rposition(|&c| c != 0).unwrap_or(0);
        self.base + top as u32
    }

    /// `(underloaded bins, unfilled want)` over all `n` bins as if none
    /// received a request this round, or `None` if the protocol's
    /// [`RoundProtocol::idle_want`] declines any present load. Leaves the
    /// per-load wants in [`LoadHistogram::idle_wants`].
    pub(crate) fn idle_underload<P: RoundProtocol>(
        &mut self,
        protocol: &P,
        ctx: &RoundContext,
    ) -> Option<(u32, u64)> {
        self.wants.clear();
        let (mut underloaded, mut unfilled) = (0u32, 0u64);
        for (i, &c) in self.counts.iter().enumerate() {
            let w = if c == 0 {
                0
            } else {
                protocol.idle_want(ctx, self.base + i as u32)?
            };
            self.wants.push(w);
            if w > 0 {
                underloaded += c;
                unfilled += u64::from(c) * u64::from(w);
            }
        }
        Some((underloaded, unfilled))
    }

    /// The idle want of every present load, indexed by `load - base`, as
    /// computed by the last [`LoadHistogram::idle_underload`].
    pub(crate) fn idle_wants(&self) -> &[u32] {
        &self.wants
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touched_walk_is_ascending_and_clears() {
        let n = 3 * BLOCK_BINS + 17;
        let mut set = TouchedBins::new(n);
        for b in [70_000u32, 5, 64, 63, (n - 1) as u32, 65_536, 5, 2] {
            set.insert(b);
        }
        let mut seen = Vec::new();
        set.for_each_group(0..set.blocks(), |g| seen.push(g));
        assert_eq!(
            seen,
            [
                0..16,
                48..64,
                64..80,
                65_536..65_552,
                70_000..70_016,
                n - 1..n
            ]
        );

        // A sub-range of blocks sees exactly its own groups.
        let mut mid = Vec::new();
        set.for_each_group(1..3, |g| mid.push(g.start));
        assert_eq!(mid, [65_536, 70_000]);

        set.clear();
        assert!(set.groups.iter().chain(&set.summary).all(|&w| w == 0));
    }

    #[test]
    fn histogram_tracks_lifts_in_any_fold_order() {
        let mut h = LoadHistogram::new(4);
        // Two bins 0 -> 1; one of them 1 -> 2, folded before the lift
        // that put it at load 1.
        h.apply(&[0, 1]);
        h.apply(&[2]);
        h.settle();
        assert_eq!((h.base(), h.max_load()), (0, 2));
        assert_eq!(h.counts, vec![2, 1, 1]);
        // Lift both empty bins: load 0 empties and the base advances.
        h.apply(&[2]);
        h.settle();
        assert_eq!(h.base(), 1);
        assert_eq!(h.counts, vec![3, 1]);
        assert_eq!(h.max_load(), 2);
    }
}
