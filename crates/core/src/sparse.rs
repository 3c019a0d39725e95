//! Sparse per-round bookkeeping: the state that lets a round's bin-side
//! work cost `O(requests + touched bins)` instead of `O(n)`.
//!
//! * [`TouchedBins`] — the round's touched bins as marks on 16-bin
//!   groups with a summary mark per 64 groups, walked in ascending bin
//!   order. Ascending order keeps the single full-width round of a dense
//!   run streaming through memory, and the summary keeps a sparse
//!   round's walk from scanning every empty word.
//! * [`LoadHistogram`] — bins per load, kept in step with the commits
//!   themselves (each owner of a bin range tallies the load transitions
//!   of the commits it applies). It yields the max load and, through
//!   [`RoundProtocol::idle_want`], the underload of every bin no request
//!   reached — the only round statistics that depend on idle bins.

use std::ops::Range;

use crate::protocol::{RoundContext, RoundProtocol};

/// Bins per group: one 64-byte cache line of a per-bin `u32` array.
pub(crate) const GROUP_BINS: usize = 16;

/// Bins covered by one [`TouchedBlock`]: 64 words of 64 groups. This is also
/// the round kernel's owner range (see [`crate::exec`]): an in-range bin
/// offset fits in a `u16`.
pub(crate) const BLOCK_BINS: usize = 64 * 64 * GROUP_BINS;

/// `bin >> BLOCK_SHIFT` is the bin's block (owner range).
pub(crate) const BLOCK_SHIFT: u32 = BLOCK_BINS.trailing_zeros();

const _: () = assert!(BLOCK_BINS == 1 << 16, "in-range offsets are u16");

/// The groups of [`GROUP_BINS`] bins that a round's requests reached,
/// walked in ascending order in `O(touched groups + n / 65536)`.
///
/// The set records groups, not bins: a caller finds the touched bins of
/// a group by their nonzero arrival counts, which it reads anyway. It is
/// stored as one [`TouchedBlock`] per [`BLOCK_BINS`] bins, so each owner
/// range of the round kernel marks and clears its own block.
pub(crate) struct TouchedBins {
    n: usize,
    blocks: Vec<TouchedBlock>,
}

/// Groups per summary word of a [`TouchedBlock`].
const WORD_GROUPS: usize = 64;

/// The touched groups of one block of [`BLOCK_BINS`] bins, as one byte
/// per group (one per cache line of a per-bin `u32` array) and one byte
/// per word of 64 groups (n/16 bytes in all). Marking is two plain
/// stores: a bitmap's read-modify-write would chain every arrival at a
/// hot word behind the previous one.
#[derive(Clone, Copy)]
pub(crate) struct TouchedBlock {
    /// `words[w] != 0` iff some group of word `w` is marked.
    words: [u8; BLOCK_BINS / GROUP_BINS / WORD_GROUPS],
    /// `groups[g] != 0` iff the block's group `g` was touched.
    groups: [u8; BLOCK_BINS / GROUP_BINS],
}

impl TouchedBlock {
    const EMPTY: Self = Self {
        words: [0; BLOCK_BINS / GROUP_BINS / WORD_GROUPS],
        groups: [0; BLOCK_BINS / GROUP_BINS],
    };

    /// Mark the group of in-block bin offset `off`.
    #[inline]
    pub(crate) fn insert(&mut self, off: usize) {
        let g = off / GROUP_BINS;
        self.groups[g] = 1;
        self.words[g / WORD_GROUPS] = 1;
    }

    /// Call `f` on the in-block offset range of every touched group, in
    /// ascending order; `len` is the block's bin count (less than
    /// [`BLOCK_BINS`] only for the last block).
    #[inline]
    pub(crate) fn for_each_group(&self, len: usize, mut f: impl FnMut(Range<usize>)) {
        for (w, _) in self.words.iter().enumerate().filter(|(_, &m)| m != 0) {
            let word = &self.groups[w * WORD_GROUPS..(w + 1) * WORD_GROUPS];
            for (i, lane) in word.chunks_exact(8).enumerate() {
                // Eight group bytes at a time; each set byte is one group.
                let mut bytes = u64::from_le_bytes(lane.try_into().expect("8 bytes"));
                while bytes != 0 {
                    let g = w * WORD_GROUPS + i * 8 + bytes.trailing_zeros() as usize / 8;
                    bytes &= !(0xff << (bytes.trailing_zeros() / 8 * 8));
                    let lo = g * GROUP_BINS;
                    f(lo..(lo + GROUP_BINS).min(len));
                }
            }
        }
    }

    /// Empty the block: `O(64 + touched words · 64)`.
    pub(crate) fn clear(&mut self) {
        for (w, mark) in self.words.iter_mut().enumerate() {
            if std::mem::take(mark) != 0 {
                self.groups[w * WORD_GROUPS..(w + 1) * WORD_GROUPS].fill(0);
            }
        }
    }
}

impl TouchedBins {
    pub(crate) fn new(n: usize) -> Self {
        Self {
            n,
            blocks: vec![TouchedBlock::EMPTY; n.div_ceil(BLOCK_BINS)],
        }
    }

    /// Number of blocks ([`BLOCK_BINS`] bins each) — the unit callers
    /// split the walk into.
    pub(crate) fn blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The blocks, for owners that mark and clear their own.
    pub(crate) fn blocks_mut(&mut self) -> &mut [TouchedBlock] {
        &mut self.blocks
    }

    /// Call `f` on the bin range of every touched group in `blocks`, in
    /// ascending order.
    #[inline]
    pub(crate) fn for_each_group(&self, blocks: Range<usize>, mut f: impl FnMut(Range<usize>)) {
        for s in blocks {
            let bins = block_bins(self.n, s);
            self.blocks[s]
                .for_each_group(bins.len(), |g| f(bins.start + g.start..bins.start + g.end));
        }
    }
}

/// The bins of block (owner range) `s` of an `n`-bin space.
#[inline]
pub(crate) fn block_bins(n: usize, s: usize) -> Range<usize> {
    s * BLOCK_BINS..((s + 1) * BLOCK_BINS).min(n)
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

    /// Fold in one tally of load transitions: `lifts[i]` bins went from
    /// load `base + i` to `base + i + 1`. Call [`LoadHistogram::settle`]
    /// once every tally of the round is folded in.
    pub(crate) fn apply(&mut self, lifts: &[u32]) {
        if self.counts.len() <= lifts.len() {
            self.counts.resize(lifts.len() + 1, 0);
        }
        for (i, &c) in lifts.iter().enumerate() {
            // A tally that lifts a bin out of a load another tally lifted
            // it into makes a partial fold dip below zero. The engine's
            // owner tallies each cover their own bins and never do, but
            // wrapping keeps every entry exact modulo 2^32 in any fold
            // order, and the round's full fold is a true count.
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
        for b in [70_000usize, 5, 64, 63, n - 1, 65_536, 5, 2] {
            set.blocks_mut()[b / BLOCK_BINS].insert(b % BLOCK_BINS);
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

        for block in set.blocks_mut() {
            block.clear();
        }
        assert!(set
            .blocks
            .iter()
            .all(|b| b.words.iter().chain(&b.groups).all(|&m| m == 0)));
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
