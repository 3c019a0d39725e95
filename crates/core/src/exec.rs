//! Unified execution layer: one round kernel, any backend.
//!
//! The engine's round shape — gather choices, count arrivals, grant,
//! resolve/commit — used to exist in four copies (sequential/parallel ×
//! faulty/pristine). This module collapses them to **one kernel per
//! phase**, parameterized along two orthogonal axes:
//!
//! * [`Backend`] — *where* chunks run: [`Backend::Serial`] executes every
//!   chunk inline on the calling thread; [`Backend::Pool`] distributes
//!   chunks over a [`ThreadPool`]. The sequential path is literally the
//!   one-chunk instance of the chunked kernel, which is why the two are
//!   bit-identical by construction rather than by parallel maintenance.
//! * [`Admission`] — *what* filters requests: [`NoFaults`] is a zero-sized
//!   passthrough whose branches constant-fold away, [`Faulty`] routes every
//!   ball through the fault session's admit/deliver filters.
//!
//! ```text
//!             ┌─────────────────────── one round ───────────────────────┐
//!   chunk 0 → │ gather+count │     │ grant   │ │ resolve+commit │      │
//!   chunk 1 → │ gather+count │ scan│ grant   │ │ resolve+commit │ merge│
//!   chunk k → │ gather+count │     │ grant   │ │ resolve+commit │      │
//!             └─────────────────────────────────────────────────────────┘
//!               parallel       serial  parallel    parallel       serial
//!               (LaneScratch)  sparse  (touched    (LaneScratch)  O(m')
//!                                      bins)
//!
//! Every per-bin pass is *sparse*. Each arena tracks the bins it touched
//! this round, so the scan and the per-chunk count zeroing cost
//! `O(Σ distinct bins touched)` instead of `O(chunks · n)`. The grant
//! and its bookkeeping ([`touched_pass`]) walk only the round's touched
//! bins, and the underload of idle bins comes from a bins-per-load
//! histogram (see [`crate::sparse`]). Protocols whose idle want depends
//! on the bin id keep a full grant pass ([`grant_slice`]).
//! ```
//!
//! Each chunk writes exclusively into its own [`LaneScratch`] arena, owned
//! by `SimState` and reused across rounds, so the steady-state round
//! performs **zero heap allocations** (pinned by
//! `tests/alloc_steady_state.rs`). Cross-array per-ball writes (protocol
//! state, fault state, assignment, message counts) go through
//! [`DisjointIndexMut`], whose one-task-per-index contract is checked in
//! debug builds by a [`DisjointClaims`] table.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

use pba_par::{Chunking, DisjointClaims, DisjointIndexMut, ThreadPool};

use crate::faults::{BallFault, FaultCtx, FaultRecord};
use crate::protocol::{BallContext, ChoiceSink, CommitOption, RoundContext, RoundProtocol};
use crate::rng::RoundStreams;
use crate::sparse::TouchedBins;

/// Default minimum number of active balls assigned to one parallel chunk.
pub const DEFAULT_MIN_CHUNK: usize = 16 * 1024;

/// Default minimum active-set size for a round to fan out at all; below
/// it the round runs serially (one chunk) regardless of backend.
pub const DEFAULT_PAR_CUTOFF: usize = 64 * 1024;

/// Measured per-chunk floor for the round kernel's auto plan: chunks
/// smaller than this spend more on pool dispatch than on work. Fed by
/// `pba-run tune` (see `tuning.json`): the 16 Ki floor beat 8 Ki by
/// 10–15% at both the medium and large tiers in the shipped sweep.
pub const AUTO_MIN_CHUNK_FLOOR: usize = 16 * 1024;

/// Measured serial→parallel crossover of the round kernel: rounds with
/// fewer active balls than this run serially under [`Tuning::Auto`]. Fed
/// by `pba-run tune` (see `tuning.json`).
pub const AUTO_PAR_CUTOFF: usize = 64 * 1024;

/// Measured per-chunk floor for the streaming snapshot path (two probes
/// per arrival — much lighter than a protocol round, so chunks can be
/// smaller). Fed by `pba-run tune`.
pub const AUTO_INGEST_MIN_CHUNK: usize = 1024;

/// Measured serial→parallel crossover for streaming batch ingestion.
/// Fed by `pba-run tune`.
pub const AUTO_INGEST_PAR_CUTOFF: usize = 8 * 1024;

/// A fully resolved chunk-geometry plan for one pass of the round kernel
/// (or one streamed batch): the two knobs the execution layer actually
/// consumes. Obtain one from [`Tuning::plan`] / [`Tuning::plan_ingest`],
/// or pin it directly via [`Tuning::fixed`].
///
/// Plans only change *scheduling* — chunk boundaries and the fan-out
/// decision — never results: the kernels are bit-identical across every
/// plan by construction (pinned by the golden/fuzz suites).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Minimum items per parallel chunk.
    pub min_chunk: usize,
    /// Minimum active items for a round to use the parallel backend.
    pub par_cutoff: usize,
}

/// Legacy name for [`ChunkPlan`], kept so downstream code and older
/// call sites keep compiling.
pub type ExecTuning = ChunkPlan;

impl Default for ChunkPlan {
    fn default() -> Self {
        Self {
            min_chunk: DEFAULT_MIN_CHUNK,
            par_cutoff: DEFAULT_PAR_CUTOFF,
        }
    }
}

/// The tuning surface of a run: how chunk geometry is chosen.
///
/// [`Tuning::Auto`] (the default) resolves a [`ChunkPlan`] per
/// workload from the shipped measured tables (`pba-run tune` refreshes
/// them); [`Tuning::fixed`] pins an exact plan for experiments that
/// sweep the geometry. Either way results are identical — tuning is
/// scheduling only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Tuning {
    /// Derive the plan from the measured auto tables per workload size
    /// and lane count.
    #[default]
    Auto,
    /// Use exactly this plan everywhere.
    Fixed(ChunkPlan),
}

impl Tuning {
    /// Pin an exact plan (`min_chunk` clamped to at least 1).
    pub fn fixed(min_chunk: usize, par_cutoff: usize) -> Self {
        Tuning::Fixed(ChunkPlan {
            min_chunk: min_chunk.max(1),
            par_cutoff,
        })
    }

    /// The engine's historical compile-time defaults (16 Ki / 64 Ki),
    /// as a pinned plan.
    pub fn legacy() -> Self {
        Tuning::Fixed(ChunkPlan::default())
    }

    /// The auto plan for a round-kernel pass over `work` items on
    /// `lanes` lanes: aim for the backend's full fan-out (two chunks per
    /// lane) without dropping below the measured per-chunk floor.
    pub fn auto(work: u64, lanes: usize) -> ChunkPlan {
        let lanes = lanes.max(1) as u64;
        let per_chunk = usize::try_from((work / (2 * lanes)).max(1)).unwrap_or(usize::MAX);
        ChunkPlan {
            min_chunk: per_chunk.max(AUTO_MIN_CHUNK_FLOOR),
            par_cutoff: AUTO_PAR_CUTOFF,
        }
    }

    /// The auto plan for a streaming snapshot batch of `work` arrivals
    /// on `lanes` lanes — same shape as [`Tuning::auto`], but against
    /// the ingest tables (an arrival is two probes, far lighter than a
    /// protocol round, so the floor and cutoff sit lower).
    pub fn auto_ingest(work: u64, lanes: usize) -> ChunkPlan {
        let lanes = lanes.max(1) as u64;
        let per_chunk = usize::try_from((work / (2 * lanes)).max(1)).unwrap_or(usize::MAX);
        ChunkPlan {
            min_chunk: per_chunk.max(AUTO_INGEST_MIN_CHUNK),
            par_cutoff: AUTO_INGEST_PAR_CUTOFF,
        }
    }

    /// Resolve the plan for a round-kernel pass: the pinned plan for
    /// [`Tuning::Fixed`], the measured table otherwise.
    #[inline]
    pub fn plan(&self, work: u64, lanes: usize) -> ChunkPlan {
        match *self {
            Tuning::Auto => Self::auto(work, lanes),
            Tuning::Fixed(plan) => plan,
        }
    }

    /// Resolve the plan for a streamed batch (ingest tables).
    #[inline]
    pub fn plan_ingest(&self, work: u64, lanes: usize) -> ChunkPlan {
        match *self {
            Tuning::Auto => Self::auto_ingest(work, lanes),
            Tuning::Fixed(plan) => plan,
        }
    }
}

/// Where a round's chunks execute.
///
/// The round kernel itself is backend-agnostic: `Serial` runs the identical
/// chunked code inline (with exactly one chunk), `Pool` fans chunks out over
/// the pool's lanes. Results are bit-identical because chunk boundaries and
/// per-ball RNG streams are pure functions of the input, never of timing.
#[derive(Clone, Copy)]
pub enum Backend<'p> {
    /// Execute inline on the calling thread.
    Serial,
    /// Distribute chunks over a thread pool (the caller participates).
    Pool(&'p ThreadPool),
}

impl<'p> Backend<'p> {
    /// Number of execution lanes this backend can use.
    #[inline]
    pub fn lanes(&self) -> usize {
        match self {
            Backend::Serial => 1,
            Backend::Pool(pool) => pool.lanes(),
        }
    }

    /// The pool, if this backend has one.
    #[inline]
    pub fn pool(&self) -> Option<&'p ThreadPool> {
        match self {
            Backend::Serial => None,
            Backend::Pool(pool) => Some(pool),
        }
    }

    /// Deterministic chunk geometry for a pass over `len` items: one chunk
    /// on the serial backend, up to `2 × lanes` chunks on a pool.
    pub fn chunking(&self, len: usize, min_chunk: usize) -> Chunking {
        let max_chunks = match self {
            Backend::Serial => 1,
            Backend::Pool(pool) => pool.lanes() * 2,
        };
        Chunking::new(len, min_chunk.max(1), max_chunks)
    }

    /// Run `f(i)` for every `i in 0..tasks` — inline for `Serial`,
    /// distributed (caller participating) for `Pool`.
    pub fn run<F>(&self, tasks: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        match self {
            Backend::Serial => {
                for i in 0..tasks {
                    f(i);
                }
            }
            Backend::Pool(pool) => pool.run_indexed(tasks, f),
        }
    }
}

/// The request-admission axis of the round kernel: decides which balls
/// gather this round and which of their emitted choices are delivered.
///
/// Implementations must be cheap and `Sync`; the kernel monomorphizes over
/// them, so [`NoFaults`]' passthrough branches vanish at compile time.
pub(crate) trait Admission: Sync {
    /// True when `admit` always passes and `deliver` never filters — lets
    /// the gather kernel write choices straight into the scratch arena
    /// instead of staging them through a filter buffer.
    const PASSTHROUGH: bool;

    /// Should `ball` gather this round? `false` keeps it active with zero
    /// requests.
    fn admit(&self, round: u32, ball: u32, rec: &mut FaultRecord) -> bool;

    /// Filter the ball's emitted choices down to the delivered requests.
    fn deliver(&self, round: u32, ball: u32, raw: &mut Vec<u32>, rec: &mut FaultRecord);
}

/// Zero-cost admission: everything is admitted and delivered verbatim.
pub(crate) struct NoFaults;

impl Admission for NoFaults {
    const PASSTHROUGH: bool = true;

    #[inline]
    fn admit(&self, _round: u32, _ball: u32, _rec: &mut FaultRecord) -> bool {
        true
    }

    #[inline]
    fn deliver(&self, _round: u32, _ball: u32, _raw: &mut Vec<u32>, _rec: &mut FaultRecord) {}
}

/// Fault-session admission: defers backed-off/straggling balls and routes
/// every emitted choice through the crash-redraw + drop filter. All
/// decisions come from counter-based streams keyed on `(plan seed, round,
/// ball)`, so chunk boundaries cannot change them.
pub(crate) struct Faulty<'a> {
    ctx: FaultCtx<'a>,
    /// Per-ball retry state, written disjointly (one chunk per ball id).
    ball: DisjointIndexMut<'a, BallFault>,
}

impl<'a> Faulty<'a> {
    pub(crate) fn new(ctx: FaultCtx<'a>, ball: &'a mut [BallFault]) -> Self {
        Self {
            ctx,
            ball: DisjointIndexMut::new(ball),
        }
    }
}

impl Admission for Faulty<'_> {
    const PASSTHROUGH: bool = false;

    #[inline]
    fn admit(&self, round: u32, ball: u32, rec: &mut FaultRecord) -> bool {
        // SAFETY: the round kernel partitions ball ids over chunks (checked
        // by `DisjointClaims` in debug builds), so this chunk's task is the
        // only one touching this ball's fault slot.
        let st = unsafe { self.ball.index_mut(ball as usize) };
        self.ctx.admit(round, ball, st, rec)
    }

    #[inline]
    fn deliver(&self, round: u32, ball: u32, raw: &mut Vec<u32>, rec: &mut FaultRecord) {
        // SAFETY: as in `admit` — one chunk per ball id.
        let st = unsafe { self.ball.index_mut(ball as usize) };
        self.ctx.deliver(round, ball, raw, st, rec);
    }
}

/// One chunk's reusable scratch arena. `SimState` owns one per chunk slot
/// and reuses them across rounds; after the warm-up round every buffer has
/// reached steady-state capacity and rounds allocate nothing.
///
/// Cache-line aligned so adjacent arenas in the `Vec<LaneScratch>` never
/// share a line: the per-chunk tallies (`committed`/`wasted`/…) are
/// written concurrently by different lanes, and without the alignment the
/// tail fields of arena `k` and head fields of arena `k+1` would
/// false-share.
#[repr(align(64))]
pub(crate) struct LaneScratch {
    /// First index into `active` covered by this chunk this round.
    pub(crate) start: usize,
    /// Flat per-request bin ids, ball-major within the chunk.
    pub(crate) bins: Vec<u32>,
    /// Per-ball delivered-request counts, aligned with `active[start..]`.
    pub(crate) degrees: Vec<u32>,
    /// Per-bin arrival counts of this chunk; the serial exclusive scan
    /// rewrites the touched entries into the chunk's per-bin global
    /// arrival-rank bases.
    pub(crate) counts: Vec<u32>,
    /// Bins this chunk touched this round, in first-arrival order, each
    /// exactly once. Everything per-bin on this arena is sparse through
    /// this list: zeroing `counts` at round start, the exclusive scan,
    /// and the rank bases resolve reads — all `O(distinct bins touched)`
    /// instead of `O(n)` per chunk.
    pub(crate) touched: Vec<u32>,
    /// Staging buffer for pre-filter choices on the faulty path.
    raw: Vec<u32>,
    /// Commit options for `NEEDS_COMMIT_CHOICE` protocols.
    options: Vec<CommitOption>,
    /// Selected option indices for `NEEDS_COMMIT_CHOICE` protocols (one
    /// entry per replica the ball commits; empty = the ball declines).
    picks: Vec<u32>,
    /// This chunk's load transitions: `lifts[i]` commits found their bin
    /// at load `load_base + i` (folded into the engine's load histogram).
    pub(crate) lifts: Vec<u32>,
    /// Balls of this chunk that did not commit this round.
    pub(crate) still_active: Vec<u32>,
    /// First out-of-range bin a protocol emitted in this chunk, if any.
    pub(crate) out_of_range: Option<u64>,
    /// Fault events injected while gathering this chunk (all-zero on the
    /// no-fault path; merged into the session tally after the join in
    /// chunk order, matching the serial totals exactly).
    pub(crate) faults: FaultRecord,
    pub(crate) committed: u64,
    pub(crate) wasted: u64,
    pub(crate) commit_msgs: u64,
}

impl LaneScratch {
    pub(crate) fn new() -> Self {
        Self {
            start: 0,
            bins: Vec::new(),
            degrees: Vec::new(),
            counts: Vec::new(),
            touched: Vec::new(),
            raw: Vec::new(),
            options: Vec::new(),
            picks: Vec::new(),
            lifts: Vec::new(),
            still_active: Vec::new(),
            out_of_range: None,
            faults: FaultRecord::default(),
            committed: 0,
            wasted: 0,
            commit_msgs: 0,
        }
    }

    /// Reset for a new round's gather over `range_start..` with `n` bins.
    fn begin_gather(&mut self, range_start: usize, n: usize) {
        self.start = range_start;
        self.bins.clear();
        self.degrees.clear();
        if self.counts.len() != n {
            // Only ever runs on the first round a chunk slot is used (or if
            // the bin count changed, which it cannot mid-run). A fresh
            // resize is all-zero, so the touched list can start empty.
            self.counts.clear();
            self.counts.resize(n, 0);
            self.touched.clear();
        }
        // Sparse zero: after last round, this arena's `counts` are nonzero
        // only at bins on its touched list (counting, the scan's rank-base
        // rewrite, and resolve's rank bumps all stay within it).
        for &b in &self.touched {
            self.counts[b as usize] = 0;
        }
        self.touched.clear();
        self.out_of_range = None;
        self.faults = FaultRecord::default();
    }
}

/// Immutable context shared by every gather chunk of a round.
pub(crate) struct GatherShared<'a, P: RoundProtocol> {
    pub protocol: &'a P,
    pub ctx: &'a RoundContext,
    /// Per-ball streams with the round-level mix hoisted: every lane
    /// derives a ball's stream with one SplitMix64 finalizer instead of
    /// two — bit-identical to `ball_stream` by construction.
    pub streams: RoundStreams,
    pub n_bins: u32,
    pub active: &'a [u32],
    /// Per-ball protocol state, written disjointly (one chunk per ball).
    pub states: DisjointIndexMut<'a, P::BallState>,
    /// Debug-build verifier of the one-chunk-per-ball partition.
    pub claims: &'a DisjointClaims,
}

/// THE gather kernel: one chunk's choice emission, admission filtering,
/// and chunk-local arrival counting. Every executor/fault combination runs
/// this exact code; `A::PASSTHROUGH` only switches whether choices are
/// staged through the filter buffer.
pub(crate) fn gather_chunk<P: RoundProtocol, A: Admission>(
    shared: &GatherShared<'_, P>,
    admission: &A,
    range: Range<usize>,
    scratch: &mut LaneScratch,
) {
    scratch.begin_gather(range.start, shared.n_bins as usize);
    let round = shared.ctx.round;
    for &ball in &shared.active[range] {
        shared.claims.claim(ball as usize);
        // SAFETY: chunk ranges partition the active set and each ball id
        // appears at most once in it, so this task is the only one touching
        // this ball's state slot (asserted by the claim above in debug
        // builds).
        let state = unsafe { shared.states.index_mut(ball as usize) };
        if !admission.admit(round, ball, &mut scratch.faults) {
            scratch.degrees.push(0);
            continue;
        }
        let mut rng = shared.streams.ball(ball as u64);
        if A::PASSTHROUGH {
            let before = scratch.bins.len();
            let mut sink = ChoiceSink::new(&mut scratch.bins, shared.n_bins);
            shared.protocol.ball_choices(
                shared.ctx,
                BallContext { ball },
                state,
                &mut rng,
                &mut sink,
            );
            if let Some(b) = sink.out_of_range() {
                scratch.out_of_range.get_or_insert(b);
            }
            scratch.degrees.push((scratch.bins.len() - before) as u32);
        } else {
            scratch.raw.clear();
            let mut sink = ChoiceSink::new(&mut scratch.raw, shared.n_bins);
            shared.protocol.ball_choices(
                shared.ctx,
                BallContext { ball },
                state,
                &mut rng,
                &mut sink,
            );
            if let Some(b) = sink.out_of_range() {
                scratch.out_of_range.get_or_insert(b);
            }
            admission.deliver(round, ball, &mut scratch.raw, &mut scratch.faults);
            scratch.bins.extend_from_slice(&scratch.raw);
            scratch.degrees.push(scratch.raw.len() as u32);
        }
    }
    for &b in &scratch.bins {
        let slot = &mut scratch.counts[b as usize];
        if *slot == 0 {
            scratch.touched.push(b);
        }
        *slot += 1;
    }
}

/// The bin-side decision for one bin: `(clamped accept, want)`. Shared
/// by the touched-bin pass ([`touched_pass`]), the full pass over a bin
/// range ([`grant_slice`]) and the engine's crash sweep, so all compute
/// identical grants by construction.
#[inline]
pub(crate) fn bin_decision<P: RoundProtocol>(
    protocol: &P,
    ctx: &RoundContext,
    bin: u32,
    load: u32,
    arrivals: u32,
) -> (u32, u32) {
    let g = protocol.bin_grant(ctx, bin, load, arrivals);
    (g.accept.min(arrivals), g.want)
}

/// Immutable context shared by every task of a round's touched-bin pass.
pub(crate) struct TouchedShared<'a, P: RoundProtocol> {
    pub protocol: &'a P,
    pub ctx: &'a RoundContext,
    pub touched: &'a TouchedBins,
    pub counts: &'a [u32],
    /// Round-start loads (the pass runs before any commit).
    pub loads: &'a [u32],
    /// `Some` when the pass decides the grants: the histogram's idle
    /// wants by `load - base`, paired with `base`. `None` when `accept`
    /// is already filled (a full grant pass, or a delegate).
    pub idle: Option<(&'a [u32], u32)>,
    pub accept: DisjointIndexMut<'a, u32>,
    /// Per-bin received-message counters, if tracked.
    pub received: Option<DisjointIndexMut<'a, u64>>,
    /// Round-start load snapshot for `NEEDS_COMMIT_CHOICE` protocols;
    /// written at touched bins, the only ones resolve reads.
    pub loads_before: Option<DisjointIndexMut<'a, u32>>,
}

/// One task's tallies from [`touched_pass`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct TouchedTally {
    /// `Σ min(accept, arrivals)` — the round's granted slots.
    pub granted: u64,
    /// Underload of the visited bins (only when the pass decides grants).
    pub underloaded: u32,
    pub unfilled: u64,
    /// The visited bins' underload had they been idle: what the
    /// histogram's all-idle totals counted for them.
    pub idle_underloaded: u32,
    pub idle_unfilled: u64,
}

impl TouchedTally {
    pub(crate) fn merge(self, o: Self) -> Self {
        Self {
            granted: self.granted + o.granted,
            underloaded: self.underloaded + o.underloaded,
            unfilled: self.unfilled + o.unfilled,
            idle_underloaded: self.idle_underloaded + o.idle_underloaded,
            idle_unfilled: self.idle_unfilled + o.idle_unfilled,
        }
    }
}

/// THE per-bin kernel of a round: one ascending walk over the touched
/// bins (nonzero arrivals) of the touched groups in `blocks` that
/// decides each bin's grant (when [`TouchedShared::idle`] is set), sums
/// the granted slots, credits the received messages, and snapshots
/// `loads_before`. A bin no request reached has accept = taken = 0 by
/// construction, so nothing here needs the idle bins.
pub(crate) fn touched_pass<P: RoundProtocol>(
    shared: &TouchedShared<'_, P>,
    blocks: Range<usize>,
) -> TouchedTally {
    let mut t = TouchedTally::default();
    shared.touched.for_each_group(blocks, |group| {
        // The group's touched bins as a mask: a dense round pays one
        // unpredictable branch per group, not one per bin.
        let mut touched = 0u32;
        for (i, &c) in shared.counts[group.clone()].iter().enumerate() {
            touched |= u32::from(c != 0) << i;
        }
        while touched != 0 {
            let b = group.start + touched.trailing_zeros() as usize;
            touched &= touched - 1;
            let arrivals = shared.counts[b];
            // SAFETY: callers partition the blocks over tasks, and blocks
            // partition the bins, so no other task touches slot `b`.
            let accept = unsafe { shared.accept.index_mut(b) };
            if let Some((wants, base)) = shared.idle {
                let load = shared.loads[b];
                let (a, w) = bin_decision(shared.protocol, shared.ctx, b as u32, load, arrivals);
                *accept = a;
                if arrivals < w {
                    t.underloaded += 1;
                    t.unfilled += u64::from(w - arrivals);
                }
                let idle = wants[(load - base) as usize];
                if idle > 0 {
                    t.idle_underloaded += 1;
                    t.idle_unfilled += u64::from(idle);
                }
            }
            let taken = (*accept).min(arrivals);
            t.granted += u64::from(taken);
            // Requests arriving + commit notifications from every ball
            // this bin accepted.
            if let Some(received) = &shared.received {
                // SAFETY: as above — one task per bin.
                unsafe { *received.index_mut(b) += u64::from(arrivals + taken) };
            }
            if let Some(before) = &shared.loads_before {
                // SAFETY: as above — one task per bin.
                unsafe { *before.index_mut(b) = shared.loads[b] };
            }
        }
    });
    t
}

/// The grant phase for a contiguous range of the bin space — the
/// computation a cluster shard worker (`pba-cluster`) performs for the
/// bins it owns, and the engine's full grant pass (over `[0, n)`) for
/// protocols without an [`RoundProtocol::idle_want`].
///
/// `counts`, `loads`, and `accept` are the shard's dense slices for
/// global bins `[lo, lo + counts.len())`, indexed relative to `lo`;
/// `crashed` lists run-level crashed bins by global id (ids outside the
/// shard are ignored). Writes clamped accepts (0 for crashed bins) and
/// returns the shard's `(underloaded bins, unfilled want)` contribution
/// with the crashed-bin demand already backed out — exactly the
/// arithmetic of the engine's local grant phase plus its crash sweep, so
/// summing shard contributions over a partition of `[0, n)` reproduces
/// the in-process totals bit for bit.
pub fn grant_slice<P: RoundProtocol>(
    protocol: &P,
    ctx: &RoundContext,
    lo: u32,
    counts: &[u32],
    loads: &[u32],
    crashed: &[u32],
    accept: &mut [u32],
) -> (u32, u64) {
    assert_eq!(counts.len(), loads.len());
    assert_eq!(counts.len(), accept.len());
    let mut underloaded = 0u32;
    let mut unfilled = 0u64;
    for (i, a) in accept.iter_mut().enumerate() {
        let arrivals = counts[i];
        let (acc, w) = bin_decision(protocol, ctx, lo + i as u32, loads[i], arrivals);
        *a = acc;
        if arrivals < w {
            underloaded += 1;
            unfilled += (w - arrivals) as u64;
        }
    }
    // Crashed bins accept nothing and want nothing: recompute the (pure)
    // decision to back their unfilled demand out of the counters, then
    // zero the grant — the engine's `apply_crash_grants` sweep, shard-local.
    for &bin in crashed {
        let Some(i) = bin.checked_sub(lo).map(|d| d as usize) else {
            continue;
        };
        if i >= counts.len() {
            continue;
        }
        let arrivals = counts[i];
        let (_, w) = bin_decision(protocol, ctx, bin, loads[i], arrivals);
        if arrivals < w {
            underloaded -= 1;
            unfilled -= (w - arrivals) as u64;
        }
        accept[i] = 0;
    }
    (underloaded, unfilled)
}

/// Immutable context shared by every resolve chunk of a round.
pub(crate) struct ResolveShared<'a, P: RoundProtocol> {
    pub protocol: &'a P,
    pub ctx: &'a RoundContext,
    pub active: &'a [u32],
    pub accept: &'a [u32],
    /// Round-start load snapshot (populated only for `NEEDS_COMMIT_CHOICE`,
    /// and only at touched bins — every bin resolve reads).
    pub loads_before: &'a [u32],
    /// Live loads as atomics: commit increments are commutative, so the
    /// final values are schedule-independent.
    pub loads: &'a [AtomicU32],
    /// The round-start minimum load, the origin of each arena's `lifts`.
    pub load_base: u32,
    /// Final placements (one chunk per ball id), if tracked.
    pub assignment: Option<DisjointIndexMut<'a, u32>>,
    /// Per-ball sent-message counters (one chunk per ball id), if tracked.
    pub sent: Option<DisjointIndexMut<'a, u32>>,
}

/// THE resolve/commit kernel: assign each of the chunk's requests its
/// global arrival rank (chunk rank base + running chunk-local count),
/// accept iff rank < grant — exactly the first-`grant`-arrivals rule — and
/// commit at most one accepted bin per ball.
pub(crate) fn resolve_chunk<P: RoundProtocol>(
    shared: &ResolveShared<'_, P>,
    scratch: &mut LaneScratch,
) {
    let LaneScratch {
        start,
        bins,
        degrees,
        counts,
        options,
        picks,
        lifts,
        still_active,
        committed,
        wasted,
        commit_msgs,
        ..
    } = scratch;
    lifts.clear();
    // Every commit lands one load unit through `fetch_add`, whose return
    // value is the bin's load before it: tally the transition.
    let mut commit_to = |bin: u32| {
        let from = (shared.loads[bin as usize].fetch_add(1, Ordering::Relaxed) - shared.load_base)
            as usize;
        if from >= lifts.len() {
            lifts.resize(from + 1, 0);
        }
        lifts[from] += 1;
    };
    still_active.clear();
    *committed = 0;
    *wasted = 0;
    *commit_msgs = 0;
    let mut req_idx = 0usize;
    for (k, &degree) in degrees.iter().enumerate() {
        let ball = shared.active[*start + k];
        let mut commit: Option<u32> = None;
        let mut accepts = 0u32;
        if P::NEEDS_COMMIT_CHOICE {
            options.clear();
        }
        for _ in 0..degree {
            let bin = bins[req_idx];
            req_idx += 1;
            let b = bin as usize;
            let rank = counts[b];
            counts[b] = rank + 1;
            if rank < shared.accept[b] {
                accepts += 1;
                if P::NEEDS_COMMIT_CHOICE {
                    options.push(CommitOption {
                        bin,
                        slot: rank,
                        load_before: shared.loads_before[b],
                    });
                } else if commit.is_none() {
                    commit = Some(shared.protocol.redirect(shared.ctx, bin, rank));
                } else {
                    *wasted += 1;
                }
            }
        }
        if P::NEEDS_COMMIT_CHOICE && !options.is_empty() {
            picks.clear();
            shared
                .protocol
                .select_commits(shared.ctx, BallContext { ball }, options, picks);
            // The first pick is the ball's primary commit (recorded in the
            // assignment and counted below); replicas beyond it land their
            // load unit here. An empty pick set declines the round: every
            // acceptance is wasted and the ball stays active.
            for (i, &p) in picks.iter().enumerate() {
                let chosen = options[(p as usize).min(options.len() - 1)];
                let target = shared
                    .protocol
                    .redirect(shared.ctx, chosen.bin, chosen.slot);
                if i == 0 {
                    commit = Some(target);
                } else {
                    commit_to(target);
                }
            }
            *wasted += (options.len() - picks.len().min(options.len())) as u64;
        }
        *commit_msgs += accepts as u64;
        if let Some(sent) = &shared.sent {
            // SAFETY: resolve reuses the gather partition (same chunk
            // ranges over the same active set), so this task is the only
            // one touching this ball's sent counter.
            unsafe {
                *sent.index_mut(ball as usize) += degree + accepts;
            }
        }
        if let Some(target) = commit {
            commit_to(target);
            *committed += 1;
            if let Some(assignment) = &shared.assignment {
                // SAFETY: as above — one chunk per ball id.
                unsafe {
                    *assignment.index_mut(ball as usize) = target;
                }
            }
        } else {
            still_active.push(ball);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuning_defaults_match_constants() {
        let t = ExecTuning::default();
        assert_eq!(t.min_chunk, DEFAULT_MIN_CHUNK);
        assert_eq!(t.par_cutoff, DEFAULT_PAR_CUTOFF);
        assert_eq!(Tuning::default(), Tuning::Auto);
        assert_eq!(Tuning::legacy().plan(1 << 30, 8), ChunkPlan::default());
    }

    #[test]
    fn fixed_tuning_clamps_and_pins() {
        let t = Tuning::fixed(0, 7);
        let plan = t.plan(123, 4);
        assert_eq!(plan.min_chunk, 1, "min_chunk 0 must clamp to 1");
        assert_eq!(plan.par_cutoff, 7);
        // Fixed plans ignore workload and lanes entirely.
        assert_eq!(plan, t.plan(1 << 40, 64));
        assert_eq!(plan, t.plan_ingest(0, 1));
    }

    #[test]
    fn auto_plans_are_never_degenerate() {
        for work in [0u64, 1, 5, 1023, 1 << 10, 1 << 16, 1 << 20, 1 << 26] {
            for lanes in [0usize, 1, 2, 4, 8, 64] {
                for plan in [Tuning::auto(work, lanes), Tuning::auto_ingest(work, lanes)] {
                    assert!(plan.min_chunk >= 1, "work {work} lanes {lanes}: {plan:?}");
                    assert!(plan.par_cutoff >= 1, "work {work} lanes {lanes}: {plan:?}");
                    // The resulting chunk geometry must cover the work.
                    let c = Chunking::new(work as usize, plan.min_chunk, lanes.max(1) * 2);
                    if work > 0 {
                        assert!(c.chunks() >= 1);
                        assert_eq!(c.range(0).start, 0);
                        assert_eq!(c.range(c.chunks() - 1).end, work as usize);
                    }
                }
            }
        }
    }

    #[test]
    fn auto_plan_respects_floor_and_fanout_target() {
        // Small work: floor dominates.
        assert_eq!(Tuning::auto(1 << 10, 4).min_chunk, AUTO_MIN_CHUNK_FLOOR);
        // Large work: two chunks per lane.
        let plan = Tuning::auto(1 << 24, 4);
        assert_eq!(plan.min_chunk, (1 << 24) / 8);
        assert_eq!(plan.par_cutoff, AUTO_PAR_CUTOFF);
        // Ingest table sits lower than the round-kernel table.
        assert!(Tuning::auto_ingest(1 << 10, 4).min_chunk <= Tuning::auto(1 << 10, 4).min_chunk);
    }

    #[test]
    fn serial_backend_is_one_chunk() {
        let b = Backend::Serial;
        assert_eq!(b.lanes(), 1);
        assert!(b.pool().is_none());
        let c = b.chunking(1_000_000, 16);
        assert_eq!(c.chunks(), 1);
        assert_eq!(c.range(0), 0..1_000_000);
    }

    #[test]
    fn pool_backend_fans_out() {
        let pool = ThreadPool::new(3);
        let b = Backend::Pool(&pool);
        assert_eq!(b.lanes(), 4);
        let c = b.chunking(1_000_000, 16);
        assert_eq!(c.chunks(), 8); // lanes * 2
        let mut seen = [false; 64];
        let flags: Vec<std::sync::atomic::AtomicBool> = (0..64)
            .map(|_| std::sync::atomic::AtomicBool::new(false))
            .collect();
        b.run(64, |i| flags[i].store(true, Ordering::Relaxed));
        for (i, f) in flags.iter().enumerate() {
            seen[i] = f.load(Ordering::Relaxed);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn serial_backend_runs_inline_in_order() {
        let next = AtomicU32::new(0);
        Backend::Serial.run(10, |i| {
            assert_eq!(next.fetch_add(1, Ordering::Relaxed), i as u32);
        });
        assert_eq!(next.into_inner(), 10);
    }
}
