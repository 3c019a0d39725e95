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
//!            ┌───────────────────────────── one round ─────────────────────────────┐
//!  chunk 0 → │ gather+route │       │       │      │ resolve+mark │        │       │
//!  chunk k → │ gather+route │       │       │      │ resolve+mark │        │       │
//!  owner 0 → │              │ count │ grant │ rank │              │ commit │       │
//!  owner j → │              │ count │ grant │ rank │              │ commit │ merge │
//!            └─────────────────────────────────────────────────────────────────────┘
//!              chunks of      owners of bin ranges  chunks          owners   serial
//!              balls          (BLOCK_BINS = 2^16)   (balls)                  O(m')
//! ```
//!
//! Each chunk of the active set gathers its balls' requests and stably
//! partitions them by *owner range* — the [`crate::sparse::BLOCK_BINS`]
//! bins of one touched-set block — into 2-byte in-range offsets
//! ([`Routing`]). Each owner then works on its own bins only, walking
//! the chunks' segments for its range in chunk order: it counts the
//! arrivals and marks its touched block ([`count_range`]), the grant
//! walks its touched bins ([`touched_pass`], or a delegate decides), and
//! it ranks every request in reverse arrival order, which returns its
//! `counts` to zero ([`rank_range`]). A ball-major resolve reads each
//! request's rank back through the chunk's partition cursors, decides
//! the ball's commits and marks each on its request's rank slot
//! ([`resolve_chunk`]); the owners apply the marked commits with plain
//! adds and tally the load transitions ([`commit_range`]). A commit that
//! a redirect sends into another owner range is routed to its owner like
//! a request. Owners take requests in chunk order and the partition is
//! stable, so every bin sees the global arrival order: ranks, grants and
//! commits are the same on every backend by construction, with no
//! atomics and no serial pass over requests or bins. Per-round cost is
//! `O(requests + touched bins + n / BLOCK_BINS)`; protocols whose idle
//! want depends on the bin id keep a full grant pass ([`grant_slice`]).
//!
//! Each chunk writes exclusively into its own [`LaneScratch`] arena, and
//! each owner task into its own [`OwnerScratch`], both owned by
//! `SimState` and reused across rounds, so the steady-state round
//! performs **zero heap allocations** (pinned by
//! `tests/alloc_steady_state.rs`). Cross-array per-ball writes (protocol
//! state, fault state, assignment, message counts) go through
//! [`DisjointIndexMut`], whose one-task-per-index contract is checked in
//! debug builds by a [`DisjointClaims`] table.

use std::ops::Range;

use pba_par::{Chunking, DisjointClaims, DisjointIndexMut, ThreadPool};

use crate::faults::{BallFault, FaultCtx, FaultRecord};
use crate::protocol::{BallContext, ChoiceSink, CommitOption, RoundContext, RoundProtocol};
use crate::rng::RoundStreams;
use crate::sparse::{TouchedBins, TouchedBlock, BLOCK_BINS, BLOCK_SHIFT};

/// Default minimum number of active balls assigned to one parallel chunk.
pub const DEFAULT_MIN_CHUNK: usize = 16 * 1024;

/// Default minimum active-set size for a round to fan out at all; below
/// it the round runs serially (one chunk) regardless of backend.
pub const DEFAULT_PAR_CUTOFF: usize = 64 * 1024;

/// Per-chunk floor for the round kernel's auto plan: chunks smaller than
/// this spend more on pool dispatch than on work. A fixed constant: a
/// one-off sweep of the floor (single-choice on 4 lanes, one-core host)
/// found 16 Ki 10–15% faster than 8 Ki at m = n = 2¹⁶ and 2²⁰.
pub const AUTO_MIN_CHUNK_FLOOR: usize = 16 * 1024;

/// Serial→parallel cutoff of the round kernel: rounds with fewer active
/// balls than this run serially under [`Tuning::Auto`]. A fixed
/// engineering default, equal to [`DEFAULT_PAR_CUTOFF`]; the one-off
/// sweep behind [`AUTO_MIN_CHUNK_FLOOR`] ran on one core, where no
/// crossover is real, so it was not used to move this value.
pub const AUTO_PAR_CUTOFF: usize = 64 * 1024;

/// Per-chunk floor for the streaming snapshot path (two probes per
/// arrival — much lighter than a protocol round, so chunks can be
/// smaller). A fixed engineering default.
pub const AUTO_INGEST_MIN_CHUNK: usize = 1024;

/// Serial→parallel cutoff for streaming batch ingestion. A fixed
/// engineering default, kept for the same reason as [`AUTO_PAR_CUTOFF`].
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
/// workload from the fixed `AUTO_*` constants; [`Tuning::fixed`] pins
/// an exact plan for experiments that sweep the geometry. Either way
/// results are identical — tuning is scheduling only.
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

/// Make `buf` at least `len` long. Callers overwrite every slot they
/// later read, so a growing buffer is replaced by a fresh zeroed one: the
/// allocator hands out zeroed pages without a serial fill.
pub(crate) fn ensure_len<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        *buf = vec![T::default(); len];
    }
}

/// One chunk's items (requests or commits, as bin ids) stably partitioned
/// by owner range: range `r`'s items are `offs[range(r)]`, as in-range
/// offsets (`bin % BLOCK_BINS`), in input order.
///
/// Fill it with [`Routing::reset`], one [`Routing::count`] per item, then
/// [`Routing::route`] over the same items in the same order.
pub(crate) struct Routing {
    /// After [`Routing::route`], `starts[r]..starts[r + 1]` is range `r`'s
    /// segment of `offs`. While counting, `starts[r + 2]` counts range `r`.
    starts: Vec<usize>,
    /// In-range offsets, grouped by range; only the first
    /// `starts[ranges]` entries belong to this round.
    offs: Vec<u16>,
}

impl Routing {
    fn new() -> Self {
        Self {
            starts: Vec::new(),
            offs: Vec::new(),
        }
    }

    /// Start counting items over `ranges` owner ranges.
    fn reset(&mut self, ranges: usize) {
        self.starts.clear();
        self.starts.resize(ranges + 2, 0);
    }

    #[inline]
    fn count(&mut self, bin: u32) {
        self.starts[(bin >> BLOCK_SHIFT) as usize + 2] += 1;
    }

    /// Partition `items` (the counted bins, in counting order).
    fn route(&mut self, items: &[u32]) {
        // Prefix over the shifted counts: `starts[r + 1]` becomes range
        // `r`'s start, and advances to its end as the scatter fills it.
        let mut sum = 0;
        for s in &mut self.starts[2..] {
            sum += *s;
            *s = sum;
        }
        ensure_len(&mut self.offs, items.len());
        let offs = &mut self.offs[..items.len()];
        for &bin in items {
            let pos = &mut self.starts[(bin >> BLOCK_SHIFT) as usize + 1];
            offs[*pos] = (bin as usize % BLOCK_BINS) as u16;
            *pos += 1;
        }
    }

    /// Range `r`'s segment of [`Routing::offs`].
    #[inline]
    fn range(&self, r: usize) -> Range<usize> {
        self.starts[r]..self.starts[r + 1]
    }

    /// Range `r`'s in-range offsets, in input order.
    #[inline]
    fn segment(&self, r: usize) -> &[u16] {
        &self.offs[self.range(r)]
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
    /// This chunk's first position in the round's request order: its
    /// requests' rank slots sit at `req_base +` their routed position.
    pub(crate) req_base: usize,
    /// Flat per-request bin ids, ball-major within the chunk.
    pub(crate) bins: Vec<u32>,
    /// Per-ball delivered-request counts, aligned with `active[start..]`.
    pub(crate) degrees: Vec<u32>,
    /// The chunk's requests by owner range.
    routing: Routing,
    /// Resolve's per-range read positions into the chunk's ranks.
    cursor: Vec<usize>,
    /// Commits that cannot be marked on their request's rank slot (see
    /// [`commit_at`]), by owner range.
    spills: Routing,
    /// The spilled commits' target bins, in decision order.
    spill_bins: Vec<u32>,
    /// The rank-slot position of each entry of `options`.
    option_pos: Vec<usize>,
    /// Staging buffer for pre-filter choices on the faulty path.
    raw: Vec<u32>,
    /// Commit options for `NEEDS_COMMIT_CHOICE` protocols.
    options: Vec<CommitOption>,
    /// Selected option indices for `NEEDS_COMMIT_CHOICE` protocols (one
    /// entry per replica the ball commits; empty = the ball declines).
    picks: Vec<u32>,
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
            req_base: 0,
            bins: Vec::new(),
            degrees: Vec::new(),
            routing: Routing::new(),
            cursor: Vec::new(),
            spills: Routing::new(),
            spill_bins: Vec::new(),
            option_pos: Vec::new(),
            raw: Vec::new(),
            options: Vec::new(),
            picks: Vec::new(),
            still_active: Vec::new(),
            out_of_range: None,
            faults: FaultRecord::default(),
            committed: 0,
            wasted: 0,
            commit_msgs: 0,
        }
    }
}

/// One owner task's reusable scratch: the task covers a contiguous run of
/// owner ranges in every owner sweep of a round. Cache-line aligned like
/// [`LaneScratch`], for the concurrently written `tally`.
#[repr(align(64))]
pub(crate) struct OwnerScratch {
    /// Load transitions of the commits this task applied: `lifts[i]`
    /// commits found their bin at load `load_base + i` (folded into the
    /// engine's load histogram).
    pub(crate) lifts: Vec<u32>,
    /// The task's touched bins in ascending order, listed only for a
    /// grant delegate.
    pub(crate) hot: Vec<u32>,
    /// The task's share of the touched-bin pass.
    pub(crate) tally: TouchedTally,
}

impl OwnerScratch {
    pub(crate) fn new() -> Self {
        Self {
            lifts: Vec::new(),
            hot: Vec::new(),
            tally: TouchedTally::default(),
        }
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
    /// Owner ranges of the bin space: `n_bins.div_ceil(BLOCK_BINS)`.
    pub ranges: usize,
    pub active: &'a [u32],
    /// Per-ball protocol state, written disjointly (one chunk per ball).
    pub states: DisjointIndexMut<'a, P::BallState>,
    /// Debug-build verifier of the one-chunk-per-ball partition.
    pub claims: &'a DisjointClaims,
}

/// THE gather kernel: one chunk's choice emission and admission
/// filtering, then the stable partition of its requests by owner range.
/// Every executor/fault combination runs this exact code;
/// `A::PASSTHROUGH` only switches whether choices are staged through the
/// filter buffer.
pub(crate) fn gather_chunk<P: RoundProtocol, A: Admission>(
    shared: &GatherShared<'_, P>,
    admission: &A,
    range: Range<usize>,
    scratch: &mut LaneScratch,
) {
    scratch.start = range.start;
    scratch.bins.clear();
    scratch.degrees.clear();
    scratch.routing.reset(shared.ranges);
    scratch.out_of_range = None;
    scratch.faults = FaultRecord::default();
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
        let before = scratch.bins.len();
        if A::PASSTHROUGH {
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
        }
        // Count the ball's requests while they are in cache.
        for &b in &scratch.bins[before..] {
            scratch.routing.count(b);
        }
        scratch.degrees.push((scratch.bins.len() - before) as u32);
    }
    scratch.routing.route(&scratch.bins);
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
/// the granted slots and credits the received messages. A bin no request
/// reached has accept = taken = 0 by construction, so nothing here needs
/// the idle bins.
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

/// THE count sweep of owner range `r` (bins `lo..lo + counts.len()`,
/// whose `counts`, `accept` and touched `block` this task owns): zero
/// last round's grants at the block's touched groups, count the range's
/// arrivals from every chunk and mark their groups, and, for a grant
/// delegate, list the touched bins in ascending order. `counts` is zero
/// on entry: the previous round's rank sweep counted it back down.
pub(crate) fn count_range(
    arenas: &[LaneScratch],
    r: usize,
    lo: u32,
    counts: &mut [u32],
    accept: &mut [u32],
    block: &mut TouchedBlock,
    hot: Option<&mut Vec<u32>>,
) {
    block.for_each_group(accept.len(), |g| accept[g].fill(0));
    block.clear();
    for arena in arenas {
        for &off in arena.routing.segment(r) {
            counts[off as usize] += 1;
            block.insert(off as usize);
        }
    }
    if let Some(hot) = hot {
        block.for_each_group(counts.len(), |g| {
            for b in g {
                if counts[b] != 0 {
                    hot.push(lo + b as u32);
                }
            }
        });
    }
}

/// Rank-slot value of a request its bin rejected.
const REJECTED: u32 = u32::MAX;

/// Rank-slot marks of an accepted request its ball committed through,
/// written by resolve for the commit sweep: `COMMITTED + off` commits one
/// load unit at in-range offset `off` of the request's owner range (the
/// request's own bin, or a redirect target in the same range). No rank
/// reaches the marks: a bin would need over `2^32 - 2^16 - 2` arrivals.
const COMMITTED: u32 = REJECTED - 1 - BLOCK_BINS as u32;

/// THE rank sweep of owner range `r`: walk the range's requests in
/// reverse arrival order (chunks in reverse, each segment backwards),
/// counting `counts` down, so each request's count is its global arrival
/// rank — the number of earlier requests to its bin — and `counts` ends
/// at zero. A request's slot in `ranks` (at its chunk's `req_base` plus
/// its routed position) gets the rank if it is below the bin's grant —
/// the first-`grant`-arrivals rule — and [`REJECTED`] otherwise.
pub(crate) fn rank_range(
    arenas: &[LaneScratch],
    r: usize,
    counts: &mut [u32],
    accept: &[u32],
    ranks: &DisjointIndexMut<'_, u32>,
) {
    for arena in arenas.iter().rev() {
        let seg = arena.routing.range(r);
        // SAFETY: chunks own disjoint position ranges (`req_base` is a
        // prefix sum of their request counts), and the owner ranges'
        // segments partition each chunk's; owner tasks take disjoint
        // ranges.
        let out = unsafe { ranks.slice_mut(arena.req_base + seg.start..arena.req_base + seg.end) };
        for (rank, &off) in out.iter_mut().zip(&arena.routing.offs[seg]).rev() {
            let count = &mut counts[off as usize];
            *count -= 1;
            *rank = if *count < accept[off as usize] {
                *count
            } else {
                REJECTED
            };
        }
    }
}

/// THE commit sweep of owner range `r`: apply every chunk's commits to
/// the range's `loads` with plain adds — the [`COMMITTED`] marks on its
/// requests' rank slots, then the chunk's spilled commits — and tally
/// each commit's load transition in `lifts` (relative to `load_base`,
/// the round-start minimum load).
pub(crate) fn commit_range(
    arenas: &[LaneScratch],
    r: usize,
    ranks: &[u32],
    loads: &mut [u32],
    load_base: u32,
    lifts: &mut Vec<u32>,
) {
    let mut commit = |off: u16| {
        let load = &mut loads[off as usize];
        let from = (*load - load_base) as usize;
        *load += 1;
        if from >= lifts.len() {
            lifts.resize(from + 1, 0);
        }
        lifts[from] += 1;
    };
    for arena in arenas {
        let seg = arena.routing.range(r);
        for &rank in &ranks[arena.req_base + seg.start..arena.req_base + seg.end] {
            let off = rank.wrapping_sub(COMMITTED);
            if off < BLOCK_BINS as u32 {
                commit(off as u16);
            }
        }
        for &off in arena.spills.segment(r) {
            commit(off);
        }
    }
}

/// Commit one load unit at `target` through the request at rank slot
/// `pos`, which bin `bin` accepted: mark the slot for the commit sweep,
/// or, when the target lies in another owner range (a redirect across a
/// range boundary) or the slot already carries a mark, route the commit
/// to the chunk's spill list.
#[inline]
fn commit_at(
    ranks: &mut [u32],
    pos: usize,
    bin: u32,
    target: u32,
    spills: &mut Routing,
    spill_bins: &mut Vec<u32>,
) {
    if target >> BLOCK_SHIFT == bin >> BLOCK_SHIFT && ranks[pos] < COMMITTED {
        ranks[pos] = COMMITTED + target % BLOCK_BINS as u32;
    } else {
        spills.count(target);
        spill_bins.push(target);
    }
}

/// Immutable context shared by every resolve chunk of a round.
pub(crate) struct ResolveShared<'a, P: RoundProtocol> {
    pub protocol: &'a P,
    pub ctx: &'a RoundContext,
    pub active: &'a [u32],
    /// Owner ranges of the bin space.
    pub ranges: usize,
    /// The rank sweep's output: per routed request, its arrival rank if
    /// accepted, [`REJECTED`] if not. Each chunk marks its commits in its
    /// own region.
    pub ranks: DisjointIndexMut<'a, u32>,
    /// Round-start loads: commits land only after every ball decided.
    pub loads: &'a [u32],
    /// Final placements (one chunk per ball id), if tracked.
    pub assignment: Option<DisjointIndexMut<'a, u32>>,
    /// Per-ball sent-message counters (one chunk per ball id), if tracked.
    pub sent: Option<DisjointIndexMut<'a, u32>>,
}

/// THE resolve kernel: walk the chunk's balls in order, read each
/// request's rank back through the chunk's per-range cursors (the
/// partition is stable, so a range's requests come back in the order
/// they were routed), and commit each ball to at most one accepted bin
/// (plus its replicas) with [`commit_at`].
pub(crate) fn resolve_chunk<P: RoundProtocol>(
    shared: &ResolveShared<'_, P>,
    scratch: &mut LaneScratch,
) {
    let LaneScratch {
        start,
        req_base,
        bins,
        degrees,
        routing,
        cursor,
        spills,
        spill_bins,
        options,
        option_pos,
        picks,
        still_active,
        committed,
        wasted,
        commit_msgs,
        ..
    } = scratch;
    // SAFETY: chunks own disjoint request regions (`req_base` is a prefix
    // sum of their request counts).
    let ranks = unsafe { shared.ranks.slice_mut(*req_base..*req_base + bins.len()) };
    cursor.clear();
    cursor.extend_from_slice(&routing.starts[..shared.ranges]);
    spills.reset(shared.ranges);
    spill_bins.clear();
    still_active.clear();
    *committed = 0;
    *wasted = 0;
    *commit_msgs = 0;
    let mut req_idx = 0usize;
    for (k, &degree) in degrees.iter().enumerate() {
        let ball = shared.active[*start + k];
        // (rank slot, accepting bin, target) of the primary commit.
        let mut commit: Option<(usize, u32, u32)> = None;
        let mut accepts = 0u32;
        if P::NEEDS_COMMIT_CHOICE {
            options.clear();
            option_pos.clear();
        }
        for _ in 0..degree {
            let bin = bins[req_idx];
            req_idx += 1;
            let next = &mut cursor[(bin >> BLOCK_SHIFT) as usize];
            let pos = *next;
            *next += 1;
            let rank = ranks[pos];
            if rank != REJECTED {
                accepts += 1;
                if P::NEEDS_COMMIT_CHOICE {
                    options.push(CommitOption {
                        bin,
                        slot: rank,
                        load_before: shared.loads[bin as usize],
                    });
                    option_pos.push(pos);
                } else if commit.is_none() {
                    let target = shared.protocol.redirect(shared.ctx, bin, rank);
                    commit = Some((pos, bin, target));
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
            // assignment and counted below); replicas beyond it commit
            // their load unit here. An empty pick set declines the round:
            // every acceptance is wasted and the ball stays active.
            for (i, &p) in picks.iter().enumerate() {
                let j = (p as usize).min(options.len() - 1);
                let chosen = options[j];
                let target = shared
                    .protocol
                    .redirect(shared.ctx, chosen.bin, chosen.slot);
                if i == 0 {
                    commit = Some((option_pos[j], chosen.bin, target));
                } else {
                    commit_at(ranks, option_pos[j], chosen.bin, target, spills, spill_bins);
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
        if let Some((pos, bin, target)) = commit {
            commit_at(ranks, pos, bin, target, spills, spill_bins);
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
    spills.route(spill_bins);
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU32, Ordering};

    use super::*;

    #[test]
    fn tuning_defaults_match_constants() {
        let t = ChunkPlan::default();
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
