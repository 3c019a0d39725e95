//! # `pba-par` — self-contained data-parallel substrate
//!
//! The balls-into-bins engine in `pba-core` is *round synchronous*: every
//! round consists of a handful of bulk array passes (gather requests, count
//! per-bin arrivals, decide capacities, resolve acceptances, commit). Each
//! pass is embarrassingly parallel over either balls or bins. This crate
//! provides exactly the primitives those passes need, built from scratch on
//! `std::thread` + `std::sync` (no rayon, no external dependencies):
//!
//! * [`ThreadPool`] — a fixed pool of workers with a panic-propagating,
//!   scope-like `run_indexed` entry point (the calling thread participates,
//!   so a pool of `t` threads yields `t + 1` lanes of execution).
//! * [`for_each_chunk`] / [`par_map_indexed`] / [`par_reduce`] — chunked
//!   data-parallel iteration, mapping and reduction over index ranges.
//! * [`par_chunks_mut`] — disjoint mutable chunk access to a slice.
//! * [`DisjointIndexMut`] / [`DisjointClaims`] — the audited escape hatch
//!   for per-slot disjoint writes from concurrent tasks, with a debug-build
//!   one-task-per-index verifier.
//! * [`atomic`] — zero-copy reinterpretation of `&mut [u64]` as an atomic
//!   slice, plus sharded counter merging.
//!
//! ## Determinism
//!
//! All primitives assign work to *fixed* chunk boundaries derived only from
//! the input length and chunk count — never from thread timing. A caller
//! that writes chunk-local outputs therefore produces bit-identical results
//! regardless of scheduling. Only explicitly atomic read-modify-write
//! operations (e.g. the streaming allocator's shard load increments) are
//! order-dependent, and their callers document where that matters.

pub mod atomic;
pub mod chunk;
pub mod disjoint;
pub mod iter;
pub mod pool;
pub mod reduce;
pub mod scan;

pub use atomic::{as_atomic_u64, CachePadded, ShardedCounters};
pub use chunk::{chunk_count, chunk_range, Chunking};
pub use disjoint::{DisjointClaims, DisjointIndexMut};
pub use iter::{for_each_chunk, par_chunks_mut, par_fill_with, par_map_indexed};
pub use pool::{global_pool, PoolStats, ThreadPool};
pub use reduce::{par_max_u64, par_reduce, par_sum_u64};
pub use scan::{exclusive_scan_serial, exclusive_scan_u64};

/// Default minimum number of items assigned to one parallel chunk.
///
/// Below this granularity the dispatch overhead of handing a chunk to a
/// worker outweighs the work itself for the array passes this crate serves
/// (a few ns per item).
pub const DEFAULT_MIN_CHUNK: usize = 16 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_are_usable() {
        let pool = ThreadPool::new(2);
        let v = par_map_indexed(&pool, 10, 1, |i| i * 2);
        assert_eq!(v, (0..10).map(|i| i * 2).collect::<Vec<_>>());
    }
}
