//! The floor: the simplest loop that does the engine's `single-choice`
//! work, as the reference the round kernel is measured against.
//!
//! It draws every ball's bin from the engine's own per-ball stream, makes
//! one dense count pass over the bins and one rank-resolve pass over the
//! balls, single-threaded and with no per-round bookkeeping. It must land
//! on exactly the engine's loads for the same seed; the benchmark checks
//! that in every `dense` run.

use std::hint::black_box;

use pba_core::rng::{Rand64, RoundStreams};

/// Final loads of a one-round uniform placement of `m` balls into `n`
/// bins, bit-identical to `run_by_name("single-choice", …)` with `seed`.
pub fn single_choice_loads(seed: u64, m: u64, n: u32) -> Vec<u32> {
    // Gather: ball `i` of round 0 draws from stream (seed, 0, i).
    let streams = RoundStreams::new(seed, 0);
    let choices: Vec<u32> = (0..m).map(|i| streams.ball(i).below(n)).collect();

    // Count: arrivals per bin. Single-choice grants every arrival.
    let mut grants = vec![0u32; n as usize];
    for &bin in &choices {
        grants[bin as usize] += 1;
    }

    // Resolve: a ball commits when its arrival rank is under its bin's
    // grant, in ball order, as the engine ranks arrivals.
    let mut ranks = vec![0u32; n as usize];
    let mut loads = vec![0u32; n as usize];
    for &bin in &choices {
        let b = bin as usize;
        let rank = ranks[b];
        ranks[b] = rank + 1;
        if rank < grants[b] {
            loads[b] += 1;
        }
    }
    black_box(loads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pba_core::{ProblemSpec, RunConfig};

    #[test]
    fn floor_matches_engine() {
        let (m, n) = (1u64 << 12, 1u32 << 9);
        let spec = ProblemSpec::new(m, n).unwrap();
        for seed in [0, 7, u64::MAX] {
            let out = pba_protocols::run_by_name("single-choice", spec, RunConfig::seeded(seed))
                .unwrap()
                .unwrap();
            assert_eq!(single_choice_loads(seed, m, n), out.loads, "seed {seed}");
        }
    }
}
