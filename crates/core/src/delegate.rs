//! The [`GrantDelegate`] seam: externalized bin-side grant decisions.
//!
//! In the papers' model the *bins* are independent agents: they see their
//! arrivals, decide how many to accept, and answer. The in-process engine
//! runs that decision at the bins the round's requests reached;
//! cluster mode (`pba-cluster`) instead ships each round's arrival counts
//! to shard processes owning disjoint bin ranges and collects their grant
//! replies. This trait is the cut point: when a delegate is attached
//! (via [`Simulator::run_mut_with_delegate`](crate::Simulator)), the
//! engine skips its local grant phase and asks the delegate, then
//! reports the committed round back so remote bin state can follow.
//!
//! ## Contract (bit-identity)
//!
//! A delegate must reproduce exactly what the local grant phase would
//! have computed:
//!
//! * For every bin `b` with `counts[b] > 0` (the bins listed in
//!   `hot_bins`) **and** every crashed bin, write
//!   `accept[b] = grant.accept.min(counts[b])` (0 for crashed bins) into
//!   the dense `accept` array, which arrives zero-filled. Write no
//!   other nonzero value: bins with no arrivals must stay 0, because the
//!   engine zeroes `accept` again only at bins that had arrivals.
//! * Return the `(underloaded_bins, unfilled_want)` totals with the
//!   crashed-bin adjustment already applied (a crashed bin contributes
//!   to neither; see `SimState::apply_crash_grants` for the arithmetic).
//! * Apply the protocol's `begin_round`/`after_round` state evolution on
//!   whatever protocol replicas it holds, in the same order the
//!   simulator does: `begin_round` before the grants of round `r`,
//!   `after_round` on [`round_commit`](GrantDelegate::round_commit).
//!
//! The engine's gather, rank scan, resolve, and fault machinery are
//! untouched — ball-side work (choices, redraws, backoff) stays with the
//! orchestrating process, exactly as ball agents stay with the client in
//! a distributed deployment.

use crate::error::Result;
use crate::protocol::RoundContext;
use crate::trace::RoundRecord;

/// External authority for the per-round grant phase.
///
/// Implemented by the cluster orchestrator (`pba-cluster`), which fans
/// the request wave out to shard processes and gathers their replies;
/// any other implementation must honor the module-level contract.
pub trait GrantDelegate {
    /// Decide this round's grants.
    ///
    /// `counts` is the dense per-bin arrival count; `hot_bins` lists the
    /// bins with nonzero counts (each exactly once, unordered); `crashed`
    /// lists the run-level crashed bins. `accept` arrives zero-filled
    /// and must be populated per the contract. Returns
    /// `(underloaded_bins, unfilled_want)`.
    fn round_grants(
        &mut self,
        ctx: &RoundContext,
        counts: &[u32],
        hot_bins: &[u32],
        crashed: &[u32],
        accept: &mut [u32],
    ) -> Result<(u32, u64)>;

    /// The round resolved and committed: `record` is the finished
    /// [`RoundRecord`], `loads` the post-commit dense bin loads. The
    /// delegate propagates both to its replicas (and may verify them).
    fn round_commit(
        &mut self,
        ctx: &RoundContext,
        record: &RoundRecord,
        loads: &[u32],
    ) -> Result<()>;
}
