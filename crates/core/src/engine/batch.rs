//! Batched window execution: amortising per-execution dispatch out of the
//! campaign hot path.
//!
//! The sequential engine pays a full round trip through the seams for every
//! execution — one `dyn Target` dispatch, one reset-policy check, one fresh
//! [`GeneratedPacket`] allocation, and a trace borrow that forces the loop
//! to fully drain each execution before generating the next. This module
//! adds the batched window body the sequential driver runs under
//! [`CampaignConfig::batch`]: the campaign is walked in the same
//! reset-aligned windows the sharded engine uses, but each slice is
//! generated up front into a pooled packet arena, executed in a *single*
//! [`Executor::execute_window`] call (one virtual dispatch per slice via
//! [`Target::process_batch`]), and then reduced through the
//! monitor/observer/feedback/schedule seams in global execution order.
//!
//! # Equivalence
//!
//! Batching only moves *when* packets are generated and reduced, never what
//! is executed: windows are reset-aligned, packets are generated in global
//! execution order consuming the campaign RNG exactly as the sequential
//! loop would, and results reduce in the same order through the same seams.
//! For the feedback-free Peach baseline the batched report is therefore
//! **bit-identical** to the sequential campaign for any batch size
//! (`tests/batch_equivalence.rs`, plus a batched entry in
//! `tests/pinned_report.rs` that must match the historic constants). The
//! Peach\* strategy receives its feedback at the end of each batch instead
//! of per execution — deterministic, but barrier-fed exactly like its
//! sharded sibling; with `batch >= window length` the batched Peach\* stream
//! coincides with a 1-worker, 1-window-per-round sharded campaign.
//!
//! [`Target::process_batch`]: peachstar_protocols::Target::process_batch
//! [`GeneratedPacket`]: crate::strategy::GeneratedPacket
//! [`CampaignConfig::batch`]: crate::campaign::CampaignConfig::batch

use peachstar_datamodel::DataModelSet;
use peachstar_protocols::WindowResults;
use rand::rngs::SmallRng;

use crate::engine::{Engine, Executor, Feedback, Monitor, Observer, ResetPolicy, Schedule};
use crate::seed::Seed;
use crate::strategy::GeneratedPacket;

/// The reset-aligned execution windows of a campaign: `(start, end)` pairs,
/// 1-based and inclusive, covering `1..=executions` without gaps. Every
/// window after the first starts at an execution the reset policy resets
/// before — exactly where the sequential campaign wipes its target. For
/// [`ResetPolicy::PerSession`] this makes every window one whole session
/// (the last may be truncated by the budget), so a session never straddles
/// a window boundary — and therefore never a merge barrier either.
///
/// Shared by the batched and the sharded engine so their window layouts can
/// never drift apart.
pub(crate) fn windows_for_policy(executions: u64, policy: ResetPolicy) -> Vec<(u64, u64)> {
    if executions == 0 {
        return Vec::new();
    }
    let mut starts = vec![1u64];
    starts.extend(policy.boundaries(executions));
    // Interval(1) and PerSession(len) both reset before execution 1, making
    // the first boundary coincide with the initial start.
    starts.dedup();
    starts
        .iter()
        .enumerate()
        .map(|(index, &start)| {
            let end = starts.get(index + 1).map_or(executions, |&next| next - 1);
            (start, end)
        })
        .collect()
}

/// Pooled storage for one window's generated packets.
///
/// Slots are [`GeneratedPacket`]s that get overwritten in place through
/// [`Schedule::next_packet_into`], so after the first window the generate
/// phase reuses the packet byte buffers and model-name strings of earlier
/// windows instead of allocating one fresh seed per execution.
#[derive(Debug, Default)]
pub(crate) struct PacketArena {
    packets: Vec<GeneratedPacket>,
}

impl PacketArena {
    /// Regenerates the arena to exactly `count` packets, pulled from the
    /// schedule in execution order, reusing existing slots.
    fn fill<S: Schedule>(
        &mut self,
        schedule: &mut S,
        models: &DataModelSet,
        rng: &mut SmallRng,
        count: usize,
    ) {
        self.packets.truncate(count);
        for slot in &mut self.packets {
            schedule.next_packet_into(models, rng, slot);
        }
        while self.packets.len() < count {
            let mut slot = Seed::default();
            schedule.next_packet_into(models, rng, &mut slot);
            self.packets.push(slot);
        }
    }
}

impl<X, O, F, M, S> Engine<X, O, F, M, S>
where
    X: Executor,
    O: Observer,
    F: Feedback,
    M: Monitor,
    S: Schedule,
{
    /// Runs one reset-aligned window `window_start..=window_end` in batched
    /// slices of at most `batch` executions.
    ///
    /// Each slice runs in three phases mirroring one sharded round on a
    /// single worker: generate the slice into the pooled arena (global
    /// execution order, same RNG stream as [`step`](Engine::step)), execute
    /// it in one [`Executor::execute_window`] call, then reduce every result
    /// through the seams in global execution order. The window must be
    /// reset-aligned for the executor's own policy, so that no reset falls
    /// inside a slice. `arena` and `results` are caller-held so their
    /// allocations amortise across windows.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_window_batched(
        &mut self,
        window_start: u64,
        window_end: u64,
        batch: u64,
        models: &DataModelSet,
        rng: &mut SmallRng,
        arena: &mut PacketArena,
        results: &mut WindowResults,
    ) {
        let batch = batch.max(1);
        // Large reset windows split into `batch`-sized slices: no reset
        // falls inside a slice (target state flows through untouched,
        // exactly as in the sequential loop), while feedback reduces at
        // every slice end instead of once per giant window.
        let mut start = window_start;
        while start <= window_end {
            let end = window_end.min(start + (batch - 1));
            let count = usize::try_from(end - start + 1).expect("batch fits usize");

            // Phase 1 — generate into the pooled arena.
            arena.fill(&mut self.schedule, models, rng, count);

            // Phase 2 — execute the whole slice in one executor call.
            // (The ref table borrows the arena, so it lives only for
            // this slice; its one small allocation is amortised over
            // the whole batch.)
            let refs: Vec<&[u8]> = arena.packets.iter().map(|p| p.bytes.as_slice()).collect();
            self.executor.execute_window(start, &refs, results);
            drop(refs);
            debug_assert_eq!(results.len(), count, "one result per packet");

            // Phase 3 — reduce in global execution order through the
            // same seams `Engine::step` uses, in the same order.
            for (offset, (summary, trace)) in results.iter().enumerate() {
                let execution = start + offset as u64;
                self.reduce(execution, &arena.packets[offset], *summary, trace, models);
            }
            start = end + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows_for(executions: u64, reset_interval: u64) -> Vec<(u64, u64)> {
        windows_for_policy(executions, ResetPolicy::Interval(reset_interval))
    }

    #[test]
    fn windows_cover_the_budget_and_align_to_resets() {
        assert_eq!(windows_for(3_000, 2_000), vec![(1, 1_999), (2_000, 3_000)]);
        assert_eq!(windows_for(5, 10), vec![(1, 5)]);
        assert_eq!(windows_for(10, 0), vec![(1, 10)]);
        assert_eq!(windows_for(0, 100), Vec::<(u64, u64)>::new());
        assert_eq!(windows_for(3, 1), vec![(1, 1), (2, 2), (3, 3)]);
        let windows = windows_for(2_000, 250);
        assert_eq!(windows.first(), Some(&(1, 249)));
        assert_eq!(windows.last(), Some(&(2_000, 2_000)));
        // Gapless, contiguous cover of 1..=2000.
        let mut next = 1;
        for (start, end) in windows {
            assert_eq!(start, next);
            assert!(end >= start || (start, end) == (1, 0));
            next = end + 1;
        }
        assert_eq!(next, 2_001);
    }

    #[test]
    fn per_session_windows_are_whole_sessions() {
        // 3 sessions of 10 packets + one truncated by the budget: every
        // window is one session, so no session can straddle a window
        // boundary — and merge barriers only ever fall between windows.
        let windows = windows_for_policy(35, ResetPolicy::PerSession(10));
        assert_eq!(windows, vec![(1, 10), (11, 20), (21, 30), (31, 35)]);
        // Exact multiple: no truncated tail.
        let windows = windows_for_policy(30, ResetPolicy::PerSession(10));
        assert_eq!(windows, vec![(1, 10), (11, 20), (21, 30)]);
        // Session longer than the budget: one (truncated) window.
        assert_eq!(
            windows_for_policy(5, ResetPolicy::PerSession(10)),
            vec![(1, 5)]
        );
    }
}
