//! The pluggable fuzzing engine: the seams the paper's campaign loop
//! (Algorithm 2) is composed of, made explicit.
//!
//! [`Campaign::run`](crate::campaign::Campaign::run) used to hardcode every
//! step — trace collection, coverage merge, valuable-seed retention, bug
//! dedup, reset policy and series sampling — in one function. This module
//! splits the loop into five seams, each behind a trait:
//!
//! * [`Executor`] — wraps the target and its [`TraceContext`]
//!   (`peachstar_coverage`), owns the reset policy (periodic + post-fault);
//! * [`Observer`] — accumulates per-execution traces into global coverage
//!   ([`CoverageObserver`] wraps one `CoverageMap`);
//! * [`Feedback`] — decides which executions are *valuable seeds* and
//!   retains them ([`NewCoverageFeedback`] wraps the `SeedPool`);
//! * [`Monitor`] — outcome tallies, unique-bug dedup and series sampling,
//!   strictly observational;
//! * [`Schedule`] — the strategy-facing seam: one typed [`FeedbackEvent`]
//!   per execution instead of the old ad-hoc `observe(..)` call.
//!
//! [`Engine::step`] wires the seams together in exactly the order the
//! monolithic loop used, so a campaign driven through the engine is
//! bit-identical to the pre-refactor implementation (`tests/pinned_report.rs`
//! holds the proof). Three execution modes build on the same seams:
//! [`batch`] amortises per-execution dispatch by running reset-aligned
//! windows through one [`Executor::execute_window`] call each, [`shard`]
//! executes those windows on parallel workers with a deterministic merge
//! barrier, and [`session`] builds stateful session fuzzing (handshake →
//! mutated payload → teardown, with session-scoped resets) on the
//! [`Schedule`] and [`Executor`] seams. The campaign's
//! [`Topology`](crate::campaign::Topology) picks between the sequential and
//! the sharded driver.
//!
//! [`TraceContext`]: peachstar_coverage::TraceContext

pub mod batch;
pub mod executor;
pub mod monitor;
pub mod observer;
pub mod schedule;
pub mod session;
pub mod shard;
pub(crate) mod supervisor;
pub mod transport;

pub use executor::{Executor, ResetPolicy, TargetExecutor};
pub use monitor::{CampaignMonitor, Monitor, MonitorState, OutcomeSummary};
pub use observer::{CoverageObserver, Feedback, NewCoverageFeedback, Observer};
pub use schedule::{FeedbackEvent, Schedule, ScheduleState, StrategySchedule};
pub use session::{PhaseMask, SessionConfig, SessionPlan, SessionSchedule};
pub use transport::{error_class, FramedTcpTarget, ReconnectPolicy, TransportMode};

use peachstar_coverage::SparseTrace;
use peachstar_datamodel::DataModelSet;
use rand::rngs::SmallRng;

use crate::snapshot::{CampaignSnapshot, SnapshotError, SnapshotMeta};
use crate::strategy::GeneratedPacket;

/// The assembled fuzzing engine: one instance of every seam.
///
/// Generic so the concrete campaign loop is fully monomorphised (no virtual
/// dispatch beyond the `dyn Target`/`dyn GenerationStrategy` that existed
/// before the refactor).
#[derive(Debug)]
pub struct Engine<X, O, F, M, S> {
    /// Runs packets and owns the reset policy.
    pub executor: X,
    /// Accumulates global coverage.
    pub observer: O,
    /// Judges and retains valuable seeds.
    pub feedback: F,
    /// Tallies outcomes, dedups bugs, samples the series.
    pub monitor: M,
    /// Generates packets and digests feedback events.
    pub schedule: S,
}

impl<X, O, F, M, S> Engine<X, O, F, M, S>
where
    X: Executor,
    O: Observer,
    F: Feedback,
    M: Monitor,
    S: Schedule,
{
    /// Runs one execution through every seam.
    ///
    /// The order of operations replicates the historical monolithic loop
    /// bit-for-bit: generate → execute (reset policy inside) → tally/bug
    /// record → coverage merge → valuable verdict → schedule feedback →
    /// seed retention → series sample.
    pub fn step(&mut self, execution: u64, models: &DataModelSet, rng: &mut SmallRng) {
        self.run_span(execution, execution, models, rng);
    }

    /// Runs executions `start..=end` (1-based, inclusive) through
    /// [`step`](Engine::step)'s seams in its order — the window body of the
    /// sequential driver, and the body of `step` itself.
    ///
    /// Every execution is generated into one packet slot through
    /// [`Schedule::next_packet_into`], which is observationally identical to
    /// [`Schedule::next_packet`], so the span reuses the slot's byte buffer
    /// and model-name string instead of allocating a fresh seed per
    /// execution.
    pub(crate) fn run_span(&mut self, start: u64, end: u64, models: &DataModelSet, rng: &mut SmallRng) {
        let mut packet = GeneratedPacket::default();
        for execution in start..=end {
            self.schedule.next_packet_into(models, rng, &mut packet);
            let (outcome, trace) = self.executor.execute(execution, &packet.bytes);
            self.monitor
                .record(execution, &packet, OutcomeSummary::from(&outcome));
            let merge = self.observer.merge(trace);
            let valuable = self.feedback.is_interesting(&merge);
            self.schedule.feedback(&FeedbackEvent {
                execution,
                packet: &packet,
                valuable,
                merge: &merge,
                models,
            });
            if valuable {
                // The schedule only borrows the packet, so retention moves the
                // rare valuable packet's buffers into the pool instead of
                // cloning; the emptied slot regrows on the next generation.
                self.feedback.retain(std::mem::take(&mut packet), &merge);
            }
            self.monitor.sample(
                execution,
                self.observer.paths_covered(),
                self.observer.edges_covered(),
            );
        }
    }
}

impl<X, O, F, M, S> Engine<X, O, F, M, S>
where
    O: Observer,
    F: Feedback,
    M: Monitor,
    S: Schedule,
{
    /// Folds one buffered execution result through the seams in
    /// [`step`](Engine::step)'s order — the reduce phase of the batched and
    /// the sharded driver, which generate and execute ahead of it.
    pub(crate) fn reduce(
        &mut self,
        execution: u64,
        packet: &GeneratedPacket,
        summary: OutcomeSummary,
        trace: &SparseTrace,
        models: &DataModelSet,
    ) {
        self.monitor.record(execution, packet, summary);
        let merge = self.observer.merge_sparse(trace);
        let valuable = self.feedback.is_interesting(&merge);
        self.schedule.feedback(&FeedbackEvent {
            execution,
            packet,
            valuable,
            merge: &merge,
            models,
        });
        if valuable {
            // The packet stays with its buffer (the batched arena reuses its
            // slots), so retention clones the rare valuable packet.
            self.feedback.retain(packet.clone(), &merge);
        }
        self.monitor.sample(
            execution,
            self.observer.paths_covered(),
            self.observer.edges_covered(),
        );
    }
}

impl<X, S: Schedule> Engine<X, CoverageObserver, NewCoverageFeedback, CampaignMonitor, S> {
    /// Captures a [`CampaignSnapshot`] of the engine's resumable state.
    ///
    /// `completed` must be a reset-aligned window boundary: the target's
    /// internals are *not* serialised, which is only sound at an execution
    /// index the reset policy wipes the target before anyway.
    #[must_use]
    pub fn checkpoint(&self, meta: SnapshotMeta, completed: u64, rng: &SmallRng) -> CampaignSnapshot {
        CampaignSnapshot::capture(
            meta,
            completed,
            rng,
            &self.observer,
            &self.feedback,
            &self.monitor,
            &self.schedule,
        )
    }

    /// Restores a snapshot into this (freshly assembled) engine, leaving it
    /// ready to continue from `snapshot.completed + 1`.
    ///
    /// The caller is responsible for having validated
    /// [`SnapshotMeta::ensure_matches`] first; this method only rejects
    /// strategy-state kinds the schedule cannot accept.
    pub fn restore(
        &mut self,
        snapshot: &CampaignSnapshot,
        rng: &mut SmallRng,
    ) -> Result<(), SnapshotError> {
        snapshot.restore_into(
            rng,
            &mut self.observer,
            &mut self.feedback,
            &mut self.monitor,
            &mut self.schedule,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;
    use peachstar_protocols::TargetId;
    use rand::SeedableRng;

    #[test]
    fn engine_runs_a_small_campaign() {
        let executor = TargetExecutor::new(TargetId::Modbus.create(), 500);
        let models = executor.data_models();
        let mut engine = Engine {
            executor,
            observer: CoverageObserver::new(),
            feedback: NewCoverageFeedback::new(),
            monitor: CampaignMonitor::new(1_000, 100),
            schedule: StrategySchedule::new(StrategyKind::PeachStar.create()),
        };
        let mut rng = SmallRng::seed_from_u64(3);
        engine.run_span(1, 1_000, &models, &mut rng);

        assert!(engine.observer.paths_covered() > 0);
        assert!(engine.feedback.retained() > 0);
        assert_eq!(
            engine.monitor.responses()
                + engine.monitor.protocol_errors()
                + engine.monitor.fault_hits(),
            1_000
        );
        assert_eq!(
            engine.monitor.series().final_paths(),
            engine.observer.paths_covered()
        );
    }
}
