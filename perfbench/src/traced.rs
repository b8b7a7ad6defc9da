//! The traced twin of a campaign: the standard engine assembled from the
//! program's public seams, with a timing wrapper at every layer boundary.
//!
//! Each wrapper forwards every call unchanged and only reads the clock and
//! counts around it, so a traced campaign must reproduce the untraced
//! campaign's report exactly; the benchmark checks that it does.
//!
//! | layer | seam timed |
//! |---|---|
//! | `strategy` | [`GenerationStrategy::next_packet`] / `next_packet_into`, and `observe` of non-valuable packets |
//! | `cracker` | `GenerationStrategy::observe` of valuable packets (crack, corpus insert, queueing the batch the new puzzles enable) |
//! | `protocols` | [`Executor::execute`] in process; server-side [`Target::process`] and `reset` on the wire |
//! | `transport` | the client's `Executor::execute` round trip minus the server-side decode time |
//! | `coverage` | [`Observer::merge`] |
//! | `snapshot` | `CampaignSnapshot::capture`, `encode`, `decode` and `CheckpointConfig::store` |
//! | `engine` | the loop wall time none of the above covers |

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::SeedableRng;

use peachstar::campaign::{BugRecord, CampaignReport};
use peachstar::corpus::PuzzleCorpus;
use peachstar::cracker::FileCracker;
use peachstar::engine::{
    transport, CampaignMonitor, CoverageObserver, Engine, Executor, Feedback, NewCoverageFeedback,
    Observer, ResetPolicy, Schedule, SessionPlan, SessionSchedule, StrategySchedule,
    TargetExecutor, TransportMode,
};
use peachstar::snapshot::{CampaignSnapshot, CheckpointConfig, SnapshotMeta};
use peachstar::stats::SeriesPoint;
use peachstar::strategy::{GeneratedPacket, GenerationStrategy, StrategyKind, StrategyState};
use peachstar_coverage::{MergeOutcome, SparseTrace, TraceContext, TraceMap};
use peachstar_datamodel::DataModelSet;
use peachstar_protocols::{Outcome, Target};

use crate::workload::{CampaignSpec, CHECKPOINT_EVERY, CHECKPOINT_KEEP};

/// Everything in a campaign report that is a function of the campaign's
/// inputs — the report minus its wall time. Two runs of one campaign must
/// agree on it exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub target: String,
    pub executions: u64,
    pub series: Vec<SeriesPoint>,
    pub bugs: Vec<BugRecord>,
    pub valuable_seeds: usize,
    pub corpus_size: usize,
    pub responses: u64,
    pub protocol_errors: u64,
    pub fault_hits: u64,
}

impl Fingerprint {
    /// The fingerprint of a finished campaign's report.
    #[must_use]
    pub fn of(report: &CampaignReport) -> Self {
        Self {
            target: report.target.clone(),
            executions: report.executions,
            series: report.series.points().to_vec(),
            bugs: report.bugs.clone(),
            valuable_seeds: report.valuable_seeds,
            corpus_size: report.corpus_size,
            responses: report.responses,
            protocol_errors: report.protocol_errors,
            fault_hits: report.fault_hits,
        }
    }

    /// Final distinct paths.
    #[must_use]
    pub fn paths(&self) -> usize {
        self.series.last().map_or(0, |point| point.paths)
    }

    /// Final covered map slots.
    #[must_use]
    pub fn edges(&self) -> usize {
        self.series.last().map_or(0, |point| point.edges)
    }

    /// One-line summary for failure messages.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} paths, {} edges, corpus {}, {} bugs, {} valuable",
            self.paths(),
            self.edges(),
            self.corpus_size,
            self.bugs.len(),
            self.valuable_seeds
        )
    }
}

/// Per-layer time and counts, summed over every traced campaign of a pass.
#[derive(Debug, Default, Clone)]
pub struct LayerStats {
    pub campaigns: u64,
    /// Whole traced campaigns, set-up included (the overhead numerator).
    pub campaign_wall: Duration,
    /// Traced loops from first execution to last, set-up excluded.
    pub loop_wall: Duration,
    pub executions: u64,
    pub setup_models: Duration,
    pub setup_connect: Duration,

    pub generate: Duration,
    pub observe_plain: Duration,
    pub packets: u64,
    pub semantic_packets: u64,
    pub semantic_valuable: u64,
    pub random_valuable: u64,

    pub crack_handoff: Duration,
    pub crack_seeds: u64,
    pub crack_ok: u64,
    pub crack_puzzles: u64,

    pub corpus_size: u64,
    pub corpus_rules: u64,
    pub corpus_inserted: u64,
    pub corpus_rejected: u64,

    pub execute: Duration,
    pub server_decode: Duration,
    pub responses: u64,
    pub faults: u64,
    pub resets: u64,

    pub merge: Duration,
    pub trace_edges: u64,
    pub valuable: u64,

    pub template_executions: u64,

    pub wire_campaigns: u64,
    pub rtt_ns: Vec<u64>,
    pub reconnects: u64,
    pub wire_bytes: u64,

    pub checkpoints: u64,
    pub capture: Duration,
    pub encode: Duration,
    pub write: Duration,
    pub decode: Duration,
    pub snapshot_bytes: u64,
}

impl LayerStats {
    /// Busy time of each layer, in the order the report prints them:
    /// strategy, cracker, protocols, transport, coverage, snapshot.
    #[must_use]
    pub fn layer_busy(&self) -> [Duration; 6] {
        [
            self.generate + self.observe_plain,
            self.crack_handoff,
            self.protocols_busy(),
            self.execute.saturating_sub(self.protocols_busy()),
            self.merge,
            self.capture + self.encode + self.decode + self.write,
        ]
    }

    /// Decode time: the executor seam in process, the server-side target on
    /// the wire (where the executor seam is the client's round trip).
    #[must_use]
    pub fn protocols_busy(&self) -> Duration {
        if self.wire_campaigns > 0 {
            self.server_decode
        } else {
            self.execute
        }
    }
}

/// Counters shared between [`TracedStrategy`] (boxed inside the schedule)
/// and the driver that reads them after the loop.
#[derive(Debug, Default)]
struct StrategyCounters {
    generate: Duration,
    observe_plain: Duration,
    observe_valuable: Duration,
    packets: u64,
    semantic_packets: u64,
    semantic_valuable: u64,
    random_valuable: u64,
    /// Valuable packets handed to the strategy, in order — re-cracked after
    /// the loop to count what the cracker made of them.
    valuable_packets: Vec<Vec<u8>>,
}

/// Times a [`GenerationStrategy`]: generation, and the feedback hand-off
/// that cracks valuable seeds.
struct TracedStrategy {
    inner: Box<dyn GenerationStrategy>,
    counters: Rc<RefCell<StrategyCounters>>,
}

impl TracedStrategy {
    fn count(&self, packet: &GeneratedPacket, took: Duration) {
        let mut counters = self.counters.borrow_mut();
        counters.generate += took;
        counters.packets += 1;
        counters.semantic_packets += u64::from(packet.semantic);
    }
}

impl GenerationStrategy for TracedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn next_packet(&mut self, models: &DataModelSet, rng: &mut SmallRng) -> GeneratedPacket {
        let started = Instant::now();
        let packet = self.inner.next_packet(models, rng);
        self.count(&packet, started.elapsed());
        packet
    }

    fn next_packet_into(
        &mut self,
        models: &DataModelSet,
        rng: &mut SmallRng,
        slot: &mut GeneratedPacket,
    ) {
        let started = Instant::now();
        self.inner.next_packet_into(models, rng, slot);
        self.count(slot, started.elapsed());
    }

    fn observe(&mut self, packet: &GeneratedPacket, valuable: bool, models: &DataModelSet) {
        let started = Instant::now();
        self.inner.observe(packet, valuable, models);
        let took = started.elapsed();
        let mut counters = self.counters.borrow_mut();
        if valuable {
            counters.observe_valuable += took;
            if packet.semantic {
                counters.semantic_valuable += 1;
            } else {
                counters.random_valuable += 1;
            }
            counters.valuable_packets.push(packet.bytes.clone());
        } else {
            counters.observe_plain += took;
        }
    }

    fn corpus_size(&self) -> usize {
        self.inner.corpus_size()
    }

    fn snapshot_state(&self) -> StrategyState {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: StrategyState) -> bool {
        self.inner.restore_state(state)
    }
}

/// Times the [`Executor`] seam and tallies its outcomes and resets.
struct TimedExecutor {
    inner: TargetExecutor,
    busy: Duration,
    /// Per-execution round trips, kept on the wire only.
    rtt_ns: Option<Vec<u64>>,
    responses: u64,
    faults: u64,
    resets: u64,
}

impl Executor for TimedExecutor {
    fn target_name(&self) -> &'static str {
        self.inner.target_name()
    }

    fn data_models(&self) -> DataModelSet {
        self.inner.data_models()
    }

    fn execute(&mut self, execution: u64, packet: &[u8]) -> (Outcome, &TraceMap) {
        let policy_reset = self.inner.policy().resets_before(execution);
        let started = Instant::now();
        let (outcome, trace) = self.inner.execute(execution, packet);
        let took = started.elapsed();
        self.busy += took;
        if let Some(rtt) = &mut self.rtt_ns {
            rtt.push(u64::try_from(took.as_nanos()).unwrap_or(u64::MAX));
        }
        self.resets += u64::from(policy_reset) + u64::from(outcome.is_fault());
        self.faults += u64::from(outcome.is_fault());
        self.responses += u64::from(matches!(outcome, Outcome::Response(_)));
        (outcome, trace)
    }
}

/// Times the [`Observer`] seam and counts what the merges found.
struct TimedObserver {
    inner: CoverageObserver,
    busy: Duration,
    trace_edges: u64,
    valuable: u64,
}

impl TimedObserver {
    fn count(&mut self, merge: &MergeOutcome, edges: usize, took: Duration) {
        self.busy += took;
        self.trace_edges += edges as u64;
        self.valuable += u64::from(merge.is_interesting());
    }
}

impl Observer for TimedObserver {
    fn merge(&mut self, trace: &TraceMap) -> MergeOutcome {
        let started = Instant::now();
        let merge = self.inner.merge(trace);
        self.count(&merge, trace.edges_hit(), started.elapsed());
        merge
    }

    fn merge_sparse(&mut self, trace: &SparseTrace) -> MergeOutcome {
        let started = Instant::now();
        let merge = self.inner.merge_sparse(trace);
        self.count(&merge, trace.edges_hit(), started.elapsed());
        merge
    }

    fn paths_covered(&self) -> usize {
        self.inner.paths_covered()
    }

    fn edges_covered(&self) -> usize {
        self.inner.edges_covered()
    }
}

/// Counters of the server side of the wire, shared by every server-side
/// target instance (each connection gets its own clone).
#[derive(Debug, Default)]
struct ServerCounters {
    decode_ns: AtomicU64,
    instances: AtomicU64,
}

/// Times the target the socket server runs: its decode time is the part of
/// a wire round trip that is not transport.
struct TimedTarget {
    inner: Box<dyn Target + Send>,
    counters: Arc<ServerCounters>,
}

impl TimedTarget {
    fn timed<T>(&mut self, call: impl FnOnce(&mut dyn Target) -> T) -> T {
        let started = Instant::now();
        let result = call(self.inner.as_mut());
        let took = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // A statistic read after the campaign; it publishes no other data.
        self.counters.decode_ns.fetch_add(took, Ordering::Relaxed);
        result
    }
}

impl Target for TimedTarget {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn data_models(&self) -> DataModelSet {
        self.inner.data_models()
    }

    fn process(&mut self, packet: &[u8], ctx: &mut TraceContext) -> Outcome {
        self.timed(|target| target.process(packet, ctx))
    }

    fn reset(&mut self) {
        self.timed(|target| target.reset());
    }

    fn clone_fresh(&self) -> Box<dyn Target + Send> {
        self.counters.instances.fetch_add(1, Ordering::Relaxed);
        Box::new(TimedTarget {
            inner: self.inner.clone_fresh(),
            counters: Arc::clone(&self.counters),
        })
    }

    fn session_template(&self) -> Option<peachstar_protocols::SessionTemplate> {
        self.inner.session_template()
    }
}

/// The reset-aligned windows `(start, end)` of a campaign — the window walk
/// of the program's sequential driver, which is where it checkpoints.
#[must_use]
pub fn windows_for(executions: u64, policy: ResetPolicy) -> Vec<(u64, u64)> {
    if executions == 0 {
        return Vec::new();
    }
    let mut starts = vec![1u64];
    starts.extend(policy.boundaries(executions));
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

/// Runs `spec` as a traced campaign, adding its layer times and counts to
/// `stats`, and returns its fingerprint.
///
/// # Errors
///
/// Reports snapshot failures and instrumentation cross-check mismatches.
pub fn run_traced(
    spec: &CampaignSpec,
    checkpoint_dir: &Path,
    stats: &mut LayerStats,
) -> Result<Fingerprint, String> {
    let started = Instant::now();
    let config = spec.config;
    let wire = config.transport == TransportMode::FramedTcp;
    let server = Arc::new(ServerCounters::default());
    let target: Box<dyn Target> = if wire {
        Box::new(TimedTarget {
            inner: spec.target.create_send(),
            counters: Arc::clone(&server),
        })
    } else {
        spec.target.create()
    };
    let connect_started = Instant::now();
    // The guard keeps the socket server up until the campaign is done.
    let (target, _guard) = transport::deploy(
        target,
        config.transport,
        config.reconnect,
        config.wire_chaos,
    );
    let session = config
        .session
        .and_then(|opts| target.session_template().map(|template| (opts, template)));
    let policy = match &session {
        Some((opts, template)) => ResetPolicy::PerSession(
            SessionPlan::new(template.clone(), opts.payload_packets).session_len(),
        ),
        None => ResetPolicy::Interval(config.reset_interval),
    };
    let executor = TargetExecutor::with_policy(target, policy);
    let connect = if wire {
        connect_started.elapsed()
    } else {
        Duration::ZERO
    };
    let models = executor.data_models();
    let meta = SnapshotMeta::for_campaign(executor.target_name(), &config);
    let counters = Rc::new(RefCell::new(StrategyCounters::default()));
    let strategy = Box::new(TracedStrategy {
        inner: config.strategy.create(),
        counters: Rc::clone(&counters),
    });
    let drive = Drive {
        spec,
        executor,
        models: &models,
        meta,
        checkpoint_dir,
        started,
        connect,
        server: &server,
    };
    let (fingerprint, timed, observer) = match session {
        Some((opts, template)) => {
            let plan = SessionPlan::new(template, opts.payload_packets);
            let schedule = SessionSchedule::new(StrategySchedule::new(strategy), plan, opts.mutate);
            drive.run(schedule, stats)?
        }
        None => drive.run(StrategySchedule::new(strategy), stats)?,
    };
    stats.campaign_wall += started.elapsed();

    stats.campaigns += 1;
    stats.executions += fingerprint.executions;
    stats.execute += timed.busy;
    stats.responses += timed.responses;
    stats.faults += timed.faults;
    stats.resets += timed.resets;
    if let Some(rtt) = timed.rtt_ns {
        stats.wire_campaigns += 1;
        stats.rtt_ns.extend(rtt);
        stats.server_decode += Duration::from_nanos(server.decode_ns.load(Ordering::Relaxed));
    }
    stats.merge += observer.busy;
    stats.trace_edges += observer.trace_edges;
    stats.valuable += observer.valuable;

    let counters = counters.take();
    stats.generate += counters.generate;
    stats.observe_plain += counters.observe_plain;
    stats.crack_handoff += counters.observe_valuable;
    stats.packets += counters.packets;
    stats.semantic_packets += counters.semantic_packets;
    stats.semantic_valuable += counters.semantic_valuable;
    stats.random_valuable += counters.random_valuable;
    stats.template_executions += fingerprint.executions - counters.packets;
    if config.strategy == StrategyKind::PeachStar {
        recrack(
            &counters.valuable_packets,
            &models,
            fingerprint.corpus_size,
            stats,
        )?;
    }
    Ok(fingerprint)
}

/// Counts what the File Cracker makes of the campaign's valuable packets by
/// cracking them again, in order, into a fresh corpus — outside the timed
/// loop. The rebuilt corpus must match the strategy's own in size, which
/// cross-checks that the hand-off timed above really was the cracker's.
fn recrack(
    packets: &[Vec<u8>],
    models: &DataModelSet,
    corpus_size: usize,
    stats: &mut LayerStats,
) -> Result<(), String> {
    let mut cracker = FileCracker::new();
    let mut corpus = PuzzleCorpus::new();
    for packet in packets {
        let puzzles = cracker.crack(models, packet);
        stats.crack_puzzles += puzzles.len() as u64;
        corpus.insert_all(puzzles);
    }
    stats.crack_seeds += packets.len() as u64;
    stats.crack_ok += cracker.cracked_seeds();
    stats.corpus_size += corpus.len() as u64;
    stats.corpus_rules += corpus.rule_count() as u64;
    stats.corpus_inserted += corpus.inserted();
    stats.corpus_rejected += corpus.rejected_duplicates();
    if corpus.len() == corpus_size {
        Ok(())
    } else {
        Err(format!(
            "re-cracking {} valuable packets built a corpus of {}, the strategy holds {corpus_size}",
            packets.len(),
            corpus.len()
        ))
    }
}

/// The engine-assembly inputs shared by the classic and the session drive.
struct Drive<'a> {
    spec: &'a CampaignSpec,
    executor: TargetExecutor,
    models: &'a DataModelSet,
    meta: SnapshotMeta,
    checkpoint_dir: &'a Path,
    started: Instant,
    /// Set-up time spent deploying the transport and connecting.
    connect: Duration,
    server: &'a ServerCounters,
}

impl Drive<'_> {
    /// Drives the assembled engine window by window, checkpointing like the
    /// program's supervised driver when the spec asks for it.
    fn run<S: Schedule>(
        self,
        schedule: S,
        stats: &mut LayerStats,
    ) -> Result<(Fingerprint, TimedExecutor, TimedObserver), String> {
        let config = self.spec.config;
        let wire = config.transport == TransportMode::FramedTcp;
        let policy = self.executor.policy();
        let mut engine = Engine {
            executor: TimedExecutor {
                inner: self.executor,
                busy: Duration::ZERO,
                rtt_ns: wire.then(Vec::new),
                responses: 0,
                faults: 0,
                resets: 0,
            },
            observer: TimedObserver {
                inner: CoverageObserver::new(),
                busy: Duration::ZERO,
                trace_edges: 0,
                valuable: 0,
            },
            feedback: NewCoverageFeedback::new(),
            monitor: CampaignMonitor::new(config.executions, config.sample_interval),
            schedule,
        };
        let checkpoint = if self.spec.service {
            std::fs::remove_dir_all(self.checkpoint_dir).ok();
            let checkpoint = CheckpointConfig::new(self.checkpoint_dir, CHECKPOINT_EVERY)
                .rotation(CHECKPOINT_KEEP);
            checkpoint.prepare().map_err(|error| error.to_string())?;
            Some(checkpoint)
        } else {
            None
        };
        let mut rng = SmallRng::seed_from_u64(config.rng_seed);
        let windows = windows_for(config.executions, policy);
        let setup = self.started.elapsed();
        stats.setup_models += setup.saturating_sub(self.connect);
        stats.setup_connect += self.connect;

        let loop_started = Instant::now();
        let wire_before = crate::host::loopback_bytes();
        let mut instances_after_first_window = 0;
        for (index, &(start, end)) in windows.iter().enumerate() {
            for execution in start..=end {
                engine.step(execution, self.models, &mut rng);
            }
            if index == 0 {
                instances_after_first_window = self.server.instances.load(Ordering::Relaxed);
            }
            let Some(checkpoint) = &checkpoint else {
                continue;
            };
            let windows_done = (index + 1) as u64;
            if !windows_done.is_multiple_of(CHECKPOINT_EVERY) && end != config.executions {
                continue;
            }
            let clock = Instant::now();
            let snapshot = CampaignSnapshot::capture(
                self.meta.clone(),
                end,
                &rng,
                &engine.observer.inner,
                &engine.feedback,
                &engine.monitor,
                &engine.schedule,
            );
            stats.capture += clock.elapsed();
            let clock = Instant::now();
            let bytes = snapshot.encode();
            stats.encode += clock.elapsed();
            let clock = Instant::now();
            let decoded = CampaignSnapshot::decode(&bytes).map_err(|error| error.to_string())?;
            stats.decode += clock.elapsed();
            if decoded.completed != end {
                return Err(format!(
                    "checkpoint at {end} decoded as {}",
                    decoded.completed
                ));
            }
            let clock = Instant::now();
            checkpoint
                .store(&snapshot)
                .map_err(|error| error.to_string())?;
            stats.write += clock.elapsed();
            stats.checkpoints += 1;
            stats.snapshot_bytes += bytes.len() as u64;
        }
        stats.loop_wall += loop_started.elapsed();
        if wire {
            stats.wire_bytes += crate::host::loopback_bytes().saturating_sub(wire_before);
            // Each accepted connection creates two server-side instances
            // (the connection's target and its spare).
            let instances = self.server.instances.load(Ordering::Relaxed);
            stats.reconnects += instances.saturating_sub(instances_after_first_window) / 2;
        }

        let target = engine.executor.target_name().to_string();
        let corpus_size = engine.schedule.corpus_size();
        let valuable_seeds = engine.feedback.retained();
        let (responses, protocol_errors, fault_hits) = (
            engine.monitor.responses(),
            engine.monitor.protocol_errors(),
            engine.monitor.fault_hits(),
        );
        let completed = windows.last().map_or(0, |&(_, end)| end);
        let (series, bugs) = engine.monitor.into_series_and_bugs();
        let fingerprint = Fingerprint {
            target,
            executions: completed,
            series: series.points().to_vec(),
            bugs,
            valuable_seeds,
            corpus_size,
            responses,
            protocol_errors,
            fault_hits,
        };
        Ok((fingerprint, engine.executor, engine.observer))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::engine_other_s;
    use crate::workload::run_untraced;
    use peachstar::campaign::{CampaignConfig, SessionConfig};
    use peachstar_protocols::TargetId;

    fn scratch(name: &str) -> std::path::PathBuf {
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-{name}"))
    }

    /// Runs `spec` untraced and traced and returns both fingerprints and the
    /// traced layer stats.
    fn twins(spec: &CampaignSpec, name: &str) -> (Fingerprint, Fingerprint, LayerStats) {
        let dir = scratch(name);
        let (report, _) = run_untraced(spec, &dir).expect("untraced campaign");
        let mut stats = LayerStats::default();
        let traced = run_traced(spec, &dir, &mut stats).expect("traced campaign");
        std::fs::remove_dir_all(&dir).ok();
        (Fingerprint::of(&report), traced, stats)
    }

    fn residual(stats: &LayerStats) -> f64 {
        let busy = stats.layer_busy().map(|took| took.as_secs_f64());
        engine_other_s(stats.loop_wall.as_secs_f64(), &busy)
    }

    #[test]
    fn traced_peachstar_campaign_matches_and_accounts_for_its_time() {
        let spec = CampaignSpec {
            target: TargetId::Modbus,
            config: CampaignConfig::new(StrategyKind::PeachStar)
                .executions(6_000)
                .rng_seed(3),
            service: false,
        };
        let (untraced, traced, stats) = twins(&spec, "plain");
        assert_eq!(untraced, traced);
        assert_eq!(stats.executions, 6_000);
        assert_eq!(
            stats.packets, 6_000,
            "every execution is a generated packet"
        );
        assert!(stats.crack_seeds > 0 && stats.corpus_size > 0);
        assert!(residual(&stats) >= 0.0, "layer spans overlap: {stats:?}");
    }

    #[test]
    fn traced_service_campaign_checkpoints_like_the_program() {
        let spec = CampaignSpec {
            target: TargetId::Modbus,
            config: CampaignConfig::new(StrategyKind::PeachStar)
                .executions(40_000)
                .rng_seed(5),
            service: true,
        };
        let (untraced, traced, stats) = twins(&spec, "service");
        assert_eq!(untraced, traced);
        // 20 windows of 2 000 executions: checkpoints after windows 8 and 16
        // and at the end.
        assert_eq!(stats.checkpoints, 3);
        assert!(stats.snapshot_bytes > 0);
        assert!(residual(&stats) >= 0.0, "layer spans overlap: {stats:?}");
    }

    #[test]
    fn traced_wire_sessions_match_and_split_transport_from_decode() {
        let spec = CampaignSpec {
            target: TargetId::Iec104,
            config: CampaignConfig::new(StrategyKind::PeachStar)
                .executions(3_000)
                .rng_seed(7)
                .sessions(SessionConfig::default())
                .transport(TransportMode::FramedTcp),
            service: false,
        };
        let (untraced, traced, stats) = twins(&spec, "wire");
        assert_eq!(untraced, traced);
        assert_eq!(stats.rtt_ns.len(), 3_000);
        assert!(stats.server_decode > Duration::ZERO);
        assert!(
            stats.server_decode < stats.execute,
            "decode runs inside the round trip"
        );
        // Sessions are STARTDT, 8 payload packets, STOPDT.
        assert_eq!(stats.template_executions * 10, 3_000 * 2);
        assert!(residual(&stats) >= 0.0, "layer spans overlap: {stats:?}");
    }

    #[test]
    fn windows_cover_the_budget_at_reset_boundaries() {
        assert_eq!(
            windows_for(5_000, ResetPolicy::Interval(2_000)),
            vec![(1, 1_999), (2_000, 3_999), (4_000, 5_000)]
        );
        assert_eq!(
            windows_for(7, ResetPolicy::PerSession(3)),
            vec![(1, 3), (4, 6), (7, 7)]
        );
        assert!(windows_for(0, ResetPolicy::Interval(10)).is_empty());
    }
}
