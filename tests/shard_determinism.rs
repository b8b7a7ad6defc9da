//! Shard determinism: the worker count of a sharded campaign decides how
//! fast the report is produced, never what it contains.
//!
//! Two guarantees are pinned here, property-style over several seeds:
//!
//! 1. **Worker invariance** — `workers = 1` and `workers = k` produce
//!    bit-identical reports for both strategies (windows are reset-aligned
//!    and results merge in global execution order, so scheduling cannot
//!    leak into the result).
//! 2. **Sequential equivalence for Peach** — the feedback-free baseline's
//!    sharded report equals the classic sequential [`Campaign`] exactly:
//!    its packet stream depends only on the RNG, and every window replays
//!    the target state the sequential loop would have had.
//!
//! Peach\* has no sequential-equivalence claim (it digests valuable seeds
//! at the merge barrier rather than per execution), which is why guarantee 1
//! is asserted for it separately.

use peachstar::campaign::{Campaign, CampaignConfig, SessionConfig, Topology};
use peachstar::strategy::StrategyKind;
use peachstar::CampaignReport;
use peachstar_protocols::TargetId;

/// The deterministic fields of a report, in one comparable bundle.
#[derive(Debug, PartialEq, Eq)]
struct Deterministic {
    final_paths: usize,
    final_edges: usize,
    responses: u64,
    protocol_errors: u64,
    fault_hits: u64,
    bug_sites: Vec<&'static str>,
    bug_executions: Vec<u64>,
    valuable_seeds: usize,
    corpus_size: usize,
    series_paths: Vec<usize>,
}

fn deterministic(report: &CampaignReport) -> Deterministic {
    Deterministic {
        final_paths: report.final_paths(),
        final_edges: report.series.points().last().map_or(0, |p| p.edges),
        responses: report.responses,
        protocol_errors: report.protocol_errors,
        fault_hits: report.fault_hits,
        bug_sites: report.bugs.iter().map(|b| b.fault.site).collect(),
        bug_executions: report.bugs.iter().map(|b| b.first_execution).collect(),
        valuable_seeds: report.valuable_seeds,
        corpus_size: report.corpus_size,
        series_paths: report.series.points().iter().map(|p| p.paths).collect(),
    }
}

fn config(strategy: StrategyKind, seed: u64) -> CampaignConfig {
    CampaignConfig::new(strategy)
        .executions(2_000)
        .rng_seed(seed)
        .sample_interval(200)
        .reset_interval(250)
}

fn sharded(target: TargetId, config: CampaignConfig, workers: usize) -> Deterministic {
    let topology = Topology::Sharded {
        workers,
        sync_windows: 4,
    };
    let report = Campaign::new(target.create(), config.topology(topology)).run();
    deterministic(&report)
}

#[test]
fn worker_count_never_changes_the_report() {
    for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
        for (target, seed) in [
            (TargetId::Modbus, 3),
            (TargetId::Iec104, 7),
            (TargetId::Lib60870, 77),
        ] {
            let one = sharded(target, config(strategy, seed), 1);
            for workers in [2, 4] {
                let many = sharded(target, config(strategy, seed), workers);
                assert_eq!(
                    one, many,
                    "{strategy} on {target} seed {seed}: {workers} workers diverged"
                );
            }
        }
    }
}

#[test]
fn sharded_peach_baseline_equals_sequential_campaign() {
    for (target, seed) in [
        (TargetId::Modbus, 1),
        (TargetId::Modbus, 42),
        (TargetId::Iec104, 5),
        (TargetId::Dnp3, 9),
    ] {
        let cfg = config(StrategyKind::Peach, seed);
        let sequential = deterministic(&Campaign::new(target.create(), cfg).run());
        for workers in [1, 4] {
            let parallel = sharded(target, cfg, workers);
            assert_eq!(
                sequential, parallel,
                "Peach on {target} seed {seed}: sharded ({workers}w) != sequential"
            );
        }
    }
}

/// Session-shaped config: sessions of 1 handshake + 6 payload + 1 teardown
/// packets, so windows are 8-execution sessions.
fn session_config(strategy: StrategyKind, seed: u64) -> CampaignConfig {
    CampaignConfig::new(strategy)
        .executions(2_000)
        .rng_seed(seed)
        .sample_interval(200)
        .sessions(SessionConfig::new(6))
}

#[test]
fn worker_count_never_changes_a_session_campaign_report() {
    // Same guarantee as the classic campaign, property-style over seeds ×
    // session-capable targets × strategies: windows are whole sessions and
    // results merge in global execution order, so the worker count cannot
    // leak into the report.
    for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
        for (target, seed) in [
            (TargetId::Iec104, 3),
            (TargetId::Lib60870, 7),
            (TargetId::Iec61850, 21),
            (TargetId::Iccp, 77),
        ] {
            let one = sharded(target, session_config(strategy, seed), 1);
            for workers in [2, 4] {
                let many = sharded(target, session_config(strategy, seed), workers);
                assert_eq!(
                    one, many,
                    "{strategy} sessions on {target} seed {seed}: {workers} workers diverged"
                );
            }
        }
    }
}

#[test]
fn sharded_session_peach_baseline_equals_sequential_campaign() {
    // The feedback-free baseline's session stream depends only on the RNG
    // and the session plan; every sharded window replays one whole session
    // from the just-reset target state — exactly what the sequential
    // per-session reset policy produces.
    for (target, seed) in [
        (TargetId::Iec104, 1),
        (TargetId::Lib60870, 5),
        (TargetId::Iccp, 42),
    ] {
        let cfg = session_config(StrategyKind::Peach, seed);
        let sequential = deterministic(&Campaign::new(target.create(), cfg).run());
        for workers in [1, 4] {
            let parallel = sharded(target, cfg, workers);
            assert_eq!(
                sequential, parallel,
                "Peach sessions on {target} seed {seed}: sharded ({workers}w) != sequential"
            );
        }
    }
}

#[test]
fn sync_window_width_is_part_of_peachstar_semantics() {
    // Not a determinism requirement — documentation of the design: for the
    // feedback-free baseline the barrier distance is irrelevant, while for
    // Peach* it decides when valuable seeds reach the strategy.
    let cfg = config(StrategyKind::Peach, 3);
    let narrow = deterministic(
        &Campaign::new(
            TargetId::Modbus.create(),
            cfg.topology(Topology::Sharded {
                workers: 2,
                sync_windows: 1,
            }),
        )
        .run(),
    );
    let wide = deterministic(
        &Campaign::new(
            TargetId::Modbus.create(),
            cfg.topology(Topology::Sharded {
                workers: 2,
                sync_windows: 8,
            }),
        )
        .run(),
    );
    assert_eq!(narrow, wide, "Peach must not see the barrier distance");
}
