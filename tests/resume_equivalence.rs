//! Resume equivalence: interrupting a campaign at *any* window boundary and
//! resuming from the snapshot must reproduce the uninterrupted run bit for
//! bit.
//!
//! Every test follows the same shape: run the campaign to completion, then
//! for **every** reset-aligned boundary run the same campaign only up to
//! that boundary, round-trip the snapshot through the wire format, resume a
//! *fresh* campaign from the decoded snapshot, and require the final report
//! to be identical — across strategies × targets × batch sizes × sessions ×
//! sharded merge barriers, plus chained (interrupt-the-resumed-run-again)
//! interruptions.

use peachstar::campaign::{Campaign, CampaignConfig, RunOptions, SessionConfig, Topology};
use peachstar::snapshot::{CampaignSnapshot, CheckpointConfig, SnapshotError};
use peachstar::strategy::StrategyKind;
use peachstar::CampaignReport;
use peachstar_protocols::TargetId;

/// The deterministic fields of a report, in one comparable bundle
/// (everything except wall-clock timing).
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
        .executions(1_000)
        .rng_seed(seed)
        .sample_interval(100)
        .reset_interval(250)
}

/// Runs `campaign` up to `boundary`, resuming `from` first when given, and
/// returns the snapshot taken there.
fn stop_at(
    campaign: Campaign,
    from: Option<&CampaignSnapshot>,
    boundary: u64,
) -> Result<CampaignSnapshot, SnapshotError> {
    campaign
        .run_with(RunOptions {
            resume: from,
            stop_after: Some(boundary),
            ..RunOptions::default()
        })
        .map(|(_, snapshot)| snapshot.expect("a stop boundary yields a snapshot"))
}

/// Resumes `campaign` from `snapshot` to completion.
fn resume(
    campaign: Campaign,
    snapshot: &CampaignSnapshot,
) -> Result<CampaignReport, SnapshotError> {
    campaign
        .run_with(RunOptions {
            resume: Some(snapshot),
            ..RunOptions::default()
        })
        .map(|(report, _)| report)
}

/// Encode → decode → re-encode must be the identity on bytes; returns the
/// decoded snapshot so every resume below also exercises the wire format.
fn wire_round_trip(snapshot: &CampaignSnapshot) -> CampaignSnapshot {
    let bytes = snapshot.encode();
    let decoded = CampaignSnapshot::decode(&bytes).expect("snapshot decodes");
    assert_eq!(decoded.encode(), bytes, "canonical encoding round-trips");
    decoded
}

#[test]
fn sequential_resume_at_every_boundary_matches_uninterrupted() {
    for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
        for (target, seed) in [(TargetId::Modbus, 3), (TargetId::Iec104, 7)] {
            let cfg = config(strategy, seed);
            let complete = deterministic(&Campaign::new(target.create(), cfg).run());
            let boundaries = Campaign::new(target.create(), cfg).boundaries();
            assert_eq!(*boundaries.last().expect("boundaries"), 1_000);
            for &boundary in &boundaries {
                let snapshot = stop_at(Campaign::new(target.create(), cfg), None, boundary)
                    .expect("runs to the boundary");
                assert_eq!(snapshot.completed, boundary);
                let snapshot = wire_round_trip(&snapshot);
                let resumed =
                    resume(Campaign::new(target.create(), cfg), &snapshot).expect("resumes");
                assert_eq!(
                    complete,
                    deterministic(&resumed),
                    "{strategy} on {target} seed {seed}: resume at {boundary} diverged"
                );
            }
        }
    }
}

#[test]
fn batched_resume_at_every_boundary_matches_uninterrupted() {
    for batch in [64, 250] {
        let cfg = config(StrategyKind::PeachStar, 5).batch(batch);
        let complete = deterministic(&Campaign::new(TargetId::Modbus.create(), cfg).run());
        let boundaries = Campaign::new(TargetId::Modbus.create(), cfg).boundaries();
        for &boundary in &boundaries {
            let snapshot = stop_at(
                Campaign::new(TargetId::Modbus.create(), cfg),
                None,
                boundary,
            )
            .expect("runs to the boundary");
            let snapshot = wire_round_trip(&snapshot);
            let resumed =
                resume(Campaign::new(TargetId::Modbus.create(), cfg), &snapshot).expect("resumes");
            assert_eq!(
                complete,
                deterministic(&resumed),
                "batch {batch}: resume at {boundary} diverged"
            );
        }
    }
}

#[test]
fn session_resume_at_every_session_boundary_matches_uninterrupted() {
    // Session-shaped windows: every boundary is a whole-session end, so the
    // restored schedule cursor is always 0 and the handshake replays from
    // the top of the next session.
    for (target, seed) in [(TargetId::Iec104, 1), (TargetId::Lib60870, 5)] {
        let cfg = CampaignConfig::new(StrategyKind::PeachStar)
            .executions(400)
            .rng_seed(seed)
            .sample_interval(50)
            .sessions(SessionConfig::new(6));
        let complete = deterministic(&Campaign::new(target.create(), cfg).run());
        let boundaries = Campaign::new(target.create(), cfg).boundaries();
        assert!(boundaries.len() > 10, "plenty of session boundaries to test");
        for &boundary in &boundaries {
            let snapshot = stop_at(Campaign::new(target.create(), cfg), None, boundary)
                .expect("runs to the boundary");
            let snapshot = wire_round_trip(&snapshot);
            let resumed = resume(Campaign::new(target.create(), cfg), &snapshot).expect("resumes");
            assert_eq!(
                complete,
                deterministic(&resumed),
                "sessions on {target} seed {seed}: resume at {boundary} diverged"
            );
        }
    }
}

#[test]
fn sharded_resume_at_every_barrier_matches_uninterrupted() {
    for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
        let cfg = config(strategy, 3);
        let shard = Topology::Sharded {
            workers: 2,
            sync_windows: 1,
        };
        let complete =
            deterministic(&Campaign::new(TargetId::Modbus.create(), cfg.topology(shard)).run());
        let barriers = Campaign::new(TargetId::Modbus.create(), cfg.topology(shard)).boundaries();
        for &barrier in &barriers {
            let campaign = Campaign::new(TargetId::Modbus.create(), cfg.topology(shard));
            let snapshot = stop_at(campaign, None, barrier).expect("runs to the barrier");
            assert_eq!(snapshot.completed, barrier);
            let snapshot = wire_round_trip(&snapshot);
            let campaign = Campaign::new(TargetId::Modbus.create(), cfg.topology(shard));
            let resumed = resume(campaign, &snapshot).expect("resumes");
            assert_eq!(
                complete,
                deterministic(&resumed),
                "sharded {strategy}: resume at barrier {barrier} diverged"
            );
        }
    }
}

#[test]
fn sharded_snapshot_resumes_under_any_worker_count() {
    // The worker count is deliberately not part of the snapshot fingerprint:
    // barriers synchronise the full campaign state, so a snapshot taken with
    // N workers must resume bit-exactly under any other worker count.
    let cfg = config(StrategyKind::PeachStar, 11);
    let shard_two = Topology::Sharded {
        workers: 2,
        sync_windows: 2,
    };
    let complete =
        deterministic(&Campaign::new(TargetId::Iec104.create(), cfg.topology(shard_two)).run());
    let barrier = Campaign::new(TargetId::Iec104.create(), cfg.topology(shard_two)).boundaries()[0];
    let campaign = Campaign::new(TargetId::Iec104.create(), cfg.topology(shard_two));
    let snapshot = stop_at(campaign, None, barrier).expect("runs to the barrier");
    for workers in [1, 3] {
        let shard = Topology::Sharded {
            workers,
            sync_windows: 2,
        };
        let campaign = Campaign::new(TargetId::Iec104.create(), cfg.topology(shard));
        let resumed = resume(campaign, &snapshot).expect("resumes");
        assert_eq!(
            complete,
            deterministic(&resumed),
            "worker count {workers} changed the resumed campaign"
        );
    }
}

#[test]
fn chained_interruptions_compose() {
    // Interrupt, resume, interrupt the resumed run again, resume again: the
    // double-interrupted campaign still matches the uninterrupted one.
    let cfg = config(StrategyKind::PeachStar, 3);
    let complete = deterministic(&Campaign::new(TargetId::Modbus.create(), cfg).run());
    let boundaries = Campaign::new(TargetId::Modbus.create(), cfg).boundaries();
    let (first, second) = (boundaries[0], boundaries[2]);
    let snapshot = stop_at(Campaign::new(TargetId::Modbus.create(), cfg), None, first)
        .expect("first interruption");
    let campaign = Campaign::new(TargetId::Modbus.create(), cfg);
    let snapshot =
        stop_at(campaign, Some(&wire_round_trip(&snapshot)), second).expect("second interruption");
    assert_eq!(snapshot.completed, second);
    let campaign = Campaign::new(TargetId::Modbus.create(), cfg);
    let resumed = resume(campaign, &wire_round_trip(&snapshot)).expect("final resume");
    assert_eq!(complete, deterministic(&resumed));
}

#[test]
fn checkpointed_run_writes_resumable_snapshots_and_matches_plain_run() {
    let path = std::env::temp_dir().join(format!(
        "peachstar-resume-equivalence-{}.snap",
        std::process::id()
    ));
    let cfg = config(StrategyKind::PeachStar, 3);
    let plain = deterministic(&Campaign::new(TargetId::Modbus.create(), cfg).run());
    let (checkpointed, _) = Campaign::new(TargetId::Modbus.create(), cfg)
        .run_with(RunOptions {
            checkpoint: Some(&CheckpointConfig::new(path.clone(), 1)),
            ..RunOptions::default()
        })
        .expect("checkpointed run");
    assert_eq!(plain, deterministic(&checkpointed), "checkpointing is observationally free");

    // The last checkpoint on disk is the final state and resumes to the
    // identical (already finished) report.
    let snapshot = CampaignSnapshot::read_from(&path).expect("snapshot readable");
    std::fs::remove_file(&path).ok();
    assert_eq!(snapshot.completed, 1_000);
    let resumed = resume(Campaign::new(TargetId::Modbus.create(), cfg), &snapshot)
        .expect("resume of a finished campaign");
    assert_eq!(plain, deterministic(&resumed));
}

#[test]
fn misaligned_or_mismatched_resume_is_rejected() {
    let cfg = config(StrategyKind::PeachStar, 3);
    let boundary = Campaign::new(TargetId::Modbus.create(), cfg).boundaries()[0];
    let snapshot = stop_at(
        Campaign::new(TargetId::Modbus.create(), cfg),
        None,
        boundary,
    )
    .expect("runs to the boundary");

    // Not a window boundary.
    assert!(stop_at(
        Campaign::new(TargetId::Modbus.create(), cfg),
        None,
        boundary + 1
    )
    .is_err());
    // Wrong target.
    assert!(resume(Campaign::new(TargetId::Iec104.create(), cfg), &snapshot).is_err());
    // Wrong strategy.
    let peach = config(StrategyKind::Peach, 3);
    assert!(resume(Campaign::new(TargetId::Modbus.create(), peach), &snapshot).is_err());
    // Wrong seed.
    assert!(resume(
        Campaign::new(TargetId::Modbus.create(), cfg.rng_seed(4)),
        &snapshot
    )
    .is_err());
    // Resuming further than the stop boundary is fine; resuming *to* the
    // same (or an earlier) one is not.
    let campaign = Campaign::new(TargetId::Modbus.create(), cfg);
    assert!(stop_at(campaign, Some(&snapshot), boundary).is_err());
}
