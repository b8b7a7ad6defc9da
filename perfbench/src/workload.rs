//! The three workloads, their untraced runs and the correctness checks.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use peachstar::campaign::BugRecord;
use peachstar::campaign::{Campaign, CampaignConfig, CampaignReport, SessionConfig, TransportMode};
use peachstar::service::ServiceHooks;
use peachstar::snapshot::{CampaignSnapshot, CheckpointConfig};
use peachstar::stats::CoverageSeries;
use peachstar::strategy::StrategyKind;
use peachstar::CrashArtifact;
use peachstar_bench::default_budget;
use peachstar_protocols::TargetId;

use crate::metrics::SpeedSample;
use crate::traced::Fingerprint;

/// Completed windows between checkpoints: the CLI's default
/// `--checkpoint-every`.
pub const CHECKPOINT_EVERY: u64 = 8;
/// Rotation depth: the CLI's default `serve --keep-checkpoints`.
pub const CHECKPOINT_KEEP: usize = 4;

/// Seeds per target and fuzzer in `paper_eval` (the paper's ten repetitions).
const PAPER_REPETITIONS: u64 = 10;
/// Budget of the `long_service` campaign.
const LONG_SERVICE_EXECUTIONS: u64 = 1_000_000;
/// Budget of the `wire_sessions` campaign.
const WIRE_EXECUTIONS: u64 = 100_000;
/// Campaign seeds of the held-out set start here; the tuning set stays far
/// below it for every workload seed under 2^40.
const HELD_OUT_BASE: u64 = 1 << 48;
/// Planted Table I fault sites per project that `paper_eval` must find.
const TABLE1: [(&str, usize); 3] = [("libmodbus", 2), ("lib60870", 3), ("libiec_iccp_mod", 4)];

/// A named set of campaigns the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 4: six targets, Peach and Peach\*, ten seeds each.
    PaperEval,
    /// One long supervised Peach\* libmodbus campaign with rolling
    /// checkpoints.
    LongService,
    /// Peach\* IEC104 session fuzzing over one loopback TCP connection.
    WireSessions,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PaperEval,
        Workload::LongService,
        Workload::WireSessions,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperEval => "paper_eval",
            Workload::LongService => "long_service",
            Workload::WireSessions => "wire_sessions",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|workload| workload.name() == name)
    }

    /// The workload's campaigns, a pure function of the workload seed:
    /// `held_out` draws campaign seeds from a range the tuning seeds never
    /// reach.
    #[must_use]
    pub fn campaigns(self, seed: u64, held_out: bool) -> Vec<CampaignSpec> {
        let base = seed
            .wrapping_mul(16)
            .wrapping_add(if held_out { HELD_OUT_BASE } else { 0 });
        match self {
            Workload::PaperEval => {
                let mut specs = Vec::new();
                for target in TargetId::ALL {
                    let executions = default_budget(target);
                    for strategy in [StrategyKind::Peach, StrategyKind::PeachStar] {
                        for repetition in 0..PAPER_REPETITIONS {
                            specs.push(CampaignSpec::new(
                                target,
                                CampaignConfig::new(strategy)
                                    .executions(executions)
                                    .sample_interval(executions / 100)
                                    .rng_seed(base + repetition),
                                false,
                            ));
                        }
                    }
                }
                specs
            }
            Workload::LongService => vec![CampaignSpec::new(
                TargetId::Modbus,
                CampaignConfig::new(StrategyKind::PeachStar)
                    .executions(LONG_SERVICE_EXECUTIONS)
                    .sample_interval(LONG_SERVICE_EXECUTIONS / 100)
                    .rng_seed(base),
                true,
            )],
            Workload::WireSessions => vec![CampaignSpec::new(
                TargetId::Iec104,
                CampaignConfig::new(StrategyKind::PeachStar)
                    .executions(WIRE_EXECUTIONS)
                    .sample_interval(WIRE_EXECUTIONS / 100)
                    .rng_seed(base)
                    .sessions(SessionConfig::default())
                    .transport(TransportMode::FramedTcp),
                false,
            )],
        }
    }
}

/// One campaign of a workload.
#[derive(Debug, Clone, Copy)]
pub struct CampaignSpec {
    pub target: TargetId,
    pub config: CampaignConfig,
    /// Run supervised, with rolling checkpoints, as `serve` does.
    pub service: bool,
}

impl CampaignSpec {
    fn new(target: TargetId, config: CampaignConfig, service: bool) -> Self {
        Self {
            target,
            config,
            service,
        }
    }

    /// Human-readable name of the campaign, for failure lines.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "{} {} seed {}",
            self.config.strategy.label(),
            self.target.project_name(),
            self.config.rng_seed
        )
    }
}

/// Runs a closure, turning a panic into an error message.
fn contained<T>(run: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|text| (*text).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic".to_string());
        Err(format!("panicked: {message}"))
    })
}

/// Runs `spec` through the program's own entry point — `Campaign::run`, or
/// `Campaign::run_supervised` for a service campaign — and returns its
/// report and wall time. A service campaign must also leave a newest
/// rotation slot that decodes to the completed budget.
///
/// # Errors
///
/// Reports panics, snapshot failures and a bad final checkpoint.
pub fn run_untraced(
    spec: &CampaignSpec,
    checkpoint_dir: &Path,
) -> Result<(CampaignReport, Duration), String> {
    contained(|| {
        let started = Instant::now();
        let campaign = Campaign::new(spec.target.create(), spec.config);
        if !spec.service {
            let report = campaign.run();
            return Ok((report, started.elapsed()));
        }
        std::fs::remove_dir_all(checkpoint_dir).ok();
        let checkpoint =
            CheckpointConfig::new(checkpoint_dir, CHECKPOINT_EVERY).rotation(CHECKPOINT_KEEP);
        let hooks = ServiceHooks::new(spec.config.executions);
        let report = campaign
            .run_supervised(&checkpoint, &hooks)
            .map_err(|error| format!("supervised run: {error}"))?;
        let wall = started.elapsed();
        let newest = CampaignSnapshot::resume_latest(checkpoint_dir)
            .map_err(|error| format!("reading checkpoints: {error}"))?;
        match newest {
            Some(snapshot) if snapshot.completed == report.executions => Ok((report, wall)),
            Some(snapshot) => Err(format!(
                "newest checkpoint covers {} of {} executions",
                snapshot.completed, report.executions
            )),
            None => Err("no checkpoint was left behind".to_string()),
        }
    })
}

/// Time from start until the first execution, summed over one instance of
/// every distinct campaign set-up of the workload: a zero-budget campaign
/// through the program's entry point builds the target and its data
/// models, deploys the transport (binding the server and connecting, on the
/// wire), assembles the engine and prepares the checkpoint directory, and
/// then stops before executing anything.
///
/// # Errors
///
/// Reports a set-up that panics or fails.
pub fn setup_once(specs: &[CampaignSpec], checkpoint_dir: &Path) -> Result<Duration, String> {
    let mut seen = BTreeSet::new();
    let mut total = Duration::ZERO;
    for spec in specs {
        if !seen.insert((spec.target, spec.config.strategy.label())) {
            continue;
        }
        let probe = CampaignSpec {
            config: spec.config.executions(0),
            ..*spec
        };
        let started = Instant::now();
        contained(|| {
            let campaign = Campaign::new(probe.target.create(), probe.config);
            if probe.service {
                let checkpoint = CheckpointConfig::new(checkpoint_dir, CHECKPOINT_EVERY)
                    .rotation(CHECKPOINT_KEEP);
                let hooks = ServiceHooks::new(0);
                campaign
                    .run_supervised(&checkpoint, &hooks)
                    .map_err(|error| error.to_string())?;
            } else {
                let _ = campaign.run();
            }
            Ok(())
        })?;
        total += started.elapsed();
    }
    Ok(total)
}

/// Replays a recorded bug with the program's own crash-bundle replay: the
/// campaign re-runs up to the recorded execution on a fresh target, and
/// the same fault must fire there with the same packet and data model.
///
/// # Errors
///
/// Describes how the replay diverged.
pub fn replay_bug(spec: &CampaignSpec, bug: &BugRecord) -> Result<(), String> {
    contained(|| {
        CrashArtifact::from_bug(spec.target, &spec.config, None, None, bug)
            .replay()
            .map(|_| ())
            .map_err(|failure| format!("{} at {}: {}", bug.fault.kind, bug.fault.site, failure.1))
    })
}

/// Checks that the Peach\* campaigns found exactly the planted Table I
/// sites: two in libmodbus, three in lib60870, four in libiec_iccp_mod and
/// none elsewhere.
///
/// # Errors
///
/// Lists the per-project counts that differ.
pub fn check_table1(sites: &BTreeMap<&'static str, BTreeSet<String>>) -> Result<(), String> {
    let mut wrong = Vec::new();
    for target in TargetId::ALL {
        let project = target.project_name();
        let expected = TABLE1
            .iter()
            .find(|(name, _)| *name == project)
            .map_or(0, |&(_, count)| count);
        let found = sites.get(project).map_or(0, BTreeSet::len);
        if found != expected {
            wrong.push(format!("{project}: found {found}, Table I has {expected}"));
        }
    }
    if wrong.is_empty() {
        Ok(())
    } else {
        Err(format!("Table I sites: {}", wrong.join("; ")))
    }
}

/// Distinct fault sites of the Peach\* campaigns, per project.
#[must_use]
pub fn peachstar_sites(
    specs: &[CampaignSpec],
    fingerprints: &[Fingerprint],
) -> BTreeMap<&'static str, BTreeSet<String>> {
    let mut sites: BTreeMap<&'static str, BTreeSet<String>> = BTreeMap::new();
    for (spec, fingerprint) in specs.iter().zip(fingerprints) {
        if spec.config.strategy != StrategyKind::PeachStar {
            continue;
        }
        let entry = sites.entry(spec.target.project_name()).or_default();
        for bug in &fingerprint.bugs {
            entry.insert(format!("{}@{}", bug.fault.kind, bug.fault.site));
        }
    }
    sites
}

/// Figure 4's comparison per target, from the series averaged over each
/// fuzzer's repetitions: Peach\*'s path gain in percent and the speed
/// sample. Targets without campaigns of both fuzzers are skipped.
#[must_use]
pub fn baseline_comparisons(
    specs: &[CampaignSpec],
    fingerprints: &[Fingerprint],
) -> Vec<(f64, SpeedSample)> {
    let mut by_target: BTreeMap<(TargetId, bool), Vec<CoverageSeries>> = BTreeMap::new();
    for (spec, fingerprint) in specs.iter().zip(fingerprints) {
        let mut series = CoverageSeries::new();
        for &point in &fingerprint.series {
            series.push(point);
        }
        let star = spec.config.strategy == StrategyKind::PeachStar;
        by_target
            .entry((spec.target, star))
            .or_default()
            .push(series);
    }
    let mut out = Vec::new();
    for target in TargetId::ALL {
        let (Some(peach), Some(star)) = (
            by_target.get(&(target, false)),
            by_target.get(&(target, true)),
        ) else {
            continue;
        };
        let peach = CoverageSeries::average(peach);
        let star = CoverageSeries::average(star);
        let baseline_paths = peach.final_paths();
        let gain = if baseline_paths == 0 {
            0.0
        } else {
            (star.final_paths() as f64 - baseline_paths as f64) / baseline_paths as f64 * 100.0
        };
        let sample = SpeedSample {
            baseline_executions: peach
                .executions_to_reach(baseline_paths)
                .unwrap_or(default_budget(target)),
            peachstar_executions: star.executions_to_reach(baseline_paths),
        };
        out.push((gain, sample));
    }
    out
}

/// Directory for the checkpoints of campaign `index`.
#[must_use]
pub fn checkpoint_dir(work: &Path, index: usize) -> PathBuf {
    work.join(format!("ckpt-{index}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeds(workload: Workload, seed: u64, held_out: bool) -> BTreeSet<u64> {
        workload
            .campaigns(seed, held_out)
            .iter()
            .map(|spec| spec.config.rng_seed)
            .collect()
    }

    #[test]
    fn campaigns_are_a_function_of_the_seed() {
        for workload in Workload::ALL {
            assert_eq!(seeds(workload, 4, false), seeds(workload, 4, false));
            assert_ne!(seeds(workload, 4, false), seeds(workload, 5, false));
        }
        let paper = Workload::PaperEval.campaigns(1, false);
        assert_eq!(paper.len(), 120);
        assert_eq!(
            seeds(Workload::PaperEval, 1, false).len(),
            10,
            "Peach and Peach* share seeds"
        );
    }

    #[test]
    fn held_out_seeds_never_meet_tuning_seeds() {
        let mut tuning = BTreeSet::new();
        let mut held_out = BTreeSet::new();
        for seed in 0..1_000 {
            tuning.extend(seeds(Workload::PaperEval, seed, false));
            held_out.extend(seeds(Workload::PaperEval, seed, true));
        }
        assert!(tuning.is_disjoint(&held_out));
        // Neighbouring workload seeds draw disjoint repetition seeds too.
        assert!(seeds(Workload::PaperEval, 1, false).is_disjoint(&seeds(
            Workload::PaperEval,
            2,
            false
        )));
    }

    #[test]
    fn table1_check_wants_every_planted_site_and_nothing_else() {
        let mut sites: BTreeMap<&'static str, BTreeSet<String>> = BTreeMap::new();
        for (project, count) in TABLE1 {
            sites.insert(project, (0..count).map(|i| format!("site{i}")).collect());
        }
        assert!(check_table1(&sites).is_ok());
        sites
            .get_mut("lib60870")
            .expect("planted project")
            .remove("site0");
        assert!(check_table1(&sites)
            .unwrap_err()
            .contains("lib60870: found 2, Table I has 3"));
        sites
            .get_mut("lib60870")
            .expect("planted project")
            .insert("site0".into());
        sites.insert("IEC104", BTreeSet::from(["stray".to_string()]));
        assert!(check_table1(&sites)
            .unwrap_err()
            .contains("IEC104: found 1, Table I has 0"));
    }
}
