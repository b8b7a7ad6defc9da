//! `perfbench` — the peachstar benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_eval --seed 1 --seconds 10 --trace 0 [--held-out]
//! ```
//!
//! Runs one workload (`paper_eval`, `long_service`, `wire_sessions`) through
//! the program's own campaign entry points, checks the results and prints a
//! human-readable report followed by one JSON result line. `--trace 1` adds
//! a traced twin of every campaign and reports per-layer metrics instead of
//! end-to-end ones. See `perfbench/README.md`.

mod host;
mod metrics;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use peachstar::campaign::TransportMode;
use peachstar::strategy::StrategyKind;

use metrics::{median, percentile, samples_beyond, tail_is_supported, Metrics};
use traced::{Fingerprint, LayerStats};
use workload::{CampaignSpec, Workload};

/// Set-ups measured before each timed pass; `setup_s` is their median.
const SETUPS_PER_PASS: usize = 20;

const USAGE: &str = "usage: perfbench --workload <paper_eval|long_service|wire_sessions> \
                     --seed <n> --seconds <n> --trace <0|1> [--held-out]";

#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    held_out: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut held_out = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--held-out" {
            held_out = true;
            continue;
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        held_out,
    })
}

/// Operations attempted and the failures among them.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failures: Vec<String>,
}

impl Tally {
    fn check(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(error) = result {
            self.failures.push(format!("{what}: {error}"));
        }
    }
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Prints one metric line of the human-readable report.
fn show(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<34} {value:>16.6} {unit:<8} {note}");
}

/// Yield of the first pass: Peach\* paths and edges summed, Figure 4's gain
/// and speed-up, and the distinct Peach\* fault sites.
struct Yield {
    paths: f64,
    edges: f64,
    path_gain_pct: f64,
    speedup_to_baseline: f64,
    unique_bugs: f64,
}

fn yield_of(specs: &[CampaignSpec], fingerprints: &[Fingerprint]) -> Yield {
    let star = || {
        specs
            .iter()
            .zip(fingerprints)
            .filter(|(spec, _)| spec.config.strategy == StrategyKind::PeachStar)
            .map(|(_, fingerprint)| fingerprint)
    };
    let comparisons = workload::baseline_comparisons(specs, fingerprints);
    let gains: Vec<f64> = comparisons.iter().map(|(gain, _)| *gain).collect();
    let speed: Vec<metrics::SpeedSample> = comparisons.iter().map(|(_, sample)| *sample).collect();
    Yield {
        paths: star().map(|f| f.paths() as f64).sum(),
        edges: star().map(|f| f.edges() as f64).sum(),
        path_gain_pct: ratio(gains.iter().sum(), gains.len() as f64),
        speedup_to_baseline: metrics::speedup_to_baseline(&speed),
        unique_bugs: workload::peachstar_sites(specs, fingerprints)
            .values()
            .map(|sites| sites.len() as f64)
            .sum(),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Counted before pinning, which narrows what the process may use.
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let pinning = host::pin_to_one_cpu();
    println!(
        "perfbench workload={} seed={} held_out={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.held_out,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host::facts(nproc, &pinning));

    let work = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("work");
    if let Err(error) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: creating {}: {error}", work.display());
        return ExitCode::from(2);
    }
    let (metrics, tally) = run(args, &work);
    std::fs::remove_dir_all(&work).ok();

    let failed = tally.failures.len() as u64;
    println!(
        "  {:<34} {:>16.6} {:<8} {} of {} operations",
        "failed_frac",
        ratio(failed as f64, tally.attempted as f64),
        "ratio",
        failed,
        tally.attempted
    );
    for failure in &tally.failures {
        println!("FAILED {failure}");
    }
    println!(
        "{}",
        metrics::result_json(failed == 0, tally.attempted.max(1), failed, &metrics)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the workload: set-up probes, timed passes, checks and — with
/// `--trace 1` — the traced pass.
fn run(args: Args, work: &Path) -> (Metrics, Tally) {
    let specs = args.workload.campaigns(args.seed, args.held_out);
    let mut tally = Tally::default();

    // Timed passes: every campaign of the workload, repeated while another
    // pass still fits in the run's length (at least two; one when tracing).
    // Each pass is preceded by a batch of set-up probes, so both sample the
    // host's fast and slow moments alike. Later passes must reproduce the
    // first exactly.
    let budget = Duration::from_secs(args.seconds);
    let timed_started = Instant::now();
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); specs.len()];
    let mut first: Vec<Option<Fingerprint>> = vec![None; specs.len()];
    let mut setups = Vec::new();
    let mut passes = 0u32;
    loop {
        let pass = passes;
        for _ in 0..SETUPS_PER_PASS {
            match workload::setup_once(&specs, &work.join("setup")) {
                Ok(took) => setups.push(took.as_secs_f64()),
                Err(error) => tally.failures.push(format!("set-up: {error}")),
            }
            tally.attempted += 1;
        }
        for (index, spec) in specs.iter().enumerate() {
            let result = workload::run_untraced(spec, &workload::checkpoint_dir(work, index))
                .and_then(|(report, wall)| {
                    walls[index].push(wall.as_secs_f64());
                    let fingerprint = Fingerprint::of(&report);
                    match &first[index] {
                        None => {
                            first[index] = Some(fingerprint);
                            Ok(())
                        }
                        Some(expected) if *expected == fingerprint => Ok(()),
                        Some(expected) => Err(format!(
                            "pass {pass} diverged: {} vs {}",
                            fingerprint.summary(),
                            expected.summary()
                        )),
                    }
                });
            tally.check(&format!("campaign {}", spec.label()), result);
        }
        passes += 1;
        let elapsed = timed_started.elapsed();
        if args.trace || (passes >= 2 && elapsed + elapsed / passes > budget) {
            break;
        }
    }
    let timed_wall = timed_started.elapsed().as_secs_f64();
    let all_walls: Vec<f64> = walls.iter().flatten().copied().collect();
    let executions: u64 = first
        .iter()
        .zip(&walls)
        .filter_map(|(fingerprint, runs)| {
            Some(fingerprint.as_ref()?.executions * runs.len() as u64)
        })
        .sum();
    let untraced_pass_wall = walls.iter().filter_map(|runs| runs.first()).sum::<f64>();

    // Checks on the first pass's results.
    let mut done_specs = Vec::new();
    let mut fingerprints = Vec::new();
    for (spec, fingerprint) in specs.iter().zip(&first) {
        if let Some(fingerprint) = fingerprint {
            done_specs.push(*spec);
            fingerprints.push(fingerprint.clone());
        }
    }
    for (spec, fingerprint) in done_specs.iter().zip(&fingerprints) {
        for bug in &fingerprint.bugs {
            tally.check(
                &format!("bug replay, {}", spec.label()),
                workload::replay_bug(spec, bug),
            );
        }
    }
    if args.workload == Workload::PaperEval {
        tally.check(
            "paper_eval Table I",
            workload::check_table1(&workload::peachstar_sites(&done_specs, &fingerprints)),
        );
    }
    for (index, (spec, fingerprint)) in done_specs.iter().zip(&fingerprints).enumerate() {
        if spec.config.transport == TransportMode::InProcess {
            continue;
        }
        let twin = CampaignSpec {
            config: spec.config.transport(TransportMode::InProcess),
            ..*spec
        };
        let result = workload::run_untraced(&twin, &workload::checkpoint_dir(work, index))
            .and_then(|(report, _)| {
                let local = Fingerprint::of(&report);
                if local == *fingerprint {
                    Ok(())
                } else {
                    Err(format!(
                        "wire {} vs in-process {}",
                        fingerprint.summary(),
                        local.summary()
                    ))
                }
            });
        tally.check(&format!("wire = in-process, {}", spec.label()), result);
    }
    let yields = yield_of(&done_specs, &fingerprints);

    let mut metrics = Metrics::default();
    println!(
        "{} campaigns per pass, {passes} pass(es) in {timed_wall:.3} s, {executions} executions",
        specs.len()
    );
    if args.trace {
        let stats = traced_pass(&specs, &first, work, &mut tally);
        per_layer(&stats, untraced_pass_wall, &yields, &mut metrics);
    } else {
        end_to_end(executions, &all_walls, &setups, &yields, &mut metrics);
    }
    (metrics, tally)
}

/// Runs every campaign traced and checks each against its untraced report.
fn traced_pass(
    specs: &[CampaignSpec],
    untraced: &[Option<Fingerprint>],
    work: &Path,
    tally: &mut Tally,
) -> LayerStats {
    let mut stats = LayerStats::default();
    for (index, (spec, expected)) in specs.iter().zip(untraced).enumerate() {
        let result = traced::run_traced(spec, &workload::checkpoint_dir(work, index), &mut stats)
            .and_then(|fingerprint| match expected {
                Some(expected) if *expected == fingerprint => Ok(()),
                Some(expected) => Err(format!(
                    "traced {} vs untraced {}",
                    fingerprint.summary(),
                    expected.summary()
                )),
                None => Err("its untraced run failed".to_string()),
            });
        tally.check(&format!("traced = untraced, {}", spec.label()), result);
    }
    stats
}

/// End-to-end metrics from the timed passes' executions and campaign wall
/// times and the set-up samples.
fn end_to_end(
    executions: u64,
    walls: &[f64],
    setups: &[f64],
    yields: &Yield,
    metrics: &mut Metrics,
) {
    let n = walls.len();
    let p50 = median(walls);
    let p90 = percentile(walls, 90.0).unwrap_or(0.0);
    let p90_note = if tail_is_supported(n, 90.0) {
        format!("n={n}, {} beyond", samples_beyond(n, 90.0))
    } else {
        format!(
            "n={n}, {} beyond: fewer than ten, read as a maximum",
            samples_beyond(n, 90.0)
        )
    };
    let rows: [(&'static str, f64, &'static str, String); 7] = [
        (
            "exec_per_s",
            ratio(executions as f64, walls.iter().sum()),
            "exec/s",
            String::new(),
        ),
        ("campaign_s.p50", p50, "s", format!("n={n}")),
        ("campaign_s.p90", p90, "s", p90_note),
        (
            "setup_s",
            median(setups),
            "s",
            format!("median of {}", setups.len()),
        ),
        ("peak_rss_mb", host::peak_rss_mib(), "MiB", String::new()),
        (
            "paths",
            yields.paths,
            "count",
            "Peach* campaigns, summed".into(),
        ),
        (
            "edges",
            yields.edges,
            "count",
            "Peach* campaigns, summed".into(),
        ),
    ];
    println!("end-to-end metrics:");
    for (name, value, unit, note) in rows {
        show(name, value, unit, &note);
        metrics.put(name, value, unit);
    }
    println!("yield against the baseline (also in the traced run's per-layer metrics):");
    show(
        "path_gain_pct",
        yields.path_gain_pct,
        "%",
        "0 without Peach campaigns",
    );
    show(
        "speedup_to_baseline",
        yields.speedup_to_baseline,
        "x",
        "0 without Peach campaigns",
    );
    show(
        "unique_bugs",
        yields.unique_bugs,
        "count",
        "Peach* fault sites",
    );
}

fn per_layer(stats: &LayerStats, untraced_wall: f64, yields: &Yield, metrics: &mut Metrics) {
    let secs = Duration::as_secs_f64;
    let executions = stats.executions as f64;
    let packets = stats.packets as f64;
    let random_packets = (stats.packets - stats.semantic_packets) as f64;
    let busy = stats.layer_busy().map(|took| took.as_secs_f64());
    let loop_wall = secs(&stats.loop_wall);
    let other = metrics::engine_other_s(loop_wall, &busy);
    let rtt_us: Vec<f64> = stats.rtt_ns.iter().map(|&ns| ns as f64 / 1_000.0).collect();
    let rtt_note = format!(
        "n={}, {} beyond p99",
        rtt_us.len(),
        samples_beyond(rtt_us.len(), 99.0)
    );
    let corpus_attempts = (stats.corpus_inserted + stats.corpus_rejected) as f64;
    let rows: Vec<(&'static str, f64, &'static str)> = vec![
        ("strategy.busy_s", busy[0], "s"),
        (
            "strategy.ns_per_packet",
            ratio(secs(&stats.generate) * 1e9, packets),
            "ns",
        ),
        ("strategy.packets", packets, "count"),
        (
            "strategy.semantic_share",
            ratio(stats.semantic_packets as f64, packets),
            "ratio",
        ),
        (
            "strategy.semantic_valuable_ratio",
            ratio(
                stats.semantic_valuable as f64,
                stats.semantic_packets as f64,
            ),
            "ratio",
        ),
        (
            "strategy.random_valuable_ratio",
            ratio(stats.random_valuable as f64, random_packets),
            "ratio",
        ),
        ("cracker.busy_s", busy[1], "s"),
        ("cracker.seeds", stats.crack_seeds as f64, "count"),
        (
            "cracker.ok_ratio",
            ratio(stats.crack_ok as f64, stats.crack_seeds as f64),
            "ratio",
        ),
        (
            "cracker.puzzles_per_seed",
            ratio(stats.crack_puzzles as f64, stats.crack_seeds as f64),
            "count",
        ),
        ("corpus.size", stats.corpus_size as f64, "count"),
        ("corpus.rules", stats.corpus_rules as f64, "count"),
        (
            "corpus.dup_ratio",
            ratio(stats.corpus_rejected as f64, corpus_attempts),
            "ratio",
        ),
        ("protocols.busy_s", busy[2], "s"),
        (
            "protocols.ns_per_exec",
            ratio(busy[2] * 1e9, executions),
            "ns",
        ),
        (
            "protocols.validity",
            ratio(stats.responses as f64, executions),
            "ratio",
        ),
        ("protocols.faults", stats.faults as f64, "count"),
        ("protocols.resets", stats.resets as f64, "count"),
        ("coverage.busy_s", busy[4], "s"),
        (
            "coverage.ns_per_exec",
            ratio(busy[4] * 1e9, executions),
            "ns",
        ),
        (
            "coverage.edges_per_exec",
            ratio(stats.trace_edges as f64, executions),
            "count",
        ),
        (
            "coverage.valuable_ratio",
            ratio(stats.valuable as f64, executions),
            "ratio",
        ),
        (
            "session.template_share",
            ratio(stats.template_executions as f64, executions),
            "ratio",
        ),
        ("transport.busy_s", busy[3], "s"),
        ("transport.rtt_us.p50", median(&rtt_us), "us"),
        (
            "transport.rtt_us.p99",
            percentile(&rtt_us, 99.0).unwrap_or(0.0),
            "us",
        ),
        ("transport.reconnects", stats.reconnects as f64, "count"),
        ("transport.bytes", stats.wire_bytes as f64, "B"),
        ("snapshot.checkpoints", stats.checkpoints as f64, "count"),
        ("snapshot.capture_s", secs(&stats.capture), "s"),
        ("snapshot.encode_s", secs(&stats.encode), "s"),
        ("snapshot.write_s", secs(&stats.write), "s"),
        ("snapshot.bytes", stats.snapshot_bytes as f64, "B"),
        ("snapshot.decode_s", secs(&stats.decode), "s"),
        ("engine.other_s", other, "s"),
        ("setup.models_s", secs(&stats.setup_models), "s"),
        ("setup.connect_s", secs(&stats.setup_connect), "s"),
        (
            "trace.overhead_frac",
            ratio(secs(&stats.campaign_wall), untraced_wall) - 1.0,
            "ratio",
        ),
        ("path_gain_pct", yields.path_gain_pct, "%"),
        ("speedup_to_baseline", yields.speedup_to_baseline, "x"),
        ("unique_bugs", yields.unique_bugs, "count"),
    ];
    println!(
        "per-layer metrics (traced pass, {} campaigns):",
        stats.campaigns
    );
    for (name, value, unit) in rows {
        let note = match name {
            "transport.rtt_us.p99" => rtt_note.as_str(),
            _ => "",
        };
        show(name, value, unit, note);
        metrics.put(name, value, unit);
    }
    println!("share of the traced loop ({loop_wall:.3} s):");
    let names = [
        "strategy",
        "cracker",
        "protocols",
        "transport",
        "coverage",
        "snapshot",
    ];
    for (name, took) in names.iter().zip(busy) {
        println!("  {name:<10} {:>6.1} %", ratio(took, loop_wall) * 100.0);
    }
    println!(
        "  {:<10} {:>6.1} %",
        "engine",
        ratio(other, loop_wall) * 100.0
    );
}
