//! Statistics helpers, metric naming and the result line.

use std::fmt::Write as _;

/// Fewest samples a reported percentile must leave beyond it.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `p`-th percentile (0–100) of `samples` by the nearest-rank rule:
/// the smallest sample with at least `p` % of the samples at or below it.
/// `None` for no samples.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many of `n` samples lie strictly beyond the nearest-rank `p`-th
/// percentile.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n)
}

/// Whether a `p`-th percentile of `n` samples is backed by at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it — the rule a reported tail must
/// meet to be read as a percentile rather than as a maximum.
#[must_use]
pub fn tail_is_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_TAIL_SAMPLES
}

/// Median of `samples` (mean of the middle two for an even count); 0 for
/// no samples.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// One target's speed comparison: the executions Peach needed to reach its
/// own final path count, and the executions Peach\* needed to reach that
/// count (`None` when it never did).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedSample {
    pub baseline_executions: u64,
    pub peachstar_executions: Option<u64>,
}

/// Mean over targets of baseline executions / Peach\* executions; a target
/// Peach\* never brought to the baseline's count contributes 0.
#[must_use]
pub fn speedup_to_baseline(samples: &[SpeedSample]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let total: f64 = samples
        .iter()
        .map(|sample| {
            sample.peachstar_executions.map_or(0.0, |ours| {
                sample.baseline_executions as f64 / ours.max(1) as f64
            })
        })
        .sum();
    total / samples.len() as f64
}

/// The traced wall time no layer span covers: monitor, seed pool, window
/// walk and the engine's own dispatch. Layer spans are disjoint intervals
/// on the campaign thread, so this is never negative unless a span was
/// counted twice; a negative residual is returned as is, not hidden.
#[must_use]
pub fn engine_other_s(traced_wall_s: f64, layer_busy_s: &[f64]) -> f64 {
    traced_wall_s - layer_busy_s.iter().sum::<f64>()
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters, only letters, digits, `_`, `.` and `-`.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    let bytes = name.as_bytes();
    !bytes.is_empty()
        && bytes.len() <= 64
        && bytes[0].is_ascii_alphanumeric()
        && bytes
            .iter()
            .all(|&b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// Whether `unit` is a valid unit: 1–16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
#[must_use]
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// An ordered set of named, unit-tagged measurements.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(&'static str, f64, &'static str)>,
}

impl Metrics {
    /// Records one metric.
    ///
    /// # Panics
    ///
    /// Panics on an invalid or repeated name or an invalid unit — a bug in
    /// this benchmark, caught before anything is printed.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(valid_unit(unit), "invalid unit {unit:?} for {name}");
        assert!(
            self.entries
                .iter()
                .all(|(existing, _, _)| *existing != name),
            "metric {name} recorded twice"
        );
        self.entries.push((name, value, unit));
    }

    /// The recorded metrics, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        self.entries.iter().copied()
    }
}

/// Formats a float as JSON: finite values with all their digits, anything
/// else as 0.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
#[must_use]
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (index, (name, value, unit)) in metrics.iter().enumerate() {
        if index > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=120).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(60.0));
        assert_eq!(percentile(&samples, 90.0), Some(108.0));
        assert_eq!(percentile(&samples, 100.0), Some(120.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[3.0], 99.0), Some(3.0));
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        // 120 campaigns: p90 leaves 12 beyond, so it is a real percentile.
        assert_eq!(samples_beyond(120, 90.0), 12);
        assert!(tail_is_supported(120, 90.0));
        // 99 samples: p90 leaves 9 beyond, one short.
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert!(!tail_is_supported(99, 90.0));
        // 100 samples is the smallest count that supports p90.
        assert!(tail_is_supported(100, 90.0));
        // p99 needs a thousand.
        assert!(!tail_is_supported(999, 99.0));
        assert!(tail_is_supported(1_000, 99.0));
        assert_eq!(samples_beyond(0, 50.0), 0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn unreached_target_contributes_zero_speedup() {
        let reached = SpeedSample {
            baseline_executions: 30_000,
            peachstar_executions: Some(10_000),
        };
        let never = SpeedSample {
            baseline_executions: 40_000,
            peachstar_executions: None,
        };
        assert_eq!(speedup_to_baseline(&[reached]), 3.0);
        // (3 + 0) / 2: the unreached target halves the mean, it is not
        // dropped from it.
        assert_eq!(speedup_to_baseline(&[reached, never]), 1.5);
        assert_eq!(speedup_to_baseline(&[never]), 0.0);
        assert_eq!(speedup_to_baseline(&[]), 0.0);
        // An instant hit counts as one execution, not a division by zero.
        let instant = SpeedSample {
            baseline_executions: 5,
            peachstar_executions: Some(0),
        };
        assert_eq!(speedup_to_baseline(&[instant]), 5.0);
    }

    #[test]
    fn engine_residual_is_wall_minus_layers() {
        assert!((engine_other_s(10.0, &[2.0, 3.0, 1.5]) - 3.5).abs() < 1e-12);
        assert_eq!(engine_other_s(1.0, &[]), 1.0);
        // Double-counted spans show up as a negative residual.
        assert!(engine_other_s(1.0, &[0.7, 0.7]) < 0.0);
    }

    #[test]
    fn metric_names_follow_the_naming_rule() {
        for good in [
            "exec_per_s",
            "campaign_s.p50",
            "transport.rtt_us.p99",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(good), "{good}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "pct%",
            "x/s",
            "ü",
            &"a".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"a".repeat(64)));
        for good in ["exec/s", "s", "%", "MiB", "count", "x"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "×", "exec per s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn metrics_reject_invalid_names() {
        Metrics::default().put("bad name", 1.0, "s");
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn metrics_reject_repeated_names() {
        let mut metrics = Metrics::default();
        metrics.put("setup_s", 1.0, "s");
        metrics.put("setup_s", 2.0, "s");
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut metrics = Metrics::default();
        metrics.put("setup_s", 0.004_5, "s");
        metrics.put("paths", 1_389.0, "count");
        let line = result_json(true, 12, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.0045, \"unit\": \"s\"}, \
             \"paths\": {\"value\": 1389.0, \"unit\": \"count\"}}}"
        );
    }
}
