//! The metric catalogue and the result line.
//!
//! Every workload reports the same end-to-end metrics (their meaning
//! per workload is in README.md) and the same per-layer metrics; a
//! layer a workload leaves idle reads zero. The names and units here
//! are the ones `BENCHMARK.json` declares.

use std::collections::BTreeMap;

use crate::calib::{Meter, Timings};
use crate::stats::{self, Tally};

/// End-to-end metrics: `(name, unit)`, printed by untraced runs.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("step_ms.p50", "ms"),
    ("cycle_ms.p50", "ms"),
    ("first_policy_ms.p50", "ms"),
    ("decisions_per_s", "1/s"),
    ("power_w", "W"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, printed by traced runs. The
/// last two are the whole loop's 90th percentile step, which a shared
/// host leaves too unsteady for a bound (see README.md), and the run's
/// median reading of the host's speed (see `calib`). The per-layer
/// times of single calls are as measured; the 90th percentile step is
/// brought to the nominal speed like the end-to-end timings.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("trace.extract_ms", "ms"),
    ("trace.gauge_refits", "count"),
    ("trace.gauge_skips", "count"),
    ("trace.skip_ratio", "ratio"),
    ("core.compose_ms", "ms"),
    ("core.prepare_ms", "ms"),
    ("mdp.build_ms", "ms"),
    ("lp.cold_solve_ms", "ms"),
    ("lp.cold_pivots", "count"),
    ("lp.pricing_candidates", "count"),
    ("lp.devex_resets", "count"),
    ("lp.refactorizations", "count"),
    ("lp.basis_updates", "count"),
    ("linalg.fill_in_nnz", "count"),
    ("lp.rescued_share", "ratio"),
    ("lp.warm_pivots", "count"),
    ("lp.warm_share", "ratio"),
    ("lp.warm_reloads", "count"),
    ("lp.cold_reloads", "count"),
    ("lp.pivots", "count"),
    ("lp.symbolic_reuses", "count"),
    ("runtime.clusters", "count"),
    ("runtime.evictions", "count"),
    ("runtime.solve_ratio", "ratio"),
    ("runtime.add_device_us", "us"),
    ("runtime.remove_device_us", "us"),
    ("runtime.churn_ms", "ms"),
    ("runtime.checkpoint_ms", "ms"),
    ("runtime.restore_ms", "ms"),
    ("runtime.snapshot_bytes", "bytes"),
    ("runtime.replayed_solves", "count"),
    ("runtime.replay_pivots", "count"),
    ("runtime.errors", "count"),
    ("runtime.infeasible", "count"),
    ("runtime.holds", "count"),
    ("fail_ratio", "ratio"),
    ("tracing.overhead_ms", "ms"),
    ("step_ms.p90", "ms"),
    ("host.reference_ms", "ms"),
];

/// Per-layer values a workload measured, keyed by [`PER_LAYER`] name.
#[derive(Debug, Default, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Per-layer values holding the run's median host-speed reading.
    pub fn with_meter(meter: &Meter) -> Self {
        let mut layers = Layers::default();
        if let Some(ms) = meter.reference_ms() {
            layers.set("host.reference_ms", ms);
        }
        layers
    }

    /// Sets `name` to the 90th percentile of `values`, when at least
    /// ten of them lie beyond it.
    pub fn p90(&mut self, name: &'static str, values: &[f64]) {
        if values.len() >= 100 {
            if let Some(p) = stats::quantile(values, 0.9) {
                self.set(name, p);
            }
        }
    }

    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Sets `name` to the median of `values` (left unset when empty).
    pub fn median(&mut self, name: &'static str, values: impl Iterator<Item = f64>) {
        let values: Vec<f64> = values.collect();
        if let Some(m) = stats::median(&values) {
            self.set(name, m);
        }
    }

    /// Sets `name` to the mean of `values` (left unset when empty).
    pub fn mean(&mut self, name: &'static str, values: impl Iterator<Item = f64>) {
        let values: Vec<f64> = values.collect();
        if !values.is_empty() {
            self.set(name, stats::mean(&values));
        }
    }

    /// Sets `name` to the maximum of `values` (left unset when empty).
    pub fn max(&mut self, name: &'static str, values: impl Iterator<Item = f64>) {
        if let Some(m) = values.reduce(f64::max) {
            self.set(name, m);
        }
    }
}

/// What one workload run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every correctness gate passed.
    pub correct: bool,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// End-to-end values by [`END_TO_END`] name; `None` when the run
    /// could not measure one.
    pub end_to_end: BTreeMap<&'static str, Option<f64>>,
    /// Sample count of every end-to-end timing.
    pub samples: BTreeMap<&'static str, usize>,
    /// Per-layer values.
    pub layers: Layers,
    /// The run's median reading of the host's speed, ms.
    pub reference_ms: Option<f64>,
}

impl Outcome {
    /// An outcome with no metrics yet.
    pub fn new(correct: bool, tally: Tally) -> Self {
        Outcome {
            correct,
            tally,
            end_to_end: BTreeMap::new(),
            samples: BTreeMap::new(),
            layers: Layers::default(),
            reference_ms: None,
        }
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: Option<f64>) {
        self.end_to_end.insert(name, value);
    }

    /// Records an end-to-end timing: the median of `samples`, and how
    /// many there were.
    pub fn timing(&mut self, name: &'static str, samples: &[f64]) {
        self.samples.insert(name, samples.len());
        self.e2e(name, stats::median(samples));
    }

    /// Records `setup_s` from the run's set-up repetitions, in
    /// milliseconds as measured: their median at the nominal speed, in
    /// seconds. Records the run's median host-speed reading with it.
    pub fn setup(&mut self, setups: &Timings, meter: &Meter) {
        self.reference_ms = meter.reference_ms();
        let seconds: Vec<f64> = setups.scaled(meter).iter().map(|ms| ms / 1e3).collect();
        self.timing("setup_s", &seconds);
    }

    /// The sample counts of the end-to-end timings as a JSON object:
    /// `{"name": n, ...}`.
    pub fn samples_json(&self) -> String {
        let fields: Vec<String> = self
            .samples
            .iter()
            .map(|(name, count)| format!("\"{name}\": {count}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }

    /// Renders the result line: every end-to-end metric (untraced) or
    /// every per-layer metric (traced). Fails when an end-to-end metric
    /// is missing or any value is not finite.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let mut fields = Vec::new();
        if traced {
            let mut layers = self.layers.0.clone();
            layers.insert("fail_ratio", self.tally.ratio());
            if let Some(unknown) = layers
                .keys()
                .find(|k| !PER_LAYER.iter().any(|(n, _)| n == *k))
            {
                return Err(format!(
                    "per-layer metric {unknown} is not in the catalogue"
                ));
            }
            for (name, unit) in PER_LAYER {
                let value = layers.get(name).copied().unwrap_or(0.0);
                fields.push(metric_json(name, value, unit)?);
            }
        } else {
            for (name, unit) in END_TO_END {
                let value = self
                    .end_to_end
                    .get(name)
                    .copied()
                    .flatten()
                    .ok_or_else(|| format!("end-to-end metric {name} was not measured"))?;
                fields.push(metric_json(name, value, unit)?);
            }
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.tally.attempted.max(1),
            self.tally.failed,
            fields.join(", ")
        ))
    }
}

fn metric_json(name: &str, value: f64, unit: &str) -> Result<String, String> {
    if !value.is_finite() {
        return Err(format!("metric {name} is not finite: {value}"));
    }
    Ok(format!(
        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
    ))
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_end_to_end_metric_is_an_error() {
        let mut out = Outcome::new(true, Tally::default());
        out.e2e("setup_s", Some(1.0));
        assert!(out.render(false).is_err());
    }

    #[test]
    fn traced_line_lists_every_layer() {
        let mut out = Outcome::new(true, Tally::default());
        out.layers.set("lp.pivots", 3.0);
        let line = out.render(true).unwrap();
        for (name, _) in PER_LAYER {
            assert!(line.contains(&format!("\"{name}\"")), "{name}");
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    }

    #[test]
    fn timings_carry_their_sample_counts() {
        let mut out = Outcome::new(true, Tally::default());
        out.timing("setup_s", &[3.0, 1.0, 2.0]);
        out.timing("step_ms.p50", &[]);
        assert_eq!(out.end_to_end.get("setup_s"), Some(&Some(2.0)));
        assert_eq!(out.end_to_end.get("step_ms.p50"), Some(&None));
        assert_eq!(out.samples_json(), "{\"setup_s\": 3, \"step_ms.p50\": 0}");
    }

    #[test]
    fn unknown_layer_is_rejected() {
        let mut out = Outcome::new(true, Tally::default());
        out.layers.set("lp.bogus", 1.0);
        assert!(out.render(true).is_err());
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
