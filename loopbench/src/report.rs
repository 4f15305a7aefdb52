//! Metric lines for people and the one-line JSON result for machines.
//!
//! Every metric prints by name with its unit, or as
//! `SKIPPED: <reason>` — a skipped metric never reads as a pass.

use crate::stats::{Samples, Tail};

/// Names and units of the end-to-end metrics in the JSON result
/// (`--trace 0`): the ones every workload measures and that stay
/// steady from run to run (`verdict_p99_us` prints but is left out:
/// on a shared 2-CPU virtual machine its tail follows the host's steal
/// time, see README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pkt_rate_mpps", "Mpkt/s"),
    ("verdict_p50_us", "us"),
    ("loop_events_per_s", "events/s"),
    ("admit_precision", "ratio"),
    ("admit_recall", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Names and units of the per-layer metrics in the JSON result
/// (`--trace 1`): the ones every workload measures.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pipeline.ingest_ns_per_pkt", "ns"),
    ("pipeline.drain_ns_per_pkt", "ns"),
    ("pipeline.start_us", "us"),
    ("pipeline.first_verdict_us", "us"),
    ("pipeline.finish_us", "us"),
    ("pipeline.ring_full_stalls", "count"),
    ("pipeline.reorder_stalls", "count"),
    ("pipeline.gate_waits", "count"),
    ("pipeline.tax", "ratio"),
    ("shard.batch_ns_per_pkt", "ns"),
    ("shard.revokes", "count"),
    ("shard.rejected_evictions", "count"),
    ("ledger.classify_ns", "ns"),
    ("ledger.flow_probe_ns", "ns"),
    ("ledger.rejected_probe_ns", "ns"),
    ("ledger.matrix_snapshot_ns", "ns"),
    ("ledger.pin_ns", "ns"),
    ("ledger.decide_ns", "ns"),
    ("ledger.flow_churn_ns", "ns"),
    ("ledger.wheel_ns", "ns"),
    ("ledger.qos_meter_ns", "ns"),
    ("ledger.qoe_acceptable_ns", "ns"),
    ("ledger.sum_over_batch", "ratio"),
    ("lifecycle.delivery_ns", "ns"),
    ("lifecycle.departure_ns", "ns"),
    ("poll.tick_us_p50", "us"),
    ("poll.tick_us_p99", "us"),
    ("driver.gen_s", "s"),
    ("driver.env_frac", "ratio"),
    ("timer.overhead_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
];

/// One metric: a value, or the reason it was not measured.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Measured value or skip reason.
    pub value: Result<f64, String>,
    /// Sample count and percentile notes.
    pub note: String,
}

/// The metrics of one run, in print order.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    /// Empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a measured value.
    pub fn value(&mut self, name: &str, unit: &str, v: f64, note: impl Into<String>) {
        let value = if v.is_finite() {
            Ok(v)
        } else {
            Err(format!("not finite ({v})"))
        };
        self.metrics.push(Metric {
            name: name.into(),
            unit: unit.into(),
            value,
            note: note.into(),
        });
    }

    /// Record a metric that was not measured, with the reason.
    pub fn skip(&mut self, name: &str, unit: &str, reason: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.into(),
            unit: unit.into(),
            value: Err(reason.into()),
            note: String::new(),
        });
    }

    /// Record `Some` as a value, `None` as skipped with `reason`.
    pub fn maybe(&mut self, name: &str, unit: &str, v: Option<f64>, note: &str, reason: &str) {
        match v {
            Some(v) => self.value(name, unit, v, note),
            None => self.skip(name, unit, reason),
        }
    }

    /// Median of `s` with its sample count.
    pub fn median(&mut self, name: &str, unit: &str, s: &mut Samples, reason: &str) {
        let n = s.len();
        let v = s.median();
        self.maybe(name, unit, v, &format!("median, n={n}"), reason);
    }

    /// The p99 of `s`, or the highest percentile with ten samples
    /// beyond it, named in the note.
    pub fn tail(&mut self, name: &str, unit: &str, s: &mut Samples, reason: &str) {
        let n = s.len();
        match s.tail(0.99) {
            Some(Tail {
                value, exact_level, ..
            }) if exact_level => self.value(name, unit, value, format!("p99, n={n}")),
            Some(t) => self.value(
                name,
                unit,
                t.value,
                format!("{} (too few samples for p99), n={n}", t.label()),
            ),
            None => self.skip(
                name,
                unit,
                format!("{reason}; {n} samples cannot support a tail percentile"),
            ),
        }
    }

    /// Look a metric up.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Print every metric, one per line.
    pub fn print(&self) {
        for m in &self.metrics {
            match &m.value {
                Ok(v) if m.note.is_empty() => println!("metric {} = {v} {}", m.name, m.unit),
                Ok(v) => println!("metric {} = {v} {}  ({})", m.name, m.unit, m.note),
                Err(reason) => println!("metric {} SKIPPED: {reason}", m.name),
            }
        }
    }

    /// The JSON result line over `names`. A listed metric that is
    /// missing or skipped makes the result incorrect and is reported
    /// in the returned error list.
    pub fn json(
        &self,
        names: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> (String, Vec<String>) {
        let mut errors = Vec::new();
        let mut parts = Vec::new();
        for (name, unit) in names {
            match self.get(name).map(|m| &m.value) {
                Some(Ok(v)) => parts.push(format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*v)
                )),
                Some(Err(reason)) => errors.push(format!("{name} SKIPPED: {reason}")),
                None => errors.push(format!("{name} was not measured")),
            }
        }
        let correct = correct && errors.is_empty();
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            attempted.max(1),
            parts.join(", ")
        );
        (line, errors)
    }
}

/// A finite f64 as a JSON number with all its digits.
pub fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}
