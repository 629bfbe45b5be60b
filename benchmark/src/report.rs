//! Metric records and the two output formats: one readable line per
//! metric, and the one-line JSON result the driver reads last.

use std::fmt::Write as _;

use crate::stats::Summary;

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// The share of the reference median by which the metric may worsen
    /// before it counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, in the order they are printed. Mirrors
/// `BENCHMARK.json`; the self-tests hold the two together.
pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "run_wall_s",
        unit: "s",
        lower_is_better: true,
        bound: 0.20,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        lower_is_better: false,
        bound: 0.20,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        lower_is_better: true,
        bound: 0.10,
    },
];

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The value: a median for timed metrics, the exact value otherwise.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Quartiles and sample count, for metrics that are host timings.
    pub spread: Option<Summary>,
}

impl Metric {
    /// A host-time metric summarised over repetitions.
    pub fn timed(name: &str, unit: &'static str, summary: Summary) -> Self {
        Metric {
            name: name.to_string(),
            value: summary.median,
            unit,
            spread: Some(summary),
        }
    }

    /// A count, a simulated time, or a value derived from one timing.
    pub fn value(name: &str, unit: &'static str, value: f64) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
            spread: None,
        }
    }

    /// The readable line: `metric <name> <value> <unit> [q1 q3 n]`.
    pub fn line(&self) -> String {
        match self.spread {
            Some(s) => format!(
                "metric {} {} {} q1={} q3={} n={}",
                self.name, self.value, self.unit, s.q1, s.q3, s.n
            ),
            None => format!("metric {} {} {}", self.name, self.value, self.unit),
        }
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work has no ratio).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The result of one benchmark run: the verdict, the operation counts and
/// the metrics of the requested kind.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Operations the simulated clients attempted, over every timed rep.
    pub attempted: u64,
    /// Operations that ended without a valid reply, over every timed rep.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Every reason the outputs were not correct; empty means correct.
    pub problems: Vec<String>,
}

impl RunResult {
    /// `true` when every check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    /// The one-line JSON object the driver reads as the last line.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            // JSON has no NaN or infinity; a value that is neither is a bug
            // in a metric's definition, reported as 0 and never hidden.
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}
