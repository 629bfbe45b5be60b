//! Expectations judge a finished run; they never drive it.
//!
//! An [`Expectation`] has two phases: [`capture`](Expectation::capture)
//! snapshots whatever baseline it needs right after setup (before the run
//! window opens), and [`judge`](Expectation::judge) examines the finished
//! run and returns a [`Verdict`]. A scenario passes iff every verdict
//! passes — a planted invariant violation or an unmet expectation fails
//! the run with a precise verdict, never a panic.
//!
//! The built-ins re-express the repo's existing checks as reusable
//! expectation impls: [`TraceInvariantsClean`] wraps
//! `dcdo_sim::check_trace_invariants`, [`NoLeakedEvents`] checks that the
//! event queue drained, and the metric/counter/gauge
//! families judge the stats the workloads and simulator recorded.

use crate::workload::RunCx;

/// One expectation's judgement of a finished run.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The expectation that produced this verdict.
    pub expectation: String,
    /// Whether the expectation held.
    pub passed: bool,
    /// A short, deterministic explanation (shown by `dcdo-inspect` and
    /// exported to `BENCH_scenarios.json`).
    pub detail: String,
}

impl Verdict {
    /// A passing verdict.
    pub fn pass(expectation: &str, detail: String) -> Self {
        Verdict {
            expectation: expectation.to_string(),
            passed: true,
            detail,
        }
    }

    /// A failing verdict.
    pub fn fail(expectation: &str, detail: String) -> Self {
        Verdict {
            expectation: expectation.to_string(),
            passed: false,
            detail,
        }
    }
}

/// A pluggable judgement over a finished scenario run.
pub trait Expectation {
    /// Stable name, used in verdicts and scenario files.
    fn name(&self) -> &str;

    /// Captures a baseline right after setup, before the run window opens.
    /// Default: no baseline needed.
    fn capture(&mut self, cx: &RunCx) {
        let _ = cx;
    }

    /// Judges the finished run.
    fn judge(&mut self, cx: &RunCx) -> Verdict;
}

// ---------------------------------------------------------------------------
// Built-ins

/// The span log must satisfy every trace invariant
/// (`dcdo_sim::check_trace_invariants` returns no violations).
#[derive(Debug, Default)]
pub struct TraceInvariantsClean;

impl Expectation for TraceInvariantsClean {
    fn name(&self) -> &str {
        "trace_invariants"
    }

    fn judge(&mut self, cx: &RunCx) -> Verdict {
        if cx.world.sim().is_none() {
            return Verdict::fail(self.name(), "no world was built".to_string());
        }
        let violations = cx.trace_violations();
        if violations.is_empty() {
            Verdict::pass(self.name(), "0 violations".to_string())
        } else {
            Verdict::fail(
                self.name(),
                format!("{} violations; first: {}", violations.len(), violations[0]),
            )
        }
    }
}

/// The event queue must drain to empty after the run window closes — dead
/// nodes' timers are cancelled, nothing leaks.
#[derive(Debug, Default)]
pub struct NoLeakedEvents;

impl Expectation for NoLeakedEvents {
    fn name(&self) -> &str {
        "no_leaks"
    }

    fn judge(&mut self, cx: &RunCx) -> Verdict {
        let Some(sim) = cx.world.sim() else {
            return Verdict::fail(self.name(), "no world was built".to_string());
        };
        let pending = sim.pending_events();
        if pending == 0 {
            Verdict::pass(self.name(), "queue drained".to_string())
        } else {
            Verdict::fail(self.name(), format!("{pending} events leaked"))
        }
    }
}

/// Traffic actually flowed during the run window: the network's sent
/// counter moved past the baseline captured after setup.
#[derive(Debug, Default)]
pub struct TrafficFlowed {
    baseline: u64,
}

impl Expectation for TrafficFlowed {
    fn name(&self) -> &str {
        "traffic_flowed"
    }

    fn capture(&mut self, cx: &RunCx) {
        self.baseline = cx
            .world
            .sim()
            .map(|sim| sim.network().stats().messages_sent)
            .unwrap_or(0);
    }

    fn judge(&mut self, cx: &RunCx) -> Verdict {
        let sent = cx
            .world
            .sim()
            .map(|sim| sim.network().stats().messages_sent)
            .unwrap_or(0);
        if sent > self.baseline {
            Verdict::pass(
                self.name(),
                format!("{} messages in window", sent - self.baseline),
            )
        } else {
            Verdict::fail(self.name(), "no messages sent in window".to_string())
        }
    }
}

/// How a recorded value must compare to a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cmp {
    /// Value must be `>= bound`.
    AtLeast,
    /// Value must be `== bound`.
    Equals,
    /// Value must be `<= bound`.
    AtMost,
    /// Value must be `> bound`.
    Above,
}

impl Cmp {
    fn ok_u64(self, value: u64, bound: u64) -> bool {
        match self {
            Cmp::AtLeast => value >= bound,
            Cmp::Equals => value == bound,
            Cmp::AtMost => value <= bound,
            Cmp::Above => value > bound,
        }
    }

    fn ok_f64(self, value: f64, bound: f64) -> bool {
        match self {
            Cmp::AtLeast => value >= bound,
            Cmp::Equals => value == bound,
            Cmp::AtMost => value <= bound,
            Cmp::Above => value > bound,
        }
    }

    fn word(self) -> &'static str {
        match self {
            Cmp::AtLeast => ">=",
            Cmp::Equals => "==",
            Cmp::AtMost => "<=",
            Cmp::Above => ">",
        }
    }
}

/// A workload-recorded counter must satisfy a bound
/// (`counter_at_least calls.ok 1`, `counter_equals migrations.err 0`).
#[derive(Debug)]
pub struct CounterBound {
    name: String,
    key: String,
    cmp: Cmp,
    bound: u64,
}

impl CounterBound {
    /// Counter `key` must be at least `min`.
    pub fn at_least(key: &str, min: u64) -> Self {
        CounterBound {
            name: "counter_at_least".to_string(),
            key: key.to_string(),
            cmp: Cmp::AtLeast,
            bound: min,
        }
    }

    /// Counter `key` must equal `value`.
    pub fn equals(key: &str, value: u64) -> Self {
        CounterBound {
            name: "counter_equals".to_string(),
            key: key.to_string(),
            cmp: Cmp::Equals,
            bound: value,
        }
    }
}

impl Expectation for CounterBound {
    fn name(&self) -> &str {
        &self.name
    }

    fn judge(&mut self, cx: &RunCx) -> Verdict {
        let value = cx.counter(&self.key);
        let detail = format!(
            "{} = {} ({} {})",
            self.key,
            value,
            self.cmp.word(),
            self.bound
        );
        if self.cmp.ok_u64(value, self.bound) {
            Verdict::pass(&self.name, detail)
        } else {
            Verdict::fail(&self.name, detail)
        }
    }
}

/// A simulator metric must satisfy a bound
/// (`metric_equals sim.node_crashes 12`).
#[derive(Debug)]
pub struct MetricBound {
    name: String,
    key: String,
    cmp: Cmp,
    bound: u64,
}

impl MetricBound {
    /// Metric `key` must be at least `min`.
    pub fn at_least(key: &str, min: u64) -> Self {
        MetricBound {
            name: "metric_at_least".to_string(),
            key: key.to_string(),
            cmp: Cmp::AtLeast,
            bound: min,
        }
    }

    /// Metric `key` must equal `value`.
    pub fn equals(key: &str, value: u64) -> Self {
        MetricBound {
            name: "metric_equals".to_string(),
            key: key.to_string(),
            cmp: Cmp::Equals,
            bound: value,
        }
    }
}

impl Expectation for MetricBound {
    fn name(&self) -> &str {
        &self.name
    }

    fn judge(&mut self, cx: &RunCx) -> Verdict {
        let Some(sim) = cx.world.sim() else {
            return Verdict::fail(&self.name, "no world was built".to_string());
        };
        let value = sim.metrics().counter(&self.key);
        let detail = format!(
            "{} = {} ({} {})",
            self.key,
            value,
            self.cmp.word(),
            self.bound
        );
        if self.cmp.ok_u64(value, self.bound) {
            Verdict::pass(&self.name, detail)
        } else {
            Verdict::fail(&self.name, detail)
        }
    }
}

/// A workload-recorded gauge must satisfy a bound
/// (`gauge_at_most chatter.recovery_s 1`, `gauge_above net.amplification 1`).
#[derive(Debug)]
pub struct GaugeBound {
    name: String,
    key: String,
    cmp: Cmp,
    bound: f64,
}

impl GaugeBound {
    /// Gauge `key` must be at most `max`.
    pub fn at_most(key: &str, max: f64) -> Self {
        GaugeBound {
            name: "gauge_at_most".to_string(),
            key: key.to_string(),
            cmp: Cmp::AtMost,
            bound: max,
        }
    }

    /// Gauge `key` must be strictly above `min`.
    pub fn above(key: &str, min: f64) -> Self {
        GaugeBound {
            name: "gauge_above".to_string(),
            key: key.to_string(),
            cmp: Cmp::Above,
            bound: min,
        }
    }
}

impl Expectation for GaugeBound {
    fn name(&self) -> &str {
        &self.name
    }

    fn judge(&mut self, cx: &RunCx) -> Verdict {
        let Some(&value) = cx.gauges.get(&self.key) else {
            return Verdict::fail(&self.name, format!("gauge {} never recorded", self.key));
        };
        let detail = format!(
            "{} = {:?} ({} {:?})",
            self.key,
            value,
            self.cmp.word(),
            self.bound
        );
        if self.cmp.ok_f64(value, self.bound) {
            Verdict::pass(&self.name, detail)
        } else {
            Verdict::fail(&self.name, detail)
        }
    }
}

/// The empirical traffic mix must converge to the declared weights: for
/// every weighted workload the runner records `mix.<name>.expected` and
/// `mix.<name>.observed` share gauges, and this expectation requires
/// `|observed - expected| <= tol` for all of them.
#[derive(Debug)]
pub struct MixConverged {
    tol: f64,
}

impl MixConverged {
    /// Requires every observed share within `tol` of its declared share.
    pub fn new(tol: f64) -> Self {
        MixConverged { tol }
    }
}

impl Expectation for MixConverged {
    fn name(&self) -> &str {
        "mix_converged"
    }

    fn judge(&mut self, cx: &RunCx) -> Verdict {
        let mut checked = 0u64;
        let mut worst: Option<(String, f64)> = None;
        for (key, &expected) in &cx.gauges {
            let Some(workload) = key
                .strip_prefix("mix.")
                .and_then(|rest| rest.strip_suffix(".expected"))
            else {
                continue;
            };
            let observed = cx
                .gauges
                .get(&format!("mix.{workload}.observed"))
                .copied()
                .unwrap_or(0.0);
            let delta = (observed - expected).abs();
            checked += 1;
            if worst.as_ref().map(|(_, d)| delta > *d).unwrap_or(true) {
                worst = Some((workload.to_string(), delta));
            }
        }
        let Some((worst_name, worst_delta)) = worst else {
            return Verdict::fail(
                self.name(),
                "no mix gauges recorded (tick window required)".to_string(),
            );
        };
        let detail = format!(
            "{checked} workloads; worst |observed-expected| = {:?} ({}) tol {:?}",
            worst_delta, worst_name, self.tol
        );
        if worst_delta <= self.tol {
            Verdict::pass(self.name(), detail)
        } else {
            Verdict::fail(self.name(), detail)
        }
    }
}
