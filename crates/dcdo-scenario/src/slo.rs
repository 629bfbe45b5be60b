//! Declarative SLO watchdogs: expectations judged against the run's
//! windowed timeline.
//!
//! Where the counter/gauge bounds judge whole-run aggregates, the SLO
//! family judges *every window* of the [`Timeline`](dcdo_sim::Timeline)
//! the engine records while it runs: a latency quantile that must hold in
//! each bucket, an error-rate ceiling per bucket, and a recovery-time
//! budget after every crash. Their verdict names all start with `slo_`,
//! which is how the runner recognizes a breach and attaches the
//! full-fidelity flight-recorder dump to the run artifacts.
//!
//! The windowed series the watchdogs read (`lat.flow`, `ok.rpc`, …) are
//! derived deterministically from the span log after the window closes
//! (see the runner), so every verdict replays byte-identically.

use crate::expect::{Expectation, Verdict};
use crate::workload::RunCx;

/// A per-window latency-quantile bound: in every timeline bucket where the
/// series has samples, its `q`-quantile must stay at or below the bound
/// (seconds). Declared as `expect slo_latency <series> <p50|p90|p95|p99|q=F>
/// <bound_secs>`.
#[derive(Debug)]
pub struct SloLatency {
    series: String,
    q: f64,
    q_label: String,
    bound_secs: f64,
}

impl SloLatency {
    /// Bounds the quantile that `quantile` declares (`p99`, `p99.9`,
    /// `q=0.999`) of `series` in every window and reports it under that
    /// same token. `None` if the token declares no quantile.
    pub fn new(series: &str, quantile: &str, bound_secs: f64) -> Option<Self> {
        Some(SloLatency {
            series: series.to_string(),
            q: parse_quantile(quantile)?,
            q_label: quantile.to_string(),
            bound_secs,
        })
    }
}

impl Expectation for SloLatency {
    fn name(&self) -> &str {
        "slo_latency"
    }

    fn judge(&mut self, cx: &RunCx) -> Verdict {
        let Some(sim) = cx.world.sim() else {
            return Verdict::fail(self.name(), "no world was built".to_string());
        };
        let mut windows = 0u64;
        let mut breaches = 0u64;
        // Worst = the largest quantile observed, breach or not, so the
        // detail is informative even on a pass.
        let mut worst: Option<(u64, f64)> = None;
        for (idx, bucket) in sim.timeline().buckets() {
            let Some(h) = bucket.metrics.histogram(&self.series) else {
                continue;
            };
            if h.is_empty() {
                continue;
            }
            windows += 1;
            // Quantiles need a sort; the timeline is behind a shared
            // reference here, so clone the (small, per-bucket) histogram.
            let mut h = h.clone();
            let v = h.quantile(self.q).expect("nonempty");
            if v > self.bound_secs {
                breaches += 1;
            }
            if worst.map(|(_, w)| v > w).unwrap_or(true) {
                worst = Some((idx, v));
            }
        }
        let Some((worst_idx, worst_v)) = worst else {
            return Verdict::fail(
                self.name(),
                format!("series {} never recorded", self.series),
            );
        };
        let detail = format!(
            "{} {} <= {:?}s over {windows} windows; worst {:?}s in window {worst_idx}; {breaches} breached",
            self.series, self.q_label, self.bound_secs, worst_v
        );
        if breaches == 0 {
            Verdict::pass(self.name(), detail)
        } else {
            Verdict::fail(self.name(), detail)
        }
    }
}

/// A per-window error-rate ceiling: in every timeline bucket where
/// `ok.<prefix>` + `err.<prefix>` counters saw traffic, the error fraction
/// must stay at or below the ceiling. Declared as `expect slo_error_rate
/// <prefix> <max_frac>`.
#[derive(Debug)]
pub struct SloErrorRate {
    prefix: String,
    max_frac: f64,
}

impl SloErrorRate {
    /// Bounds `err / (err + ok)` for the `<prefix>` counter pair.
    pub fn new(prefix: &str, max_frac: f64) -> Self {
        SloErrorRate {
            prefix: prefix.to_string(),
            max_frac,
        }
    }
}

impl Expectation for SloErrorRate {
    fn name(&self) -> &str {
        "slo_error_rate"
    }

    fn judge(&mut self, cx: &RunCx) -> Verdict {
        let Some(sim) = cx.world.sim() else {
            return Verdict::fail(self.name(), "no world was built".to_string());
        };
        let ok_key = format!("ok.{}", self.prefix);
        let err_key = format!("err.{}", self.prefix);
        let mut windows = 0u64;
        let mut breaches = 0u64;
        let mut worst: Option<(u64, f64)> = None;
        for (idx, bucket) in sim.timeline().buckets() {
            let ok = bucket.metrics.counter(&ok_key);
            let err = bucket.metrics.counter(&err_key);
            if ok + err == 0 {
                continue;
            }
            windows += 1;
            let frac = err as f64 / (ok + err) as f64;
            if frac > self.max_frac {
                breaches += 1;
            }
            if worst.map(|(_, w)| frac > w).unwrap_or(true) {
                worst = Some((idx, frac));
            }
        }
        let Some((worst_idx, worst_frac)) = worst else {
            return Verdict::fail(
                self.name(),
                format!("counters ok.{0}/err.{0} never recorded", self.prefix),
            );
        };
        let detail = format!(
            "err rate of {} <= {:?} over {windows} windows; worst {:?} in window {worst_idx}; {breaches} breached",
            self.prefix, self.max_frac, worst_frac
        );
        if breaches == 0 {
            Verdict::pass(self.name(), detail)
        } else {
            Verdict::fail(self.name(), detail)
        }
    }
}

/// A recovery-time budget: after every node crash, deliveries must resume
/// (some later timeline bucket with `delivered > 0`) within the budget.
/// Declared as `expect slo_recovery <budget_secs>`.
///
/// The crashes come from the engine's own list
/// ([`node_crashes`](dcdo_sim::Simulation::node_crashes)), not the span
/// log, so they count even in a run with spans off (the runner always
/// turns spans on).
#[derive(Debug)]
pub struct SloRecovery {
    budget_secs: f64,
}

impl SloRecovery {
    /// Requires post-crash delivery resumption within `budget_secs`.
    pub fn new(budget_secs: f64) -> Self {
        SloRecovery { budget_secs }
    }
}

impl Expectation for SloRecovery {
    fn name(&self) -> &str {
        "slo_recovery"
    }

    fn judge(&mut self, cx: &RunCx) -> Verdict {
        let Some(sim) = cx.world.sim() else {
            return Verdict::fail(self.name(), "no world was built".to_string());
        };
        let timeline = sim.timeline();
        let bucket_ns = timeline.bucket_ns();
        let end_ns = timeline
            .buckets()
            .last()
            .map(|(idx, _)| (idx + 1) * bucket_ns)
            .unwrap_or(0);
        let crashes = sim.node_crashes().len() as u64;
        let mut breaches = 0u64;
        let mut worst: Option<f64> = None;
        for crash in sim.node_crashes() {
            let at_ns = crash.as_nanos();
            // Resumption at bucket granularity: the first bucket strictly
            // after the crash's with deliveries. (The crash's own bucket
            // may mix pre-crash traffic, so it cannot witness recovery.)
            let resumed = timeline
                .buckets_from(at_ns / bucket_ns + 1)
                .find(|(_, b)| b.stats.delivered > 0)
                .map(|(idx, _)| (idx + 1) * bucket_ns);
            let recovery_s = match resumed {
                Some(resumed_ns) => (resumed_ns - at_ns) as f64 / 1e9,
                None => {
                    // No resumption observed: only a breach if the run gave
                    // it a fair chance (the budget elapsed before the
                    // timeline ended).
                    let waited = end_ns.saturating_sub(at_ns) as f64 / 1e9;
                    if waited > self.budget_secs {
                        breaches += 1;
                        if worst.map(|w| waited > w).unwrap_or(true) {
                            worst = Some(waited);
                        }
                    }
                    continue;
                }
            };
            if recovery_s > self.budget_secs {
                breaches += 1;
            }
            if worst.map(|w| recovery_s > w).unwrap_or(true) {
                worst = Some(recovery_s);
            }
        }
        if crashes == 0 {
            return Verdict::pass(self.name(), "no crashes to recover from".to_string());
        }
        let detail = format!(
            "recovery <= {:?}s after {crashes} crash(es); worst {}; {breaches} breached",
            self.budget_secs,
            worst.map_or("n/a".to_string(), |w| format!("{w:?}s")),
        );
        if breaches == 0 {
            Verdict::pass(self.name(), detail)
        } else {
            Verdict::fail(self.name(), detail)
        }
    }
}

/// Parses a quantile token for `slo_latency`: `p50`, `p90`, `p95`, `p99`,
/// or an explicit `q=0.75`.
fn parse_quantile(token: &str) -> Option<f64> {
    if let Some(rest) = token.strip_prefix("q=") {
        let q: f64 = rest.parse().ok()?;
        (0.0..=1.0).contains(&q).then_some(q)
    } else {
        let pct: f64 = token.strip_prefix('p')?.parse().ok()?;
        (0.0..=100.0).contains(&pct).then_some(pct / 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_tokens_parse() {
        assert_eq!(parse_quantile("p50"), Some(0.5));
        assert_eq!(parse_quantile("p99"), Some(0.99));
        assert_eq!(parse_quantile("q=0.75"), Some(0.75));
        assert_eq!(parse_quantile("p101"), None);
        assert_eq!(parse_quantile("q=1.5"), None);
        assert_eq!(parse_quantile("50"), None);
    }

    #[test]
    fn quantile_labels_echo_the_declaration() {
        // A quantile is reported as declared: `q=0.999` must not read as
        // `p100`, the maximum.
        for (token, q) in [("p50", 0.5), ("p99", 0.99), ("q=0.999", 0.999)] {
            let slo = SloLatency::new("lat.rpc", token, 1.0).expect("a quantile");
            assert_eq!((slo.q_label.as_str(), slo.q), (token, q));
        }
        let slo = SloLatency::new("lat.rpc", "p99.9", 1.0).expect("a quantile");
        assert_eq!(slo.q_label, "p99.9");
        assert!((slo.q - 0.999).abs() < 1e-12);
        assert!(SloLatency::new("lat.rpc", "p101", 1.0).is_none());
    }
}
