//! The scenario report and its deterministic JSON export.
//!
//! Everything in a [`ScenarioReport`] is derived from deterministic
//! simulation state, so two same-seed runs of the same scenario serialize
//! to byte-identical JSON. The CI scenario matrix diffs release and debug
//! exports against the committed goldens to enforce exactly that.

use std::fmt::Write as _;

use crate::expect::Verdict;

/// The outcome of one scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// The scenario's name.
    pub name: String,
    /// The seed the run used.
    pub seed: u64,
    /// Whether every expectation verdict passed.
    pub passed: bool,
    /// Word fold of the execution-trace ring (`dcdo_chaos::trace_hash`).
    pub trace_hash: u64,
    /// Word-fold digest of the structured span log (integer-only, stable
    /// across build profiles).
    pub span_digest: u64,
    /// Word-fold digest of the flight-recorder ring (same stability
    /// guarantees as the span digest).
    pub flight_digest: u64,
    /// Engine events processed over the whole run.
    pub events_processed: u64,
    /// Events still pending after the drain — leaks; expected 0.
    pub leaked_events: u64,
    /// Trace-invariant violations found in the span log (informational;
    /// add the `trace_invariants` expectation to make them fail the run).
    pub trace_violations: u64,
    /// Failed `slo_*` expectation verdicts — breached SLO watchdogs.
    pub slo_breaches: u64,
    /// Ticks each weighted workload received, in declaration order
    /// (tick windows only).
    pub ticks: Vec<(String, u64)>,
    /// Workload/runner counters, sorted by key.
    pub counters: Vec<(String, u64)>,
    /// Workload/runner gauges, sorted by key.
    pub gauges: Vec<(String, f64)>,
    /// Every expectation's judgement, in declaration order.
    pub verdicts: Vec<Verdict>,
}

impl ScenarioReport {
    /// Serializes the report as a deterministic JSON object: fixed key
    /// order, sorted maps, hashes as zero-padded hex, floats via Rust's
    /// shortest-round-trip `{:?}` formatting.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        let _ = write!(out, "\"scenario\":{}", esc(&self.name));
        let _ = write!(out, ",\"seed\":{}", self.seed);
        let _ = write!(out, ",\"passed\":{}", self.passed);
        let _ = write!(out, ",\"trace_hash\":\"{:016x}\"", self.trace_hash);
        let _ = write!(out, ",\"span_digest\":\"{:016x}\"", self.span_digest);
        let _ = write!(out, ",\"flight_digest\":\"{:016x}\"", self.flight_digest);
        let _ = write!(out, ",\"events_processed\":{}", self.events_processed);
        let _ = write!(out, ",\"leaked_events\":{}", self.leaked_events);
        let _ = write!(out, ",\"trace_violations\":{}", self.trace_violations);
        let _ = write!(out, ",\"slo_breaches\":{}", self.slo_breaches);
        out.push_str(",\"ticks\":{");
        for (i, (name, n)) in self.ticks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", esc(name), n);
        }
        out.push_str("},\"counters\":{");
        for (i, (key, n)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", esc(key), n);
        }
        out.push_str("},\"gauges\":{");
        for (i, (key, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", esc(key), num(*v));
        }
        out.push_str("},\"expectations\":[");
        for (i, v) in self.verdicts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"passed\":{},\"detail\":{}}}",
                esc(&v.expectation),
                v.passed,
                esc(&v.detail)
            );
        }
        out.push_str("]}");
        out
    }

    /// Renders the human-readable verdict table `dcdo-inspect` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "scenario {} (seed {}): {}",
            self.name,
            self.seed,
            if self.passed { "PASS" } else { "FAIL" }
        );
        let _ = writeln!(
            out,
            "  trace_hash {:016x}  span_digest {:016x}  flight_digest {:016x}",
            self.trace_hash, self.span_digest, self.flight_digest
        );
        let _ = writeln!(
            out,
            "  events {}  leaked {}  slo_breaches {}",
            self.events_processed, self.leaked_events, self.slo_breaches
        );
        if !self.ticks.is_empty() {
            let mix = self
                .ticks
                .iter()
                .map(|(name, n)| format!("{name}={n}"))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(out, "  ticks: {mix}");
        }
        for v in &self.verdicts {
            let _ = writeln!(
                out,
                "  [{}] {}: {}",
                if v.passed { "ok" } else { "FAIL" },
                v.expectation,
                v.detail
            );
        }
        out
    }
}

/// JSON string escaping (quotes, backslashes, control characters).
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Deterministic float formatting: Rust's shortest-round-trip `{:?}`
/// (platform-independent), `null` for non-finite values.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioReport {
        ScenarioReport {
            name: "demo \"quoted\"".to_string(),
            seed: 7,
            passed: false,
            trace_hash: 0xabc,
            span_digest: 0xdef,
            flight_digest: 0x123,
            events_processed: 10,
            leaked_events: 0,
            trace_violations: 1,
            slo_breaches: 0,
            ticks: vec![("calls".to_string(), 9)],
            counters: vec![("calls.ok".to_string(), 9)],
            gauges: vec![("mix.calls.observed".to_string(), 0.9)],
            verdicts: vec![Verdict::fail(
                "trace_invariants",
                "1 violations".to_string(),
            )],
        }
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let a = sample().to_json();
        let b = sample().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"scenario\":\"demo \\\"quoted\\\"\",\"seed\":7,\"passed\":false"));
        assert!(a.contains("\"trace_hash\":\"0000000000000abc\""));
        assert!(a.contains("\"flight_digest\":\"0000000000000123\""));
        assert!(a.contains("\"slo_breaches\":0"));
        assert!(a.contains("\"ticks\":{\"calls\":9}"));
        assert!(a.contains("\"gauges\":{\"mix.calls.observed\":0.9}"));
        assert!(a.contains("\"expectations\":[{\"name\":\"trace_invariants\",\"passed\":false,"));
    }

    #[test]
    fn non_finite_gauges_serialize_as_null() {
        let mut report = sample();
        report.gauges = vec![("bad".to_string(), f64::NAN)];
        assert!(report.to_json().contains("\"bad\":null"));
    }

    #[test]
    fn render_is_human_readable() {
        let text = sample().render();
        assert!(text.contains("FAIL"));
        assert!(text.contains("[FAIL] trace_invariants: 1 violations"));
        assert!(text.contains("ticks: calls=9"));
    }
}
