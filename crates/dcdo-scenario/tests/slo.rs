//! SLO watchdog controls: a planted breach must fail the scenario and
//! produce a non-empty full-fidelity flight dump; the declared scenarios'
//! shipped SLO lines must pass.

use dcdo_scenario::{registry, run_artifacts, Scenario};

fn with_extra_expect(name: &str, line: &str) -> Scenario {
    let text = registry::declared_text(name).expect("declared scenario");
    Scenario::from_text(&format!("{text}\nexpect {line}\n")).expect("parses")
}

#[test]
fn planted_latency_breach_fails_and_dumps_flight() {
    // 1 ns p99 bound on flow latency: impossible, every window breaches.
    let scenario = with_extra_expect("mixed_traffic", "slo_latency lat.flow p99 0.000000001");
    let a = run_artifacts(scenario, None).expect("runs");
    assert!(!a.report.passed, "planted breach must fail the scenario");
    assert!(a.slo_breached);
    assert!(a.report.slo_breaches >= 1);
    let breach = a
        .report
        .verdicts
        .iter()
        .find(|v| v.expectation == "slo_latency" && !v.passed)
        .expect("breached slo_latency verdict");
    assert!(breach.detail.contains("breached"), "{}", breach.detail);
    // The breach comes with a usable full-fidelity flight dump.
    let flight = a.flight.expect("world was built");
    assert!(flight.frames_recorded > 0, "flight recorder was on");
    assert!(flight.total_flows > 0);
    assert!(!flight.to_json().is_empty());
    assert!(flight.render().contains("flow"));
}

#[test]
fn planted_error_rate_breach_fails() {
    // The derived series exist but the counters named here never will.
    let scenario = with_extra_expect("mixed_traffic", "slo_error_rate nosuch 0.5");
    let a = run_artifacts(scenario, None).expect("runs");
    assert!(!a.report.passed);
    assert!(a.slo_breached);
}

#[test]
fn planted_recovery_breach_fails() {
    // The coordinator crash recovers in ~0.18s; a 1 ms budget must breach.
    let scenario = with_extra_expect("rolling_upgrade_coord_crash", "slo_recovery 0.001");
    let a = run_artifacts(scenario, None).expect("runs");
    assert!(!a.report.passed);
    assert!(a.report.slo_breaches >= 1);
    let breach = a
        .report
        .verdicts
        .iter()
        .find(|v| v.expectation == "slo_recovery" && !v.passed)
        .expect("breached slo_recovery verdict");
    assert!(breach.detail.contains("crash"), "{}", breach.detail);
}

#[test]
fn shipped_slo_lines_pass_everywhere() {
    for (name, _) in registry::declared() {
        let scenario = registry::load_declared(name).expect("loads");
        let a = run_artifacts(scenario, None).expect("runs");
        assert!(a.report.passed, "{name}: {}", a.report.render());
        assert_eq!(a.report.slo_breaches, 0, "{name}");
        assert!(!a.slo_breached, "{name}");
    }
}

#[test]
fn artifacts_carry_timeline_and_flight() {
    let scenario = registry::load_declared("mixed_traffic").expect("loads");
    let mut a = run_artifacts(scenario, None).expect("runs");
    assert!(a.timeline_json.contains("\"bucket_ns\""));
    assert!(a.timeline_json.contains("\"delivered\""));
    // The derived series land in the same timeline as the hot-path stats.
    assert!(a.timeline_json.contains("\"lat.rpc\""));
    assert!(a.timeline_json.contains("\"ok.rpc\""));
    // The Prometheus text is rendered on request, from the same timeline.
    let prom = a.timeline.to_prometheus();
    assert!(prom.contains("dcdo_window_events"));
    assert!(prom.contains("dcdo_window_series"));
    assert_eq!(a.timeline.to_json(), a.timeline_json);
    let flight = a.flight.expect("world was built");
    assert!(flight.frames_recorded > 0);
    assert_eq!(a.report.flight_digest, flight.ring_digest);
    // Report JSON carries the new observability fields.
    let json = a.report.to_json();
    assert!(json.contains("\"flight_digest\":\""));
    assert!(json.contains("\"slo_breaches\":0"));
}
