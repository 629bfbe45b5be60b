//! Golden parity: every declared scenario's full report — trace hash, span
//! digest, flight digest, event count, counters, gauges, verdicts — is
//! pinned byte-for-byte by the committed `BENCH_scenarios.json` (the
//! output of `dcdo-inspect scenario all`). The runs use the process-default
//! thread count, so `DCDO_SIM_THREADS=4 cargo test` holds the sharded
//! engine — episodes included — to the same bytes.
//!
//! The episode scenarios are additionally compared against direct runs of
//! the drivers they wrap (`reconfig_run`, the sim-bench shapes), guarding
//! the wiring between episode and runner.

use dcdo_chaos::trace_hash;
use dcdo_scenario::{registry, run, run_artifacts, Scenario};
use dcdo_workloads::{reconfig, simbench};

/// The committed output of `dcdo-inspect scenario all`.
const GOLDEN: &str = include_str!("../../../BENCH_scenarios.json");

fn declared(name: &str) -> Scenario {
    registry::load_declared(name).expect("declared scenario exists")
}

#[test]
fn committed_goldens_pin_every_declared_scenario() {
    let reports: Vec<String> = registry::declared()
        .iter()
        .map(|(name, _)| run(declared(name)).expect("valid scenario").to_json())
        .collect();
    for (report, (name, _)) in reports.iter().zip(registry::declared()) {
        assert!(
            GOLDEN.contains(report.as_str()),
            "{name} diverged from BENCH_scenarios.json; now reports:\n{report}"
        );
    }
    assert_eq!(
        format!("{{\"scenarios\":[{}]}}\n", reports.join(",")),
        GOLDEN,
        "regenerate with `dcdo-inspect scenario all` only for an intended change"
    );
}

#[test]
fn chaos_scenarios_replay_per_seed_and_diverge_across_seeds() {
    for name in [
        "crash_during_reconfig",
        "rolling_partition",
        "restart_storm",
    ] {
        let at = |seed| run(declared(name).with_seed(seed)).expect("valid scenario");
        let (a, b) = (at(7), at(7));
        assert!(a.passed, "{}", a.render());
        assert_eq!(a.to_json(), b.to_json(), "{name}: same seed must replay");
        assert_ne!(
            a.trace_hash,
            at(8).trace_hash,
            "{name}: different seeds should explore different schedules"
        );
    }
}

#[test]
fn reconfig_matches_direct_run() {
    let mut direct = reconfig::reconfig_run(42, false);
    direct.bed.sim.run_until_idle();
    let report = run(declared("reconfig")).expect("valid scenario");
    assert_eq!(report.trace_hash, trace_hash(direct.bed.sim.trace()));
    assert_eq!(report.span_digest, direct.bed.sim.spans().digest());
    assert!(report.passed, "{}", report.render());
}

fn direct_simbench(
    build: impl FnOnce() -> (dcdo_sim::Simulation<legion_substrate::Msg>, u64),
) -> (u64, u64) {
    let (mut sim, budget) = build();
    sim.trace_mut().enable(1 << 18);
    sim.spans_mut().enable();
    sim.run_with_budget(budget);
    sim.run_until_idle();
    (trace_hash(sim.trace()), sim.spans().digest())
}

#[test]
fn ping_pong_matches_direct_run() {
    let (hash, digest) = direct_simbench(|| simbench::ping_pong_sim(200));
    let report = run(declared("ping_pong")).expect("valid scenario");
    assert_eq!(report.trace_hash, hash);
    assert_eq!(report.span_digest, digest);
    assert!(report.passed, "{}", report.render());
}

#[test]
fn fan_out_matches_direct_run() {
    let (hash, digest) = direct_simbench(|| simbench::fan_out_sim(20, 8, 16));
    let report = run(declared("fan_out")).expect("valid scenario");
    assert_eq!(report.trace_hash, hash);
    assert_eq!(report.span_digest, digest);
    assert!(report.passed, "{}", report.render());
}

#[test]
fn transfer_heavy_matches_direct_run() {
    let (hash, digest) = direct_simbench(|| simbench::transfer_heavy_sim(4, 6));
    let report = run(declared("transfer_heavy")).expect("valid scenario");
    assert_eq!(report.trace_hash, hash);
    assert_eq!(report.span_digest, digest);
    assert!(report.passed, "{}", report.render());
}

#[test]
fn every_declared_scenario_loads_validates_and_passes() {
    for (name, _text) in registry::declared() {
        let scenario = declared(name);
        scenario.validate().expect("declared scenario validates");
        let report = run(scenario).expect("valid scenario");
        assert!(
            report.passed,
            "declared scenario {name}:\n{}",
            report.render()
        );
        assert_eq!(report.leaked_events, 0, "{name} leaked events");
        assert_eq!(report.trace_violations, 0, "{name} violated invariants");
    }
}

#[test]
fn rolling_upgrade_parity_holds_at_four_threads() {
    let seq = run(declared("rolling_upgrade")).expect("valid scenario");
    assert!(seq.passed, "{}", seq.render());
    let par = run_artifacts(declared("rolling_upgrade"), Some(4))
        .expect("valid")
        .report;
    assert_eq!(par.trace_hash, seq.trace_hash, "sharded run diverged");
    assert_eq!(par.span_digest, seq.span_digest);
    assert_eq!(
        par.counters, seq.counters,
        "counters diverged across threads"
    );
}

#[test]
fn rolling_upgrade_coord_crash_parity_holds_at_four_threads() {
    let seq = run(declared("rolling_upgrade_coord_crash")).expect("valid scenario");
    assert!(seq.passed, "{}", seq.render());
    let par = run_artifacts(declared("rolling_upgrade_coord_crash"), Some(4))
        .expect("valid")
        .report;
    assert_eq!(par.trace_hash, seq.trace_hash, "sharded run diverged");
    assert_eq!(par.span_digest, seq.span_digest);
    assert_eq!(
        par.counters, seq.counters,
        "counters diverged across threads"
    );
}

#[test]
fn retained_flight_trees_are_pinned() {
    // The report fingerprint carries only the ring digest; this pins the
    // tail sampler's retained causal trees themselves.
    for (name, fnv) in [
        ("mixed_traffic", 0x8c17_c880_9000_f036u64),
        ("crash_during_reconfig", 0xa8ac_1f9f_b839_7db1u64),
    ] {
        let flight = run_artifacts(declared(name), None)
            .expect("valid scenario")
            .flight
            .expect("a world was built");
        let got = dcdo_sim::fn_hash(&flight.to_json());
        assert_eq!(
            got, fnv,
            "{name}: flight.to_json() changed, now hashes {got:#018x}"
        );
    }
}

/// Recomputes every span-log witness from the spans a run hands back and
/// compares it with what the run reported: the move out of the simulation
/// lost nothing, and the one checker verdict the expectation, the report
/// and the tail sampler shared is the real one (the planted-violation
/// negative control covers a non-empty verdict).
#[test]
fn returned_spans_recompute_every_reported_witness() {
    use dcdo_sim::{check_trace_invariants, tail_sample, FlightDump, FlightRecorder, TraceLog};
    let summary = |dump: &FlightDump| -> Vec<(u64, bool, bool, bool, usize)> {
        dump.flows
            .iter()
            .map(|f| (f.flow, f.aborted, f.violating, f.slow, f.spans.len()))
            .collect()
    };
    for (name, _) in registry::declared() {
        let artifacts = run_artifacts(declared(name), None).expect("valid scenario");
        let report = artifacts.report;
        let log = TraceLog::from_events(artifacts.spans);
        assert_eq!(log.digest(), report.span_digest, "{name}: span digest");
        assert_eq!(
            check_trace_invariants(&log).len() as u64,
            report.trace_violations,
            "{name}: violations"
        );
        let flight = artifacts.flight.expect("a world was built");
        assert_eq!(flight.ring_digest, report.flight_digest, "{name}: ring");
        // The ring left with the simulation; the retained flows depend on
        // the span log and the checker only.
        let again = tail_sample(
            &log,
            &FlightRecorder::new(),
            dcdo_scenario::FLIGHT_SLOW_QUANTILE,
        );
        assert_eq!(summary(&again), summary(&flight), "{name}: retained flows");
        assert_eq!(again.total_flows, flight.total_flows, "{name}: flow count");
    }
}
