//! The `mixed_traffic` declared scenario — the first declaration-only
//! workload (no hand-written driver exists anywhere in the repo) — and the
//! weighted-selection machinery behind it.
//!
//! Covers the determinism contract end to end: same-seed runs are
//! byte-identical (trace hash, span digest, and the full JSON export), and
//! the empirical traffic mix converges to the declared weights within a
//! seed-stable bound.

use proptest::prelude::*;

use dcdo_scenario::{registry, run, MixConverged, NetKind, RunCx, Scenario, Topology, Workload};

fn mixed_traffic() -> Scenario {
    registry::load_declared("mixed_traffic").expect("declared scenario exists")
}

#[test]
fn mixed_traffic_passes_every_expectation() {
    let report = run(mixed_traffic()).expect("valid scenario");
    assert!(report.passed, "{}", report.render());
    assert_eq!(report.leaked_events, 0);
    assert_eq!(report.trace_violations, 0);
    // The mix actually exercised all three traffic families.
    let ticks: std::collections::BTreeMap<_, _> = report.ticks.iter().cloned().collect();
    assert!(ticks["calls"] > 0, "calls never stepped");
    assert!(ticks["config_ops"] > 0, "config_ops never stepped");
    assert!(ticks["migrations"] > 0, "migrations never stepped");
    assert_eq!(
        ticks.values().sum::<u64>(),
        400,
        "every tick stepped exactly one workload"
    );
}

#[test]
fn mixed_traffic_same_seed_same_bytes() {
    let a = run(mixed_traffic()).expect("valid");
    let b = run(mixed_traffic()).expect("valid");
    assert_eq!(a.trace_hash, b.trace_hash, "execution traces diverged");
    assert_eq!(a.span_digest, b.span_digest, "span logs diverged");
    assert_eq!(a.to_json(), b.to_json(), "JSON exports diverged");
}

#[test]
fn mixed_traffic_different_seed_different_mix_same_totals() {
    let a = run(mixed_traffic()).expect("valid");
    let b = run(mixed_traffic().with_seed(43)).expect("valid");
    assert_ne!(
        a.trace_hash, b.trace_hash,
        "different seeds produced identical traces"
    );
    assert!(b.passed, "{}", b.render());
}

// ---------------------------------------------------------------------------
// Weighted-selection property: a cheap no-op workload isolates the
// runner's draw machinery from RPC traffic, so convergence can be checked
// over many seeds quickly.

struct Noop(&'static str);

impl Workload for Noop {
    fn name(&self) -> &str {
        self.0
    }

    fn step(&mut self, _cx: &mut RunCx, _tick: u64) {}
}

fn selector_scenario(seed: u64, ticks: u64) -> Scenario {
    Scenario::builder("selector_probe")
        .seed(seed)
        .topology(Topology::bare(4, NetKind::Centurion))
        .ticks(ticks)
        .workload(80, Noop("hot"))
        .workload(15, Noop("warm"))
        .workload(5, Noop("cold"))
        .expect(MixConverged::new(0.05))
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over arbitrary seeds, the empirical mix frequencies converge to the
    /// declared 80/15/5 weights within a seed-stable bound (tolerance 0.05
    /// at 1500 draws is > 5 sigma for each share), and the whole draw
    /// sequence is reproducible.
    #[test]
    fn weighted_mix_converges(seed in any::<u64>()) {
        let report = run(selector_scenario(seed, 1500)).expect("valid scenario");
        prop_assert!(report.passed, "{}", report.render());
        let again = run(selector_scenario(seed, 1500)).expect("valid scenario");
        prop_assert_eq!(report.ticks, again.ticks);
    }
}

#[test]
fn weighted_mix_exact_shares_are_reported() {
    let report = run(selector_scenario(7, 1000)).expect("valid scenario");
    let gauges: std::collections::BTreeMap<_, _> = report.gauges.iter().cloned().collect();
    assert_eq!(gauges["mix.hot.expected"], 0.8);
    assert_eq!(gauges["mix.warm.expected"], 0.15);
    assert_eq!(gauges["mix.cold.expected"], 0.05);
    let observed_sum =
        gauges["mix.hot.observed"] + gauges["mix.warm.observed"] + gauges["mix.cold.observed"];
    assert!((observed_sum - 1.0).abs() < 1e-9, "shares must sum to 1");
}
