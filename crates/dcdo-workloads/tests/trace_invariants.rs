//! The trace-invariant suite: every sim-bench workload runs with
//! structured span tracing enabled, and the invariant checker finds nothing
//! — plus a planted-violation negative control per invariant class
//! (DESIGN.md §9). The declared scenarios (manager flows, RPC retry storms,
//! fault injection) carry the same check as their `trace_invariants`
//! expectation, pinned by `dcdo-scenario`'s `golden_parity.rs`.

use dcdo_sim::{check_trace_invariants, Simulation, SpanKind};
use dcdo_workloads::simbench;
use legion_substrate::Msg;

/// Runs a built sim to completion with spans on and asserts a clean check.
/// Returns the span digest for determinism assertions.
fn run_checked(mut sim: Simulation<Msg>, budget: u64, name: &str) -> u64 {
    sim.spans_mut().enable();
    sim.run_with_budget(budget);
    sim.run_until_idle();
    let violations = check_trace_invariants(sim.spans());
    assert!(
        violations.is_empty(),
        "{name}: {} invariant violation(s), first: {}",
        violations.len(),
        violations[0]
    );
    assert!(!sim.spans().is_empty(), "{name}: tracing recorded nothing");
    sim.spans().digest()
}

#[test]
fn ping_pong_trace_is_clean_and_deterministic() {
    let (sim, budget) = simbench::ping_pong_sim(200);
    let a = run_checked(sim, budget, "ping_pong");
    let (sim, budget) = simbench::ping_pong_sim(200);
    let b = run_checked(sim, budget, "ping_pong");
    assert_eq!(a, b, "same build, same seed: span digests must match");
}

#[test]
fn fan_out_trace_is_clean_and_deterministic() {
    let (sim, budget) = simbench::fan_out_sim(20, 8, 16);
    let a = run_checked(sim, budget, "fan_out");
    let (sim, budget) = simbench::fan_out_sim(20, 8, 16);
    let b = run_checked(sim, budget, "fan_out");
    assert_eq!(a, b);
    // The wide variant: 16 hubs on the calibrated network, every lane busy.
    let (sim, budget) = simbench::fan_out_wide_sim(12, 48, 16);
    let a = run_checked(sim, budget, "fan_out_wide");
    let (sim, budget) = simbench::fan_out_wide_sim(12, 48, 16);
    let b = run_checked(sim, budget, "fan_out_wide");
    assert_eq!(a, b);
}

#[test]
fn timer_heavy_trace_is_clean_and_deterministic() {
    let (sim, budget) = simbench::timer_heavy_sim(8, 50);
    let a = run_checked(sim, budget, "timer_heavy");
    let (sim, budget) = simbench::timer_heavy_sim(8, 50);
    let b = run_checked(sim, budget, "timer_heavy");
    assert_eq!(a, b);
}

#[test]
fn transfer_heavy_trace_is_clean_and_deterministic() {
    let (sim, budget) = simbench::transfer_heavy_sim(4, 6);
    let a = run_checked(sim, budget, "transfer_heavy");
    let (sim, budget) = simbench::transfer_heavy_sim(4, 6);
    let b = run_checked(sim, budget, "transfer_heavy");
    assert_eq!(a, b);
}

#[test]
fn causal_parents_link_deliveries_to_sends() {
    let (mut sim, budget) = simbench::ping_pong_sim(50);
    sim.spans_mut().enable();
    sim.run_with_budget(budget);
    // Every MsgDelivered must be parented to the MsgSent that caused it.
    // (The driver's kick message is posted before tracing is enabled, so
    // exactly that one delivery may be parentless.)
    let mut checked = 0;
    let mut orphans = 0;
    for e in sim.spans().events() {
        if let SpanKind::MsgDelivered { .. } = e.kind {
            let Some(parent) = e.parent else {
                orphans += 1;
                continue;
            };
            let cause = sim.spans().get(parent).expect("parent span exists");
            assert!(
                matches!(cause.kind, SpanKind::MsgSent { .. }),
                "delivery parented to {} instead of a send",
                cause.kind.name()
            );
            checked += 1;
        }
    }
    assert!(orphans <= 1, "only the pre-tracing kick may be parentless");
    assert!(checked > 50, "expected many deliveries, saw {checked}");
}

#[test]
fn disabled_tracing_records_nothing() {
    let (mut sim, budget) = simbench::ping_pong_sim(50);
    sim.run_with_budget(budget);
    assert!(sim.spans().is_empty());
    assert_eq!(check_trace_invariants(sim.spans()), vec![]);
}

#[test]
fn chrome_trace_round_trips_real_run() {
    let (mut sim, budget) = simbench::fan_out_sim(4, 4, 8);
    sim.spans_mut().enable();
    sim.run_with_budget(budget);
    let json = sim.spans().to_chrome_trace();
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.ends_with("]}\n") || json.ends_with("]}"));
    let jsonl = sim.spans().to_jsonl();
    assert_eq!(jsonl.lines().count(), sim.spans().len());
}

#[test]
fn negative_control_checker_sees_planted_violations() {
    // End-to-end negative test: a clean run's log plus one hand-planted bad
    // event per invariant class must produce exactly those violations.
    use dcdo_sim::{FlowKind, Violation};
    let (mut sim, budget) = simbench::ping_pong_sim(10);
    sim.spans_mut().enable();
    sim.run_with_budget(budget);
    assert!(check_trace_invariants(sim.spans()).is_empty());

    let spans = sim.spans_mut();
    // 1. Delivery to a crashed node.
    spans.emit(
        0,
        dcdo_sim::NO_NODE,
        None,
        SpanKind::NodeCrashed { node: 1 },
    );
    spans.emit(
        0,
        1,
        None,
        SpanKind::MsgDelivered {
            src: 0,
            dst: 1,
            dst_node: 1,
        },
    );
    // 2. Leaked flow.
    spans.emit(
        0,
        0,
        None,
        SpanKind::FlowStarted {
            flow: 999,
            object: 9,
            kind: FlowKind::Update,
        },
    );
    // 3. Generation regression.
    spans.emit(
        0,
        0,
        None,
        SpanKind::GenerationStamp {
            object: 9,
            generation: 10,
        },
    );
    spans.emit(
        0,
        0,
        None,
        SpanKind::GenerationStamp {
            object: 9,
            generation: 5,
        },
    );
    // 4. Dangling retry chain (caller's node stays up).
    spans.emit(
        0,
        0,
        None,
        SpanKind::RpcAttempt {
            call: 777,
            object: 9,
            attempt: 1,
            dst: 3,
        },
    );
    // 5. Serving before re-registration.
    spans.emit(
        0,
        0,
        None,
        SpanKind::FlowStarted {
            flow: 1000,
            object: 11,
            kind: FlowKind::Recover,
        },
    );
    spans.emit(
        0,
        0,
        None,
        SpanKind::CallServed {
            object: 11,
            call: 5,
        },
    );
    spans.emit(0, 0, None, SpanKind::FlowCompleted { flow: 1000 });

    let violations = check_trace_invariants(sim.spans());
    assert!(violations
        .iter()
        .any(|v| matches!(v, Violation::DeliveredToDeadNode { dst_node: 1, .. })));
    assert!(violations
        .iter()
        .any(|v| matches!(v, Violation::LeakedFlow { flow: 999, .. })));
    assert!(violations
        .iter()
        .any(|v| matches!(v, Violation::GenerationRegressed { object: 9, .. })));
    assert!(violations
        .iter()
        .any(|v| matches!(v, Violation::DanglingRetryChain { call: 777 })));
    assert!(violations
        .iter()
        .any(|v| matches!(v, Violation::ServedBeforeReregister { object: 11, .. })));
    assert_eq!(violations.len(), 5, "exactly the planted violations");
}
