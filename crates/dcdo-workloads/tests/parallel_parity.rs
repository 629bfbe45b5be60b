//! The parallel engine's acceptance oracle: every sim-bench workload must
//! produce **byte-identical** span digests and execution traces at every
//! thread count. (The declared scenarios — chaos compositions included —
//! are held to the same standard by `dcdo-scenario`'s `flight_parity.rs`
//! and `golden_parity.rs`.)
//!
//! The sharded runner (DESIGN.md §11) claims that conservative lookahead
//! plus the `(time, lane, seq)` merge reproduces the sequential execution
//! exactly — not merely an equivalent one. These tests hold it to that:
//! the digests from `threads = 1` (the sole-threaded loop, no sharding
//! machinery at all) are compared against runs at 2, 4, and 8 worker
//! threads.

use dcdo_sim::{check_trace_invariants, Simulation};
use dcdo_workloads::simbench;
use legion_substrate::Msg;

const THREAD_COUNTS: [u32; 3] = [2, 4, 8];

/// Runs a built workload sim at `threads` workers with spans and the
/// execution trace on; returns `(span digest, trace hash)` after asserting
/// a clean invariant check.
fn run_digests(mut sim: Simulation<Msg>, budget: u64, threads: u32, name: &str) -> (u64, u64) {
    sim.spans_mut().enable();
    sim.trace_mut().enable(1 << 16);
    sim.set_threads(threads);
    sim.run_with_budget(budget);
    sim.run_until_idle();
    let violations = check_trace_invariants(sim.spans());
    assert!(
        violations.is_empty(),
        "{name} @ {threads} threads: {} violation(s), first: {}",
        violations.len(),
        violations[0]
    );
    assert!(!sim.spans().is_empty(), "{name}: tracing recorded nothing");
    (sim.spans().digest(), dcdo_chaos::trace_hash(sim.trace()))
}

/// Asserts a workload builder produces identical digests at 1/2/4/8
/// threads.
fn assert_workload_parity(name: &str, build: impl Fn() -> (Simulation<Msg>, u64)) {
    let (sim, budget) = build();
    let sequential = run_digests(sim, budget, 1, name);
    for threads in THREAD_COUNTS {
        let (sim, budget) = build();
        let parallel = run_digests(sim, budget, threads, name);
        assert_eq!(
            sequential, parallel,
            "{name}: digests diverged at {threads} threads \
             (sequential (span, trace) = {sequential:?}, parallel = {parallel:?})"
        );
    }
}

#[test]
fn ping_pong_parity() {
    assert_workload_parity("ping_pong", || simbench::ping_pong_sim(200));
}

#[test]
fn fan_out_parity() {
    assert_workload_parity("fan_out", || simbench::fan_out_sim(20, 8, 16));
}

#[test]
fn fan_out_wide_parity() {
    assert_workload_parity("fan_out_wide", || simbench::fan_out_wide_sim(12, 48, 16));
}

#[test]
fn timer_heavy_parity() {
    assert_workload_parity("timer_heavy", || simbench::timer_heavy_sim(8, 50));
}

#[test]
fn transfer_heavy_parity() {
    assert_workload_parity("transfer_heavy", || simbench::transfer_heavy_sim(4, 6));
}
