//! The scenario runner: validate, build, set up, drive, measure, judge.
//!
//! The run sequence (the golden-parity suite pins its trace hashes, span
//! digests, and gauges against the committed `BENCH_scenarios.json`):
//!
//! 1. [`Scenario::validate`] — typed rejection before any state exists.
//! 2. Build the world from the topology (episodes stay pending).
//! 3. Enable execution tracing and span logging.
//! 4. `setup` every workload in declaration order.
//! 5. `capture` every expectation's baseline.
//! 6. Drive the window: timed runs let timers and chaos plans supply the
//!    traffic; tick windows draw one workload per tick by a weighted draw
//!    from the engine's per-lane deterministic RNG stream, so the mix is
//!    a pure function of the seed;
//!    episode windows run each workload's episode hook once.
//! 7. Drain the queue and `measure` every workload, then the post-run pass
//!    over the finished logs, each step once and in this order: derive the
//!    windowed series from the span log → run the trace-invariant checker
//!    (one sweep, kept on the [`RunCx`] for every later reader) → `judge`
//!    every expectation → `trace_hash` and span digest → tail-sample the
//!    flight dump (with the checker's verdict) → move the spans and their
//!    group arena out of the simulation into the [`RunArtifacts`] → render
//!    the timeline JSON and move the finished timeline out too. Nothing
//!    renders the Prometheus text unless a caller asks the returned timeline
//!    for it.
//!
//! The three witnesses are word folds (`dcdo_sim::Fold`: one multiply and
//! one rotate per `u64`, seeded with the element count), never byte hashes.
//! `trace_hash` folds `(at_ns, event code, a, b)` per entry of the legacy
//! execution-trace ring and so witnesses the *tail* of the run: the ring
//! keeps the last [`TRACE_RING_CAPACITY`] engine events, and a longer run
//! evicts the rest ([`RunArtifacts::trace_entries_dropped`] says how many).
//! The span digest covers every field of every span of the run; the flight
//! digest the frame count and the flight ring's retained frames.

use dcdo_sim::{
    tail_sample_checked, FlightDump, GroupArena, NodeId, RpcOutcome, SpanEvent, SpanKind, Timeline,
};

use crate::report::ScenarioReport;
use crate::scenario::{Scenario, Window};
use crate::workload::RunCx;
use crate::ScenarioError;

/// The slowest-percentile cut the runner's tail sampler retains: flows in
/// the slowest 5% keep their full causal span trees in the flight dump.
pub const FLIGHT_SLOW_QUANTILE: f64 = 0.95;

/// Capacity of the legacy execution-trace ring the runner enables: the
/// report's `trace_hash` covers the last this-many engine events.
pub const TRACE_RING_CAPACITY: usize = 1 << 18;

/// Everything a scenario run produces beyond the pass/fail report: the raw
/// span log, the windowed-telemetry exports, and the flight-recorder dump.
/// All of it is deterministic — byte-identical across build profiles.
#[derive(Debug)]
pub struct RunArtifacts {
    /// The pass/fail report (same value [`run`] returns).
    pub report: ScenarioReport,
    /// The run's span log, for post-hoc analyses: moved out of the
    /// simulation, since a copy would hold the log twice.
    /// [`dcdo_sim::TraceLog::from_events`] wraps it again, together with
    /// [`span_groups`](RunArtifacts::span_groups).
    pub spans: Vec<SpanEvent>,
    /// The group arena the `PartitionChanged` spans in
    /// [`spans`](RunArtifacts::spans) point into.
    pub span_groups: GroupArena,
    /// Entries the legacy execution-trace ring evicted: when non-zero,
    /// [`ScenarioReport::trace_hash`] witnesses only the ring's tail (its
    /// last [`TRACE_RING_CAPACITY`] entries), not the whole run.
    pub trace_entries_dropped: u64,
    /// Windowed time-series telemetry as deterministic JSON, rendered with
    /// every run (`benchmark/src/traced.rs` compares it; see ROADMAP.md).
    pub timeline_json: String,
    /// The finished, flushed timeline itself, moved out of the simulation:
    /// the SLO judges' windows, and the source of any further export (e.g.
    /// [`Timeline::to_prometheus`], which only a caller that writes the
    /// text pays for).
    pub timeline: Timeline,
    /// The tail-sampled flight-recorder dump (`None` only when the
    /// scenario never built a world).
    pub flight: Option<FlightDump>,
    /// `true` when any `slo_*` expectation failed — callers should persist
    /// the full-fidelity [`flight`](RunArtifacts::flight) dump.
    pub slo_breached: bool,
}

/// Runs `scenario` to completion and returns only the pass/fail report.
pub fn run(scenario: Scenario) -> Result<ScenarioReport, ScenarioError> {
    run_artifacts(scenario, None).map(|a| a.report)
}

/// Derives the windowed series the SLO watchdogs judge from the span log:
/// flow latencies and outcomes (`lat.flow`, `ok.flow`, `err.flow`), RPC
/// latencies keyed off each call's first attempt (`lat.rpc`, `ok.rpc`,
/// `err.rpc`), and served calls (`served`). A pure function of the span
/// log, written into the engine's timeline so bucketing matches the
/// hot-path stats.
fn derive_windowed_series(cx: &mut RunCx) {
    // Deliberately not `IdMap`: measured twice (PRs 14 and 16), hash tables
    // here are ~2 % faster on `calls_steady` but cost its next set-ups +28 %
    // (their one large allocation is mmapped, and without the B-tree's small
    // nodes growing the heap glibc trims it between set-ups).
    //
    // A start leaves its map at the terminal span, so the maps hold only
    // what is in flight. On every log the invariant checker accepts this
    // yields exactly the samples a lookup that kept every start would: a
    // flow id starts at most once (`DuplicateFlowStart`) and ends at most
    // once (`SpuriousFlowEnd`), a call completes at most once
    // (`DuplicateRpcCompletion`), so no terminal span ever needs a start
    // that an earlier terminal removed.
    use std::collections::BTreeMap;
    let Some(sim) = cx.world.sim() else { return };
    let mut samples: Vec<(u64, &'static str, f64)> = Vec::new();
    let mut counters: Vec<(u64, &'static str, u64)> = Vec::new();
    let mut flow_start: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rpc_start: BTreeMap<u64, u64> = BTreeMap::new();
    for e in sim.spans().events() {
        match &e.kind {
            SpanKind::FlowStarted { flow, .. } => {
                flow_start.entry(*flow).or_insert(e.at_ns);
            }
            SpanKind::FlowCompleted { flow } | SpanKind::FlowAborted { flow } => {
                if let Some(t0) = flow_start.remove(flow) {
                    samples.push((e.at_ns, "lat.flow", (e.at_ns - t0) as f64 / 1e9));
                }
                let completed = matches!(e.kind, SpanKind::FlowCompleted { .. });
                let name = if completed { "ok.flow" } else { "err.flow" };
                counters.push((e.at_ns, name, 1));
            }
            SpanKind::RpcAttempt { call, .. } => {
                rpc_start.entry(*call).or_insert(e.at_ns);
            }
            SpanKind::RpcCompleted { call, outcome } => {
                if let Some(t0) = rpc_start.remove(call) {
                    samples.push((e.at_ns, "lat.rpc", (e.at_ns - t0) as f64 / 1e9));
                }
                let name = match outcome {
                    RpcOutcome::Ok => "ok.rpc",
                    _ => "err.rpc",
                };
                counters.push((e.at_ns, name, 1));
            }
            SpanKind::CallServed { .. } => counters.push((e.at_ns, "served", 1)),
            _ => {}
        }
    }
    let Some(sim) = cx.world.sim_mut() else {
        return;
    };
    let timeline = sim.timeline_mut();
    for (at_ns, name, value) in samples {
        timeline.record_sample(at_ns, name, value);
    }
    for (at_ns, name, delta) in counters {
        timeline.record_counter(at_ns, name, delta);
    }
    timeline.flush();
}

/// Runs `scenario` and returns the full [`RunArtifacts`]: report, span log,
/// timeline exports, and flight-recorder dump.
///
/// `_threads` is ignored (the engine is sequential). It is kept only
/// because `benchmark/src/plain.rs:67` passes `None` and cannot be edited
/// outside a benchmark PR (see ROADMAP.md), which removes the parameter.
pub fn run_artifacts(
    mut scenario: Scenario,
    _threads: Option<u32>,
) -> Result<RunArtifacts, ScenarioError> {
    scenario.validate()?;
    let mut cx = RunCx::new(scenario.seed, scenario.topology.build(scenario.seed));
    if let Some(sim) = cx.world.sim_mut() {
        sim.trace_mut().enable(TRACE_RING_CAPACITY);
        sim.spans_mut().enable();
    }
    for slot in &mut scenario.workloads {
        slot.workload.setup(&mut cx);
    }
    for expectation in &mut scenario.expectations {
        expectation.capture(&cx);
    }

    let mut ticks: Vec<(String, u64)> = Vec::new();
    match scenario.window {
        Window::Timed(d) => {
            let sim = cx.world.sim_mut().expect("validated: built world");
            sim.run_for(d);
            sim.run_until_idle();
        }
        Window::Ticks(n) => {
            // Weighted selection draws from the lane of the service's
            // client node (falling back to node 0's lane): per-lane RNG
            // streams are the engine's determinism backbone, so the draw
            // sequence — and therefore the traffic mix — does not move
            // with what other lanes do.
            let lane_node = cx
                .service
                .map(|s| s.client_node)
                .unwrap_or_else(|| NodeId::from_raw(0));
            let weights: Vec<u64> = scenario.workloads.iter().map(|s| s.weight).collect();
            let total = scenario.total_weight().expect("validated: weights fit u64");
            let mut counts = vec![0u64; weights.len()];
            for tick in 0..n {
                let mut draw = cx
                    .world
                    .sim_mut()
                    .expect("validated: built world")
                    .rng_for(lane_node)
                    .range_u64(0, total);
                let mut picked = 0;
                for (i, &w) in weights.iter().enumerate() {
                    if draw < w {
                        picked = i;
                        break;
                    }
                    draw -= w;
                }
                scenario.workloads[picked].workload.step(&mut cx, tick);
                counts[picked] += 1;
            }
            cx.world
                .sim_mut()
                .expect("validated: built world")
                .run_until_idle();
            for (slot, &count) in scenario.workloads.iter().zip(&counts) {
                if slot.weight == 0 {
                    continue;
                }
                let name = slot.workload.name().to_string();
                cx.gauge(
                    &format!("mix.{name}.expected"),
                    slot.weight as f64 / total as f64,
                );
                cx.gauge(
                    &format!("mix.{name}.observed"),
                    count as f64 / n.max(1) as f64,
                );
                ticks.push((name, count));
            }
        }
        Window::Episode => {
            for slot in &mut scenario.workloads {
                slot.workload.episode(&mut cx);
            }
        }
    }

    for slot in &mut scenario.workloads {
        slot.workload.measure(&mut cx);
    }
    // Fill the timeline's derived series before judging so the SLO
    // watchdogs see the full windowed picture.
    derive_windowed_series(&mut cx);
    // One checker sweep of the finished log serves the expectation, the
    // report and the tail sampler.
    let trace_violations = cx.trace_violations().len() as u64;
    let verdicts: Vec<_> = scenario
        .expectations
        .iter_mut()
        .map(|e| e.judge(&cx))
        .collect();
    let slo_breaches = verdicts
        .iter()
        .filter(|v| !v.passed && v.expectation.starts_with("slo_"))
        .count() as u64;

    let (trace_hash, span_digest, events_processed, leaked_events, trace_entries_dropped, flight) =
        match cx.world.sim() {
            Some(sim) => (
                dcdo_chaos::trace_hash(sim.trace()),
                sim.spans().digest(),
                sim.events_processed(),
                sim.pending_events() as u64,
                sim.trace().dropped(),
                Some(tail_sample_checked(
                    sim.spans(),
                    cx.trace_violations(),
                    sim.flight(),
                    FLIGHT_SLOW_QUANTILE,
                )),
            ),
            None => (0, 0, 0, 0, 0, None),
        };
    // Every reader of the span log has had its turn, so the artifacts take
    // the events and their group arena themselves.
    let ((spans, span_groups), timeline_json, timeline) = match cx.world.sim_mut() {
        Some(sim) => (
            sim.spans_mut().take_events(),
            sim.timeline_mut().to_json(),
            std::mem::take(sim.timeline_mut()),
        ),
        None => (Default::default(), String::new(), Timeline::new()),
    };
    Ok(RunArtifacts {
        report: ScenarioReport {
            name: scenario.name.clone(),
            seed: scenario.seed,
            passed: verdicts.iter().all(|v| v.passed),
            trace_hash,
            span_digest,
            flight_digest: flight.as_ref().map_or(0, |f| f.ring_digest),
            events_processed,
            leaked_events,
            trace_violations,
            slo_breaches,
            ticks,
            counters: cx.counters.into_iter().collect(),
            gauges: cx.gauges.into_iter().collect(),
            verdicts,
        },
        spans,
        span_groups,
        trace_entries_dropped,
        timeline_json,
        timeline,
        flight,
        slo_breached: slo_breaches > 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;
    use crate::workload::CHECKER_RUNS;

    #[test]
    fn the_invariant_checker_runs_once_per_run() {
        let runs = || CHECKER_RUNS.with(|c| c.get());
        // `mixed_traffic` declares `trace_invariants`, so the expectation,
        // the report and the tail sampler all want the verdict.
        let scenario = registry::load_declared("mixed_traffic").expect("declared");
        assert!(scenario
            .expectations
            .iter()
            .any(|e| e.name() == "trace_invariants"));
        let before = runs();
        let artifacts = run_artifacts(scenario, None).expect("valid scenario");
        assert_eq!(runs(), before + 1);
        assert!(artifacts.report.passed, "{}", artifacts.report.render());

        // Without the expectation the report and the sampler still share one.
        let mut scenario = registry::load_declared("mixed_traffic").expect("declared");
        scenario
            .expectations
            .retain(|e| e.name() != "trace_invariants");
        let before = runs();
        run_artifacts(scenario, None).expect("valid scenario");
        assert_eq!(runs(), before + 1);
    }
}
