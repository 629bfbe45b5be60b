//! The scenario runner: validate, build, set up, drive, measure, judge.
//!
//! The run sequence (the golden-parity suite pins its trace hashes, span
//! digests, and gauges against the committed `BENCH_scenarios.json`):
//!
//! 1. [`Scenario::validate`] — typed rejection before any state exists.
//! 2. Build the world from the topology ([`Topology::build`](crate::Topology::build),
//!    the only place a scenario's world comes from).
//! 3. Enable span logging (the legacy execution-trace ring stays off).
//! 4. `setup` every workload in declaration order.
//! 5. `capture` every expectation's baseline.
//! 6. Drive the window: timed runs let timers and chaos plans supply the
//!    traffic; tick windows draw one workload per tick by a weighted draw
//!    from the engine's per-lane deterministic RNG stream, so the mix is
//!    a pure function of the seed;
//!    episode windows run each workload's episode hook once.
//! 7. Drain the queue and `measure` every workload. Then the post-run
//!    pass, each step once and in this order:
//!    - **One read of the finished span log** ([`post_run_sweep`]): every
//!      span, in log order, goes to five forward-only folds at once — the
//!      windowed-series derive (recording straight into the engine's
//!      timeline), the invariant checker ([`dcdo_sim::Checker`]), the span
//!      digest ([`dcdo_sim::SpanDigest`]), the tail sampler
//!      ([`dcdo_sim::TailSampler`], which keeps every flow's causal-tree
//!      membership, so its retained trees need no second read) and the
//!      `trace_hash` ([`dcdo_chaos::SpanTraceHash`]). The checker's verdict
//!      is installed on the [`RunCx`] over any earlier read, then marks the
//!      sampler's violating flows.
//!    - `judge` every expectation.
//!    - Render the timeline JSON, then move the spans, their group arena
//!      and the finished timeline out of the simulation into the
//!      [`RunArtifacts`]. Nothing renders the Prometheus text unless a
//!      caller asks the returned timeline for it.
//!
//! [`run_artifacts_timed`] reports each phase's host wall time
//! ([`PhaseTimes`]).
//!
//! The three witnesses are word folds (`dcdo_sim::Fold`: one multiply and
//! one rotate per `u64`, seeded with the element count), never byte hashes.
//! `trace_hash` folds `(at_ns, event code, a, b)` per structural span (a
//! spawn, kill, delivery, dead letter, timer, crash, restart or unreachable
//! send) and so witnesses the *tail* of the run: it covers the last
//! [`TRACE_RING_CAPACITY`] of them, the value `dcdo_chaos::trace_hash` gives
//! for a legacy ring of that size switched on with the spans
//! ([`RunArtifacts::trace_entries_dropped`] says how many fall outside).
//! The span digest covers every field of every span of the run; the flight
//! digest the frame count and the flight ring's retained frames.

use std::time::Instant;

use std::collections::BTreeMap;

use dcdo_chaos::SpanTraceHash;
use dcdo_sim::{
    Checker, FlightDump, GroupArena, NodeId, RpcOutcome, Simulation, SpanDigest, SpanEvent,
    SpanKind, TailSampler, Timeline, Violation,
};
use dcdo_vm::VmTotals;
use legion_substrate::Msg;

use crate::report::ScenarioReport;
use crate::scenario::{Scenario, Window};
use crate::workload::RunCx;
use crate::ScenarioError;

/// The slowest-percentile cut the runner's tail sampler retains: flows in
/// the slowest 5% keep their full causal span trees in the flight dump.
pub const FLIGHT_SLOW_QUANTILE: f64 = 0.95;

/// The report's `trace_hash` covers the last this-many structural spans:
/// the capacity of the legacy execution-trace ring it reproduces (the
/// runner never records the ring itself).
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
    /// Structural spans before the `trace_hash` window (the entries a ring
    /// of [`TRACE_RING_CAPACITY`] would have evicted): when non-zero,
    /// [`ScenarioReport::trace_hash`] witnesses only the run's tail.
    pub trace_entries_dropped: u64,
    /// Windowed time-series telemetry as deterministic JSON, rendered with
    /// every run (`benchmark/src/traced.rs` compares it; see ROADMAP.md).
    pub timeline_json: String,
    /// The finished, flushed timeline itself, moved out of the simulation:
    /// the SLO judges' windows, and the source of any further export (e.g.
    /// [`Timeline::to_prometheus`], which only a caller that writes the
    /// text pays for).
    pub timeline: Timeline,
    /// The tail-sampled flight-recorder dump. Always `Some`: the `Option`
    /// is kept only because `benchmark/src/traced.rs:550` reads it as one
    /// and cannot be edited outside a change to the benchmark (ROADMAP.md
    /// item 1 removes both).
    pub flight: Option<FlightDump>,
    /// `true` when any `slo_*` expectation failed — callers should persist
    /// the full-fidelity [`flight`](RunArtifacts::flight) dump.
    pub slo_breached: bool,
    /// The world's VM totals (merged thread profiles, retired and fused
    /// opcodes), moved out of the simulation.
    pub vm: VmTotals,
}

/// Host wall time of each phase of one [`run_artifacts_timed`] call, in
/// seconds. The phases run in field order and together are the whole call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTimes {
    /// Validate, build the world, switch the sinks on, `setup` every
    /// workload and `capture` every expectation.
    pub setup_s: f64,
    /// The run window, then the drain.
    pub drive_s: f64,
    /// `measure` every workload.
    pub measure_s: f64,
    /// The post-run pass over the finished logs: windowed series, checker,
    /// witnesses and the tail-sampled flight dump.
    pub sweep_s: f64,
    /// `judge` every expectation.
    pub judge_s: f64,
    /// Render the timeline JSON.
    pub render_s: f64,
    /// Move the span log and the timeline out, drop the finished world.
    pub take_s: f64,
}

impl PhaseTimes {
    /// The phases as `(name, seconds)`, in run order.
    pub fn rows(&self) -> [(&'static str, f64); 7] {
        [
            ("setup", self.setup_s),
            ("drive", self.drive_s),
            ("measure", self.measure_s),
            ("sweep", self.sweep_s),
            ("judge", self.judge_s),
            ("render", self.render_s),
            ("take", self.take_s),
        ]
    }

    /// The whole call.
    pub fn total_s(&self) -> f64 {
        self.rows().iter().map(|(_, s)| s).sum()
    }

    /// Everything after `measure`: sweep, judge, render and take.
    pub fn post_run_s(&self) -> f64 {
        self.sweep_s + self.judge_s + self.render_s + self.take_s
    }
}

/// Seconds since `*since`, which moves on to now: consecutive calls time
/// consecutive phases.
fn lap(since: &mut Instant) -> f64 {
    let now = Instant::now();
    let secs = now.duration_since(*since).as_secs_f64();
    *since = now;
    secs
}

/// Runs `scenario` to completion and returns only the pass/fail report.
pub fn run(scenario: Scenario) -> Result<ScenarioReport, ScenarioError> {
    run_artifacts(scenario, None).map(|a| a.report)
}

/// Derives the windowed series the SLO watchdogs judge from the span log,
/// as a forward-only fold: flow latencies and outcomes (`lat.flow`,
/// `ok.flow`, `err.flow`), RPC latencies keyed off each call's first attempt
/// (`lat.rpc`, `ok.rpc`, `err.rpc`), and served calls (`served`), recorded
/// into the engine's timeline so bucketing matches the hot-path stats.
/// Samples go in one by one; each counter's increments are summed while
/// they land in one window and recorded once per run of them.
struct SeriesDerive<'t> {
    timeline: &'t mut Timeline,
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
    flow_start: BTreeMap<u64, u64>,
    rpc_start: BTreeMap<u64, u64>,
    /// The unrecorded run of each of [`COUNTERS`], by index.
    pending: [CounterRun; COUNTERS.len()],
}

/// The derived counters; [`SeriesDerive::pending`] is indexed alike.
const COUNTERS: [&str; 5] = ["ok.flow", "err.flow", "ok.rpc", "err.rpc", "served"];
const OK_FLOW: usize = 0;
const ERR_FLOW: usize = 1;
const OK_RPC: usize = 2;
const ERR_RPC: usize = 3;
const SERVED: usize = 4;

/// Increments of one counter not yet recorded: `count` of them, all inside
/// the window `[start_ns, end_ns)`.
#[derive(Clone, Copy, Default)]
struct CounterRun {
    start_ns: u64,
    end_ns: u64,
    count: u64,
}

impl<'t> SeriesDerive<'t> {
    fn new(timeline: &'t mut Timeline) -> Self {
        SeriesDerive {
            timeline,
            flow_start: BTreeMap::new(),
            rpc_start: BTreeMap::new(),
            pending: Default::default(),
        }
    }

    #[inline]
    fn observe(&mut self, e: &SpanEvent) {
        match &e.kind {
            SpanKind::FlowStarted { flow, .. } => {
                self.flow_start.entry(*flow).or_insert(e.at_ns);
            }
            SpanKind::FlowCompleted { flow } | SpanKind::FlowAborted { flow } => {
                if let Some(t0) = self.flow_start.remove(flow) {
                    let latency = (e.at_ns - t0) as f64 / 1e9;
                    self.timeline.record_sample(e.at_ns, "lat.flow", latency);
                }
                let completed = matches!(e.kind, SpanKind::FlowCompleted { .. });
                self.count(if completed { OK_FLOW } else { ERR_FLOW }, e.at_ns);
            }
            SpanKind::RpcAttempt { call, .. } => {
                self.rpc_start.entry(*call).or_insert(e.at_ns);
            }
            SpanKind::RpcCompleted { call, outcome } => {
                if let Some(t0) = self.rpc_start.remove(call) {
                    let latency = (e.at_ns - t0) as f64 / 1e9;
                    self.timeline.record_sample(e.at_ns, "lat.rpc", latency);
                }
                let ok = *outcome == RpcOutcome::Ok;
                self.count(if ok { OK_RPC } else { ERR_RPC }, e.at_ns);
            }
            SpanKind::CallServed { .. } => self.count(SERVED, e.at_ns),
            _ => {}
        }
    }

    /// One increment of counter `COUNTERS[i]` at `at_ns`.
    #[inline]
    fn count(&mut self, i: usize, at_ns: u64) {
        let run = &mut self.pending[i];
        if run.count > 0 && (run.start_ns..run.end_ns).contains(&at_ns) {
            run.count += 1;
            return;
        }
        self.record(i);
        let bucket_ns = self.timeline.bucket_ns();
        let start_ns = at_ns - at_ns % bucket_ns;
        self.pending[i] = CounterRun {
            start_ns,
            end_ns: start_ns.saturating_add(bucket_ns),
            count: 1,
        };
    }

    /// Records counter `COUNTERS[i]`'s pending run, if any.
    fn record(&mut self, i: usize) {
        let run = std::mem::take(&mut self.pending[i]);
        if run.count > 0 {
            self.timeline
                .record_counter(run.start_ns, COUNTERS[i], run.count);
        }
    }

    fn finish(mut self) {
        for i in 0..COUNTERS.len() {
            self.record(i);
        }
        self.timeline.flush();
    }
}

/// What the one read of the finished span log yields.
struct Swept {
    violations: Vec<Violation>,
    span_digest: u64,
    trace_hash: u64,
    flight: FlightDump,
}

#[cfg(test)]
thread_local! {
    /// Spans the runner read after the drain on this thread: the post-run
    /// sweep's visits plus those of any checker run on a [`RunCx`]'s behalf
    /// (the read-once test's gauge).
    pub(crate) static SPAN_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The post-run pass: one read of `sim`'s finished span log feeds the
/// windowed-series derive, the invariant checker, the span digest, the
/// tail sampler and the `trace_hash`. The derive records into `sim`'s
/// timeline, which is lent out for the read and back in place when this
/// returns.
fn post_run_sweep(sim: &mut Simulation<Msg>) -> Swept {
    let mut timeline = std::mem::take(sim.timeline_mut());
    let log = sim.spans();
    let mut series = SeriesDerive::new(&mut timeline);
    let mut checker = Checker::new(log);
    let mut digest = SpanDigest::new(log);
    let mut sampler = TailSampler::new();
    let mut ring = SpanTraceHash::new(sim.structural_spans(), TRACE_RING_CAPACITY);
    for e in log.events() {
        #[cfg(test)]
        SPAN_VISITS.with(|v| v.set(v.get() + 1));
        series.observe(e);
        checker.observe(e);
        digest.observe(e);
        sampler.observe(e);
        ring.observe(e);
    }
    series.finish();
    let violations = checker.finish();
    let flight = sampler.finish(log, &violations, sim.flight(), FLIGHT_SLOW_QUANTILE);
    let span_digest = digest.finish();
    *sim.timeline_mut() = timeline;
    Swept {
        violations,
        span_digest,
        trace_hash: ring.finish(),
        flight,
    }
}

/// Runs `scenario` and returns the full [`RunArtifacts`]: report, span log,
/// timeline exports, and flight-recorder dump.
///
/// `_threads` is ignored (the engine is sequential). It is kept only
/// because `benchmark/src/plain.rs:67` passes `None` and cannot be edited
/// outside a benchmark PR (see ROADMAP.md), which removes the parameter.
pub fn run_artifacts(
    scenario: Scenario,
    _threads: Option<u32>,
) -> Result<RunArtifacts, ScenarioError> {
    run_artifacts_timed(scenario, &mut PhaseTimes::default())
}

/// [`run_artifacts`], also writing each phase's host wall time into
/// `times` (`dcdo-inspect scenario … --phases` prints them).
pub fn run_artifacts_timed(
    mut scenario: Scenario,
    times: &mut PhaseTimes,
) -> Result<RunArtifacts, ScenarioError> {
    let mut clock = Instant::now();
    scenario.validate()?;
    let mut cx = RunCx::new(scenario.seed, scenario.topology.build(scenario.seed));
    cx.world
        .sim_mut()
        .expect("a built world")
        .spans_mut()
        .enable();
    for slot in &mut scenario.workloads {
        slot.workload.setup(&mut cx);
    }
    for expectation in &mut scenario.expectations {
        expectation.capture(&cx);
    }
    times.setup_s = lap(&mut clock);

    let mut ticks: Vec<(String, u64)> = Vec::new();
    match scenario.window {
        Window::Timed(d) => {
            cx.world.sim_mut().expect("a built world").run_for(d);
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
                    .expect("a built world")
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
    cx.world.sim_mut().expect("a built world").run_until_idle();
    times.drive_s = lap(&mut clock);

    for slot in &mut scenario.workloads {
        slot.workload.measure(&mut cx);
    }
    times.measure_s = lap(&mut clock);

    // The post-run sweep fills the timeline's derived series before the
    // judges read them, and its checker verdict replaces any read an
    // earlier hook made of the unfinished log.
    let swept = post_run_sweep(cx.world.sim_mut().expect("a built world"));
    cx.install_trace_violations(swept.violations);
    let sim = cx.world.sim().expect("a built world");
    let events_processed = sim.events_processed();
    let leaked_events = sim.pending_events() as u64;
    let trace_entries_dropped = sim
        .structural_spans()
        .saturating_sub(TRACE_RING_CAPACITY as u64);
    let trace_violations = cx.trace_violations().len() as u64;
    times.sweep_s = lap(&mut clock);

    let verdicts: Vec<_> = scenario
        .expectations
        .iter_mut()
        .map(|e| e.judge(&cx))
        .collect();
    let slo_breaches = verdicts
        .iter()
        .filter(|v| !v.passed && v.expectation.starts_with("slo_"))
        .count() as u64;
    times.judge_s = lap(&mut clock);

    let sim = cx.world.sim_mut().expect("a built world");
    let timeline_json = sim.timeline_mut().to_json();
    times.render_s = lap(&mut clock);
    // Every reader of the span log has had its turn, so the artifacts take
    // the events and their group arena themselves.
    let (spans, span_groups) = sim.spans_mut().take_events();
    let timeline = std::mem::take(sim.timeline_mut());
    let vm = std::mem::take(sim.totals_mut::<VmTotals>());
    let artifacts = RunArtifacts {
        report: ScenarioReport {
            name: scenario.name.clone(),
            seed: scenario.seed,
            passed: verdicts.iter().all(|v| v.passed),
            trace_hash: swept.trace_hash,
            span_digest: swept.span_digest,
            flight_digest: swept.flight.ring_digest,
            events_processed,
            leaked_events,
            trace_violations,
            slo_breaches,
            ticks,
            counters: std::mem::take(&mut cx.counters).into_iter().collect(),
            gauges: std::mem::take(&mut cx.gauges).into_iter().collect(),
            verdicts,
        },
        spans,
        span_groups,
        trace_entries_dropped,
        timeline_json,
        timeline,
        flight: Some(swept.flight),
        slo_breached: slo_breaches > 0,
        vm,
    };
    drop(cx);
    times.take_s = lap(&mut clock);
    Ok(artifacts)
}

#[cfg(test)]
mod tests {
    use std::cell::RefCell;
    use std::rc::Rc;

    use dcdo_sim::{SpanKind, TraceLog, Violation, NO_NODE};

    use super::*;
    use crate::expect::{Expectation, Verdict};
    use crate::oracle;
    use crate::registry;
    use crate::scenario::WorkloadSlot;
    use crate::shapes;
    use crate::topology::Infra;
    use crate::workload::Workload;

    /// Spans the runner has read after a drain on this thread so far.
    fn visits() -> u64 {
        SPAN_VISITS.with(|v| v.get())
    }

    #[test]
    fn the_post_run_sweep_reads_each_span_once() {
        // `mixed_traffic` declares `trace_invariants`, so the expectation,
        // the report and the tail sampler all want the checker's verdict,
        // and the SLO judges want the derived series.
        let scenario = registry::load_declared("mixed_traffic").expect("declared");
        assert!(scenario
            .expectations
            .iter()
            .any(|e| e.name() == "trace_invariants"));
        let before = visits();
        let artifacts = run_artifacts(scenario, None).expect("valid scenario");
        assert!(artifacts.report.passed, "{}", artifacts.report.render());
        assert!(!artifacts.spans.is_empty());
        assert_eq!(visits() - before, artifacts.spans.len() as u64);
    }

    /// `scenario` with `workload` appended at weight 0 (never stepped) and
    /// `expectation` appended.
    fn extended(
        mut scenario: Scenario,
        workload: impl Workload + 'static,
        expectation: impl Expectation + 'static,
    ) -> Scenario {
        scenario.workloads.push(WorkloadSlot {
            weight: 0,
            workload: Box::new(workload),
        });
        scenario.expectations.push(Box::new(expectation));
        scenario
    }

    /// Emits a `FlowCompleted` for a flow that never started from its
    /// `measure` hook: one `SpuriousFlowEnd`, recorded after the drain.
    struct SpuriousEnd;

    impl Workload for SpuriousEnd {
        fn name(&self) -> &str {
            "spurious_end"
        }

        fn needs(&self) -> Infra {
            Infra::Legion
        }

        fn measure(&mut self, cx: &mut RunCx) {
            let sim = cx.world.sim_mut().expect("a built world");
            let at_ns = sim.now().as_nanos();
            let flow = u64::MAX;
            sim.spans_mut()
                .emit(at_ns, NO_NODE, None, SpanKind::FlowCompleted { flow });
        }
    }

    /// Reads the checker's verdict from `capture`, before the run.
    struct EarlyReader;

    impl Expectation for EarlyReader {
        fn name(&self) -> &str {
            "early_reader"
        }

        fn capture(&mut self, cx: &RunCx) {
            assert!(cx.trace_violations().is_empty());
        }

        fn judge(&mut self, _cx: &RunCx) -> Verdict {
            Verdict::pass(self.name(), String::new())
        }
    }

    #[test]
    fn a_verdict_read_before_the_run_ends_does_not_stand_for_the_run() {
        let scenario = extended(
            registry::load_declared("mixed_traffic").expect("declared"),
            SpuriousEnd,
            EarlyReader,
        );
        let report = run_artifacts(scenario, None)
            .expect("valid scenario")
            .report;
        assert_eq!(report.trace_violations, 1, "{}", report.render());
        let verdict = |name: &str| {
            let v = report.verdicts.iter().find(|v| v.expectation == name);
            v.expect("declared expectation").passed
        };
        assert!(!verdict("trace_invariants"));
        assert!(verdict("early_reader"));
        assert!(!report.passed);
    }

    #[test]
    fn a_lazy_verdict_is_recomputed_once_the_log_grows() {
        // What a caller judging without the runner sees.
        let scenario = registry::load_declared("rolling_partition").expect("declared");
        let mut cx = RunCx::new(7, scenario.topology.build(7));
        cx.world
            .sim_mut()
            .expect("a built world")
            .spans_mut()
            .enable();
        assert!(cx.trace_violations().is_empty());
        let before = visits();
        assert!(
            cx.trace_violations().is_empty(),
            "kept while the log stands"
        );
        assert_eq!(visits(), before);
        let sim = cx.world.sim_mut().expect("a built world");
        sim.spans_mut()
            .emit(0, NO_NODE, None, SpanKind::FlowCompleted { flow: 9 });
        assert!(matches!(
            cx.trace_violations()[..],
            [Violation::SpuriousFlowEnd { flow: 9, .. }]
        ));
    }

    /// What the post-run sweep reads, copied from the last `measure` hook:
    /// the finished span log, the timeline before the derive, the flight
    /// ring's `(frames recorded, frames retained, digest)`, and how many
    /// entries the legacy execution-trace ring holds.
    struct Snapshot {
        log: TraceLog,
        timeline: Timeline,
        ring: (u64, u64, u64),
        trace_entries: usize,
    }

    /// A zero-weight workload whose `measure` hook takes a [`Snapshot`]
    /// (an episode, with an empty hook, in an episode window).
    struct TakeSnapshot {
        infra: Infra,
        episode: bool,
        out: Rc<RefCell<Option<Snapshot>>>,
    }

    impl TakeSnapshot {
        /// A snapshot taker that fits into `scenario`.
        fn fitting(scenario: &Scenario, out: Rc<RefCell<Option<Snapshot>>>) -> Self {
            TakeSnapshot {
                infra: scenario.topology.infra,
                episode: scenario.window == Window::Episode,
                out,
            }
        }
    }

    impl Workload for TakeSnapshot {
        fn name(&self) -> &str {
            "take_snapshot"
        }

        fn needs(&self) -> Infra {
            self.infra
        }

        fn has_episode(&self) -> bool {
            self.episode
        }

        fn measure(&mut self, cx: &mut RunCx) {
            let sim = cx.world.sim().expect("a built world");
            let flight = sim.flight();
            *self.out.borrow_mut() = Some(Snapshot {
                log: sim.spans().clone(),
                timeline: sim.timeline().clone(),
                ring: (
                    flight.recorded(),
                    flight.recorded().min(flight.capacity() as u64),
                    flight.digest(),
                ),
                trace_entries: sim.trace().len(),
            });
        }
    }

    /// Keeps the verdict the judges see.
    struct KeepVerdict(Rc<RefCell<Vec<Violation>>>);

    impl Expectation for KeepVerdict {
        fn name(&self) -> &str {
            "keep_verdict"
        }

        fn judge(&mut self, cx: &RunCx) -> Verdict {
            *self.0.borrow_mut() = cx.trace_violations().to_vec();
            Verdict::pass(self.name(), String::new())
        }
    }

    #[test]
    fn a_runner_run_records_nothing_in_the_legacy_ring() {
        // The benchmark's shapes: every engine event kind, crashes too. The
        // reconfiguration episodes: a driver that once built its own world.
        let shapes = shapes::NAMES.map(|name| {
            let text = shapes::generate(name, 42, 0.01).expect("a named shape");
            let scenario = Scenario::from_text(&text).expect("benchmark shape parses");
            (name, scenario)
        });
        let episodes = ["reconfig", "crash_during_reconfig"]
            .map(|name| (name, registry::load_declared(name).expect("declared")));
        for (name, scenario) in shapes.into_iter().chain(episodes) {
            let snapshot = Rc::new(RefCell::new(None));
            let take = TakeSnapshot::fitting(&scenario, snapshot.clone());
            let scenario = extended(scenario, take, KeepVerdict(Rc::default()));
            run_artifacts(scenario, None).expect("valid scenario");
            let snapshot = snapshot.take().expect("measured");
            assert_eq!(snapshot.trace_entries, 0, "{name}");
        }
    }

    #[test]
    fn fused_sweep_equals_the_batch_oracles() {
        let mut planted_found = 0;
        for seed in [42, 7, 1234] {
            let declared = registry::declared()
                .iter()
                .map(|(name, _)| registry::load_declared(name).expect("declared"));
            let shapes = shapes::NAMES.map(|name| {
                let text = shapes::generate(name, seed, 0.01).expect("a named shape");
                Scenario::from_text(&text).expect("benchmark shape parses")
            });
            // One run with a planted violation, so the verdicts compared are
            // not all empty.
            let mut planted = registry::load_declared("mixed_traffic").expect("declared");
            planted.name.push_str("+spurious_end");
            planted.workloads.push(WorkloadSlot {
                weight: 0,
                workload: Box::new(SpuriousEnd),
            });
            for scenario in declared.chain(shapes).chain([planted]) {
                let scenario = scenario.with_seed(seed);
                let name = format!("{} seed {seed}", scenario.name);
                let snapshot = Rc::new(RefCell::new(None));
                let verdict = Rc::new(RefCell::new(Vec::new()));
                let take = TakeSnapshot::fitting(&scenario, snapshot.clone());
                let scenario = extended(scenario, take, KeepVerdict(verdict.clone()));
                let artifacts = run_artifacts(scenario, None).expect("valid scenario");
                let Snapshot {
                    log,
                    mut timeline,
                    ring,
                    ..
                } = snapshot.take().expect("measured");
                assert_eq!(log.events(), &artifacts.spans[..], "{name}: spans");
                assert_eq!(
                    oracle::trace_hash(&log, TRACE_RING_CAPACITY),
                    artifacts.report.trace_hash,
                    "{name}: trace_hash"
                );

                assert_eq!(
                    oracle::digest(&log),
                    artifacts.report.span_digest,
                    "{name}: digest"
                );
                let violations = oracle::check(&log);
                assert_eq!(violations, *verdict.borrow(), "{name}: violations");
                planted_found += violations.len();
                let flight = oracle::tail_sample(&log, &violations, ring, FLIGHT_SLOW_QUANTILE);
                assert_eq!(
                    flight.to_json(),
                    artifacts.flight.expect("a built world").to_json(),
                    "{name}: flight dump"
                );
                oracle::derive_windowed_series(&log, &mut timeline);
                assert_eq!(
                    timeline.to_json(),
                    artifacts.timeline_json,
                    "{name}: timeline"
                );
            }
        }
        assert_eq!(planted_found, 3, "one planted violation per seed");
    }
}
