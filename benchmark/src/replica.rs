//! The scenario runner's sequence, re-driven through public APIs only so
//! the benchmark can put a host-time span around each call into a layer.
//!
//! `dcdo_scenario::run_artifacts` is the program under test and the only
//! thing the end-to-end numbers time. This module repeats what it does —
//! `Scenario::from_text` → `validate` → `Topology::build` → every
//! `Workload::setup` → the window → `measure` → `judge` → digests, tail
//! sample and exports — and the traced run proves the repeat is the same
//! program: trace hash, span digest, flight digest, event count, verdicts
//! and timeline export must all equal the plain run's.

use std::collections::BTreeMap;
use std::time::Instant;

use dcdo_core::DcdoObject;
use dcdo_profile::{FnNames, LayerMap, ProfileReport};
use dcdo_scenario::{RunCx, Scenario, Verdict, Window, FLIGHT_SLOW_QUANTILE};
use dcdo_sim::{tail_sample, NodeId, RpcOutcome, SpanKind};

use crate::spanscan::SpanScan;

/// One host-time span: what ran, when, and under which span.
#[derive(Debug, Clone, Copy)]
pub struct HostSpan {
    /// Index into [`Recorder::names`].
    pub name: u16,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The enclosing span's index in [`Recorder::spans`], if any.
    pub parent: Option<u32>,
}

/// An open span's handle; `None` while the recorder is off.
pub type Open = Option<u32>;

/// The benchmark's own in-memory span log. Off, `enter`/`exit` are a
/// branch each, so the untraced replica costs what the runner costs.
pub struct Recorder {
    on: bool,
    epoch: Instant,
    /// Span names, indexed by [`HostSpan::name`].
    pub names: Vec<String>,
    /// Every closed or open span, in start order.
    pub spans: Vec<HostSpan>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Interns `name`, so hot loops open spans by index.
    pub fn name_id(&mut self, name: &str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| n == name) {
            return i as u16;
        }
        self.names.push(name.to_string());
        (self.names.len() - 1) as u16
    }

    /// Opens a span under the innermost open span.
    pub fn enter_id(&mut self, name: u16) -> Open {
        if !self.on {
            return None;
        }
        let idx = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(HostSpan {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Opens a span by name.
    pub fn enter(&mut self, name: &str) -> Open {
        if !self.on {
            return None;
        }
        let id = self.name_id(name);
        self.enter_id(id)
    }

    /// Closes the span `enter` opened.
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open else { return };
        self.spans[idx as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans close innermost first");
    }

    /// Durations in nanoseconds of every span named `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        let Some(id) = self.names.iter().position(|n| n == name) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| s.name as usize == id)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Total seconds spent in spans named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<u64>() as f64 / 1e9
    }

    /// The log as tab-separated text: `index name start_ns end_ns parent`.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{i}\t{}\t{}\t{}\t{parent}\n",
                self.names[s.name as usize], s.start_ns, s.end_ns
            ));
        }
        out
    }
}

/// Which observation sinks record during a run. The engine's own toggles;
/// `Metrics` has none and is always on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sinks {
    /// The legacy `TraceEvent` ring, source of `trace_hash`.
    pub legacy_ring: bool,
    /// The `dcdo-trace` span log (which also switches VM profiling on).
    pub spans: bool,
    /// The flight recorder and the windowed timeline (default-on tier).
    pub flight_timeline: bool,
}

impl Sinks {
    /// What `run_artifacts` runs with: everything on.
    pub const RUNNER: Sinks = Sinks {
        legacy_ring: true,
        spans: true,
        flight_timeline: true,
    };
    /// Everything off.
    pub const BARE: Sinks = Sinks {
        legacy_ring: false,
        spans: false,
        flight_timeline: false,
    };
}

/// The runner's steps 1–5: parse, validate, build the world, switch the
/// sinks, `setup` every workload, `capture` every expectation. The texts
/// are generated by this benchmark, so a rejected one is a bug in it.
pub fn build_world(
    text: &str,
    sinks: Sinks,
    threads: Option<u32>,
    rec: &mut Recorder,
) -> (Scenario, RunCx) {
    let open = rec.enter("scenario.parse");
    let mut scenario = Scenario::from_text(text).expect("generated scenario text parses");
    rec.exit(open);

    let open = rec.enter("scenario.build_world");
    scenario.validate().expect("generated scenario validates");
    let mut cx = RunCx::new(scenario.seed, scenario.topology.build(scenario.seed));
    rec.exit(open);

    let open = rec.enter("scenario.setup");
    let sim = cx
        .world
        .sim_mut()
        .expect("benchmark workloads build a world");
    if let Some(n) = threads {
        sim.set_threads(n);
    }
    if sinks.legacy_ring {
        sim.trace_mut().enable(1 << 18);
    }
    if sinks.spans {
        sim.spans_mut().enable();
    }
    if !sinks.flight_timeline {
        sim.flight_mut().disable();
        sim.timeline_mut().disable();
    }
    for slot in &mut scenario.workloads {
        slot.workload.setup(&mut cx);
    }
    for expectation in &mut scenario.expectations {
        expectation.capture(&cx);
    }
    rec.exit(open);
    (scenario, cx)
}

/// The runner's step 6: drive the window, then drain. Tick windows are a
/// closed loop — each tick's `step` issues one op and runs the simulator
/// until it completes — so the simulator's time sits inside the step
/// spans; `sim.run` spans cover only the explicit `run_*` calls.
pub fn drive(scenario: &mut Scenario, cx: &mut RunCx, rec: &mut Recorder) {
    let open = rec.enter("scenario.drive");
    let sim_run = rec.name_id("sim.run");
    match scenario.window {
        Window::Timed(d) => {
            let sim = cx.world.sim_mut().expect("built world");
            let run = rec.enter_id(sim_run);
            sim.run_for(d);
            sim.run_until_idle();
            rec.exit(run);
        }
        Window::Ticks(n) => {
            let lane_node = cx
                .service
                .map(|s| s.client_node)
                .unwrap_or_else(|| NodeId::from_raw(0));
            let weights: Vec<u64> = scenario.workloads.iter().map(|s| s.weight).collect();
            let step_names: Vec<u16> = scenario
                .workloads
                .iter()
                .map(|s| rec.name_id(&format!("step.{}", s.workload.name())))
                .collect();
            let total: u64 = weights.iter().sum();
            let mut counts = vec![0u64; weights.len()];
            for tick in 0..n {
                let mut draw = cx
                    .world
                    .sim_mut()
                    .expect("built world")
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
                let step = rec.enter_id(step_names[picked]);
                scenario.workloads[picked].workload.step(cx, tick);
                rec.exit(step);
                counts[picked] += 1;
            }
            let run = rec.enter_id(sim_run);
            cx.world.sim_mut().expect("built world").run_until_idle();
            rec.exit(run);
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
            }
        }
        Window::Episode => panic!("benchmark workloads never use episode windows"),
    }
    rec.exit(open);
}

/// The runner's private derive-series pass, repeated through the public
/// timeline API: the SLO expectations judge these series and the timeline
/// export carries them, so the replica needs them to be the same program.
/// The traced run checks the resulting export against the plain run's.
fn derive_windowed_series(cx: &mut RunCx) {
    let sim = cx.world.sim().expect("built world");
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
                if let Some(t0) = flow_start.get(flow) {
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
                if let Some(t0) = rpc_start.get(call) {
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
    let timeline = cx.world.sim_mut().expect("built world").timeline_mut();
    for (at_ns, name, value) in samples {
        timeline.record_sample(at_ns, name, value);
    }
    for (at_ns, name, delta) in counters {
        timeline.record_counter(at_ns, name, delta);
    }
    timeline.flush();
}

/// What identifies a run exactly: equal fingerprints mean the same events
/// in the same order with the same observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// FNV-1a hash of the rendered legacy execution trace.
    pub trace_hash: u64,
    /// Digest of the structured span log.
    pub span_digest: u64,
    /// Digest of the flight-recorder ring.
    pub flight_digest: u64,
    /// Engine events processed.
    pub events: u64,
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace_hash={:016x} span_digest={:016x} flight_digest={:016x} events={}",
            self.trace_hash, self.span_digest, self.flight_digest, self.events
        )
    }
}

/// Everything the replica's tail end produces: the run's identity, its
/// verdicts and exports, and the exact per-layer counts.
pub struct Finished {
    /// The run's identity.
    pub fingerprint: Fingerprint,
    /// Every expectation's verdict, in declaration order.
    pub verdicts: Vec<Verdict>,
    /// The timeline's JSON export.
    pub timeline_json: String,
    /// Flows the tail sampler retained.
    pub flows_retained: u64,
    /// Frames the flight recorder saw.
    pub flight_frames: u64,
    /// The most events ever pending in the engine's queue.
    pub peak_pending_events: u64,
    /// Chaos-plan steps applied.
    pub chaos_actions: u64,
    /// Flows the profiler reconstructed.
    pub profile_flows: u64,
    /// Decode-cache counters summed over the live DCDO instances:
    /// `(decodes, hits, invalidations)`.
    pub decode_cache: (u64, u64, u64),
    /// Counts and latencies from the simulated-time span log.
    pub scan: SpanScan,
    /// `group.calls.ok` and `group.calls.refused`.
    pub group_calls: (u64, u64),
}

/// The runner's step 7 and its artifact assembly — measure, derive the
/// windowed series, judge, hash, digest, check, clone, tail-sample, export
/// — then the inspector's profile pass, each under its own span.
pub fn finish(scenario: &mut Scenario, cx: &mut RunCx, rec: &mut Recorder) -> Finished {
    let open = rec.enter("scenario.measure");
    for slot in &mut scenario.workloads {
        slot.workload.measure(cx);
    }
    rec.exit(open);

    let open = rec.enter("scenario.derive_series");
    derive_windowed_series(cx);
    rec.exit(open);

    let open = rec.enter("scenario.judge");
    let verdicts: Vec<Verdict> = scenario
        .expectations
        .iter_mut()
        .map(|e| e.judge(cx))
        .collect();
    rec.exit(open);

    let sim = cx.world.sim().expect("built world");
    let open = rec.enter("chaos.trace_hash");
    let trace_hash = dcdo_chaos::trace_hash(sim.trace());
    rec.exit(open);
    let open = rec.enter("trace.span_digest");
    let span_digest = sim.spans().digest();
    rec.exit(open);
    let open = rec.enter("trace.check_invariants");
    let violations = dcdo_sim::check_trace_invariants(sim.spans()).len();
    rec.exit(open);
    std::hint::black_box(violations);
    let open = rec.enter("scenario.clone_spans");
    let spans = sim.spans().events().to_vec();
    rec.exit(open);
    let flight_digest = sim.flight().digest();
    let open = rec.enter("trace.tail_sample");
    let dump = tail_sample(sim.spans(), sim.flight(), FLIGHT_SLOW_QUANTILE);
    rec.exit(open);
    let fingerprint = Fingerprint {
        trace_hash,
        span_digest,
        flight_digest,
        events: sim.events_processed(),
    };
    let flight_frames = sim.flight().recorded();
    let peak_pending_events = sim.peak_pending_events() as u64;
    let chaos_actions = sim.metrics().counter("chaos.actions_applied");

    let open = rec.enter("sim.timeline_export");
    let timeline = cx.world.sim_mut().expect("built world").timeline_mut();
    let timeline_json = timeline.to_json();
    let timeline_prom = timeline.to_prometheus();
    rec.exit(open);
    std::hint::black_box(timeline_prom);

    // Not part of `run_artifacts`: what `dcdo-inspect` pays after it.
    let sim = cx.world.sim().expect("built world");
    let open = rec.enter("profile.analyze");
    let profile = ProfileReport::analyze(sim.spans(), &LayerMap::new(), &FnNames::new());
    rec.exit(open);

    let mut decode_cache = (0, 0, 0);
    for node in 0..scenario.topology.nodes {
        for actor in sim.actors_on(NodeId::from_raw(node)) {
            if let Some(object) = sim.actor::<DcdoObject>(actor) {
                let stats = object.dfm().decode_cache_stats();
                decode_cache.0 += stats.decodes;
                decode_cache.1 += stats.hits;
                decode_cache.2 += stats.invalidations;
            }
        }
    }

    Finished {
        fingerprint,
        verdicts,
        timeline_json,
        flows_retained: dump.flows.len() as u64,
        flight_frames,
        peak_pending_events,
        chaos_actions,
        profile_flows: profile.flows_completed() + profile.flows_aborted(),
        decode_cache,
        scan: SpanScan::of(&spans),
        group_calls: (
            cx.counter("group.calls.ok"),
            cx.counter("group.calls.refused"),
        ),
    }
}
