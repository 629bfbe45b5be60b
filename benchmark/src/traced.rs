//! The per-layer run: where the host time of one input goes.
//!
//! Three measurements, all on input 0 of the seed's set:
//!
//! 1. **Phase spans.** The replica ([`crate::replica`]) re-drives the
//!    runner's sequence with a host-time span around each call into a
//!    layer, alternating recorder-off and recorder-on repetitions; the
//!    difference is the benchmark's own tracing overhead.
//! 2. **Sink ablations.** Layers inside the engine loop cannot be spanned
//!    from outside, so the drive phase is rerun with the engine's public
//!    sink toggles in each position, and once on two threads.
//! 3. **Kernels.** Unit costs ([`crate::kernels`]) times the run's exact
//!    op counts size the engine floor, DFM dispatch and the VM.
//!
//! Before any number is reported the replica must prove it is the same
//! program as `run_artifacts`: fingerprint, verdicts and timeline export
//! equal the plain run's.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::kernels;
use crate::plain::{failed_verdicts, fingerprint_of, inputs, run_once, sim_metrics};
use crate::replica::{build_world, drive, finish, Finished, Recorder, Sinks};
use crate::report::{ratio, Metric, RunResult};
use crate::spanscan::OpCounts;
use crate::stats::{median, quantile, Summary};

/// Rounds of one plain run, one replica with the recorder off and one
/// with it on.
const TRACED_REPS: usize = 5;
/// Repetitions of each drive-phase ablation.
const ABLATION_REPS: usize = 3;

/// The phases that together are what one `run_artifacts` call does.
const RUN_PHASES: [&str; 13] = [
    "scenario.build_world",
    "scenario.setup",
    "scenario.drive",
    "scenario.measure",
    "scenario.derive_series",
    "scenario.judge",
    "chaos.trace_hash",
    "trace.span_digest",
    "trace.check_invariants",
    "scenario.clone_spans",
    "trace.tail_sample",
    "sim.timeline_export",
    "scenario.teardown",
];

/// The step spans the tick windows record, one per traffic workload.
const STEPS: [&str; 3] = ["calls", "config_ops", "migrations"];

/// One full replica run: seconds from parse to profile, the recorder, and
/// what the run produced.
fn replica_run(text: &str, record: bool) -> (f64, Recorder, Finished) {
    let mut rec = Recorder::new(record);
    let start = Instant::now();
    let (mut scenario, mut cx) = build_world(text, Sinks::RUNNER, None, &mut rec);
    drive(&mut scenario, &mut cx, &mut rec);
    let finished = finish(&mut scenario, &mut cx, &mut rec);
    // `run_artifacts` drops the world and the scenario before it returns.
    let open = rec.enter("scenario.teardown");
    drop(cx);
    drop(scenario);
    rec.exit(open);
    (start.elapsed().as_secs_f64(), rec, finished)
}

/// One drive phase under `sinks` on `threads` threads: seconds, events
/// processed while driving, and the digests the enabled sinks yield.
fn drive_sample(text: &str, sinks: Sinks, threads: u32) -> (f64, u64, u64, u64) {
    let mut rec = Recorder::new(false);
    let (mut scenario, mut cx) = build_world(text, sinks, Some(threads), &mut rec);
    let before = cx.world.sim().expect("built world").events_processed();
    let start = Instant::now();
    drive(&mut scenario, &mut cx, &mut rec);
    let drive_s = start.elapsed().as_secs_f64();
    let sim = cx.world.sim().expect("built world");
    (
        drive_s,
        sim.events_processed() - before,
        sim.spans().digest(),
        dcdo_chaos::trace_hash(sim.trace()),
    )
}

/// Runs the per-layer measurement of `workload` and prints every metric.
/// The repetition counts are fixed, so `--seconds` does not apply here.
pub fn run(
    workload: &str,
    seed: u64,
    scale: f64,
    spans_out: &std::path::Path,
) -> Option<RunResult> {
    let text = inputs(workload, seed, scale)?.swap_remove(0);
    let mut result = RunResult::default();

    // The reference: the plain run of the same input, which also warms up.
    let (_, reference) = run_once(&text);
    result.problems.extend(failed_verdicts(&reference.report));
    let fingerprint = fingerprint_of(&reference.report);
    println!("fingerprint {workload} seed={seed} {fingerprint}");
    let ops = OpCounts::of(&reference.report);
    result.attempted = ops.attempted;
    result.failed = ops.failed;

    // Each round: one plain run, one replica with the recorder off, one
    // with it on, so all three see the same host conditions.
    let mut plain_walls = Vec::new();
    let mut off_totals = Vec::new();
    let mut on_totals = Vec::new();
    // Seconds per rep under every span name the recorder saw.
    let mut phase_s: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut step_ns: Vec<Vec<u64>> = vec![Vec::new(); STEPS.len()];
    let mut last = None;
    for _ in 0..TRACED_REPS {
        let (wall_s, artifacts) = run_once(&text);
        plain_walls.push(wall_s);
        if fingerprint_of(&artifacts.report) != fingerprint {
            result.problems.push(format!(
                "{workload}: fingerprint changed between plain reps"
            ));
        }
        drop(artifacts);
        let (off_s, _, finished) = replica_run(&text, false);
        off_totals.push(off_s);
        check_same_program(&mut result, "untraced replica", &finished, &reference);
        let (on_s, rec, finished) = replica_run(&text, true);
        on_totals.push(on_s);
        check_same_program(&mut result, "traced replica", &finished, &reference);
        for name in &rec.names {
            phase_s
                .entry(name.clone())
                .or_default()
                .push(rec.total_s(name));
        }
        for (i, step) in STEPS.iter().enumerate() {
            step_ns[i].extend(rec.durations_ns(&format!("step.{step}")));
        }
        last = Some((rec, finished));
    }
    let (rec, finished) = last.expect("at least one traced rep");
    let run_wall_s = median(&plain_walls);
    if let Some(dir) = spans_out.parent() {
        // The span dump is a by-product; failing to write it loses no metric.
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(spans_out, rec.to_tsv()));
        match written {
            Ok(()) => println!("spans {} -> {}", rec.spans.len(), spans_out.display()),
            Err(e) => println!("spans not written to {}: {e}", spans_out.display()),
        }
    }
    // A span name no rep recorded (a step this workload never takes)
    // summarises to zero.
    let phase = |name: &str| Summary::of(phase_s.get(name).map_or(&[], Vec::as_slice));

    // Sink ablations of the drive phase, one of each per round.
    let configs = [
        ("bare", Sinks::BARE, 1),
        (
            "spans",
            Sinks {
                spans: true,
                ..Sinks::BARE
            },
            1,
        ),
        (
            "legacy_ring",
            Sinks {
                legacy_ring: true,
                ..Sinks::BARE
            },
            1,
        ),
        (
            "flight_timeline",
            Sinks {
                flight_timeline: true,
                ..Sinks::BARE
            },
            1,
        ),
        ("all", Sinks::RUNNER, 1),
        ("all_t2", Sinks::RUNNER, 2),
    ];
    let mut drive_s: Vec<Vec<f64>> = vec![Vec::new(); configs.len()];
    let mut drive_events = 0;
    let mut digests = Vec::new();
    for _ in 0..ABLATION_REPS {
        for (i, (name, sinks, threads)) in configs.iter().enumerate() {
            let (s, events, span_digest, trace_hash) = drive_sample(&text, *sinks, *threads);
            drive_s[i].push(s);
            if *name == "bare" {
                drive_events = events;
            } else if events != drive_events {
                result.problems.push(format!(
                    "{workload}: drive under {name} processed {events} events, bare {drive_events}"
                ));
            }
            if *sinks == Sinks::RUNNER {
                digests.push((*name, span_digest, trace_hash));
            }
        }
    }
    for (name, span_digest, trace_hash) in &digests {
        if (*span_digest, *trace_hash) != (fingerprint.span_digest, fingerprint.trace_hash) {
            result.problems.push(format!(
                "{workload}: drive under {name} gave span_digest={span_digest:016x} \
                 trace_hash={trace_hash:016x}, the plain run {fingerprint}"
            ));
        }
    }
    let drive_of = |name: &str| -> f64 {
        let i = configs
            .iter()
            .position(|c| c.0 == name)
            .expect("a configured ablation");
        median(&drive_s[i])
    };
    let bare_s = drive_of("bare");

    let k = kernels::measure(scale.min(1.0));
    let scan = &finished.scan;
    let events = fingerprint.events as f64;

    let m = &mut result.metrics;
    let timed = |m: &mut Vec<Metric>, name: &str, s: Summary| m.push(Metric::timed(name, "s", s));
    let value = |m: &mut Vec<Metric>, name: &str, unit: &'static str, v: f64| {
        m.push(Metric::value(name, unit, v))
    };

    // dcdo-scenario
    timed(m, "scenario.parse_s", phase("scenario.parse"));
    timed(m, "scenario.build_world_s", phase("scenario.build_world"));
    timed(m, "scenario.setup_s", phase("scenario.setup"));
    let drive_summary = phase("scenario.drive");
    timed(m, "scenario.drive_s", drive_summary);
    value(
        m,
        "scenario.drive_events_per_s",
        "1/s",
        ratio(drive_events as f64, drive_summary.median),
    );
    timed(m, "scenario.measure_s", phase("scenario.measure"));
    timed(
        m,
        "scenario.derive_series_s",
        phase("scenario.derive_series"),
    );
    timed(m, "scenario.judge_s", phase("scenario.judge"));
    timed(m, "scenario.clone_spans_s", phase("scenario.clone_spans"));
    timed(m, "scenario.teardown_s", phase("scenario.teardown"));
    for (i, step) in STEPS.iter().enumerate() {
        let durations: Vec<f64> = step_ns[i].iter().map(|&ns| ns as f64 / 1e3).collect();
        let count = step_ns[i].len() / TRACED_REPS;
        value(
            m,
            &format!("scenario.step.{step}.count"),
            "count",
            count as f64,
        );
        timed(
            m,
            &format!("scenario.step.{step}.total_s"),
            phase(&format!("step.{step}")),
        );
        value(
            m,
            &format!("scenario.step.{step}.p50_us"),
            "us",
            quantile(&durations, 0.50),
        );
        value(
            m,
            &format!("scenario.step.{step}.p99_us"),
            "us",
            quantile(&durations, 0.99),
        );
    }
    let phases_total: f64 = RUN_PHASES.iter().map(|p| phase(p).median).sum();
    value(
        m,
        "scenario.unattributed_frac",
        "frac",
        1.0 - ratio(phases_total, run_wall_s),
    );

    // dcdo-sim
    timed(m, "sim.run_s", phase("sim.run"));
    value(m, "sim.events", "count", events);
    value(
        m,
        "sim.peak_pending_events",
        "count",
        finished.peak_pending_events as f64,
    );
    timed(m, "sim.timeline_export_s", phase("sim.timeline_export"));
    value(
        m,
        "sim.timeline_json_bytes",
        "bytes",
        finished.timeline_json.len() as f64,
    );
    value(
        m,
        "sim.engine_floor_ns_per_event",
        "ns",
        k.engine_floor_ns_per_event,
    );
    value(m, "sim.net_plan_ns", "ns", k.net_plan_ns);
    value(
        m,
        "sim.engine_share_frac",
        "frac",
        ratio(
            k.engine_floor_ns_per_event * drive_events as f64,
            bare_s * 1e9,
        ),
    );
    value(
        m,
        "sim.parallel.t2_speedup_x",
        "x",
        ratio(drive_of("all"), drive_of("all_t2")),
    );

    // dcdo-trace
    value(m, "trace.spans.count", "count", scan.spans as f64);
    value(
        m,
        "trace.spans_per_event",
        "count",
        ratio(scan.spans as f64, events),
    );
    timed(m, "trace.span_digest_s", phase("trace.span_digest"));
    timed(
        m,
        "trace.check_invariants_s",
        phase("trace.check_invariants"),
    );
    timed(m, "trace.tail_sample_s", phase("trace.tail_sample"));
    value(
        m,
        "trace.tail_sample.flows_retained",
        "count",
        finished.flows_retained as f64,
    );
    value(
        m,
        "trace.flight.frames",
        "count",
        finished.flight_frames as f64,
    );
    value(
        m,
        "trace.spans.drive_overhead_x",
        "x",
        ratio(drive_of("spans"), bare_s),
    );
    value(
        m,
        "trace.legacy_ring.drive_overhead_x",
        "x",
        ratio(drive_of("legacy_ring"), bare_s),
    );
    value(
        m,
        "trace.flight_timeline.drive_overhead_frac",
        "frac",
        ratio(drive_of("flight_timeline") - bare_s, bare_s),
    );
    value(
        m,
        "trace.all_sinks.drive_overhead_x",
        "x",
        ratio(drive_of("all"), bare_s),
    );

    // dcdo-chaos, dcdo-profile
    timed(m, "chaos.trace_hash_s", phase("chaos.trace_hash"));
    value(
        m,
        "chaos.actions_applied",
        "count",
        finished.chaos_actions as f64,
    );
    timed(m, "profile.analyze_s", phase("profile.analyze"));
    value(m, "profile.flows", "count", finished.profile_flows as f64);

    // legion
    value(m, "legion.rpc.attempts", "count", scan.rpc_attempts as f64);
    value(m, "legion.rpc.retries", "count", scan.rpc_retries as f64);
    value(
        m,
        "legion.rpc.retry_frac",
        "frac",
        ratio(scan.rpc_retries as f64, scan.rpc_attempts as f64),
    );
    value(
        m,
        "legion.rpc.completed",
        "count",
        scan.rpc_completed as f64,
    );
    value(m, "legion.binding.hits", "count", scan.binding_hits as f64);
    value(
        m,
        "legion.binding.misses",
        "count",
        scan.binding_misses as f64,
    );
    value(
        m,
        "legion.binding.hit_frac",
        "frac",
        ratio(
            scan.binding_hits as f64,
            (scan.binding_hits + scan.binding_misses) as f64,
        ),
    );
    value(
        m,
        "legion.binding.invalidated",
        "count",
        scan.binding_invalidated as f64,
    );

    // dcdo-core
    value(m, "core.flows.started", "count", scan.flows_started as f64);
    value(
        m,
        "core.flows.completed",
        "count",
        scan.flows_completed as f64,
    );
    value(m, "core.flows.aborted", "count", scan.flows_aborted as f64);
    value(
        m,
        "core.generation_stamps",
        "count",
        scan.generation_stamps as f64,
    );
    value(m, "core.calls_served", "count", scan.calls_served as f64);
    value(m, "core.dfm.resolve_hit_ns", "ns", k.dfm_resolve_hit_ns);
    value(
        m,
        "core.dfm.resolve_post_reconfig_ns",
        "ns",
        k.dfm_resolve_post_reconfig_ns,
    );
    value(
        m,
        "core.dfm_share_frac",
        "frac",
        ratio(
            k.dfm_resolve_hit_ns * scan.calls_served as f64
                + k.dfm_resolve_post_reconfig_ns * scan.generation_stamps as f64,
            bare_s * 1e9,
        ),
    );

    // dcdo-vm
    value(m, "vm.instructions", "count", scan.vm_instructions as f64);
    value(m, "vm.sim_work_ns", "ns", scan.vm_work_ns as f64);
    value(m, "vm.ns_per_instr", "ns", k.vm_ns_per_instr);
    let (decodes, hits, invalidations) = finished.decode_cache;
    value(m, "vm.decode_cache.decodes", "count", decodes as f64);
    value(m, "vm.decode_cache.hits", "count", hits as f64);
    value(
        m,
        "vm.decode_cache.invalidations",
        "count",
        invalidations as f64,
    );
    value(
        m,
        "vm.share_frac",
        "frac",
        ratio(
            k.vm_ns_per_instr * scan.vm_instructions as f64,
            bare_s * 1e9,
        ),
    );

    // dcdo-group
    let (calls_ok, calls_refused) = finished.group_calls;
    value(
        m,
        "group.epochs_committed",
        "count",
        scan.epochs_committed as f64,
    );
    value(m, "group.calls_ok", "count", calls_ok as f64);
    value(m, "group.calls_refused", "count", calls_refused as f64);
    value(
        m,
        "group.refused_frac",
        "frac",
        ratio(calls_refused as f64, (calls_ok + calls_refused) as f64),
    );
    value(m, "group.delta_join_ns", "ns", k.group_delta_join_ns);

    // The benchmark itself, and the simulated-time end-to-end metrics.
    value(m, "bench.plain_run_wall_s", "s", run_wall_s);
    value(
        m,
        "bench.trace_overhead_frac",
        "frac",
        ratio(
            median(&on_totals) - median(&off_totals),
            median(&off_totals),
        ),
    );
    m.extend(sim_metrics(&reference.report, scan));

    for metric in &result.metrics {
        println!("{}", metric.line());
    }
    Some(result)
}

/// Records a problem for every way `replica` differs from the plain run.
fn check_same_program(
    result: &mut RunResult,
    what: &str,
    replica: &Finished,
    reference: &dcdo_scenario::RunArtifacts,
) {
    let expected = fingerprint_of(&reference.report);
    if replica.fingerprint != expected {
        result.problems.push(format!(
            "{what} is not the plain run: {} vs {expected}",
            replica.fingerprint
        ));
    }
    if replica.verdicts != reference.report.verdicts {
        result
            .problems
            .push(format!("{what}'s verdicts differ from the plain run's"));
    }
    if replica.timeline_json != reference.timeline_json {
        result.problems.push(format!(
            "{what}'s timeline export differs from the plain run's"
        ));
    }
    let retained = reference
        .flight
        .as_ref()
        .map_or(0, |f| f.flows.len() as u64);
    if replica.flows_retained != retained {
        result.problems.push(format!(
            "{what} retained {} flows, the plain run {retained}",
            replica.flows_retained
        ));
    }
}
