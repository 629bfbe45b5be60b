//! Golden parity: every declared scenario's full report — trace hash, span
//! digest, flight digest, event count, counters, gauges, verdicts — is
//! pinned byte-for-byte by the committed `BENCH_scenarios.json` (the
//! output of `dcdo-inspect scenario all`).
//!
//! The scenarios that wrap `dcdo-workloads` drivers (`reconfig_run`, the
//! `simbench` shapes) are additionally compared against direct runs of
//! those drivers, guarding the wiring between workload and runner.

use std::collections::{BTreeMap, BTreeSet};

use dcdo_chaos::{trace_hash, SpanTraceHash};
use dcdo_scenario::{
    registry, run, run_artifacts, Expectation, RunCx, Scenario, Verdict, TRACE_RING_CAPACITY,
};
use dcdo_sim::{
    fnv1a, Fnv1a, Fold, NetConfig, SimTime, Simulation, SpanEvent, SpanId, SpanKind, Trace,
    TraceEvent, TraceLog,
};
use dcdo_workloads::{reconfig, simbench};
use legion_substrate::Msg;

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
    // reconfig_run leaves the legacy ring off: the direct run's hash is
    // folded from its span log, as the runner folds the report's.
    let log = direct.bed.sim.spans();
    assert_eq!(report.trace_hash, fold_structural(log));
    assert_eq!(report.span_digest, log.digest());
    assert!(report.passed, "{}", report.render());
}

/// Runs a shape directly: a simulation over `net` at `seed` with the ring
/// and the span log on before `populate` spawns the first actor, then
/// drained. Returns `(trace_hash, span_digest, events_processed)`.
fn direct_shape(
    net: NetConfig,
    seed: u64,
    populate: impl FnOnce(&mut Simulation<Msg>) -> u64,
) -> (u64, u64, u64) {
    let mut sim = Simulation::new(net, seed);
    sim.trace_mut().enable(TRACE_RING_CAPACITY);
    sim.spans_mut().enable();
    populate(&mut sim);
    sim.run_until_idle();
    (
        trace_hash(sim.trace()),
        sim.spans().digest(),
        sim.events_processed(),
    )
}

/// The declared shape `name` reports what [`direct_shape`] gives.
fn assert_matches_direct_run(name: &str, direct: (u64, u64, u64)) {
    let report = run(declared(name)).expect("valid scenario");
    let ran = (
        report.trace_hash,
        report.span_digest,
        report.events_processed,
    );
    assert_eq!(ran, direct, "{name}");
    assert!(report.passed, "{}", report.render());
}

#[test]
fn ping_pong_matches_direct_run() {
    let direct = direct_shape(NetConfig::centurion(), 17, |sim| {
        simbench::ping_pong(sim, 200)
    });
    assert_matches_direct_run("ping_pong", direct);
}

#[test]
fn fan_out_matches_direct_run() {
    let direct = direct_shape(NetConfig::instant(), 19, |sim| {
        simbench::fan_out(sim, 20, 8, 16)
    });
    assert_matches_direct_run("fan_out", direct);
}

#[test]
fn transfer_heavy_matches_direct_run() {
    let direct = direct_shape(NetConfig::centurion(), 29, |sim| {
        simbench::transfer_heavy(sim, 4, 6)
    });
    assert_matches_direct_run("transfer_heavy", direct);
}

/// `log` without the spans `skip` selects (it sees each span and its
/// parent), the rest renumbered as if the skipped ones had never been
/// emitted: each lane's later span ids close up, and a parent that was
/// skipped becomes none. This is the log a run that never emitted them
/// would have written, as long as nothing the skipped spans caused depends
/// on them otherwise.
fn without(log: &TraceLog, skip: impl Fn(&SpanEvent, Option<&SpanEvent>) -> bool) -> TraceLog {
    // A lane span id is `(lane + 1) << 48 | per-lane counter`.
    let mut closed: BTreeMap<u64, u64> = BTreeMap::new();
    let mut renamed: BTreeMap<u64, Option<SpanId>> = BTreeMap::new();
    let mut kept = Vec::new();
    for e in log.events() {
        let parent = e.parent.and_then(|p| log.get(p));
        let lane = e.id.as_raw() >> 48;
        if skip(e, parent) {
            *closed.entry(lane).or_default() += 1;
            renamed.insert(e.id.as_raw(), None);
            continue;
        }
        let shift = closed.get(&lane).copied().unwrap_or(0);
        let id = SpanId::from_raw(e.id.as_raw() - shift).expect("nonzero");
        renamed.insert(e.id.as_raw(), Some(id));
        let parent = e
            .parent
            .and_then(|p| renamed.get(&p.as_raw()).copied().unwrap_or(Some(p)));
        kept.push(SpanEvent { id, parent, ..*e });
    }
    let (_, groups) = log.clone().take_events();
    TraceLog::from_events(kept, groups)
}

/// The three shapes, whose spans before the first executed event (the
/// spawns and the kick's send) the runner logs since it spawns them into
/// its own world with the log already on; their earlier driver spawned
/// them before switching the log on.
const SHAPES: [&str; 3] = ["ping_pong", "fan_out", "transfer_heavy"];

/// An actor's death recorded from its own handler (`Ctx::kill` of
/// itself, `Ctx::crash_node` of its node): an `ActorKilled` whose parent
/// is the delivery or timer that ran the actor. The engine logs these since
/// it records every death; before, only the driver's kills and crashes
/// were logged.
fn is_self_kill(e: &SpanEvent, parent: Option<&SpanEvent>) -> bool {
    let SpanKind::ActorKilled { actor } = e.kind else {
        return false;
    };
    matches!(
        parent.map(|p| p.kind),
        Some(SpanKind::MsgDelivered { dst: ran, .. } | SpanKind::TimerFired { actor: ran, .. })
            if ran == actor
    )
}

/// The spans a run added to what the witnesses pinned before: its
/// self-kills, and `scenario`'s setup-time spans if it is one of the
/// [`SHAPES`].
fn added_span(scenario: &str, log: &TraceLog) -> impl Fn(&SpanEvent, Option<&SpanEvent>) -> bool {
    let events = log.events();
    let setup = match SHAPES.contains(&scenario) {
        true => events
            .iter()
            .position(|e| e.kind.executed().is_some())
            .unwrap_or(events.len()),
        false => 0,
    };
    let setup: BTreeSet<u64> = events[..setup].iter().map(|e| e.id.as_raw()).collect();
    move |e: &SpanEvent, parent: Option<&SpanEvent>| {
        setup.contains(&e.id.as_raw()) || is_self_kill(e, parent)
    }
}

/// The structural fold `trace_hash` is: the runner's, over `log`.
fn fold_structural(log: &TraceLog) -> u64 {
    let structural = log
        .events()
        .iter()
        .filter(|e| TraceEvent::of_span(&e.kind).is_some())
        .count() as u64;
    let mut ring = SpanTraceHash::new(structural, TRACE_RING_CAPACITY);
    for e in log.events() {
        ring.observe(e);
    }
    ring.finish()
}

/// `(scenario, trace_hash, span_digest, flight_digest, events_processed)`
/// as `BENCH_scenarios.json` pinned them before the three shapes moved
/// into the runner's world and the engine logged self-kills.
const BEFORE_THE_ADDED_SPANS: [(&str, u64, u64, u64, u64); 10] = [
    (
        "mixed_traffic",
        0xbe92d39dc580cc40,
        0x84345e5af3533c07,
        0xa7f4b2f9e9172bd2,
        1875,
    ),
    (
        "reconfig",
        0x9163484e507cb660,
        0xfaa5965444733bc1,
        0xa992af7fe38b2043,
        93,
    ),
    (
        "crash_during_reconfig",
        0x64271a2dafb8cdb9,
        0xbf0a564df2e35fa8,
        0x656664ac2d17c72c,
        146,
    ),
    (
        "rolling_partition",
        0x7964d70338d0715f,
        0x69eaf7bc026e501a,
        0x6ab6e027d93f8309,
        1584,
    ),
    (
        "restart_storm",
        0xebed95b4e0ee31ac,
        0x46edd56ce1afa8d8,
        0xb0c700e89089be29,
        647,
    ),
    (
        "rolling_upgrade",
        0x8ac4eea4e7337d2f,
        0xc6dcbf822ad0beca,
        0x188b51d664b0c84c,
        3090,
    ),
    (
        "rolling_upgrade_coord_crash",
        0x817740abf8e32bdd,
        0xaa6e824e0eb61c61,
        0xbb267815155ff419,
        3071,
    ),
    (
        "ping_pong",
        0x862d8cbf2f0e0f5a,
        0xb45c7eb2b508f6c6,
        0xab5f32c241e9be68,
        401,
    ),
    (
        "fan_out",
        0xb1b2e77e4e0de1b6,
        0xf13dc0cd9190ce62,
        0x0e81ece545268cf8,
        321,
    ),
    (
        "transfer_heavy",
        0xcee3c5cb9b7e1b91,
        0xdf81efab02ef1596,
        0x8c83e390e38054d2,
        49,
    ),
];

/// The re-pin proof: without the spans runs have added since
/// [`BEFORE_THE_ADDED_SPANS`] ([`added_span`]), every declared scenario's
/// log folds and digests to its old pin, and no flight digest or event
/// count moved. `mixed_traffic` logs one self-kill per migration.
#[test]
fn each_repin_moves_only_by_the_spans_it_adds() {
    assert_eq!(registry::declared().len(), BEFORE_THE_ADDED_SPANS.len());
    for (name, trace, span, flight, events) in BEFORE_THE_ADDED_SPANS {
        let artifacts = run_artifacts(declared(name), None).expect("valid scenario");
        let report = &artifacts.report;
        let log = TraceLog::from_events(artifacts.spans, artifacts.span_groups);
        let old = without(&log, added_span(name, &log));
        assert_eq!(fold_structural(&log), report.trace_hash, "{name}: the fold");
        assert_eq!(fold_structural(&old), trace, "{name}: trace_hash");
        assert_eq!(old.digest(), span, "{name}: span_digest");
        assert_eq!(report.flight_digest, flight, "{name}: flight_digest");
        assert_eq!(report.events_processed, events, "{name}: events");
        let self_kills = log
            .events()
            .iter()
            .filter(|e| is_self_kill(e, e.parent.and_then(|p| log.get(p))))
            .count();
        if name == "mixed_traffic" {
            let migrations = report.counters.iter().find(|(k, _)| k == "migrations.ok");
            assert_eq!(migrations.map(|m| m.1), Some(23));
            assert_eq!(self_kills, 23, "one self-kill per migration");
        }
        if SHAPES.contains(&name) {
            assert!(old.len() < log.len(), "{name}: the setup spans are logged");
        }
    }
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
fn retained_flight_trees_are_pinned() {
    // The report fingerprint carries only the ring digest; this pins the
    // tail sampler's retained causal trees themselves.
    for (name, fnv) in [
        ("mixed_traffic", 0x5074_42aa_4a9a_f1efu64),
        ("crash_during_reconfig", 0x8918_971f_1be4_b2c1u64),
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

/// A [`Fold`] over `text`'s bytes, eight to a little-endian word (the last
/// zero-padded), seeded with the byte length.
fn fold_text(text: &str) -> u64 {
    let mut fold = Fold::new(text.len() as u64);
    for chunk in text.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        fold.word(u64::from_le_bytes(word));
    }
    fold.finish()
}

/// `(scenario, timeline JSON, timeline Prometheus text)` folds, taken from
/// the `BTreeMap` window store and its `write!` exporters before the
/// sorted-`Vec` store and the direct integer writer replaced them.
const TIMELINE_EXPORTS: [(&str, u64, u64); 10] = [
    ("mixed_traffic", 0xcc296a838d8d8993, 0xe3fa6f597d9b2a70),
    ("reconfig", 0xd5460e587c83341f, 0xeeba9c8fc866ac3b),
    (
        "crash_during_reconfig",
        0xbdbc4d7b1ed9138a,
        0x9408684a5385bc22,
    ),
    ("rolling_partition", 0xabac1ce8c89f454c, 0xdebdb0063572cf55),
    ("restart_storm", 0x8edaf6760daff11a, 0x7fcb4eaf26c3961d),
    ("rolling_upgrade", 0x75a860eb3ed62ec7, 0x7b21a220744bcb0f),
    (
        "rolling_upgrade_coord_crash",
        0xc205a00e7dca44be,
        0xc99aba087ee39d55,
    ),
    ("ping_pong", 0x4bb9138b7a38abbf, 0x76872f9bdf233cc1),
    ("fan_out", 0x6526e028131222ac, 0xe16865b156548039),
    ("transfer_heavy", 0x83b5cd01c2a263c3, 0xf9382e459daf1776),
];

/// The timeline exports of every declared scenario are byte-identical to
/// what the previous window store and exporters wrote.
#[test]
fn timeline_exports_are_pinned() {
    assert_eq!(registry::declared().len(), TIMELINE_EXPORTS.len());
    for (&(name, _), &(pinned, json, prom)) in registry::declared().iter().zip(&TIMELINE_EXPORTS) {
        assert_eq!(name, pinned);
        let mut artifacts = run_artifacts(declared(name), None).expect("valid scenario");
        let got = fold_text(&artifacts.timeline_json);
        assert_eq!(got, json, "{name}: timeline JSON now folds to {got:#018x}");
        let got = fold_text(&artifacts.timeline.to_prometheus());
        assert_eq!(
            got, prom,
            "{name}: timeline Prometheus now folds to {got:#018x}"
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
        let log = TraceLog::from_events(artifacts.spans, artifacts.span_groups);
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

/// Partitions installed through `Simulation::set_partition` (by
/// `rolling_partition`'s chaos plan) keep their groups in the log's arena:
/// after the spans leave the run in `RunArtifacts` and are wrapped again,
/// the digest, both exporters and the checker all read the same groups.
#[test]
fn partition_groups_survive_the_artifacts_round_trip() {
    use dcdo_sim::{check_trace_invariants, SendVerdict, SpanEvent, SpanId, Violation};
    let artifacts = run_artifacts(declared("rolling_partition"), None).expect("valid scenario");
    let (spans, groups) = (artifacts.spans, artifacts.span_groups);
    let log = TraceLog::from_events(spans.clone(), groups.clone());
    assert_eq!(log.digest(), artifacts.report.span_digest);

    let installed: Vec<(usize, &[u32])> = log
        .events()
        .iter()
        .enumerate()
        .filter_map(|(pos, e)| match e.kind {
            SpanKind::PartitionChanged { groups } => Some((pos, log.groups(groups))),
            _ => None,
        })
        .collect();
    let expected: [&[u32]; 2] = [&[1, 1, 1, 1, 2, 2, 2, 2], &[1, 2, 1, 2, 1, 2, 1, 2]];
    assert_eq!(installed.iter().map(|p| p.1).collect::<Vec<_>>(), expected);

    let jsonl = log.to_jsonl();
    let jsonl: Vec<&str> = jsonl.lines().collect();
    let chrome = log.to_chrome_trace();
    for &(pos, groups) in &installed {
        let list: Vec<String> = groups.iter().map(u32::to_string).collect();
        let tail = format!("\"ngroups\":8,\"groups\":[{}]}}", list.join(","));
        assert!(jsonl[pos].ends_with(&tail), "JSONL: {}", jsonl[pos]);
        assert!(
            chrome.contains(&format!("{tail}}}")),
            "Chrome trace: {tail}"
        );
    }

    // The checker replays reachability from the arena: right after the
    // first partition, node 0 reaches node 2 but not node 4.
    let first = installed[0].0;
    let planted = |dst_node: u32| {
        let mut log = TraceLog::from_events(spans[..=first].to_vec(), groups.clone());
        log.push_event(SpanEvent {
            id: SpanId::from_raw(u64::MAX).expect("nonzero"),
            parent: None,
            at_ns: spans[first].at_ns,
            node: 0,
            kind: SpanKind::MsgSent {
                src: 0,
                dst: 1,
                src_node: 0,
                dst_node,
                verdict: SendVerdict::Sent,
                bytes: 1,
            },
        });
        check_trace_invariants(&log)
            .into_iter()
            .filter(|v| matches!(v, Violation::SentAcrossFault { .. }))
            .count()
    };
    assert_eq!((planted(2), planted(4)), (0, 1));
}

/// The witnesses as the parent of the word fold (PR 15) computed them,
/// byte-serial FNV-1a throughout, from public accessors only: the re-pin
/// oracle. Judged like any expectation, so it reads the very span log and
/// flight ring the run's own (folded) witnesses come from. The runner
/// leaves the legacy trace ring off, so the ring is replayed from the
/// log's structural spans, one entry each, as the engine would have
/// recorded it. The log is read without the spans that runs added since
/// ([`added_span`]; the tests above prove each such re-pin).
struct LegacyWitnesses(&'static str);

impl Expectation for LegacyWitnesses {
    fn name(&self) -> &str {
        "legacy_witnesses"
    }

    fn judge(&mut self, cx: &RunCx) -> Verdict {
        let sim = cx.world.sim().expect("a world was built");
        let log = without(sim.spans(), added_span(self.0, sim.spans()));
        let mut ring = Trace::new();
        ring.enable(TRACE_RING_CAPACITY);
        for e in log.events() {
            if let Some(event) = TraceEvent::of_span(&e.kind) {
                ring.record(SimTime::from_nanos(e.at_ns), event);
            }
        }
        let trace = fnv1a(ring.render().as_bytes());
        let [span, span_sans_configs, span_sans_vm_ids] = legacy_span_digests(&log);
        let mut flight = Fnv1a::new();
        let mut word = |w: u64| flight.write_bytes(&w.to_le_bytes());
        word(sim.flight().recorded());
        for frame in sim.flight().frames() {
            word(frame.at_ns);
            word(frame.meta);
        }
        let flight = flight.finish();
        Verdict::pass(
            self.name(),
            format!(
                "{trace:016x} {span:016x} {flight:016x} {span_sans_configs:016x} \
                 {span_sans_vm_ids:016x}"
            ),
        )
    }
}

/// A word [`legacy_span_digests`] covers, by which digests leave it out.
#[derive(Clone, Copy, PartialEq)]
enum Word {
    /// Every digest covers it.
    Kept,
    /// The `config` word of `EpochProposed`/`EpochCommitted`.
    Config,
    /// The `object` or `call` word of a `VmCost` in the 88-byte record.
    VmId,
}

/// PR 15's `TraceLog::digest`: id, parent, time, node, kind code, then the
/// kind's fields in declaration order, a `GenerationStamp` contributing only
/// its object, a `PartitionChanged` also its groups. Fields and groups are
/// read back from the JSONL export, which prints exactly those, so the
/// oracle does not depend on the span record's layout.
///
/// Three digests, `[all, sans configs, sans VM ids]`. The second leaves out
/// the `config` words: that value is itself a `dcdo-group` lattice digest,
/// which moved to the fold too. The third leaves out `VmCost`'s `object`
/// and `call` words, which the 64-byte span record dropped.
fn legacy_span_digests(log: &TraceLog) -> [u64; 3] {
    let mut digests = [Fnv1a::new(), Fnv1a::new(), Fnv1a::new()];
    for (e, line) in log.events().iter().zip(log.to_jsonl().lines()) {
        let mut word = |w: u64, kind: Word| {
            for (digest, left_out) in
                digests
                    .iter_mut()
                    .zip([None, Some(Word::Config), Some(Word::VmId)])
            {
                if left_out != Some(kind) {
                    digest.write_bytes(&w.to_le_bytes());
                }
            }
        };
        for w in [
            e.id.as_raw(),
            e.parent.map_or(0, |p| p.as_raw()),
            e.at_ns,
            e.node as u64,
            e.kind.code(),
        ] {
            word(w, Word::Kept);
        }
        // `…,"kind":"<name>"<,"field":value>*[,"groups":[…]]}`
        let fields = line.split_once("\"kind\":\"").expect("kind").1;
        let fields = fields.split_once('"').expect("kind name").1;
        let (fields, groups) = match fields.split_once(",\"groups\":[") {
            Some((fields, groups)) => (fields, groups.trim_end_matches("]}")),
            None => (fields.trim_end_matches('}'), ""),
        };
        let is_epoch = matches!(
            e.kind,
            SpanKind::EpochProposed { .. } | SpanKind::EpochCommitted { .. }
        );
        let is_stamp = matches!(e.kind, SpanKind::GenerationStamp { .. });
        let is_vm = matches!(e.kind, SpanKind::VmCost { .. });
        for field in fields.split(',').skip(1) {
            let (name, value) = field.split_once(':').expect("a pair");
            if is_stamp && name == "\"generation\"" {
                continue;
            }
            let kind = match name {
                "\"config\"" if is_epoch => Word::Config,
                "\"object\"" | "\"call\"" if is_vm => Word::VmId,
                _ => Word::Kept,
            };
            word(value.parse().expect("an integer field"), kind);
        }
        for g in groups.split(',').filter(|g| !g.is_empty()) {
            word(g.parse().expect("an integer group"), Word::Kept);
        }
    }
    digests.map(|d| d.finish())
}

/// `(scenario, trace_hash, span_digest, flight_digest)` exactly as PR 15's
/// `BENCH_scenarios.json` committed them, frozen here when the witnesses
/// moved from byte-serial FNV-1a to the word fold.
const PR15_WITNESSES: [(&str, u64, u64, u64); 10] = [
    (
        "mixed_traffic",
        0x97687be6a1494396,
        0x6ee60657563181a8,
        0x7b08709876c59d54,
    ),
    (
        "reconfig",
        0x29fa196e3360438b,
        0xa548be305c9ba2da,
        0xf83a6d21f8a990a0,
    ),
    (
        "crash_during_reconfig",
        0x0f17e97b9d821bdf,
        0xd742f2dfbc9abd22,
        0xc752d67d8fe0994c,
    ),
    (
        "rolling_partition",
        0xfdaf5b5403d416ae,
        0x9cbe6dd0a44785ac,
        0x0c13b226bf71d2df,
    ),
    (
        "restart_storm",
        0x7b18a8a92da4351a,
        0xf7adc191d0a5bcf0,
        0xabb1f839fed9fc19,
    ),
    (
        "rolling_upgrade",
        0x13fd7cec809667ec,
        0x31dccea7ee3ffe8e,
        0xe329742dd5d993f1,
    ),
    (
        "rolling_upgrade_coord_crash",
        0xa670a023a5f2a1fd,
        0x799d35a89be21205,
        0xe9dda8e1b2eab75e,
    ),
    (
        "ping_pong",
        0x9990adecabac00c9,
        0xab5fa64ab00e8bab,
        0x931da280a3fccabb,
    ),
    (
        "fan_out",
        0x65ec887181647a8b,
        0x1c51ef636564bb0c,
        0xab7ec23acd3a80e5,
    ),
    (
        "transfer_heavy",
        0xef5b6b871ab6b8c4,
        0xa56a7375c5ac120d,
        0xda9d6338deeb08c9,
    ),
];

/// The two scenarios whose spans carry group-config digests: their PR 15
/// span digest with the `config` words left out, computed by
/// [`legacy_span_digests`] at the PR 15 commit.
const PR15_SPAN_DIGEST_SANS_CONFIGS: [(&str, u64); 2] = [
    ("rolling_upgrade", 0x10fb_80fc_c4fb_81cb),
    ("rolling_upgrade_coord_crash", 0x65cf_a28d_73a1_444a),
];

/// The three scenarios whose spans carry `VmCost`: their span digest with
/// `VmCost`'s `object` and `call` words left out, computed by
/// [`legacy_span_digests`] from the 88-byte record's spans, in the same run
/// whose full legacy span digest equalled the frozen golden above.
const SPAN_DIGEST_SANS_VM_IDS: [(&str, u64); 3] = [
    ("mixed_traffic", 0xcf10_4525_b2db_d615),
    ("reconfig", 0xcb04_77a3_35f9_a87e),
    ("crash_during_reconfig", 0x7c9d_8669_3b9a_ac1a),
];

/// The one-time re-pin proof: from the same run, the legacy witnesses still
/// equal PR 15's goldens and the folded ones equal the committed
/// `BENCH_scenarios.json` — the values moved, the behaviour they witness
/// did not. Where a re-pin left words out (the `config` digests, the
/// `VmCost` ids) the legacy digest without them equals the frozen one.
#[test]
fn legacy_witnesses_still_match_the_pr15_goldens() {
    assert_eq!(registry::declared().len(), PR15_WITNESSES.len());
    for (&(name, _), &(frozen_name, trace, span, flight)) in
        registry::declared().iter().zip(&PR15_WITNESSES)
    {
        assert_eq!(name, frozen_name);
        let mut scenario = declared(name);
        scenario.expectations.push(Box::new(LegacyWitnesses(name)));
        let report = run_artifacts(scenario, None)
            .expect("valid scenario")
            .report;
        let legacy: Vec<u64> = report
            .verdicts
            .last()
            .expect("the legacy verdict")
            .detail
            .split(' ')
            .map(|hex| u64::from_str_radix(hex, 16).expect("hex"))
            .collect();
        assert_eq!(legacy[0], trace, "{name}: legacy trace hash");
        assert_eq!(legacy[2], flight, "{name}: legacy flight digest");
        let frozen = |table: &[(&str, u64)]| table.iter().find(|(n, _)| *n == name).map(|e| e.1);
        match (
            frozen(&PR15_SPAN_DIGEST_SANS_CONFIGS),
            frozen(&SPAN_DIGEST_SANS_VM_IDS),
        ) {
            (Some(sans_configs), _) => assert_eq!(
                legacy[3], sans_configs,
                "{name}: legacy span digest sans configs"
            ),
            (None, Some(sans_vm_ids)) => assert_eq!(
                legacy[4], sans_vm_ids,
                "{name}: legacy span digest sans VM ids"
            ),
            (None, None) => {
                assert_eq!(legacy[1], span, "{name}: legacy span digest");
                assert_eq!(legacy[3], span, "{name}: no config words to leave out");
                assert_eq!(legacy[4], span, "{name}: no VM ids to leave out");
            }
        }
        let folded = format!(
            "{{\"scenario\":\"{name}\",\"seed\":{},\"passed\":true,\"trace_hash\":\"{:016x}\",\
             \"span_digest\":\"{:016x}\",\"flight_digest\":\"{:016x}\",",
            report.seed, report.trace_hash, report.span_digest, report.flight_digest
        );
        assert!(
            GOLDEN.contains(&folded),
            "{name}: not in BENCH_scenarios.json: {folded}"
        );
    }
}
