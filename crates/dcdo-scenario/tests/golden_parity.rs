//! Golden parity: every declared scenario's full report — trace hash, span
//! digest, flight digest, event count, counters, gauges, verdicts — is
//! pinned byte-for-byte by the committed `BENCH_scenarios.json` (the
//! output of `dcdo-inspect scenario all`).
//!
//! The episode scenarios are additionally compared against direct runs of
//! the drivers they wrap (`reconfig_run`, the sim-bench shapes), guarding
//! the wiring between episode and runner.

use dcdo_chaos::trace_hash;
use dcdo_scenario::{registry, run, run_artifacts, Expectation, RunCx, Scenario, Verdict};
use dcdo_sim::{fnv1a, Fnv1a, Fold, SpanKind, TraceLog};
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
/// oracle. Judged like any expectation, so it reads the very trace ring,
/// span log and flight ring the run's own (folded) witnesses come from.
struct LegacyWitnesses;

impl Expectation for LegacyWitnesses {
    fn name(&self) -> &str {
        "legacy_witnesses"
    }

    fn judge(&mut self, cx: &RunCx) -> Verdict {
        let sim = cx.world.sim().expect("a world was built");
        let trace = fnv1a(sim.trace().render().as_bytes());
        let [span, span_sans_configs, span_sans_vm_ids] = legacy_span_digests(sim.spans());
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
        scenario.expectations.push(Box::new(LegacyWitnesses));
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
