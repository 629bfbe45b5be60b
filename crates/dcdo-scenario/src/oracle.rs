//! The post-run readers as they were before the runner fused them into one
//! read of the span log, kept as the differential oracles of
//! `runner::tests::fused_sweep_equals_the_batch_oracles`: the windowed
//! derive with its staging `Vec`s, the checker's loop, the tail sampler's
//! flow table and its second sweep for the retained trees, and the span
//! digest. They use only the public span-log API; the digest takes each
//! span's fields from the JSONL export, so it shares no code with the fold
//! it checks.

use std::collections::BTreeMap;

use dcdo_sim::{
    FlightDump, FlowKind, Fold, IdMap, RetainedFlow, RpcOutcome, SpanKind, Timeline, TraceLog,
    Violation,
};

/// The runner's windowed-series derive: samples and counters staged, then
/// recorded, samples first.
pub(crate) fn derive_windowed_series(log: &TraceLog, timeline: &mut Timeline) {
    let mut samples: Vec<(u64, &'static str, f64)> = Vec::new();
    let mut counters: Vec<(u64, &'static str, u64)> = Vec::new();
    let mut flow_start: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rpc_start: BTreeMap<u64, u64> = BTreeMap::new();
    for e in log.events() {
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
    for (at_ns, name, value) in samples {
        timeline.record_sample(at_ns, name, value);
    }
    for (at_ns, name, delta) in counters {
        timeline.record_counter(at_ns, name, delta);
    }
    timeline.flush();
}

/// Replayed topology: which nodes are down and how they are grouped.
#[derive(Default)]
struct Topology {
    down: Vec<bool>,
    groups: Vec<u32>,
}

impl Topology {
    fn is_down(&self, node: u32) -> bool {
        self.down.get(node as usize).copied().unwrap_or(false)
    }

    fn set_down(&mut self, node: u32, down: bool) {
        let node = node as usize;
        if node >= self.down.len() {
            if !down {
                return;
            }
            self.down.resize(node + 1, false);
        }
        self.down[node] = down;
    }

    fn reachable(&self, src: u32, dst: u32) -> bool {
        let group = |node: u32| self.groups.get(node as usize).copied().unwrap_or(0);
        src == dst || (!self.is_down(src) && !self.is_down(dst) && group(src) == group(dst))
    }
}

/// The invariant checker's loop.
pub(crate) fn check(log: &TraceLog) -> Vec<Violation> {
    let mut violations = Vec::new();
    let mut topo = Topology::default();
    let mut flows: IdMap<u64, (u64, bool, u32)> = IdMap::default();
    let mut generations: IdMap<u64, u64> = IdMap::default();
    let mut calls: IdMap<u64, (bool, bool, u32)> = IdMap::default();
    let mut recovering: IdMap<u64, u64> = IdMap::default();
    let mut committed: IdMap<u64, u64> = IdMap::default();
    let mut adopted: IdMap<(u64, u64), u64> = IdMap::default();

    for e in log.events() {
        match &e.kind {
            SpanKind::NodeCrashed { node } => {
                topo.set_down(*node, true);
                for (resolved, _, caller) in calls.values_mut() {
                    if *caller == *node {
                        *resolved = true;
                    }
                }
                for (_, open, owner) in flows.values_mut() {
                    if *owner == *node {
                        *open = false;
                    }
                }
            }
            SpanKind::NodeRestarted { node } => topo.set_down(*node, false),
            SpanKind::PartitionChanged { groups } => topo.groups = log.groups(*groups).to_vec(),
            SpanKind::PartitionHealed => topo.groups.clear(),
            SpanKind::MsgSent {
                src_node,
                dst_node,
                verdict,
                ..
            } if verdict.delivers() && !topo.reachable(*src_node, *dst_node) => {
                violations.push(Violation::SentAcrossFault {
                    span: e.id,
                    src_node: *src_node,
                    dst_node: *dst_node,
                });
            }
            SpanKind::MsgDelivered { dst_node, .. } if topo.is_down(*dst_node) => {
                violations.push(Violation::DeliveredToDeadNode {
                    span: e.id,
                    dst_node: *dst_node,
                });
            }
            SpanKind::FlowStarted { flow, object, kind } => {
                if flows.insert(*flow, (*object, true, e.node)).is_some() {
                    violations.push(Violation::DuplicateFlowStart {
                        span: e.id,
                        flow: *flow,
                    });
                }
                if *kind == FlowKind::Recover {
                    recovering.insert(*object, *flow);
                }
            }
            SpanKind::FlowCompleted { flow } | SpanKind::FlowAborted { flow } => {
                match flows.get_mut(flow) {
                    Some((object, open, _)) if *open => {
                        *open = false;
                        if matches!(e.kind, SpanKind::FlowAborted { .. })
                            && recovering.get(object) == Some(flow)
                        {
                            recovering.remove(object);
                        }
                    }
                    _ => violations.push(Violation::SpuriousFlowEnd {
                        span: e.id,
                        flow: *flow,
                    }),
                }
            }
            SpanKind::GenerationStamp { object, generation } => {
                let last = generations.entry(*object).or_insert(*generation);
                if *generation < *last {
                    violations.push(Violation::GenerationRegressed {
                        object: *object,
                        from: *last,
                        to: *generation,
                    });
                } else {
                    *last = *generation;
                }
            }
            SpanKind::RpcAttempt { call, .. } => {
                calls.entry(*call).or_insert((false, false, e.node)).2 = e.node;
            }
            SpanKind::RpcCompleted { call, .. } => {
                if let Some((_, true, _)) = calls.insert(*call, (true, true, e.node)) {
                    violations.push(Violation::DuplicateRpcCompletion {
                        span: e.id,
                        call: *call,
                    });
                }
            }
            SpanKind::BindingRegistered { object, .. } => {
                recovering.remove(object);
            }
            SpanKind::CallServed { object, .. } if recovering.contains_key(object) => {
                violations.push(Violation::ServedBeforeReregister {
                    span: e.id,
                    object: *object,
                });
            }
            SpanKind::EpochCommitted { group, epoch, .. } => match committed.get(group) {
                Some(&last) if *epoch <= last => violations.push(Violation::EpochRegressed {
                    span: e.id,
                    group: *group,
                    from: last,
                    to: *epoch,
                }),
                _ => {
                    committed.insert(*group, *epoch);
                }
            },
            SpanKind::ReplicaEpoch {
                group,
                replica,
                epoch,
            } => {
                let last = adopted.entry((*group, *replica)).or_insert(*epoch);
                if *epoch < *last {
                    violations.push(Violation::EpochRegressed {
                        span: e.id,
                        group: *group,
                        from: *last,
                        to: *epoch,
                    });
                } else {
                    *last = *epoch;
                }
            }
            SpanKind::EpochServed {
                group,
                replica,
                epoch,
                ..
            } => {
                if let Some(&current) = committed.get(group) {
                    if *epoch < current {
                        violations.push(Violation::MixedEpochServing {
                            span: e.id,
                            group: *group,
                            replica: *replica as u64,
                            serving: *epoch,
                            committed: current,
                        });
                    }
                }
            }
            _ => {}
        }
    }

    let mut leaked: Vec<(u64, u64)> = flows
        .iter()
        .filter(|(_, (_, open, _))| *open)
        .map(|(flow, (object, _, _))| (*flow, *object))
        .collect();
    leaked.sort_unstable();
    violations.extend(
        leaked
            .into_iter()
            .map(|(flow, object)| Violation::LeakedFlow { flow, object }),
    );
    let mut dangling: Vec<u64> = calls
        .iter()
        .filter(|(_, (resolved, _, _))| !*resolved)
        .map(|(call, _)| *call)
        .collect();
    dangling.sort_unstable();
    violations.extend(
        dangling
            .into_iter()
            .map(|call| Violation::DanglingRetryChain { call }),
    );
    violations
}

/// One flow's bookkeeping while the sampler scans the log.
struct FlowInfo {
    object: u64,
    kind_code: u64,
    kind_name: &'static str,
    start_ns: u64,
    end_ns: Option<u64>,
    aborted: bool,
    violating: bool,
}

/// The tail sampler given the checker's verdict: a flow-table sweep, the
/// retention policy, then one more sweep that extracts the retained trees.
/// `ring` is the flight recorder's `(frames recorded, frames retained,
/// digest)`.
pub(crate) fn tail_sample(
    log: &TraceLog,
    violations: &[Violation],
    ring: (u64, u64, u64),
    slow_quantile: f64,
) -> FlightDump {
    let q = slow_quantile.clamp(0.0, 1.0);
    let mut flows: BTreeMap<u64, FlowInfo> = BTreeMap::new();
    for e in log.events() {
        match &e.kind {
            SpanKind::FlowStarted { flow, object, kind } => {
                flows.entry(*flow).or_insert(FlowInfo {
                    object: *object,
                    kind_code: kind.code(),
                    kind_name: kind.name(),
                    start_ns: e.at_ns,
                    end_ns: None,
                    aborted: false,
                    violating: false,
                });
            }
            SpanKind::FlowCompleted { flow } => {
                if let Some(info) = flows.get_mut(flow) {
                    info.end_ns = Some(e.at_ns);
                }
            }
            SpanKind::FlowAborted { flow } => {
                if let Some(info) = flows.get_mut(flow) {
                    info.end_ns = Some(e.at_ns);
                    info.aborted = true;
                }
            }
            _ => {}
        }
    }
    for v in violations {
        if let Violation::LeakedFlow { flow, .. }
        | Violation::SpuriousFlowEnd { flow, .. }
        | Violation::DuplicateFlowStart { flow, .. } = v
        {
            if let Some(info) = flows.get_mut(flow) {
                info.violating = true;
            }
        }
    }
    let duration = |info: &FlowInfo| info.end_ns.map(|end| end.saturating_sub(info.start_ns));
    let mut durations: Vec<u64> = flows.values().filter_map(duration).collect();
    durations.sort_unstable();
    let slow_floor = (!durations.is_empty()).then(|| {
        let rank = ((q * durations.len() as f64).ceil() as usize).max(1) - 1;
        durations[rank]
    });
    let total_flows = flows.len() as u64;
    let mut retained = Vec::new();
    for (flow, info) in flows {
        let slow = matches!((duration(&info), slow_floor), (Some(d), Some(floor)) if d >= floor);
        let aborted = info.aborted || info.end_ns.is_none();
        if aborted || info.violating || slow {
            retained.push(RetainedFlow {
                flow,
                object: info.object,
                kind_code: info.kind_code,
                kind_name: info.kind_name,
                start_ns: info.start_ns,
                end_ns: info.end_ns.unwrap_or(info.start_ns),
                aborted,
                violating: info.violating,
                slow,
                spans: Vec::new(),
            });
        }
    }
    let wanted: Vec<u64> = retained.iter().map(|f| f.flow).collect();
    for (f, tree) in retained.iter_mut().zip(flow_trees(log, &wanted)) {
        f.spans = tree.iter().map(|&pos| log.events()[pos]).collect();
    }
    let (frames_recorded, frames_retained, ring_digest) = ring;
    FlightDump {
        slow_quantile: q,
        total_flows,
        frames_recorded,
        frames_retained,
        ring_digest,
        flows: retained,
    }
}

/// The sampler's second sweep: the causal trees of the `wanted` flows
/// only, as ascending log positions.
fn flow_trees(log: &TraceLog, wanted: &[u64]) -> Vec<Vec<usize>> {
    let slot_of: IdMap<u64, usize> = wanted
        .iter()
        .enumerate()
        .map(|(slot, &flow)| (flow, slot))
        .collect();
    let mut trees = vec![Vec::new(); wanted.len()];
    let mut sets: Vec<Vec<usize>> = (0..wanted.len()).map(|slot| vec![slot]).collect();
    let mut member: IdMap<u64, usize> = IdMap::default();
    for (pos, e) in log.events().iter().enumerate() {
        let own = e.kind.flow_id().and_then(|f| slot_of.get(&f).copied());
        let inherited = e.parent.and_then(|p| member.get(&p.as_raw()).copied());
        let set = match (inherited, own) {
            (None, None) => continue,
            (None, Some(slot)) => slot,
            (Some(set), None) => set,
            (Some(set), Some(slot)) if sets[set].contains(&slot) => set,
            (Some(set), Some(slot)) => {
                let mut union = sets[set].clone();
                union.push(slot);
                sets.push(union);
                sets.len() - 1
            }
        };
        member.insert(e.id.as_raw(), set);
        for &slot in &sets[set] {
            trees[slot].push(pos);
        }
    }
    trees
}

/// The span digest: the span count, then per span its id, parent, time,
/// node, kind code and fields (a `GenerationStamp` only its object), and a
/// `PartitionChanged`'s groups, with the fields and groups read back from
/// the JSONL export.
pub(crate) fn digest(log: &TraceLog) -> u64 {
    let mut fold = Fold::new(log.len() as u64);
    for (e, line) in log.events().iter().zip(log.to_jsonl().lines()) {
        for w in [
            e.id.as_raw(),
            e.parent.map_or(0, |p| p.as_raw()),
            e.at_ns,
            e.node as u64,
            e.kind.code(),
        ] {
            fold.word(w);
        }
        // `…,"kind":"<name>"<,"field":value>*[,"groups":[…]]}`
        let rest = line.split_once("\"kind\":\"").expect("kind").1;
        let rest = rest.split_once('"').expect("kind name").1;
        let (fields, groups) = match rest.split_once(",\"groups\":[") {
            Some((fields, groups)) => (fields, groups.trim_end_matches("]}")),
            None => (rest.trim_end_matches('}'), ""),
        };
        let is_stamp = matches!(e.kind, SpanKind::GenerationStamp { .. });
        for field in fields.split(',').skip(1) {
            let (name, value) = field.split_once(':').expect("a pair");
            if !(is_stamp && name == "\"generation\"") {
                fold.word(value.parse().expect("an integer field"));
            }
        }
        for g in groups.split(',').filter(|g| !g.is_empty()) {
            fold.word(g.parse().expect("a group"));
        }
    }
    fold.finish()
}
