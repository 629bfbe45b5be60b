//! The combined profiler report and its deterministic renderings.

use std::collections::BTreeMap;

use dcdo_trace::{JsonWriter, PromWriter, TraceLog};

use crate::flow::{
    collect_flows, cost_table, step_breakdown, step_name, CostRow, FlowRecord, StepStat,
};
use crate::layer::LayerMap;
use crate::path::{critical_path, CriticalPath};
use crate::rpc::{rpc_amplification, RpcAmplification};
use crate::vm::{vm_costs, FnNames, VmFnCost};

/// Everything the profiler derives from one trace: flows, step breakdowns,
/// the reconfiguration-cost table, per-flow critical paths, RPC
/// amplification, and the VM hot-function list.
///
/// The JSON and Prometheus renderings are integer-first and key-ordered by
/// construction: the same trace renders to byte-identical output on every
/// build profile and machine (asserted in CI by diffing debug vs release).
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Every flow in the log, in start order.
    pub flows: Vec<FlowRecord>,
    /// Per-`(kind, step)` latency cells.
    pub steps: Vec<StepStat>,
    /// The per-kind reconfiguration-cost table.
    pub cost_table: Vec<CostRow>,
    /// Critical path of every terminated flow.
    pub paths: Vec<CriticalPath>,
    /// RPC attempt/retry amplification.
    pub rpc: RpcAmplification,
    /// VM cost per function, hottest first.
    pub vm: Vec<VmFnCost>,
}

impl ProfileReport {
    /// Runs every analysis over a finished log.
    ///
    /// `map` attributes critical-path time to layers (see [`LayerMap`]);
    /// `names` resolves `VmCost` function hashes back to names.
    pub fn analyze(log: &TraceLog, map: &LayerMap, names: &FnNames) -> Self {
        let flows = collect_flows(log);
        let steps = step_breakdown(&flows);
        let table = cost_table(log, &flows);
        let paths = flows
            .iter()
            .filter_map(|f| critical_path(log, f, map))
            .collect();
        ProfileReport {
            steps,
            cost_table: table,
            paths,
            rpc: rpc_amplification(log),
            vm: vm_costs(log, names),
            flows,
        }
    }

    /// Flows that terminated successfully.
    pub fn flows_completed(&self) -> u64 {
        self.flows
            .iter()
            .filter(|f| f.end_ns.is_some() && !f.aborted)
            .count() as u64
    }

    /// Flows that aborted.
    pub fn flows_aborted(&self) -> u64 {
        self.flows.iter().filter(|f| f.aborted).count() as u64
    }

    /// Renders the report as deterministic JSON (fixed key order, integers
    /// only, function hashes as zero-padded hex strings).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::spaced();
        w.object_lines().key("cost_table").array_lines();
        for r in &self.cost_table {
            w.object().key("kind").str(r.kind.name());
            w.key("flows").u64(r.flows).key("aborted").u64(r.aborted);
            w.key("mean_ns").u64(r.mean_ns);
            w.key("median_ns").u64(r.median_ns);
            w.key("p99_ns").u64(r.p99_ns).key("max_ns").u64(r.max_ns);
            w.key("messages").u64(r.messages).key("bytes").u64(r.bytes);
            w.close();
        }
        w.close().key("critical_paths").array_lines();
        for p in &self.paths {
            w.object().key("flow").u64(p.flow);
            w.key("kind").str(p.kind.name());
            w.key("total_ns").u64(p.total_ns());
            w.key("hops").u64(p.segments.len() as u64);
            w.key("by_layer").object();
            for (layer, ns) in &p.by_layer {
                w.key(layer.name()).u64(*ns);
            }
            w.close().close();
        }
        w.close().key("flow_steps").array_lines();
        for s in &self.steps {
            w.object().key("kind").str(s.kind.name());
            w.key("step").str(step_name(s.kind, s.step));
            w.key("count").u64(s.count).key("total_ns").u64(s.total_ns);
            w.key("mean_ns").u64(s.mean_ns());
            w.key("max_ns").u64(s.max_ns);
            w.close();
        }
        w.close().key("flows").object();
        w.key("started").u64(self.flows.len() as u64);
        w.key("completed").u64(self.flows_completed());
        w.key("aborted").u64(self.flows_aborted()).close();
        let rpc = &self.rpc;
        w.key("rpc").object().key("calls").u64(rpc.calls);
        w.key("attempts").u64(rpc.attempts);
        w.key("retries").u64(rpc.retries);
        w.key("max_attempts").u64(rpc.max_attempts);
        w.key("amplification_millis")
            .u64(rpc.amplification_millis());
        let outcomes = ["ok", "fault", "unreachable", "timeout"].iter();
        w.key("outcomes").object();
        for (outcome, n) in outcomes.zip(rpc.by_outcome) {
            w.key(outcome).u64(n);
        }
        w.close().close();
        w.key("vm_functions").array_lines();
        for f in &self.vm {
            w.object().key("function").hex("0x", f.function).key("name");
            match &f.name {
                Some(name) => w.str(name),
                None => w.null(),
            };
            w.key("threads").u64(f.threads).key("calls").u64(f.calls);
            w.key("instructions").u64(f.instructions);
            w.key("work_nanos").u64(f.work_nanos).close();
        }
        w.close().close().newline();
        w.finish()
    }

    /// Renders the report's aggregates in the Prometheus text exposition
    /// format (all gauges; per-flow detail is aggregated per kind).
    pub fn to_prometheus(&self) -> String {
        let mut p = PromWriter::default();
        p.gauge("dcdo_profile_flow_latency_ns");
        for r in &self.cost_table {
            for (stat, v) in [
                ("mean", r.mean_ns),
                ("median", r.median_ns),
                ("p99", r.p99_ns),
                ("max", r.max_ns),
            ] {
                p.sample("dcdo_profile_flow_latency_ns");
                p.label("kind", r.kind.name()).label("stat", stat).u64(v);
            }
        }
        p.gauge("dcdo_profile_flow_messages");
        for r in &self.cost_table {
            p.sample("dcdo_profile_flow_messages");
            p.label("kind", r.kind.name()).u64(r.messages);
        }
        p.gauge("dcdo_profile_flow_step_total_ns");
        for s in &self.steps {
            p.sample("dcdo_profile_flow_step_total_ns");
            p.label("kind", s.kind.name());
            p.label("step", step_name(s.kind, s.step)).u64(s.total_ns);
        }
        // Critical-path layer time, aggregated per flow kind.
        p.gauge("dcdo_profile_critical_path_ns");
        let mut agg: BTreeMap<(u64, &str), (&str, u64)> = BTreeMap::new();
        for path in &self.paths {
            for (layer, ns) in &path.by_layer {
                let key = (path.kind.code(), layer.name());
                agg.entry(key).or_insert((path.kind.name(), 0)).1 += ns;
            }
        }
        for ((_, layer), (kind, ns)) in agg {
            p.sample("dcdo_profile_critical_path_ns");
            p.label("kind", kind).label("layer", layer).u64(ns);
        }
        for (metric, v) in [
            ("dcdo_profile_rpc_calls", self.rpc.calls),
            ("dcdo_profile_rpc_attempts", self.rpc.attempts),
            ("dcdo_profile_rpc_retries", self.rpc.retries),
        ] {
            p.gauge(metric).sample(metric).u64(v);
        }
        p.gauge("dcdo_profile_vm_work_nanos");
        for f in &self.vm {
            p.sample("dcdo_profile_vm_work_nanos");
            match &f.name {
                Some(name) => p.label("function", name),
                None => p.label_hex("function", "0x", f.function),
            };
            p.u64(f.work_nanos);
        }
        p.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdo_trace::{fn_hash, FlowKind, SendVerdict, SpanKind};

    fn demo_log() -> TraceLog {
        let mut l = TraceLog::new();
        l.enable();
        let start = l.emit(
            0,
            0,
            None,
            SpanKind::FlowStarted {
                flow: 1,
                object: 4,
                kind: FlowKind::Update,
            },
        );
        l.emit(0, 0, start, SpanKind::FlowStep { flow: 1, step: 5 });
        let sent = l.emit(
            100,
            0,
            start,
            SpanKind::MsgSent {
                src: 1,
                dst: 2,
                src_node: 0,
                dst_node: 4,
                verdict: SendVerdict::Sent,
                bytes: 512,
            },
        );
        let del = l.emit(
            900,
            4,
            sent,
            SpanKind::MsgDelivered {
                src: 1,
                dst: 2,
                dst_node: 4,
            },
        );
        l.emit(950, 4, del, SpanKind::vm_cost(fn_hash("step"), 1, 12, 40));
        l.emit(1_000, 0, del, SpanKind::FlowCompleted { flow: 1 });
        l
    }

    #[test]
    fn analyze_populates_every_section() {
        let log = demo_log();
        let mut names = FnNames::new();
        names.insert("step");
        let report = ProfileReport::analyze(&log, &LayerMap::new(), &names);
        assert_eq!(report.flows.len(), 1);
        assert_eq!(report.cost_table.len(), 1);
        assert_eq!(report.paths.len(), 1);
        assert_eq!(report.vm.len(), 1);
        assert_eq!(report.vm[0].name.as_deref(), Some("step"));
        assert_eq!(report.flows_completed(), 1);
        assert_eq!(report.flows_aborted(), 0);
    }

    #[test]
    fn json_rendering_is_deterministic_and_balanced() {
        let log = demo_log();
        let report = ProfileReport::analyze(&log, &LayerMap::new(), &FnNames::new());
        let a = report.to_json();
        let b = ProfileReport::analyze(&log, &LayerMap::new(), &FnNames::new()).to_json();
        assert_eq!(a, b, "same trace, same bytes");
        assert!(a.contains("\"cost_table\""));
        assert!(a.contains("\"kind\": \"update\""));
        assert!(a.contains("\"network\": 800"));
        // The hash renders as hex when no name table entry exists.
        assert!(a.contains(&format!("0x{:016x}", fn_hash("step"))));
    }

    #[test]
    fn prometheus_rendering_has_expected_series() {
        let log = demo_log();
        let report = ProfileReport::analyze(&log, &LayerMap::new(), &FnNames::new());
        let p = report.to_prometheus();
        assert!(p.contains("dcdo_profile_flow_latency_ns{kind=\"update\",stat=\"mean\"} 1000"));
        assert!(p.contains("dcdo_profile_critical_path_ns{kind=\"update\",layer=\"network\"} 800"));
        assert!(p.contains("dcdo_profile_rpc_calls 0"));
        assert!(p.contains("dcdo_profile_vm_work_nanos"));
    }

    #[test]
    fn function_names_are_escaped_in_both_exports() {
        // The signature parser and the codec both accept such a name.
        let name = "a\"b\\c\nd";
        let mut log = TraceLog::new();
        log.enable();
        log.emit(5, 0, None, SpanKind::vm_cost(fn_hash(name), 1, 12, 40));
        let mut names = FnNames::new();
        names.insert(name);
        let report = ProfileReport::analyze(&log, &LayerMap::new(), &names);
        let p = report.to_prometheus();
        assert!(
            p.contains("dcdo_profile_vm_work_nanos{function=\"a\\\"b\\\\c\\nd\"} 40\n"),
            "{p}"
        );
        let j = report.to_json();
        assert!(j.contains(r#""name": "a\"b\\c\nd", "threads": 1"#), "{j}");
    }

    #[test]
    fn empty_log_renders_empty_sections() {
        let report = ProfileReport::analyze(&TraceLog::new(), &LayerMap::new(), &FnNames::new());
        let j = report.to_json();
        assert!(j.contains("\"cost_table\": []"));
        assert!(j.contains("\"flows\": {\"started\": 0, \"completed\": 0, \"aborted\": 0}"));
    }
}
