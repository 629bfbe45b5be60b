//! The combined profiler report and its deterministic renderings.

use dcdo_trace::TraceLog;

use crate::flow::{
    collect_flows, cost_table, step_breakdown, step_name, CostRow, FlowRecord, StepStat,
};
use crate::json::esc;
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
        let mut out = String::from("{\n");

        out.push_str("  \"cost_table\": [");
        for (i, r) in self.cost_table.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"kind\": \"{}\", \"flows\": {}, \"aborted\": {}, \"mean_ns\": {}, \"median_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"messages\": {}, \"bytes\": {}}}",
                r.kind.name(), r.flows, r.aborted, r.mean_ns, r.median_ns, r.p99_ns, r.max_ns, r.messages, r.bytes
            ));
        }
        out.push_str(if self.cost_table.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        out.push_str("  \"critical_paths\": [");
        for (i, p) in self.paths.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let layers: Vec<String> = p
                .by_layer
                .iter()
                .map(|(l, ns)| format!("\"{}\": {ns}", l.name()))
                .collect();
            out.push_str(&format!(
                "    {{\"flow\": {}, \"kind\": \"{}\", \"total_ns\": {}, \"hops\": {}, \"by_layer\": {{{}}}}}",
                p.flow,
                p.kind.name(),
                p.total_ns(),
                p.segments.len(),
                layers.join(", ")
            ));
        }
        out.push_str(if self.paths.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        out.push_str("  \"flow_steps\": [");
        for (i, s) in self.steps.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str(&format!(
                "    {{\"kind\": \"{}\", \"step\": \"{}\", \"count\": {}, \"total_ns\": {}, \"mean_ns\": {}, \"max_ns\": {}}}",
                s.kind.name(),
                step_name(s.kind, s.step),
                s.count,
                s.total_ns,
                s.mean_ns(),
                s.max_ns
            ));
        }
        out.push_str(if self.steps.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        out.push_str(&format!(
            "  \"flows\": {{\"started\": {}, \"completed\": {}, \"aborted\": {}}},\n",
            self.flows.len(),
            self.flows_completed(),
            self.flows_aborted()
        ));

        out.push_str(&format!(
            "  \"rpc\": {{\"calls\": {}, \"attempts\": {}, \"retries\": {}, \"max_attempts\": {}, \"amplification_millis\": {}, \"outcomes\": {{\"ok\": {}, \"fault\": {}, \"unreachable\": {}, \"timeout\": {}}}}},\n",
            self.rpc.calls,
            self.rpc.attempts,
            self.rpc.retries,
            self.rpc.max_attempts,
            self.rpc.amplification_millis(),
            self.rpc.by_outcome[0],
            self.rpc.by_outcome[1],
            self.rpc.by_outcome[2],
            self.rpc.by_outcome[3],
        ));

        out.push_str("  \"vm_functions\": [");
        for (i, f) in self.vm.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let name = f
                .name
                .as_deref()
                .map_or("null".to_string(), |n| format!("\"{}\"", esc(n)));
            out.push_str(&format!(
                "    {{\"function\": \"0x{:016x}\", \"name\": {name}, \"threads\": {}, \"calls\": {}, \"instructions\": {}, \"work_nanos\": {}}}",
                f.function, f.threads, f.calls, f.instructions, f.work_nanos
            ));
        }
        out.push_str(if self.vm.is_empty() { "]\n" } else { "\n  ]\n" });

        out.push_str("}\n");
        out
    }

    /// Renders the report's aggregates in the Prometheus text exposition
    /// format (all gauges; per-flow detail is aggregated per kind).
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# TYPE dcdo_profile_flow_latency_ns gauge\n");
        for r in &self.cost_table {
            for (stat, v) in [
                ("mean", r.mean_ns),
                ("median", r.median_ns),
                ("p99", r.p99_ns),
                ("max", r.max_ns),
            ] {
                out.push_str(&format!(
                    "dcdo_profile_flow_latency_ns{{kind=\"{}\",stat=\"{stat}\"}} {v}\n",
                    r.kind.name()
                ));
            }
        }
        out.push_str("# TYPE dcdo_profile_flow_messages gauge\n");
        for r in &self.cost_table {
            out.push_str(&format!(
                "dcdo_profile_flow_messages{{kind=\"{}\"}} {}\n",
                r.kind.name(),
                r.messages
            ));
        }
        out.push_str("# TYPE dcdo_profile_flow_step_total_ns gauge\n");
        for s in &self.steps {
            out.push_str(&format!(
                "dcdo_profile_flow_step_total_ns{{kind=\"{}\",step=\"{}\"}} {}\n",
                s.kind.name(),
                step_name(s.kind, s.step),
                s.total_ns
            ));
        }
        // Critical-path layer time, aggregated per flow kind.
        out.push_str("# TYPE dcdo_profile_critical_path_ns gauge\n");
        let mut agg: Vec<(u64, &'static str, &'static str, u64)> = Vec::new();
        for p in &self.paths {
            for (layer, ns) in &p.by_layer {
                let key = (p.kind.code(), p.kind.name(), layer.name());
                match agg
                    .iter_mut()
                    .find(|(c, _, l, _)| (*c, *l) == (key.0, key.2))
                {
                    Some(slot) => slot.3 += ns,
                    None => agg.push((key.0, key.1, key.2, *ns)),
                }
            }
        }
        agg.sort_by_key(|(code, _, layer, _)| (*code, *layer));
        for (_, kind, layer, ns) in agg {
            out.push_str(&format!(
                "dcdo_profile_critical_path_ns{{kind=\"{kind}\",layer=\"{layer}\"}} {ns}\n"
            ));
        }
        out.push_str(&format!(
            "# TYPE dcdo_profile_rpc_calls gauge\ndcdo_profile_rpc_calls {}\n\
             # TYPE dcdo_profile_rpc_attempts gauge\ndcdo_profile_rpc_attempts {}\n\
             # TYPE dcdo_profile_rpc_retries gauge\ndcdo_profile_rpc_retries {}\n",
            self.rpc.calls, self.rpc.attempts, self.rpc.retries
        ));
        out.push_str("# TYPE dcdo_profile_vm_work_nanos gauge\n");
        for f in &self.vm {
            let label = f
                .name
                .clone()
                .unwrap_or_else(|| format!("0x{:016x}", f.function));
            out.push_str(&format!(
                "dcdo_profile_vm_work_nanos{{function=\"{label}\"}} {}\n",
                f.work_nanos
            ));
        }
        out
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
    fn empty_log_renders_empty_sections() {
        let report = ProfileReport::analyze(&TraceLog::new(), &LayerMap::new(), &FnNames::new());
        let j = report.to_json();
        assert!(j.contains("\"cost_table\": []"));
        assert!(j.contains("\"flows\": {\"started\": 0, \"completed\": 0, \"aborted\": 0}"));
    }
}
