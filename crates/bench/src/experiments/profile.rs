//! P1: the trace-derived reconfiguration-cost table.
//!
//! Unlike E1–E8, which time operations from the driver's vantage point,
//! this table is produced *from the execution trace itself*: the canonical
//! reconfiguration workload runs once with full span tracing, and
//! `dcdo-profile` derives per-config-op-kind latency and causally
//! attributed message cost, plus the critical path of the slowest flow
//! split by layer. It is the same report `dcdo-inspect reconfig` exports
//! as `BENCH_profile.json`. The `class_*` rows come from one traced run of
//! E6's 550 KB monolithic replacement: the class object's flows leave the
//! same spans, so the same profiler measures the baseline.

use dcdo_profile::{collect_flows, cost_table, CostRow};
use dcdo_workloads::reconfig::reconfig_run;
use legion_substrate::harness::Testbed;

use super::cost::monolithic_replacement;
use crate::table::{secs, Table};

/// E6's 550 KB monolithic replacement (same seed as its E6 row), traced:
/// the run P1's `class_*` rows are read from.
pub fn traced_replacement(seed: u64) -> Testbed {
    let bytes = 550_000;
    let mut bed = Testbed::centurion(seed + bytes + 77);
    bed.sim.spans_mut().enable();
    monolithic_replacement(&mut bed, bytes);
    bed
}

fn ns(v: u64) -> String {
    secs(v as f64 / 1e9)
}

/// P1: per-kind reconfiguration costs derived from the span trace.
pub fn p1(seed: u64) -> Table {
    let run = reconfig_run(seed, false);
    let report = run.profile();
    let baseline = traced_replacement(seed);
    let log = baseline.sim.spans();
    let class_rows = cost_table(log, &collect_flows(log));
    let mut t = Table::new(
        "P1 (profiler)",
        "Reconfiguration cost by config-op kind, derived from the trace",
        "(companion to E6: the paper reports driver-side stopwatch numbers; \
         this table is computed from the span log by the trace profiler, so \
         latency, message count, and critical-path attribution come from \
         the same causal record)",
        &[
            "config-op kind",
            "flows",
            "aborted",
            "mean",
            "median",
            "p99",
            "max",
            "messages",
            "bytes",
        ],
    );
    let rows: Vec<&CostRow> = report.cost_table.iter().chain(&class_rows).collect();
    for r in rows {
        t.row(vec![
            r.kind.name().to_owned(),
            r.flows.to_string(),
            r.aborted.to_string(),
            ns(r.mean_ns),
            ns(r.median_ns),
            ns(r.p99_ns),
            ns(r.max_ns),
            r.messages.to_string(),
            r.bytes.to_string(),
        ]);
    }
    let verdict = match report.paths.iter().max_by_key(|p| p.total_ns()) {
        Some(path) => {
            let split: Vec<String> = path
                .by_layer
                .iter()
                .filter(|(_, v)| *v > 0)
                .map(|(l, v)| format!("{} {}", l.name(), ns(*v)))
                .collect();
            format!(
                "longest critical path: {} flow, {} end to end ({}); \
                 layer components sum exactly to the end-to-end latency",
                path.kind.name(),
                ns(path.total_ns()),
                split.join(", ")
            )
        }
        None => "no terminated flows (unexpected for this workload)".to_owned(),
    };
    t.verdict(verdict);
    t
}
