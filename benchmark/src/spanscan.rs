//! One pass over a run's simulated-time span log: the latencies a client
//! of the simulated system would see and the exact per-layer counts.
//!
//! Everything here is simulated time or a count, so it repeats bit for
//! bit for one input and compares exactly between two commits.

use std::collections::BTreeMap;

use dcdo_scenario::ScenarioReport;
use dcdo_sim::{SpanEvent, SpanKind};

use crate::stats::percentile_nearest_rank;

/// Counts and simulated-time latencies read off one span log.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SpanScan {
    /// Every span in the log.
    pub spans: u64,
    /// `MsgSent` spans.
    pub msgs_sent: u64,
    /// `RpcAttempt` spans.
    pub rpc_attempts: u64,
    /// `RpcRetry` spans.
    pub rpc_retries: u64,
    /// `RpcCompleted` spans.
    pub rpc_completed: u64,
    /// `BindingHit` spans.
    pub binding_hits: u64,
    /// `BindingMiss` spans.
    pub binding_misses: u64,
    /// `BindingInvalidated` spans.
    pub binding_invalidated: u64,
    /// `FlowStarted` spans.
    pub flows_started: u64,
    /// `FlowCompleted` spans.
    pub flows_completed: u64,
    /// `FlowAborted` spans.
    pub flows_aborted: u64,
    /// `GenerationStamp` spans.
    pub generation_stamps: u64,
    /// `CallServed` spans.
    pub calls_served: u64,
    /// Instructions retired, summed over `VmCost` spans.
    pub vm_instructions: u64,
    /// Simulated nanoseconds of `Work`, summed over `VmCost` spans.
    pub vm_work_ns: u64,
    /// `EpochCommitted` spans.
    pub epochs_committed: u64,
    /// First `RpcAttempt` → `RpcCompleted` per call id, nanoseconds.
    pub rpc_latency_ns: Vec<u64>,
    /// `FlowStarted` → `FlowCompleted`/`FlowAborted` per flow id,
    /// nanoseconds.
    pub flow_latency_ns: Vec<u64>,
}

impl SpanScan {
    /// Scans `spans` once.
    pub fn of(spans: &[SpanEvent]) -> Self {
        let mut s = SpanScan {
            spans: spans.len() as u64,
            ..SpanScan::default()
        };
        let mut rpc_start: BTreeMap<u64, u64> = BTreeMap::new();
        let mut flow_start: BTreeMap<u64, u64> = BTreeMap::new();
        for e in spans {
            match &e.kind {
                SpanKind::MsgSent { .. } => s.msgs_sent += 1,
                SpanKind::RpcAttempt { call, .. } => {
                    s.rpc_attempts += 1;
                    rpc_start.entry(*call).or_insert(e.at_ns);
                }
                SpanKind::RpcRetry { .. } => s.rpc_retries += 1,
                SpanKind::RpcCompleted { call, .. } => {
                    s.rpc_completed += 1;
                    if let Some(t0) = rpc_start.remove(call) {
                        s.rpc_latency_ns.push(e.at_ns - t0);
                    }
                }
                SpanKind::BindingHit { .. } => s.binding_hits += 1,
                SpanKind::BindingMiss { .. } => s.binding_misses += 1,
                SpanKind::BindingInvalidated { .. } => s.binding_invalidated += 1,
                SpanKind::FlowStarted { flow, .. } => {
                    s.flows_started += 1;
                    flow_start.entry(*flow).or_insert(e.at_ns);
                }
                SpanKind::FlowCompleted { flow } | SpanKind::FlowAborted { flow } => {
                    if matches!(e.kind, SpanKind::FlowCompleted { .. }) {
                        s.flows_completed += 1;
                    } else {
                        s.flows_aborted += 1;
                    }
                    if let Some(t0) = flow_start.remove(flow) {
                        s.flow_latency_ns.push(e.at_ns - t0);
                    }
                }
                SpanKind::GenerationStamp { .. } => s.generation_stamps += 1,
                SpanKind::CallServed { .. } => s.calls_served += 1,
                SpanKind::VmCost {
                    instructions,
                    work_nanos,
                    ..
                } => {
                    s.vm_instructions += instructions;
                    s.vm_work_ns += work_nanos;
                }
                SpanKind::EpochCommitted { .. } => s.epochs_committed += 1,
                _ => {}
            }
        }
        s
    }

    /// The nearest-rank `p`-th percentile of RPC latency in simulated
    /// seconds (0 when the run made no RPC).
    pub fn rpc_percentile_s(&self, p: f64) -> f64 {
        percentile_nearest_rank(&mut self.rpc_latency_ns.clone(), p) as f64 / 1e9
    }

    /// The nearest-rank `p`-th percentile of flow latency in simulated
    /// seconds (0 when the run had no flow).
    pub fn flow_percentile_s(&self, p: f64) -> f64 {
        percentile_nearest_rank(&mut self.flow_latency_ns.clone(), p) as f64 / 1e9
    }
}

/// What the simulated clients attempted and how it ended, read off the
/// scenario report's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpCounts {
    /// Operations the clients issued: one per tick in a tick window, one
    /// per group invocation sent in the timed window.
    pub attempted: u64,
    /// Operations that ended without a valid reply: every `*.err` counter
    /// plus `group.calls.failed`.
    pub failed: u64,
    /// Group invocations a fenced replica answered with the protocol's
    /// typed `Refused` — a reply the declared scenario allows and does not
    /// bound.
    pub refused: u64,
}

impl OpCounts {
    /// Reads the counts off `report`.
    pub fn of(report: &ScenarioReport) -> Self {
        let counter = |key: &str| {
            report
                .counters
                .iter()
                .find(|(k, _)| k == key)
                .map_or(0, |(_, v)| *v)
        };
        let ticks: u64 = report.ticks.iter().map(|(_, n)| n).sum();
        let errs: u64 = report
            .counters
            .iter()
            .filter(|(k, _)| k.ends_with(".err"))
            .map(|(_, v)| v)
            .sum();
        OpCounts {
            attempted: ticks + counter("group.calls.sent"),
            failed: errs + counter("group.calls.failed"),
            refused: counter("group.calls.refused"),
        }
    }

    /// Failed and refused operations as a share of those attempted.
    pub fn failed_frac(&self) -> f64 {
        (self.failed + self.refused) as f64 / self.attempted.max(1) as f64
    }
}
