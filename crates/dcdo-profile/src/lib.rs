//! Trace-driven profiler for the DCDO testbed.
//!
//! Consumes a finished [`TraceLog`](dcdo_trace::TraceLog) and produces the
//! typed reports behind `dcdo-inspect` and `BENCH_profile.json`:
//!
//! - [`collect_flows`] / [`step_breakdown`] — per-flow latency split across
//!   the layers' stable `FlowStep` codes (manager lifecycle steps and
//!   object-local `Config` steps);
//! - [`critical_path`] — the causal chain from a flow's terminal event back
//!   to its start, with every nanosecond attributed to a [`Layer`]
//!   (network, manager, vault, VM, …) via a caller-supplied [`LayerMap`];
//!   the per-layer sums equal the end-to-end latency by construction;
//! - [`cost_table`] — the reconfiguration-cost table keyed by flow kind,
//!   mirroring the paper's §5 tables (latency stats plus message count and
//!   wire bytes per operation kind);
//! - [`rpc_amplification`] — attempts/retries per logical call;
//! - [`vm_costs`] — per-function VM cost aggregated from `VmCost` spans,
//!   resolved back to names through a [`FnNames`] table
//!   (hash → name, the inverse of [`dcdo_trace::fn_hash`]);
//! - [`ProfileReport`] — all of the above in one struct with deterministic
//!   JSON and Prometheus text renderings (integer nanoseconds only, so the
//!   output is byte-identical across debug/release builds and machines).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod flow;
mod layer;
mod path;
mod report;
mod rpc;
mod vm;

pub use flow::{
    collect_flows, cost_table, step_breakdown, step_name, CostRow, FlowRecord, StepStat, STEP_INIT,
};
pub use layer::{Layer, LayerMap};
pub use path::{critical_path, CriticalPath, PathSegment};
pub use report::ProfileReport;
pub use rpc::{rpc_amplification, RpcAmplification};
pub use vm::{vm_costs, vm_costs_between, FnNames, VmFnCost};
