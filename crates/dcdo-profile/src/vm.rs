//! VM cost aggregation from `VmCost` spans.

use std::collections::HashMap;

use dcdo_trace::{fn_hash, SpanKind, TraceLog};

/// The out-of-band hash → name table for [`SpanKind::VmCost`]'s
/// `function` field (the inverse of [`fn_hash`]).
///
/// The trace is integer-only; layers that know the function names register
/// them here so reports can print names instead of hashes.
#[derive(Debug, Clone, Default)]
pub struct FnNames {
    map: HashMap<u64, String>,
}

impl FnNames {
    /// Creates an empty table.
    pub fn new() -> Self {
        FnNames::default()
    }

    /// Registers a function name under its [`fn_hash`].
    pub fn insert(&mut self, name: &str) -> &mut Self {
        self.map.insert(fn_hash(name), name.to_string());
        self
    }

    /// Looks a hash up.
    pub fn name(&self, hash: u64) -> Option<&str> {
        self.map.get(&hash).map(String::as_str)
    }
}

/// Aggregated VM cost of one function across every profiled thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmFnCost {
    /// [`fn_hash`] of the function name.
    pub function: u64,
    /// The resolved name, when the caller's [`FnNames`] table knows it.
    pub name: Option<String>,
    /// Finished threads that touched the function.
    pub threads: u64,
    /// Times the function was entered.
    pub calls: u64,
    /// Instructions retired inside it (equal to the fuel it consumed).
    pub instructions: u64,
    /// Simulated nanoseconds its `Work` instructions charged.
    pub work_nanos: u64,
}

/// Aggregates every `VmCost` span in the log into a per-function hot list,
/// sorted by `work_nanos` descending (ties: instructions, then hash — fully
/// deterministic).
pub fn vm_costs(log: &TraceLog, names: &FnNames) -> Vec<VmFnCost> {
    vm_costs_between(log, names, 0, u64::MAX)
}

/// Like [`vm_costs`] but restricted to spans with
/// `start_ns <= at_ns < end_ns` — the tool behind pre/post-reconfiguration
/// cost deltas: split the log at the reconfiguration's generation stamp and
/// compare the two windows.
pub fn vm_costs_between(
    log: &TraceLog,
    names: &FnNames,
    start_ns: u64,
    end_ns: u64,
) -> Vec<VmFnCost> {
    let mut by_fn: HashMap<u64, VmFnCost> = HashMap::new();
    for e in log.events() {
        if e.at_ns < start_ns || e.at_ns >= end_ns {
            continue;
        }
        if let SpanKind::VmCost {
            function,
            calls,
            instructions,
            work_nanos,
            ..
        } = &e.kind
        {
            let cost = by_fn.entry(*function).or_insert_with(|| VmFnCost {
                function: *function,
                name: names.name(*function).map(str::to_string),
                threads: 0,
                calls: 0,
                instructions: 0,
                work_nanos: 0,
            });
            cost.threads += 1;
            cost.calls += u64::from(*calls);
            cost.instructions += *instructions;
            cost.work_nanos += *work_nanos;
        }
    }
    let mut out: Vec<VmFnCost> = by_fn.into_values().collect();
    out.sort_by(|a, b| {
        b.work_nanos
            .cmp(&a.work_nanos)
            .then(b.instructions.cmp(&a.instructions))
            .then(a.function.cmp(&b.function))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(function: u64, calls: u64, instructions: u64, work: u64) -> SpanKind {
        SpanKind::vm_cost(function, calls, instructions, work)
    }

    #[test]
    fn aggregates_and_sorts_hot_functions() {
        let mut names = FnNames::new();
        names.insert("step").insert("get");
        let step = fn_hash("step");
        let get = fn_hash("get");
        let mut l = TraceLog::new();
        l.enable();
        l.emit(10, 0, None, cost(step, 1, 40, 1_000));
        l.emit(20, 0, None, cost(get, 2, 10, 50_000));
        l.emit(30, 0, None, cost(step, 1, 40, 1_000));
        let costs = vm_costs(&l, &names);
        assert_eq!(costs.len(), 2);
        assert_eq!(costs[0].name.as_deref(), Some("get"), "hottest first");
        assert_eq!(costs[1].threads, 2);
        assert_eq!(costs[1].calls, 2);
        assert_eq!(costs[1].instructions, 80);
        assert_eq!(costs[1].work_nanos, 2_000);
    }

    #[test]
    fn windows_split_pre_and_post() {
        let step = fn_hash("step");
        let mut l = TraceLog::new();
        l.enable();
        l.emit(10, 0, None, cost(step, 1, 5, 100));
        l.emit(90, 0, None, cost(step, 1, 50, 9_000));
        let names = FnNames::new();
        let pre = vm_costs_between(&l, &names, 0, 50);
        let post = vm_costs_between(&l, &names, 50, u64::MAX);
        assert_eq!(pre[0].instructions, 5);
        assert_eq!(post[0].instructions, 50);
        assert_eq!(pre[0].name, None, "unregistered hash stays a hash");
    }
}
