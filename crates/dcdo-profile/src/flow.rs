//! Flow collection, per-step latency breakdown, and the reconfiguration
//! cost table.

use std::collections::HashMap;

use dcdo_trace::{FlowKind, SpanId, SpanKind, TraceLog};

/// Synthetic step code for the segment between `FlowStarted` and the first
/// `FlowStep` (usually zero-length: both fire in the same handler).
pub const STEP_INIT: u32 = u32::MAX;

/// One flow reconstructed from the log.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// The flow id.
    pub flow: u64,
    /// The object the flow concerned.
    pub object: u64,
    /// The flow's semantic kind.
    pub kind: FlowKind,
    /// Span id of the `FlowStarted` event.
    pub start_span: SpanId,
    /// When the flow started (sim ns).
    pub start_ns: u64,
    /// Span id of the terminal event, if the flow terminated.
    pub end_span: Option<SpanId>,
    /// When the flow terminated (sim ns), if it did.
    pub end_ns: Option<u64>,
    /// `true` if the terminal event was `FlowAborted`.
    pub aborted: bool,
    /// `(step code, entered at ns)` in emit order.
    pub steps: Vec<(u32, u64)>,
}

impl FlowRecord {
    /// End-to-end latency, for terminated flows.
    pub fn latency_ns(&self) -> Option<u64> {
        self.end_ns.map(|end| end.saturating_sub(self.start_ns))
    }

    /// The flow's timeline as `(step, entered_at, left_at)` segments that
    /// partition `[start_ns, end_ns]`. Empty for unterminated flows.
    pub fn segments(&self) -> Vec<(u32, u64, u64)> {
        let Some(end) = self.end_ns else {
            return Vec::new();
        };
        let mut marks: Vec<(u32, u64)> = Vec::with_capacity(self.steps.len() + 1);
        marks.push((STEP_INIT, self.start_ns));
        marks.extend(self.steps.iter().copied());
        let mut out = Vec::with_capacity(marks.len());
        for (i, &(step, at)) in marks.iter().enumerate() {
            let until = marks.get(i + 1).map_or(end, |&(_, next)| next);
            out.push((step, at, until.max(at)));
        }
        out
    }
}

/// Reconstructs every flow in the log, in start order.
pub fn collect_flows(log: &TraceLog) -> Vec<FlowRecord> {
    let mut order: Vec<u64> = Vec::new();
    let mut by_id: HashMap<u64, FlowRecord> = HashMap::new();
    for e in log.events() {
        match &e.kind {
            SpanKind::FlowStarted { flow, object, kind } => {
                by_id.entry(*flow).or_insert_with(|| {
                    order.push(*flow);
                    FlowRecord {
                        flow: *flow,
                        object: *object,
                        kind: *kind,
                        start_span: e.id,
                        start_ns: e.at_ns,
                        end_span: None,
                        end_ns: None,
                        aborted: false,
                        steps: Vec::new(),
                    }
                });
            }
            SpanKind::FlowStep { flow, step } => {
                if let Some(r) = by_id.get_mut(flow) {
                    r.steps.push((*step, e.at_ns));
                }
            }
            SpanKind::FlowCompleted { flow } | SpanKind::FlowAborted { flow } => {
                if let Some(r) = by_id.get_mut(flow) {
                    if r.end_span.is_none() {
                        r.end_span = Some(e.id);
                        r.end_ns = Some(e.at_ns);
                        r.aborted = matches!(e.kind, SpanKind::FlowAborted { .. });
                    }
                }
            }
            _ => {}
        }
    }
    order
        .into_iter()
        .filter_map(|flow| by_id.remove(&flow))
        .collect()
}

/// Aggregated time spent in one `(flow kind, step)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepStat {
    /// The flow kind.
    pub kind: FlowKind,
    /// The layer's stable step code ([`STEP_INIT`] for the pre-step gap).
    pub step: u32,
    /// Times the step was entered (across all terminated flows).
    pub count: u64,
    /// Total sim time spent in the step.
    pub total_ns: u64,
    /// Longest single stay.
    pub max_ns: u64,
}

impl StepStat {
    /// Integer mean stay (ns).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Splits every terminated flow's latency across its step codes and
/// aggregates per `(kind, step)`, sorted by `(kind code, step)` with the
/// synthetic [`STEP_INIT`] cell last within its kind.
pub fn step_breakdown(flows: &[FlowRecord]) -> Vec<StepStat> {
    let mut cells: HashMap<(u64, u32), StepStat> = HashMap::new();
    for f in flows {
        for (step, from, to) in f.segments() {
            let d = to - from;
            let cell = cells.entry((f.kind.code(), step)).or_insert(StepStat {
                kind: f.kind,
                step,
                count: 0,
                total_ns: 0,
                max_ns: 0,
            });
            cell.count += 1;
            cell.total_ns += d;
            cell.max_ns = cell.max_ns.max(d);
        }
    }
    let mut out: Vec<StepStat> = cells.into_values().collect();
    out.sort_by_key(|s| (s.kind.code(), s.step));
    out
}

/// Human name of a step cell: `"init"` for the synthetic [`STEP_INIT`]
/// segment, otherwise the layer's own name for the code
/// ([`FlowKind::step_name`], the one step vocabulary).
pub fn step_name(kind: FlowKind, step: u32) -> &'static str {
    if step == STEP_INIT {
        "init"
    } else {
        kind.step_name(step)
    }
}

/// One row of the reconfiguration-cost table (per flow kind): the paper's
/// §5 shape — how long each kind of configuration operation takes and what
/// it costs on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostRow {
    /// The flow kind.
    pub kind: FlowKind,
    /// Terminated flows of this kind.
    pub flows: u64,
    /// How many of them aborted.
    pub aborted: u64,
    /// Mean end-to-end latency (integer ns).
    pub mean_ns: u64,
    /// Median (nearest-rank) latency.
    pub median_ns: u64,
    /// 99th-percentile (nearest-rank) latency.
    pub p99_ns: u64,
    /// Worst latency.
    pub max_ns: u64,
    /// Messages offered to the network on behalf of these flows.
    pub messages: u64,
    /// Wire bytes of those messages.
    pub bytes: u64,
}

/// Nearest-rank quantile of a sorted sample set.
fn nearest_rank(sorted: &[u64], q_num: u64, q_den: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (n * q_num).div_ceil(q_den).max(1);
    sorted[(rank - 1) as usize]
}

/// Assigns every span in the log to the causal cone of at most one flow,
/// with *most-recent-context-wins* semantics.
///
/// A handling event (the delivery or timer a worker was processing) that
/// emitted a flow marker becomes a **flow context**: everything causally
/// downstream of it — the sends issued in that same handling, their
/// deliveries, the timers they arm — belongs to that flow, until a later
/// handling in the chain emits a marker of a different flow and re-tags its
/// own downstream. This matters for serialized workflows, where one long
/// client → manager causal chain hosts many flows back to back; a plain
/// first-wins cone would funnel every later flow's traffic into the first.
///
/// Propagation is one id-ordered pass (children always have larger ids
/// than parents). Returns `span raw id → flow id`.
fn flow_cones(log: &TraceLog) -> HashMap<u64, u64> {
    // Handling span → the flow whose marker it emitted (first marker wins
    // within a single handling).
    let mut context: HashMap<u64, u64> = HashMap::new();
    for e in log.events() {
        if let Some(f) = e.kind.flow_id() {
            if let Some(p) = e.parent {
                context.entry(p.as_raw()).or_insert(f);
            }
        }
    }
    let mut assign: HashMap<u64, u64> = HashMap::new();
    for e in log.events() {
        let raw = e.id.as_raw();
        if let Some(f) = e.kind.flow_id() {
            assign.insert(raw, f);
            continue;
        }
        if let Some(p) = e.parent {
            let p = p.as_raw();
            if let Some(f) = context.get(&p) {
                assign.insert(raw, *f);
            } else if let Some(f) = assign.get(&p).copied() {
                assign.insert(raw, f);
            }
        }
    }
    assign
}

/// Builds the reconfiguration-cost table: one row per flow kind present in
/// the log, sorted by kind code. Message/byte costs come from the `MsgSent`
/// spans causally attributed to each flow (see [`flow_cones`]).
pub fn cost_table(log: &TraceLog, flows: &[FlowRecord]) -> Vec<CostRow> {
    let cones = flow_cones(log);
    let mut traffic: HashMap<u64, (u64, u64)> = HashMap::new();
    for e in log.events() {
        if let SpanKind::MsgSent { bytes, .. } = &e.kind {
            if let Some(flow) = cones.get(&e.id.as_raw()) {
                let t = traffic.entry(*flow).or_insert((0, 0));
                t.0 += 1;
                t.1 += *bytes;
            }
        }
    }
    let mut latencies: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut rows: HashMap<u64, CostRow> = HashMap::new();
    for f in flows {
        let Some(latency) = f.latency_ns() else {
            continue;
        };
        let row = rows.entry(f.kind.code()).or_insert(CostRow {
            kind: f.kind,
            flows: 0,
            aborted: 0,
            mean_ns: 0,
            median_ns: 0,
            p99_ns: 0,
            max_ns: 0,
            messages: 0,
            bytes: 0,
        });
        row.flows += 1;
        row.aborted += u64::from(f.aborted);
        row.max_ns = row.max_ns.max(latency);
        if let Some((messages, bytes)) = traffic.get(&f.flow) {
            row.messages += messages;
            row.bytes += bytes;
        }
        latencies.entry(f.kind.code()).or_default().push(latency);
    }
    for (code, lats) in &mut latencies {
        lats.sort_unstable();
        let row = rows.get_mut(code).expect("row exists");
        row.mean_ns = lats.iter().sum::<u64>() / lats.len() as u64;
        row.median_ns = nearest_rank(lats, 1, 2);
        row.p99_ns = nearest_rank(lats, 99, 100);
    }
    let mut out: Vec<CostRow> = rows.into_values().collect();
    out.sort_by_key(|r| r.kind.code());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdo_trace::{SendVerdict, NO_NODE};

    fn two_flow_log() -> TraceLog {
        let mut l = TraceLog::new();
        l.enable();
        let start = l.emit(
            100,
            0,
            None,
            SpanKind::FlowStarted {
                flow: 1,
                object: 9,
                kind: FlowKind::Config,
            },
        );
        l.emit(100, 0, start, SpanKind::FlowStep { flow: 1, step: 1 });
        l.emit(
            150,
            0,
            start,
            SpanKind::MsgSent {
                src: 1,
                dst: 2,
                src_node: 0,
                dst_node: 1,
                verdict: SendVerdict::Sent,
                bytes: 200,
            },
        );
        l.emit(400, 0, start, SpanKind::FlowStep { flow: 1, step: 4 });
        l.emit(600, 0, start, SpanKind::FlowCompleted { flow: 1 });
        let s2 = l.emit(
            700,
            NO_NODE,
            None,
            SpanKind::FlowStarted {
                flow: 2,
                object: 9,
                kind: FlowKind::Config,
            },
        );
        l.emit(900, 0, s2, SpanKind::FlowAborted { flow: 2 });
        // An unterminated flow is excluded from latency stats.
        l.emit(
            950,
            0,
            None,
            SpanKind::FlowStarted {
                flow: 3,
                object: 9,
                kind: FlowKind::Update,
            },
        );
        l
    }

    #[test]
    fn collect_reconstructs_flows_in_start_order() {
        let log = two_flow_log();
        let flows = collect_flows(&log);
        assert_eq!(flows.len(), 3);
        assert_eq!(flows[0].flow, 1);
        assert_eq!(flows[0].latency_ns(), Some(500));
        assert!(!flows[0].aborted);
        assert_eq!(flows[0].steps, vec![(1, 100), (4, 400)]);
        assert!(flows[1].aborted);
        assert_eq!(flows[2].latency_ns(), None);
    }

    #[test]
    fn segments_partition_the_flow_latency() {
        let log = two_flow_log();
        let flows = collect_flows(&log);
        let segs = flows[0].segments();
        assert_eq!(
            segs,
            vec![(STEP_INIT, 100, 100), (1, 100, 400), (4, 400, 600)]
        );
        let total: u64 = segs.iter().map(|(_, a, b)| b - a).sum();
        assert_eq!(Some(total), flows[0].latency_ns());
    }

    #[test]
    fn step_breakdown_aggregates_per_kind_and_step() {
        let log = two_flow_log();
        let flows = collect_flows(&log);
        let steps = step_breakdown(&flows);
        // Config flow 1 contributes init/1/4; flow 2 contributes init only.
        let step1 = steps
            .iter()
            .find(|s| s.kind == FlowKind::Config && s.step == 1)
            .expect("step 1 cell");
        assert_eq!(
            (step1.count, step1.total_ns, step1.mean_ns()),
            (1, 300, 300)
        );
        let init = steps
            .iter()
            .find(|s| s.kind == FlowKind::Config && s.step == STEP_INIT)
            .expect("init cell");
        assert_eq!(init.count, 2);
        assert_eq!(init.total_ns, 200); // flow 2: 700 → 900 with no steps
    }

    #[test]
    fn cost_table_rows_cover_latency_and_wire_cost() {
        let log = two_flow_log();
        let flows = collect_flows(&log);
        let table = cost_table(&log, &flows);
        assert_eq!(table.len(), 1, "only config flows terminated");
        let row = &table[0];
        assert_eq!(row.kind, FlowKind::Config);
        assert_eq!(row.flows, 2);
        assert_eq!(row.aborted, 1);
        assert_eq!(row.mean_ns, (500 + 200) / 2);
        assert_eq!(row.median_ns, 200);
        assert_eq!(row.p99_ns, 500);
        assert_eq!(row.max_ns, 500);
        assert_eq!((row.messages, row.bytes), (1, 200));
    }

    #[test]
    fn init_segment_is_named_beside_the_layer_vocabulary() {
        assert_eq!(step_name(FlowKind::Create, STEP_INIT), "init");
        assert_eq!(step_name(FlowKind::Config, 0), "descriptor");
        assert_eq!(step_name(FlowKind::Recover, 8), "load_vault");
    }
}
