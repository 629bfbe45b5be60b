//! Critical-path extraction through the causal parent graph.

use dcdo_trace::{FlowKind, SpanId, TraceLog};

use crate::flow::FlowRecord;
use crate::layer::{Layer, LayerMap, LAYERS};

/// One hop of a critical path: the time between two consecutive causal
/// events, attributed to a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathSegment {
    /// The event that *ends* the segment (whose cause the time was spent in).
    pub span: SpanId,
    /// Stable name of that event's kind.
    pub kind_name: &'static str,
    /// The layer the segment's time is attributed to.
    pub layer: Layer,
    /// Segment start (sim ns).
    pub start_ns: u64,
    /// Segment end (sim ns).
    pub end_ns: u64,
}

impl PathSegment {
    /// The segment's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The causal chain from a flow's terminal event back to its start, cut
/// into layer-attributed segments.
///
/// The segments partition `[start_ns, end_ns]` exactly, so
/// `by_layer` sums to `total_ns()` — the profiler's books always balance.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// The flow id.
    pub flow: u64,
    /// The flow's semantic kind.
    pub kind: FlowKind,
    /// Flow start (sim ns).
    pub start_ns: u64,
    /// Flow end (sim ns).
    pub end_ns: u64,
    /// The chain's segments in chronological order.
    pub segments: Vec<PathSegment>,
    /// Time attributed to every layer, in `LAYERS` order (zeros included).
    pub by_layer: Vec<(Layer, u64)>,
}

impl CriticalPath {
    /// End-to-end latency.
    pub fn total_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Extracts the critical path of a terminated flow.
///
/// Walks the causal parent chain backwards from the terminal event,
/// truncating at events from before the flow started (the triggering
/// request's own history), then attributes each inter-event gap via
/// [`LayerMap::classify`] on the event that ends it. Returns `None` for
/// flows that never terminated.
pub fn critical_path(log: &TraceLog, flow: &FlowRecord, map: &LayerMap) -> Option<CriticalPath> {
    let end_span = flow.end_span?;
    let end_ns = flow.end_ns?;
    let mut chain = Vec::new();
    let mut cursor = Some(end_span);
    while let Some(id) = cursor {
        let Some(e) = log.get(id) else { break };
        if e.at_ns < flow.start_ns {
            break;
        }
        chain.push(e);
        if id == flow.start_span {
            break;
        }
        cursor = e.parent;
    }
    chain.reverse();
    let mut segments = Vec::with_capacity(chain.len());
    let mut sums = [0u64; LAYERS.len()];
    let mut prev_ns = flow.start_ns;
    for e in &chain {
        let at = e.at_ns.max(prev_ns);
        let layer = map.classify(e);
        segments.push(PathSegment {
            span: e.id,
            kind_name: e.kind.name(),
            layer,
            start_ns: prev_ns,
            end_ns: at,
        });
        let slot = LAYERS
            .iter()
            .position(|l| *l == layer)
            .expect("layer listed");
        sums[slot] += at - prev_ns;
        prev_ns = at;
    }
    // If the chain was cut short (a parent link left the flow window), the
    // remaining time up to the terminal still belongs to the path; it has
    // already been covered because the terminal event is in the chain.
    debug_assert_eq!(prev_ns, end_ns);
    let by_layer = LAYERS.iter().copied().zip(sums).collect();
    Some(CriticalPath {
        flow: flow.flow,
        kind: flow.kind,
        start_ns: flow.start_ns,
        end_ns,
        segments,
        by_layer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::collect_flows;
    use dcdo_trace::{SendVerdict, SpanKind};

    #[test]
    fn layer_sums_equal_end_to_end_latency() {
        let mut l = TraceLog::new();
        l.enable();
        let start = l.emit(
            1_000,
            0,
            None,
            SpanKind::FlowStarted {
                flow: 5,
                object: 1,
                kind: FlowKind::Migrate,
            },
        );
        let sent = l.emit(
            1_200,
            0,
            start,
            SpanKind::MsgSent {
                src: 10,
                dst: 20,
                src_node: 0,
                dst_node: 3,
                verdict: SendVerdict::Sent,
                bytes: 96,
            },
        );
        let delivered = l.emit(
            2_700,
            3,
            sent,
            SpanKind::MsgDelivered {
                src: 10,
                dst: 20,
                dst_node: 3,
            },
        );
        let timer = l.emit(
            4_000,
            3,
            delivered,
            SpanKind::TimerFired {
                actor: 20,
                token: 9,
            },
        );
        l.emit(4_500, 0, timer, SpanKind::FlowCompleted { flow: 5 });
        let flows = collect_flows(&l);
        let mut map = LayerMap::new();
        map.set_actor(10, Layer::Manager);
        map.set_actor(20, Layer::Vm);
        map.set_node(0, Layer::Manager);
        let path = critical_path(&l, &flows[0], &map).expect("terminated flow");

        assert_eq!(path.total_ns(), 3_500);
        let summed: u64 = path.by_layer.iter().map(|(_, ns)| ns).sum();
        assert_eq!(summed, path.total_ns(), "per-layer books balance");
        let of = |layer: Layer| {
            path.by_layer
                .iter()
                .find(|(l, _)| *l == layer)
                .map(|(_, ns)| *ns)
                .unwrap()
        };
        // start→sent: manager compute; sent→delivered: wire; delivered→timer:
        // VM compute; timer→completed: manager epilogue (node 0).
        assert_eq!(of(Layer::Manager), 200 + 500);
        assert_eq!(of(Layer::Network), 1_500);
        assert_eq!(of(Layer::Vm), 1_300);
        assert_eq!(of(Layer::Other), 0);
        assert_eq!(path.segments.len(), 5);
    }

    #[test]
    fn truncates_at_history_older_than_the_flow() {
        let mut l = TraceLog::new();
        l.enable();
        // A pre-flow cause (the client request that triggered everything).
        let cause = l.emit(10, 7, None, SpanKind::TimerFired { actor: 1, token: 0 });
        let start = l.emit(
            100,
            0,
            cause,
            SpanKind::FlowStarted {
                flow: 1,
                object: 2,
                kind: FlowKind::Create,
            },
        );
        l.emit(400, 0, start, SpanKind::FlowCompleted { flow: 1 });
        let flows = collect_flows(&l);
        let path = critical_path(&l, &flows[0], &LayerMap::new()).expect("path");
        assert_eq!(path.total_ns(), 300);
        // The pre-flow timer is not part of the path.
        assert!(path.segments.iter().all(|s| s.start_ns >= 100));
        let summed: u64 = path.by_layer.iter().map(|(_, ns)| ns).sum();
        assert_eq!(summed, 300);
    }

    #[test]
    fn unterminated_flow_has_no_path() {
        let mut l = TraceLog::new();
        l.enable();
        l.emit(
            0,
            0,
            None,
            SpanKind::FlowStarted {
                flow: 1,
                object: 2,
                kind: FlowKind::Update,
            },
        );
        let flows = collect_flows(&l);
        assert!(critical_path(&l, &flows[0], &LayerMap::new()).is_none());
    }
}
