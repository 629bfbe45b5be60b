//! Offline exporters: Chrome-trace JSON and JSONL, rendered through the
//! crate's one [`JsonWriter`]. Every field is an integer or a static name,
//! so the output is byte-stable across builds.

use crate::log::TraceLog;
use crate::span::{SpanEvent, SpanKind};
use crate::write::JsonWriter;

impl TraceLog {
    /// Renders the log as a Chrome-trace (`chrome://tracing`, Perfetto)
    /// JSON document of instant events.
    ///
    /// Nodes map to `pid`, actors-or-node to `tid`, and the causal parent
    /// plus all typed fields land in `args`. Timestamps are microseconds as
    /// Chrome expects; sub-microsecond structure is preserved in
    /// `args.at_ns`.
    pub fn to_chrome_trace(&self) -> String {
        let mut w = JsonWriter::compact();
        w.object().key("traceEvents").array();
        for e in self.events() {
            w.object().key("name").str(e.kind.name());
            w.key("ph").str("i").key("s").str("p");
            w.key("ts").decimal(e.at_ns, 3);
            w.key("pid").u64(u64::from(e.node)).key("tid").u64(0);
            w.key("args").object();
            w.key("span").u64(e.id.as_raw());
            w.key("parent").u64(e.parent.map_or(0, |p| p.as_raw()));
            w.key("at_ns").u64(e.at_ns);
            self.write_fields(&mut w, e);
            w.close().close();
        }
        w.close().close();
        w.finish()
    }

    /// Renders the log as JSON Lines: one object per event, emit order.
    pub fn to_jsonl(&self) -> String {
        let mut w = JsonWriter::compact();
        for e in self.events() {
            w.object().key("span").u64(e.id.as_raw());
            w.key("parent").u64(e.parent.map_or(0, |p| p.as_raw()));
            w.key("at_ns").u64(e.at_ns);
            w.key("node").u64(u64::from(e.node));
            w.key("kind").str(e.kind.name());
            self.write_fields(&mut w, e);
            w.close().newline();
        }
        w.finish()
    }

    /// Writes the event's typed fields (and the partition group array, read
    /// from the log's arena) as members of the open object.
    fn write_fields(&self, w: &mut JsonWriter, e: &SpanEvent) {
        e.kind.for_each_field(|name, value| {
            w.key(name).u64(value);
        });
        if let SpanKind::PartitionChanged { groups } = e.kind {
            w.key("groups").array();
            for &g in self.groups(groups) {
                w.u64(u64::from(g));
            }
            w.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SendVerdict;
    use crate::write::parse::{parse, Json};

    fn tiny_log() -> TraceLog {
        let mut log = TraceLog::new();
        log.enable();
        let sent = log.emit(
            1_500,
            0,
            None,
            SpanKind::MsgSent {
                src: 1,
                dst: 2,
                src_node: 0,
                dst_node: 1,
                verdict: SendVerdict::Sent,
                bytes: 128,
            },
        );
        log.emit(
            3_000,
            1,
            sent,
            SpanKind::MsgDelivered {
                src: 1,
                dst: 2,
                dst_node: 1,
            },
        );
        let groups = log.intern_groups(&[1, 1, 2]);
        log.emit(4_000, u32::MAX, None, SpanKind::PartitionChanged { groups });
        log
    }

    #[test]
    fn chrome_trace_shape() {
        let json = tiny_log().to_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"name\":\"msg_sent\""));
        assert!(json.contains("\"ts\":1.500"));
        assert!(json.contains("\"parent\":1"));
        assert!(json.contains("\"groups\":[1,1,2]"));
    }

    #[test]
    fn jsonl_one_line_per_event() {
        let text = tiny_log().to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"kind\":\"msg_sent\""));
        assert!(lines[1].contains("\"parent\":1"));
        assert!(lines[2].contains("\"groups\":[1,1,2]"));
        for line in lines {
            assert!(matches!(parse(line), Json::Obj(_)), "{line}");
        }
    }

    #[test]
    fn exports_are_deterministic() {
        assert_eq!(tiny_log().to_chrome_trace(), tiny_log().to_chrome_trace());
        assert_eq!(tiny_log().to_jsonl(), tiny_log().to_jsonl());
    }

    /// A log with causal structure across two nodes, for the round-trip
    /// test: a flow whose message fan-out nests three levels deep.
    fn causal_log() -> TraceLog {
        let mut log = TraceLog::new();
        log.enable();
        let root = log.emit(
            1_000,
            0,
            None,
            SpanKind::FlowStarted {
                flow: 9,
                object: 42,
                kind: crate::FlowKind::Migrate,
            },
        );
        let sent = log.emit(
            2_500,
            0,
            root,
            SpanKind::MsgSent {
                src: 1,
                dst: 2,
                src_node: 0,
                dst_node: 1,
                verdict: SendVerdict::Sent,
                bytes: 64,
            },
        );
        let delivered = log.emit(
            7_250,
            1,
            sent,
            SpanKind::MsgDelivered {
                src: 1,
                dst: 2,
                dst_node: 1,
            },
        );
        log.emit(
            7_250,
            1,
            delivered,
            SpanKind::TimerFired { actor: 2, token: 3 },
        );
        log.emit(9_000, 0, root, SpanKind::FlowCompleted { flow: 9 });
        log
    }

    #[test]
    fn chrome_trace_round_trips() {
        let log = causal_log();
        let doc = parse(&log.to_chrome_trace());
        let events = match doc.get("traceEvents") {
            Some(Json::Arr(items)) => items,
            other => panic!("missing traceEvents array: {other:?}"),
        };
        assert_eq!(events.len(), log.len());

        // `ts` values are monotone non-decreasing per (pid, tid) track.
        let mut last_ts: crate::IdMap<(u64, u64), f64> = crate::IdMap::default();
        for e in events {
            let pid = e.get("pid").expect("pid").num() as u64;
            let tid = e.get("tid").expect("tid").num() as u64;
            let ts = e.get("ts").expect("ts").num();
            let prev = last_ts.entry((pid, tid)).or_insert(f64::NEG_INFINITY);
            assert!(ts >= *prev, "ts regressed on track ({pid},{tid})");
            *prev = ts;
        }

        // Parent/child nesting is well-formed: every nonzero parent refers
        // to an exported span with a smaller id and an earlier-or-equal
        // timestamp.
        let mut at_ns_by_span: crate::IdMap<u64, u64> = crate::IdMap::default();
        for e in events {
            let args = e.get("args").expect("args");
            let span = args.get("span").expect("span").num() as u64;
            let at_ns = args.get("at_ns").expect("at_ns").num() as u64;
            at_ns_by_span.insert(span, at_ns);
        }
        for e in events {
            let args = e.get("args").expect("args");
            let span = args.get("span").expect("span").num() as u64;
            let parent = args.get("parent").expect("parent").num() as u64;
            if parent != 0 {
                assert!(parent < span, "parent id must precede child id");
                let parent_at = at_ns_by_span
                    .get(&parent)
                    .expect("parent span was exported");
                let child_at = at_ns_by_span[&span];
                assert!(*parent_at <= child_at, "child precedes its parent");
            }
        }
    }
}
