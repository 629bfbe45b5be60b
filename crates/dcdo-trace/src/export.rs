//! Offline exporters: Chrome-trace JSON and JSONL.
//!
//! Both formats are hand-rendered: every field is an integer or a static
//! name, so no serialization framework is needed and the output is
//! byte-stable across builds.

use std::fmt::Write as _;

use crate::log::TraceLog;
use crate::span::{SpanEvent, SpanKind};

impl TraceLog {
    /// Renders the log as a Chrome-trace (`chrome://tracing`, Perfetto)
    /// JSON document of instant events.
    ///
    /// Nodes map to `pid`, actors-or-node to `tid`, and the causal parent
    /// plus all typed fields land in `args`. Timestamps are microseconds as
    /// Chrome expects; sub-microsecond structure is preserved in
    /// `args.at_ns`.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::with_capacity(128 + self.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, e) in self.events().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts_us = e.at_ns / 1_000;
            let ts_frac = e.at_ns % 1_000;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{}.{:03},\"pid\":{},\"tid\":0,\"args\":{{\"span\":{},\"parent\":{},\"at_ns\":{}",
                e.kind.name(),
                ts_us,
                ts_frac,
                e.node,
                e.id.as_raw(),
                e.parent.map_or(0, |p| p.as_raw()),
                e.at_ns,
            );
            self.write_fields(&mut out, e);
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }

    /// Renders the log as JSON Lines: one object per event, emit order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.len() * 96);
        for e in self.events() {
            let _ = write!(
                out,
                "{{\"span\":{},\"parent\":{},\"at_ns\":{},\"node\":{},\"kind\":\"{}\"",
                e.id.as_raw(),
                e.parent.map_or(0, |p| p.as_raw()),
                e.at_ns,
                e.node,
                e.kind.name(),
            );
            self.write_fields(&mut out, e);
            out.push_str("}\n");
        }
        out
    }

    /// Appends `,"field":value` pairs (and the partition group array, read
    /// from the log's arena) to a JSON object under construction.
    fn write_fields(&self, out: &mut String, e: &SpanEvent) {
        e.kind.for_each_field(|name, value| {
            let _ = write!(out, ",\"{name}\":{value}");
        });
        if let SpanKind::PartitionChanged { groups } = e.kind {
            out.push_str(",\"groups\":[");
            for (i, g) in self.groups(groups).iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{g}");
            }
            out.push(']');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SendVerdict;

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
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn exports_are_deterministic() {
        assert_eq!(tiny_log().to_chrome_trace(), tiny_log().to_chrome_trace());
        assert_eq!(tiny_log().to_jsonl(), tiny_log().to_jsonl());
    }

    /// A minimal JSON value for the round-trip test below. The exporter
    /// emits only objects, arrays, numbers, and escape-free strings, so a
    /// tiny recursive-descent parser is enough to validate the output
    /// without a serialization framework.
    #[derive(Debug, Clone, PartialEq)]
    enum Json {
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        fn num(&self) -> f64 {
            match self {
                Json::Num(n) => *n,
                other => panic!("expected number, got {other:?}"),
            }
        }
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Parser<'a> {
        fn new(text: &'a str) -> Self {
            Parser {
                bytes: text.as_bytes(),
                pos: 0,
            }
        }

        fn peek(&self) -> u8 {
            self.bytes[self.pos]
        }

        fn bump(&mut self) -> u8 {
            let b = self.bytes[self.pos];
            self.pos += 1;
            b
        }

        fn expect(&mut self, b: u8) {
            assert_eq!(self.bump(), b, "malformed JSON at byte {}", self.pos - 1);
        }

        fn value(&mut self) -> Json {
            match self.peek() {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Json::Str(self.string()),
                _ => self.number(),
            }
        }

        fn object(&mut self) -> Json {
            self.expect(b'{');
            let mut pairs = Vec::new();
            if self.peek() == b'}' {
                self.bump();
                return Json::Obj(pairs);
            }
            loop {
                let key = self.string();
                self.expect(b':');
                pairs.push((key, self.value()));
                match self.bump() {
                    b',' => continue,
                    b'}' => break,
                    other => panic!("unexpected byte {other} in object"),
                }
            }
            Json::Obj(pairs)
        }

        fn array(&mut self) -> Json {
            self.expect(b'[');
            let mut items = Vec::new();
            if self.peek() == b']' {
                self.bump();
                return Json::Arr(items);
            }
            loop {
                items.push(self.value());
                match self.bump() {
                    b',' => continue,
                    b']' => break,
                    other => panic!("unexpected byte {other} in array"),
                }
            }
            Json::Arr(items)
        }

        fn string(&mut self) -> String {
            self.expect(b'"');
            let start = self.pos;
            while self.peek() != b'"' {
                assert_ne!(self.peek(), b'\\', "exporter never emits escapes");
                self.pos += 1;
            }
            let s = std::str::from_utf8(&self.bytes[start..self.pos])
                .expect("utf8")
                .to_string();
            self.bump();
            s
        }

        fn number(&mut self) -> Json {
            let start = self.pos;
            while self.pos < self.bytes.len()
                && matches!(self.peek(), b'0'..=b'9' | b'.' | b'-' | b'+' | b'e' | b'E')
            {
                self.pos += 1;
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("utf8");
            Json::Num(text.parse().expect("number"))
        }
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
        let doc = Parser::new(&log.to_chrome_trace()).value();
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
