//! The always-on flight recorder: a bounded ring of compact event frames
//! plus tail sampling over a finished span log.
//!
//! Full span tracing ([`TraceLog`]) costs multiples of the base event rate
//! when enabled, so it stays opt-in. The flight recorder is the
//! complementary always-on facility: every executed engine event leaves a
//! 16-byte [`FlightFrame`] in a fixed-capacity ring (the "black box" of
//! recent history), with deterministic oldest-first eviction and a word-fold
//! digest over the retained window.
//!
//! When a full span log *is* available (scenario runs enable one; SLO
//! breaches demand one), [`tail_sample`] applies the retention policy after
//! the fact: only "interesting" flows keep their full causal span trees —
//! flows that aborted, flows named by an invariant violation, and the
//! slowest percentile by duration. Everything else is dropped, bounding the
//! full-fidelity dump the way head sampling never could (head sampling must
//! decide before knowing how the flow ends).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::check::{check, Violation};
use crate::hash::Fold;
use crate::log::TraceLog;
use crate::span::{SpanEvent, SpanId, SpanKind};

/// One compact flight-recorder frame: the executed event's time plus a
/// packed `(kind code, node, actor)` word. Codes reuse the stable
/// [`SpanKind::code`] numbering (2 delivered, 3 dead letter, 4 timer,
/// 7 crash, 8 restart).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlightFrame {
    /// Simulated time of the event, in nanoseconds.
    pub at_ns: u64,
    /// Packed metadata: bits 56..64 the kind code, 32..56 the node (masked
    /// to 24 bits), 0..32 the low 32 bits of the actor id.
    pub meta: u64,
}

impl FlightFrame {
    /// Packs a frame from its parts.
    #[inline(always)]
    pub fn pack(at_ns: u64, code: u8, node: u32, actor: u64) -> Self {
        FlightFrame {
            at_ns,
            meta: ((code as u64) << 56)
                | (((node as u64) & 0xff_ffff) << 32)
                | (actor & 0xffff_ffff),
        }
    }

    /// The stable kind code (see [`SpanKind::code`]).
    pub fn code(&self) -> u8 {
        (self.meta >> 56) as u8
    }

    /// The node the event happened on (24 bits retained).
    pub fn node(&self) -> u32 {
        ((self.meta >> 32) & 0xff_ffff) as u32
    }

    /// The low 32 bits of the actor id.
    pub fn actor(&self) -> u32 {
        self.meta as u32
    }
}

/// Default ring capacity: 32 Ki frames (512 KiB), enough to hold the tail
/// of any canonical workload while staying invisible in RSS.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1 << 15;

/// The bounded always-on frame ring. Enabled by default; `capacity` must be
/// a power of two and is fixed once the first frame lands.
#[derive(Debug)]
pub struct FlightRecorder {
    enabled: bool,
    cap: usize,
    frames: Vec<FlightFrame>,
    /// Total frames ever pushed; `head & (cap - 1)` is the next overwrite
    /// position once the ring is full.
    head: usize,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// Creates an enabled recorder with the default capacity. Storage is
    /// grown lazily, so idle recorders cost nothing.
    pub fn new() -> Self {
        FlightRecorder {
            enabled: true,
            cap: DEFAULT_FLIGHT_CAPACITY,
            frames: Vec::new(),
            head: 0,
        }
    }

    /// Turns recording on.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Turns recording off (retained frames are kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Returns `true` while recording.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Replaces the ring capacity (rounded up to a power of two, minimum 8).
    ///
    /// # Panics
    ///
    /// Panics if frames have already been recorded — the eviction order
    /// would no longer be reproducible from the seed.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(self.head == 0, "capacity is fixed once recording starts");
        self.cap = capacity.max(8).next_power_of_two();
    }

    /// The configured ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Appends a frame, evicting the oldest once the ring is full. Callers
    /// gate on [`is_enabled`](FlightRecorder::is_enabled); the push itself
    /// is unconditional so the hot path stays one branch.
    #[inline(always)]
    pub fn push(&mut self, frame: FlightFrame) {
        let len = self.frames.len();
        if len < self.cap {
            self.fill(frame);
        } else {
            // Masking with `len - 1` (cap is a power of two, so once full
            // `len == cap`) keeps the index provably in bounds — the
            // compiler drops the bounds check on this store.
            self.frames[self.head & (len - 1)] = frame;
        }
        self.head += 1;
    }

    /// The pre-wrap fill path, kept out of line so the inlined steady-state
    /// [`push`](FlightRecorder::push) is one compare and a masked store.
    #[inline(never)]
    fn fill(&mut self, frame: FlightFrame) {
        if self.frames.capacity() < self.cap {
            // One exact reservation instead of doubling growth: the fill
            // phase then never reallocates or copies.
            self.frames.reserve_exact(self.cap - self.frames.len());
        }
        self.frames.push(frame);
    }

    /// Total frames ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.head as u64
    }

    /// Frames evicted by the capacity bound.
    pub fn evicted(&self) -> u64 {
        self.head.saturating_sub(self.cap) as u64
    }

    /// The retained frames in place, as the ring's older and newer halves
    /// (the newer one is empty until the ring wraps).
    fn halves(&self) -> (&[FlightFrame], &[FlightFrame]) {
        if self.head <= self.cap {
            (&self.frames, &[])
        } else {
            let (newer, older) = self.frames.split_at(self.head & (self.cap - 1));
            (older, newer)
        }
    }

    /// Retained frames, oldest first.
    pub fn frames(&self) -> Vec<FlightFrame> {
        let (older, newer) = self.halves();
        [older, newer].concat()
    }

    /// [`Fold`] digest over the total count ever recorded and every retained
    /// frame (`at_ns`, then `meta`), oldest first. Byte-identical across
    /// build profiles: frames carry integers only.
    pub fn digest(&self) -> u64 {
        let mut h = Fold::new(self.head as u64);
        let (older, newer) = self.halves();
        for f in older.iter().chain(newer) {
            h.word(f.at_ns);
            h.word(f.meta);
        }
        h.finish()
    }

    /// Clears retained frames and the running count.
    pub fn clear(&mut self) {
        self.frames.clear();
        self.head = 0;
    }
}

/// One flow retained by [`tail_sample`], with its full causal span tree and
/// the reasons it was kept.
#[derive(Debug, Clone)]
pub struct RetainedFlow {
    /// The flow id.
    pub flow: u64,
    /// The object the flow concerned.
    pub object: u64,
    /// The [`crate::FlowKind`] code of the flow.
    pub kind_code: u64,
    /// The flow kind's stable name.
    pub kind_name: &'static str,
    /// When the flow started, in nanoseconds.
    pub start_ns: u64,
    /// When it terminated (equal to `start_ns` for leaked flows).
    pub end_ns: u64,
    /// The flow ended in `FlowAborted` (or never terminated).
    pub aborted: bool,
    /// An invariant violation names this flow.
    pub violating: bool,
    /// The flow's duration is in the retained slowest percentile.
    pub slow: bool,
    /// The full causal span tree (the flow's spans plus all descendants),
    /// in log order. A `PartitionChanged` among them keeps its handle into
    /// the sampled log's group arena.
    pub spans: Vec<SpanEvent>,
}

/// The full-fidelity dump produced by [`tail_sample`]: ring statistics plus
/// the retained span trees.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// The slowest-percentile retention quantile used (e.g. `0.95`).
    pub slow_quantile: f64,
    /// Flows observed in the span log.
    pub total_flows: u64,
    /// Frames ever recorded by the ring.
    pub frames_recorded: u64,
    /// Frames still retained in the ring.
    pub frames_retained: u64,
    /// The ring digest at dump time.
    pub ring_digest: u64,
    /// The retained flows, ascending by flow id.
    pub flows: Vec<RetainedFlow>,
}

/// Bookkeeping for one flow while scanning the log.
struct FlowInfo {
    object: u64,
    kind_code: u64,
    kind_name: &'static str,
    start_ns: u64,
    end_ns: Option<u64>,
    aborted: bool,
    violating: bool,
}

impl FlowInfo {
    /// Start-to-end duration of a terminated flow. `push_event` is public,
    /// so an end stamped before its start can arrive; it counts as 0.
    fn duration_ns(&self) -> Option<u64> {
        self.end_ns.map(|end| end.saturating_sub(self.start_ns))
    }
}

/// Applies the tail-sampling retention policy to a finished span log:
/// keeps the full causal span tree of every flow that aborted (or leaked),
/// every flow named by an invariant violation, and every terminated flow
/// whose duration reaches the nearest-rank `slow_quantile` of all flow
/// durations. `recorder` contributes the ring statistics of the dump.
///
/// The log is swept a fixed number of times whatever the number of
/// retained flows — flow bookkeeping, the invariant checker, and one sweep
/// that extracts every retained tree together — so the cost is
/// O(spans + retained output).
pub fn tail_sample(log: &TraceLog, recorder: &FlightRecorder, slow_quantile: f64) -> FlightDump {
    tail_sample_checked(log, &check(log), recorder, slow_quantile)
}

/// [`tail_sample`] for a caller that already holds the invariant checker's
/// verdict on `log` (`violations` must be `check(log)`): the checker sweep
/// is skipped.
pub fn tail_sample_checked(
    log: &TraceLog,
    violations: &[Violation],
    recorder: &FlightRecorder,
    slow_quantile: f64,
) -> FlightDump {
    let q = slow_quantile.clamp(0.0, 1.0);
    let mut flows: BTreeMap<u64, FlowInfo> = BTreeMap::new();
    for e in log.events() {
        match &e.kind {
            SpanKind::FlowStarted { flow, object, kind } => {
                flows.entry(*flow).or_insert(FlowInfo {
                    object: *object,
                    kind_code: kind.code(),
                    kind_name: kind.name(),
                    start_ns: e.at_ns,
                    end_ns: None,
                    aborted: false,
                    violating: false,
                });
            }
            SpanKind::FlowCompleted { flow } => {
                if let Some(info) = flows.get_mut(flow) {
                    info.end_ns = Some(e.at_ns);
                }
            }
            SpanKind::FlowAborted { flow } => {
                if let Some(info) = flows.get_mut(flow) {
                    info.end_ns = Some(e.at_ns);
                    info.aborted = true;
                }
            }
            _ => {}
        }
    }
    for v in violations {
        let named = match v {
            Violation::LeakedFlow { flow, .. }
            | Violation::SpuriousFlowEnd { flow, .. }
            | Violation::DuplicateFlowStart { flow, .. } => Some(flow),
            _ => None,
        };
        if let Some(flow) = named {
            if let Some(info) = flows.get_mut(flow) {
                info.violating = true;
            }
        }
    }
    // Nearest-rank threshold over terminated-flow durations: a flow is
    // "slow" when its duration reaches the q-quantile. Integer nanoseconds,
    // so the cut is exact in every build profile.
    let mut durations: Vec<u64> = flows.values().filter_map(FlowInfo::duration_ns).collect();
    durations.sort_unstable();
    let slow_floor = if durations.is_empty() {
        None
    } else {
        let rank = ((q * durations.len() as f64).ceil() as usize).max(1) - 1;
        Some(durations[rank])
    };
    let total_flows = flows.len() as u64;
    let mut retained = Vec::new();
    for (flow, info) in flows {
        let slow = match (info.duration_ns(), slow_floor) {
            (Some(d), Some(floor)) => d >= floor,
            _ => false,
        };
        let aborted = info.aborted || info.end_ns.is_none();
        if !(aborted || info.violating || slow) {
            continue;
        }
        retained.push(RetainedFlow {
            flow,
            object: info.object,
            kind_code: info.kind_code,
            kind_name: info.kind_name,
            start_ns: info.start_ns,
            end_ns: info.end_ns.unwrap_or(info.start_ns),
            aborted,
            violating: info.violating,
            slow,
            spans: Vec::new(),
        });
    }
    let wanted: Vec<u64> = retained.iter().map(|f| f.flow).collect();
    for (f, tree) in retained.iter_mut().zip(log.flow_trees(&wanted)) {
        f.spans = tree.iter().map(|&pos| log.events()[pos]).collect();
    }
    FlightDump {
        slow_quantile: q,
        total_flows,
        frames_recorded: recorder.recorded(),
        frames_retained: recorder.recorded().min(recorder.capacity() as u64),
        ring_digest: recorder.digest(),
        flows: retained,
    }
}

impl FlightDump {
    /// Deterministic JSON: fixed key order, integer ids, hex digest —
    /// byte-identical debug vs release.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"slow_quantile\": {:?},\n  \"total_flows\": {},\n  \"frames_recorded\": {},\n  \
             \"frames_retained\": {},\n  \"ring_digest\": \"{:016x}\",\n  \"flows\": [",
            self.slow_quantile,
            self.total_flows,
            self.frames_recorded,
            self.frames_retained,
            self.ring_digest,
        );
        for (i, f) in self.flows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"flow\": {}, \"object\": {}, \"kind\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"aborted\": {}, \"violating\": {}, \"slow\": {}, \"spans\": [",
                f.flow, f.object, f.kind_name, f.start_ns, f.end_ns, f.aborted, f.violating, f.slow,
            );
            for (j, s) in f.spans.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"id\": {}, \"parent\": {}, \"at_ns\": {}, \"node\": {}, \"name\": \"{}\"}}",
                    s.id.as_raw(),
                    s.parent.map_or(0, SpanId::as_raw),
                    s.at_ns,
                    s.node,
                    s.kind.name()
                );
            }
            out.push_str("]}");
        }
        if !self.flows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// Renders the retained span trees, one indented block per flow.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "flight dump: {} of {} flows retained (q={}), ring {}/{} frames, digest {:016x}\n",
            self.flows.len(),
            self.total_flows,
            self.slow_quantile,
            self.frames_retained,
            self.frames_recorded,
            self.ring_digest,
        ));
        for f in &self.flows {
            let mut reasons = Vec::new();
            if f.aborted {
                reasons.push("aborted");
            }
            if f.violating {
                reasons.push("violating");
            }
            if f.slow {
                reasons.push("slow");
            }
            out.push_str(&format!(
                "flow {} ({}, object {}) {}..{} ns [{}]\n",
                f.flow,
                f.kind_name,
                f.object,
                f.start_ns,
                f.end_ns,
                reasons.join("+"),
            ));
            // Indent by causal depth within the retained tree.
            let ids: BTreeMap<u64, usize> = f
                .spans
                .iter()
                .enumerate()
                .map(|(i, s)| (s.id.as_raw(), i))
                .collect();
            for s in &f.spans {
                let mut depth = 0usize;
                let mut cur = s.parent;
                while let Some(p) = cur {
                    match ids.get(&p.as_raw()) {
                        Some(&i) => {
                            depth += 1;
                            cur = f.spans[i].parent;
                        }
                        None => break,
                    }
                }
                out.push_str(&format!(
                    "{}{} @{} node={} span={}\n",
                    "  ".repeat(depth + 1),
                    s.kind.name(),
                    s.at_ns,
                    s.node,
                    s.id.as_raw(),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::FlowKind;

    fn frame(i: u64) -> FlightFrame {
        FlightFrame::pack(i, 2, (i % 5) as u32, i)
    }

    #[test]
    fn pack_roundtrips_the_fields() {
        let f = FlightFrame::pack(12345, 7, 0xabcdef, 0x1_0000_0042);
        assert_eq!(f.at_ns, 12345);
        assert_eq!(f.code(), 7);
        assert_eq!(f.node(), 0xabcdef);
        assert_eq!(f.actor(), 0x42);
    }

    #[test]
    fn ring_evicts_oldest_deterministically() {
        let mut r = FlightRecorder::new();
        r.set_capacity(8);
        for i in 0..20 {
            r.push(frame(i));
        }
        assert_eq!(r.recorded(), 20);
        assert_eq!(r.evicted(), 12);
        let frames = r.frames();
        assert_eq!(frames.len(), 8);
        assert_eq!(frames[0], frame(12), "oldest retained");
        assert_eq!(frames[7], frame(19), "newest retained");
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        let mut a = FlightRecorder::new();
        let mut b = FlightRecorder::new();
        for i in 0..100 {
            a.push(frame(i));
            b.push(frame(i));
        }
        assert_eq!(a.digest(), b.digest());
        b.push(frame(100));
        assert_ne!(a.digest(), b.digest());
        // Same retained window, different history: the digest covers the
        // total count, so it still differs.
        let mut c = FlightRecorder::new();
        c.set_capacity(8);
        let mut d = FlightRecorder::new();
        d.set_capacity(8);
        for i in 0..16 {
            c.push(frame(i));
        }
        for i in 8..16 {
            d.push(frame(i));
        }
        assert_eq!(c.frames(), d.frames());
        assert_ne!(c.digest(), d.digest());
    }

    #[test]
    fn capacity_is_fixed_once_recording() {
        let mut r = FlightRecorder::new();
        r.set_capacity(5);
        assert_eq!(r.capacity(), 8, "rounded to a power of two");
        r.push(frame(0));
        assert!(std::panic::catch_unwind(move || r.set_capacity(16)).is_err());
    }

    fn flow_log() -> TraceLog {
        let mut log = TraceLog::new();
        log.enable();
        // Flow 1: fast, clean (duration 10).
        let s1 = log.emit(
            0,
            0,
            None,
            SpanKind::FlowStarted {
                flow: 1,
                object: 100,
                kind: FlowKind::Update,
            },
        );
        log.emit(
            5,
            1,
            s1,
            SpanKind::MsgDelivered {
                src: 1,
                dst: 2,
                dst_node: 1,
            },
        );
        log.emit(10, 0, s1, SpanKind::FlowCompleted { flow: 1 });
        // Flow 2: slow (duration 100).
        let s2 = log.emit(
            20,
            0,
            None,
            SpanKind::FlowStarted {
                flow: 2,
                object: 101,
                kind: FlowKind::Migrate,
            },
        );
        log.emit(120, 0, s2, SpanKind::FlowCompleted { flow: 2 });
        // Flow 3: aborted.
        log.emit(
            30,
            2,
            None,
            SpanKind::FlowStarted {
                flow: 3,
                object: 102,
                kind: FlowKind::Create,
            },
        );
        log.emit(40, 2, None, SpanKind::FlowAborted { flow: 3 });
        log
    }

    #[test]
    fn tail_sample_keeps_interesting_flows_only() {
        let log = flow_log();
        let r = FlightRecorder::new();
        let dump = tail_sample(&log, &r, 0.95);
        assert_eq!(dump.total_flows, 3);
        let ids: Vec<u64> = dump.flows.iter().map(|f| f.flow).collect();
        // Flow 1 is fast and clean: dropped. Flow 2 is the slowest
        // percentile; flow 3 aborted.
        assert_eq!(ids, vec![2, 3]);
        let f2 = &dump.flows[0];
        assert!(f2.slow && !f2.aborted);
        assert_eq!(f2.kind_name, "migrate");
        let f3 = &dump.flows[1];
        assert!(f3.aborted && !f3.slow);
    }

    #[test]
    fn tail_sample_retains_causal_descendants() {
        let log = flow_log();
        let r = FlightRecorder::new();
        // q = 0 retains every terminated flow as "slow".
        let dump = tail_sample(&log, &r, 0.0);
        assert_eq!(dump.flows.len(), 3);
        let f1 = &dump.flows[0];
        assert_eq!(f1.flow, 1);
        // Start + delivered descendant + completed.
        assert_eq!(f1.spans.len(), 3);
        assert!(f1
            .spans
            .iter()
            .any(|s| matches!(s.kind, SpanKind::MsgDelivered { .. })));
    }

    #[test]
    fn leaked_flows_count_as_aborted() {
        let mut log = TraceLog::new();
        log.enable();
        log.emit(
            0,
            0,
            None,
            SpanKind::FlowStarted {
                flow: 9,
                object: 1,
                kind: FlowKind::Recover,
            },
        );
        let dump = tail_sample(&log, &FlightRecorder::new(), 0.95);
        assert_eq!(dump.flows.len(), 1);
        assert!(dump.flows[0].aborted, "leaked flow retained as aborted");
        assert!(dump.flows[0].violating, "checker names the leak");
    }

    #[test]
    fn only_the_wrapper_runs_the_checker() {
        let mut log = flow_log();
        log.emit(
            50,
            0,
            None,
            SpanKind::FlowStarted {
                flow: 4,
                object: 103,
                kind: FlowKind::Recover,
            },
        );
        let calls = || crate::check::CHECK_CALLS.with(|c| c.get());
        let r = FlightRecorder::new();
        let violations = check(&log);
        assert!(!violations.is_empty(), "flow 4 leaks");
        let before = calls();
        let given = tail_sample_checked(&log, &violations, &r, 0.95);
        assert_eq!(calls(), before, "the verdict was handed in");
        let wrapped = tail_sample(&log, &r, 0.95);
        assert_eq!(calls(), before + 1);
        assert_eq!(given.to_json(), wrapped.to_json());
        assert!(given.flows.iter().any(|f| f.flow == 4 && f.violating));
        // The verdict is an input: without it no flow is marked violating.
        let blind = tail_sample_checked(&log, &[], &r, 0.95);
        assert!(blind.flows.iter().all(|f| !f.violating));
    }

    #[test]
    fn flow_completed_before_it_started_has_zero_duration() {
        // `push_event` takes any timestamps: an end stamped before its
        // start must neither panic nor wrap into the "slowest" flow.
        let id = |raw| SpanId::from_raw(raw).expect("nonzero");
        let ev = |raw, at_ns, kind| SpanEvent {
            id: id(raw),
            parent: None,
            at_ns,
            node: 0,
            kind,
        };
        let started = |flow| SpanKind::FlowStarted {
            flow,
            object: 1,
            kind: FlowKind::Update,
        };
        let log = TraceLog::from_events(
            vec![
                ev(1, 500, started(1)),
                ev(2, 100, SpanKind::FlowCompleted { flow: 1 }),
                ev(3, 600, started(2)),
                ev(4, 650, SpanKind::FlowCompleted { flow: 2 }),
            ],
            crate::GroupArena::default(),
        );
        let dump = tail_sample(&log, &FlightRecorder::new(), 0.95);
        let slow: Vec<u64> = dump.flows.iter().map(|f| f.flow).collect();
        assert_eq!(
            slow,
            vec![2],
            "the 50 ns flow is the slow one, not the backwards one"
        );
        // At q = 0 both are kept; the backwards flow reports its stamps as is.
        let all = tail_sample(&log, &FlightRecorder::new(), 0.0);
        assert_eq!((all.flows[0].start_ns, all.flows[0].end_ns), (500, 100));
    }

    /// A log of `flows` completed flows, every one retained at q = 0, each a
    /// start, two descendants and an end, with unrelated timers between.
    fn churn_log(flows: u64) -> TraceLog {
        let mut log = TraceLog::new();
        log.enable();
        for flow in 0..flows {
            let at = flow * 100;
            let start = log.emit(
                at,
                0,
                None,
                SpanKind::FlowStarted {
                    flow,
                    object: flow,
                    kind: FlowKind::Update,
                },
            );
            let sent = log.emit(
                at + 1,
                0,
                start,
                SpanKind::TimerFired { actor: 1, token: 0 },
            );
            log.emit(at + 2, 1, sent, SpanKind::TimerFired { actor: 2, token: 0 });
            for t in 0..4 {
                log.emit(at + 3, 2, None, SpanKind::TimerFired { actor: 3, token: t });
            }
            log.emit(at + 9, 0, start, SpanKind::FlowCompleted { flow });
        }
        log
    }

    #[test]
    fn extraction_work_is_linear_in_the_log() {
        // Timing-free scaling gate: 4x the spans with 4x the retained flows
        // must cost ~4x the sweep work. The per-flow rescans this replaced
        // cost 16x (flows x spans).
        let visits = |flows| {
            let log = churn_log(flows);
            crate::log::SWEEP_VISITS.with(|v| v.set(0));
            let dump = tail_sample(&log, &FlightRecorder::new(), 0.0);
            assert_eq!(dump.flows.len() as u64, flows);
            assert!(dump.flows.iter().all(|f| f.spans.len() == 4));
            crate::log::SWEEP_VISITS.with(|v| v.get())
        };
        let (small, large) = (visits(200), visits(800));
        assert!(small >= 200 * 8, "the counter is wired: {small}");
        assert!(
            large as f64 <= 4.5 * small as f64,
            "sweep work grew {small} -> {large} for 4x the log"
        );
    }

    #[test]
    fn dump_json_and_render_are_deterministic() {
        let log = flow_log();
        let mut r = FlightRecorder::new();
        for i in 0..4 {
            r.push(frame(i));
        }
        let a = tail_sample(&log, &r, 0.95);
        let b = tail_sample(&log, &r, 0.95);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"ring_digest\""));
        assert!(a.to_json().contains("\"kind\": \"migrate\""));
        let rendered = a.render();
        assert!(rendered.contains("flow 3"));
        assert!(rendered.contains("[aborted]"));
        assert!(rendered.contains("flow 2"));
        assert!(rendered.contains("[slow]"));
    }
}
