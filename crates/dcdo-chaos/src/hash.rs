//! Golden-trace hashing.

pub use dcdo_sim::fnv1a;
use dcdo_sim::{Fold, Trace, TraceEvent};

/// Condenses a recorded execution trace into a golden hash: a [`Fold`] of
/// the entry count, then `(at_ns, event code, a, b)` per retained entry,
/// oldest first. Two runs with the same seed, workload, and
/// [`FaultPlan`](crate::FaultPlan) must produce equal hashes — the
/// determinism witness used by the chaos tests and benchmarks.
///
/// The tuple is the entry itself (full nanosecond time, every operand), so
/// two traces whose [`Trace::render`] texts differ hash apart.
pub fn trace_hash(trace: &Trace) -> u64 {
    let mut h = Fold::new(trace.len() as u64);
    for entry in trace.entries() {
        let (code, a, b) = words(&entry.event);
        h.word(entry.at.as_nanos());
        h.word(code);
        h.word(a);
        h.word(b);
    }
    h.finish()
}

/// An event's stable code (declaration order, from 1) and its two operands.
fn words(event: &TraceEvent) -> (u64, u64, u64) {
    let pair = |a: u32, b: u32| (a as u64, b as u64);
    let (code, (a, b)) = match event {
        TraceEvent::Spawned { actor, node } => (1, pair(actor.as_raw(), node.as_raw())),
        TraceEvent::Killed { actor } => (2, pair(actor.as_raw(), 0)),
        TraceEvent::Delivered { src, dst } => (3, pair(src.as_raw(), dst.as_raw())),
        TraceEvent::DeadLetter { src, dst } => (4, pair(src.as_raw(), dst.as_raw())),
        TraceEvent::TimerFired { actor, token } => (5, (actor.as_raw() as u64, *token)),
        TraceEvent::NodeDown { node } => (6, pair(node.as_raw(), 0)),
        TraceEvent::NodeUp { node } => (7, pair(node.as_raw(), 0)),
        TraceEvent::Unreachable { src, dst } => (8, pair(src.as_raw(), dst.as_raw())),
    };
    (code, a, b)
}

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;

    use super::*;
    use dcdo_sim::{ActorId, Fnv1a, NodeId, SimTime, TraceEntry};
    use proptest::prelude::*;

    // The parent's streamed FNV-1a over the rendered text, kept as the
    // legacy oracle: `hash_line` feeds exactly the bytes of one `Display`
    // line, so folding it over a trace gives `fnv1a(trace.render())`.

    /// Feeds `h` the bytes of `format!("{entry}\n")`.
    fn hash_line(h: &mut Fnv1a, entry: &TraceEntry) {
        hash_time(h, entry.at);
        let pair = |h: &mut Fnv1a, verb: &[u8], src: u32, dst: u32| {
            h.write_bytes(verb);
            hash_decimal(h, src as u64);
            h.write_bytes(b" -> actor:");
            hash_decimal(h, dst as u64);
        };
        let one = |h: &mut Fnv1a, verb: &[u8], id: u32| {
            h.write_bytes(verb);
            hash_decimal(h, id as u64);
        };
        match &entry.event {
            TraceEvent::Spawned { actor, node } => {
                one(h, b" spawn actor:", actor.as_raw());
                one(h, b" on node:", node.as_raw());
            }
            TraceEvent::Killed { actor } => one(h, b" kill actor:", actor.as_raw()),
            TraceEvent::Delivered { src, dst } => {
                pair(h, b" deliver actor:", src.as_raw(), dst.as_raw())
            }
            TraceEvent::DeadLetter { src, dst } => {
                pair(h, b" dead-letter actor:", src.as_raw(), dst.as_raw())
            }
            TraceEvent::TimerFired { actor, token } => {
                one(h, b" timer actor:", actor.as_raw());
                h.write_bytes(b" token=");
                hash_decimal(h, *token);
            }
            TraceEvent::NodeDown { node } => one(h, b" node-down node:", node.as_raw()),
            TraceEvent::NodeUp { node } => one(h, b" node-up node:", node.as_raw()),
            TraceEvent::Unreachable { src, dst } => {
                pair(h, b" unreachable actor:", src.as_raw(), dst.as_raw())
            }
        }
        h.write_bytes(b"\n");
    }

    /// Feeds `h` the decimal digits of `v`.
    fn hash_decimal(h: &mut Fnv1a, mut v: u64) {
        // u64::MAX has 20 digits.
        let mut digits = [0u8; 20];
        let mut start = digits.len();
        loop {
            start -= 1;
            digits[start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        h.write_bytes(&digits[start..]);
    }

    /// Feeds `h` the bytes of `at`'s `Display`: `t+<secs>.<6 digits>s`, i.e.
    /// `{:.6}` of `ns as f64 / 1e9`.
    ///
    /// Integer fast path: round `ns` to the nearest microsecond and print that.
    /// It equals the float formatting whenever `ns < 2^52` and
    /// `ns % 1000 != 500`: `ns` is then exact as an `f64`, the division's error
    /// is below 4.7e-10 s (half an ulp at 2^22 s), and the nearest six-decimal
    /// rounding boundary — a multiple of 1 µs plus 500 ns — is at least 1e-9 s
    /// away from the true value, so float and integer land on the same side of
    /// it. Ties and huge times go through `Display` itself.
    fn hash_time(h: &mut Fnv1a, at: SimTime) {
        let ns = at.as_nanos();
        let below_micro = ns % 1000;
        if below_micro == 500 || ns >= 1 << 52 {
            write!(h, "{at}").expect("hashing never fails");
            return;
        }
        let micros = ns / 1000 + u64::from(below_micro > 500);
        h.write_bytes(b"t+");
        hash_decimal(h, micros / 1_000_000);
        let mut fraction = *b".000000s";
        let mut rest = micros % 1_000_000;
        for digit in fraction[1..7].iter_mut().rev() {
            *digit = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        h.write_bytes(&fraction);
    }

    /// Timestamps around every branch of `hash_time`: exact microseconds,
    /// the `…500` ties and their neighbours, carries into the seconds, and
    /// the `>= 2^52` range where `ns` is no longer exact as an `f64`.
    fn nanos() -> impl Strategy<Value = u64> {
        let micro = 0u64..(1 << 42);
        prop_oneof![
            Just(0u64),
            any::<u64>(),
            0u64..(1 << 52),
            0u64..2_000_000_000,
            (
                micro,
                prop_oneof![
                    Just(0u64),
                    Just(1),
                    Just(499),
                    Just(500),
                    Just(501),
                    Just(999)
                ]
            )
                .prop_map(|(us, below)| us * 1000 + below),
            // Rounds up across a second boundary: x.9999995+ s.
            (0u64..4_000_000, 499u64..=501)
                .prop_map(|(s, below)| s * 1_000_000_000 + 999_999_000 + below),
            (0u64..4096).prop_map(|d| (1 << 52) - 2048 + d),
            (1u64 << 52)..=u64::MAX,
            Just(u64::MAX),
        ]
    }

    fn actor() -> impl Strategy<Value = ActorId> {
        prop_oneof![0u32..64, any::<u32>(), Just(u32::MAX)].prop_map(ActorId::from_raw)
    }

    fn node() -> impl Strategy<Value = NodeId> {
        prop_oneof![0u32..16, any::<u32>(), Just(u32::MAX)].prop_map(NodeId::from_raw)
    }

    fn token() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..1000, any::<u64>(), Just(u64::MAX)]
    }

    /// All eight `TraceEvent` variants.
    fn event() -> impl Strategy<Value = TraceEvent> {
        prop_oneof![
            (actor(), node()).prop_map(|(actor, node)| TraceEvent::Spawned { actor, node }),
            actor().prop_map(|actor| TraceEvent::Killed { actor }),
            (actor(), actor()).prop_map(|(src, dst)| TraceEvent::Delivered { src, dst }),
            (actor(), actor()).prop_map(|(src, dst)| TraceEvent::DeadLetter { src, dst }),
            (actor(), token()).prop_map(|(actor, token)| TraceEvent::TimerFired { actor, token }),
            node().prop_map(|node| TraceEvent::NodeDown { node }),
            node().prop_map(|node| TraceEvent::NodeUp { node }),
            (actor(), actor()).prop_map(|(src, dst)| TraceEvent::Unreachable { src, dst }),
        ]
    }

    /// A ring of capacity 32 fed `entries` (so longer inputs evict).
    fn trace_of(entries: &[(u64, TraceEvent)]) -> Trace {
        let mut trace = Trace::new();
        trace.enable(32);
        for (ns, event) in entries {
            trace.record(SimTime::from_nanos(*ns), event.clone());
        }
        trace
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Two traces whose rendered texts differ hash apart — whether they
        /// differ in one entry, in the order of two neighbours, in length,
        /// or everywhere — and the legacy oracle still streams the text.
        #[test]
        fn trace_hash_distinguishes_traces_whose_text_differs(
            entries in prop::collection::vec((nanos(), event()), 0..40),
            other in prop::collection::vec((nanos(), event()), 0..40),
            replacement in (nanos(), event()),
            edit in 0u8..4,
            at in any::<usize>(),
        ) {
            let mut edited = entries.clone();
            match edit {
                0 if !edited.is_empty() => edited[at % entries.len()] = replacement,
                1 if edited.len() > 1 => edited.swap(at % (entries.len() - 1), at % (entries.len() - 1) + 1),
                2 => drop(edited.pop()),
                _ => edited = other,
            }
            let (a, b) = (trace_of(&entries), trace_of(&edited));
            if a.render() != b.render() {
                prop_assert_ne!(trace_hash(&a), trace_hash(&b), "\n{}\nvs\n{}", a.render(), b.render());
            }
            prop_assert_eq!(trace_hash(&a), trace_hash(&trace_of(&entries)));
            let mut legacy = Fnv1a::new();
            a.entries().for_each(|entry| hash_line(&mut legacy, entry));
            prop_assert_eq!(legacy.finish(), fnv1a(a.render().as_bytes()));
        }
    }

    #[test]
    fn every_variant_streams_its_display_line() {
        let a = ActorId::from_raw;
        let n = NodeId::from_raw;
        let events = [
            TraceEvent::Spawned {
                actor: a(3),
                node: n(1),
            },
            TraceEvent::Killed { actor: a(u32::MAX) },
            TraceEvent::Delivered {
                src: a(0),
                dst: a(10),
            },
            TraceEvent::DeadLetter {
                src: a(7),
                dst: a(9),
            },
            TraceEvent::TimerFired {
                actor: a(1),
                token: u64::MAX,
            },
            TraceEvent::NodeDown { node: n(0) },
            TraceEvent::NodeUp { node: n(u32::MAX) },
            TraceEvent::Unreachable {
                src: a(1),
                dst: a(2),
            },
        ];
        // One line per (variant, timestamp branch), each checked alone so a
        // mismatch names its line.
        for ns in [
            0,
            1_499,
            1_500,
            1_501,
            999_999_500,
            999_999_501,
            1 << 52,
            u64::MAX,
        ] {
            for event in &events {
                let entry = TraceEntry {
                    at: SimTime::from_nanos(ns),
                    event: event.clone(),
                };
                let mut h = Fnv1a::new();
                hash_line(&mut h, &entry);
                assert_eq!(
                    h.finish(),
                    fnv1a(format!("{entry}\n").as_bytes()),
                    "{entry}"
                );
            }
        }
    }
}
