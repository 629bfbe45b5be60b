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
    match event {
        TraceEvent::Spawned { actor, node } => (1, actor.as_raw().into(), node.as_raw().into()),
        TraceEvent::Killed { actor } => (2, actor.as_raw().into(), 0),
        TraceEvent::Delivered { src, dst } => (3, src.as_raw().into(), dst.as_raw().into()),
        TraceEvent::DeadLetter { src, dst } => (4, src.as_raw().into(), dst.as_raw().into()),
        TraceEvent::TimerFired { actor, token } => (5, actor.as_raw().into(), *token),
        TraceEvent::NodeDown { node } => (6, node.as_raw().into(), 0),
        TraceEvent::NodeUp { node } => (7, node.as_raw().into(), 0),
        TraceEvent::Unreachable { src, dst } => (8, src.as_raw().into(), dst.as_raw().into()),
    }
}

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;

    use super::*;
    use dcdo_sim::{ActorId, Fnv1a, NodeId, SimTime, TraceEntry};

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
