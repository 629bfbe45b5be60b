//! `trace_hash` against the rendered trace text it used to be computed from.

use dcdo_chaos::trace_hash;
use dcdo_sim::{ActorId, NodeId, SimTime, Trace, TraceEvent};
use proptest::prelude::*;

/// Timestamps around every rounding the rendered text applies: exact
/// microseconds, the `…500` ties and their neighbours, carries into the
/// seconds, and the `>= 2^52` range where `ns` is no longer exact as an
/// `f64`.
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
    /// or everywhere.
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
    }
}
