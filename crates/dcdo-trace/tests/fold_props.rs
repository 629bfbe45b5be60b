//! Properties of the witness fold, the span-log digest built on it, and the
//! id-table hasher. CI runs this file in debug and in release: every value
//! here must be the same in both.

use std::hash::{BuildHasher, BuildHasherDefault};

use dcdo_trace::{
    FlowKind, Fold, GroupArena, IdHasher, SendVerdict, SpanEvent, SpanId, SpanKind, TraceLog,
};
use proptest::prelude::*;

fn fold(words: &[u64]) -> u64 {
    let mut h = Fold::new(words.len() as u64);
    words.iter().for_each(|&w| h.word(w));
    h.finish()
}

#[test]
fn fold_is_pinned_across_build_profiles() {
    // CI runs this in debug and in release: wrapping arithmetic only,
    // so both must land on these values.
    assert_eq!(fold(&[]), 0xce48_59b9_df44_2d22);
    assert_eq!(fold(&[0]), 0x704b_939d_5c78_2089);
    assert_eq!(
        fold(&[1, 2, 3, u64::MAX, 1 << 48, 0, 0]),
        0x24cf_a3c9_224f_8995
    );
}

#[test]
fn fold_shows_truncation_of_a_zero_tail() {
    assert_ne!(fold(&[7, 0, 0]), fold(&[7, 0]));
    assert_ne!(fold(&[0]), fold(&[]));
}

/// Longest linear-probe displacement when `keys` go, in order, into an
/// open-addressed table of `slots` (a power of two) indexed by the
/// hash's low bits — how hashbrown picks a key's first group.
fn longest_probe(keys: &[u64], slots: usize, hash: impl Fn(u64) -> u64) -> usize {
    let mut taken = vec![false; slots];
    let mut longest = 0;
    for &key in keys {
        let mut at = hash(key) as usize & (slots - 1);
        let mut probes = 0;
        while taken[at] {
            at = (at + 1) & (slots - 1);
            probes += 1;
        }
        taken[at] = true;
        longest = longest.max(probes);
    }
    longest
}

#[test]
fn id_hasher_spreads_lane_structured_span_ids() {
    // 16 lanes × 4 096 engine span ids at load factor 1/2. Measured:
    // IdHasher 18, the bare product 31 (all 16 lanes share 4 096 home
    // slots), the product with only its own top 32 bits folded in 228.
    const BOUND: usize = 24;
    let keys: Vec<u64> = (0..16u64)
        .flat_map(|lane| (1..=4096u64).map(move |ctr| ((lane + 1) << 48) | ctr))
        .collect();
    let slots = 2 * keys.len();
    let build = BuildHasherDefault::<IdHasher>::default();
    let folded = longest_probe(&keys, slots, |k| build.hash_one(k));
    assert!(folded <= BOUND, "IdHasher: longest probe {folded}");
    let bare = longest_probe(&keys, slots, |k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    assert!(bare > BOUND, "bare multiply: longest probe {bare}");
}

/// One span as the words the digest covers: id, parent (0 = none),
/// time, node, then the kind's own fields (see [`span`]).
type Spec = (u64, u64, u64, u32, u8, [u64; 4]);

/// How many of the kind's fields enter the digest.
fn covered_fields(what: u8) -> usize {
    [4, 2, 2, 3, 1][what as usize % 5]
}

/// Builds the span of `spec`, storing a partition's groups in `groups`.
fn span(&(id, parent, at_ns, node, what, f): &Spec, groups: &mut GroupArena) -> SpanEvent {
    let kind = match what % 5 {
        0 => SpanKind::MsgSent {
            src: f[0] as u32,
            dst: f[1] as u32,
            src_node: f[2] as u32,
            dst_node: 1,
            verdict: SendVerdict::Sent,
            bytes: f[3],
        },
        1 => SpanKind::TimerFired {
            actor: f[0] as u32,
            token: f[1],
        },
        2 => SpanKind::FlowStarted {
            flow: f[0],
            object: f[1],
            kind: FlowKind::Update,
        },
        3 => SpanKind::PartitionChanged {
            groups: groups.push(&f[..3].iter().map(|&g| g as u32).collect::<Vec<_>>()),
        },
        // The generation (`f[1]`) is the one recorded value the
        // digest leaves out.
        _ => SpanKind::GenerationStamp {
            object: f[0],
            generation: f[1],
        },
    };
    SpanEvent {
        id: SpanId::from_raw(id | 1).expect("nonzero"),
        parent: SpanId::from_raw(parent),
        at_ns,
        node,
        kind,
    }
}

/// `spec`'s span alone in a fresh arena: two specs give equal pairs exactly
/// when they give equal spans, groups included.
fn alone(spec: &Spec) -> (SpanEvent, GroupArena) {
    let mut groups = GroupArena::default();
    (span(spec, &mut groups), groups)
}

fn digest_of(specs: &[Spec]) -> u64 {
    let mut groups = GroupArena::default();
    let events = specs.iter().map(|spec| span(spec, &mut groups)).collect();
    TraceLog::from_events(events, groups).digest()
}

fn specs() -> impl Strategy<Value = Vec<Spec>> {
    let word = || prop_oneof![0u64..8, any::<u64>()];
    prop::collection::vec(
        (
            word(),
            word(),
            word(),
            any::<u32>(),
            0u8..5,
            (word(), word(), word(), word()).prop_map(|(a, b, c, d)| [a, b, c, d]),
        ),
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Each step is a bijection of the word: streams that differ in
    /// exactly one word never collide, wherever the word sits.
    #[test]
    fn fold_separates_streams_differing_in_one_word(
        words in prop::collection::vec(any::<u64>(), 1..24),
        at in any::<usize>(),
        flip in 1u64..=u64::MAX,
    ) {
        let mut edited = words.clone();
        edited[at % words.len()] ^= flip;
        prop_assert_ne!(fold(&words), fold(&edited));
    }

    /// Flipping any one covered word of any span changes the digest;
    /// flipping a `GenerationStamp`'s value does not.
    #[test]
    fn any_one_field_of_any_span_moves_the_digest(
        specs in specs(),
        at in any::<usize>(),
        word in any::<usize>(),
        // Bits 1–15: survives the `as u32` fields and `id | 1`.
        flip in (1u64..1 << 15).prop_map(|bits| bits << 1),
    ) {
        let before = digest_of(&specs);
        let mut edited = specs.clone();
        let spec = &mut edited[at % specs.len()];
        match word % (4 + covered_fields(spec.4)) {
            0 => spec.0 ^= flip,
            1 => spec.1 ^= flip,
            2 => spec.2 ^= flip,
            3 => spec.3 ^= flip as u32,
            field => spec.5[field - 4] ^= flip,
        }
        prop_assert_ne!(digest_of(&edited), before);

        let mut restamped = specs.clone();
        for spec in restamped.iter_mut().filter(|spec| spec.4 % 5 == 4) {
            spec.5[1] ^= flip;
        }
        prop_assert_eq!(digest_of(&restamped), before);
    }

    /// Swapping two adjacent (different) spans, or dropping the last
    /// span, changes the digest.
    #[test]
    fn reordering_or_truncating_moves_the_digest(
        specs in specs(),
        at in any::<usize>(),
    ) {
        let before = digest_of(&specs);
        if specs.len() > 1 {
            let at = at % (specs.len() - 1);
            let mut swapped = specs.clone();
            swapped.swap(at, at + 1);
            if alone(&specs[at]) != alone(&specs[at + 1]) {
                prop_assert_ne!(digest_of(&swapped), before);
            }
        }
        prop_assert_ne!(digest_of(&specs[..specs.len() - 1]), before);
    }
}
