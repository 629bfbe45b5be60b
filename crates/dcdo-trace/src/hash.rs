//! The workspace's three hashers, one per job: [`Fold`] condenses integer
//! streams into witnesses (span log, flight ring, group configs, the engine
//! trace ring), [`IdHasher`] indexes tables keyed by ids this program minted
//! itself, and [`Fnv1a`] — byte-serial and standard — is for strings only
//! (function names, rendered text).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// The odd multiplier of [`Fold`] and [`IdHasher`]: 2^64 / φ.
const K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The word-wise fold behind every integer witness: one multiply and one
/// rotate per `u64`.
///
/// `h₀ = K`; each word `w` steps `h ← rotl((h ⊕ w) · K, 32)` (wrapping
/// multiply); the element count goes in first, so a truncated stream shows
/// even when its tail was all zeros. Each step is a bijection of `h` for a
/// fixed `w` and of `w` for a fixed `h`, so two streams that differ in
/// exactly one word never collide. Integer arithmetic only: identical
/// across debug and release builds, machines, and processes.
#[derive(Debug, Clone, Copy)]
pub struct Fold(u64);

impl Fold {
    /// A fold over a stream of `count` elements (spans, frames, entries —
    /// whatever the caller iterates).
    pub fn new(count: u64) -> Self {
        let mut h = Fold(K);
        h.word(count);
        h
    }

    /// Feeds one word.
    #[inline(always)]
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(K).rotate_left(32);
    }

    /// The witness of everything fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The hasher of every table keyed by an integer this program minted itself
/// (span, call, flow, timer, object and node ids): one widening multiply,
/// then the high half of the 128-bit product folded into the low half.
/// Engine span ids keep their lane in bits 48 and up and hashbrown indexes
/// by the low bits, so the bare 64-bit product — whose low bits see only the
/// key's low bits — would pile the lanes onto each other; the product's high
/// half carries every key bit and the fold brings it down. Not
/// collision-resistant: keys from outside the program keep the default
/// hasher.
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, v: u64) {
        let m = (self.0 ^ v) as u128 * K as u128;
        self.0 = m as u64 ^ (m >> 64) as u64;
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Any other key shape, eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed by [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// A `HashSet` hashed by [`IdHasher`].
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME^k` for `k` in `0..=8`: what hashing `k` zero bytes multiplies the
/// state by (`h ^ 0 == h`, so only the multiplies remain).
#[cfg(test)]
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    pow
};

/// Streaming 64-bit FNV-1a. Build-independent: identical across debug and
/// release builds, machines, and processes.
#[derive(Debug, Clone)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv1a(OFFSET_BASIS)
    }

    /// Feeds a byte string.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
        self.0 = h;
    }

    /// Feeds the eight little-endian bytes of `v`: what every integer
    /// witness was built from before [`Fold`], kept as the tests' legacy
    /// oracle. The bytes are hashed only while the remaining value is
    /// non-zero; the trailing zero bytes then cost one multiply by the
    /// precomputed `PRIME_POW` entry. Same function as the byte loop
    /// ([`Fnv1a::write_bytes`] of `v.to_le_bytes()`).
    #[cfg(test)]
    pub(crate) fn write_u64(&mut self, mut v: u64) {
        let mut h = self.0;
        let mut zero_bytes = 8;
        while v != 0 {
            h = (h ^ (v & 0xff)).wrapping_mul(PRIME);
            v >>= 8;
            zero_bytes -= 1;
        }
        self.0 = h.wrapping_mul(PRIME_POW[zero_bytes]);
    }

    /// The hash of everything fed so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes formatted text without building it: `write!(hasher, "{x}")` feeds
/// the bytes `x.to_string()` would hold.
impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Build-independent FNV-1a hash of a function name.
///
/// This is how string-valued identities (function names) cross into the
/// integer-only trace: [`SpanKind::VmCost`](crate::SpanKind::VmCost) carries
/// `fn_hash(name)` and the emitting layer publishes a hash → name table out
/// of band. The hash is plain FNV-1a over the UTF-8 bytes, so it is
/// identical across builds, machines, and processes.
pub fn fn_hash(name: &str) -> u64 {
    fnv1a(name.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fn_hash_is_stable_and_distinguishes_names() {
        // The hash must never drift: the VmCost `function` field is
        // compared across builds and runs.
        assert_eq!(fn_hash(""), fnv1a(b""));
        assert_eq!(fn_hash("foobar"), 0x8594_4171_f739_67e8);
        assert_ne!(fn_hash("step"), fn_hash("get"));
    }

    #[test]
    fn fmt_write_hashes_the_formatted_text() {
        use std::fmt::Write;
        let mut h = Fnv1a::new();
        write!(h, "foo{}:{:.3}", 42u8, 0.5).expect("hashing never fails");
        assert_eq!(h.finish(), fnv1a(b"foo42:0.500"));
    }

    /// Asserts the zero-run-skipping `write_u64` equals the byte loop, from
    /// a non-trivial state and followed by more input.
    fn assert_word_matches_byte_loop(prefix: u64, v: u64) {
        let mut fast = Fnv1a::new();
        let mut reference = Fnv1a::new();
        for h in [&mut fast, &mut reference] {
            h.write_bytes(&prefix.to_le_bytes());
        }
        fast.write_u64(v);
        reference.write_bytes(&v.to_le_bytes());
        assert_eq!(fast.finish(), reference.finish(), "word {v:#x}");
        fast.write_u64(v);
        reference.write_bytes(&v.to_le_bytes());
        assert_eq!(fast.finish(), reference.finish(), "word {v:#x} twice");
    }

    #[test]
    fn write_u64_matches_byte_loop_on_edge_words() {
        for v in [0, 1, 0xff, 0x100, 1 << 56, (1 << 56) - 1, u64::MAX] {
            assert_word_matches_byte_loop(7, v);
        }
        for shift in 0..64 {
            assert_word_matches_byte_loop(shift, 1 << shift);
            assert_word_matches_byte_loop(shift, u64::MAX >> shift);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn write_u64_matches_byte_loop(prefix in any::<u64>(), v in any::<u64>(), keep in 0u32..64) {
            assert_word_matches_byte_loop(prefix, v);
            // Small words are the common case: mask down to `keep` bits.
            assert_word_matches_byte_loop(prefix, v & ((1u64 << keep) - 1));
        }
    }
}
