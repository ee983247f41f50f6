//! `hash64`: the repository's one 64-bit hash, defined here and nowhere
//! else (DESIGN.md §16 holds the same definition with its test vectors).
//!
//! The trace digest and the results store's run id are compared across
//! builds, hosts and toolchains, so they cannot rest on `std`'s default
//! hasher (documented as unspecified) or on `derive(Debug)` output. This
//! one is written down:
//!
//! ```text
//! fold(h, w) = x ^ (x >> 32)   where x = (h ^ w) * K   (mod 2^64)
//! hash64(m)  = mix64(fold(… fold(fold(SEED, w0), w1) …, len))
//! ```
//!
//! `m` is a byte string, `w0, w1, …` its bytes packed little-endian
//! eight to a word (the last word zero-padded), `len` its length in
//! bytes, and `mix64` SplitMix64's output function
//! ([`crate::rng::mix64`]). A stream of `u64` words is the byte string
//! of their little-endian encodings, so [`Hash64::write_u64`] and
//! [`hash64`] agree.
//!
//! For a fixed word, `fold` is a bijection of the state (xor, multiply
//! by an odd constant and xor-shift each are), and for a fixed state it
//! is a bijection of the word; `mix64` is a bijection too. So two
//! streams of equal length that differ in exactly one word always hash
//! differently — a single flipped bit anywhere in a trace cannot hide.
//! It is not a cryptographic hash and is never keyed by outside input.

use crate::rng::mix64;

/// Initial state: 2^64 / φ, SplitMix64's increment.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
/// Fold multiplier (odd): SplitMix64's first output multiplier.
const K: u64 = 0xbf58_476d_1ce4_e5b9;

/// Streaming form of [`hash64`] over whole words.
#[derive(Clone, Debug)]
pub struct Hash64 {
    state: u64,
    len: u64,
}

impl Default for Hash64 {
    fn default() -> Self {
        Hash64::new()
    }
}

impl Hash64 {
    pub fn new() -> Self {
        Hash64 { state: SEED, len: 0 }
    }

    #[inline]
    fn fold(&mut self, w: u64) {
        let x = (self.state ^ w).wrapping_mul(K);
        self.state = x ^ (x >> 32);
    }

    /// Absorb one word (eight little-endian bytes of the message).
    #[inline]
    pub fn write_u64(&mut self, w: u64) {
        self.fold(w);
        self.len += 8;
    }

    /// The hash of everything written so far.
    #[inline]
    pub fn finish(mut self) -> u64 {
        self.fold(self.len);
        mix64(self.state)
    }
}

/// `hash64` of a byte string (see the module docs for the definition).
pub fn hash64(bytes: &[u8]) -> u64 {
    let mut h = Hash64::new();
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h.write_u64(u64::from_le_bytes(c.try_into().expect("chunks_exact(8)")));
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        h.fold(u64::from_le_bytes(last));
        h.len += tail.len() as u64;
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The vectors of DESIGN.md §16. A toolchain, host or profile that
    /// moves one of these has changed every stored digest and run id.
    #[test]
    fn test_vectors_are_pinned() {
        assert_eq!(hash64(b""), 0x12c3_6dc3_32d0_9808);
        assert_eq!(hash64(&1u64.to_le_bytes()), 0x91ae_03d9_8624_6db9);
        assert_eq!(hash64(b"abc"), 0x2533_5995_70a5_e6a5);
        let key = "pods=2x2x2x2x1;stack=mrmtp;failure=tc1;traffic=near;interval=-;seed=7;\
                   timing=5000000000/2000000000/6000000000/1000000000;timers=-;bgp_ka=-;\
                   bgp_hold=-;bfd_tx=-;fast_path=1;local_repair=0";
        assert_eq!(hash64(key.as_bytes()), 0xdb90_3943_46b9_fc15);
    }

    #[test]
    fn words_are_their_little_endian_bytes() {
        let words = [0u64, 1, u64::MAX, 0x0123_4567_89ab_cdef];
        let mut h = Hash64::new();
        let mut bytes = Vec::new();
        for w in words {
            h.write_u64(w);
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(h.finish(), hash64(&bytes));
    }

    #[test]
    fn length_and_padding_are_told_apart() {
        // Zero padding alone would make these collide; the appended
        // length separates them.
        let all: Vec<u64> = (0..=9).map(|n| hash64(&[0u8; 9][..n])).collect();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a, b, "{all:x?}");
            }
        }
        assert_ne!(hash64(b"abc"), hash64(b"abc\0"));
    }
}
