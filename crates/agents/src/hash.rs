//! A small word hasher for program-internal tables.
//!
//! The agent's Q-table, the exact backend's design memo and its
//! execution-equivalence memo are keyed by a few machine words (state
//! indices, selection bits, operator ids) that the program itself
//! generates. For such keys std's SipHash costs more than the table
//! lookup it guards. [`WordHasher`] folds each word in with one rotate,
//! xor and multiply (the FxHash scheme of the Rust compiler), then rotates
//! the well-mixed high bits of the product down to where the table takes
//! its bucket index.
//!
//! It gives no protection against keys crafted to collide: maps whose keys
//! can come from outside the program — the shared design cache loads its
//! keys from files — keep std's randomly keyed hasher.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of the FxHash scheme.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// An FxHash-style hasher over 64-bit words.
///
/// ```
/// use ax_agents::hash::WordHashMap;
///
/// let mut m: WordHashMap<(u64, usize), f64> = WordHashMap::default();
/// m.insert((3, 1), 0.5);
/// assert_eq!(m[&(3, 1)], 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct WordHasher {
    hash: u64,
}

impl WordHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // A product's low bits depend only on the operands' low bits; keys
        // differing only in high bits must still spread over the buckets.
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`WordHasher`]; build it with `default()`.
pub type WordHashMap<K, V> = HashMap<K, V, BuildHasherDefault<WordHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<WordHasher>::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_near_keys_differ() {
        assert_eq!(hash(&(1usize, 2usize, 3u64)), hash(&(1usize, 2usize, 3u64)));
        let a = hash(&(0usize, 0usize, 1u64));
        let b = hash(&(0usize, 0usize, 2u64));
        let c = hash(&(0usize, 1usize, 1u64));
        assert!(a != b && a != c && b != c);
    }

    #[test]
    fn byte_writes_cover_every_byte() {
        let mut h = WordHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        let mut g = WordHasher::default();
        g.write(&[1, 2, 3, 4, 5, 6, 7, 8, 10]);
        assert_ne!(h.finish(), g.finish());
    }

    #[test]
    fn map_round_trips_many_keys() {
        let mut m: WordHashMap<u64, u64> = WordHashMap::default();
        for k in 0..10_000u64 {
            m.insert(k << 20, k);
        }
        assert_eq!(m.len(), 10_000);
        assert!((0..10_000u64).all(|k| m[&(k << 20)] == k));
    }
}
