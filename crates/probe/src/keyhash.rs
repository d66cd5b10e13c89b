//! The workspace's keyed hasher for vertex-keyed maps and sets.

use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// A `HashMap` keyed by vertex ids (or small tuples of them) under
/// [`MulShift`].
pub type VertexMap<K, V> = HashMap<K, V, MulShift>;

/// A `HashSet` of vertex ids (or small tuples of them) under [`MulShift`].
pub type VertexSet<K> = HashSet<K, MulShift>;

/// Multiply-shift hashing of vertex keys: the Fibonacci-style multiply of
/// [`crate::shard_for_key`], one multiplication per key word instead of
/// SipHash's rounds, but with a random odd multiplier per map. Clients
/// choose the vertices they query, and with a public multiplier they could
/// pick ids that all land in one bucket chain; a random multiplier makes
/// that a guess (multiply-shift is universal). The product's high half,
/// its well-mixed bits, is rotated down to where the map takes bucket
/// indices.
///
/// This is the hasher of every per-query map and set in the k2-spanner
/// walk. Iteration order is as arbitrary as
/// under the standard `RandomState`, so callers must not depend on it.
///
/// # Example
///
/// ```
/// use lca_probe::VertexSet;
///
/// let mut seen: VertexSet<(u32, u32)> = VertexSet::default();
/// assert!(seen.insert((3, 7)));
/// assert!(!seen.insert((3, 7)));
/// assert!(seen.insert((7, 3)));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MulShift(u64);

impl Default for MulShift {
    fn default() -> Self {
        MulShift(RandomState::new().hash_one(0u64) | 1)
    }
}

impl BuildHasher for MulShift {
    type Hasher = MulShiftHasher;

    fn build_hasher(&self) -> MulShiftHasher {
        MulShiftHasher { mul: self.0, h: 0 }
    }
}

/// The [`MulShift`] state for one key. Every written word is folded into
/// the running state, so a composite key such as `(u32, u32)` hashes all
/// of its words.
#[derive(Debug)]
pub struct MulShiftHasher {
    mul: u64,
    h: u64,
}

impl Hasher for MulShiftHasher {
    fn finish(&self) -> u64 {
        self.h
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.h = (self.h ^ v).wrapping_mul(self.mul).rotate_left(32);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_sharing_low_bits_spread_across_buckets() {
        // Multiples of 2^16 share every low bit, so a hash whose low bits
        // follow the key's (an unkeyed multiply) sends them all to bucket
        // 0; the rotated product's high half spreads them.
        let h = MulShift(0x9E37_79B9_7F4A_7C15);
        let buckets: HashSet<u64> = (0..1024u32).map(|k| h.hash_one(k << 16) & 1023).collect();
        assert!(buckets.len() > 512, "{} buckets", buckets.len());
    }

    #[test]
    fn every_word_of_a_composite_key_is_hashed() {
        // Keys that differ only in their first word must not collide: a
        // hasher that overwrote its state per word would hash only the 7.
        let h = MulShift(0x9E37_79B9_7F4A_7C15);
        let distinct: HashSet<u64> = (0..1000u32).map(|a| h.hash_one((a, 7u32))).collect();
        assert_eq!(distinct.len(), 1000);
        let distinct: HashSet<u64> = (0..1000usize).map(|a| h.hash_one((a, 7usize))).collect();
        assert_eq!(distinct.len(), 1000);
    }

    #[test]
    fn a_single_word_key_hashes_as_one_multiply() {
        let m = 0x9E37_79B9_7F4A_7C15u64;
        let h = MulShift(m);
        assert_eq!(h.hash_one(5u32), 5u64.wrapping_mul(m).rotate_left(32));
    }
}
