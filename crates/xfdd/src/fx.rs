//! A small Fx-style hasher for the pool's id-keyed tables.
//!
//! The interners and memo tables are keyed on two or three `u32` ids that
//! the pool itself hands out, so the default SipHash buys no protection —
//! nothing an outside party chooses reaches these keys — and costs several
//! times the multiply-rotate mix below (the scheme rustc uses for its own
//! interned ids). *Content* (`Leaf`s, `Test`s, which derive from the
//! operator's policy) is hashed once per payload with the keyed default
//! hasher ([`crate::shared`]); the content interners are then keyed on that
//! stored hash, which is again nothing an outside party chooses.
//!
//! The hasher is public because a public table type names it
//! ([`crate::import::ImportMap`]).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` keyed on pool-issued ids.
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` of pool-issued ids.
pub(crate) type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The multiply-rotate word hasher (see the module docs): deterministic,
/// unseeded, a word per step. Not for tables keyed by outside input.
#[derive(Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
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
        // A multiply mixes upwards only: the top bits are the good ones, and
        // the table takes its bucket index from the bottom.
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of(key: impl Hash) -> u64 {
        let mut h = FxHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    #[test]
    fn id_tuples_spread_over_buckets_and_tags() {
        // Dense small ids — what the pool hands out — must differ both in
        // the low bits (hashbrown's bucket index) and the top seven (its
        // control tag).
        let mut low = HashSet::new();
        let mut high = HashSet::new();
        for a in 0u32..64 {
            for b in 0u32..64 {
                let h = hash_of((a, b, true));
                low.insert(h & 0xfff);
                high.insert(h >> 57);
            }
        }
        assert!(low.len() > 2400, "only {} of 4096 buckets hit", low.len());
        assert_eq!(high.len(), 128);
    }

    #[test]
    fn byte_slices_hash_by_content() {
        assert_eq!(hash_of("abcdefghij"), hash_of("abcdefghij"));
        assert_ne!(hash_of("abcdefghij"), hash_of("abcdefghik"));
    }
}
