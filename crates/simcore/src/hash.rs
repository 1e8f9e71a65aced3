//! A fast hasher for the workspace's in-process maps.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier (from `rustc-hash` 2): odd, with well-spread bits.
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A fast [`Hasher`] for the workspace's in-process maps.
///
/// The maps a sweep consults per cell or per event (result caches,
/// memos, detour tables) are keyed by grid points and fabric indices
/// drawn from the user's own scenario and cache files, not from a party
/// that could craft colliding keys, so they need no protection against
/// such keys, only a cheap hash. Each word is folded into the state
/// with one add and one multiply, as rustc's FxHash does. A multiply
/// carries a difference only upwards, so `finish` folds the high half
/// into the low half, multiplies and folds again: keys that differ only
/// in their top bits, as `f64` bit patterns do, still differ in the low
/// bits that pick a bucket. It is deterministic: a map's iteration order
/// repeats from run to run, although no output may depend on it.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // The length tells a zero-padded tail from zero bytes.
        self.add(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
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
        let h = (self.hash ^ (self.hash >> 32)).wrapping_mul(K);
        h ^ (h >> 32)
    }
}

/// Builds [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A [`HashMap`] hashed by [`FxHasher`]. Build one with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A [`HashSet`] hashed by [`FxHasher`]. Build one with `default()`.
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_spread() {
        assert_eq!(hash(&(3u32, "ab")), hash(&(3u32, "ab")));
        assert_ne!(hash(&"ab"), hash(&"ab\0"));
        // Keys that differ only in high bits (f64 bit patterns do) must
        // still land in different low bits, which pick the bucket.
        let low = |v: f64| hash(&v.to_bits()) & 0xfff;
        let buckets: FxHashSet<u64> = [64.0, 128.0, 450.0, 12.5, 900.0]
            .map(low)
            .into_iter()
            .collect();
        assert_eq!(buckets.len(), 5);
        let set: FxHashSet<u64> = (0..10_000u64).map(|i| hash(&(i << 50)) & 0xffff).collect();
        assert!(set.len() > 8_000, "{} distinct low words", set.len());
    }
}
