//! Fx-style fast hashing.
//!
//! The dimension hash tables at the heart of Clydesdale's star join are keyed
//! by integer primary keys and probed once per fact row — hundreds of
//! millions of probes per query. SipHash (std's default) would dominate the
//! probe cost, so we use the multiply-and-rotate "Fx" construction that rustc
//! uses. Implemented locally (~40 lines) to avoid a dependency; HashDoS is
//! not a concern for trusted benchmark data.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Firefox/rustc "Fx" hasher: wrapping multiply by a constant and a
/// 5-bit rotate per word.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
            // Mix in the remainder length so "a" and "a\0" differ.
            self.add_to_hash(rem.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_to_hash(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_to_hash(v);
    }

    #[inline]
    fn write_i32(&mut self, v: i32) {
        self.add_to_hash(v as u32 as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add_to_hash(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_to_hash(v as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the fast hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the fast hasher.
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

/// splitmix64 finalizer: the workspace's one seeded bit mixer (fault
/// plans, stage fingerprints, corruption victims, workload arrival jitter).
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn fx(v: impl Hash) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic() {
        assert_eq!(fx(42u64), fx(42u64));
        assert_eq!(fx("customer"), fx("customer"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(fx(1u64), fx(2u64));
        assert_ne!(fx("a"), fx("b"));
        assert_ne!(fx("a"), fx("a\0"));
        assert_ne!(fx([1u8, 2, 3].as_slice()), fx([1u8, 2, 3, 0].as_slice()));
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<i32, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        let mut s: FxHashSet<i64> = FxHashSet::default();
        assert!(s.insert(7));
        assert!(!s.insert(7));
    }

    #[test]
    fn spread_over_sequential_keys() {
        // Sequential integer keys (dimension PKs) must not collide in the low
        // bits, or hashbrown bucket selection degenerates.
        let mut low_bits: FxHashSet<u64> = FxHashSet::default();
        for k in 0..1024u64 {
            low_bits.insert(fx(k) >> 54); // top 10 bits, which hashbrown uses
        }
        // Expect substantial diversity (not a strict uniformity test).
        assert!(low_bits.len() > 200, "got {}", low_bits.len());
    }
}
