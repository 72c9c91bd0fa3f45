//! A fast, non-cryptographic hasher for decision-diagram tables.
//!
//! Unique tables and operation caches are hit on every node creation, so the
//! default SipHash is measurable overhead. This is an FxHash-style
//! multiply-mix hasher: adequate distribution for small fixed-size keys
//! (node ids, weight indices) and several times faster. Not suitable for
//! adversarial inputs — these tables are internal only.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-mix hasher over 64-bit words.
#[derive(Default)]
pub struct FastHasher {
    state: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.state = (self.state.rotate_left(5) ^ v).wrapping_mul(SEED);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with [`FastHasher`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, FastBuild>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FastBuild::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&(1u32, 2u32)), hash_of(&(1u32, 2u32)));
    }

    #[test]
    fn spreads_nearby_keys() {
        // Not a statistical test, just a sanity check that consecutive keys
        // do not collide outright.
        let h: std::collections::HashSet<u64> = (0u64..1000).map(|i| hash_of(&i)).collect();
        assert_eq!(h.len(), 1000);
    }
}
