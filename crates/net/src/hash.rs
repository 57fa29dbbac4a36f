//! A fast, non-cryptographic hasher for interner-style tables.
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of nanoseconds
//! per lookup — noticeable when a map sits on the per-update hot path (the
//! AS-path table's `(rest, hop)` map is probed once per exported hop).
//! Simulator tables are keyed by internal ids and fixed-size tuples, never by
//! attacker-controlled input, so a multiply-xor hash in the FxHash family
//! is safe and several times faster.
//!
//! Only use these maps for point lookups. Iteration order is unspecified
//! (as with any `HashMap`) and must never influence simulation results.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash family (Firefox / rustc-hash): a single
/// odd constant with good bit dispersion under wrapping multiply.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// A word-at-a-time multiply-xor hasher.
#[derive(Default)]
pub struct FastHasher {
    hash: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// `HashMap` with [`FastHasher`]: for id/tuple-keyed point-lookup tables.
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` with [`FastHasher`].
pub type FastHashSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    fn h(f: impl FnOnce(&mut FastHasher)) -> u64 {
        let mut hasher = FastHasher::default();
        f(&mut hasher);
        hasher.finish()
    }

    #[test]
    fn deterministic_and_input_sensitive() {
        assert_eq!(h(|x| x.write_u64(7)), h(|x| x.write_u64(7)));
        assert_ne!(h(|x| x.write_u64(7)), h(|x| x.write_u64(8)));
        assert_ne!(h(|x| x.write(b"ab")), h(|x| x.write(b"ba")));
        // Order within a compound key matters.
        assert_ne!(
            h(|x| {
                x.write_u32(1);
                x.write_u32(2);
            }),
            h(|x| {
                x.write_u32(2);
                x.write_u32(1);
            })
        );
    }

    #[test]
    fn map_round_trips() {
        let mut m: FastHashMap<(u32, u32, u16), u32> = FastHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, i * 7, (i % 9) as u16), i);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i * 7, (i % 9) as u16)), Some(&i));
        }
        assert_eq!(m.get(&(1, 1, 1)), None);
    }
}
