//! A fast hasher for the matcher's id-keyed maps.
//!
//! Every key these maps hash — token, node and WME ids, and
//! instantiation keys made of them — is assigned by the matcher or the
//! store, never chosen by a client, so the flooding resistance of the
//! standard library's SipHash buys nothing there, while its cost shows
//! on every activation. Maps keyed by attribute values, which clients
//! do choose, keep SipHash. This is the multiply-rotate word hash rustc
//! uses for its own tables.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` with [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;
/// `HashSet` with [`IdHasher`].
pub(crate) type IdSet<T> = HashSet<T, BuildHasherDefault<IdHasher>>;

/// Word-at-a-time multiply-rotate hasher (FxHash).
#[derive(Clone, Copy, Default)]
pub(crate) struct IdHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: IdMap<u64, u64> = IdMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000).all(|i| m[&i] == i * 2));
        let s: IdSet<String> = ["a", "ab", "abcdefghij"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(s.contains("abcdefghij") && !s.contains("abcdefghi"));
    }
}
