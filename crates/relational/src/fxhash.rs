//! The one hasher every engine map uses: an Fx-style multiply-rotate hash.
//!
//! Std's default SipHash resists keys crafted to collide, at several times
//! the cost per word. Every key the engine hashes is one of the store's
//! own rows, keys or plan parts, so that protection buys nothing here and
//! the multiply-add of the Firefox/rustc hash ("Fx") is enough.
//! [`FxBuildHasher`] carries no per-map seed: one value hashes the same
//! in every map and every run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

/// Builds [`FxHasher`]s; the `S` parameter of [`FxHashMap`] and
/// [`FxHashSet`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// An odd 64-bit multiplier (the constant of rustc-hash 2), so each
/// multiply is invertible (tests invert it to build colliding keys).
pub const K: u64 = 0xf135_7aea_2e62_a9c5;

/// How far [`FxHasher::finish`] rotates the state left.
pub const ROTATE: u32 = 26;

/// Folds each written word into the state as `(state + word) * K`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = self.state.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("an 8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut last = [0u8; 8];
            last[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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

    /// A product's high bits are its best mixed, but hashbrown picks the
    /// bucket from the low bits: rotating moves the high bits down (as
    /// rustc-hash 2 does).
    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(ROTATE)
    }
}

/// The slots (row positions) whose keys share one 64-bit hash, in
/// ascending order: almost always one; several when a key has many rows or
/// distinct keys collide on all 64 bits. The bucket of every map keyed by
/// row hash ([`crate::Relation`] and the engine's table indexes).
#[derive(Debug, Clone)]
pub enum Slots {
    /// A single slot: no allocation.
    One(usize),
    /// Two or more slots.
    Many(Vec<usize>),
}

impl Slots {
    /// The slots, ascending.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[usize] {
        match self {
            Slots::One(p) => std::slice::from_ref(p),
            Slots::Many(ps) => ps,
        }
    }

    /// The slots, mutably (to renumber them in place).
    pub fn as_mut_slice(&mut self) -> &mut [usize] {
        match self {
            Slots::One(p) => std::slice::from_mut(p),
            Slots::Many(ps) => ps,
        }
    }

    /// Adds `pos`, which no slot of the bucket equals, where a binary
    /// search puts it: at the end for a new row, wherever its old slot
    /// sits for a row a rollback puts back. The bucket stays ascending.
    pub fn insert(&mut self, pos: usize) {
        match self {
            Slots::One(p) => *self = Slots::Many(vec![(*p).min(pos), (*p).max(pos)]),
            Slots::Many(ps) => ps.insert(ps.partition_point(|&p| p < pos), pos),
        }
    }

    /// Removes `pos` by binary search, keeping the rest ascending; returns
    /// whether the bucket is now empty (its map entry should go).
    pub fn remove(&mut self, pos: usize) -> bool {
        match self {
            Slots::One(p) => *p == pos,
            Slots::Many(ps) => {
                if let Ok(at) = ps.binary_search(&pos) {
                    ps.remove(at);
                }
                if let [p] = ps[..] {
                    *self = Slots::One(p);
                }
                self.as_slice().is_empty()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{Tuple, Value};
    use std::hash::BuildHasher;

    #[test]
    fn equal_values_hash_equal_and_slices_probe_tuple_keys() {
        let h = FxBuildHasher::default();
        let t = Tuple::new([Value::Int(7), Value::Null, Value::text("abcdefghij")]);
        assert_eq!(h.hash_one(&t), h.hash_one(t.clone()));
        assert_eq!(h.hash_one(&t), h.hash_one(t.values()));
        let mut m: FxHashMap<Tuple, u8> = FxHashMap::default();
        m.insert(t.clone(), 1);
        assert_eq!(m.get(t.values()), Some(&1));
    }

    #[test]
    fn keys_differing_in_high_bits_spread_over_the_low_bits() {
        // hashbrown picks the bucket from the low bits. A bare product's
        // low bits depend only on the key's low bits, so these keys would
        // all share one of 256 buckets without the rotate in `finish`.
        let h = FxBuildHasher::default();
        let buckets: FxHashSet<u64> = (0..1024i64).map(|i| h.hash_one(i << 20) & 0xff).collect();
        assert!(buckets.len() > 200, "{} of 256 buckets used", buckets.len());
    }
}
