//! The one integer hasher of the runtime's id-keyed tables.
//!
//! Every task passes through tables keyed by the runtime's own integer
//! ids — tasks, data objects, regions, spaces, allocations — on the
//! host hot path of submit, placement, acquire and completion. Those
//! tables hash with [`FxHasher`] rather than std's SipHash: the keys are
//! not attacker-chosen, and SipHash's per-lookup cost showed up as a
//! visible share of a cluster run's host time.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx hash (as in rustc): one add and multiply per word, and a
/// final rotate that brings the well-mixed high bits down to where the
/// table takes its bucket index (without it, regions that differ only
/// in a large aligned offset would share their low hash bits). Fast and
/// fixed, so a table's bucket layout is the same in every process —
/// which no output depends on either way. Not collision-resistant;
/// the keys are the runtime's own integer ids.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0xf135_7aea_2e62_a9c5;

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// A `HashMap` hashed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataId, Region};
    use std::hash::BuildHasher;

    #[test]
    fn fx_hash_is_fixed_and_spreads_region_keys() {
        let build = BuildHasherDefault::<FxHasher>::default();
        let region = Region::new(DataId(3), 4096, 1024);
        assert_eq!(build.hash_one(region), build.hash_one(region));
        // Tiles of one object differ only in a large aligned offset:
        // their hashes still spread over the low bits the table indexes
        // by (uniform hashing fills ~63% of the buckets).
        let tile = |i: u64| Region::new(DataId(1), i << 22, 1 << 22);
        let mut low: Vec<u64> = (0..1024).map(|i| build.hash_one(tile(i)) & 1023).collect();
        low.sort();
        low.dedup();
        assert!(low.len() > 560, "only {} distinct low-bit buckets of 1024", low.len());
    }

    #[test]
    fn fx_hash_spreads_sequential_ids() {
        // Task, data and allocation ids are handed out 0, 1, 2, ...
        let build = BuildHasherDefault::<FxHasher>::default();
        let mut low: Vec<u64> = (0..1024u64).map(|i| build.hash_one(i) & 1023).collect();
        low.sort();
        low.dedup();
        assert!(low.len() > 560, "only {} distinct low-bit buckets of 1024", low.len());
    }
}
