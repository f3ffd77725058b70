//! Compact containers for the coherence directory.
//!
//! Every acquire looks a region up in the directory and then looks up
//! the copy at one space among the few the region has. Both lookups sit
//! on the host hot path of every task, so the region table hashes its
//! integer keys with [`ompss_mem::FxHasher`] rather than SipHash, and
//! each region's copies live in a [`SpaceMap`]: a vector sorted by space.

use ompss_mem::SpaceId;

/// A small map keyed by space: `(space, value)` pairs sorted by space.
/// A region has a copy in only a few spaces, where a binary search over
/// one short vector beats hashing; iteration runs in space order.
pub(crate) struct SpaceMap<V>(Vec<(SpaceId, V)>);

impl<V> SpaceMap<V> {
    /// A map holding one entry.
    pub(crate) fn one(space: SpaceId, value: V) -> Self {
        SpaceMap(vec![(space, value)])
    }

    fn find(&self, space: SpaceId) -> Result<usize, usize> {
        self.0.binary_search_by_key(&space, |&(s, _)| s)
    }

    pub(crate) fn get(&self, space: &SpaceId) -> Option<&V> {
        self.find(*space).ok().map(|i| &self.0[i].1)
    }

    pub(crate) fn get_mut(&mut self, space: &SpaceId) -> Option<&mut V> {
        self.find(*space).ok().map(|i| &mut self.0[i].1)
    }

    /// Insert or replace the entry for `space`, returning the old value.
    pub(crate) fn insert(&mut self, space: SpaceId, value: V) -> Option<V> {
        match self.find(space) {
            Ok(i) => Some(std::mem::replace(&mut self.0[i].1, value)),
            Err(i) => {
                self.0.insert(i, (space, value));
                None
            }
        }
    }

    pub(crate) fn remove(&mut self, space: &SpaceId) -> Option<V> {
        self.find(*space).ok().map(|i| self.0.remove(i).1)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&SpaceId, &V)> {
        self.0.iter().map(|(s, v)| (s, v))
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.0.iter().map(|(_, v)| v)
    }

    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.0.iter_mut().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, u64),
        Remove(u32),
        Bump(u32),
    }

    fn gen_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (0u32..12, any::<u64>()).prop_map(|(s, v)| Op::Insert(s, v)),
            (0u32..12).prop_map(Op::Remove),
            (0u32..12).prop_map(Op::Bump),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The copy list behaves exactly like a `BTreeMap` keyed by
        /// space: same answers to every lookup, same removals, and
        /// iteration in the same (space) order.
        #[test]
        fn space_map_matches_btree_model(
            first in (0u32..12, any::<u64>()),
            ops in proptest::collection::vec(gen_op(), 0..64),
        ) {
            let mut map = SpaceMap::one(SpaceId(first.0), first.1);
            let mut model = BTreeMap::from([(first.0, first.1)]);
            for op in &ops {
                match *op {
                    Op::Insert(s, v) => {
                        prop_assert_eq!(map.insert(SpaceId(s), v), model.insert(s, v));
                    }
                    Op::Remove(s) => {
                        prop_assert_eq!(map.remove(&SpaceId(s)), model.remove(&s));
                    }
                    Op::Bump(s) => {
                        let got = map.get_mut(&SpaceId(s)).map(|v| {
                            *v = v.wrapping_add(1);
                            *v
                        });
                        let want = model.get_mut(&s).map(|v| {
                            *v = v.wrapping_add(1);
                            *v
                        });
                        prop_assert_eq!(got, want);
                    }
                }
                for s in 0..12 {
                    prop_assert_eq!(map.get(&SpaceId(s)), model.get(&s));
                }
                let listed: Vec<(u32, u64)> = map.iter().map(|(s, v)| (s.0, *v)).collect();
                let expected: Vec<(u32, u64)> = model.iter().map(|(&s, &v)| (s, v)).collect();
                prop_assert_eq!(&listed, &expected);
                let values: Vec<u64> = map.values().copied().collect();
                prop_assert_eq!(values, model.values().copied().collect::<Vec<_>>());
            }
            for v in map.values_mut() {
                *v = 0;
            }
            prop_assert!(map.values().all(|&v| v == 0));
        }
    }
}
