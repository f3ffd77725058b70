//! Deterministic sharding of the control plane by `DataId`.
//!
//! The paper's evaluation (§IV) stops at four nodes because the master
//! image owns the whole region directory and every task-generation
//! step: all coherence resolution and dispatch serializes through one
//! node. The sharded control plane partitions ownership of the
//! `DataId` space across nodes with a pure function — consistent
//! multiplicative hashing — so that *any* node can compute, locally
//! and without a directory round trip, which node homes a given data
//! object. Ownership resolution therefore needs no active message at
//! all (the decisive advantage of a deterministic shard map over a
//! lookup service); only the data bytes themselves move, and they move
//! peer-to-peer between the owner and the consumer.
//!
//! The map is **total** (every `DataId` has exactly one shard),
//! **disjoint** (shards never overlap — it is a function), and
//! **deterministic** (independent of job count, iteration order, or
//! host); the proptests in this module pin all three.

use ompss_mem::DataId;

/// Fibonacci-hashing constant: `2^64 / φ`, odd, so multiplication by it
/// is a bijection on `u64` that spreads consecutive ids across the
/// whole space.
const SPREAD: u64 = 0x9E37_79B9_7F4A_7C15;

/// A deterministic partition of the `DataId` space into `shards`
/// equal ranges, and of shards onto owner nodes.
///
/// Construction is trivially cheap; every node of the cluster builds
/// an identical map from the run configuration alone, which is what
/// makes peer-to-peer resolution possible without consulting the
/// master.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardMap {
    shards: u32,
}

impl ShardMap {
    /// A map with `shards ≥ 1` shards. One shard is the paper's flat
    /// single-master plane: every id lands on shard 0, owned by the
    /// first member, node 0.
    pub fn new(shards: u32) -> Self {
        assert!(shards > 0, "a shard map needs at least one shard");
        ShardMap { shards }
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The shard owning `data`. Total and disjoint by construction:
    /// a pure function of the id. The multiply spreads sequential ids
    /// (allocation order) uniformly; the 128-bit scale maps the spread
    /// key onto `0..shards` without modulo bias.
    pub fn shard_of(&self, data: DataId) -> u32 {
        let key = data.0.wrapping_mul(SPREAD);
        ((key as u128 * self.shards as u128) >> 64) as u32
    }

    /// The cluster node owning `data`'s shard, for a cluster of
    /// `nodes` nodes: shards wrap round-robin onto nodes, so with
    /// `shards == nodes` each node owns exactly one shard.
    pub fn owner_node(&self, data: DataId, nodes: u32) -> u32 {
        assert!(nodes > 0, "owner_node needs a non-empty cluster");
        self.shard_of(data) % nodes
    }

    /// The member of `members` owning `data`'s shard: shards wrap
    /// round-robin onto the member list. With `members == [0, 1, ..,
    /// n-1]` this equals [`ShardMap::owner_node`] — the static cluster
    /// is just epoch 0 of an elastic one.
    pub fn owner_among(&self, data: DataId, members: &[u32]) -> u32 {
        assert!(!members.is_empty(), "owner_among needs a non-empty member set");
        members[(self.shard_of(data) % members.len() as u32) as usize]
    }
}

/// Epoch-versioned cluster membership for the control plane.
///
/// Elastic membership changes *which nodes exist*, and therefore which
/// node owns each shard. Every join or drain opens a new **epoch**: an
/// immutable, sorted member list from which shard ownership is derived
/// by the same pure function every node computes locally
/// ([`ShardMap::owner_among`]). Because each epoch's map is a function
/// of `(shards, member list)` alone, any two nodes replaying the same
/// membership event sequence agree on the owner of every `DataId` at
/// every epoch — rebalancing needs no coordination beyond the event
/// itself.
///
/// During the **handoff** between two epochs (the membership event has
/// happened but moved slices are still being re-homed) lookups resolve
/// through a *two-epoch window*: [`MembershipEpochs::resolve`] returns
/// the current owner plus, while the handoff is open, the previous
/// epoch's owner when it differs. A slice is always at one of the two —
/// it is re-homed registry-first, so whichever registry a peer consults
/// points at real bytes, never stale ones. [`MembershipEpochs::seal`]
/// closes the window once every moved slice has landed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipEpochs {
    map: ShardMap,
    /// Member lists per epoch, each sorted ascending and non-empty.
    epochs: Vec<Vec<u32>>,
    /// Handoff window open: resolution consults the last two epochs.
    handoff: bool,
}

impl MembershipEpochs {
    /// Epoch 0 with the initial member set (deduplicated, sorted).
    pub fn new(shards: u32, mut members: Vec<u32>) -> Self {
        members.sort_unstable();
        members.dedup();
        assert!(!members.is_empty(), "a cluster needs at least one member");
        MembershipEpochs { map: ShardMap::new(shards), epochs: vec![members], handoff: false }
    }

    /// Index of the current epoch.
    pub fn current_epoch(&self) -> usize {
        self.epochs.len() - 1
    }

    /// Members of the current epoch, sorted ascending.
    pub fn members(&self) -> &[u32] {
        &self.epochs[self.epochs.len() - 1]
    }

    /// Is `node` a member of the current epoch?
    pub fn is_member(&self, node: u32) -> bool {
        self.members().binary_search(&node).is_ok()
    }

    /// Open a new epoch with `node` added. Opens the handoff window.
    /// Returns the new epoch index. Panics if `node` is already a
    /// member — the runtime arms at most one planned join per node.
    pub fn join(&mut self, node: u32) -> usize {
        let mut next = self.members().to_vec();
        let at = next.binary_search(&node).expect_err("join of an existing member");
        next.insert(at, node);
        self.epochs.push(next);
        self.handoff = true;
        self.current_epoch()
    }

    /// Open a new epoch with `node` removed. Opens the handoff window.
    /// Returns the new epoch index. Panics if `node` is not a member
    /// or is the last one (someone must inherit its shards).
    pub fn drain(&mut self, node: u32) -> usize {
        let mut next = self.members().to_vec();
        assert!(next.len() > 1, "cannot drain the last member");
        let at = next.binary_search(&node).expect("drain of a non-member");
        next.remove(at);
        self.epochs.push(next);
        self.handoff = true;
        self.current_epoch()
    }

    /// Close the handoff window: every slice moved by the last
    /// membership event has been re-homed, so lookups resolve through
    /// the current epoch alone.
    pub fn seal(&mut self) {
        self.handoff = false;
    }

    /// Is a handoff in progress?
    pub fn handoff_open(&self) -> bool {
        self.handoff
    }

    /// The owner of `data` under epoch `epoch`.
    pub fn owner_at(&self, data: DataId, epoch: usize) -> u32 {
        self.map.owner_among(data, &self.epochs[epoch])
    }

    /// The owner of `data` under the current epoch.
    pub fn owner(&self, data: DataId) -> u32 {
        self.owner_at(data, self.current_epoch())
    }

    /// Resolve `data` through the two-epoch window: the current owner,
    /// plus the previous epoch's owner while the handoff is open and
    /// the slice actually moved. Peer-to-peer resolution may consult
    /// either registry during handoff; re-homing is registry-first, so
    /// both point at real bytes.
    pub fn resolve(&self, data: DataId) -> (u32, Option<u32>) {
        let cur = self.owner(data);
        let prev = match (self.handoff, self.current_epoch()) {
            (true, e) if e > 0 => Some(self.owner_at(data, e - 1)).filter(|&p| p != cur),
            _ => None,
        };
        (cur, prev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_shard_owns_everything() {
        let m = ShardMap::new(1);
        for id in [0u64, 1, 7, u64::MAX] {
            assert_eq!(m.shard_of(DataId(id)), 0);
        }
    }

    #[test]
    fn sequential_ids_spread_across_shards() {
        // Allocation order is sequential from 0; a shard map that
        // clumped consecutive ids onto one owner would re-centralize
        // the directory. With 4 shards, the first 16 ids must touch
        // every shard.
        let m = ShardMap::new(4);
        let mut seen = [false; 4];
        for id in 0..16u64 {
            seen[m.shard_of(DataId(id)) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "ids 0..16 left a shard empty: {seen:?}");
    }

    proptest! {
        /// Total cover: every DataId maps to a shard in range, for any
        /// shard count.
        #[test]
        fn total_cover(id in any::<u64>(), shards in 1u32..=512) {
            let m = ShardMap::new(shards);
            prop_assert!(m.shard_of(DataId(id)) < shards);
        }

        /// Disjointness/determinism: two independently constructed maps
        /// (as two jobs or two nodes would build) agree on every id —
        /// the partition is a function of (id, shards) alone.
        #[test]
        fn deterministic_across_builders(id in any::<u64>(), shards in 1u32..=512) {
            let a = ShardMap::new(shards);
            let b = ShardMap::new(shards);
            prop_assert_eq!(a.shard_of(DataId(id)), b.shard_of(DataId(id)));
            prop_assert_eq!(a.owner_node(DataId(id), shards), b.owner_node(DataId(id), shards));
        }

        /// Owner nodes stay in range for any cluster size.
        #[test]
        fn owner_in_cluster(id in any::<u64>(), shards in 1u32..=512, nodes in 1u32..=512) {
            let m = ShardMap::new(shards);
            prop_assert!(m.owner_node(DataId(id), nodes) < nodes);
        }
    }

    #[test]
    fn static_cluster_is_epoch_zero() {
        // owner_among over [0..n) must equal owner_node: arming elastic
        // membership on a cluster that never churns changes nothing.
        let m = ShardMap::new(5);
        let members: Vec<u32> = (0..4).collect();
        for id in 0..64u64 {
            assert_eq!(m.owner_among(DataId(id), &members), m.owner_node(DataId(id), 4));
        }
    }

    #[test]
    fn join_drain_round_trip_restores_ownership() {
        // A join followed by a drain of the same node restores epoch
        // 0's member list, so every id's owner returns to its original
        // node — rebalancing is an involution, not a random walk.
        let mut e = MembershipEpochs::new(4, vec![0, 1, 2]);
        let before: Vec<u32> = (0..32).map(|id| e.owner(DataId(id))).collect();
        e.join(3);
        e.seal();
        e.drain(3);
        e.seal();
        let after: Vec<u32> = (0..32).map(|id| e.owner(DataId(id))).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn handoff_window_exposes_both_owners_then_seals() {
        let mut e = MembershipEpochs::new(4, vec![0, 1]);
        e.join(2);
        assert!(e.handoff_open());
        for id in 0..64u64 {
            let old = e.owner_at(DataId(id), 0);
            let (cur, prev) = e.resolve(DataId(id));
            assert_eq!(cur, e.owner(DataId(id)));
            match prev {
                Some(p) => assert_eq!(p, old, "window must expose the pre-join owner"),
                None => assert_eq!(cur, old, "no window entry means the slice never moved"),
            }
        }
        e.seal();
        for id in 0..64u64 {
            assert_eq!(e.resolve(DataId(id)).1, None, "sealed handoff resolves one epoch only");
        }
    }

    /// A legal churn script over a small node pool: `true` = join the
    /// node if absent, `false` = drain it if present (and not last).
    /// Illegal steps are skipped, so any bit pattern is a valid script.
    fn replay(e: &mut MembershipEpochs, script: &[(bool, u32)]) {
        for &(join, node) in script {
            if join && !e.is_member(node) {
                e.join(node);
                e.seal();
            } else if !join && e.is_member(node) && e.members().len() > 1 {
                e.drain(node);
                e.seal();
            }
        }
    }

    proptest! {
        /// Totality + disjoint cover survive arbitrary join/drain
        /// sequences: after every replayed script, each id has exactly
        /// one owner and that owner is a current member.
        #[test]
        fn churn_preserves_total_disjoint_cover(
            shards in 1u32..=64,
            script in proptest::collection::vec((any::<bool>(), 0u32..8), 0..12),
            id in any::<u64>(),
        ) {
            let mut e = MembershipEpochs::new(shards, vec![0, 1]);
            replay(&mut e, &script);
            let owner = e.owner(DataId(id));
            prop_assert!(e.is_member(owner), "owner {owner} not in members {:?}", e.members());
            // Disjointness is structural (owner() is a function), but a
            // second call must agree — no hidden state.
            prop_assert_eq!(owner, e.owner(DataId(id)));
        }

        /// Epoch lookups are deterministic across builders: two
        /// independently constructed epoch maps replaying the same
        /// membership script agree on the owner of every id at every
        /// epoch — the property that lets every node rebalance locally.
        #[test]
        fn churn_deterministic_across_builders(
            shards in 1u32..=64,
            script in proptest::collection::vec((any::<bool>(), 0u32..8), 0..12),
            id in any::<u64>(),
        ) {
            let mut a = MembershipEpochs::new(shards, vec![0, 1]);
            let mut b = MembershipEpochs::new(shards, vec![0, 1]);
            replay(&mut a, &script);
            replay(&mut b, &script);
            prop_assert_eq!(a.current_epoch(), b.current_epoch());
            for epoch in 0..=a.current_epoch() {
                prop_assert_eq!(a.owner_at(DataId(id), epoch), b.owner_at(DataId(id), epoch));
            }
        }

        /// The two-epoch window never leaks a node outside the last two
        /// member sets: mid-handoff resolution can only name the old or
        /// the new owner of a slice, never a third party.
        #[test]
        fn handoff_resolution_stays_in_window(
            shards in 1u32..=64,
            script in proptest::collection::vec((any::<bool>(), 0u32..8), 1..12),
            id in any::<u64>(),
        ) {
            let mut e = MembershipEpochs::new(shards, vec![0, 1]);
            replay(&mut e, &script);
            // Re-open a handoff with one more legal event, if any.
            let node = (0..8u32).find(|&n| !e.is_member(n));
            if let Some(n) = node {
                e.join(n);
                let cur_epoch = e.current_epoch();
                let (cur, prev) = e.resolve(DataId(id));
                prop_assert_eq!(cur, e.owner_at(DataId(id), cur_epoch));
                if let Some(p) = prev {
                    prop_assert_eq!(p, e.owner_at(DataId(id), cur_epoch - 1));
                    prop_assert_ne!(p, cur);
                }
            }
        }
    }
}
