//! The coherence engine: directory, software caches and policies.
//!
//! Before a task runs, the runtime asks this engine to make every
//! region named by the task's copy clauses available (and up to date,
//! for reads) in the task's execution space; after the task, it commits
//! the writes. The engine keeps one directory entry per exact-match
//! region with the set of *copies* across spaces, each carrying a
//! version, and plans transfers hop-by-hop along the space hierarchy —
//! caching the data at every intermediate space it flows through, like
//! Nanos++'s hierarchical caches (§III-C3).
//!
//! # Policies
//!
//! * [`CachePolicy::WriteBack`] (the runtime default, `wb`): written
//!   data stays dirty in the execution space until it is needed
//!   elsewhere, evicted, or flushed.
//! * [`CachePolicy::WriteThrough`] (`wt`): every task's writes are
//!   pushed one level up (GPU→host, slave→master) at commit time.
//! * [`CachePolicy::NoCache`]: like write-through, and additionally the
//!   task's copies are dropped from the execution space after commit —
//!   data moves in and out for every task.
//!
//! # Concurrency protocol
//!
//! Bookkeeping lives in one `RefCell`, borrowed briefly and never
//! across an `.await`; transfers happen
//! *outside* it, marked `InFlight` with a completion [`Signal`] so that
//! concurrent requests for the same copy wait instead of duplicating
//! the transfer (the "non-blocking cache" of the paper). Copies in use
//! are pinned against eviction: by the running task for its clauses,
//! and by the engine itself around a copy serving as a transfer source.
//!
//! # Dirty invariant
//!
//! A copy is *dirty* iff its data version is not present at the
//! region's *home* (the host holding the data object's home
//! allocation — the [`crate::ShardMap`] owner's host, which is the
//! master's with one shard). The invariant maintained
//! everywhere is: **if the home does not hold the latest version of a
//! region, at least one valid-latest copy elsewhere is marked dirty**,
//! so eviction write-backs can never lose the only latest copy.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;

use ompss_mem::{Access, AllocId, DataId, MemoryManager, Region, SpaceId};
use ompss_sim::{now, Signal, SimError, SimResult};

use crate::dir::{FxHashMap, SpaceMap};
use crate::topo::{HopKind, Topology};

/// Report a coherence-region touch to an armed model checker (no-op
/// otherwise — see [`ompss_sim::mc_touch`]). Region identity is hashed
/// (FNV-1a) into the resource-id space with the top bit set, so region
/// ids can never collide with the small counter ids primitives get
/// from [`ompss_sim::mc_resource_id`].
fn mc_touch_region(region: &Region) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in [region.data.0, region.offset, region.len] {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    ompss_sim::mc_touch(h | (1 << 63));
}

/// The cache write policy (`NX_CACHE_POLICY` in Nanos++).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CachePolicy {
    /// Move data in and out around every task.
    NoCache,
    /// Propagate writes upward at commit; keep read copies cached.
    WriteThrough,
    /// Delay write propagation until the data is needed elsewhere
    /// (default).
    WriteBack,
}

impl CachePolicy {
    /// The label used in the paper's charts.
    pub fn chart_label(self) -> &'static str {
        match self {
            CachePolicy::NoCache => "nocache",
            CachePolicy::WriteThrough => "wt",
            CachePolicy::WriteBack => "wb",
        }
    }
}

/// A concrete placement of a region copy: where the bytes are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loc {
    /// Address space.
    pub space: SpaceId,
    /// Allocation within the space.
    pub alloc: AllocId,
    /// Byte offset of the region within the allocation.
    pub offset: u64,
}

/// Why a transfer is being made. The engine threads this through to the
/// [`HopExec`] so the runtime can account bytes by purpose —
/// demand fetches on a task's critical path versus anticipatory
/// movement (GPU prefetch, cluster presend) versus write traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TransferPurpose {
    /// A task acquire is waiting on this data.
    Demand,
    /// Anticipatory fetch toward a GPU ahead of its task.
    Prefetch,
    /// Cluster-level staging of task data at a remote node before the
    /// execution request is sent (the paper's pre-send optimisation).
    Presend,
    /// Dirty data pushed up one level: write-through commit or eviction
    /// write-back.
    WriteBack,
    /// Taskwait flush returning dirty data to the master host.
    Flush,
}

impl TransferPurpose {
    /// Stable lowercase label (report/trace key).
    pub fn label(self) -> &'static str {
        match self {
            TransferPurpose::Demand => "demand",
            TransferPurpose::Prefetch => "prefetch",
            TransferPurpose::Presend => "presend",
            TransferPurpose::WriteBack => "writeback",
            TransferPurpose::Flush => "flush",
        }
    }
}

/// The boxed future of one hop: see [`HopExec::hop`].
pub type HopFuture<'a> = Pin<Box<dyn Future<Output = SimResult<bool>> + 'a>>;

/// Executes one planned hop, charging virtual time and moving the real
/// bytes. Implemented by the runtime (PCIe hops drive the GPU DMA
/// model; network hops drive active messages). The hop runs inside the
/// simulation, on its thread, so the future need not be `Send`.
pub trait HopExec {
    /// Perform the transfer. Must move the bytes via the memory manager
    /// and block the calling process for the modelled duration.
    ///
    /// Returns `Ok(true)` when the bytes arrived at the destination.
    /// `Ok(false)` means the hop spent its wire time but the data never
    /// landed — one endpoint's node died mid-transfer — so the engine
    /// must treat the destination as garbage, not valid.
    ///
    /// Boxed future rather than `async fn`: the trait must stay
    /// object-safe (`&dyn HopExec` is threaded through the engine).
    /// Implementors wrap their body in `Box::pin(async move { ... })`.
    fn hop<'a>(
        &'a self,
        kind: HopKind,
        purpose: TransferPurpose,
        src: Loc,
        dst: Loc,
        bytes: u64,
    ) -> HopFuture<'a>;
}

/// A [`HopExec`] written with a `Send` future, for executors that hold
/// no simulation state (one that only charges virtual time, say).
/// Every `TransferExec` is a `HopExec`.
pub trait TransferExec {
    /// Perform the transfer; see [`HopExec::hop`].
    fn transfer<'a>(
        &'a self,
        kind: HopKind,
        purpose: TransferPurpose,
        src: Loc,
        dst: Loc,
        bytes: u64,
    ) -> Pin<Box<dyn Future<Output = SimResult<bool>> + Send + 'a>>;
}

impl<T: TransferExec + ?Sized> HopExec for T {
    fn hop<'a>(
        &'a self,
        kind: HopKind,
        purpose: TransferPurpose,
        src: Loc,
        dst: Loc,
        bytes: u64,
    ) -> HopFuture<'a> {
        self.transfer(kind, purpose, src, dst, bytes)
    }
}

/// A region whose latest committed version was lost with a purged
/// space: no surviving copy holds it any more. Produced by
/// [`Coherence::purge_spaces`]; the node-loss recovery path consumes it
/// to drive lineage reconstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LostRegion {
    /// The affected region.
    pub region: Region,
    /// The version the directory had committed before the loss.
    pub latest: u64,
    /// The newest version still held by a surviving copy (a live home
    /// holds at least version 0, so reconstruction has a base to
    /// replay from; when the *home itself* died the recovery path
    /// re-homes the data first — see [`Coherence::rehome_data`]).
    pub best: u64,
}

/// Coherence activity counters.
#[derive(Debug, Default, Clone)]
pub struct CoherenceStats {
    /// Acquire requests satisfied without any transfer.
    pub hits: u64,
    /// Acquire requests that required at least one transfer or wait.
    pub misses: u64,
    /// Individual hop transfers executed.
    pub transfers: u64,
    /// Bytes moved by all hops.
    pub bytes_moved: u64,
    /// Bytes moved over PCIe hops.
    pub pcie_bytes: u64,
    /// Bytes moved over network hops.
    pub net_bytes: u64,
    /// Bytes moved on a task's critical path (demand fetches).
    pub demand_bytes: u64,
    /// Bytes moved ahead of need by the GPU prefetcher.
    pub prefetch_bytes: u64,
    /// Bytes staged at remote nodes by the cluster pre-send path.
    pub presend_bytes: u64,
    /// Bytes pushed upward: write-through commits plus eviction
    /// write-backs.
    pub push_bytes: u64,
    /// Bytes returned home by taskwait flushes.
    pub flush_bytes: u64,
    /// Dirty evictions written back.
    pub writebacks: u64,
    /// Bytes written back on eviction.
    pub writeback_bytes: u64,
    /// Copies evicted (dirty or clean).
    pub evictions: u64,
}

#[derive(Clone)]
enum CState {
    /// Holds data of the given region version.
    Valid { version: u64 },
    /// Being filled by a transfer; wait on the signal.
    InFlight { done: Signal },
    /// Allocated, contents undefined (output-only placement).
    Garbage,
}

struct CopyState {
    alloc: AllocId,
    offset: u64,
    state: CState,
    dirty: bool,
    pinned: u32,
    last_use: u64,
}

struct RegionEntry {
    version: u64,
    /// The host space holding this region's authoritative home copy
    /// (the data object's home allocation): its shard owner's host —
    /// the master's with one shard. Node-loss recovery may move it ([`Coherence::rehome_data`]).
    home: SpaceId,
    copies: SpaceMap<CopyState>,
}

impl RegionEntry {
    fn home_has(&self, version: u64) -> bool {
        matches!(
            self.copies.get(&self.home).map(|c| &c.state),
            Some(CState::Valid { version: v }) if *v >= version
        )
    }
}

struct Inner {
    regions: FxHashMap<Region, RegionEntry>,
    tick: u64,
    stats: CoherenceStats,
    /// Spaces declared dead by [`Coherence::purge_spaces`]: their node
    /// was lost. Acquires and placements targeting them shut down
    /// instead of planning transfers nobody could serve.
    dead: Vec<SpaceId>,
}

/// The coherence engine. The runtime holds it in an `Rc` and calls it
/// from worker, GPU-manager and communication processes, which the
/// simulation interleaves on one thread.
pub struct Coherence {
    mem: MemoryManager,
    topo: Topology,
    policy: CachePolicy,
    /// When set (verification runs and the coherence proptests), the
    /// full directory invariant check runs after every state-changing
    /// operation, panicking on the first violation. Off by default: the
    /// sweep is O(regions × copies) per operation.
    validate: bool,
    /// `OMPSS_COH_DEBUG` is set: print every planned hop to stderr.
    /// Read once, when the engine is built.
    debug_hops: bool,
    inner: RefCell<Inner>,
}

/// One externally-executed action planned under the directory borrow.
enum Step {
    /// Wait for a concurrent transfer of the same copy.
    Wait(Signal),
    /// Evict to make `bytes` available in `space`, then re-plan.
    Room { space: SpaceId, bytes: u64 },
    /// Execute one hop transfer.
    Hop {
        kind: HopKind,
        from: SpaceId,
        to: SpaceId,
        src: Loc,
        dst: Loc,
        bytes: u64,
        version: u64,
        done: Signal,
    },
}

impl Coherence {
    /// Build an engine over the memory manager, space topology and
    /// selected policy. `mem` is any owner of the manager handle
    /// (`MemoryManager`, `&MemoryManager`, `Rc`/`Arc` of one); the
    /// engine keeps a clone of the handle.
    pub fn new(
        mem: impl std::borrow::Borrow<MemoryManager>,
        topo: Topology,
        policy: CachePolicy,
    ) -> Self {
        Coherence {
            mem: mem.borrow().clone(),
            topo,
            policy,
            validate: false,
            debug_hops: std::env::var_os("OMPSS_COH_DEBUG").is_some(),
            inner: RefCell::new(Inner {
                regions: FxHashMap::default(),
                tick: 0,
                stats: CoherenceStats::default(),
                dead: Vec::new(),
            }),
        }
    }

    /// Enable (or disable) continuous invariant checking: after every
    /// commit, completed hop, eviction round and flush the whole
    /// directory is swept with [`check_invariants`](Self::check_invariants)
    /// and the engine panics on the first violation. Used by `verify`
    /// runs and the coherence proptests; costs O(regions × copies) per
    /// operation, so it stays off for benchmarks. Builder-style.
    pub fn with_validation(mut self, on: bool) -> Self {
        self.validate = on;
        self
    }

    /// Sweep the directory and report the first invariant violation:
    ///
    /// 1. **Dirty cover** — if a region's home does not hold its
    ///    latest version, at least one valid-latest copy elsewhere is
    ///    marked dirty (eviction write-backs can never lose the only
    ///    latest data).
    /// 2. **Version monotonicity** — no copy carries a version newer
    ///    than the directory entry's.
    /// 3. **Home never dirty** — the home copy is the authority; it is
    ///    never marked dirty.
    ///
    /// Note what is *not* an invariant: multiple dirty copies of one
    /// region are legal (a demand hop to a sibling marks the
    /// destination dirty without cleaning the source), and a *stale*
    /// dirty copy is legal too (superseded data whose dirty bit is
    /// cleared lazily by the next flush).
    pub fn check_invariants(&self) -> Result<(), String> {
        self.check_invariants_locked(&self.inner.borrow())
    }

    fn check_invariants_locked(&self, inner: &Inner) -> Result<(), String> {
        for (region, entry) in &inner.regions {
            for (&space, c) in entry.copies.iter() {
                if let CState::Valid { version } = c.state {
                    if version > entry.version {
                        return Err(format!(
                            "version monotonicity violated: {region} copy at {space:?} \
                             holds v{version} but the directory says v{}",
                            entry.version
                        ));
                    }
                }
                if space == entry.home && c.dirty {
                    return Err(format!(
                        "home dirty: {region} home copy at {space:?} is marked dirty"
                    ));
                }
            }
            if !entry.home_has(entry.version) {
                let covered = entry.copies.values().any(|c| {
                    c.dirty
                        && matches!(c.state, CState::Valid { version } if version == entry.version)
                });
                if !covered {
                    return Err(format!(
                        "dirty cover violated: home lacks {region} v{} and no valid-latest \
                         copy is marked dirty — an eviction could lose the data",
                        entry.version
                    ));
                }
            }
        }
        Ok(())
    }

    /// Run the sweep under an already-held borrow when validation is on.
    fn debug_validate_locked(&self, inner: &Inner, site: &str) {
        if self.validate {
            if let Err(msg) = self.check_invariants_locked(inner) {
                panic!("coherence invariant broken after {site}: {msg}");
            }
        }
    }

    /// The active policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// The space topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CoherenceStats {
        self.inner.borrow().stats.clone()
    }

    fn init_entry(&self, inner: &mut Inner, region: &Region) {
        if inner.regions.contains_key(region) {
            return;
        }
        // First touch: the authoritative copy is the data object's home
        // allocation — its shard owner's host (the master's with one
        // shard).
        let info = self.mem.data_info(region.data);
        debug_assert!(!self.topo.is_gpu(info.home_space), "home copies live in host memory");
        let copies = SpaceMap::one(
            info.home_space,
            CopyState {
                alloc: info.home_alloc,
                offset: region.offset,
                state: CState::Valid { version: 0 },
                dirty: false,
                pinned: 0,
                last_use: 0,
            },
        );
        inner.regions.insert(*region, RegionEntry { version: 0, home: info.home_space, copies });
    }

    /// Make `region` available in `target`: up-to-date if `read`, merely
    /// allocated if write-only. Pins the copy against eviction until
    /// [`commit`](Coherence::commit) or [`unpin`](Coherence::unpin).
    /// Returns where the bytes are.
    pub async fn acquire(
        &self,
        exec: &dyn HopExec,
        region: &Region,
        read: bool,
        target: SpaceId,
    ) -> SimResult<Loc> {
        if read {
            self.ensure_valid(exec, region, target, true, TransferPurpose::Demand).await?;
        } else {
            self.ensure_placed(exec, region, target).await?;
        }
        // No simulation yield can occur between the pin taken above and
        // this lookup (the DES is sequential), so the copy is still here.
        let inner = self.inner.borrow();
        let entry = &inner.regions[region];
        let c = entry.copies.get(&target).expect("acquired copy present");
        debug_assert!(c.pinned > 0);
        // No-stale-read: a read acquire must hand the task the latest
        // version, under the same borrow as the location lookup.
        debug_assert!(
            !read || matches!(c.state, CState::Valid { version } if version == entry.version),
            "stale read: acquire(read) of {region} at {target:?} returned a copy that is \
             not valid-latest (directory v{})",
            entry.version
        );
        Ok(Loc { space: target, alloc: c.alloc, offset: c.offset })
    }

    /// Drop one pin on `region`'s copy at `space` without committing a
    /// write (used when a prefetch is abandoned). A no-op when the copy
    /// no longer exists — node-loss recovery purges copies wholesale,
    /// pins included, and late unpinners must not trip over the hole.
    pub fn unpin(&self, region: &Region, space: SpaceId) {
        let mut inner = self.inner.borrow_mut();
        if let Some(c) = inner.regions.get_mut(region).and_then(|e| e.copies.get_mut(&space)) {
            assert!(c.pinned > 0, "unpin without pin");
            c.pinned -= 1;
        }
    }

    /// Commit a task's accesses at its execution space: bump versions
    /// for writes, apply the policy (write-through push, no-cache
    /// drop), and unpin everything the task had acquired.
    pub async fn commit(
        &self,
        exec: &dyn HopExec,
        accesses: &[Access],
        target: SpaceId,
    ) -> SimResult<()> {
        let written: Vec<(Region, SpaceId)> = {
            let mut inner = self.inner.borrow_mut();
            let mut written = Vec::new();
            for a in accesses {
                mc_touch_region(&a.region);
                if !a.kind.writes() {
                    continue;
                }
                let entry = inner.regions.get_mut(&a.region).expect("committed region unknown");
                entry.version += 1;
                let v = entry.version;
                let home = entry.home;
                let c = entry.copies.get_mut(&target).expect("written copy missing");
                c.state = CState::Valid { version: v };
                // The home *is* the authority: data there is never dirty.
                c.dirty = target != home;
                // Single owner: the freshly committed version exists in
                // exactly one place until the engine propagates it.
                debug_assert_eq!(
                    entry
                        .copies
                        .values()
                        .filter(|c| matches!(c.state, CState::Valid { version } if version == v))
                        .count(),
                    1,
                    "single-owner violated: committed version {v} of {} exists in more than \
                     one space",
                    a.region
                );
                written.push((a.region, home));
            }
            written
        };

        // Policy: push writes one level up at commit time — toward the
        // written region's own home, which may differ per region when
        // the shard map has several owners.
        if matches!(self.policy, CachePolicy::WriteThrough | CachePolicy::NoCache) {
            for (region, home) in &written {
                if let Some(parent) = self.push_target(target, *home) {
                    self.push_one_level(exec, region, target, parent).await?;
                }
            }
        }

        // Unpin, and under no-cache drop the task's copies entirely.
        let mut inner = self.inner.borrow_mut();
        for a in accesses {
            let entry = inner.regions.get_mut(&a.region).expect("committed region unknown");
            let home = entry.home;
            let c = entry.copies.get_mut(&target).expect("copy missing at unpin");
            assert!(c.pinned > 0, "commit without acquire");
            c.pinned -= 1;
            if self.policy == CachePolicy::NoCache
                && target != home
                && c.pinned == 0
                && !matches!(c.state, CState::InFlight { .. })
                && !c.dirty
            {
                let alloc = c.alloc;
                entry.copies.remove(&target);
                self.mem.free(target, alloc);
            }
        }
        self.debug_validate_locked(&inner, "commit");
        Ok(())
    }

    /// Compute the dirty bit for a copy of `version` at `space`: data is
    /// dirty iff it has not reached the region's home yet.
    fn dirty_for(&self, entry: &RegionEntry, space: SpaceId, version: u64) -> bool {
        space != entry.home && !entry.home_has(version)
    }

    /// The space one level "up" from `from` for write propagation of a
    /// region homed at `home`: a GPU pushes to its own host; a host
    /// that is not the home pushes straight to the home host (a
    /// peer-to-peer network hop when both are slaves); the home itself
    /// has nowhere further up. Equals `Topology::parent_of` whenever
    /// `home` is the master host — always, with one shard.
    fn push_target(&self, from: SpaceId, home: SpaceId) -> Option<SpaceId> {
        if self.topo.is_gpu(from) {
            return self.topo.parent_of(from);
        }
        (from != home).then_some(home)
    }

    /// Push `region`'s data from `from` one level up to `parent`
    /// (write-through propagation / dirty eviction). Clears the dirty
    /// bit at `from` on success. No-op if `from` is clean or stale.
    async fn push_one_level(
        &self,
        exec: &dyn HopExec,
        region: &Region,
        from: SpaceId,
        parent: SpaceId,
    ) -> SimResult<()> {
        let kind = if self.topo.is_gpu(from) || self.topo.is_gpu(parent) {
            HopKind::Pcie
        } else {
            HopKind::Network
        };
        loop {
            let step: Step = {
                let mut guard = self.inner.borrow_mut();
                let inner = &mut *guard;
                inner.tick += 1;
                let tick = inner.tick;
                let entry = inner.regions.get_mut(region).expect("push of unknown region");
                let Some(src_c) = entry.copies.get(&from) else {
                    return Ok(()); // copy vanished (already evicted)
                };
                if !src_c.dirty {
                    return Ok(());
                }
                let src_version = match src_c.state {
                    CState::Valid { version } => version,
                    _ => return Ok(()),
                };
                match entry.copies.get(&parent).map(|c| c.state.clone()) {
                    Some(CState::Valid { version }) if version >= src_version => {
                        // Parent already has it (or newer): just clean up.
                        entry.copies.get_mut(&from).expect("checked").dirty = false;
                        return Ok(());
                    }
                    Some(CState::InFlight { done, .. }) => Step::Wait(done),
                    other => {
                        if other.is_none() {
                            match self.mem.alloc(parent, region.len) {
                                Ok(alloc) => {
                                    entry.copies.insert(
                                        parent,
                                        CopyState {
                                            alloc,
                                            offset: 0,
                                            state: CState::Garbage,
                                            dirty: false,
                                            pinned: 0,
                                            last_use: tick,
                                        },
                                    );
                                }
                                Err(_) => {
                                    // Fall through to Room below.
                                }
                            }
                        }
                        match entry.copies.get_mut(&parent) {
                            Some(pc) => {
                                let done = Signal::new();
                                pc.state = CState::InFlight { done: done.clone() };
                                pc.last_use = tick;
                                let dst = Loc { space: parent, alloc: pc.alloc, offset: pc.offset };
                                let sc = entry.copies.get_mut(&from).expect("checked");
                                sc.pinned += 1;
                                let src = Loc { space: from, alloc: sc.alloc, offset: sc.offset };
                                Step::Hop {
                                    kind,
                                    from,
                                    to: parent,
                                    src,
                                    dst,
                                    bytes: region.len,
                                    version: src_version,
                                    done,
                                }
                            }
                            None => Step::Room { space: parent, bytes: region.len },
                        }
                    }
                }
            };
            match step {
                Step::Wait(sig) => sig.wait().await,
                Step::Room { space, bytes } => self.make_room(exec, space, bytes).await?,
                Step::Hop { kind, from: f, to, src, dst, bytes, version, done } => {
                    let purpose = TransferPurpose::WriteBack;
                    let delivered = exec.hop(kind, purpose, src, dst, bytes).await?;
                    self.finish_hop(
                        region, f, to, kind, purpose, bytes, version, done, true, delivered,
                    );
                    return Ok(());
                }
            }
        }
    }

    /// Bookkeeping after a hop transfer completes: destination becomes
    /// Valid, source is unpinned, stats updated. `clear_src_dirty` is
    /// set for upward pushes (the parent now covers the source's data).
    ///
    /// With `delivered == false` the bytes never arrived (an endpoint's
    /// node died mid-hop): the destination reverts to `Garbage` so
    /// waiters re-plan from a surviving source, and no stats are
    /// counted. Either endpoint's copy may have been purged outright by
    /// node-loss recovery while the transfer was on the wire, so every
    /// lookup here tolerates a hole.
    #[allow(clippy::too_many_arguments)]
    fn finish_hop(
        &self,
        region: &Region,
        from: SpaceId,
        to: SpaceId,
        kind: HopKind,
        purpose: TransferPurpose,
        bytes: u64,
        version: u64,
        done: Signal,
        clear_src_dirty: bool,
        delivered: bool,
    ) {
        let mut inner = self.inner.borrow_mut();
        if delivered {
            inner.stats.transfers += 1;
            inner.stats.bytes_moved += bytes;
            match kind {
                HopKind::Pcie => inner.stats.pcie_bytes += bytes,
                HopKind::Network => inner.stats.net_bytes += bytes,
            }
            match purpose {
                TransferPurpose::Demand => inner.stats.demand_bytes += bytes,
                TransferPurpose::Prefetch => inner.stats.prefetch_bytes += bytes,
                TransferPurpose::Presend => inner.stats.presend_bytes += bytes,
                TransferPurpose::WriteBack => inner.stats.push_bytes += bytes,
                TransferPurpose::Flush => inner.stats.flush_bytes += bytes,
            }
        }
        let Some(entry) = inner.regions.get_mut(region) else {
            done.set();
            return;
        };
        if delivered {
            // Mark destination valid first so dirty_for sees the root
            // state after this hop. Recovery may have repaired the copy
            // to a version at least as new while the hop ran — never
            // downgrade it.
            let repaired = matches!(
                entry.copies.get(&to).map(|c| &c.state),
                Some(CState::Valid { version: cur }) if *cur >= version
            );
            if !repaired {
                if let Some(dc) = entry.copies.get_mut(&to) {
                    dc.state = CState::Valid { version };
                }
                let entry = inner.regions.get_mut(region).expect("just found");
                let dirty = self.dirty_for(entry, to, version);
                if let Some(dc) = entry.copies.get_mut(&to) {
                    dc.dirty = dirty;
                }
            }
        } else if let Some(dc) = entry.copies.get_mut(&to) {
            // Still ours to resolve: contents are undefined. (If
            // recovery already replaced the state, leave it alone.)
            if matches!(dc.state, CState::InFlight { .. }) {
                dc.state = CState::Garbage;
                dc.dirty = false;
            }
        }
        done.set();
        let entry = inner.regions.get_mut(region).expect("just found");
        if let Some(sc) = entry.copies.get_mut(&from) {
            sc.pinned = sc.pinned.saturating_sub(1);
            if clear_src_dirty && delivered {
                sc.dirty = false;
            }
        }
        if delivered {
            self.debug_validate_locked(&inner, "finish_hop");
        }
    }

    /// Make a Valid-latest copy of `region` exist at `target`,
    /// transferring along the hierarchy as needed. `pin` pins the final
    /// copy for a task.
    async fn ensure_valid(
        &self,
        exec: &dyn HopExec,
        region: &Region,
        target: SpaceId,
        pin: bool,
        purpose: TransferPurpose,
    ) -> SimResult<()> {
        mc_touch_region(region);
        let mut first_check = true;
        loop {
            let step: Step = {
                let mut guard = self.inner.borrow_mut();
                let inner = &mut *guard;
                if inner.dead.contains(&target) {
                    // The target's node is gone; nothing can be staged
                    // there any more. Callers on the dead node are
                    // being torn down and treat this as shutdown.
                    return Err(SimError::Shutdown);
                }
                inner.tick += 1;
                let tick = inner.tick;
                self.init_entry(inner, region);
                // Quick path: target already valid (or being filled).
                let quick: Option<Option<Step>> = {
                    let entry = inner.regions.get_mut(region).expect("initialised");
                    let latest = entry.version;
                    match entry.copies.get_mut(&target) {
                        Some(c) => match c.state.clone() {
                            CState::Valid { version } if version == latest => {
                                c.last_use = tick;
                                if pin {
                                    c.pinned += 1;
                                }
                                Some(None)
                            }
                            CState::InFlight { done, .. } => Some(Some(Step::Wait(done))),
                            _ => None,
                        },
                        None => None,
                    }
                };
                match quick {
                    Some(None) => {
                        if first_check {
                            inner.stats.hits += 1;
                        } else {
                            inner.stats.misses += 1;
                        }
                        return Ok(());
                    }
                    Some(Some(step)) => {
                        first_check = false;
                        step
                    }
                    None => {
                        first_check = false;
                        self.plan_next_hop(inner, region, target, tick)
                    }
                }
            };
            match step {
                Step::Wait(sig) => sig.wait().await,
                Step::Room { space, bytes } => self.make_room(exec, space, bytes).await?,
                Step::Hop { kind, from, to, src, dst, bytes, version, done } => {
                    if self.debug_hops {
                        eprintln!(
                            "[coh {:.6}s] {region} v{version} hop {from:?}->{to:?} ({kind:?}, {bytes}B) for target {target:?}",
                            now().as_secs_f64()
                        );
                    }
                    let delivered = exec.hop(kind, purpose, src, dst, bytes).await?;
                    self.finish_hop(
                        region, from, to, kind, purpose, bytes, version, done, false, delivered,
                    );
                }
            }
        }
    }

    /// Plan the first unsatisfied hop moving `region` toward `target`.
    /// Called under the directory borrow; the target is known not to
    /// be valid.
    fn plan_next_hop(
        &self,
        inner: &mut Inner,
        region: &Region,
        target: SpaceId,
        tick: u64,
    ) -> Step {
        let entry = inner.regions.get_mut(region).expect("entry initialised by caller");
        let latest = entry.version;
        // Nearest valid-latest source.
        let src_space = entry
            .copies
            .iter()
            .filter(|(_, c)| matches!(c.state, CState::Valid { version } if version == latest))
            .map(|(&s, _)| s)
            .min_by_key(|&s| (self.topo.distance(s, target), s.0))
            .unwrap_or_else(|| {
                panic!("region {region} has no valid copy of version {latest} anywhere")
            });
        let route = self.topo.route(src_space, target);
        debug_assert!(!route.is_empty(), "target invalid yet source == target");
        for hop in route {
            match entry.copies.get(&hop.to).map(|c| c.state.clone()) {
                Some(CState::Valid { version }) if version == latest => continue,
                Some(CState::InFlight { done, .. }) => return Step::Wait(done),
                Some(_) => { /* stale or garbage: refresh the existing allocation */ }
                None => match self.mem.alloc(hop.to, region.len) {
                    Ok(alloc) => {
                        entry.copies.insert(
                            hop.to,
                            CopyState {
                                alloc,
                                offset: 0,
                                state: CState::Garbage,
                                dirty: false,
                                pinned: 0,
                                last_use: tick,
                            },
                        );
                    }
                    Err(_) => return Step::Room { space: hop.to, bytes: region.len },
                },
            }
            let done = Signal::new();
            let dc = entry.copies.get_mut(&hop.to).expect("just ensured");
            dc.state = CState::InFlight { done: done.clone() };
            dc.last_use = tick;
            let dst = Loc { space: hop.to, alloc: dc.alloc, offset: dc.offset };
            let sc = entry.copies.get_mut(&hop.from).expect("route source valid");
            sc.pinned += 1;
            sc.last_use = tick;
            let src = Loc { space: hop.from, alloc: sc.alloc, offset: sc.offset };
            return Step::Hop {
                kind: hop.kind,
                from: hop.from,
                to: hop.to,
                src,
                dst,
                bytes: region.len,
                version: latest,
                done,
            };
        }
        unreachable!("route had no unsatisfied hop but target is invalid")
    }

    /// Place an allocation for `region` at `target` without moving data
    /// (output-only clauses). Pins it.
    async fn ensure_placed(
        &self,
        exec: &dyn HopExec,
        region: &Region,
        target: SpaceId,
    ) -> SimResult<()> {
        mc_touch_region(region);
        loop {
            let step: Step = {
                let mut guard = self.inner.borrow_mut();
                let inner = &mut *guard;
                if inner.dead.contains(&target) {
                    return Err(SimError::Shutdown);
                }
                inner.tick += 1;
                let tick = inner.tick;
                self.init_entry(inner, region);
                let entry = inner.regions.get_mut(region).expect("initialised");
                if let Some(c) = entry.copies.get_mut(&target) {
                    match c.state.clone() {
                        CState::InFlight { done, .. } => Step::Wait(done),
                        _ => {
                            c.pinned += 1;
                            c.last_use = tick;
                            inner.stats.hits += 1;
                            return Ok(());
                        }
                    }
                } else {
                    match self.mem.alloc(target, region.len) {
                        Ok(alloc) => {
                            entry.copies.insert(
                                target,
                                CopyState {
                                    alloc,
                                    offset: 0,
                                    state: CState::Garbage,
                                    dirty: false,
                                    pinned: 1,
                                    last_use: tick,
                                },
                            );
                            inner.stats.misses += 1;
                            return Ok(());
                        }
                        Err(_) => Step::Room { space: target, bytes: region.len },
                    }
                }
            };
            match step {
                Step::Wait(sig) => sig.wait().await,
                Step::Room { space, bytes } => self.make_room(exec, space, bytes).await?,
                Step::Hop { .. } => unreachable!("placement plans no transfers"),
            }
        }
    }

    /// Evict least-recently-used, unpinned copies from `space` until
    /// `need` bytes fit, writing dirty-latest victims back one level.
    ///
    /// Boxed future: eviction of a dirty victim recurses through
    /// [`push_one_level`](Self::push_one_level), and an `async fn` cycle
    /// needs one boxed edge to have a finite type.
    fn make_room<'a>(
        &'a self,
        exec: &'a dyn HopExec,
        space: SpaceId,
        need: u64,
    ) -> Pin<Box<dyn Future<Output = SimResult<()>> + 'a>> {
        Box::pin(async move {
            loop {
                if self.mem.available(space) >= need {
                    return Ok(());
                }
                // Choose the LRU evictable copy in `space`. Home copies
                // are never eviction victims: they are the authority for
                // their region (a shard owner keeps its owned shard
                // resident and evicts only what it caches for others;
                // with one shard the master host evicts nothing).
                let victim: Option<(Region, bool, SpaceId, u64)> = {
                    let inner = self.inner.borrow();
                    inner
                        .regions
                        .iter()
                        .filter_map(|(region, entry)| {
                            if space == entry.home {
                                return None;
                            }
                            let c = entry.copies.get(&space)?;
                            if c.pinned > 0 || matches!(c.state, CState::InFlight { .. }) {
                                return None;
                            }
                            Some((*region, c.dirty, entry.home, c.last_use))
                        })
                        .min_by_key(|&(r, _, _, last_use)| (last_use, r))
                };
                let Some((region, dirty, home, _)) = victim else {
                    panic!(
                        "cache thrash: no evictable copy in space {space:?} while allocating \
                         {need} bytes (all copies pinned or in flight)"
                    );
                };
                if dirty {
                    let parent = self
                        .push_target(space, home)
                        .expect("a dirty copy is never at its own home");
                    self.push_one_level(exec, &region, space, parent).await?;
                    let mut inner = self.inner.borrow_mut();
                    inner.stats.writebacks += 1;
                    inner.stats.writeback_bytes += region.len;
                }
                // Free it (re-checking evictability: state may have changed
                // while the write-back ran).
                let mut inner = self.inner.borrow_mut();
                let entry = inner.regions.get_mut(&region).expect("victim region");
                if let Some(c) = entry.copies.get(&space) {
                    if c.pinned == 0 && !matches!(c.state, CState::InFlight { .. }) && !c.dirty {
                        let alloc = c.alloc;
                        entry.copies.remove(&space);
                        inner.stats.evictions += 1;
                        self.mem.free(space, alloc);
                    }
                }
                self.debug_validate_locked(&inner, "eviction");
            }
        })
    }

    /// Stage an up-to-date copy of `region` at `space` without pinning
    /// it — used by the cluster layer to push task data to a remote
    /// node's host memory ahead of the execution request, and by the
    /// GPU prefetcher.
    pub async fn prefetch(
        &self,
        exec: &dyn HopExec,
        region: &Region,
        space: SpaceId,
    ) -> SimResult<()> {
        self.ensure_valid(exec, region, space, false, TransferPurpose::Prefetch).await
    }

    /// Like [`prefetch`](Coherence::prefetch), but accounted as
    /// cluster pre-send traffic: the communication thread stages task
    /// data at a slave node's host memory ahead of the `Exec` request.
    pub async fn presend(
        &self,
        exec: &dyn HopExec,
        region: &Region,
        space: SpaceId,
    ) -> SimResult<()> {
        self.ensure_valid(exec, region, space, false, TransferPurpose::Presend).await
    }

    /// Regions whose dirty valid-latest copy lives at one of `spaces`,
    /// in deterministic order — what a draining node must flush home
    /// before its copies can be dropped.
    pub fn dirty_regions_at(&self, spaces: &[SpaceId]) -> Vec<Region> {
        self.dirty_where(|s| spaces.contains(s))
    }

    /// Regions with a dirty valid-latest copy somewhere (what a flush
    /// must write home), in deterministic order.
    pub fn dirty_regions(&self) -> Vec<Region> {
        self.dirty_where(|_| true)
    }

    /// Regions with a dirty copy of their latest version in a space
    /// `at` accepts, sorted.
    fn dirty_where(&self, at: impl Fn(&SpaceId) -> bool) -> Vec<Region> {
        let inner = self.inner.borrow();
        let mut dirty: Vec<Region> = inner
            .regions
            .iter()
            .filter(|(_, e)| {
                e.copies.iter().any(|(s, c)| {
                    at(s)
                        && c.dirty
                        && matches!(c.state, CState::Valid { version } if version == e.version)
                })
            })
            .map(|(r, _)| *r)
            .collect();
        dirty.sort();
        dirty
    }

    /// Flush every dirty region to its home host (the OmpSs `taskwait`
    /// semantics without `noflush`), one region at a time. Copies stay
    /// valid. The runtime's `taskwait` uses the parallel variant built
    /// on [`dirty_regions`](Coherence::dirty_regions) +
    /// [`flush_region`](Coherence::flush_region).
    pub async fn flush_all(&self, exec: &dyn HopExec) -> SimResult<()> {
        for region in self.dirty_regions() {
            self.flush_region(exec, &region).await?;
        }
        Ok(())
    }

    /// Flush one region's latest version to its home host
    /// (`taskwait on(...)`) — its shard owner's host, the master's
    /// with one shard (host-side reads go through the home allocation
    /// either way).
    pub async fn flush_region(&self, exec: &dyn HopExec, region: &Region) -> SimResult<()> {
        let home = {
            let mut guard = self.inner.borrow_mut();
            let inner = &mut *guard;
            self.init_entry(inner, region);
            inner.regions[region].home
        };
        self.ensure_valid(exec, region, home, false, TransferPurpose::Flush).await?;
        // The home now reflects the latest version: latest copies are
        // clean, stale dirty copies hold obsolete data and are dropped
        // from the dirty set too.
        let mut inner = self.inner.borrow_mut();
        if let Some(entry) = inner.regions.get_mut(region) {
            for c in entry.copies.values_mut() {
                c.dirty = false;
            }
        }
        self.debug_validate_locked(&inner, "flush_region");
        Ok(())
    }

    /// Drop every droppable copy held at `space` and free its memory —
    /// the space's device was lost, so nothing cached there may serve as
    /// a transfer source again. Returns the number of copies dropped.
    ///
    /// Copies that are pinned, in flight, or dirty-latest are skipped:
    /// pins belong to a task still being torn down (the runtime unpins a
    /// failed task's accesses before calling this), in-flight fills
    /// complete through their signal, and a dirty-latest copy is the
    /// only home of its data so removing it would violate the dirty
    /// cover invariant (fault runs pin the write-through policy exactly
    /// so such copies cannot exist at a lost device).
    pub fn invalidate_space(&self, space: SpaceId) -> usize {
        assert_ne!(space, self.topo.root(), "the master host home is never invalidated");
        let mut inner = self.inner.borrow_mut();
        let mut dropped = 0;
        let mut freed: Vec<AllocId> = Vec::new();
        for entry in inner.regions.values_mut() {
            let Some(c) = entry.copies.get(&space) else {
                continue;
            };
            if c.pinned > 0 || matches!(c.state, CState::InFlight { .. }) {
                continue;
            }
            let latest = matches!(c.state, CState::Valid { version } if version == entry.version);
            if c.dirty && latest {
                continue;
            }
            let alloc = c.alloc;
            entry.copies.remove(&space);
            freed.push(alloc);
            dropped += 1;
        }
        inner.stats.evictions += dropped as u64;
        for alloc in freed {
            self.mem.free(space, alloc);
        }
        self.debug_validate_locked(&inner, "invalidate_space");
        dropped
    }

    /// Declare every space in `spaces` dead and drop all directory
    /// state held there — the whole node was lost, so pinned and
    /// in-flight copies go too (their fill signals are set so live
    /// waiters re-plan instead of blocking forever). Memory at the dead
    /// spaces is *not* freed: the allocations are unreachable, not
    /// reclaimed, and an in-flight transfer that already sourced its
    /// bytes from one may still complete its copy harmlessly.
    ///
    /// Returns, in deterministic order, every region whose latest
    /// committed version no longer exists at any surviving space. For
    /// those regions the directory is left *intentionally* short of its
    /// dirty-cover invariant; the caller must reconstruct them (lineage
    /// re-execution) and finish with [`repair_root`](Self::repair_root)
    /// before yielding to the simulation.
    pub fn purge_spaces(&self, spaces: &[SpaceId]) -> Vec<LostRegion> {
        assert!(!spaces.contains(&self.topo.root()), "the master host cannot be purged");
        let mut inner = self.inner.borrow_mut();
        for &s in spaces {
            if !inner.dead.contains(&s) {
                inner.dead.push(s);
            }
        }
        let mut lost = Vec::new();
        for (region, entry) in inner.regions.iter_mut() {
            let mut touched = false;
            for &s in spaces {
                if let Some(c) = entry.copies.remove(&s) {
                    touched = true;
                    if let CState::InFlight { done } = c.state {
                        done.set();
                    }
                }
            }
            if !touched {
                continue;
            }
            let best = entry
                .copies
                .values()
                .filter_map(|c| match c.state {
                    CState::Valid { version } => Some(version),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            if best < entry.version {
                lost.push(LostRegion { region: *region, latest: entry.version, best });
            }
        }
        lost.sort_by_key(|l| l.region);
        lost
    }

    /// Has `space` been declared dead by a purge?
    pub fn is_dead_space(&self, space: SpaceId) -> bool {
        self.inner.borrow().dead.contains(&space)
    }

    /// Move `data`'s directory home to `new_home` (its new home
    /// allocation `new_alloc`, sized `size`) after the previous home
    /// died with its node. Called by node-loss recovery at zero
    /// virtual time, after [`purge_spaces`](Self::purge_spaces) and
    /// *before* lineage reconstruction, with the master state borrowed
    /// and no simulator yields.
    ///
    /// For every tracked region of the data, the best surviving valid
    /// version is raw-copied into the new home allocation and becomes
    /// the (clean) home copy; regions whose latest version did not
    /// survive stay short of the dirty-cover invariant exactly as
    /// [`purge_spaces`](Self::purge_spaces) reported them, and lineage
    /// finishes the job through the re-pointed home.
    ///
    /// Fails — the caller must fail **closed**, never serve wrong
    /// bytes — when any byte of the object lies outside every tracked
    /// region (its only copy was the dead home allocation), when a
    /// region has no surviving valid copy at all (not even a base for
    /// replay), or when a live task holds a busy copy at `new_home`
    /// that cannot be displaced without yielding.
    /// On success returns the number of regions re-pointed.
    pub fn rehome_data(
        &self,
        data: DataId,
        size: u64,
        new_home: SpaceId,
        new_alloc: AllocId,
    ) -> Result<usize, String> {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let mut regions: Vec<Region> =
            inner.regions.keys().filter(|r| r.data == data).copied().collect();
        regions.sort();
        // Coverage: bytes outside every tracked region existed only in
        // the dead home allocation — no task ever named them, so no
        // survivor and no lineage can reproduce them.
        let mut covered = 0u64;
        for r in &regions {
            if r.offset > covered {
                break;
            }
            covered = covered.max(r.offset + r.len);
        }
        if covered < size {
            return Err(format!(
                "bytes {covered}..{size} of {data:?} lie outside every tracked region \
                 and died with the home node"
            ));
        }
        let moved = regions.len();
        for region in regions {
            let entry = inner.regions.get_mut(&region).expect("listed above");
            if let Some(c) = entry.copies.get(&new_home) {
                // A busy cached copy at the new home cannot be swapped
                // out from under its task without yielding.
                if c.pinned > 0 || matches!(c.state, CState::InFlight { .. }) {
                    return Err(format!("{region} has a busy copy at the new home {new_home:?}"));
                }
            }
            let best = entry
                .copies
                .values()
                .filter_map(|c| match c.state {
                    CState::Valid { version } => Some(version),
                    _ => None,
                })
                .max();
            let Some(best) = best else {
                return Err(format!("no surviving valid copy of {region} to re-home"));
            };
            // Deterministic source: the lowest-numbered space holding
            // the best version (mirrors pull_best_to_root).
            let (&src_space, src_c) = entry
                .copies
                .iter()
                .filter(|(_, c)| matches!(c.state, CState::Valid { version } if version == best))
                .min_by_key(|(&s, _)| s.0)
                .expect("best version has a holder");
            self.mem.copy(
                (src_space, src_c.alloc),
                src_c.offset,
                (new_home, new_alloc),
                region.offset,
                region.len,
            );
            // Displace any (idle) cached copy at the new home: the home
            // copy must live in the home allocation.
            if let Some(c) = entry.copies.remove(&new_home) {
                inner.stats.evictions += 1;
                self.mem.free(new_home, c.alloc);
            }
            let entry = inner.regions.get_mut(&region).expect("listed above");
            entry.home = new_home;
            entry.copies.insert(
                new_home,
                CopyState {
                    alloc: new_alloc,
                    offset: region.offset,
                    state: CState::Valid { version: best },
                    dirty: false,
                    pinned: 0,
                    last_use: 0,
                },
            );
            // The new home covers everything up to `best`: clean the
            // survivors it supersedes (latest copies past `best` keep
            // their dirty cover until lineage repairs the entry).
            for c in entry.copies.values_mut() {
                if matches!(c.state, CState::Valid { version } if version <= best) {
                    c.dirty = false;
                }
            }
        }
        Ok(moved)
    }

    /// Can `data`'s home move to `new_home` right now without yielding?
    /// True when every tracked region's home copy is idle (not pinned,
    /// not filling) and no busy copy sits at `new_home`. A planned
    /// rebalance *skips* data that is momentarily busy — the registry
    /// home stays authoritative wherever it points, so leaving a slice
    /// at its old owner is merely suboptimal, never wrong.
    pub fn migrate_ready(&self, data: DataId, new_home: SpaceId) -> bool {
        let inner = self.inner.borrow();
        inner.regions.iter().filter(|(r, _)| r.data == data).all(|(_, e)| {
            let home_idle = e
                .copies
                .get(&e.home)
                .is_none_or(|c| c.pinned == 0 && !matches!(c.state, CState::InFlight { .. }));
            let target_idle = new_home == e.home
                || e.copies
                    .get(&new_home)
                    .is_none_or(|c| c.pinned == 0 && !matches!(c.state, CState::InFlight { .. }));
            home_idle && target_idle
        })
    }

    /// Move `data`'s home from the **live** allocation `old` to
    /// `new_home`/`new_alloc` (sized `size`) — the planned counterpart
    /// of [`rehome_data`](Self::rehome_data), used by elastic
    /// membership where the old home's node is alive and every byte
    /// survives. Called registry-second (the memory registry has
    /// already re-pointed the data and handed out `new_alloc`), with the
    /// master state borrowed and no simulator yields, and only after
    /// [`migrate_ready`](Self::migrate_ready) said yes in the same
    /// critical section.
    ///
    /// The whole object is raw-copied (untracked bytes included — they
    /// exist only in the home allocation), then each tracked region's
    /// home copy moves to `new_home`. An idle cached copy already at
    /// `new_home` is compared by version: if it is **fresher** than the
    /// home copy (a write committed at the new owner's host that has
    /// not flushed yet) its bytes are promoted into the home allocation
    /// and its version carries over — displacing it would destroy the
    /// latest write; if it is stale or garbage it is displaced (the
    /// home copy must live in the home allocation). Either way its old
    /// cache allocation and the old home allocation are freed. Copies
    /// at other spaces are untouched. Returns `(regions_moved,
    /// bytes_moved)`.
    pub fn migrate_home(
        &self,
        data: DataId,
        size: u64,
        old: (SpaceId, AllocId),
        new_home: SpaceId,
        new_alloc: AllocId,
    ) -> (usize, u64) {
        let (old_home, old_alloc) = old;
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        self.mem.copy((old_home, old_alloc), 0, (new_home, new_alloc), 0, size);
        let mut regions: Vec<Region> =
            inner.regions.keys().filter(|r| r.data == data).copied().collect();
        regions.sort();
        let moved = regions.len();
        for region in regions {
            let entry = inner.regions.get_mut(&region).expect("listed above");
            assert_eq!(entry.home, old_home, "migrate_home: data split across homes");
            let home_copy = entry.copies.remove(&old_home);
            let local = entry.copies.remove(&new_home);
            let valid = |c: &Option<CopyState>| match c {
                Some(CopyState { state: CState::Valid { version }, .. }) => Some(*version),
                _ => None,
            };
            let promote = match (valid(&local), valid(&home_copy)) {
                (Some(lv), Some(hv)) => lv > hv,
                (Some(_), None) => true,
                (None, _) => false,
            };
            entry.home = new_home;
            if let Some(c) = local {
                debug_assert!(
                    c.pinned == 0 && !matches!(c.state, CState::InFlight { .. }),
                    "migrate_ready admitted a busy copy at the new home"
                );
                if promote {
                    // The new owner's host holds a version the moving
                    // home has not seen — its bytes become the home
                    // bytes, not the raw-copied stale ones.
                    self.mem.copy(
                        (new_home, c.alloc),
                        c.offset,
                        (new_home, new_alloc),
                        region.offset,
                        region.len,
                    );
                } else {
                    inner.stats.evictions += 1;
                }
                self.mem.free(new_home, c.alloc);
                if promote {
                    entry.copies.insert(
                        new_home,
                        CopyState { alloc: new_alloc, offset: region.offset, ..c },
                    );
                }
            }
            if !promote {
                if let Some(c) = home_copy {
                    entry.copies.insert(
                        new_home,
                        CopyState { alloc: new_alloc, offset: region.offset, ..c },
                    );
                }
            }
        }
        self.mem.free(old_home, old_alloc);
        self.debug_validate_locked(&guard, "migrate_home");
        (moved, size)
    }

    /// Materialise the best surviving version of `region` in its home
    /// allocation by raw byte copy (zero virtual time — recovery
    /// preamble, not modelled traffic). Returns `(best_version,
    /// bytes_copied)`; zero bytes when the home already holds it. Does
    /// not touch directory state — [`repair_root`](Self::repair_root)
    /// finalises once reconstruction is done. `None` when no valid copy
    /// survives anywhere (the home was mid-flight when its source
    /// died): the caller must fail closed, because the home bytes are
    /// then of an unknown version and replay could compound the error.
    pub fn pull_best_to_root(&self, region: &Region) -> Option<(u64, u64)> {
        let inner = self.inner.borrow();
        let entry = inner.regions.get(region)?;
        let home = entry.home;
        let best = entry
            .copies
            .values()
            .filter_map(|c| match c.state {
                CState::Valid { version } => Some(version),
                _ => None,
            })
            .max()?;
        if matches!(
            entry.copies.get(&home).map(|c| &c.state),
            Some(CState::Valid { version }) if *version >= best
        ) {
            return Some((best, 0));
        }
        // Deterministic source: the lowest-numbered space holding it.
        let (&src_space, src_c) = entry
            .copies
            .iter()
            .filter(|(_, c)| matches!(c.state, CState::Valid { version } if version == best))
            .min_by_key(|(&s, _)| s.0)
            .expect("best version has a holder");
        let home_c = entry.copies.get(&home).expect("home copy");
        self.mem.copy(
            (src_space, src_c.alloc),
            src_c.offset,
            (home, home_c.alloc),
            home_c.offset,
            region.len,
        );
        Some((best, region.len))
    }

    /// Whether the directory tracks `region` at all (any entry, any
    /// copy states). Recovery uses this to distinguish "never written
    /// by a task" (home bytes are the original data) from a tracked
    /// region whose version matters.
    pub fn has_region(&self, region: &Region) -> bool {
        self.inner.borrow().regions.contains_key(region)
    }

    /// Declare `version` of `region` reconstructed at its home: the
    /// directory version rolls back to it, the home copy becomes
    /// the authoritative valid-latest, and every surviving copy is
    /// cleaned. Only node-loss recovery calls this, after lineage
    /// re-execution materialised the bytes in the home allocation;
    /// rolled-back versions had copies only on the dead node and their
    /// successors were never released, so normal execution re-commits
    /// them from here.
    pub fn repair_root(&self, region: &Region, version: u64) {
        let mut inner = self.inner.borrow_mut();
        let entry = inner.regions.get_mut(region).expect("repair of unknown region");
        entry.version = version;
        let home = entry.home;
        let c = entry.copies.get_mut(&home).expect("home copy");
        if let CState::InFlight { done } = &c.state {
            // A flush toward the home was on the wire when the node
            // died; its source is gone, so it will resolve undelivered.
            // Wake its waiters now — the state below supersedes it.
            done.set();
        }
        c.state = CState::Valid { version };
        c.dirty = false;
        for c in entry.copies.values_mut() {
            c.dirty = false;
        }
        self.debug_validate_locked(&inner, "repair_root");
    }

    /// Valid-latest bytes of `region` at `space`.
    pub fn bytes_at(&self, region: &Region, space: SpaceId) -> u64 {
        let inner = self.inner.borrow();
        let Some(entry) = inner.regions.get(region) else {
            return 0;
        };
        match entry.copies.get(&space) {
            Some(c) if matches!(c.state, CState::Valid { version } if version == entry.version) => {
                region.len
            }
            _ => 0,
        }
    }

    /// Call `found` with every space holding the latest valid copy of
    /// `region` (each holds all `region.len` bytes), in no particular
    /// order, under one borrow — the scheduler's locality oracle.
    pub fn latest_holders(&self, region: &Region, mut found: impl FnMut(SpaceId)) {
        let inner = self.inner.borrow();
        let Some(entry) = inner.regions.get(region) else {
            return;
        };
        for (&space, c) in entry.copies.iter() {
            if matches!(c.state, CState::Valid { version } if version == entry.version) {
                found(space);
            }
        }
    }
}
