//! Memory spaces and the machine-wide memory manager.
//!
//! OmpSs assumes *multiple address spaces* (§II-A2 of the paper): the
//! master node's host memory, each remote node's host memory, and each
//! GPU's device memory are separate spaces; data becomes visible in a
//! space only when the runtime copies it there. This module provides
//! that substrate:
//!
//! * [`MemorySpace`]s with finite capacity and a name/hierarchy,
//! * allocations within a space, optionally backed by real bytes,
//! * byte-level `read`/`write`/`copy` between spaces.
//!
//! # Real vs. phantom backing
//!
//! Correctness tests run with [`Backing::Real`]: every allocation holds
//! actual bytes, copies move them, and task kernels compute on them, so
//! results can be validated against a serial implementation. The
//! paper-scale experiments (e.g. 12288² matrices replicated across 8
//! simulated nodes) would need tens of GB of host RAM, so benchmark
//! harnesses use [`Backing::Phantom`]: allocations are accounting-only,
//! copies still *cost virtual time* (charged by the transfer layers) but
//! move no bytes, and kernels skip their arithmetic.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;

use crate::region::DataId;
use crate::scalar::{cast_slice, cast_slice_mut, Scalar};

/// Identifier of a memory space, unique within a [`MemoryManager`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpaceId(pub u32);

/// Identifier of an allocation, unique across all spaces of a manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AllocId(pub u64);

/// Whether allocations carry real bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// Allocations hold real, initialised-to-zero bytes.
    Real,
    /// Allocations are size accounting only; data operations are no-ops.
    Phantom,
}

/// What kind of hardware a space models — used by affinity scoring and
/// the hierarchical directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpaceKind {
    /// Host memory of a cluster node (node index).
    Host(u32),
    /// Device memory of a GPU (`node`, `gpu index within node`).
    Gpu(u32, u32),
}

impl SpaceKind {
    /// The cluster node this space belongs to.
    pub fn node(self) -> u32 {
        match self {
            SpaceKind::Host(n) => n,
            SpaceKind::Gpu(n, _) => n,
        }
    }

    /// True if this is device (GPU) memory.
    pub fn is_gpu(self) -> bool {
        matches!(self, SpaceKind::Gpu(..))
    }
}

/// Allocation failure: the space cannot hold the request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutOfMemory {
    /// The space that rejected the allocation.
    pub space: SpaceId,
    /// Bytes requested.
    pub requested: u64,
    /// Bytes still free in the space.
    pub available: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "space {:?} out of memory: requested {} bytes, {} available",
            self.space, self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// 16-byte-aligned byte storage, so scalar views are always sound.
struct AlignedBytes {
    /// Backing store; `u128` guarantees 16-byte alignment.
    words: Vec<u128>,
    len: usize,
}

impl AlignedBytes {
    fn zeroed(len: usize) -> Self {
        AlignedBytes { words: vec![0u128; len.div_ceil(16)], len }
    }

    fn as_bytes(&self) -> &[u8] {
        // SAFETY: `words` owns at least `len` initialised bytes.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr() as *const u8, self.len) }
    }

    fn as_bytes_mut(&mut self) -> &mut [u8] {
        // SAFETY: `words` owns at least `len` initialised bytes.
        unsafe { std::slice::from_raw_parts_mut(self.words.as_mut_ptr() as *mut u8, self.len) }
    }
}

struct Allocation {
    size: u64,
    /// `None` for phantom allocations.
    bytes: Option<Rc<RefCell<AlignedBytes>>>,
}

/// One address space: capacity accounting plus its allocations.
struct SpaceInner {
    name: String,
    kind: SpaceKind,
    parent: Option<SpaceId>,
    capacity: u64,
    used: u64,
    allocs: HashMap<AllocId, Allocation>,
    peak_used: u64,
}

/// Descriptive, copyable facts about a space.
#[derive(Debug, Clone)]
pub struct SpaceInfo {
    /// Human-readable name (e.g. `node1:gpu0`).
    pub name: String,
    /// Hardware kind.
    pub kind: SpaceKind,
    /// Enclosing space in the memory hierarchy (a GPU's parent is its
    /// node's host space; a slave host's parent is the master host).
    pub parent: Option<SpaceId>,
    /// Total capacity in bytes.
    pub capacity: u64,
}

/// Registered data-object metadata.
#[derive(Debug, Clone, Copy)]
pub struct DataInfo {
    /// Total object size in bytes.
    pub size: u64,
    /// The space holding the authoritative initial copy.
    pub home_space: SpaceId,
    /// Allocation of the home copy.
    pub home_alloc: AllocId,
}

struct ManagerInner {
    spaces: Vec<SpaceInner>,
    next_alloc: u64,
    next_data: u64,
    data: HashMap<DataId, DataInfo>,
}

/// The machine-wide memory model: all spaces, allocations and registered
/// data objects. Byte movement here is *instantaneous* — virtual-time
/// cost is charged by the transfer layers (PCIe links, network) that
/// call into it.
///
/// A cheap handle: clones share one manager. It belongs to the
/// simulation thread (an `Rc` over a `RefCell`), like the run that
/// owns it.
#[derive(Clone)]
pub struct MemoryManager {
    backing: Backing,
    inner: Rc<RefCell<ManagerInner>>,
}

impl MemoryManager {
    /// Create a manager; `backing` applies to every allocation.
    pub fn new(backing: Backing) -> Self {
        MemoryManager {
            backing,
            inner: Rc::new(RefCell::new(ManagerInner {
                spaces: Vec::new(),
                next_alloc: 0,
                next_data: 0,
                data: HashMap::new(),
            })),
        }
    }

    /// The backing mode of this manager.
    pub fn backing(&self) -> Backing {
        self.backing
    }

    /// True if allocations carry real bytes.
    pub fn is_real(&self) -> bool {
        self.backing == Backing::Real
    }

    /// Add a space with the given capacity (bytes).
    pub fn add_space(
        &self,
        name: impl Into<String>,
        kind: SpaceKind,
        parent: Option<SpaceId>,
        capacity: u64,
    ) -> SpaceId {
        let mut inner = self.inner.borrow_mut();
        let id = SpaceId(inner.spaces.len() as u32);
        inner.spaces.push(SpaceInner {
            name: name.into(),
            kind,
            parent,
            capacity,
            used: 0,
            allocs: HashMap::new(),
            peak_used: 0,
        });
        id
    }

    /// Facts about a space.
    pub fn space_info(&self, space: SpaceId) -> SpaceInfo {
        let inner = self.inner.borrow();
        let s = &inner.spaces[space.0 as usize];
        SpaceInfo { name: s.name.clone(), kind: s.kind, parent: s.parent, capacity: s.capacity }
    }

    /// Number of spaces registered.
    pub fn space_count(&self) -> usize {
        self.inner.borrow().spaces.len()
    }

    /// Bytes currently allocated in a space.
    pub fn used(&self, space: SpaceId) -> u64 {
        self.inner.borrow().spaces[space.0 as usize].used
    }

    /// High-water mark of bytes allocated in a space.
    pub fn peak_used(&self, space: SpaceId) -> u64 {
        self.inner.borrow().spaces[space.0 as usize].peak_used
    }

    /// Bytes still free in a space.
    pub fn available(&self, space: SpaceId) -> u64 {
        let inner = self.inner.borrow();
        let s = &inner.spaces[space.0 as usize];
        s.capacity - s.used
    }

    /// Allocate `size` bytes in `space`. Zero-initialised when real.
    pub fn alloc(&self, space: SpaceId, size: u64) -> Result<AllocId, OutOfMemory> {
        let mut inner = self.inner.borrow_mut();
        let next = inner.next_alloc;
        let s = &mut inner.spaces[space.0 as usize];
        if s.used + size > s.capacity {
            return Err(OutOfMemory { space, requested: size, available: s.capacity - s.used });
        }
        s.used += size;
        s.peak_used = s.peak_used.max(s.used);
        let id = AllocId(next);
        let bytes = match self.backing {
            Backing::Real => Some(Rc::new(RefCell::new(AlignedBytes::zeroed(size as usize)))),
            Backing::Phantom => None,
        };
        s.allocs.insert(id, Allocation { size, bytes });
        inner.next_alloc += 1;
        Ok(id)
    }

    /// Free an allocation, returning its bytes to the space.
    ///
    /// # Panics
    ///
    /// Panics if the allocation does not exist in the space — a
    /// double-free in the coherence layer.
    pub fn free(&self, space: SpaceId, alloc: AllocId) {
        let mut inner = self.inner.borrow_mut();
        let s = &mut inner.spaces[space.0 as usize];
        let a = s
            .allocs
            .remove(&alloc)
            .unwrap_or_else(|| panic!("free of unknown allocation {alloc:?} in space {space:?}"));
        s.used -= a.size;
    }

    /// Size of an allocation.
    pub fn alloc_size(&self, space: SpaceId, alloc: AllocId) -> u64 {
        self.inner.borrow().spaces[space.0 as usize].allocs[&alloc].size
    }

    fn bytes_handle(&self, space: SpaceId, alloc: AllocId) -> Option<Rc<RefCell<AlignedBytes>>> {
        let inner = self.inner.borrow();
        inner.spaces[space.0 as usize]
            .allocs
            .get(&alloc)
            .unwrap_or_else(|| panic!("unknown allocation {alloc:?} in space {space:?}"))
            .bytes
            .clone()
    }

    /// Copy `len` bytes between allocations (possibly across spaces).
    /// No-op under phantom backing. Instantaneous — callers charge time.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds ranges, or when source and destination
    /// are the same allocation (the runtime never needs self-copies).
    pub fn copy(
        &self,
        src: (SpaceId, AllocId),
        src_off: u64,
        dst: (SpaceId, AllocId),
        dst_off: u64,
        len: u64,
    ) {
        if self.backing == Backing::Phantom {
            return;
        }
        assert_ne!(src.1, dst.1, "self-copy within one allocation is not supported");
        let src_h = self.bytes_handle(src.0, src.1).expect("real backing");
        let dst_h = self.bytes_handle(dst.0, dst.1).expect("real backing");
        let src_b = src_h.borrow();
        let mut dst_b = dst_h.borrow_mut();
        let s = &src_b.as_bytes()[src_off as usize..(src_off + len) as usize];
        let d = &mut dst_b.as_bytes_mut()[dst_off as usize..(dst_off + len) as usize];
        d.copy_from_slice(s);
    }

    /// Write bytes into an allocation. No-op under phantom backing.
    pub fn write(&self, space: SpaceId, alloc: AllocId, offset: u64, data: &[u8]) {
        if self.backing == Backing::Phantom {
            return;
        }
        let h = self.bytes_handle(space, alloc).expect("real backing");
        let mut b = h.borrow_mut();
        b.as_bytes_mut()[offset as usize..offset as usize + data.len()].copy_from_slice(data);
    }

    /// Read bytes out of an allocation. Under phantom backing the
    /// destination is left untouched.
    pub fn read(&self, space: SpaceId, alloc: AllocId, offset: u64, out: &mut [u8]) {
        if self.backing == Backing::Phantom {
            return;
        }
        let h = self.bytes_handle(space, alloc).expect("real backing");
        let b = h.borrow();
        out.copy_from_slice(&b.as_bytes()[offset as usize..offset as usize + out.len()]);
    }

    /// Run `f` over an immutable scalar view of `[offset, offset+len)`.
    /// Under phantom backing `f` is *not called* and `None` is returned.
    pub fn with_slice<T: Scalar, R>(
        &self,
        space: SpaceId,
        alloc: AllocId,
        offset: u64,
        len: u64,
        f: impl FnOnce(&[T]) -> R,
    ) -> Option<R> {
        let h = self.bytes_handle(space, alloc)?;
        let b = h.borrow();
        Some(f(cast_slice(&b.as_bytes()[offset as usize..(offset + len) as usize])))
    }

    /// Run `f` over a mutable scalar view of `[offset, offset+len)`.
    /// Under phantom backing `f` is *not called* and `None` is returned.
    pub fn with_slice_mut<T: Scalar, R>(
        &self,
        space: SpaceId,
        alloc: AllocId,
        offset: u64,
        len: u64,
        f: impl FnOnce(&mut [T]) -> R,
    ) -> Option<R> {
        let h = self.bytes_handle(space, alloc)?;
        let mut b = h.borrow_mut();
        Some(f(cast_slice_mut(&mut b.as_bytes_mut()[offset as usize..(offset + len) as usize])))
    }

    /// Run `f` over mutable views of *several* allocations at once (e.g.
    /// the A, B and C tiles of a GEMM task). Views are passed in request
    /// order. Under phantom backing `f` is not called.
    ///
    /// Multiple requests may target the same allocation provided their
    /// byte ranges are disjoint (e.g. two tile regions of one host home
    /// allocation) — the allocation is borrowed once and split.
    ///
    /// # Panics
    ///
    /// Panics if two requests on the same allocation overlap — the
    /// dependence system never maps overlapping regions to one task.
    pub fn with_bytes_many<R>(
        &self,
        requests: &[(SpaceId, AllocId, u64, u64)],
        f: impl FnOnce(&mut [&mut [u8]]) -> R,
    ) -> Option<R> {
        for (i, a) in requests.iter().enumerate() {
            for b in &requests[i + 1..] {
                if a.1 == b.1 {
                    let disjoint = a.2 + a.3 <= b.2 || b.2 + b.3 <= a.2;
                    assert!(disjoint, "overlapping views of one allocation in with_bytes_many");
                }
            }
        }
        // Borrow each distinct allocation exactly once.
        let mut distinct: Vec<AllocId> = requests.iter().map(|r| r.1).collect();
        distinct.sort();
        distinct.dedup();
        let handles: Option<Vec<_>> = distinct
            .iter()
            .map(|&a| {
                let &(s, _, _, _) = requests.iter().find(|r| r.1 == a).expect("from requests");
                self.bytes_handle(s, a)
            })
            .collect();
        let handles = handles?;
        let mut guards: Vec<_> = handles.iter().map(|h| h.borrow_mut()).collect();
        // Carve every requested range out of its guard. Each range is
        // disjoint (checked above), so handing out one mutable slice per
        // request is sound; we go through raw pointers because the
        // borrow checker cannot see the disjointness.
        let mut views: Vec<&mut [u8]> = Vec::with_capacity(requests.len());
        for &(_, alloc, off, len) in requests {
            let gi = distinct.binary_search(&alloc).expect("alloc collected above");
            let bytes = guards[gi].as_bytes_mut();
            assert!((off + len) as usize <= bytes.len(), "view out of bounds");
            // SAFETY: ranges within one allocation are pairwise disjoint
            // (asserted above); distinct allocations are distinct
            // buffers; the guards outlive `views` and `f`.
            let view = unsafe {
                std::slice::from_raw_parts_mut(bytes.as_mut_ptr().add(off as usize), len as usize)
            };
            views.push(view);
        }
        Some(f(&mut views))
    }

    // -- data-object registry ------------------------------------------------

    /// Register a user data object of `size` bytes with its home copy in
    /// `home_space` (allocated here).
    pub fn register_data(&self, size: u64, home_space: SpaceId) -> Result<DataId, OutOfMemory> {
        let home_alloc = self.alloc(home_space, size)?;
        let mut inner = self.inner.borrow_mut();
        let id = DataId(inner.next_data);
        inner.next_data += 1;
        inner.data.insert(id, DataInfo { size, home_space, home_alloc });
        Ok(id)
    }

    /// Metadata of a registered data object.
    pub fn data_info(&self, id: DataId) -> DataInfo {
        *self.inner.borrow().data.get(&id).unwrap_or_else(|| panic!("unknown data object {id:?}"))
    }

    /// Number of registered data objects.
    pub fn data_count(&self) -> usize {
        self.inner.borrow().data.len()
    }

    /// The id the next [`Self::register_data`] call will assign. Ids are
    /// sequential and never reused, so this equals [`Self::data_count`];
    /// the sharded runtime uses it to route an allocation to its shard
    /// owner *before* registering it there.
    pub fn next_data_id(&self) -> DataId {
        DataId(self.inner.borrow().next_data)
    }

    /// All data objects whose home copy lives in `space`, with their
    /// sizes, sorted by id — the shard a node owns, enumerated when
    /// that node dies and its directory shard must be re-homed.
    pub fn datas_homed_at(&self, space: SpaceId) -> Vec<(DataId, u64)> {
        let inner = self.inner.borrow();
        let mut v: Vec<(DataId, u64)> = inner
            .data
            .iter()
            .filter(|(_, info)| info.home_space == space)
            .map(|(id, info)| (*id, info.size))
            .collect();
        v.sort_unstable();
        v
    }

    /// Move a data object's home to `new_home`: allocates a fresh home
    /// copy there and re-points the registry. The *bytes* of the new
    /// home copy are the coherence layer's job
    /// (`Coherence::rehome_data`); the old home allocation is not freed
    /// — re-homing only happens when the old home's node is dead and
    /// its space purged. Returns the new home allocation.
    pub fn rehome_data(&self, id: DataId, new_home: SpaceId) -> Result<AllocId, OutOfMemory> {
        let size = self.data_info(id).size;
        let alloc = self.alloc(new_home, size)?;
        let mut inner = self.inner.borrow_mut();
        let info = inner.data.get_mut(&id).expect("data_info above checked existence");
        info.home_space = new_home;
        info.home_alloc = alloc;
        Ok(alloc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> MemoryManager {
        MemoryManager::new(Backing::Real)
    }

    #[test]
    fn alloc_free_accounting() {
        let m = mgr();
        let s = m.add_space("host", SpaceKind::Host(0), None, 100);
        let a = m.alloc(s, 60).unwrap();
        assert_eq!(m.used(s), 60);
        assert_eq!(m.available(s), 40);
        let b = m.alloc(s, 40).unwrap();
        assert_eq!(m.available(s), 0);
        m.free(s, a);
        assert_eq!(m.used(s), 40);
        m.free(s, b);
        assert_eq!(m.used(s), 0);
        assert_eq!(m.peak_used(s), 100);
    }

    #[test]
    fn oom_reports_availability() {
        let m = mgr();
        let s = m.add_space("gpu", SpaceKind::Gpu(0, 0), None, 10);
        let _a = m.alloc(s, 8).unwrap();
        let err = m.alloc(s, 4).unwrap_err();
        assert_eq!(err, OutOfMemory { space: s, requested: 4, available: 2 });
    }

    #[test]
    fn copy_moves_real_bytes_across_spaces() {
        let m = mgr();
        let host = m.add_space("host", SpaceKind::Host(0), None, 1024);
        let gpu = m.add_space("gpu", SpaceKind::Gpu(0, 0), Some(host), 1024);
        let a = m.alloc(host, 16).unwrap();
        let b = m.alloc(gpu, 16).unwrap();
        m.write(host, a, 0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        m.copy((host, a), 2, (gpu, b), 4, 4);
        let mut out = [0u8; 4];
        m.read(gpu, b, 4, &mut out);
        assert_eq!(out, [3, 4, 5, 6]);
    }

    #[test]
    fn allocations_zero_initialised() {
        let m = mgr();
        let s = m.add_space("host", SpaceKind::Host(0), None, 64);
        let a = m.alloc(s, 32).unwrap();
        let mut out = [0xAAu8; 32];
        m.read(s, a, 0, &mut out);
        assert_eq!(out, [0u8; 32]);
    }

    #[test]
    fn typed_views_roundtrip() {
        let m = mgr();
        let s = m.add_space("host", SpaceKind::Host(0), None, 64);
        let a = m.alloc(s, 32).unwrap();
        m.with_slice_mut::<f32, _>(s, a, 0, 16, |xs| {
            xs.copy_from_slice(&[1.5, 2.5, 3.5, 4.5]);
        })
        .unwrap();
        let sum = m.with_slice::<f32, _>(s, a, 0, 16, |xs| xs.iter().sum::<f32>()).unwrap();
        assert_eq!(sum, 12.0);
        // Offset views stay aligned for f32 (offset multiple of 4).
        let v = m.with_slice::<f32, _>(s, a, 4, 8, |xs| xs.to_vec()).unwrap();
        assert_eq!(v, vec![2.5, 3.5]);
    }

    #[test]
    fn with_bytes_many_gives_simultaneous_views() {
        let m = mgr();
        let s = m.add_space("host", SpaceKind::Host(0), None, 64);
        let a = m.alloc(s, 8).unwrap();
        let b = m.alloc(s, 8).unwrap();
        m.write(s, a, 0, &[9; 8]);
        m.with_bytes_many(&[(s, a, 0, 8), (s, b, 0, 8)], |views| {
            let (src, rest) = views.split_first_mut().unwrap();
            rest[0].copy_from_slice(src);
        })
        .unwrap();
        let mut out = [0u8; 8];
        m.read(s, b, 0, &mut out);
        assert_eq!(out, [9; 8]);
    }

    #[test]
    fn with_bytes_many_splits_disjoint_ranges_of_one_allocation() {
        let m = mgr();
        let s = m.add_space("host", SpaceKind::Host(0), None, 64);
        let a = m.alloc(s, 8).unwrap();
        m.write(s, a, 0, &[1, 2, 3, 4, 0, 0, 0, 0]);
        m.with_bytes_many(&[(s, a, 0, 4), (s, a, 4, 4)], |views| {
            let (lo, hi) = views.split_first_mut().unwrap();
            hi[0].copy_from_slice(lo);
        })
        .unwrap();
        let mut out = [0u8; 8];
        m.read(s, a, 0, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "overlapping views")]
    fn with_bytes_many_rejects_overlapping_ranges() {
        let m = mgr();
        let s = m.add_space("host", SpaceKind::Host(0), None, 64);
        let a = m.alloc(s, 8).unwrap();
        m.with_bytes_many(&[(s, a, 0, 6), (s, a, 4, 4)], |_| ());
    }

    #[test]
    fn phantom_backing_accounts_but_moves_nothing() {
        let m = MemoryManager::new(Backing::Phantom);
        let s = m.add_space("host", SpaceKind::Host(0), None, 100);
        let a = m.alloc(s, 60).unwrap();
        assert_eq!(m.used(s), 60);
        // All data ops are no-ops and typed views return None.
        m.write(s, a, 0, &[1, 2, 3]);
        let mut out = [7u8; 3];
        m.read(s, a, 0, &mut out);
        assert_eq!(out, [7, 7, 7], "phantom read leaves destination untouched");
        assert!(m.with_slice::<u8, _>(s, a, 0, 3, |_| ()).is_none());
        // OOM still enforced.
        assert!(m.alloc(s, 50).is_err());
    }

    #[test]
    #[should_panic(expected = "free of unknown allocation")]
    fn double_free_panics() {
        let m = mgr();
        let s = m.add_space("host", SpaceKind::Host(0), None, 100);
        let a = m.alloc(s, 10).unwrap();
        m.free(s, a);
        m.free(s, a);
    }

    #[test]
    fn register_data_allocates_home_copy() {
        let m = mgr();
        let s = m.add_space("host", SpaceKind::Host(0), None, 1024);
        let id = m.register_data(128, s).unwrap();
        let info = m.data_info(id);
        assert_eq!(info.size, 128);
        assert_eq!(info.home_space, s);
        assert_eq!(m.used(s), 128);
        assert_eq!(m.data_count(), 1);
    }

    #[test]
    fn rehome_repoints_registry_and_enumeration() {
        let m = mgr();
        let s0 = m.add_space("host0", SpaceKind::Host(0), None, 1024);
        let s1 = m.add_space("host1", SpaceKind::Host(1), Some(s0), 1024);
        assert_eq!(m.next_data_id(), DataId(0));
        let a = m.register_data(64, s1).unwrap();
        let b = m.register_data(32, s1).unwrap();
        assert_eq!(m.next_data_id(), DataId(2));
        assert_eq!(m.datas_homed_at(s1), vec![(a, 64), (b, 32)]);
        let new_alloc = m.rehome_data(a, s0).unwrap();
        let info = m.data_info(a);
        assert_eq!(info.home_space, s0);
        assert_eq!(info.home_alloc, new_alloc);
        assert_eq!(m.datas_homed_at(s1), vec![(b, 32)]);
        assert_eq!(m.datas_homed_at(s0), vec![(a, 64)]);
    }

    #[test]
    fn space_kind_helpers() {
        assert_eq!(SpaceKind::Host(3).node(), 3);
        assert_eq!(SpaceKind::Gpu(2, 1).node(), 2);
        assert!(SpaceKind::Gpu(0, 0).is_gpu());
        assert!(!SpaceKind::Host(0).is_gpu());
    }
}
