//! Integration tests of the coherence engine over a small machine
//! model: a master host with two GPUs, plus (for cluster cases) two
//! slave hosts each with one GPU.

use std::cell::RefCell;
use std::rc::Rc;

use ompss_coherence::{
    CachePolicy, Coherence, HopExec, HopFuture, HopKind, Loc, SlaveRouting, Topology,
    TransferPurpose,
};
use ompss_mem::{Access, Backing, MemoryManager, Region, SpaceId, SpaceKind};
use std::future::Future;

use ompss_sim::{delay, now, spawn, Sim, SimDuration};

/// Executes hops at 1 ns/byte (PCIe) and 2 ns/byte (network), moving
/// the real bytes and recording a log.
struct TestExec {
    mem: MemoryManager,
    log: RefCell<Vec<(HopKind, SpaceId, SpaceId, u64)>>,
}

impl TestExec {
    fn new(mem: MemoryManager) -> Self {
        TestExec { mem, log: RefCell::new(Vec::new()) }
    }

    fn hops(&self) -> Vec<(HopKind, SpaceId, SpaceId, u64)> {
        self.log.borrow().clone()
    }
}

impl HopExec for TestExec {
    fn hop<'a>(
        &'a self,
        kind: HopKind,
        _purpose: TransferPurpose,
        src: Loc,
        dst: Loc,
        bytes: u64,
    ) -> HopFuture<'a> {
        Box::pin(async move {
            let per_byte = match kind {
                HopKind::Pcie => 1,
                HopKind::Network => 2,
            };
            delay(SimDuration::from_nanos(bytes * per_byte)).await?;
            self.mem.copy(
                (src.space, src.alloc),
                src.offset,
                (dst.space, dst.alloc),
                dst.offset,
                bytes,
            );
            self.log.borrow_mut().push((kind, src.space, dst.space, bytes));
            Ok(true)
        })
    }
}

/// A master host (space 0, root) with two GPU spaces. GPU capacity is
/// configurable to exercise eviction.
struct SingleNode {
    mem: MemoryManager,
    host: SpaceId,
    gpu0: SpaceId,
    gpu1: SpaceId,
    topo: Topology,
}

fn single_node(gpu_capacity: u64) -> SingleNode {
    let mem = MemoryManager::new(Backing::Real);
    let host = mem.add_space("host", SpaceKind::Host(0), None, 1 << 30);
    let gpu0 = mem.add_space("gpu0", SpaceKind::Gpu(0, 0), Some(host), gpu_capacity);
    let gpu1 = mem.add_space("gpu1", SpaceKind::Gpu(0, 1), Some(host), gpu_capacity);
    let mut topo = Topology::new(host, SlaveRouting::Direct);
    topo.add_gpu(gpu0, host);
    topo.add_gpu(gpu1, host);
    SingleNode { mem, host, gpu0, gpu1, topo }
}

fn run_sim<Fut>(f: Fut)
where
    Fut: Future<Output = ()> + 'static,
{
    let sim = Sim::new();
    sim.spawn("test", f);
    sim.run().unwrap();
}

fn region(mem: &MemoryManager, host: SpaceId, len: u64) -> Region {
    let data = mem.register_data(len, host).unwrap();
    Region::new(data, 0, len)
}

#[test]
fn first_read_pulls_from_home_then_hits() {
    let n = single_node(1 << 20);
    let coh = Rc::new(Coherence::new(n.mem.clone(), n.topo.clone(), CachePolicy::WriteBack));
    let exec = Rc::new(TestExec::new(n.mem.clone()));
    let r = region(&n.mem, n.host, 256);
    // Put a recognisable pattern in the home copy.
    let info = n.mem.data_info(r.data);
    n.mem.write(n.host, info.home_alloc, 0, &[7u8; 256]);
    let (gpu0, mem) = (n.gpu0, n.mem.clone());
    run_sim(async move {
        let loc = coh.acquire(&*exec, &r, true, gpu0).await.unwrap();
        assert_eq!(loc.space, gpu0);
        let mut buf = [0u8; 256];
        mem.read(gpu0, loc.alloc, loc.offset, &mut buf);
        assert_eq!(buf, [7u8; 256], "real bytes followed the transfer");
        assert_eq!(exec.hops(), vec![(HopKind::Pcie, SpaceId(0), gpu0, 256)]);
        assert_eq!(now().as_nanos(), 256, "transfer charged 1 ns/byte");
        coh.commit(&*exec, &[Access::input(r)], gpu0).await.unwrap();
        // Second acquire is a hit: no new transfer, no time.
        let before = now();
        coh.acquire(&*exec, &r, true, gpu0).await.unwrap();
        assert_eq!(now(), before);
        assert_eq!(exec.hops().len(), 1);
        let st = coh.stats();
        assert_eq!(st.hits, 1);
        assert_eq!(st.misses, 1);
        coh.commit(&*exec, &[Access::input(r)], gpu0).await.unwrap();
    });
}

#[test]
fn output_only_acquire_moves_nothing() {
    let n = single_node(1 << 20);
    let coh = Rc::new(Coherence::new(n.mem.clone(), n.topo.clone(), CachePolicy::WriteBack));
    let exec = Rc::new(TestExec::new(n.mem.clone()));
    let r = region(&n.mem, n.host, 128);
    let gpu0 = n.gpu0;
    run_sim(async move {
        coh.acquire(&*exec, &r, false, gpu0).await.unwrap();
        assert!(exec.hops().is_empty(), "write-only placement must not transfer");
        assert_eq!(now().as_nanos(), 0);
        coh.commit(&*exec, &[Access::output(r)], gpu0).await.unwrap();
    });
}

#[test]
fn writeback_defers_and_reader_pulls_from_writer() {
    let n = single_node(1 << 20);
    let coh = Rc::new(Coherence::new(n.mem.clone(), n.topo.clone(), CachePolicy::WriteBack));
    let exec = Rc::new(TestExec::new(n.mem.clone()));
    let r = region(&n.mem, n.host, 64);
    let (gpu0, gpu1, mem) = (n.gpu0, n.gpu1, n.mem.clone());
    run_sim(async move {
        // Writer on gpu0.
        let loc = coh.acquire(&*exec, &r, false, gpu0).await.unwrap();
        mem.write(gpu0, loc.alloc, loc.offset, &[9u8; 64]);
        coh.commit(&*exec, &[Access::output(r)], gpu0).await.unwrap();
        assert!(exec.hops().is_empty(), "write-back: no eager propagation");
        // Reader on gpu1: data routes gpu0 -> host -> gpu1.
        let loc1 = coh.acquire(&*exec, &r, true, gpu1).await.unwrap();
        let mut buf = [0u8; 64];
        mem.read(gpu1, loc1.alloc, loc1.offset, &mut buf);
        assert_eq!(buf, [9u8; 64]);
        let hops = exec.hops();
        assert_eq!(
            hops,
            vec![(HopKind::Pcie, gpu0, SpaceId(0), 64), (HopKind::Pcie, SpaceId(0), gpu1, 64)]
        );
        coh.commit(&*exec, &[Access::input(r)], gpu1).await.unwrap();
    });
}

#[test]
fn write_through_pushes_at_commit() {
    let n = single_node(1 << 20);
    let coh = Rc::new(Coherence::new(n.mem.clone(), n.topo.clone(), CachePolicy::WriteThrough));
    let exec = Rc::new(TestExec::new(n.mem.clone()));
    let r = region(&n.mem, n.host, 64);
    let (gpu0, host, mem) = (n.gpu0, n.host, n.mem.clone());
    run_sim(async move {
        let loc = coh.acquire(&*exec, &r, false, gpu0).await.unwrap();
        mem.write(gpu0, loc.alloc, loc.offset, &[3u8; 64]);
        coh.commit(&*exec, &[Access::output(r)], gpu0).await.unwrap();
        assert_eq!(exec.hops(), vec![(HopKind::Pcie, gpu0, host, 64)]);
        // The home allocation holds the new data.
        let info = mem.data_info(r.data);
        let mut buf = [0u8; 64];
        mem.read(host, info.home_alloc, 0, &mut buf);
        assert_eq!(buf, [3u8; 64]);
        // The GPU copy is retained (unlike no-cache): re-acquire = hit.
        let before = exec.hops().len();
        coh.acquire(&*exec, &r, true, gpu0).await.unwrap();
        assert_eq!(exec.hops().len(), before);
        coh.commit(&*exec, &[Access::input(r)], gpu0).await.unwrap();
    });
}

#[test]
fn no_cache_drops_copies_after_commit() {
    let n = single_node(1 << 20);
    let coh = Rc::new(Coherence::new(n.mem.clone(), n.topo.clone(), CachePolicy::NoCache));
    let exec = Rc::new(TestExec::new(n.mem.clone()));
    let r = region(&n.mem, n.host, 64);
    let (gpu0, mem) = (n.gpu0, n.mem.clone());
    run_sim(async move {
        coh.acquire(&*exec, &r, true, gpu0).await.unwrap();
        coh.commit(&*exec, &[Access::input(r)], gpu0).await.unwrap();
        assert_eq!(mem.used(gpu0), 0, "no-cache frees the GPU copy at commit");
        // Next task transfers again.
        coh.acquire(&*exec, &r, true, gpu0).await.unwrap();
        assert_eq!(exec.hops().len(), 2);
        coh.commit(&*exec, &[Access::input(r)], gpu0).await.unwrap();
    });
}

#[test]
fn taskwait_flush_brings_dirty_data_home() {
    let n = single_node(1 << 20);
    let coh = Rc::new(Coherence::new(n.mem.clone(), n.topo.clone(), CachePolicy::WriteBack));
    let exec = Rc::new(TestExec::new(n.mem.clone()));
    let r = region(&n.mem, n.host, 64);
    let (gpu0, host, mem) = (n.gpu0, n.host, n.mem.clone());
    run_sim(async move {
        let loc = coh.acquire(&*exec, &r, false, gpu0).await.unwrap();
        mem.write(gpu0, loc.alloc, loc.offset, &[5u8; 64]);
        coh.commit(&*exec, &[Access::output(r)], gpu0).await.unwrap();
        coh.flush_all(&*exec).await.unwrap();
        let info = mem.data_info(r.data);
        let mut buf = [0u8; 64];
        mem.read(host, info.home_alloc, 0, &mut buf);
        assert_eq!(buf, [5u8; 64]);
        // Flushing again is free: nothing dirty remains.
        let before = exec.hops().len();
        coh.flush_all(&*exec).await.unwrap();
        assert_eq!(exec.hops().len(), before);
    });
}

#[test]
fn lru_eviction_writes_back_dirty_victim() {
    // GPU fits exactly two 64-byte regions; touching a third evicts the
    // least recently used (dirty) one, which must be written back first.
    let n = single_node(128);
    let coh = Rc::new(Coherence::new(n.mem.clone(), n.topo.clone(), CachePolicy::WriteBack));
    let exec = Rc::new(TestExec::new(n.mem.clone()));
    let r1 = region(&n.mem, n.host, 64);
    let r2 = region(&n.mem, n.host, 64);
    let r3 = region(&n.mem, n.host, 64);
    let (gpu0, host, mem) = (n.gpu0, n.host, n.mem.clone());
    run_sim(async move {
        // Dirty r1 on the GPU.
        let loc = coh.acquire(&*exec, &r1, false, gpu0).await.unwrap();
        mem.write(gpu0, loc.alloc, loc.offset, &[1u8; 64]);
        coh.commit(&*exec, &[Access::output(r1)], gpu0).await.unwrap();
        // Clean r2 on the GPU (r1 becomes LRU).
        coh.acquire(&*exec, &r2, true, gpu0).await.unwrap();
        coh.commit(&*exec, &[Access::input(r2)], gpu0).await.unwrap();
        // r3 needs room: r1 must be written back and evicted.
        coh.acquire(&*exec, &r3, true, gpu0).await.unwrap();
        coh.commit(&*exec, &[Access::input(r3)], gpu0).await.unwrap();
        let st = coh.stats();
        assert_eq!(st.evictions, 1);
        assert_eq!(st.writebacks, 1);
        assert_eq!(st.writeback_bytes, 64);
        // The written-back data reached the home.
        let info = mem.data_info(r1.data);
        let mut buf = [0u8; 64];
        mem.read(host, info.home_alloc, 0, &mut buf);
        assert_eq!(buf, [1u8; 64]);
        // r1 is gone from the GPU but r2 survived (it was more recent).
        assert_eq!(coh.bytes_at(&r1, gpu0), 0);
        assert_eq!(coh.bytes_at(&r2, gpu0), 64);
    });
}

#[test]
#[should_panic(expected = "cache thrash")]
fn all_pinned_cache_panics_with_diagnosis() {
    let n = single_node(64);
    let coh = Rc::new(Coherence::new(n.mem.clone(), n.topo.clone(), CachePolicy::WriteBack));
    let exec = Rc::new(TestExec::new(n.mem.clone()));
    let r1 = region(&n.mem, n.host, 64);
    let r2 = region(&n.mem, n.host, 64);
    let gpu0 = n.gpu0;
    let sim = Sim::new();
    sim.spawn("test", async move {
        // r1 pinned (no commit), r2 cannot fit.
        coh.acquire(&*exec, &r1, true, gpu0).await.unwrap();
        let _ = coh.acquire(&*exec, &r2, true, gpu0).await;
    });
    if let Err(e) = sim.run() {
        panic!("{e}");
    }
}

#[test]
fn inflight_transfers_are_deduplicated() {
    let n = single_node(1 << 20);
    let coh = Rc::new(Coherence::new(n.mem.clone(), n.topo.clone(), CachePolicy::WriteBack));
    let exec = Rc::new(TestExec::new(n.mem.clone()));
    let r = region(&n.mem, n.host, 1024);
    let gpu0 = n.gpu0;
    let sim = Sim::new();
    // Two processes demand the same region on the same GPU at once.
    for name in ["a", "b"] {
        let coh = coh.clone();
        let exec = exec.clone();
        sim.spawn(name, async move {
            coh.acquire(&*exec, &r, true, gpu0).await.unwrap();
            coh.unpin(&r, gpu0);
        });
    }
    sim.run().unwrap();
    assert_eq!(exec.hops().len(), 1, "second requester waited on the in-flight copy");
}

#[test]
fn cluster_routes_respect_slave_routing_mode() {
    for (routing, expected_net_hops) in
        [(SlaveRouting::Direct, 1usize), (SlaveRouting::ViaMaster, 2usize)]
    {
        let mem = MemoryManager::new(Backing::Real);
        let master = mem.add_space("master", SpaceKind::Host(0), None, 1 << 30);
        let s1 = mem.add_space("slave1", SpaceKind::Host(1), None, 1 << 30);
        let s2 = mem.add_space("slave2", SpaceKind::Host(2), None, 1 << 30);
        let g1 = mem.add_space("slave1:gpu", SpaceKind::Gpu(1, 0), Some(s1), 1 << 20);
        let g2 = mem.add_space("slave2:gpu", SpaceKind::Gpu(2, 0), Some(s2), 1 << 20);
        let mut topo = Topology::new(master, routing);
        topo.add_gpu(g1, s1);
        topo.add_gpu(g2, s2);
        let coh = Rc::new(Coherence::new(mem.clone(), topo, CachePolicy::WriteBack));
        let exec = Rc::new(TestExec::new(mem.clone()));
        let r = region(&mem, master, 64);
        let mem2 = mem.clone();
        run_sim(async move {
            // Write on slave1's GPU, then read on slave2's GPU.
            let loc = coh.acquire(&*exec, &r, false, g1).await.unwrap();
            mem2.write(g1, loc.alloc, loc.offset, &[8u8; 64]);
            coh.commit(&*exec, &[Access::output(r)], g1).await.unwrap();
            let loc2 = coh.acquire(&*exec, &r, true, g2).await.unwrap();
            let mut buf = [0u8; 64];
            mem2.read(g2, loc2.alloc, loc2.offset, &mut buf);
            assert_eq!(buf, [8u8; 64]);
            let hops = exec.hops();
            let net = hops.iter().filter(|h| h.0 == HopKind::Network).count();
            let pcie = hops.iter().filter(|h| h.0 == HopKind::Pcie).count();
            assert_eq!(net, expected_net_hops, "routing mode {routing:?}");
            assert_eq!(pcie, 2, "gpu->host and host->gpu at the two ends");
            coh.commit(&*exec, &[Access::input(r)], g2).await.unwrap();
        });
    }
}

#[test]
fn intermediate_host_copy_is_cached_for_later_use() {
    // After gpu0 -> host -> gpu1, a later host read is free.
    let n = single_node(1 << 20);
    let coh = Rc::new(Coherence::new(n.mem.clone(), n.topo.clone(), CachePolicy::WriteBack));
    let exec = Rc::new(TestExec::new(n.mem.clone()));
    let r = region(&n.mem, n.host, 64);
    let (gpu0, gpu1, host) = (n.gpu0, n.gpu1, n.host);
    run_sim(async move {
        coh.acquire(&*exec, &r, false, gpu0).await.unwrap();
        coh.commit(&*exec, &[Access::output(r)], gpu0).await.unwrap();
        coh.acquire(&*exec, &r, true, gpu1).await.unwrap();
        coh.commit(&*exec, &[Access::input(r)], gpu1).await.unwrap();
        let before = exec.hops().len();
        // Host read (e.g. an SMP task) hits the cached relay copy.
        coh.acquire(&*exec, &r, true, host).await.unwrap();
        assert_eq!(exec.hops().len(), before);
        coh.commit(&*exec, &[Access::input(r)], host).await.unwrap();
    });
}

#[test]
fn bytes_at_reflects_validity_and_staleness() {
    let n = single_node(1 << 20);
    let coh = Rc::new(Coherence::new(n.mem.clone(), n.topo.clone(), CachePolicy::WriteBack));
    let exec = Rc::new(TestExec::new(n.mem.clone()));
    let r = region(&n.mem, n.host, 64);
    let (gpu0, gpu1, host) = (n.gpu0, n.gpu1, n.host);
    let holders = |coh: &Coherence, r: &Region| {
        let mut v = Vec::new();
        coh.latest_holders(r, |s| v.push(s));
        v.sort();
        v
    };
    run_sim(async move {
        assert_eq!(coh.bytes_at(&r, gpu0), 0, "untouched region only at home");
        coh.acquire(&*exec, &r, true, gpu0).await.unwrap();
        coh.commit(&*exec, &[Access::input(r)], gpu0).await.unwrap();
        assert_eq!(coh.bytes_at(&r, gpu0), 64);
        assert_eq!(coh.bytes_at(&r, host), 64);
        let mut both = vec![host, gpu0];
        both.sort();
        assert_eq!(holders(&coh, &r), both);
        // A write on gpu1 invalidates the gpu0 and host copies.
        coh.acquire(&*exec, &r, false, gpu1).await.unwrap();
        coh.commit(&*exec, &[Access::output(r)], gpu1).await.unwrap();
        assert_eq!(coh.bytes_at(&r, gpu0), 0);
        assert_eq!(coh.bytes_at(&r, host), 0);
        assert_eq!(coh.bytes_at(&r, gpu1), 64);
        assert_eq!(holders(&coh, &r), vec![gpu1], "only the latest copy holds");
    });
}

#[test]
fn stale_copy_is_refreshed_in_place_without_realloc() {
    let n = single_node(1 << 20);
    let coh = Rc::new(Coherence::new(n.mem.clone(), n.topo.clone(), CachePolicy::WriteBack));
    let exec = Rc::new(TestExec::new(n.mem.clone()));
    let r = region(&n.mem, n.host, 64);
    let (gpu0, gpu1, mem) = (n.gpu0, n.gpu1, n.mem.clone());
    run_sim(async move {
        coh.acquire(&*exec, &r, true, gpu0).await.unwrap();
        coh.commit(&*exec, &[Access::input(r)], gpu0).await.unwrap();
        let used_before = mem.used(gpu0);
        // Invalidate gpu0's copy by writing on gpu1...
        let loc = coh.acquire(&*exec, &r, false, gpu1).await.unwrap();
        mem.write(gpu1, loc.alloc, loc.offset, &[4u8; 64]);
        coh.commit(&*exec, &[Access::output(r)], gpu1).await.unwrap();
        // ...then read it again on gpu0: same allocation, fresh data.
        let loc0 = coh.acquire(&*exec, &r, true, gpu0).await.unwrap();
        let mut buf = [0u8; 64];
        mem.read(gpu0, loc0.alloc, loc0.offset, &mut buf);
        assert_eq!(buf, [4u8; 64]);
        assert_eq!(mem.used(gpu0), used_before, "stale copy refreshed in place");
        coh.commit(&*exec, &[Access::input(r)], gpu0).await.unwrap();
    });
}

#[test]
fn invalidate_space_drops_clean_copies_and_frees_memory() {
    let n = single_node(1 << 20);
    let coh = Rc::new(
        Coherence::new(n.mem.clone(), n.topo.clone(), CachePolicy::WriteThrough)
            .with_validation(true),
    );
    let exec = Rc::new(TestExec::new(n.mem.clone()));
    let r = region(&n.mem, n.host, 128);
    let (host, gpu0, gpu1, mem) = (n.host, n.gpu0, n.gpu1, n.mem.clone());
    run_sim(async move {
        // gpu0 writes the region; write-through pushes it home at commit,
        // leaving a clean cached copy on gpu0.
        let loc = coh.acquire(&*exec, &r, false, gpu0).await.unwrap();
        mem.write(gpu0, loc.alloc, loc.offset, &[9u8; 128]);
        coh.commit(&*exec, &[Access::output(r)], gpu0).await.unwrap();
        assert_eq!(coh.bytes_at(&r, gpu0), 128);
        let used_before = mem.used(gpu0);
        assert!(used_before > 0);
        // gpu0 is lost: its cache empties and its memory returns.
        assert_eq!(coh.invalidate_space(gpu0), 1);
        assert_eq!(coh.bytes_at(&r, gpu0), 0);
        assert_eq!(mem.used(gpu0), 0);
        // The data is still reachable from home for the survivor.
        let loc1 = coh.acquire(&*exec, &r, true, gpu1).await.unwrap();
        let mut buf = [0u8; 128];
        mem.read(gpu1, loc1.alloc, loc1.offset, &mut buf);
        assert_eq!(buf, [9u8; 128]);
        coh.commit(&*exec, &[Access::input(r)], gpu1).await.unwrap();
        assert_eq!(coh.bytes_at(&r, host), 128);
    });
}

#[test]
fn invalidate_space_skips_pinned_copies() {
    let n = single_node(1 << 20);
    let coh = Rc::new(Coherence::new(n.mem.clone(), n.topo.clone(), CachePolicy::WriteThrough));
    let exec = Rc::new(TestExec::new(n.mem.clone()));
    let r = region(&n.mem, n.host, 64);
    let gpu0 = n.gpu0;
    run_sim(async move {
        // Acquire pins the copy; invalidation must leave it alone until
        // the failed task's teardown unpins it.
        coh.acquire(&*exec, &r, true, gpu0).await.unwrap();
        assert_eq!(coh.invalidate_space(gpu0), 0);
        assert_eq!(coh.bytes_at(&r, gpu0), 64);
        coh.unpin(&r, gpu0);
        assert_eq!(coh.invalidate_space(gpu0), 1);
        assert_eq!(coh.bytes_at(&r, gpu0), 0);
    });
}

/// Node-loss purge: every copy at the dead spaces goes (pins included),
/// lost latest versions are reported, further acquires there shut
/// down, and `repair_root` restores the invariants once the caller has
/// rebuilt the bytes at the root home.
#[test]
fn purge_reports_lost_latest_and_repair_restores_invariants() {
    let mem = MemoryManager::new(Backing::Real);
    let master = mem.add_space("master", SpaceKind::Host(0), None, 1 << 30);
    let s1 = mem.add_space("slave1", SpaceKind::Host(1), None, 1 << 30);
    let s2 = mem.add_space("slave2", SpaceKind::Host(2), None, 1 << 30);
    let g1 = mem.add_space("slave1:gpu", SpaceKind::Gpu(1, 0), Some(s1), 1 << 20);
    let g2 = mem.add_space("slave2:gpu", SpaceKind::Gpu(2, 0), Some(s2), 1 << 20);
    let mut topo = Topology::new(master, SlaveRouting::Direct);
    topo.add_gpu(g1, s1);
    topo.add_gpu(g2, s2);
    let coh = Rc::new(Coherence::new(mem.clone(), topo, CachePolicy::WriteBack));
    let exec = Rc::new(TestExec::new(mem.clone()));
    let r = region(&mem, master, 64);
    let home = mem.data_info(r.data).home_alloc;
    let mem2 = mem.clone();
    run_sim(async move {
        // v1 is written on slave1's GPU and, under write-back, lives
        // only there when the node dies. Keep the copy pinned to model
        // a task mid-run at the kill instant.
        let loc = coh.acquire(&*exec, &r, false, g1).await.unwrap();
        mem2.write(g1, loc.alloc, loc.offset, &[0xAB; 64]);
        coh.commit(&*exec, &[Access::output(r)], g1).await.unwrap();
        coh.acquire(&*exec, &r, true, g1).await.unwrap();

        let lost = coh.purge_spaces(&[s1, g1]);
        assert_eq!(lost.len(), 1, "the pinned latest-only copy was purged and reported");
        assert_eq!((lost[0].region, lost[0].latest, lost[0].best), (r, 1, 0));
        assert!(coh.is_dead_space(g1) && coh.is_dead_space(s1));
        assert!(!coh.is_dead_space(s2));
        coh.unpin(&r, g1); // late teardown of the dead task: a no-op
        assert!(
            matches!(coh.acquire(&*exec, &r, true, g1).await, Err(ompss_sim::SimError::Shutdown)),
            "acquires targeting a dead space shut down"
        );

        // The caller reconstructs: base is the surviving v0 at the
        // root, then (standing in for lineage re-execution) the v1
        // bytes are rebuilt in the home allocation.
        let (best, pulled) = coh.pull_best_to_root(&r).expect("a valid copy survives");
        assert_eq!((best, pulled), (0, 0), "root already held the best survivor");
        mem2.write(master, home, 0, &[0xAB; 64]);
        coh.repair_root(&r, 1);
        coh.check_invariants().expect("repair restores the directory invariants");

        // A surviving node reads the reconstructed latest.
        let loc2 = coh.acquire(&*exec, &r, true, g2).await.unwrap();
        let mut buf = [0u8; 64];
        mem2.read(g2, loc2.alloc, loc2.offset, &mut buf);
        assert_eq!(buf, [0xAB; 64]);
        coh.commit(&*exec, &[Access::input(r)], g2).await.unwrap();
    });
}

/// An undelivered hop (endpoint died on the wire) must leave the
/// destination as garbage — never valid — so waiters re-plan from a
/// surviving source instead of reading stale bytes.
#[test]
fn undelivered_hop_leaves_destination_garbage() {
    struct FlakyExec {
        mem: MemoryManager,
        deliver: std::sync::atomic::AtomicBool,
    }
    impl HopExec for FlakyExec {
        fn hop<'a>(
            &'a self,
            _kind: HopKind,
            _purpose: TransferPurpose,
            src: Loc,
            dst: Loc,
            bytes: u64,
        ) -> HopFuture<'a> {
            Box::pin(async move {
                delay(SimDuration::from_nanos(bytes)).await?;
                if !self.deliver.load(std::sync::atomic::Ordering::Relaxed) {
                    return Ok(false);
                }
                self.mem.copy(
                    (src.space, src.alloc),
                    src.offset,
                    (dst.space, dst.alloc),
                    dst.offset,
                    bytes,
                );
                Ok(true)
            })
        }
    }
    let n = single_node(1 << 20);
    let coh = Rc::new(Coherence::new(n.mem.clone(), n.topo.clone(), CachePolicy::WriteBack));
    let exec = Rc::new(FlakyExec {
        mem: n.mem.clone(),
        deliver: std::sync::atomic::AtomicBool::new(false),
    });
    let r = region(&n.mem, n.host, 64);
    let info = n.mem.data_info(r.data);
    n.mem.write(n.host, info.home_alloc, 0, &[5u8; 64]);
    let (gpu0, mem) = (n.gpu0, n.mem.clone());
    run_sim(async move {
        // First attempt never lands; the engine keeps re-planning the
        // same hop (each failed try still costs wire time) until the
        // fabric heals, and only then hands out the copy.
        let done = ompss_sim::Signal::new();
        {
            let (coh, exec, done) = (coh.clone(), exec.clone(), done.clone());
            spawn("reader", async move {
                let loc = coh.acquire(&*exec, &r, true, gpu0).await.unwrap();
                let mut buf = [0u8; 64];
                mem.read(gpu0, loc.alloc, loc.offset, &mut buf);
                assert_eq!(buf, [5u8; 64], "only delivered bytes are ever handed out");
                done.set();
            });
        }
        delay(SimDuration::from_nanos(100)).await.unwrap();
        assert_eq!(coh.bytes_at(&r, gpu0), 0, "undelivered fill is not valid");
        exec.deliver.store(true, std::sync::atomic::Ordering::Relaxed);
        done.wait().await.unwrap();
    });
}
