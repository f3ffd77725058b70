//! Property tests for the directory invariants checked by
//! `Coherence::check_invariants` (the verify subsystem's coherence
//! layer): arbitrary acquire/commit/prefetch/flush streams — with GPU
//! capacities small enough to force eviction churn — must never reach a
//! state where the root lacks a region's latest version without a dirty
//! valid-latest copy covering it, where a copy's version exceeds the
//! directory's, or where the home copy is marked dirty.
//!
//! Validation is enabled on the engine itself (`with_validation(true)`),
//! so every commit/hop/eviction/flush sweeps the directory internally
//! and panics at the *operation* that broke an invariant, not at the
//! end-of-run check — failures localise themselves.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use ompss_coherence::{
    CachePolicy, Coherence, HopExec, HopFuture, HopKind, Loc, SlaveRouting, Topology,
    TransferPurpose,
};
use ompss_mem::{Access, Backing, MemoryManager, Region, SpaceKind};

use ompss_sim::{delay, Sim, SimDuration};

struct ByteExec {
    mem: MemoryManager,
}

impl HopExec for ByteExec {
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

/// One generated step of the driver.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Acquire + optional write + commit at a space.
    Task { space_idx: usize, region_idx: usize, write: bool },
    /// Stage a copy without pinning.
    Prefetch { space_idx: usize, region_idx: usize },
    /// Flush one region home.
    Flush { region_idx: usize },
    /// Flush everything home.
    FlushAll,
}

fn gen_ops() -> impl Strategy<Value = Vec<Op>> {
    // Selector-weighted mix: tasks dominate, with enough prefetches and
    // flushes sprinkled in to exercise every directory transition.
    proptest::collection::vec(
        (0u8..10, 0usize..5, 0usize..4, any::<bool>()).prop_map(
            |(sel, space_idx, region_idx, write)| match sel {
                0..=4 => Op::Task { space_idx, region_idx, write },
                5 | 6 => Op::Prefetch { space_idx, region_idx },
                7 | 8 => Op::Flush { region_idx },
                _ => Op::FlushAll,
            },
        ),
        1..50,
    )
}

fn policy_from(i: u8) -> CachePolicy {
    match i % 3 {
        0 => CachePolicy::NoCache,
        1 => CachePolicy::WriteThrough,
        _ => CachePolicy::WriteBack,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_hold_under_arbitrary_op_streams(
        ops in gen_ops(),
        policy_sel in 0u8..3,
        tiny in any::<bool>(),
    ) {
        let policy = policy_from(policy_sel);
        const LEN: u64 = 32;
        let gpu_cap = if tiny { 2 * LEN } else { 1 << 20 };
        let mem = MemoryManager::new(Backing::Real);
        let master = mem.add_space("master", SpaceKind::Host(0), None, 1 << 30);
        let slave = mem.add_space("slave", SpaceKind::Host(1), None, 1 << 30);
        let g0 = mem.add_space("g0", SpaceKind::Gpu(0, 0), Some(master), gpu_cap);
        let g1 = mem.add_space("g1", SpaceKind::Gpu(0, 1), Some(master), gpu_cap);
        let g2 = mem.add_space("g2", SpaceKind::Gpu(1, 0), Some(slave), gpu_cap);
        let mut topo = Topology::new(master, SlaveRouting::Direct);
        topo.add_gpu(g0, master);
        topo.add_gpu(g1, master);
        topo.add_gpu(g2, slave);
        let spaces = [master, slave, g0, g1, g2];

        let regions: Vec<Region> = (0..4)
            .map(|_| {
                let d = mem.register_data(LEN, master).unwrap();
                Region::new(d, 0, LEN)
            })
            .collect();

        let coh = Rc::new(Coherence::new(mem.clone(), topo, policy).with_validation(true));
        let coh2 = coh.clone();
        let mem2 = mem.clone();
        let exec = Rc::new(ByteExec { mem: mem.clone() });
        let failure: Rc<RefCell<Option<String>>> =
            Rc::new(RefCell::new(None));
        let failure2 = failure.clone();
        let ops2 = ops.clone();
        let regions2 = regions.clone();

        let sim = Sim::new();
        sim.spawn("driver", async move {
            for op in &ops2 {
                match *op {
                    Op::Task { space_idx, region_idx, write } => {
                        let space = spaces[space_idx];
                        let region = regions2[region_idx];
                        let access =
                            if write { Access::inout(region) } else { Access::input(region) };
                        let loc = coh2.acquire(&*exec, &region, true, space).await.unwrap();
                        if write {
                            let data = vec![0xabu8; LEN as usize];
                            mem2.write(space, loc.alloc, loc.offset, &data);
                        }
                        coh2.commit(&*exec, &[access], space).await.unwrap();
                    }
                    Op::Prefetch { space_idx, region_idx } => {
                        coh2.prefetch(&*exec, &regions2[region_idx], spaces[space_idx]).await.unwrap();
                    }
                    Op::Flush { region_idx } => {
                        coh2.flush_region(&*exec, &regions2[region_idx]).await.unwrap();
                    }
                    Op::FlushAll => coh2.flush_all(&*exec).await.unwrap(),
                }
                // The external sweep too, between operations: catches
                // anything the internal call sites might miss.
                if let Err(msg) = coh2.check_invariants() {
                    *failure2.borrow_mut() = Some(format!("after {op:?}: {msg}"));
                    return;
                }
            }
        });
        sim.run().unwrap();
        prop_assert!(coh.check_invariants().is_ok());
        // After a full flush nothing may remain dirty.
        let msg = failure.borrow_mut().take();
        prop_assert!(msg.is_none(), "{}", msg.unwrap_or_default());
    }

    #[test]
    fn flush_leaves_no_dirty_regions(
        writes in proptest::collection::vec((0usize..5, 0usize..4), 1..20),
    ) {
        const LEN: u64 = 32;
        let mem = MemoryManager::new(Backing::Real);
        let master = mem.add_space("master", SpaceKind::Host(0), None, 1 << 30);
        let slave = mem.add_space("slave", SpaceKind::Host(1), None, 1 << 30);
        let g0 = mem.add_space("g0", SpaceKind::Gpu(0, 0), Some(master), 1 << 20);
        let g1 = mem.add_space("g1", SpaceKind::Gpu(0, 1), Some(master), 1 << 20);
        let g2 = mem.add_space("g2", SpaceKind::Gpu(1, 0), Some(slave), 1 << 20);
        let mut topo = Topology::new(master, SlaveRouting::ViaMaster);
        topo.add_gpu(g0, master);
        topo.add_gpu(g1, master);
        topo.add_gpu(g2, slave);
        let spaces = [master, slave, g0, g1, g2];
        let regions: Vec<Region> = (0..4)
            .map(|_| Region::new(mem.register_data(LEN, master).unwrap(), 0, LEN))
            .collect();
        let coh =
            Rc::new(Coherence::new(mem.clone(), topo, CachePolicy::WriteBack)
                .with_validation(true));
        let coh2 = coh.clone();
        let regions2 = regions.clone();
        let exec = Rc::new(ByteExec { mem: mem.clone() });

        let sim = Sim::new();
        sim.spawn("driver", async move {
            for &(si, ri) in &writes {
                let region = regions2[ri];
                coh2.acquire(&*exec, &region, false, spaces[si]).await.unwrap();
                coh2.commit(&*exec, &[Access::output(region)], spaces[si]).await.unwrap();
            }
            coh2.flush_all(&*exec).await.unwrap();
        });
        sim.run().unwrap();
        prop_assert!(coh.dirty_regions().is_empty(), "flush_all left dirty regions");
        prop_assert!(coh.check_invariants().is_ok());
    }
}
