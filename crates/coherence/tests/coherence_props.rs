//! Property test: for arbitrary sequential task streams over arbitrary
//! spaces, every read observes the bytes of the most recent write —
//! under all three cache policies, including with GPU capacities small
//! enough to force constant eviction.

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

/// One generated step: a task on `space_idx` doing `write`/read on
/// region `region_idx`.
#[derive(Debug, Clone, Copy)]
struct Op {
    space_idx: usize,
    region_idx: usize,
    write: bool,
}

fn gen_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0usize..5, 0usize..4, any::<bool>()).prop_map(|(space_idx, region_idx, write)| Op {
            space_idx,
            region_idx,
            write,
        }),
        1..60,
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
    fn reads_always_observe_last_write(ops in gen_ops(), policy_sel in 0u8..3, tiny in any::<bool>()) {
        let policy = policy_from(policy_sel);
        const LEN: u64 = 32;
        // Machine: master host + slave host, two GPUs on master, one on
        // the slave. `tiny` shrinks GPU capacity to 2 regions to force
        // eviction churn.
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

        let coh = Rc::new(Coherence::new(mem.clone(), topo, policy));
        let exec = Rc::new(ByteExec { mem: mem.clone() });
        let mem2 = mem.clone();
        let ops2 = ops.clone();
        let regions2 = regions.clone();
        let failure: Rc<RefCell<Option<String>>> =
            Rc::new(RefCell::new(None));
        let failure2 = failure.clone();

        let sim = Sim::new();
        sim.spawn("driver", async move {
            // Shadow model: region -> the stamp of its last write.
            let mut shadow: Vec<u8> = vec![0; regions2.len()];
            let mut stamp: u8 = 0;
            for op in &ops2 {
                let space = spaces[op.space_idx];
                let region = regions2[op.region_idx];
                let access = if op.write {
                    Access::inout(region)
                } else {
                    Access::input(region)
                };
                let loc = coh.acquire(&*exec, &region, true, space).await.unwrap();
                // Verify contents = last write's stamp.
                let mut buf = vec![0u8; LEN as usize];
                mem2.read(space, loc.alloc, loc.offset, &mut buf);
                let expect = shadow[op.region_idx];
                if buf.iter().any(|&b| b != expect) {
                    *failure2.borrow_mut() = Some(format!(
                        "op {op:?} (policy {policy:?}): read {} expected {expect}",
                        buf[0]
                    ));
                    return;
                }
                if op.write {
                    stamp = stamp.wrapping_add(1);
                    let data = vec![stamp; LEN as usize];
                    mem2.write(space, loc.alloc, loc.offset, &data);
                    shadow[op.region_idx] = stamp;
                }
                coh.commit(&*exec, &[access], space).await.unwrap();
            }
            // Final flush must land every region's latest bytes at home.
            coh.flush_all(&*exec).await.unwrap();
            for (i, region) in regions2.iter().enumerate() {
                let info = mem2.data_info(region.data);
                let mut buf = vec![0u8; LEN as usize];
                mem2.read(master, info.home_alloc, 0, &mut buf);
                if buf.iter().any(|&b| b != shadow[i]) {
                    *failure2.borrow_mut() = Some(format!(
                        "flush: region {i} home has {} expected {} (policy {policy:?})",
                        buf[0], shadow[i]
                    ));
                    return;
                }
            }
        });
        sim.run().unwrap();
        let msg = failure.borrow_mut().take();
        prop_assert!(msg.is_none(), "{}", msg.unwrap_or_default());
    }
}
