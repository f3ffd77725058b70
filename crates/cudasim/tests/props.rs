//! Property tests of the simulated CUDA layer: stream FIFO ordering,
//! engine exclusivity and stat conservation under arbitrary operation
//! mixes.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use ompss_cudasim::{CopyDir, GpuDevice, GpuSpec, KernelCost};
use ompss_sim::{now, yield_now, Sim, SimDuration};

fn spec() -> GpuSpec {
    GpuSpec {
        name: "prop",
        peak_gflops: 1000.0,
        mem_bandwidth: 100.0e9,
        mem_capacity: 1 << 30,
        pcie_bandwidth: 1.0e9,
        pageable_bandwidth: 0.5e9,
        pcie_latency: SimDuration::ZERO,
        copy_engines: 1,
        launch_overhead: SimDuration::ZERO,
        host_memcpy_bandwidth: 4.0e9,
    }
}

/// A generated stream operation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Kernel(u64),           // duration ns
    Copy(bool, u64, bool), // (h2d, bytes, pinned)
}

fn gen_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..10_000).prop_map(Op::Kernel),
        (any::<bool>(), 1u64..10_000, any::<bool>()).prop_map(|(d, b, p)| Op::Copy(d, b, p)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Operations on one stream complete strictly in issue order, and
    /// the device stats account every op exactly once.
    #[test]
    fn single_stream_is_fifo_and_stats_conserve(ops in proptest::collection::vec(gen_op(), 1..25)) {
        let sim = Sim::new();
        let dev = GpuDevice::new("g", spec());
        let completions = Rc::new(RefCell::new(Vec::new()));
        let ops2 = ops.clone();
        let dev2 = dev.clone();
        let comp = completions.clone();
        sim.spawn("host", async move {
            let s = dev2.create_stream("s");
            let mut events = Vec::new();
            for (i, op) in ops2.iter().enumerate() {
                let c = comp.clone();
                let effect = Some(Box::new(move || {
                    c.borrow_mut().push((i, now()));
                }) as ompss_cudasim::Effect);
                let ev = match *op {
                    Op::Kernel(ns) => {
                        s.launch_async(KernelCost::fixed(SimDuration::from_nanos(ns)), effect)
                    }
                    Op::Copy(h2d, bytes, pinned) => {
                        let dir = if h2d { CopyDir::H2D } else { CopyDir::D2H };
                        s.memcpy_async(dir, bytes, pinned, effect)
                    }
                };
                events.push(ev);
            }
            for ev in &events {
                ev.synchronize().await;
            }
        });
        sim.run().unwrap();
        let done = completions.borrow().clone();
        prop_assert_eq!(done.len(), ops.len());
        // Issue order == completion order, with non-decreasing times.
        for (k, &(i, t)) in done.iter().enumerate() {
            prop_assert_eq!(i, k, "stream executed out of order");
            if k > 0 {
                prop_assert!(t >= done[k - 1].1);
            }
        }
        let st = dev.stats();
        let kernels = ops.iter().filter(|o| matches!(o, Op::Kernel(_))).count();
        let h2d = ops.iter().filter(|o| matches!(o, Op::Copy(true, _, _))).count();
        let d2h = ops.iter().filter(|o| matches!(o, Op::Copy(false, _, _))).count();
        prop_assert_eq!(st.kernels as usize, kernels);
        prop_assert_eq!(st.h2d_copies as usize, h2d);
        prop_assert_eq!(st.d2h_copies as usize, d2h);
        let total_kernel_ns: u64 =
            ops.iter().filter_map(|o| if let Op::Kernel(ns) = o { Some(*ns) } else { None }).sum();
        prop_assert_eq!(st.kernel_time.as_nanos(), total_kernel_ns);
    }

    /// Kernels across any number of streams serialise on the single
    /// compute engine: total elapsed ≥ sum of kernel durations.
    #[test]
    fn compute_engine_is_exclusive(
        durations in proptest::collection::vec(100u64..5_000, 2..10),
        streams in 1usize..4,
    ) {
        let sim = Sim::new();
        let dev = GpuDevice::new("g", spec());
        let total: u64 = durations.iter().sum();
        let dev2 = dev.clone();
        sim.spawn("host", async move {
            let ss: Vec<_> = (0..streams).map(|i| dev2.create_stream(format!("s{i}"))).collect();
            let evs: Vec<_> = durations
                .iter()
                .enumerate()
                .map(|(i, &ns)| {
                    ss[i % streams]
                        .launch_async(KernelCost::fixed(SimDuration::from_nanos(ns)), None)
                })
                .collect();
            for ev in &evs {
                ev.synchronize().await;
            }
            assert!(now().as_nanos() >= total, "kernels overlapped on one engine");
        });
        sim.run().unwrap();
    }

    /// Pinned copies on a second stream finish during a long kernel;
    /// pageable copies never do.
    #[test]
    fn overlap_requires_pinned(bytes in 1_000u64..100_000) {
        for pinned in [true, false] {
            let sim = Sim::new();
            let dev = GpuDevice::new("g", spec());
            sim.spawn("host", async move {
                let s0 = dev.create_stream("compute");
                let s1 = dev.create_stream("copy");
                let kernel_ns = 10_000_000; // 10 ms, far longer than the copy
                let k = s0.launch_async(KernelCost::fixed(SimDuration::from_nanos(kernel_ns)), None);
                yield_now().await.unwrap(); // ensure the kernel grabs the engine first
                let c = s1.memcpy_async(CopyDir::H2D, bytes, pinned, None);
                c.synchronize().await;
                let copy_done = now().as_nanos();
                if pinned {
                    assert!(copy_done < kernel_ns, "pinned copy must overlap the kernel");
                } else {
                    assert!(copy_done >= kernel_ns, "pageable copy must serialise");
                }
                k.synchronize().await;
            });
            sim.run().unwrap();
        }
    }
}
