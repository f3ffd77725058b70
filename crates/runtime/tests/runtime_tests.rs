//! End-to-end runtime tests: the same annotated programs running on a
//! multi-GPU node and on a simulated GPU cluster, with numerical
//! validation (real byte backing) across policies.

use ompss_core::Device;
use ompss_mem::cast_slice_mut;
use ompss_runtime::{
    CachePolicy, FaultPlan, KernelCost, Policy, RunError, Runtime, RuntimeConfig, SimDuration,
    SlaveRouting, TaskSpec,
};

/// A blocked "scale by 2" over a float array on the chosen device.
fn run_scale(cfg: RuntimeConfig, device: Device, n: usize, bs: usize) -> (Vec<f32>, u64) {
    let out = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let out2 = out.clone();
    let report = Runtime::run(cfg, move |omp| async move {
        let a = omp.alloc_array::<f32>(n);
        omp.write_array(&a, 0, &(0..n).map(|i| i as f32).collect::<Vec<_>>());
        for j in (0..n).step_by(bs) {
            let r = a.region(j..j + bs);
            let spec = TaskSpec::new("scale").device(device).inout(r).body(move |views| {
                for x in cast_slice_mut::<f32>(views[0]) {
                    *x *= 2.0;
                }
            });
            let spec = match device {
                Device::Smp => spec.cost_smp(SimDuration::from_micros(100)),
                Device::Cuda => spec.cost_gpu(KernelCost::memory_bound((bs * 8) as f64, 0.8)),
            };
            omp.submit(spec).await;
        }
        omp.taskwait().await;
        *out2.borrow_mut() = omp.read_array(&a, 0..n).unwrap();
    });
    let v = out.borrow().clone();
    (v, report.tasks)
}

fn expect_scaled(n: usize) -> Vec<f32> {
    (0..n).map(|i| (i as f32) * 2.0).collect()
}

#[test]
fn smp_tasks_on_single_node() {
    let (v, tasks) = run_scale(RuntimeConfig::multi_gpu(1), Device::Smp, 1024, 128);
    assert_eq!(v, expect_scaled(1024));
    assert_eq!(tasks, 8);
}

#[test]
fn cuda_tasks_on_one_gpu() {
    let (v, tasks) = run_scale(RuntimeConfig::multi_gpu(1), Device::Cuda, 1024, 128);
    assert_eq!(v, expect_scaled(1024));
    assert_eq!(tasks, 8);
}

#[test]
fn cuda_tasks_on_four_gpus_all_policies() {
    for cache in [CachePolicy::NoCache, CachePolicy::WriteThrough, CachePolicy::WriteBack] {
        for sched in [Policy::BreadthFirst, Policy::Dependencies, Policy::Affinity] {
            let cfg = RuntimeConfig::multi_gpu(4).with_cache(cache).with_sched(sched);
            let (v, _) = run_scale(cfg, Device::Cuda, 2048, 128);
            assert_eq!(v, expect_scaled(2048), "cache={cache:?} sched={sched:?}");
        }
    }
}

#[test]
fn cluster_runs_cuda_tasks_remotely() {
    for nodes in [1u32, 2, 4] {
        let (v, tasks) = run_scale(RuntimeConfig::gpu_cluster(nodes), Device::Cuda, 2048, 128);
        assert_eq!(v, expect_scaled(2048), "nodes={nodes}");
        assert_eq!(tasks, 16);
    }
}

#[test]
fn cluster_smp_tasks_distribute() {
    let (v, _) = run_scale(RuntimeConfig::gpu_cluster(4), Device::Smp, 4096, 256);
    assert_eq!(v, expect_scaled(4096));
}

#[test]
fn cluster_routing_and_presend_options_preserve_results() {
    for routing in [SlaveRouting::ViaMaster, SlaveRouting::Direct] {
        for presend in [0u32, 2] {
            let cfg = RuntimeConfig::gpu_cluster(4).with_routing(routing).with_presend(presend);
            let (v, _) = run_scale(cfg, Device::Cuda, 2048, 128);
            assert_eq!(v, expect_scaled(2048), "routing={routing:?} presend={presend}");
        }
    }
}

#[test]
fn overlap_and_prefetch_preserve_results() {
    for overlap in [false, true] {
        for prefetch in [false, true] {
            let cfg = RuntimeConfig::multi_gpu(2).with_overlap(overlap).with_prefetch(prefetch);
            let (v, _) = run_scale(cfg, Device::Cuda, 2048, 128);
            assert_eq!(v, expect_scaled(2048), "overlap={overlap} prefetch={prefetch}");
        }
    }
}

#[test]
fn dependency_chain_executes_in_order_across_gpus() {
    // a -> b -> c pipeline per block, across 2 GPUs: copy then scale
    // then add 1; validates RAW chains through device caches.
    let n = 512usize;
    let bs = 128usize;
    let out = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let out2 = out.clone();
    Runtime::run(RuntimeConfig::multi_gpu(2), move |omp| async move {
        let a = omp.alloc_array::<f32>(n);
        let b = omp.alloc_array::<f32>(n);
        let c = omp.alloc_array::<f32>(n);
        omp.write_array(&a, 0, &(0..n).map(|i| i as f32).collect::<Vec<_>>());
        for j in (0..n).step_by(bs) {
            let (ra, rb) = (a.region(j..j + bs), b.region(j..j + bs));
            omp.submit(
                TaskSpec::new("copy")
                    .device(Device::Cuda)
                    .input(ra)
                    .output(rb)
                    .cost_gpu(KernelCost::memory_bound((bs * 8) as f64, 0.8))
                    .body(|views| {
                        let (src, dst) = views.split_first_mut().unwrap();
                        dst[0].copy_from_slice(src);
                    }),
            )
            .await;
        }
        for j in (0..n).step_by(bs) {
            let rb = b.region(j..j + bs);
            omp.submit(
                TaskSpec::new("scale")
                    .device(Device::Cuda)
                    .inout(rb)
                    .cost_gpu(KernelCost::memory_bound((bs * 8) as f64, 0.8))
                    .body(|views| {
                        for x in cast_slice_mut::<f32>(views[0]) {
                            *x *= 3.0;
                        }
                    }),
            )
            .await;
        }
        for j in (0..n).step_by(bs) {
            let (rb, rc) = (b.region(j..j + bs), c.region(j..j + bs));
            omp.submit(
                TaskSpec::new("add1")
                    .device(Device::Cuda)
                    .input(rb)
                    .output(rc)
                    .cost_gpu(KernelCost::memory_bound((bs * 8) as f64, 0.8))
                    .body(|views| {
                        let (src, rest) = views.split_first_mut().unwrap();
                        let s: &[f32] = ompss_mem::cast_slice(src);
                        let d = cast_slice_mut::<f32>(rest[0]);
                        for (x, y) in d.iter_mut().zip(s) {
                            *x = y + 1.0;
                        }
                    }),
            )
            .await;
        }
        omp.taskwait().await;
        *out2.borrow_mut() = omp.read_array(&c, 0..n).unwrap();
    });
    let got = out.borrow().clone();
    let expect: Vec<f32> = (0..n).map(|i| i as f32 * 3.0 + 1.0).collect();
    assert_eq!(got, expect);
}

#[test]
fn taskwait_on_waits_for_specific_region_only() {
    let done_fast = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let df = done_fast.clone();
    Runtime::run(RuntimeConfig::multi_gpu(1), move |omp| async move {
        let a = omp.alloc_array::<f32>(128);
        let b = omp.alloc_array::<f32>(128);
        let (ra, rb) = (a.full(), b.full());
        // Slow writer to a, fast writer to b.
        omp.submit(
            TaskSpec::new("slow")
                .device(Device::Smp)
                .output(ra)
                .cost_smp(SimDuration::from_millis(10))
                .body(|v| cast_slice_mut::<f32>(v[0]).fill(1.0)),
        )
        .await;
        let df2 = df.clone();
        omp.submit(
            TaskSpec::new("fast")
                .device(Device::Smp)
                .output(rb)
                .cost_smp(SimDuration::from_micros(10))
                .body(move |v| {
                    cast_slice_mut::<f32>(v[0]).fill(2.0);
                    df2.store(true, std::sync::atomic::Ordering::SeqCst);
                }),
        )
        .await;
        let t0 = omp.now();
        omp.taskwait_on(rb).await;
        let waited = omp.now() - t0;
        assert!(
            waited < SimDuration::from_millis(5),
            "taskwait on(b) must not wait for the slow writer of a (waited {waited})"
        );
        assert_eq!(omp.read_array(&b, 0..1).unwrap(), vec![2.0]);
        omp.taskwait().await;
        assert_eq!(omp.read_array(&a, 0..1).unwrap(), vec![1.0]);
    });
    assert!(done_fast.load(std::sync::atomic::Ordering::SeqCst));
}

#[test]
fn taskwait_noflush_leaves_data_on_device() {
    let report = Runtime::run(RuntimeConfig::multi_gpu(1), |omp| async move {
        let a = omp.alloc_array::<f32>(256);
        let r = a.full();
        omp.submit(
            TaskSpec::new("w")
                .device(Device::Cuda)
                .output(r)
                .cost_gpu(KernelCost::fixed(SimDuration::from_micros(100)))
                .body(|v| cast_slice_mut::<f32>(v[0]).fill(7.0)),
        )
        .await;
        omp.taskwait_noflush().await;
        // No flush yet: home copy still zeroed.
        assert_eq!(omp.read_array(&a, 0..1).unwrap(), vec![0.0]);
        // A second GPU task reuses the device copy without transfers.
        omp.submit(
            TaskSpec::new("r")
                .device(Device::Cuda)
                .inout(r)
                .cost_gpu(KernelCost::fixed(SimDuration::from_micros(100)))
                .body(|v| {
                    for x in cast_slice_mut::<f32>(v[0]) {
                        *x += 1.0;
                    }
                }),
        )
        .await;
        omp.taskwait().await; // flushes
        assert_eq!(omp.read_array(&a, 0..1).unwrap(), vec![8.0]);
    });
    // Exactly one D2H transfer (the final flush); zero H2D.
    let (_, g) = &report.gpus[0];
    assert_eq!(g.h2d_bytes, 0, "output-only + cached reuse needs no H2D");
    assert_eq!(g.d2h_bytes, 256 * 4);
}

#[test]
fn writeback_beats_nocache_on_reuse_heavy_workload() {
    // Ten sequential inout tasks on the same block: write-back keeps
    // the data on the GPU; no-cache pays PCIe both ways every task.
    let mk = |cache| {
        let cfg = RuntimeConfig::multi_gpu(1).with_cache(cache);
        Runtime::run(cfg, |omp| async move {
            let a = omp.alloc_array::<f32>(1 << 20); // 4 MB
            let r = a.full();
            for _ in 0..10 {
                omp.submit(
                    TaskSpec::new("bump")
                        .device(Device::Cuda)
                        .inout(r)
                        .cost_gpu(KernelCost::fixed(SimDuration::from_micros(200))),
                )
                .await;
            }
            omp.taskwait().await;
        })
    };
    let wb = mk(CachePolicy::WriteBack);
    let nc = mk(CachePolicy::NoCache);
    assert!(
        wb.elapsed.as_secs_f64() * 2.0 < nc.elapsed.as_secs_f64(),
        "write-back {} should be far faster than no-cache {}",
        wb.elapsed,
        nc.elapsed
    );
    assert!(nc.coherence.bytes_moved > 5 * wb.coherence.bytes_moved);
}

#[test]
fn multi_gpu_scales_compute_bound_work() {
    let mk = |gpus| {
        let cfg = RuntimeConfig::multi_gpu(gpus);
        Runtime::run(cfg, |omp| async move {
            let a = omp.alloc_array::<f32>(64 * 64);
            for j in 0..64 {
                let r = a.region(j * 64..(j + 1) * 64);
                omp.submit(
                    TaskSpec::new("k")
                        .device(Device::Cuda)
                        .inout(r)
                        .cost_gpu(KernelCost::fixed(SimDuration::from_millis(1))),
                )
                .await;
            }
            omp.taskwait().await;
        })
    };
    let one = mk(1).elapsed.as_secs_f64();
    let four = mk(4).elapsed.as_secs_f64();
    assert!(four < one / 2.5, "4 GPUs ({four}s) must be well over 2.5x one GPU ({one}s)");
}

#[test]
fn determinism_identical_configs_identical_reports() {
    let mk = || {
        Runtime::run(RuntimeConfig::gpu_cluster(4), |omp| async move {
            let a = omp.alloc_array::<f32>(4096);
            for j in (0..4096).step_by(256) {
                let r = a.region(j..j + 256);
                omp.submit(
                    TaskSpec::new("k")
                        .device(Device::Cuda)
                        .inout(r)
                        .cost_gpu(KernelCost::fixed(SimDuration::from_micros(300))),
                )
                .await;
            }
            omp.taskwait().await;
        })
    };
    let (a, b) = (mk(), mk());
    assert_eq!(a.elapsed, b.elapsed);
    assert_eq!(a.events, b.events);
    assert_eq!(a.net.bytes_total, b.net.bytes_total);
    assert_eq!(a.coherence.bytes_moved, b.coherence.bytes_moved);
}

#[test]
fn phantom_backing_times_without_moving_bytes() {
    let cfg = RuntimeConfig::multi_gpu(2).with_backing(ompss_runtime::Backing::Phantom);
    let report = Runtime::run(cfg, |omp| async move {
        let a = omp.alloc_array::<f32>(1 << 20);
        for j in (0..1 << 20).step_by(1 << 18) {
            let r = a.region(j..j + (1 << 18));
            omp.submit(
                TaskSpec::new("k")
                    .device(Device::Cuda)
                    .inout(r)
                    .cost_gpu(KernelCost::fixed(SimDuration::from_millis(1)))
                    .body(|_| panic!("bodies must not run under phantom backing")),
            )
            .await;
        }
        omp.taskwait().await;
    });
    assert_eq!(report.tasks, 4);
    assert!(report.elapsed >= SimDuration::from_millis(2));
    assert!(report.coherence.bytes_moved > 0, "transfer accounting still happens");
}

#[test]
fn with_array_sees_what_read_array_returns() {
    let (n, bs) = (1000, 250);
    let out = std::rc::Rc::new(std::cell::RefCell::new(None));
    let out2 = out.clone();
    Runtime::run(RuntimeConfig::multi_gpu(2), move |omp| async move {
        let a = omp.alloc_array::<f32>(n);
        omp.write_array(&a, 0, &(0..n).map(|i| i as f32).collect::<Vec<_>>());
        for j in (0..n).step_by(bs) {
            omp.submit(TaskSpec::new("neg").device(Device::Cuda).inout(a.region(j..j + bs)).body(
                |v| {
                    for x in cast_slice_mut::<f32>(v[0]) {
                        *x = -*x;
                    }
                },
            ))
            .await;
        }
        omp.taskwait().await;
        let read = omp.read_array(&a, 100..900).unwrap();
        let seen = omp.with_array(&a, 100..900, |s| s.to_vec()).unwrap();
        *out2.borrow_mut() = Some((read, seen));
    });
    let (read, seen) = out.take().unwrap();
    assert_eq!(read, (100..900).map(|i| -(i as f32)).collect::<Vec<_>>());
    assert_eq!(seen, read);
}

#[test]
fn with_array_is_none_under_phantom_backing() {
    let cfg = RuntimeConfig::multi_gpu(1).with_backing(ompss_runtime::Backing::Phantom);
    Runtime::run(cfg, |omp| async move {
        let a = omp.alloc_array::<f32>(256);
        omp.taskwait().await;
        let got = omp.with_array(&a, 0..256, |_| panic!("f must not run under phantom backing"));
        assert!(got.is_none());
        assert!(omp.read_array(&a, 0..256).is_none());
    });
}

#[test]
#[should_panic(expected = "partial")]
fn partially_overlapping_clauses_are_rejected() {
    Runtime::run(RuntimeConfig::multi_gpu(1), |omp| async move {
        let a = omp.alloc_array::<f32>(256);
        omp.submit(TaskSpec::new("t1").device(Device::Smp).inout(a.region(0..128))).await;
        omp.submit(TaskSpec::new("t2").device(Device::Smp).inout(a.region(64..192))).await;
        omp.taskwait().await;
    });
}

#[test]
#[should_panic(expected = "no resources")]
fn cuda_task_without_gpus_is_rejected() {
    let mut cfg = RuntimeConfig::multi_gpu(1);
    cfg.gpus_per_node = 0;
    Runtime::run(cfg, |omp| async move {
        let a = omp.alloc_array::<f32>(16);
        omp.submit(TaskSpec::new("t").device(Device::Cuda).inout(a.full())).await;
    });
}

#[test]
fn tracing_records_tasks_and_transfers() {
    let cfg = RuntimeConfig::gpu_cluster(2).with_tracing(true);
    let report = Runtime::run(cfg, |omp| async move {
        let a = omp.alloc_array::<f32>(1024);
        for j in (0..1024).step_by(256) {
            omp.submit(
                TaskSpec::new("k")
                    .device(Device::Cuda)
                    .inout(a.region(j..j + 256))
                    .cost_gpu(KernelCost::fixed(SimDuration::from_micros(200))),
            )
            .await;
        }
        omp.taskwait().await;
    });
    let trace = report.trace.expect("tracing enabled");
    let tasks =
        trace.iter().filter(|e| matches!(e, ompss_runtime::TraceEvent::Task { .. })).count();
    let transfers =
        trace.iter().filter(|e| matches!(e, ompss_runtime::TraceEvent::Transfer { .. })).count();
    assert_eq!(tasks as u64, report.tasks);
    assert!(transfers > 0, "cluster run must record transfers");
    // Every interval is well-formed and within the makespan.
    for e in &trace {
        if let ompss_runtime::TraceEvent::Task { start, end, .. } = e {
            assert!(start <= end && *end <= report.makespan);
        }
    }
    // CSV and utilisation summaries render.
    let csv = ompss_runtime::trace::to_csv(&trace);
    assert!(csv.lines().count() == trace.len() + 1);
    let util = ompss_runtime::trace::utilisation(&trace, report.makespan);
    assert!(!util.is_empty());
    let total_tasks: usize = util.iter().map(|(_, n, _, _)| n).sum();
    assert_eq!(total_tasks as u64, report.tasks);
}

#[test]
fn tracing_off_by_default_costs_nothing() {
    let report = Runtime::run(RuntimeConfig::multi_gpu(1), |omp| async move {
        let a = omp.alloc_array::<f32>(64);
        omp.submit(TaskSpec::new("t").device(Device::Smp).inout(a.full())).await;
        omp.taskwait().await;
    });
    assert!(report.trace.is_none());
}

#[test]
fn priority_clause_reorders_ready_tasks() {
    // One SMP worker; three independent tasks submitted low-first. The
    // high-priority one must run before the earlier-submitted low one.
    let order = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let o = order.clone();
    let mut cfg = RuntimeConfig::multi_gpu(1);
    cfg.cpu_workers_per_node = 1;
    Runtime::run(cfg, move |omp| async move {
        let a = omp.alloc_array::<f32>(3);
        for (i, prio) in [(0usize, 0i32), (1, 10), (2, 5)] {
            let o2 = o.clone();
            omp.submit(
                TaskSpec::new("t")
                    .device(Device::Smp)
                    .inout(a.region(i..i + 1))
                    .priority(prio)
                    .cost_smp(SimDuration::from_micros(10))
                    .body(move |_| o2.borrow_mut().push(i)),
            )
            .await;
        }
        omp.taskwait().await;
    });
    // Task 0 may already be running when 1 and 2 arrive; among the
    // queued ones, priority decides: 1 (prio 10) before 2 (prio 5).
    let got = order.borrow().clone();
    let p1 = got.iter().position(|&x| x == 1).unwrap();
    let p2 = got.iter().position(|&x| x == 2).unwrap();
    assert!(p1 < p2, "priority 10 must run before priority 5: {got:?}");
}

#[test]
fn for_each_block_worksharing_helper() {
    let sum = std::rc::Rc::new(std::cell::RefCell::new(0.0f32));
    let s2 = sum.clone();
    Runtime::run(RuntimeConfig::multi_gpu(2), move |omp| async move {
        let a = omp.alloc_array::<f32>(1000);
        omp.for_each_block(0..1000, 256, |chunk| {
            TaskSpec::new("fill").device(Device::Cuda).output(a.region(chunk.clone())).body(
                move |v| {
                    ompss_runtime::task_views!(v => xs: f32);
                    for (o, x) in xs.iter_mut().enumerate() {
                        *x = (chunk.start + o) as f32;
                    }
                },
            )
        })
        .await;
        omp.taskwait().await;
        *s2.borrow_mut() = omp.read_array(&a, 0..1000).unwrap().iter().sum();
    });
    let expect: f32 = (0..1000).map(|i| i as f32).sum();
    assert_eq!(*sum.borrow(), expect);
}

#[test]
fn env_overrides_parse() {
    // The only test in this binary that touches the environment, so the
    // mutation below races nothing.
    let good = [
        ("OMPSS_SCHEDULE", "bf"),
        ("OMPSS_CACHE_POLICY", "nocache"),
        ("OMPSS_ROUTING", "mtos"),
        ("OMPSS_PRESEND", "7"),
        ("OMPSS_OVERLAP", "0"),
        ("OMPSS_TRACE", "1"),
        ("OMPSS_VERIFY", "on"),
        ("OMPSS_SCHED_SEED", "17"),
        ("OMPSS_FAULT_RATE", "0.25"),
        ("OMPSS_FAULT_SEED", "9"),
        ("OMPSS_FAULT_NODE_LOSS", "1@800"),
        ("OMPSS_SHARDS", "2"),
        ("OMPSS_NODE_DRAIN", "1@900"),
    ];
    for (k, v) in good {
        std::env::set_var(k, v);
    }
    let cfg = RuntimeConfig::gpu_cluster(2).overridden_from_env().expect("valid overrides");
    for (k, _) in good {
        std::env::remove_var(k);
    }
    assert_eq!(cfg.sched_policy, Policy::BreadthFirst);
    assert_eq!(cfg.cache_policy, CachePolicy::NoCache);
    assert_eq!(cfg.routing, SlaveRouting::ViaMaster);
    assert_eq!(cfg.presend, 7);
    assert!(!cfg.overlap);
    assert!(cfg.tracing);
    assert!(cfg.verify);
    assert_eq!(cfg.sched_seed, 17);
    assert_eq!(cfg.faults, Some(FaultPlan::new(9, 0.25)));
    assert_eq!(cfg.node_loss, Some((1, SimDuration::from_micros(800))));
    assert_eq!(cfg.shards, 2);
    assert_eq!(cfg.node_drain, Some((1, SimDuration::from_micros(900))));

    // A zero rate is exactly "unarmed", whatever the seed, and disarms
    // a plan the config had.
    std::env::set_var("OMPSS_FAULT_RATE", "0");
    std::env::set_var("OMPSS_FAULT_SEED", "9");
    let cfg = RuntimeConfig::gpu_cluster(2).with_faults(3, 0.1).overridden_from_env();
    std::env::remove_var("OMPSS_FAULT_RATE");
    std::env::remove_var("OMPSS_FAULT_SEED");
    assert_eq!(cfg.expect("valid overrides").faults, None);

    // Every bad value is a structured error naming the variable and the
    // value, never a panic.
    let bad = [
        ("OMPSS_SCHEDULE", "fifo"),
        ("OMPSS_CACHE_POLICY", "wback"),
        ("OMPSS_ROUTING", "direct"),
        ("OMPSS_PRESEND", "-1"),
        ("OMPSS_OVERLAP", "yes"),
        ("OMPSS_PREFETCH", ""),
        ("OMPSS_TRACE", "2"),
        ("OMPSS_VERIFY", "maybe"),
        ("OMPSS_SCHED_SEED", "0x11"),
        ("OMPSS_FAULT_RATE", "1.5"),
        ("OMPSS_FAULT_RATE", "-0.1"),
        ("OMPSS_FAULT_RATE", "NaN"),
        ("OMPSS_FAULT_SEED", "seven"),
        ("OMPSS_TASK_RETRIES", "4294967296"),
        ("OMPSS_AM_RETRIES", "3.0"),
        ("OMPSS_FAULT_NODE_LOSS", "0@800"),
        ("OMPSS_FAULT_NODE_LOSS", "1"),
        ("OMPSS_FAULT_NODE_LOSS", "1@soon"),
        ("OMPSS_SHARDS", "0"),
        ("OMPSS_SHARDS", "many"),
        ("OMPSS_NODE_JOIN", "0@500"),
        ("OMPSS_NODE_JOIN", "x@500"),
        ("OMPSS_NODE_DRAIN", "0@800"),
        ("OMPSS_NODE_DRAIN", "1@"),
    ];
    for (k, v) in bad {
        std::env::set_var(k, v);
        let got = RuntimeConfig::gpu_cluster(2).overridden_from_env();
        std::env::remove_var(k);
        match got {
            Err(RunError::InvalidConfig { what }) => {
                assert!(what.contains(k) && what.contains(&format!("{v:?}")), "{k}={v}: {what}");
            }
            other => panic!("{k}={v}: expected InvalidConfig, got {other:?}"),
        }
    }
}

/// A node-loss target outside the cluster is a config error, like a
/// join or drain target, not a panic. `OMPSS_FAULT_NODE_LOSS=9@100`
/// reaches the same field: the env parser rejects only node 0.
#[test]
fn node_loss_outside_the_cluster_is_a_config_error() {
    let cfg = RuntimeConfig::gpu_cluster(2).with_node_loss(9, SimDuration::from_micros(100));
    let got = std::panic::catch_unwind(|| {
        Runtime::try_run(cfg, |omp| async move {
            omp.taskwait().await;
        })
    });
    match got {
        Ok(Err(RunError::InvalidConfig { what })) => {
            assert!(what.contains("node_loss targets node 9"), "unhelpful message: {what}")
        }
        Ok(other) => panic!("expected InvalidConfig, got {other:?}"),
        Err(_) => panic!("try_run panicked on a node-loss target outside the cluster"),
    }
}

/// A machine without even the master node is a config error, not a
/// panic.
#[test]
fn zero_nodes_is_a_config_error() {
    let got = std::panic::catch_unwind(|| {
        Runtime::try_run(RuntimeConfig::gpu_cluster(0), |omp| async move {
            omp.taskwait().await;
        })
    });
    match got {
        Ok(Err(RunError::InvalidConfig { what })) => {
            assert!(what.contains("nodes must be at least 1"), "unhelpful message: {what}")
        }
        Ok(other) => panic!("expected InvalidConfig, got {other:?}"),
        Err(_) => panic!("try_run panicked on a zero-node config"),
    }
}

/// The headline scale claim of the async redesign: a 1000-node GPU
/// cluster — a thousand dispatchers, heartbeats, worker pools and GPU
/// managers, each a stackless future — boots, runs a task per node and
/// shuts down entirely in memory. Ignored by default because debug
/// builds pay ~100s of host time for it; `./ci.sh` runs it in release
/// (a few seconds) via the scale stage.
#[test]
#[ignore = "release-scale demonstration; run via ./ci.sh or --release -- --ignored"]
fn thousand_node_cluster_completes_in_memory() {
    let nodes = 1000usize;
    let cfg = RuntimeConfig::gpu_cluster(nodes as u32).with_backing(ompss_mem::Backing::Phantom);
    let rep = Runtime::run(cfg, move |omp| async move {
        let a = omp.alloc_array::<f32>(nodes * 1024);
        for n in 0..nodes {
            let r = a.region(n * 1024..(n + 1) * 1024);
            omp.submit(
                TaskSpec::new("touch")
                    .device(Device::Cuda)
                    .inout(r)
                    .cost_gpu(KernelCost::fixed(SimDuration::from_micros(100))),
            )
            .await;
        }
        omp.taskwait().await;
    });
    assert_eq!(rep.tasks, 1000);
    assert!(rep.events > 0);
}
