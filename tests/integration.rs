//! Workspace-level integration tests: whole-stack scenarios through the
//! facade crate, spanning every layer (DES → memory → devices → network
//! → coherence → scheduler → runtime → applications).

use ompss::apps::common::rel_error;
use ompss::apps::matmul::{self, ompss::InitMode, MatmulParams};
use ompss::{
    cast_slice, cast_slice_mut, Backing, CachePolicy, Device, KernelCost, Policy, Runtime,
    RuntimeConfig, SimDuration, SlaveRouting, TaskSpec,
};

/// A heterogeneous pipeline: CPU tasks prepare data, GPU tasks transform
/// it, a CPU task reduces it — exercising SMP workers, GPU managers and
/// host↔device coherence in one graph.
#[test]
fn heterogeneous_cpu_gpu_pipeline_validates() {
    let n = 4096usize;
    let bs = 512usize;
    let sum = std::rc::Rc::new(std::cell::RefCell::new(0.0f64));
    let sum2 = sum.clone();
    Runtime::run(RuntimeConfig::multi_gpu(2), move |omp| async move {
        let x = omp.alloc_array::<f32>(n);
        let y = omp.alloc_array::<f32>(n);
        let acc = omp.alloc_array::<f32>(n / bs);
        // Stage 1 (CPU): fill x with ramp values.
        for j in (0..n).step_by(bs) {
            omp.submit(
                TaskSpec::new("fill")
                    .device(Device::Smp)
                    .output(x.region(j..j + bs))
                    .cost_smp(SimDuration::from_micros(20))
                    .body(move |v| {
                        for (o, e) in cast_slice_mut::<f32>(v[0]).iter_mut().enumerate() {
                            *e = (j + o) as f32;
                        }
                    }),
            )
            .await;
        }
        // Stage 2 (GPU): y = x * 2.
        for j in (0..n).step_by(bs) {
            omp.submit(
                TaskSpec::new("double")
                    .device(Device::Cuda)
                    .input(x.region(j..j + bs))
                    .output(y.region(j..j + bs))
                    .cost_gpu(KernelCost::memory_bound((bs * 8) as f64, 0.8))
                    .body(|v| {
                        let (xs, ys) = v.split_first_mut().unwrap();
                        for (o, e) in cast_slice_mut::<f32>(ys[0]).iter_mut().enumerate() {
                            *e = 2.0 * cast_slice::<f32>(xs)[o];
                        }
                    }),
            )
            .await;
        }
        // Stage 3 (CPU): per-block sums.
        for (b, j) in (0..n).step_by(bs).enumerate() {
            omp.submit(
                TaskSpec::new("reduce")
                    .device(Device::Smp)
                    .input(y.region(j..j + bs))
                    .output(acc.region(b..b + 1))
                    .cost_smp(SimDuration::from_micros(10))
                    .body(|v| {
                        let (ys, out) = v.split_first_mut().unwrap();
                        let s: f32 = cast_slice::<f32>(ys).iter().sum();
                        cast_slice_mut::<f32>(out[0])[0] = s;
                    }),
            )
            .await;
        }
        omp.taskwait().await;
        let partials = omp.read_array(&acc, 0..n / bs).unwrap();
        *sum2.borrow_mut() = partials.iter().map(|&p| p as f64).sum();
    });
    let expect: f64 = (0..n).map(|i| 2.0 * i as f64).sum();
    assert!((*sum.borrow() - expect).abs() < 1e-3 * expect.abs());
}

/// The flagship scenario: paper-scale matmul validated end-to-end on a
/// cluster at small size, then timed at paper scale — both through the
/// identical application code.
#[test]
fn matmul_small_validates_and_paper_scale_times() {
    let small = MatmulParams::validate();
    let reference = matmul::serial::run(small);
    let got =
        matmul::ompss::run(RuntimeConfig::gpu_cluster(4), small, InitMode::Smp).check.unwrap();
    assert!(rel_error(&got, &reference) < 1e-6);

    let paper = MatmulParams::paper();
    let r = matmul::ompss::run(
        RuntimeConfig::gpu_cluster(4).with_backing(Backing::Phantom).with_presend(4),
        paper,
        InitMode::Smp,
    );
    assert!(r.metric > 1000.0, "paper-scale cluster matmul too slow: {:.0} GF", r.metric);
    assert!(r.check.is_none(), "phantom runs carry no validation payload");
}

/// Every (cache policy × scheduler × routing) combination must produce
/// identical *numerical* results — policies change time, never values.
#[test]
fn policies_never_change_results() {
    let p = MatmulParams::validate();
    let reference = matmul::serial::run(p);
    for cache in CachePolicy::ALL {
        for sched in Policy::ALL {
            for routing in [SlaveRouting::ViaMaster, SlaveRouting::Direct] {
                let cfg = RuntimeConfig::gpu_cluster(2)
                    .with_cache(cache)
                    .with_sched(sched)
                    .with_routing(routing);
                let got = matmul::ompss::run(cfg, p, InitMode::Seq).check.unwrap();
                assert!(
                    rel_error(&got, &reference) < 1e-6,
                    "wrong result under {cache:?}/{sched:?}/{routing:?}"
                );
            }
        }
    }
}

/// Determinism across the whole stack: two identical cluster runs give
/// identical virtual-time reports, event counts and traffic.
#[test]
fn whole_stack_determinism() {
    let run = || {
        let r = matmul::ompss::run(
            RuntimeConfig::gpu_cluster(3).with_backing(Backing::Phantom).with_presend(2),
            MatmulParams { tiles: 6, bs: 256, real: false },
            InitMode::Smp,
        );
        let rep = r.report.unwrap();
        (r.elapsed, rep.events, rep.net.messages, rep.coherence.transfers, rep.sched.steals)
    };
    assert_eq!(run(), run());
}

/// Building a machine by hand from the substrate layer: a GPU device
/// driven directly under the DES, verifying stream/event semantics from
/// the facade.
#[test]
fn substrate_layer_usable_directly() {
    use ompss::substrate::{CopyDir, GpuDevice, Sim};
    use ompss::GpuSpec;

    let sim = Sim::new();
    sim.spawn("driver", async {
        let dev = GpuDevice::new("g", GpuSpec::tesla_s2050());
        let s = dev.create_stream("s");
        let k = s.launch_async(KernelCost::fixed(SimDuration::from_millis(2)), None);
        let c = s.memcpy_async(CopyDir::D2H, 1 << 20, false, None);
        // Same stream: FIFO — the copy completes after the kernel.
        c.synchronize().await;
        assert!(k.query());
        let st = dev.stats();
        assert_eq!(st.kernels, 1);
        assert_eq!(st.d2h_copies, 1);
    });
    sim.run().unwrap();
}

/// `taskwait on` synchronises one region; `taskwait noflush` leaves
/// device copies in place — checked through traffic accounting.
#[test]
fn taskwait_variants_through_facade() {
    // Two GPUs so the short task is not queued behind the long one.
    Runtime::run(RuntimeConfig::multi_gpu(2), |omp| async move {
        let a = omp.alloc_array::<f32>(256);
        let b = omp.alloc_array::<f32>(256);
        omp.submit(
            TaskSpec::new("wa")
                .device(Device::Cuda)
                .output(a.full())
                .cost_gpu(KernelCost::fixed(SimDuration::from_millis(5)))
                .body(|v| cast_slice_mut::<f32>(v[0]).fill(1.0)),
        )
        .await;
        omp.submit(
            TaskSpec::new("wb")
                .device(Device::Cuda)
                .output(b.full())
                .cost_gpu(KernelCost::fixed(SimDuration::from_micros(50)))
                .body(|v| cast_slice_mut::<f32>(v[0]).fill(2.0)),
        )
        .await;
        let t0 = omp.now();
        omp.taskwait_on(b.full()).await;
        assert!(omp.now() - t0 < SimDuration::from_millis(2), "must not wait for task wa");
        assert_eq!(omp.read_array(&b, 0..1).unwrap(), vec![2.0]);
        omp.taskwait_noflush().await;
        // a finished but was not flushed:
        assert_eq!(omp.read_array(&a, 0..1).unwrap(), vec![0.0]);
        omp.taskwait().await;
        assert_eq!(omp.read_array(&a, 0..1).unwrap(), vec![1.0]);
    });
}

/// An 8-node cluster with mixed SMP/CUDA tasks shuts down cleanly and
/// reports consistent accounting.
#[test]
fn large_cluster_mixed_device_accounting() {
    let report = Runtime::run(
        RuntimeConfig::gpu_cluster(8).with_backing(Backing::Phantom),
        |omp| async move {
            let a = omp.alloc_array::<f32>(64 * 1024);
            for j in (0..64 * 1024).step_by(4096) {
                let r = a.region(j..j + 4096);
                omp.submit(
                    TaskSpec::new("gpu")
                        .device(Device::Cuda)
                        .inout(r)
                        .cost_gpu(KernelCost::fixed(SimDuration::from_micros(400))),
                )
                .await;
            }
            omp.taskwait_noflush().await;
            for j in (0..64 * 1024).step_by(4096) {
                let r = a.region(j..j + 4096);
                omp.submit(
                    TaskSpec::new("cpu")
                        .device(Device::Smp)
                        .inout(r)
                        .cost_smp(SimDuration::from_micros(300)),
                )
                .await;
            }
            omp.taskwait().await;
        },
    );
    assert_eq!(report.tasks, 32);
    assert_eq!(report.gpus.len(), 8);
    let kernels: u64 = report.gpus.iter().map(|(_, g)| g.kernels).sum();
    assert_eq!(kernels, 16, "every GPU task launched exactly one kernel");
    assert!(report.net.bytes_total > 0, "cluster execution moved data over the fabric");
}

/// Tier-1 pin of Fig. WS at 16 nodes — past every other tier-1 test's
/// node count, where the comm thread's dispatch and the master's
/// wakeups decide the schedule. Each app, flat and sharded, must
/// reproduce the committed `results/figWS.json` bit for bit: the
/// metric, and the report's makespan, task count and event count.
#[test]
fn figws_16_nodes_matches_committed_results() {
    use ompss::apps::ws::{self, WsParams};
    use ompss_json::Json;

    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/results/figWS.json"))
        .expect("results/figWS.json is committed");
    let fig = Json::parse(&text).expect("figWS.json parses");
    let Some(Json::Arr(series)) = fig.get("series") else { panic!("figWS.json has no series") };
    let committed_y = |label: &str| {
        let s = series.iter().find(|s| s.get("label") == Some(&Json::Str(label.into())));
        let Some(Json::Arr(points)) = s.and_then(|s| s.get("points")) else {
            panic!("no series {label}")
        };
        let p = points.iter().find(|p| p.get("x") == Some(&Json::Str("16".into())));
        match p.and_then(|p| p.get("y")) {
            Some(Json::F64(y)) => *y,
            other => panic!("{label}@16: no y ({other:?})"),
        }
    };
    let reports = fig.get("reports").expect("figWS.json has reports");
    let p = WsParams::paper();
    type WsApp = fn(RuntimeConfig, WsParams) -> ompss::apps::common::AppRun;
    let apps: [(&str, WsApp); 2] = [("stream_ws", ws::run_stream), ("matmul_ws", ws::run_matmul)];
    for (app, run) in apps {
        for sharded in [false, true] {
            let label = format!("{app}/{}", if sharded { "sharded" } else { "flat" });
            let r = run(ws::ws_config(16, sharded), p);
            let want = committed_y(&label);
            assert_eq!(r.metric.to_bits(), want.to_bits(), "{label}@16: {} vs {want}", r.metric);
            let rep = r.report.expect("ws runs carry a report");
            let committed = reports.get(&format!("{label}@16nodes")).expect("16-node report");
            for (key, got) in [
                ("makespan_ns", rep.makespan.as_nanos()),
                ("tasks", rep.tasks),
                ("events", rep.events),
            ] {
                assert_eq!(Some(&Json::U64(got)), committed.get(key), "{label}@16: {key}");
            }
        }
    }
}
