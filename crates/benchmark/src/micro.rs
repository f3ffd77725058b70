//! Per-layer micro-benchmarks on fixed inputs: the five groups of
//! `crates/bench/benches/micro.rs` (DES engine, channels, task graph,
//! scheduler, coherence fast path) plus one probe per remaining layer.
//! Each reports the median of [`REPS`] timed repetitions.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use ompss_apps::{matmul, nbody, perlin, ws};
use ompss_coherence::{
    CachePolicy, Coherence, HopKind, Loc, ShardMap, SlaveRouting, Topology, TransferExec,
    TransferPurpose,
};
use ompss_core::{AccessExt, TaskDesc, TaskGraph, TaskId};
use ompss_cudasim::{CopyDir, GpuDevice, GpuSpec, KernelCost};
use ompss_json::ToJson;
use ompss_mem::{Access, Backing, DataId, MemoryManager, Region, SpaceId, SpaceKind};
use ompss_net::{Fabric, FabricConfig};
use ompss_runtime::{Runtime, RuntimeConfig};
use ompss_sched::{NoLocality, Policy, ResourceInfo, ResourceKind, Scheduler};
use ompss_serve::{AdmitQueue, JobSpec, QueuedJob};
use ompss_sim::{delay, Channel, Sim, SimDuration, SimResult};

use crate::metrics::Recorder;
use crate::stats::median;

/// Timed repetitions per micro-benchmark.
pub const REPS: usize = 9;

/// Median over [`REPS`] runs of `f`, which returns one sample.
fn reps(mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..REPS).map(|_| f()).collect();
    median(&samples)
}

/// Host nanoseconds per operation of `f`, which performs `ops`
/// operations.
fn ns_per(ops: u64, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as f64 / ops as f64
}

/// Run every micro-benchmark into `rec`.
pub fn run_all(rec: &mut Recorder) {
    des(rec);
    graph(rec);
    sched(rec);
    coherence(rec);
    mem(rec);
    net(rec);
    cudasim(rec);
    kernels(rec);
    runtime(rec);
    serve(rec);
}

// ------------------------------------------------------------- sim

fn des(rec: &mut Recorder) {
    rec.set(
        "sim.delay_ns_per_event",
        reps(|| {
            let sim = Sim::new();
            sim.spawn("p", async {
                for _ in 0..20_000 {
                    delay(SimDuration::from_nanos(1)).await.expect("delay");
                }
            });
            let r = sim.run().expect("delay micro completes");
            r.host_ns as f64 / r.events as f64
        }),
    );
    rec.set(
        "sim.pingpong_ns_per_event",
        reps(|| {
            let sim = Sim::new();
            let a: Channel<u32> = Channel::new();
            let b: Channel<u32> = Channel::new();
            let (a1, b1) = (a.clone(), b.clone());
            sim.spawn("ping", async move {
                for i in 0..10_000 {
                    a1.send(i);
                    b1.recv().await.expect("pong replies");
                }
            });
            sim.process("pong").daemon().spawn(async move {
                while let Ok(v) = a.recv().await {
                    b.send(v);
                }
            });
            let r = sim.run().expect("pingpong micro completes");
            r.host_ns as f64 / r.events as f64
        }),
    );
    const PROCS: u64 = 20_000;
    rec.set(
        "sim.spawn_ns_per_process",
        reps(|| {
            ns_per(PROCS, || {
                let sim = Sim::new();
                sim.spawn("spawner", async {
                    for i in 0..PROCS {
                        ompss_sim::spawn(("p", i), async {
                            ompss_sim::yield_now().await.expect("yield");
                        });
                    }
                });
                sim.run().expect("spawn micro completes");
            })
        }),
    );
}

// ------------------------------------------------------------ core

fn graph(rec: &mut Recorder) {
    let reg = |d: u64, i: usize, j: usize| Region::new(DataId(d), ((i * 8 + j) * 64) as u64, 64);
    // A matmul-shaped graph: 8×8 tile grid, 8-deep chains per C tile.
    let mut shape = Vec::new();
    for i in 0..8 {
        for j in 0..8 {
            for k in 0..8 {
                shape.push(vec![
                    Access::read(reg(0, i, k)),
                    Access::read(reg(1, k, j)),
                    Access::update(reg(2, i, j)),
                ]);
            }
        }
    }
    rec.set(
        "core.add_complete_ns",
        reps(|| {
            ns_per(shape.len() as u64, || {
                let mut g = TaskGraph::new();
                let mut ready = Vec::new();
                for (i, a) in shape.iter().enumerate() {
                    if g.add_task(TaskId(i as u64), a).expect("acyclic shape") {
                        ready.push(TaskId(i as u64));
                    }
                }
                let mut at = 0;
                while at < ready.len() {
                    let t = ready[at];
                    at += 1;
                    ready.extend(g.complete(t));
                }
                assert_eq!(ready.len(), shape.len());
            })
        }),
    );
    // Pure submission at depth: 10k tasks, long reduction chains.
    let wrap = |d: u64, i: usize, j: usize| reg(d, i % 8, j % 8);
    let big: Vec<Vec<Access>> = (0..10_000)
        .map(|t| {
            let (i, j, k) = (t / 64, t / 8, t);
            vec![
                Access::read(wrap(0, i, k)),
                Access::read(wrap(1, k, j)),
                Access::update(wrap(2, i, j)),
            ]
        })
        .collect();
    rec.set(
        "core.add_task_ns",
        reps(|| {
            ns_per(big.len() as u64, || {
                let mut g = TaskGraph::new();
                for (i, a) in big.iter().enumerate() {
                    g.add_task(TaskId(i as u64), a).expect("acyclic shape");
                }
                black_box(g.submitted());
            })
        }),
    );
}

// ----------------------------------------------------------- sched

fn submit_next(policy: Policy, resources: u32) -> f64 {
    const TASKS: u64 = 1000;
    ns_per(TASKS, || {
        let mut s = Scheduler::new(policy);
        let res: Vec<_> = (0..resources)
            .map(|i| {
                s.register(ResourceInfo {
                    kind: ResourceKind::GpuManager,
                    space: SpaceId(i),
                    steal_group: 0,
                })
            })
            .collect();
        for i in 0..TASKS {
            let desc = TaskDesc {
                id: TaskId(i),
                label: String::new(),
                device: ompss_core::Device::Cuda,
                deps: vec![Access::update(Region::new(DataId(i % 16), 0, 64))],
                copy_deps: true,
                extra_copies: vec![],
                priority: 0,
            };
            s.submit(&desc, &NoLocality);
        }
        let mut n = 0;
        'drain: loop {
            for &r in &res {
                if s.next(r).is_some() {
                    n += 1;
                } else if s.queued() == 0 {
                    break 'drain;
                }
            }
        }
        assert_eq!(n, TASKS);
    })
}

fn sched(rec: &mut Recorder) {
    for (name, policy) in [
        ("sched.submit_next_ns.bf", Policy::BreadthFirst),
        ("sched.submit_next_ns.default", Policy::Dependencies),
        ("sched.submit_next_ns.affinity", Policy::Affinity),
    ] {
        rec.set(name, reps(|| submit_next(policy, 4)));
    }
    rec.set("sched.submit_next_ns.affinity_r256", reps(|| submit_next(Policy::Affinity, 256)));
}

// ------------------------------------------------------- coherence

/// A transfer executor that only charges virtual time.
struct NullExec;

impl TransferExec for NullExec {
    fn transfer<'a>(
        &'a self,
        _k: HopKind,
        _p: TransferPurpose,
        _s: Loc,
        _d: Loc,
        bytes: u64,
    ) -> std::pin::Pin<Box<dyn std::future::Future<Output = SimResult<bool>> + Send + 'a>> {
        Box::pin(async move {
            delay(SimDuration::from_nanos(bytes)).await?;
            Ok(true)
        })
    }
}

/// Host ns per acquire+commit pair, alternating between `gpus` GPUs:
/// with one GPU every acquire hits, with two every acquire misses and
/// moves the region from the other GPU.
fn acquire_commit(gpus: u32) -> f64 {
    const OPS: u64 = 1000;
    ns_per(OPS, || {
        let mem = Arc::new(MemoryManager::new(Backing::Phantom));
        let host = mem.add_space("h", SpaceKind::Host(0), None, 1 << 30);
        let mut topo = Topology::new(host, SlaveRouting::Direct);
        let spaces: Vec<SpaceId> = (0..gpus)
            .map(|g| {
                let s = mem.add_space(format!("g{g}"), SpaceKind::Gpu(0, g), Some(host), 1 << 30);
                topo.add_gpu(s, host);
                s
            })
            .collect();
        let coh = Arc::new(Coherence::new(mem.clone(), topo, CachePolicy::WriteBack));
        let data = mem.register_data(64, host).expect("host has room");
        let region = Region::new(data, 0, 64);
        let sim = Sim::new();
        sim.spawn("p", async move {
            for i in 0..OPS {
                let at = spaces[i as usize % spaces.len()];
                coh.acquire(&NullExec, &region, true, at).await.expect("acquire");
                coh.commit(&NullExec, &[Access::inout(region)], at).await.expect("commit");
            }
        });
        sim.run().expect("coherence micro completes");
    })
}

fn coherence(rec: &mut Recorder) {
    rec.set("coherence.hit_ns", reps(|| acquire_commit(1)));
    rec.set("coherence.miss_ns", reps(|| acquire_commit(2)));
    const LOOKUPS: u64 = 100_000;
    let map = ShardMap::new(256);
    rec.set(
        "coherence.shard_owner_ns",
        reps(|| {
            ns_per(LOOKUPS, || {
                for i in 0..LOOKUPS {
                    black_box(map.owner_node(DataId(black_box(i)), 256));
                }
            })
        }),
    );
}

// ------------------------------------------------------------- mem

fn mem(rec: &mut Recorder) {
    const MIB: u64 = 1 << 20;
    const COPIES: u64 = 64;
    let mem = MemoryManager::new(Backing::Real);
    let host = mem.add_space("h", SpaceKind::Host(0), None, 1 << 30);
    let gpu = mem.add_space("g", SpaceKind::Gpu(0, 0), Some(host), 1 << 30);
    let src = (host, mem.alloc(host, MIB).expect("host has room"));
    let dst = (gpu, mem.alloc(gpu, MIB).expect("gpu has room"));
    rec.set(
        "mem.copy_gb_per_s",
        reps(|| {
            let ns = ns_per(1, || {
                for _ in 0..COPIES {
                    mem.copy(src, 0, dst, 0, MIB);
                }
            });
            (COPIES * MIB) as f64 / ns
        }),
    );
}

// ------------------------------------------------------------- net

/// Host ns per `Fabric::send` + `recv` pair around a ring of `nodes`.
fn send_recv(nodes: u32) -> f64 {
    const MSGS: u32 = 2000;
    let fab: Fabric<u32> = Fabric::new(FabricConfig::qdr_infiniband(nodes));
    let sim = Sim::new();
    sim.spawn("p", async move {
        for i in 0..MSGS {
            let (src, dst) = (i % nodes, (i + 1) % nodes);
            fab.send(src, dst, 64, i).await.expect("send");
            fab.recv(dst).await.expect("recv");
        }
    });
    let r = sim.run().expect("net micro completes");
    r.host_ns as f64 / MSGS as f64
}

fn net(rec: &mut Recorder) {
    rec.set("net.send_recv_ns.n2", reps(|| send_recv(2)));
    rec.set("net.send_recv_ns.n256", reps(|| send_recv(256)));
}

// --------------------------------------------------------- cudasim

fn gpu_ops(memcpy: bool) -> f64 {
    const OPS: u32 = 2000;
    let dev = GpuDevice::new("g0", GpuSpec::gtx_480());
    let sim = Sim::new();
    sim.spawn("host", async move {
        for _ in 0..OPS {
            if memcpy {
                dev.memcpy(CopyDir::H2D, 4096, true, None).await.expect("memcpy");
            } else {
                dev.launch(KernelCost::fixed(SimDuration::from_micros(1)), None)
                    .await
                    .expect("launch");
            }
        }
    });
    let r = sim.run().expect("cudasim micro completes");
    r.host_ns as f64 / OPS as f64
}

fn cudasim(rec: &mut Recorder) {
    rec.set("cudasim.launch_ns", reps(|| gpu_ops(false)));
    rec.set("cudasim.memcpy_ns", reps(|| gpu_ops(true)));
}

// ---------------------------------------------------- kernel bodies

fn kernels(rec: &mut Recorder) {
    const BS: usize = 128;
    const CALLS: usize = 8;
    let a: Vec<f32> = (0..BS * BS).map(matmul::init_a).collect();
    let b: Vec<f32> = (0..BS * BS).map(matmul::init_b).collect();
    let mut c = vec![0.0f32; BS * BS];
    rec.set(
        "apps.sgemm_gflops",
        reps(|| {
            let ns = ns_per(1, || {
                for _ in 0..CALLS {
                    matmul::sgemm_tile(black_box(&a), black_box(&b), &mut c, BS);
                }
            });
            (2 * BS * BS * BS * CALLS) as f64 / ns
        }),
    );
    black_box(&c);

    const BODIES: usize = 4096;
    const BLOCK: usize = 512;
    let pos: Vec<f32> = (0..BODIES).flat_map(nbody::NbodyParams::init_pos).collect();
    let mut vel: Vec<f32> = (0..BLOCK).flat_map(nbody::NbodyParams::init_vel).collect();
    let mut out = vec![0.0f32; 4 * BLOCK];
    rec.set(
        "apps.nbody_step_ns",
        reps(|| {
            ns_per(BLOCK as u64, || {
                nbody::step_block(black_box(&pos), 0, BLOCK, &mut vel, &mut out)
            })
        }),
    );
    black_box(&out);

    const WIDTH: usize = 1024;
    const ROWS: usize = 64;
    let mut block = vec![perlin::PerlinParams::init_pixel(0); WIDTH * ROWS];
    rec.set(
        "apps.perlin_filter_mpix_per_s",
        reps(|| {
            let ns = ns_per(1, || perlin::filter_block(&mut block, 0, WIDTH, 1));
            (WIDTH * ROWS) as f64 / ns * 1e3
        }),
    );
    black_box(&block);
}

// --------------------------------------------------------- runtime

fn runtime(rec: &mut Recorder) {
    for (name, nodes) in [
        ("runtime.empty_run_ms.n8", 8),
        ("runtime.empty_run_ms.n64", 64),
        ("runtime.empty_run_ms.n256", 256),
    ] {
        rec.set(
            name,
            reps(|| {
                let cfg = RuntimeConfig::gpu_cluster(nodes).with_backing(Backing::Phantom);
                ns_per(1, || {
                    Runtime::try_run(cfg, |_omp| async {}).expect("empty program runs");
                }) / 1e6
            }),
        );
    }
    // The report a 64-node figure attaches: serialise and print it.
    let run = ws::run_stream(ws::ws_config(64, true), ws::WsParams::paper());
    let report = run.report.expect("ws runs carry a report");
    rec.set(
        "json.report_ns",
        reps(|| ns_per(1, || drop(black_box(report.to_json().to_compact_string())))),
    );
}

// ----------------------------------------------------------- serve

fn serve(rec: &mut Recorder) {
    const PARSES: u64 = 1000;
    let text = r#"{"app":"matmul","topology":"cluster","nodes":3,"priority":7,
                   "retries":2,"sched_seed":5,"fault_seed":9,"fault_rate":0.05,"tag":"t1"}"#;
    rec.set(
        "serve.spec_parse_ns",
        reps(|| {
            ns_per(PARSES, || {
                for _ in 0..PARSES {
                    black_box(JobSpec::parse(black_box(text)).expect("spec parses"));
                }
            })
        }),
    );
    const JOBS: u64 = 64;
    let spec = JobSpec::parse(text).expect("spec parses");
    rec.set(
        "serve.queue_push_pop_ns",
        reps(|| {
            ns_per(JOBS * 16, || {
                let mut q = AdmitQueue::new(JOBS as usize);
                for round in 0..16 {
                    for i in 0..JOBS {
                        let mut s = spec.clone();
                        s.priority = (i % 10) as u8;
                        q.push(QueuedJob::new(round * JOBS + i, s, None));
                    }
                    while q.pop().is_some() {}
                }
            })
        }),
    );
}
