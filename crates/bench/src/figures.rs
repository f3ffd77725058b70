//! Generation of every figure and table of the paper's evaluation.
//!
//! Each `figNN()` function runs the corresponding experiment sweep on
//! the simulated platform (phantom-backed, paper-scale workloads) and
//! returns the series. Shape assertions — the reproduction criteria —
//! live in the crate's integration tests and in `EXPERIMENTS.md`.
//!
//! Every configuration in a sweep is an independent simulation, so each
//! figure queues its runs and fans them across host threads with
//! [`ompss_sweep::run_jobs`] (`--jobs N` / `OMPSS_BENCH_JOBS`). Results
//! come back in submission order and the series are assembled by the
//! same loops that queued the runs, so the figure JSON is byte-identical
//! at any job count.

use ompss_apps::common::AppRun;
use ompss_apps::matmul::{self, ompss::InitMode};
use ompss_apps::{nbody, perlin, stream, ws};
use ompss_cudasim::GpuSpec;
use ompss_json::ToJson;
use ompss_net::FabricConfig;
use ompss_runtime::{Backing, CachePolicy, Policy, RuntimeConfig, SlaveRouting};

use crate::{FigureData, Series};

const GPUS: [u32; 3] = [1, 2, 4];
const NODES: [u32; 4] = [1, 2, 4, 8];

fn mg(gpus: u32) -> RuntimeConfig {
    RuntimeConfig::multi_gpu(gpus).with_backing(Backing::Phantom)
}

fn cl(nodes: u32) -> RuntimeConfig {
    RuntimeConfig::gpu_cluster(nodes).with_backing(Backing::Phantom)
}

/// The paper's "best setup" for cluster OmpSs runs (§IV-B2): direct
/// slave-to-slave transfers, SMP-parallel initialisation, deep presend.
fn cl_best(nodes: u32) -> RuntimeConfig {
    cl(nodes).with_routing(SlaveRouting::Direct).with_presend(8)
}

/// Best setup for the fine-grained apps (Perlin, N-Body): shallow
/// presend — deep lookahead pins small tasks to nodes before the
/// balancer can react (the paper likewise reports the cluster options
/// making no positive difference for these apps).
fn cl_light(nodes: u32) -> RuntimeConfig {
    cl(nodes).with_routing(SlaveRouting::Direct).with_presend(1)
}

/// Embed the run's full [`RunReport`](ompss_runtime::RunReport) JSON in
/// the figure, keyed by configuration label. Every figure attaches the
/// report of each series' largest configuration, so the observability
/// data (per-resource utilisation, cache counters, bytes by medium)
/// ships with the chart it explains.
fn attach(fig: &mut FigureData, key: String, r: &AppRun) {
    if let Some(rep) = &r.report {
        fig.attach_report(key, rep.to_json());
    }
}

/// A queued figure run, executed on the host-thread sweep.
type Task = Box<dyn FnOnce() -> AppRun + Send>;

/// Fan the queued runs across host threads, yielding results in
/// submission order so the assembly loops below consume them exactly
/// as the serial code did.
fn sweep(tasks: Vec<Task>) -> std::vec::IntoIter<AppRun> {
    ompss_sweep::run_jobs(ompss_sweep::jobs(), tasks).into_iter()
}

// ---------------------------------------------------------------- Fig 5

/// Fig. 5: Matrix multiply on the multi-GPU node — GFLOPS for every
/// cache policy × scheduling policy × GPU count.
pub fn fig05() -> FigureData {
    let mut fig =
        FigureData::new("fig05", "Matrix multiply, multi-GPU node (12288², 1024² tiles)", "GFLOPS");
    let p = matmul::MatmulParams::paper();
    let mut runs: Vec<Task> = Vec::new();
    for cache in CachePolicy::ALL {
        for sched in Policy::ALL {
            for gpus in GPUS {
                runs.push(Box::new(move || {
                    matmul::ompss::run(
                        mg(gpus).with_cache(cache).with_sched(sched),
                        p,
                        InitMode::Seq,
                    )
                }));
            }
        }
    }
    let mut results = sweep(runs);
    for cache in CachePolicy::ALL {
        for sched in Policy::ALL {
            let mut s = Series::new(format!("{}/{}", cache.chart_label(), sched.chart_label()));
            for gpus in GPUS {
                let r = results.next().expect("one result per queued config");
                if gpus == 4 {
                    attach(&mut fig, format!("{}@4gpus", s.label), &r);
                }
                s.push(gpus.to_string(), r.metric);
            }
            fig.add(s);
        }
    }
    fig.note("expected shape: nocache < wt < wb; dep/affinity pull ahead of bf as GPUs grow");
    fig
}

// ---------------------------------------------------------------- Fig 6

/// Fig. 6: STREAM on the multi-GPU node — GB/s for cache × scheduler ×
/// GPU count (768 MB of arrays per GPU).
pub fn fig06() -> FigureData {
    let mut fig = FigureData::new("fig06", "STREAM, multi-GPU node (768 MB/GPU)", "GB/s");
    let mut runs: Vec<Task> = Vec::new();
    for cache in CachePolicy::ALL {
        for sched in Policy::ALL {
            for gpus in GPUS {
                runs.push(Box::new(move || {
                    let p = stream::StreamParams::paper(gpus as usize);
                    stream::ompss::run(mg(gpus).with_cache(cache).with_sched(sched), p)
                }));
            }
        }
    }
    let mut results = sweep(runs);
    for cache in CachePolicy::ALL {
        for sched in Policy::ALL {
            let mut s = Series::new(format!("{}/{}", cache.chart_label(), sched.chart_label()));
            for gpus in GPUS {
                let r = results.next().expect("one result per queued config");
                if gpus == 4 {
                    attach(&mut fig, format!("{}@4gpus", s.label), &r);
                }
                s.push(gpus.to_string(), r.metric);
            }
            fig.add(s);
        }
    }
    fig.note("expected shape: wb far above nocache/wt; scheduler choice barely matters");
    fig
}

// ---------------------------------------------------------------- Fig 7

/// Fig. 7: Perlin noise on the multi-GPU node — Mpixels/s for
/// Flush/NoFlush × cache policy × GPU count.
pub fn fig07() -> FigureData {
    let mut fig = FigureData::new("fig07", "Perlin noise, multi-GPU node (1024×1024)", "Mpixels/s");
    let p = perlin::PerlinParams::paper();
    let mut runs: Vec<Task> = Vec::new();
    for flush in [true, false] {
        for cache in CachePolicy::ALL {
            for gpus in GPUS {
                runs.push(Box::new(move || {
                    // Locality-aware scheduling keeps row blocks anchored
                    // across the Flush variant's per-step taskwaits.
                    let cfg = mg(gpus).with_cache(cache).with_sched(Policy::Affinity);
                    perlin::ompss::run(cfg, p, flush)
                }));
            }
        }
    }
    let mut results = sweep(runs);
    for flush in [true, false] {
        for cache in CachePolicy::ALL {
            let mode = if flush { "flush" } else { "noflush" };
            let mut s = Series::new(format!("{}/{}", mode, cache.chart_label()));
            for gpus in GPUS {
                let r = results.next().expect("one result per queued config");
                if gpus == 4 {
                    attach(&mut fig, format!("{}@4gpus", s.label), &r);
                }
                s.push(gpus.to_string(), r.metric);
            }
            fig.add(s);
        }
    }
    fig.note("expected shape: NoFlush above Flush; caching helps NoFlush most");
    fig
}

// ---------------------------------------------------------------- Fig 8

/// GPU memory made visible to the cache for the Fig. 8 pressure study.
///
/// The paper attributes no-cache's win to N-Body filling GPU memory and
/// triggering replacement with delayed write-back. We reproduce the
/// *mechanism* by capping the cache capacity relative to the N-Body
/// working set (all-to-all blocks × double-buffered positions), as
/// documented in DESIGN.md.
pub const FIG8_GPU_MEM: u64 = 1 << 20;

/// Fig. 8: N-Body on the multi-GPU node — GFLOPS per cache policy ×
/// GPU count, under GPU memory pressure.
pub fn fig08() -> FigureData {
    let mut fig = FigureData::new(
        "fig08",
        "N-Body, multi-GPU node (20000 bodies, 10 iters, memory-pressured GPUs)",
        "GFLOPS",
    );
    // Coarse blocks (one per GPU at 4 GPUs, NVIDIA multi-GPU example
    // style) and a capped cache reproduce the pressure regime.
    let p = nbody::NbodyParams { n: 20_000, blocks: 4, iters: 10, real: false };
    let mut runs: Vec<Task> = Vec::new();
    for cache in CachePolicy::ALL {
        for gpus in GPUS {
            runs.push(Box::new(move || {
                nbody::ompss::run(mg(gpus).with_cache(cache).with_gpu_mem(FIG8_GPU_MEM), p)
            }));
        }
    }
    let mut results = sweep(runs);
    for cache in CachePolicy::ALL {
        let mut s = Series::new(cache.chart_label().to_string());
        for gpus in GPUS {
            let r = results.next().expect("one result per queued config");
            if gpus == 4 {
                attach(&mut fig, format!("{}@4gpus", s.label), &r);
            }
            s.push(gpus.to_string(), r.metric);
        }
        fig.add(s);
    }
    fig.note(
        "paper shape: nocache outperforms wt/wb; reproduced as near-parity (see EXPERIMENTS.md)",
    );
    fig.note("secondary shape: good scalability to 2-4 GPUs holds for all policies");
    fig
}

// ---------------------------------------------------------------- Fig 9

/// Fig. 9: Matrix multiply on the GPU cluster — GFLOPS for routing
/// (MtoS/StoS) × initialisation (seq/smp/gpu) × presend {0,2,8} ×
/// node count.
pub fn fig09() -> FigureData {
    let mut fig =
        FigureData::new("fig09", "Matrix multiply, GPU cluster configuration sweep", "GFLOPS");
    let p = matmul::MatmulParams::paper();
    let mut runs: Vec<Task> = Vec::new();
    for (routing, _) in [(SlaveRouting::ViaMaster, "MtoS"), (SlaveRouting::Direct, "StoS")] {
        for (init, _) in [(InitMode::Seq, "seq"), (InitMode::Smp, "smp"), (InitMode::Gpu, "gpu")] {
            for presend in [0u32, 2, 8] {
                for nodes in NODES {
                    runs.push(Box::new(move || {
                        let cfg = cl(nodes).with_routing(routing).with_presend(presend);
                        matmul::ompss::run(cfg, p, init)
                    }));
                }
            }
        }
    }
    let mut results = sweep(runs);
    for (_, rl) in [(SlaveRouting::ViaMaster, "MtoS"), (SlaveRouting::Direct, "StoS")] {
        for (_, il) in [(InitMode::Seq, "seq"), (InitMode::Smp, "smp"), (InitMode::Gpu, "gpu")] {
            for presend in [0u32, 2, 8] {
                let mut s = Series::new(format!("{rl}/{il}/presend{presend}"));
                for nodes in NODES {
                    let r = results.next().expect("one result per queued config");
                    if nodes == 8 {
                        attach(&mut fig, format!("{}@8nodes", s.label), &r);
                    }
                    s.push(nodes.to_string(), r.metric);
                }
                fig.add(s);
            }
        }
    }
    fig.note(
        "expected shapes: StoS >> MtoS at scale; parallel init >> seq; presend helps (with StoS)",
    );
    fig
}

// --------------------------------------------------------------- Fig 10

/// Fig. 10: Matrix multiply — best OmpSs setup vs MPI+CUDA SUMMA.
pub fn fig10() -> FigureData {
    let mut fig =
        FigureData::new("fig10", "Matrix multiply: OmpSs vs MPI+CUDA on the cluster", "GFLOPS");
    let p = matmul::MatmulParams::paper();
    let mut runs: Vec<Task> = Vec::new();
    for nodes in NODES {
        runs.push(Box::new(move || matmul::ompss::run(cl_best(nodes), p, InitMode::Smp)));
        runs.push(Box::new(move || {
            matmul::mpi::run(nodes, GpuSpec::gtx_480(), FabricConfig::qdr_infiniband(nodes), p)
        }));
    }
    let mut results = sweep(runs);
    let mut om = Series::new("OmpSs");
    let mut mp = Series::new("MPI+CUDA");
    for nodes in NODES {
        let r = results.next().expect("one result per queued config");
        if nodes == 8 {
            attach(&mut fig, "OmpSs@8nodes".to_string(), &r);
        }
        om.push(nodes.to_string(), r.metric);
        let m = results.next().expect("one result per queued config");
        mp.push(nodes.to_string(), m.metric);
    }
    fig.add(om);
    fig.add(mp);
    fig.note("expected shape: MPI ahead at 1-2 nodes, OmpSs ahead at 4-8");
    fig
}

// --------------------------------------------------------------- Fig 11

/// Fig. 11: STREAM on the GPU cluster — OmpSs vs MPI+CUDA.
pub fn fig11() -> FigureData {
    let mut fig = FigureData::new("fig11", "STREAM on the GPU cluster (768 MB/node)", "GB/s");
    let mut runs: Vec<Task> = Vec::new();
    for nodes in NODES {
        runs.push(Box::new(move || {
            stream::ompss::run(cl_best(nodes), stream::StreamParams::paper(nodes as usize))
        }));
        runs.push(Box::new(move || {
            let p = stream::StreamParams::paper(nodes as usize);
            stream::mpi::run(nodes, GpuSpec::gtx_480(), FabricConfig::qdr_infiniband(nodes), p)
        }));
    }
    let mut results = sweep(runs);
    let mut om = Series::new("OmpSs");
    let mut mp = Series::new("MPI+CUDA");
    for nodes in NODES {
        let r = results.next().expect("one result per queued config");
        if nodes == 8 {
            attach(&mut fig, "OmpSs@8nodes".to_string(), &r);
        }
        om.push(nodes.to_string(), r.metric);
        let m = results.next().expect("one result per queued config");
        mp.push(nodes.to_string(), m.metric);
    }
    fig.add(om);
    fig.add(mp);
    fig.note("expected shape: both scale ~linearly (no inter-node traffic), comparable levels");
    fig
}

// --------------------------------------------------------------- Fig 12

/// Fig. 12: Perlin noise on the GPU cluster — Flush/NoFlush, OmpSs vs
/// MPI+CUDA.
pub fn fig12() -> FigureData {
    let mut fig =
        FigureData::new("fig12", "Perlin noise on the GPU cluster (1024×1024)", "Mpixels/s");
    // One row-block per node at 8 nodes: cluster-grain tasks, so the
    // per-step dispatch latency is amortised as in the paper's runs.
    let p = perlin::PerlinParams {
        width: 1024,
        height: 1024,
        steps: 10,
        rows_per_block: 128,
        real: false,
    };
    let mut runs: Vec<Task> = Vec::new();
    for (flush, _) in [(true, "flush"), (false, "noflush")] {
        for nodes in NODES {
            runs.push(Box::new(move || perlin::ompss::run(cl_light(nodes), p, flush)));
            runs.push(Box::new(move || {
                perlin::mpi::run(
                    nodes,
                    GpuSpec::gtx_480(),
                    FabricConfig::qdr_infiniband(nodes),
                    p,
                    flush,
                )
            }));
        }
    }
    let mut results = sweep(runs);
    for (_, ml) in [(true, "flush"), (false, "noflush")] {
        let mut om = Series::new(format!("OmpSs/{ml}"));
        let mut mp = Series::new(format!("MPI+CUDA/{ml}"));
        for nodes in NODES {
            let r = results.next().expect("one result per queued config");
            if nodes == 8 {
                attach(&mut fig, format!("OmpSs/{ml}@8nodes"), &r);
            }
            om.push(nodes.to_string(), r.metric);
            let m = results.next().expect("one result per queued config");
            mp.push(nodes.to_string(), m.metric);
        }
        fig.add(om);
        fig.add(mp);
    }
    fig.note("expected shape: Flush flat/poor for both models; NoFlush scales; OmpSs ≈ MPI");
    fig
}

// --------------------------------------------------------------- Fig 13

/// Fig. 13: N-Body on the GPU cluster — OmpSs vs MPI+CUDA.
pub fn fig13() -> FigureData {
    let mut fig = FigureData::new(
        "fig13",
        "N-Body on the GPU cluster (20000 bodies, 10 iterations)",
        "GFLOPS",
    );
    let p = nbody::NbodyParams::paper();
    let mut runs: Vec<Task> = Vec::new();
    for nodes in NODES {
        runs.push(Box::new(move || nbody::ompss::run(cl_light(nodes), p)));
        runs.push(Box::new(move || {
            nbody::mpi::run(nodes, GpuSpec::gtx_480(), FabricConfig::qdr_infiniband(nodes), p)
        }));
    }
    let mut results = sweep(runs);
    let mut om = Series::new("OmpSs");
    let mut mp = Series::new("MPI+CUDA");
    for nodes in NODES {
        let r = results.next().expect("one result per queued config");
        if nodes == 8 {
            attach(&mut fig, "OmpSs@8nodes".to_string(), &r);
        }
        om.push(nodes.to_string(), r.metric);
        let m = results.next().expect("one result per queued config");
        mp.push(nodes.to_string(), m.metric);
    }
    fig.add(om);
    fig.add(mp);
    fig.note("expected shape: MPI ahead at 1-2 nodes; OmpSs scales better toward 8");
    fig
}

// --------------------------------------------------------------- Fig WS

/// Node counts of the weak-scaling sweep — past the paper's scale on
/// purpose: the flat master saturates inside this range, the sharded
/// plane does not.
pub const WS_NODES: [u32; 4] = [4, 16, 64, 256];

/// The cluster preset at weak-scaling node counts, flat or sharded
/// (one shard per node).
fn ws_cfg(nodes: u32, sharded: bool) -> RuntimeConfig {
    ws::ws_config(nodes, sharded)
}

/// Fig. WS: weak scaling of the control plane — aggregate task
/// throughput at fixed per-node work, flat single master vs the
/// sharded plane (`OMPSS_SHARDS`), on the two weak-scaling apps.
pub fn figws() -> FigureData {
    let mut fig = FigureData::new(
        "figWS",
        "Weak scaling, flat vs sharded control plane (4 × 256 KiB blocks/node)",
        "ktasks/s",
    );
    type WsApp = fn(RuntimeConfig, ws::WsParams) -> AppRun;
    let p = ws::WsParams::paper();
    let apps: [(&str, WsApp); 2] = [("stream_ws", ws::run_stream), ("matmul_ws", ws::run_matmul)];
    let mut runs: Vec<Task> = Vec::new();
    for (_, run) in apps {
        for sharded in [false, true] {
            for nodes in WS_NODES {
                runs.push(Box::new(move || run(ws_cfg(nodes, sharded), p)));
            }
        }
    }
    let mut results = sweep(runs);
    for (app, _) in apps {
        for sharded in [false, true] {
            let mode = if sharded { "sharded" } else { "flat" };
            let mut s = Series::new(format!("{app}/{mode}"));
            for nodes in WS_NODES {
                let r = results.next().expect("one result per queued config");
                // 16 nodes: the tier-1 pin (`tests/integration.rs`)
                // re-runs these points; 64: flat saturated.
                if nodes == 16 || nodes == 64 {
                    attach(&mut fig, format!("{}@{nodes}nodes", s.label), &r);
                }
                s.push(nodes.to_string(), r.metric);
            }
            fig.add(s);
        }
    }
    fig.note("expected shape: flat saturates by 64 nodes; sharded keeps gaining through 256");
    fig.note("sharded reports carry shard_lookups/peer_resolutions/submaster_spawns counters");
    fig
}

// --------------------------------------------------------------- Table I

/// Table I: useful lines of code of each benchmark version, counted
/// from this repository's real sources (the artifacts themselves).
pub fn table1() -> FigureData {
    let mut fig = FigureData::new(
        "table1",
        "Productivity: useful LoC per version (increase vs serial)",
        "lines",
    );
    let src = crate::apps_src_dir();
    let apps = ["matmul", "stream", "perlin", "nbody"];
    let versions = ["serial", "cuda", "mpi", "ompss"];
    let mut counts = std::collections::HashMap::new();
    for app in apps {
        for v in versions {
            let path = src.join(app).join(format!("{v}.rs"));
            counts.insert((app, v), crate::useful_lines(&path));
        }
    }
    for v in versions {
        let mut s = Series::new(v.to_string());
        for app in apps {
            s.push(app.to_string(), counts[&(app, v)] as f64);
        }
        fig.add(s);
    }
    for app in apps {
        let base = counts[&(app, "serial")] as f64;
        let pct = |v: &str| (counts[&(app, v)] as f64 - base) / base * 100.0;
        fig.note(format!(
            "{app}: serial {} | cuda {} (+{:.0}%) | mpi+cuda {} (+{:.0}%) | ompss {} (+{:.0}%)",
            counts[&(app, "serial")],
            counts[&(app, "cuda")],
            pct("cuda"),
            counts[&(app, "mpi")],
            pct("mpi"),
            counts[&(app, "ompss")],
            pct("ompss"),
        ));
    }
    fig.note("expected shape per app: increase(ompss) < increase(cuda) < increase(mpi+cuda)");
    fig
}
