//! The run lists of `paper_suite` and `weak_scale`.
//!
//! Each list mirrors the sweep loops of `ompss_bench::figures` run for
//! run, but calls each app's `try_run` directly, one at a time, so every
//! call can be timed and every failure counted. The lists cannot drift
//! from the figures unnoticed: each run's figure metric must equal,
//! bit for bit, the `(series, x)` point of the committed
//! `results/<fig>.json`, and a unit test holds the lists to exactly the
//! points those files contain.

use std::collections::HashMap;
use std::sync::Arc;

use ompss_apps::common::AppRun;
use ompss_apps::matmul::{self, ompss::InitMode};
use ompss_apps::{nbody, perlin, stream, ws};
use ompss_bench::figures::{FIG8_GPU_MEM, WS_NODES};
use ompss_cudasim::GpuSpec;
use ompss_json::Json;
use ompss_net::FabricConfig;
use ompss_runtime::{Backing, CachePolicy, Policy, RunError, RuntimeConfig, SlaveRouting};

use crate::job::{Job, MpiFn, Program};

const CACHES: [CachePolicy; 3] =
    [CachePolicy::NoCache, CachePolicy::WriteThrough, CachePolicy::WriteBack];
const SCHEDS: [Policy; 3] = [Policy::BreadthFirst, Policy::Dependencies, Policy::Affinity];
const GPUS: [u32; 3] = [1, 2, 4];
const NODES: [u32; 4] = [1, 2, 4, 8];

/// One point of a committed figure and the run that produces it.
pub struct FigureRun {
    /// Figure id (`fig05` … `figWS`).
    pub fig: &'static str,
    /// Series label.
    pub series: String,
    /// Sweep coordinate.
    pub x: String,
    /// Cluster nodes.
    pub nodes: u32,
    /// The run.
    pub program: Program,
}

fn mg(gpus: u32) -> RuntimeConfig {
    RuntimeConfig::multi_gpu(gpus).with_backing(Backing::Phantom)
}

fn cl(nodes: u32) -> RuntimeConfig {
    RuntimeConfig::gpu_cluster(nodes).with_backing(Backing::Phantom)
}

fn cl_best(nodes: u32) -> RuntimeConfig {
    cl(nodes).with_routing(SlaveRouting::Direct).with_presend(8)
}

fn cl_light(nodes: u32) -> RuntimeConfig {
    cl(nodes).with_routing(SlaveRouting::Direct).with_presend(1)
}

fn ompss(
    cfg: RuntimeConfig,
    run: impl Fn(RuntimeConfig) -> Result<AppRun, RunError> + Send + Sync + 'static,
) -> Program {
    Program::Ompss { cfg: Box::new(cfg), run: Arc::new(run) }
}

fn mpi(run: impl Fn() -> AppRun + Send + Sync + 'static) -> Program {
    let run: MpiFn = Arc::new(run);
    Program::Mpi(run)
}

struct Runs(Vec<FigureRun>);

impl Runs {
    fn push(&mut self, fig: &'static str, series: String, x: u32, nodes: u32, program: Program) {
        self.0.push(FigureRun { fig, series, x: x.to_string(), nodes, program });
    }
}

/// The 193 runs of Figs. 5–13.
pub fn paper_runs() -> Vec<FigureRun> {
    let mut r = Runs(Vec::new());
    let mm = matmul::MatmulParams::paper();
    for cache in CACHES {
        for sched in SCHEDS {
            let s = format!("{}/{}", cache.chart_label(), sched.chart_label());
            for gpus in GPUS {
                let cfg = mg(gpus).with_cache(cache).with_sched(sched);
                let p = ompss(cfg, move |c| matmul::ompss::try_run(c, mm, InitMode::Seq));
                r.push("fig05", s.clone(), gpus, 1, p);
            }
        }
    }
    for cache in CACHES {
        for sched in SCHEDS {
            let s = format!("{}/{}", cache.chart_label(), sched.chart_label());
            for gpus in GPUS {
                let sp = stream::StreamParams::paper(gpus as usize);
                let cfg = mg(gpus).with_cache(cache).with_sched(sched);
                r.push(
                    "fig06",
                    s.clone(),
                    gpus,
                    1,
                    ompss(cfg, move |c| stream::ompss::try_run(c, sp)),
                );
            }
        }
    }
    let pp = perlin::PerlinParams::paper();
    for flush in [true, false] {
        for cache in CACHES {
            let mode = if flush { "flush" } else { "noflush" };
            let s = format!("{mode}/{}", cache.chart_label());
            for gpus in GPUS {
                let cfg = mg(gpus).with_cache(cache).with_sched(Policy::Affinity);
                let p = ompss(cfg, move |c| perlin::ompss::try_run(c, pp, flush));
                r.push("fig07", s.clone(), gpus, 1, p);
            }
        }
    }
    let np = nbody::NbodyParams { n: 20_000, blocks: 4, iters: 10, real: false };
    for cache in CACHES {
        for gpus in GPUS {
            let cfg = mg(gpus).with_cache(cache).with_gpu_mem(FIG8_GPU_MEM);
            let p = ompss(cfg, move |c| nbody::ompss::try_run(c, np));
            r.push("fig08", cache.chart_label().to_string(), gpus, 1, p);
        }
    }
    for (routing, rl) in [(SlaveRouting::ViaMaster, "MtoS"), (SlaveRouting::Direct, "StoS")] {
        for (init, il) in [(InitMode::Seq, "seq"), (InitMode::Smp, "smp"), (InitMode::Gpu, "gpu")] {
            for presend in [0u32, 2, 8] {
                let s = format!("{rl}/{il}/presend{presend}");
                for nodes in NODES {
                    let cfg = cl(nodes).with_routing(routing).with_presend(presend);
                    let p = ompss(cfg, move |c| matmul::ompss::try_run(c, mm, init));
                    r.push("fig09", s.clone(), nodes, nodes, p);
                }
            }
        }
    }
    let (gtx, ib) = (GpuSpec::gtx_480, FabricConfig::qdr_infiniband);
    for nodes in NODES {
        let p = ompss(cl_best(nodes), move |c| matmul::ompss::try_run(c, mm, InitMode::Smp));
        r.push("fig10", "OmpSs".into(), nodes, nodes, p);
        let p = mpi(move || matmul::mpi::run(nodes, gtx(), ib(nodes), mm));
        r.push("fig10", "MPI+CUDA".into(), nodes, nodes, p);
    }
    for nodes in NODES {
        let sp = stream::StreamParams::paper(nodes as usize);
        let p = ompss(cl_best(nodes), move |c| stream::ompss::try_run(c, sp));
        r.push("fig11", "OmpSs".into(), nodes, nodes, p);
        let p = mpi(move || stream::mpi::run(nodes, gtx(), ib(nodes), sp));
        r.push("fig11", "MPI+CUDA".into(), nodes, nodes, p);
    }
    let pp = perlin::PerlinParams {
        width: 1024,
        height: 1024,
        steps: 10,
        rows_per_block: 128,
        real: false,
    };
    for (flush, ml) in [(true, "flush"), (false, "noflush")] {
        for nodes in NODES {
            let p = ompss(cl_light(nodes), move |c| perlin::ompss::try_run(c, pp, flush));
            r.push("fig12", format!("OmpSs/{ml}"), nodes, nodes, p);
            let p = mpi(move || perlin::mpi::run(nodes, gtx(), ib(nodes), pp, flush));
            r.push("fig12", format!("MPI+CUDA/{ml}"), nodes, nodes, p);
        }
    }
    let np = nbody::NbodyParams::paper();
    for nodes in NODES {
        let p = ompss(cl_light(nodes), move |c| nbody::ompss::try_run(c, np));
        r.push("fig13", "OmpSs".into(), nodes, nodes, p);
        let p = mpi(move || nbody::mpi::run(nodes, gtx(), ib(nodes), np));
        r.push("fig13", "MPI+CUDA".into(), nodes, nodes, p);
    }
    r.0
}

/// The 16 runs of Fig. WS: two app shapes × flat/sharded control plane
/// × 4/16/64/256 nodes.
pub fn weak_scale_runs() -> Vec<FigureRun> {
    type WsApp = fn(RuntimeConfig, ws::WsParams) -> Result<AppRun, RunError>;
    let apps: [(&str, WsApp); 2] =
        [("stream_ws", ws::try_run_stream), ("matmul_ws", ws::try_run_matmul)];
    let wp = ws::WsParams::paper();
    let mut r = Runs(Vec::new());
    for (app, run) in apps {
        for sharded in [false, true] {
            let s = format!("{app}/{}", if sharded { "sharded" } else { "flat" });
            for nodes in WS_NODES {
                let p = ompss(ws::ws_config(nodes, sharded), move |c| run(c, wp));
                r.push("figWS", s.clone(), nodes, nodes, p);
            }
        }
    }
    r.0
}

/// Figure points keyed by `(figure, series, x)`.
pub struct Points(HashMap<(String, String, String), f64>);

/// The committed figures the lists reproduce.
const COMMITTED: [(&str, &str); 10] = [
    ("fig05", include_str!("../../../results/fig05.json")),
    ("fig06", include_str!("../../../results/fig06.json")),
    ("fig07", include_str!("../../../results/fig07.json")),
    ("fig08", include_str!("../../../results/fig08.json")),
    ("fig09", include_str!("../../../results/fig09.json")),
    ("fig10", include_str!("../../../results/fig10.json")),
    ("fig11", include_str!("../../../results/fig11.json")),
    ("fig12", include_str!("../../../results/fig12.json")),
    ("fig13", include_str!("../../../results/fig13.json")),
    ("figWS", include_str!("../../../results/figWS.json")),
];

impl Points {
    /// Every point of the committed `results/` figures.
    ///
    /// # Panics
    /// Panics if a committed figure does not parse as a figure.
    pub fn committed() -> Points {
        let mut map = HashMap::new();
        for (fig, text) in COMMITTED {
            let doc = Json::parse(text).unwrap_or_else(|e| panic!("results/{fig}.json: {e}"));
            let Some(Json::Arr(series)) = doc.get("series") else {
                panic!("results/{fig}.json has no series")
            };
            for s in series {
                let (Some(Json::Str(label)), Some(Json::Arr(points))) =
                    (s.get("label"), s.get("points"))
                else {
                    panic!("results/{fig}.json: malformed series")
                };
                for p in points {
                    let x = match p.get("x") {
                        Some(Json::Str(x)) => x.clone(),
                        other => panic!("results/{fig}.json: bad x {other:?}"),
                    };
                    let y = match p.get("y") {
                        Some(Json::F64(y)) => *y,
                        Some(Json::U64(y)) => *y as f64,
                        other => panic!("results/{fig}.json: bad y {other:?}"),
                    };
                    map.insert((fig.to_string(), label.clone(), x), y);
                }
            }
        }
        Points(map)
    }

    /// The committed value of one point.
    pub fn get(&self, fig: &str, series: &str, x: &str) -> Option<f64> {
        self.0.get(&(fig.to_string(), series.to_string(), x.to_string())).copied()
    }

    /// Every key, for coverage checks.
    #[cfg(test)]
    fn keys(&self) -> impl Iterator<Item = &(String, String, String)> {
        self.0.keys()
    }

    /// Overwrite one point (tests corrupt an expected value).
    #[cfg(test)]
    fn set(&mut self, fig: &str, series: &str, x: &str, y: f64) {
        self.0.insert((fig.to_string(), series.to_string(), x.to_string()), y);
    }
}

/// Turn figure runs into jobs whose check is exact equality with the
/// committed point.
///
/// # Errors
/// Names the first run with no committed point.
pub fn into_jobs(runs: Vec<FigureRun>, points: &Points) -> Result<Vec<Job>, String> {
    runs.into_iter()
        .map(|r| {
            let label = format!("{} {} @ {}", r.fig, r.series, r.x);
            let want = points
                .get(r.fig, &r.series, &r.x)
                .ok_or_else(|| format!("{label}: no committed point"))?;
            Ok(Job {
                label,
                nodes: r.nodes,
                program: r.program,
                check: Arc::new(move |a| a.metric == want),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::job::{run_pass, Mode};
    use crate::spans::Spans;

    fn keys(runs: &[FigureRun]) -> HashSet<(String, String, String)> {
        runs.iter().map(|r| (r.fig.to_string(), r.series.clone(), r.x.clone())).collect()
    }

    /// The lists hold exactly the committed points: 193 runs for
    /// Figs. 5–13 and 16 for Fig. WS, no duplicates, none missing.
    #[test]
    fn run_lists_cover_exactly_the_committed_points() {
        let (paper, ws) = (paper_runs(), weak_scale_runs());
        assert_eq!((paper.len(), ws.len()), (193, 16));
        let mut listed = keys(&paper);
        listed.extend(keys(&ws));
        assert_eq!(listed.len(), 193 + 16, "a run is listed twice");
        let committed: HashSet<_> = Points::committed().keys().cloned().collect();
        assert_eq!(listed, committed);
    }

    /// A corrupted expected value makes the check fail, and the true one
    /// passes — on a real run of the cheapest point.
    #[test]
    fn a_corrupted_expected_value_fails_the_check() {
        let pick = || {
            paper_runs()
                .into_iter()
                .filter(|r| r.fig == "fig08" && r.series == "wb" && r.x == "1")
                .collect::<Vec<_>>()
        };
        let good = into_jobs(pick(), &Points::committed()).expect("point committed");
        let mut bad_points = Points::committed();
        let y = bad_points.get("fig08", "wb", "1").expect("point committed");
        bad_points.set("fig08", "wb", "1", y * (1.0 + 1e-12));
        let bad = into_jobs(pick(), &bad_points).expect("point present");
        let mode = Mode { tracing: false, attribute: false };
        let mut run = 0;
        let pass = |jobs: &[Job], run: &mut u64| {
            run_pass(jobs, &[0], mode, &Spans::off(), run, &mut || {})
        };
        assert_eq!(pass(&good, &mut run).failures.mismatches(), 0);
        assert_eq!(pass(&bad, &mut run).failures.mismatches(), 1);
    }
}
