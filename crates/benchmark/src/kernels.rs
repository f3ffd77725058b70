//! `real_kernels`: the four apps on real bytes, on a 4-GPU node and on
//! a 4-node cluster. Here the functional kernel bodies and the real
//! byte copies of `ompss-mem` do the work, and the DES and control
//! plane do little. Each output is checked against the app's serial
//! version with the tolerances of `crates/apps/tests/validation.rs`;
//! `serve_open` checks its direct runs the same way.

use std::sync::Arc;
use std::time::Instant;

use ompss_apps::common::{rel_error, AppRun};
use ompss_apps::matmul::{self, ompss::InitMode, MatmulParams};
use ompss_apps::nbody::{self, NbodyParams};
use ompss_apps::perlin::{self, PerlinParams};
use ompss_apps::stream::{self, StreamParams};
use ompss_runtime::{RunError, RuntimeConfig};

use crate::job::{Job, Program};

const MATMUL: MatmulParams = MatmulParams { tiles: 8, bs: 128, real: true };
const STREAM: StreamParams = StreamParams { n: 4 << 20, bsize: 256 << 10, ntimes: 4, real: true };
const NBODY: NbodyParams = NbodyParams { n: 4096, blocks: 8, iters: 4, real: true };
const PERLIN: PerlinParams =
    PerlinParams { width: 1024, height: 1024, steps: 4, rows_per_block: 64, real: true };

/// Problem sizes.
#[derive(Debug, Clone, Copy)]
pub enum Scale {
    /// The apps' `validate()` parameters, which `serve_open` jobs run.
    Validation,
    /// The `real_kernels` sizes above.
    Kernels,
}

/// An app's serial output, laid out as its OmpSs run returns it:
/// STREAM's three arrays in order, Perlin's `u32` pixels as `f32` bit
/// patterns.
pub fn serial(app: &str, scale: Scale) -> Vec<f32> {
    let v = matches!(scale, Scale::Validation);
    match app {
        "matmul" => matmul::serial::run(if v { MatmulParams::validate() } else { MATMUL }),
        "stream" => {
            let (a, b, c) = stream::serial::run(if v { StreamParams::validate() } else { STREAM });
            a.iter().chain(&b).chain(&c).map(|&x| x as f32).collect()
        }
        "nbody" => nbody::serial::run(if v { NbodyParams::validate() } else { NBODY }),
        "perlin" => perlin::serial::run(if v { PerlinParams::validate() } else { PERLIN })
            .into_iter()
            .map(f32::from_bits)
            .collect(),
        other => unreachable!("no app '{other}'"),
    }
}

/// Whether `got` is the serial output `want`: within a relative L2
/// error of 1e-6 for the float reductions (matmul, N-Body), bit for bit
/// otherwise.
pub fn matches(app: &str, got: &[f32], want: &[f32]) -> bool {
    match app {
        "matmul" | "nbody" => got.len() == want.len() && rel_error(got, want) < 1e-6,
        _ => got.iter().map(|x| x.to_bits()).eq(want.iter().map(|x| x.to_bits())),
    }
}

type App = Arc<dyn Fn(RuntimeConfig) -> Result<AppRun, RunError> + Send + Sync>;

/// The eight jobs, with scheduling tie-breaks permuted by `sched_seed`,
/// and the host seconds the serial references took (computed once,
/// here, outside every timed span).
pub fn jobs(sched_seed: u64) -> (Vec<Job>, f64) {
    let apps: [(&'static str, App); 4] = [
        ("matmul", Arc::new(|c| matmul::ompss::try_run(c, MATMUL, InitMode::Smp))),
        ("stream", Arc::new(|c| stream::ompss::try_run(c, STREAM))),
        ("nbody", Arc::new(|c| nbody::ompss::try_run(c, NBODY))),
        ("perlin", Arc::new(|c| perlin::ompss::try_run(c, PERLIN, false))),
    ];
    let t0 = Instant::now();
    let wants: Vec<Arc<Vec<f32>>> =
        apps.iter().map(|(app, _)| Arc::new(serial(app, Scale::Kernels))).collect();
    let serial_s = t0.elapsed().as_secs_f64();
    let mut jobs = Vec::new();
    for ((app, run), want) in apps.into_iter().zip(wants) {
        for (topo, nodes, cfg) in [
            ("multi_gpu(4)", 1, RuntimeConfig::multi_gpu(4)),
            ("gpu_cluster(4)", 4, RuntimeConfig::gpu_cluster(4)),
        ] {
            let want = want.clone();
            jobs.push(Job {
                label: format!("{app} on {topo}"),
                nodes,
                program: Program::Ompss {
                    cfg: Box::new(cfg.with_sched_seed(sched_seed)),
                    run: run.clone(),
                },
                check: Arc::new(move |a| matches(app, a.check.as_deref().unwrap_or(&[]), &want)),
            });
        }
    }
    (jobs, serial_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outputs_match_only_their_serial_version() {
        let want = serial("perlin", Scale::Validation);
        let mut flipped = want.clone();
        flipped[0] = f32::from_bits(flipped[0].to_bits() ^ 1);
        assert!(matches("perlin", &want, &want) && !matches("perlin", &flipped, &want));
        let want = serial("matmul", Scale::Validation);
        let rounded: Vec<f32> = want.iter().map(|x| x * (1.0 + 1e-8)).collect();
        let zeros = vec![0.0; want.len()];
        assert!(matches("matmul", &rounded, &want), "float reductions get a tolerance");
        assert!(!matches("matmul", &zeros, &want) && !matches("matmul", &want[1..], &want));
    }
}
