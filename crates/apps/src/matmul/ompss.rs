//! OmpSs matrix multiply (Figure 1 of the paper): one GEMM task per
//! `(i, j, k)` tile triple, `input` on the A and B tiles and `inout` on
//! the C tile. The runtime distributes tiles over GPUs and nodes,
//! caches them, and keeps the dependence chains per C tile.

use ompss_mem::track;
use ompss_runtime::{task_views, Device, Omp, RunError, Runtime, RuntimeConfig, TaskSpec};

use crate::common::{gflops, unwrap_run, AppRun, PhaseTimer};

use super::{init_a, init_b, sgemm_tile, MatmulParams};

/// How the matrices are initialised before the multiply — Fig. 9's
/// `seq` / `smp` / `gpu` axis. Parallel init leaves the tiles resident
/// where the init tasks ran, drastically changing communication.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InitMode {
    /// Sequential initialisation on the master (all data starts there).
    Seq,
    /// Parallel init tasks on the cluster's CPUs.
    Smp,
    /// Parallel init tasks on the GPUs.
    Gpu,
}

/// Run the OmpSs version; measures the multiply phase (init excluded,
/// as its point is data *placement*).
pub fn run(cfg: RuntimeConfig, p: MatmulParams, init: InitMode) -> AppRun {
    unwrap_run(try_run(cfg, p, init))
}

/// Like [`run`], but surfaces deadlocks and executor failures as a
/// [`RunError`] value instead of panicking.
pub fn try_run(cfg: RuntimeConfig, p: MatmulParams, init: InitMode) -> Result<AppRun, RunError> {
    let out = std::rc::Rc::new(std::cell::RefCell::new(AppRun {
        elapsed: ompss_sim::SimDuration::ZERO,
        metric: 0.0,
        check: None,
        report: None,
    }));
    let out2 = out.clone();
    let rep = Runtime::try_run(cfg, move |omp| async move {
        let a = omp.alloc_array::<f32>(p.matrix_elems());
        let b = omp.alloc_array::<f32>(p.matrix_elems());
        let c = omp.alloc_array::<f32>(p.matrix_elems());

        match init {
            InitMode::Seq => {
                // Everything starts (and C's zeros already live) in the
                // master's host memory.
                if p.real {
                    omp.write_array(&a, 0, &(0..p.matrix_elems()).map(init_a).collect::<Vec<_>>());
                    omp.write_array(&b, 0, &(0..p.matrix_elems()).map(init_b).collect::<Vec<_>>());
                }
            }
            InitMode::Smp | InitMode::Gpu => {
                // One init task per tile, submitted matrix-by-matrix in
                // row order; demand-driven pickup spreads whole rows of
                // tiles per node, anchoring the GEMM chains.
                let device = if init == InitMode::Smp { Device::Smp } else { Device::Cuda };
                submit_inits(&omp, p, &a, device, "init_a", init_a).await;
                submit_inits(&omp, p, &b, device, "init_b", init_b).await;
                submit_inits(&omp, p, &c, device, "init_c", |_| 0.0).await;
                omp.taskwait_noflush().await;
            }
        }

        let timer = PhaseTimer::start(omp.now());
        submit_gemms(&omp, p, &a, &b, &c).await;
        // Like the MPI baseline (whose C stays distributed), the timed
        // phase ends when the multiply completes; the flush that gathers
        // C back to the master is outside the timer.
        omp.taskwait_noflush().await;
        let elapsed = timer.stop(omp.now());
        omp.taskwait().await;

        let check = if p.real { omp.read_array(&c, 0..p.matrix_elems()) } else { None };
        out2.replace(AppRun { elapsed, metric: gflops(p.flops(), elapsed), check, report: None });
    })?;
    let mut r = out.borrow().clone();
    r.report = Some(rep);
    Ok(r)
}

async fn submit_gemms(
    omp: &Omp,
    p: MatmulParams,
    a: &ompss_runtime::ArrayHandle<f32>,
    b: &ompss_runtime::ArrayHandle<f32>,
    c: &ompss_runtime::ArrayHandle<f32>,
) {
    let bs = p.bs;
    for i in 0..p.tiles {
        for j in 0..p.tiles {
            for k in 0..p.tiles {
                let ra = a.region(p.tile_range(i, k));
                let rb = b.region(p.tile_range(k, j));
                let rc = c.region(p.tile_range(i, j));
                omp.submit(
                    TaskSpec::new("sgemm")
                        .device(Device::Cuda)
                        .input(ra)
                        .input(rb)
                        .inout(rc)
                        .cost_gpu(p.gemm_cost())
                        .body(move |v| {
                            task_views!(v => at: f32, bt: f32, ct: f32);
                            track::record_read(ra);
                            track::record_read(rb);
                            track::record_read(rc);
                            track::record_write(rc);
                            sgemm_tile(at, bt, ct, bs);
                        }),
                )
                .await;
            }
        }
    }
}

/// Submit one output-only init task per tile of `h`, on `device`,
/// filling element `idx` (global) with `f(idx)`.
async fn submit_inits(
    omp: &Omp,
    p: MatmulParams,
    h: &ompss_runtime::ArrayHandle<f32>,
    device: Device,
    label: &str,
    f: fn(usize) -> f32,
) {
    for i in 0..p.tiles {
        for j in 0..p.tiles {
            let range = p.tile_range(i, j);
            let base = range.start;
            let r = h.region(range);
            // Memory-bound fills: the runtime's footprint-derived
            // default cost applies on either device kind.
            omp.submit(TaskSpec::new(label).device(device).output(r).body(move |v| {
                task_views!(v => tile: f32);
                track::record_write(r);
                for (off, x) in tile.iter_mut().enumerate() {
                    *x = f(base + off);
                }
            }))
            .await;
        }
    }
}
