//! OmpSs N-Body: one task per body block per iteration, reading *all*
//! position blocks (`input` × blocks), updating its velocities
//! (`inout`) and producing its slice of the next positions (`output`).
//! The all-to-all redistribution the paper describes is exactly what
//! the coherence layer does to satisfy those input clauses on every
//! GPU each iteration.

use ompss_mem::{cast_slice, track};
use ompss_runtime::{Device, RunError, Runtime, RuntimeConfig, TaskSpec};

use crate::common::{gflops, unwrap_run, AppRun, PhaseTimer};

use super::{step_block, NbodyParams};

/// Run the OmpSs version.
pub fn run(cfg: RuntimeConfig, p: NbodyParams) -> AppRun {
    unwrap_run(try_run(cfg, p))
}

/// Like [`run`], but surfaces deadlocks and executor failures as a
/// [`RunError`] value instead of panicking.
pub fn try_run(cfg: RuntimeConfig, p: NbodyParams) -> Result<AppRun, RunError> {
    let out = std::rc::Rc::new(std::cell::RefCell::new(None));
    let out2 = out.clone();
    let rep = Runtime::try_run(cfg, move |omp| async move {
        // One position array per round: each iteration produces a fresh
        // snapshot that must be distributed to all GPUs (the paper's
        // "data from the previous round"), while older rounds linger as
        // dirty device copies until the cache writes them back.
        let pos: Vec<_> = (0..=p.iters).map(|_| omp.alloc_array::<f32>(4 * p.n)).collect();
        let vel = omp.alloc_array::<f32>(4 * p.n);
        if p.real {
            let mut ps = Vec::with_capacity(4 * p.n);
            let mut vs = Vec::with_capacity(4 * p.n);
            for i in 0..p.n {
                ps.extend_from_slice(&NbodyParams::init_pos(i));
                vs.extend_from_slice(&NbodyParams::init_vel(i));
            }
            omp.write_array(&pos[0], 0, &ps);
            omp.write_array(&vel, 0, &vs);
        }

        let bl = p.block_len();
        let bf = p.block_floats();
        let timer = PhaseTimer::start(omp.now());
        for it in 0..p.iters {
            let (cur, nxt) = (pos[it], pos[it + 1]);
            for b in 0..p.blocks {
                let mut spec =
                    TaskSpec::new("nbody_step").device(Device::Cuda).cost_gpu(p.kernel_cost());
                for src in 0..p.blocks {
                    spec = spec.input(cur.region(src * bf..(src + 1) * bf));
                }
                let rvel = vel.region(b * bf..(b + 1) * bf);
                let rout = nxt.region(b * bf..(b + 1) * bf);
                spec = spec.inout(rvel).output(rout);
                let blocks = p.blocks;
                omp.submit(spec.body(move |v| {
                    for src in 0..blocks {
                        track::record_read(cur.region(src * bf..(src + 1) * bf));
                    }
                    track::record_read(rvel);
                    track::record_write(rvel);
                    track::record_write(rout);
                    // Reassemble the full position array from the block
                    // views (the device kernel reads them in place; the
                    // functional model concatenates).
                    let mut pos_all = Vec::with_capacity(blocks * bf);
                    for view in v.iter().take(blocks) {
                        pos_all.extend_from_slice(cast_slice::<f32>(view));
                    }
                    let (velv, outv) = v[blocks..].split_first_mut().unwrap();
                    ompss_runtime::task_views!(outv => out: f32);
                    step_block(&pos_all, b * bl, bl, ompss_mem::cast_slice_mut(velv), out);
                }))
                .await;
            }
        }
        omp.taskwait_noflush().await;
        let elapsed = timer.stop(omp.now());
        omp.taskwait().await;

        let check = if p.real { omp.read_array(&pos[p.iters], 0..4 * p.n) } else { None };
        *out2.borrow_mut() =
            Some(AppRun { elapsed, metric: gflops(p.flops(), elapsed), check, report: None });
    })?;
    let mut r = out.take().unwrap();
    r.report = Some(rep);
    Ok(r)
}
