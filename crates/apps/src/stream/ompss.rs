//! OmpSs STREAM — Figure 2 of the paper verbatim: the four kernels are
//! annotated function tasks with `input`/`output` clauses per block;
//! the runtime chains them through the dependence graph and spreads
//! blocks over the GPUs. The kernels are memory-bound, so the runtime's
//! footprint-derived default cost applies.

use ompss_mem::track;
use ompss_runtime::{task_views, Device, RunError, Runtime, RuntimeConfig, TaskSpec};

use crate::common::{gbs, unwrap_run, AppRun, PhaseTimer};

use super::{kernels, StreamParams};

/// Run the OmpSs version; measures the `ntimes` sweeps.
pub fn run(cfg: RuntimeConfig, p: StreamParams) -> AppRun {
    unwrap_run(try_run(cfg, p))
}

/// Like [`run`], but surfaces deadlocks and executor failures as a
/// [`RunError`] value instead of panicking.
pub fn try_run(cfg: RuntimeConfig, p: StreamParams) -> Result<AppRun, RunError> {
    // Seeded defect "stream": declare the scale kernel's read of `c`
    // as an output clause instead. The WAW edge still orders the task
    // after `copy`, so results stay right under every schedule — only
    // clause conformance (the body records a read that no input/inout
    // clause covers) can catch the lie.
    let defect = ompss_sim::defects::armed("stream");
    let out = std::rc::Rc::new(std::cell::RefCell::new(None));
    let out2 = out.clone();
    let rep = Runtime::try_run(cfg, move |omp| async move {
        let a = omp.alloc_array::<f64>(p.n);
        let b = omp.alloc_array::<f64>(p.n);
        let c = omp.alloc_array::<f64>(p.n);
        // As in the original STREAM, the arrays are initialised in
        // parallel — by tasks, which also places the blocks on devices.
        // Only `a` needs values: `copy` overwrites `c` and `scale`
        // overwrites `b` before anything reads them (initialising `b`
        // here would be a dead write — ompss-verify's DeadWrite lint
        // caught the original version doing exactly that).
        for j in (0..p.n).step_by(p.bsize) {
            let ra = a.region(j..j + p.bsize);
            omp.submit(TaskSpec::new("init").device(Device::Cuda).output(ra).body(move |v| {
                task_views!(v => av: f64);
                track::record_write(ra);
                for (off, x) in av.iter_mut().enumerate() {
                    *x = StreamParams::init_a(j + off);
                }
            }))
            .await;
        }

        // One annotated task per blocked kernel invocation, exactly as
        // in the paper's Figure 2 (two pragma lines per kernel there,
        // one clause chain here).
        let timer = PhaseTimer::start(omp.now());
        for _ in 0..p.ntimes {
            for j in (0..p.n).step_by(p.bsize) {
                let (ra, rc) = (a.region(j..j + p.bsize), c.region(j..j + p.bsize));
                omp.submit(TaskSpec::new("copy").device(Device::Cuda).input(ra).output(rc).body(
                    move |v| {
                        task_views!(v => av: f64, cv: f64);
                        track::record_read(ra);
                        track::record_write(rc);
                        kernels::copy(av, cv);
                    },
                ))
                .await;
            }
            for j in (0..p.n).step_by(p.bsize) {
                let (rc, rb) = (c.region(j..j + p.bsize), b.region(j..j + p.bsize));
                let spec = TaskSpec::new("scale").device(Device::Cuda);
                let spec = if defect { spec.output(rc) } else { spec.input(rc) };
                omp.submit(spec.output(rb).body(move |v| {
                    task_views!(v => cv: f64, bv: f64);
                    track::record_read(rc);
                    track::record_write(rb);
                    kernels::scale(cv, bv);
                }))
                .await;
            }
            for j in (0..p.n).step_by(p.bsize) {
                let (ra, rb) = (a.region(j..j + p.bsize), b.region(j..j + p.bsize));
                let rc = c.region(j..j + p.bsize);
                omp.submit(
                    TaskSpec::new("add").device(Device::Cuda).input(ra).input(rb).output(rc).body(
                        move |v| {
                            task_views!(v => av: f64, bv: f64, cv: f64);
                            track::record_read(ra);
                            track::record_read(rb);
                            track::record_write(rc);
                            kernels::add(av, bv, cv);
                        },
                    ),
                )
                .await;
            }
            for j in (0..p.n).step_by(p.bsize) {
                let (rb, rc) = (b.region(j..j + p.bsize), c.region(j..j + p.bsize));
                let ra = a.region(j..j + p.bsize);
                omp.submit(
                    TaskSpec::new("triad")
                        .device(Device::Cuda)
                        .input(rb)
                        .input(rc)
                        .output(ra)
                        .body(move |v| {
                            task_views!(v => bv: f64, cv: f64, av: f64);
                            track::record_read(rb);
                            track::record_read(rc);
                            track::record_write(ra);
                            kernels::triad(bv, cv, av);
                        }),
                )
                .await;
            }
        }
        omp.taskwait_noflush().await;
        let elapsed = timer.stop(omp.now());
        omp.taskwait().await; // flush for validation, outside the timed phase

        let check = p.real.then(|| {
            let mut all = Vec::with_capacity(3 * p.n);
            for h in [&a, &b, &c] {
                omp.with_array(h, 0..p.n, |s| all.extend(s.iter().map(|&x| x as f32)))
                    .expect("real backing");
            }
            all
        });
        *out2.borrow_mut() =
            Some(AppRun { elapsed, metric: gbs(p.total_bytes(), elapsed), check, report: None });
    })?;
    let mut r = out.take().unwrap();
    r.report = Some(rep);
    Ok(r)
}
