//! OmpSs Perlin filter: one task per row block per step, `inout` on
//! the block. The *Flush* variant performs a flushing `taskwait` after
//! every step (image needed on the host between filters); *NoFlush*
//! lets consecutive steps chain on the device through the dependence
//! graph.

use ompss_mem::track;
use ompss_runtime::{task_views, Device, RunError, Runtime, RuntimeConfig, TaskSpec};

use crate::common::{mpixels, unwrap_run, AppRun, PhaseTimer};

use super::{filter_block, PerlinParams};

/// Run the OmpSs version. `flush` selects the paper's Flush variant.
pub fn run(cfg: RuntimeConfig, p: PerlinParams, flush: bool) -> AppRun {
    unwrap_run(try_run(cfg, p, flush))
}

/// Like [`run`], but surfaces deadlocks and executor failures as a
/// [`RunError`] value instead of panicking.
pub fn try_run(cfg: RuntimeConfig, p: PerlinParams, flush: bool) -> Result<AppRun, RunError> {
    let out = std::rc::Rc::new(std::cell::RefCell::new(None));
    let out2 = out.clone();
    let rep = Runtime::try_run(cfg, move |omp| async move {
        let image = omp.alloc_array::<u32>(p.pixels());
        // The blank frame is produced in place by tasks, which also
        // distributes the row blocks across devices.
        for b in 0..p.blocks() {
            let base = b * p.rows_per_block * p.width;
            let r = image.region(base..base + p.block_pixels());
            omp.submit(TaskSpec::new("init").device(Device::Cuda).output(r).body(move |v| {
                task_views!(v => px: u32);
                track::record_write(r);
                for (off, x) in px.iter_mut().enumerate() {
                    *x = PerlinParams::init_pixel(base + off);
                }
            }))
            .await;
        }

        let timer = PhaseTimer::start(omp.now());
        for step in 0..p.steps {
            for b in 0..p.blocks() {
                let (row0, width) = (b * p.rows_per_block, p.width);
                let r = image.region(row0 * width..row0 * width + p.block_pixels());
                omp.submit(TaskSpec::new("perlin").device(Device::Cuda).inout(r).body(move |v| {
                    task_views!(v => px: u32);
                    track::record_read(r);
                    track::record_write(r);
                    filter_block(px, row0, width, step as u32);
                }))
                .await;
            }
            if flush {
                omp.taskwait().await;
            }
        }
        omp.taskwait().await;
        let elapsed = timer.stop(omp.now());

        let check = if p.real {
            omp.read_array(&image, 0..p.pixels())
                .map(|v| v.into_iter().map(f32::from_bits).collect())
        } else {
            None
        };
        *out2.borrow_mut() = Some(AppRun {
            elapsed,
            metric: mpixels(p.total_pixels(), elapsed),
            check,
            report: None,
        });
    })?;
    let mut r = out.take().unwrap();
    r.report = Some(rep);
    Ok(r)
}
