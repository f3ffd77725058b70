//! Shared harness plumbing for the non-OmpSs application versions.
//!
//! The CUDA and MPI+CUDA baselines are ordinary "programs": one process
//! (CUDA) or one process per rank (MPI) driving simulated devices and a
//! simulated fabric. The helpers here are the `main()` scaffolding all
//! versions share — they are deliberately *outside* the per-version
//! source files so that Table I's line counting compares only the code
//! a programmer writes differently per model.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use ompss_net::{FabricConfig, Mpi, MpiRank};
use ompss_sim::{Sim, SimDuration, SimTime};

/// Outcome of one application run.
#[derive(Debug, Clone)]
pub struct AppRun {
    /// Virtual time of the measured phase.
    pub elapsed: SimDuration,
    /// The figure's y-axis metric (GFLOPS, GB/s or Mpixels/s,
    /// depending on the app).
    pub metric: f64,
    /// Validation payload (final output) when running with real data;
    /// `None` for phantom paper-scale runs.
    pub check: Option<Vec<f32>>,
    /// Full runtime report (OmpSs versions only).
    pub report: Option<ompss_runtime::RunReport>,
}

// Sweeps and the job server return runs from their worker threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<AppRun>();
};

/// Unwrap a fallible OmpSs app run, panicking with the same messages
/// [`Runtime::run`] would have produced. The `run` entry point of each
/// OmpSs version is `try_run` plus this, so harnesses that want the
/// failure as a value (schedule exploration, model checking) share one
/// program body with the crash-on-failure callers.
///
/// [`Runtime::run`]: ompss_runtime::Runtime::run
pub fn unwrap_run(result: Result<AppRun, ompss_runtime::RunError>) -> AppRun {
    use ompss_runtime::RunError;
    match result {
        Ok(r) => r,
        Err(RunError::Deadlock { blocked }) => {
            let names: Vec<&str> = blocked.iter().map(|p| p.name.as_str()).collect();
            panic!("runtime deadlock; stuck: {names:?}")
        }
        Err(RunError::ProcessPanic(name, msg)) => panic!("process '{name}' panicked: {msg}"),
        Err(e) => panic!("run failed: {e}"),
    }
}

/// Run `fut` as the only process of a fresh simulation and return its
/// result.
pub fn run_single<R: 'static>(name: &str, fut: impl Future<Output = R> + 'static) -> R {
    let out: Rc<RefCell<Option<R>>> = Rc::default();
    let out2 = out.clone();
    let sim = Sim::new();
    sim.spawn(name.to_string(), async move {
        *out2.borrow_mut() = Some(fut.await);
    });
    sim.run().expect("simulation failed");
    out.take().expect("process completed")
}

/// Run one process per MPI rank over a fresh fabric; returns each
/// rank's result in rank order.
pub fn run_mpi_ranks<R, F, Fut>(nodes: u32, fabric: FabricConfig, f: F) -> Vec<R>
where
    R: 'static,
    F: Fn(MpiRank) -> Fut + 'static,
    Fut: Future<Output = R> + 'static,
{
    assert_eq!(fabric.nodes, nodes);
    let mpi = Mpi::new(fabric);
    let outs: Rc<Vec<RefCell<Option<R>>>> =
        Rc::new((0..nodes).map(|_| RefCell::new(None)).collect());
    let f = Rc::new(f);
    let sim = Sim::new();
    for r in 0..nodes {
        let rank = mpi.rank(r);
        let outs = outs.clone();
        let f = f.clone();
        sim.spawn(format!("rank{r}"), async move {
            let v = f(rank).await;
            *outs[r as usize].borrow_mut() = Some(v);
        });
    }
    sim.run().expect("simulation failed");
    Rc::try_unwrap(outs)
        .unwrap_or_else(|_| panic!("rank processes retained results"))
        .into_iter()
        .map(|m| m.into_inner().expect("rank completed"))
        .collect()
}

/// A start/stop timer on the virtual clock.
pub struct PhaseTimer {
    start: SimTime,
}

impl PhaseTimer {
    /// Start timing at `now`.
    pub fn start(now: SimTime) -> Self {
        PhaseTimer { start: now }
    }

    /// Elapsed virtual time at `now`.
    pub fn stop(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.start)
    }
}

/// GFLOP/s for `flops` of work in `t`.
pub fn gflops(flops: f64, t: SimDuration) -> f64 {
    flops / t.as_secs_f64() / 1e9
}

/// GB/s for `bytes` in `t`.
pub fn gbs(bytes: f64, t: SimDuration) -> f64 {
    bytes / t.as_secs_f64() / 1e9
}

/// Mpixels/s for `pixels` in `t`.
pub fn mpixels(pixels: f64, t: SimDuration) -> f64 {
    pixels / t.as_secs_f64() / 1e6
}

/// Relative L2 error between two vectors (validation tolerance for
/// float-order differences).
pub fn rel_error(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len());
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (&x, &y) in a.iter().zip(b) {
        num += ((x - y) as f64).powi(2);
        den += (y as f64).powi(2);
    }
    if den == 0.0 {
        num.sqrt()
    } else {
        (num / den).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_single_returns_value() {
        let v = run_single("t", async {
            ompss_sim::delay(SimDuration::from_millis(1)).await.unwrap();
            ompss_sim::now().as_nanos()
        });
        assert_eq!(v, 1_000_000);
    }

    #[test]
    fn run_mpi_ranks_returns_in_rank_order() {
        let vs =
            run_mpi_ranks(
                3,
                FabricConfig::qdr_infiniband(3),
                |rank| async move { rank.rank() * 10 },
            );
        assert_eq!(vs, vec![0, 10, 20]);
    }

    #[test]
    fn metric_helpers() {
        let t = SimDuration::from_secs(2);
        assert_eq!(gflops(4e9, t), 2.0);
        assert_eq!(gbs(4e9, t), 2.0);
        assert_eq!(mpixels(4e6, t), 2.0);
    }

    #[test]
    fn rel_error_detects_differences() {
        assert_eq!(rel_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!(rel_error(&[1.0, 2.0], &[1.0, 2.1]) > 0.01);
    }
}
