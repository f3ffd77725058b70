//! Host-performance machinery must never change what a run computes.
//!
//! Two invariants pin the perf work (parallel sweeps, DES fast paths)
//! to the determinism contract, in the same spirit as
//! `fault_zero_cost.rs`:
//!
//! * **Sweep-width neutrality** — running the same configurations
//!   through the sweep runner at `--jobs 4` must produce byte-identical
//!   report JSON to `--jobs 1`. Parallelism may only change *when* a
//!   configuration runs, never *what* it computes.
//! * **Fast-path neutrality** — the kernel's inline-delay and
//!   wakeup-dedup fast paths (disabled via `OMPSS_SIM_NO_FASTPATH=1`)
//!   must leave the virtual-time fingerprint — makespan, event count,
//!   clock advances, task count — and the computed results unchanged.
//!
//! Host wall-clock fields (`host_ns`, `events_per_sec`) are *expected*
//! to differ run to run; the JSON serialisation must therefore exclude
//! them, which the byte comparison below also enforces.

use std::sync::Mutex;

use ompss_apps::common::AppRun;
use ompss_apps::matmul::ompss::InitMode;
use ompss_apps::matmul::{self, MatmulParams};
use ompss_apps::nbody::{self, NbodyParams};
use ompss_apps::ws::{self, WsParams};
use ompss_json::ToJson;
use ompss_runtime::{RunReport, RuntimeConfig};

/// Serialises the env-sensitive parts of these tests: `ENV_LOCK` keeps
/// the `OMPSS_SIM_NO_FASTPATH` flip from interleaving with the sweep
/// test's simulations inside this test binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn fingerprint(r: &RunReport) -> (u64, u64, u64, u64) {
    (r.makespan.as_nanos(), r.events, r.clock_advances, r.tasks)
}

/// The validate-scale configurations the sweep test fans out: two apps
/// across the paper's two topologies, plus the weak-scaling apps on a
/// sharded-control-plane cluster — the figWS configurations, so the
/// sharded directory/sub-master machinery is held to the same
/// byte-identity contract as the flat plane.
fn sweep_tasks() -> Vec<Box<dyn FnOnce() -> AppRun + Send>> {
    let mut tasks: Vec<Box<dyn FnOnce() -> AppRun + Send>> = Vec::new();
    for cfg in [RuntimeConfig::multi_gpu(2), RuntimeConfig::gpu_cluster(2)] {
        let c = cfg.clone();
        tasks
            .push(Box::new(move || matmul::ompss::run(c, MatmulParams::validate(), InitMode::Smp)));
        tasks.push(Box::new(move || nbody::ompss::run(cfg, NbodyParams::validate())));
    }
    tasks.push(Box::new(|| ws::run_stream(ws::ws_config(8, true), WsParams::paper())));
    tasks.push(Box::new(|| ws::run_matmul(ws::ws_config(8, true), WsParams::paper())));
    tasks
}

/// One byte-comparable digest per run: the full report JSON plus the
/// computed output.
fn digests(runs: Vec<AppRun>) -> Vec<(String, Option<Vec<f32>>)> {
    runs.into_iter()
        .map(|r| {
            let rep = r.report.as_ref().expect("ompss app run carries a report");
            (rep.to_json().to_pretty_string(), r.check)
        })
        .collect()
}

#[test]
fn sweep_width_does_not_change_report_bytes() {
    let _guard = ENV_LOCK.lock().unwrap();
    let serial = digests(ompss_sweep::run_jobs(1, sweep_tasks()));
    let parallel = digests(ompss_sweep::run_jobs(4, sweep_tasks()));
    assert_eq!(serial.len(), parallel.len());
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s.0, p.0, "config {i}: report JSON differs between --jobs 1 and --jobs 4");
        assert_eq!(s.1, p.1, "config {i}: computed results differ between --jobs 1 and --jobs 4");
    }
}

#[test]
fn fast_paths_do_not_change_fingerprint_or_results() {
    let _guard = ENV_LOCK.lock().unwrap();
    let run =
        || matmul::ompss::run(RuntimeConfig::multi_gpu(2), MatmulParams::validate(), InitMode::Smp);
    let fast = run();
    // The kernel samples the variable at `Sim::new`, so flipping it
    // between runs (under ENV_LOCK) gives a clean A/B.
    std::env::set_var("OMPSS_SIM_NO_FASTPATH", "1");
    let slow = run();
    std::env::remove_var("OMPSS_SIM_NO_FASTPATH");

    let (fast_rep, slow_rep) = (fast.report.as_ref().unwrap(), slow.report.as_ref().unwrap());
    assert_eq!(
        fingerprint(fast_rep),
        fingerprint(slow_rep),
        "fast paths changed the virtual-time fingerprint"
    );
    assert_eq!(fast.check, slow.check, "fast paths changed the computed results");
    assert_eq!(
        fast_rep.to_json().to_pretty_string(),
        slow_rep.to_json().to_pretty_string(),
        "fast paths changed the serialised report"
    );
    assert_eq!(slow_rep.wakes_coalesced, 0, "OMPSS_SIM_NO_FASTPATH=1 must disable wake coalescing");
    assert!(fast_rep.host_ns > 0, "the kernel must record host wall-clock time");
}

mod jobs_width_props {
    //! Satellite of the async-executor redesign: the executor invariant
    //! pinned at the DES level. Interleaved spawn/delay/channel
    //! workloads — the full primitive mix — must produce identical
    //! event orders and RunReport fingerprints whether the batch of
    //! simulations runs serially (`--jobs 1`) or fanned out over host
    //! threads (`--jobs 4`). Each `Sim` is self-contained, so host
    //! parallelism may change *when* a simulation runs, never *what*
    //! it computes.

    use std::cell::RefCell;
    use std::rc::Rc;

    use proptest::prelude::*;

    use ompss_sim::{delay, now, spawn, Channel, Sim, SimDuration};

    /// Trace of `(virtual time, group, value)` observations plus the
    /// report fingerprint of one workload run.
    type Digest = (Vec<(u64, u64, u64)>, (u64, u64, u64, u64));

    fn run_workload(groups: &[(u64, u64, u64)]) -> Digest {
        let trace = Rc::new(RefCell::new(Vec::new()));
        let sim = Sim::new();
        let ch: Channel<u64> = Channel::new();
        for (g, &(d, msgs, kids)) in groups.iter().enumerate() {
            let tx = ch.clone();
            let tr = trace.clone();
            sim.spawn(format!("g{g}"), async move {
                for k in 0..kids {
                    let tx = tx.clone();
                    let tr = tr.clone();
                    spawn(format!("g{g}k{k}"), async move {
                        delay(SimDuration::from_nanos(d * (k + 1))).await.unwrap();
                        for m in 0..msgs {
                            tx.send(g as u64 * 1000 + k * 100 + m);
                            delay(SimDuration::from_nanos(d % 7 + 1)).await.unwrap();
                        }
                        tr.borrow_mut().push((now().as_nanos(), g as u64, k));
                    });
                }
                delay(SimDuration::from_nanos(d)).await.unwrap();
            });
        }
        let total: u64 = groups.iter().map(|&(_, m, k)| m * k).sum();
        let rx = ch.clone();
        let tr = trace.clone();
        sim.spawn("drain", async move {
            for _ in 0..total {
                let v = rx.recv().await.unwrap();
                tr.borrow_mut().push((now().as_nanos(), u64::MAX, v));
            }
        });
        let r = sim.run().unwrap();
        let t = trace.borrow().clone();
        (t, (r.end_time.as_nanos(), r.events, r.clock_advances, r.processes as u64))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn interleaved_workloads_fingerprint_identically_at_any_jobs_count(
            batch in proptest::collection::vec(
                proptest::collection::vec((1u64..60, 1u64..8, 1u64..6), 1..8),
                4..8,
            )
        ) {
            let tasks = |batch: &[Vec<(u64, u64, u64)>]| -> Vec<Box<dyn FnOnce() -> Digest + Send>> {
                batch
                    .iter()
                    .cloned()
                    .map(|groups| {
                        Box::new(move || run_workload(&groups)) as Box<dyn FnOnce() -> Digest + Send>
                    })
                    .collect()
            };
            let serial = ompss_sweep::run_jobs(1, tasks(&batch));
            let parallel = ompss_sweep::run_jobs(4, tasks(&batch));
            prop_assert_eq!(serial.len(), parallel.len());
            for (i, (s, p)) in serial.into_iter().zip(parallel).enumerate() {
                prop_assert_eq!(
                    &s.0, &p.0,
                    "workload {}: event order diverged between --jobs 1 and --jobs 4", i
                );
                prop_assert_eq!(
                    s.1, p.1,
                    "workload {}: RunReport fingerprint diverged between --jobs 1 and --jobs 4", i
                );
            }
        }
    }
}
