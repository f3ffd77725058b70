//! Parallel sweep runner for independent simulation configurations.
//!
//! Every `ompss_sim::Sim` is self-contained — no global mutable state —
//! so the evaluation harnesses (`all_figures`, `verify`, `chaos`) can
//! run their hundreds of independent configurations on several host
//! threads at once. [`run_jobs`] does exactly that and nothing more:
//!
//! * **Submission-order results.** Output slot `i` always holds task
//!   `i`'s result, whatever thread ran it, so callers assemble their
//!   JSON in a fixed order and parallel output is byte-identical to
//!   serial output.
//! * **Deterministic work itself.** Parallelism must only change *when*
//!   a configuration runs, never *what* it computes. That holds because
//!   each simulation owns all of its state; the determinism pin tests
//!   in `crates/bench/tests` enforce it.
//! * **Serial fallback.** With one job (or one task) everything runs on
//!   the calling thread — same code path the repo has always had.
//!
//! The job count is `--jobs N`, read with the rest of a harness's
//! command line by [`Argv`], else the `OMPSS_BENCH_JOBS` environment
//! variable, else the host's available parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

mod argv;
mod pool;

pub use argv::{read_args, Argv};
pub use pool::{CancelToken, WorkerPool};

/// Process-wide job count set by [`Argv::jobs`] (0 = unset).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Effective sweep width: `--jobs` if given, else `OMPSS_BENCH_JOBS` if
/// set and positive, else the host's available parallelism (1 if
/// unknown). [`Argv::jobs`] rejects a set `OMPSS_BENCH_JOBS` that is
/// not a positive integer.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => env_jobs()
            .and_then(Result::ok)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        n => n,
    }
}

/// `OMPSS_BENCH_JOBS`: `None` when unset, else its positive integer or
/// an error naming the variable and the value.
fn env_jobs() -> Option<Result<usize, String>> {
    let raw = std::env::var_os("OMPSS_BENCH_JOBS")?;
    let v = raw.to_string_lossy();
    Some(v.parse().ok().filter(|&n| n >= 1).ok_or_else(|| {
        format!("malformed OMPSS_BENCH_JOBS value '{v}' (expected a positive integer)")
    }))
}

/// Run `tasks` on up to `jobs` host threads, returning the results in
/// submission order. With `jobs <= 1` (or fewer than two tasks) the
/// tasks run serially on the calling thread.
///
/// Tasks are claimed from a shared queue in submission order, so with
/// any job count the first task starts first — only overlap changes.
/// A panicking task empties the queue, and its panic propagates to the
/// caller once every thread has finished the task it holds.
pub fn run_jobs<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if jobs <= 1 || n <= 1 {
        return tasks.into_iter().map(|f| f()).collect();
    }
    let queue = Mutex::new(tasks.into_iter().enumerate());
    let claim = || queue.lock().expect("sweep queue poisoned").next();
    // Each thread returns its results tagged with their task's index.
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..jobs.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut ran = Vec::new();
                    while let Some((i, f)) = claim() {
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
                            Ok(v) => ran.push((i, v)),
                            Err(payload) => {
                                queue.lock().expect("sweep queue poisoned").by_ref().for_each(drop);
                                std::panic::resume_unwind(payload);
                            }
                        }
                    }
                    ran
                })
            })
            .collect();
        let joined = threads.into_iter().map(|t| t.join());
        joined.flat_map(|r| r.unwrap_or_else(|p| std::panic::resume_unwind(p))).collect()
    });
    done.sort_unstable_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_submission_order() {
        let tasks: Vec<_> = (0..64).map(|i| move || i * 3).collect();
        assert_eq!(run_jobs(8, tasks), (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_path_matches_parallel() {
        let mk = || (0..20).map(|i| move || format!("r{i}")).collect::<Vec<_>>();
        assert_eq!(run_jobs(1, mk()), run_jobs(4, mk()));
    }

    #[test]
    fn single_task_runs_inline() {
        let here = std::thread::current().id();
        let got = run_jobs(8, vec![move || std::thread::current().id() == here]);
        assert_eq!(got, vec![true]);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let got: Vec<u32> = run_jobs(4, Vec::<fn() -> u32>::new());
        assert!(got.is_empty());
    }

    #[test]
    fn panic_propagates() {
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> =
            vec![Box::new(|| 1), Box::new(|| panic!("boom in sweep")), Box::new(|| 3)];
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_jobs(2, tasks)));
        assert!(r.is_err(), "sweep must re-raise task panics");
    }
}
