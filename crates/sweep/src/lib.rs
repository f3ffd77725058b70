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
//! The job count comes from `--jobs N` flags via [`set_jobs`], from the
//! `OMPSS_BENCH_JOBS` environment variable, or defaults to the host's
//! available parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

mod pool;

pub use pool::{CancelToken, WorkerPool};

/// Process-wide job count used by [`jobs`] when a harness has parsed
/// `--jobs` (0 = unset, fall back to env/host detection).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide sweep width (e.g. from a `--jobs N` flag).
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Relaxed);
}

/// Effective sweep width: the value from [`set_jobs`] if any, else
/// `OMPSS_BENCH_JOBS`, else the host's available parallelism.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => default_jobs(),
        n => n,
    }
}

/// Sweep width from the environment: `OMPSS_BENCH_JOBS` if set and
/// positive, otherwise the host's available parallelism (1 if unknown).
pub fn default_jobs() -> usize {
    if let Some(v) = std::env::var_os("OMPSS_BENCH_JOBS") {
        if let Ok(n) = v.to_string_lossy().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run `tasks` on up to `jobs` host threads, returning the results in
/// submission order. With `jobs <= 1` (or fewer than two tasks) the
/// tasks run serially on the calling thread.
///
/// Tasks are claimed from a shared counter in submission order, so with
/// any job count the first task starts first — only overlap changes.
/// A panicking task propagates its panic to the caller once all threads
/// have stopped claiming work.
pub fn run_jobs<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = tasks.len();
    if jobs <= 1 || n <= 1 {
        return tasks.into_iter().map(|f| f()).collect();
    }
    let threads = jobs.min(n);
    // Each task is claimed exactly once via `next`; its closure moves
    // out of its slot and its result moves into the matching output
    // slot, keeping submission order regardless of which thread ran it.
    let task_slots: Vec<Mutex<Option<F>>> =
        tasks.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let out_slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let panicked: Mutex<Option<Box<dyn std::any::Any + Send>>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let f = task_slots[i]
                    .lock()
                    .expect("sweep task slot poisoned")
                    .take()
                    .expect("sweep task claimed twice");
                match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
                    Ok(v) => *out_slots[i].lock().expect("sweep result slot poisoned") = Some(v),
                    Err(payload) => {
                        // First panic wins; park the payload and stop
                        // claiming work so the sweep winds down fast.
                        let mut p = panicked.lock().expect("sweep panic slot poisoned");
                        if p.is_none() {
                            *p = Some(payload);
                        }
                        next.store(n, Ordering::Relaxed);
                        return;
                    }
                }
            });
        }
    });

    if let Some(payload) = panicked.into_inner().expect("sweep panic slot poisoned") {
        std::panic::resume_unwind(payload);
    }
    out_slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("sweep result slot poisoned")
                .expect("sweep task produced no result")
        })
        .collect()
}

/// Parse a `--jobs N` flag out of an argument list (mutating it) and
/// apply it via [`set_jobs`]. Returns the chosen width, or a message
/// naming the missing or malformed value. Accepts `--jobs N` and
/// `--jobs=N`.
pub fn parse_jobs_flag(args: &mut Vec<String>) -> Result<usize, String> {
    let mut i = 0;
    while i < args.len() {
        let (value, taken) = if args[i] == "--jobs" {
            (args.get(i + 1).map(String::as_str), 2)
        } else if let Some(v) = args[i].strip_prefix("--jobs=") {
            (Some(v), 1)
        } else {
            i += 1;
            continue;
        };
        let value = value.ok_or("--jobs needs a value")?;
        let n = value
            .parse::<usize>()
            .map_err(|_| format!("--jobs expects a positive integer, got '{value}'"))?;
        set_jobs(n);
        args.drain(i..i + taken);
    }
    Ok(jobs())
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

    #[test]
    fn parse_jobs_flag_variants() {
        let mut args = vec!["--jobs".to_string(), "3".to_string(), "app".to_string()];
        assert_eq!(parse_jobs_flag(&mut args), Ok(3));
        assert_eq!(args, vec!["app".to_string()]);
        let mut args = vec!["--jobs=5".to_string()];
        assert_eq!(parse_jobs_flag(&mut args), Ok(5));
        assert!(args.is_empty());
        for bad in [&["--jobs"][..], &["--jobs", "x"], &["--jobs="], &["app", "--jobs=-2"]] {
            let mut args: Vec<String> = bad.iter().map(|s| s.to_string()).collect();
            let err = parse_jobs_flag(&mut args).expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.starts_with("--jobs "), "{bad:?}: {err}");
        }
        set_jobs(1); // restore for other tests in this process
    }
}
