//! Chaos harness: the shipped applications under seeded deterministic
//! fault injection.
//!
//! Each run draws every injection decision from a fresh counter-mode
//! stream of its [`FaultPlan`], so a `(seed, rate)` pair names an exact
//! fault schedule in virtual time — any failing sweep case replays
//! bit-for-bit. The
//! harness runs each application fault-free for a reference output,
//! re-runs it under the plan, and requires the recovered output to be
//! *bit-identical*: recovery that loses or doubles work shows up as a
//! diff, not a tolerance miss.
//!
//! # The grid
//!
//! Every sweep of the `chaos` binary (see `src/bin/chaos.rs`) — rate ×
//! seed, whole-node kills, elastic churn — is one [`run_grid`] call:
//!
//! 1. each *reference* `(app, config)` runs fault-free, giving the
//!    [`Reference`] output bytes and makespan;
//! 2. each [`Case`] names its reference and builds its own config from
//!    it (fault instants are fractions of the reference makespan);
//! 3. every case runs and [`classify`] turns its result into an
//!    [`Outcome`]: [`Finished`](Outcome::Finished) with the reference's
//!    bytes, [`FailClosed`](Outcome::FailClosed) on
//!    [`RunError::Exhausted`], or [`Wrong`](Outcome::Wrong) — diverged
//!    bytes or any other error.
//!
//! Both phases fan out over `ompss_sweep::jobs()` host threads and come
//! back in submission order, so the outcomes, and any report built from
//! them, are byte-identical at any job count. What counts as passing
//! (whether fail-closed is acceptable, which recovery evidence must
//! appear) is the sweep's decision, not the grid's.
//!
//! The crate's tests pin one seeded scenario per defect class the
//! runtime recovers from.

use ompss_apps::common::AppRun;
use ompss_runtime::{FaultPlan, RunError, RuntimeConfig, SimDuration, SimTime};

pub use ompss_apps::validation::{try_run as try_run_app, APPS};

/// Like [`try_run_app`] but panicking with the error's `Display` on
/// failure — for call sites that treat any failure as fatal.
pub fn run_app(name: &str, cfg: RuntimeConfig) -> AppRun {
    try_run_app(name, cfg).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Raise the retry budgets for probabilistic sweeps: at moderate rates
/// a message can be unlucky several times in a row, and the sweep
/// asserts recovery, not budget tuning. (The pinned defect-class tests
/// keep the default budgets.)
pub fn with_big_budgets(cfg: RuntimeConfig) -> RuntimeConfig {
    cfg.with_task_retry_budget(8).with_am_retry_budget(16)
}

/// Chaos run of `app` on `cfg` under an explicit `plan`, with budgets
/// raised.
pub fn chaos_run(app: &str, cfg: RuntimeConfig, plan: FaultPlan) -> AppRun {
    run_app(app, with_big_budgets(cfg.with_fault_plan(plan)))
}

/// Fetch the validation output of a run, which validation-scale app
/// configs always produce.
pub fn output_of(run: &AppRun) -> &[f32] {
    run.check.as_deref().expect("validation-scale app run carries its output")
}

/// A fault-free run every case derived from it must reproduce.
#[derive(Debug)]
pub struct Reference {
    /// The output bytes.
    pub output: Vec<f32>,
    /// Virtual end of the run; planned fault instants are fractions of
    /// it, so they land inside the run.
    pub makespan: SimTime,
}

impl Reference {
    /// The instant `percent`% of the way through the reference run.
    /// Computed in 128 bits, so no makespan and percent overflow; an
    /// instant past the end of representable time saturates there.
    pub fn at(&self, percent: u64) -> SimDuration {
        let nanos = u128::from(self.makespan.as_nanos()) * u128::from(percent) / 100;
        SimDuration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }
}

/// Run `app` fault-free on `cfg` for its [`Reference`]. A reference
/// that fails is a defect in the fault-free path, so this panics.
pub fn reference(app: &str, cfg: RuntimeConfig) -> Reference {
    let run = run_app(app, cfg);
    let makespan = run.report.as_ref().expect("ompss app run carries a report").makespan;
    Reference { output: output_of(&run).to_vec(), makespan }
}

/// Builds a case's config from its reference's config and run.
type CaseConfig = Box<dyn FnOnce(RuntimeConfig, &Reference) -> RuntimeConfig>;

/// One case of a [`run_grid`]: a variant of a reference run.
pub struct Case {
    reference: usize,
    config: CaseConfig,
}

impl Case {
    /// A case of reference number `reference` (its index in the list
    /// given to [`run_grid`]), whose app it runs and whose output it
    /// must reproduce; `config` builds the case's config from the
    /// reference's config and run.
    pub fn new(
        reference: usize,
        config: impl FnOnce(RuntimeConfig, &Reference) -> RuntimeConfig + 'static,
    ) -> Case {
        Case { reference, config: Box::new(config) }
    }
}

/// How one case ended.
#[derive(Debug)]
pub enum Outcome {
    /// The run completed with the reference's output bytes.
    Finished(Box<AppRun>),
    /// The run aborted with [`RunError::Exhausted`]: a recovery budget
    /// or lineage bound ran out and the runtime refused to guess.
    FailClosed(RunError),
    /// The run completed with different bytes (`Ok`), or failed with
    /// any error other than `Exhausted` (`Err`): a real defect.
    Wrong(Result<Box<AppRun>, RunError>),
}

impl Outcome {
    /// The completed run, if there was one — finished or diverged.
    pub fn run(&self) -> Option<&AppRun> {
        match self {
            Outcome::Finished(run) | Outcome::Wrong(Ok(run)) => Some(run),
            Outcome::FailClosed(_) | Outcome::Wrong(Err(_)) => None,
        }
    }

    /// Why the case did not finish; `None` for a finished case.
    pub fn error(&self) -> Option<String> {
        match self {
            Outcome::Finished(_) => None,
            Outcome::FailClosed(e) | Outcome::Wrong(Err(e)) => Some(e.to_string()),
            Outcome::Wrong(Ok(_)) => Some("output diverged".into()),
        }
    }
}

/// Classify one case's result against the reference output `expected`.
pub fn classify(result: Result<AppRun, RunError>, expected: &[f32]) -> Outcome {
    match result {
        Ok(run) if output_of(&run) == expected => Outcome::Finished(Box::new(run)),
        Ok(run) => Outcome::Wrong(Ok(Box::new(run))),
        Err(e @ RunError::Exhausted { .. }) => Outcome::FailClosed(e),
        Err(e) => Outcome::Wrong(Err(e)),
    }
}

/// Run every reference, then every case against its reference, and
/// return one [`Outcome`] per case, in case order. See the crate docs.
pub fn run_grid(references: &[(&str, RuntimeConfig)], cases: Vec<Case>) -> Vec<Outcome> {
    let jobs = ompss_sweep::jobs();
    let refs: Vec<Reference> = ompss_sweep::run_jobs(
        jobs,
        references.iter().map(|(app, cfg)| move || reference(app, cfg.clone())).collect(),
    );
    let runs: Vec<_> = cases
        .into_iter()
        .map(|case| {
            let (app, base) = &references[case.reference];
            let expected = &refs[case.reference];
            let cfg = (case.config)(base.clone(), expected);
            move || classify(try_run_app(app, cfg), &expected.output)
        })
        .collect();
    ompss_sweep::run_jobs(jobs, runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_with(output: &[f32]) -> AppRun {
        AppRun {
            elapsed: SimDuration::ZERO,
            metric: 0.0,
            check: Some(output.to_vec()),
            report: None,
        }
    }

    #[test]
    fn matching_bytes_finish() {
        assert!(matches!(classify(Ok(run_with(&[1.0, 2.0])), &[1.0, 2.0]), Outcome::Finished(_)));
    }

    #[test]
    fn diverged_bytes_are_wrong() {
        let outcome = classify(Ok(run_with(&[1.0, 2.5])), &[1.0, 2.0]);
        assert!(matches!(outcome, Outcome::Wrong(Ok(_))));
        assert_eq!(outcome.error().as_deref(), Some("output diverged"));
        assert!(outcome.run().is_some(), "a diverged run keeps its counters");
    }

    #[test]
    fn only_exhausted_fails_closed() {
        let exhausted = RunError::Exhausted { what: "task t1".into(), attempts: 8 };
        assert!(matches!(classify(Err(exhausted), &[]), Outcome::FailClosed(_)));
        for e in [
            RunError::Deadlock { blocked: Vec::new() },
            RunError::ProcessPanic("worker".into(), "boom".into()),
        ] {
            let outcome = classify(Err(e), &[]);
            assert!(matches!(outcome, Outcome::Wrong(Err(_))), "{outcome:?}");
            assert!(outcome.run().is_none());
        }
    }

    fn reference(makespan: u64) -> Reference {
        Reference { output: Vec::new(), makespan: SimTime(makespan) }
    }

    #[test]
    fn at_is_a_fraction_of_the_makespan_without_overflow() {
        assert_eq!(reference(1_000).at(45), SimDuration::from_nanos(450));
        assert_eq!(reference(1_000).at(0), SimDuration::ZERO);
        assert_eq!(reference(1_000).at(100), SimDuration::from_nanos(1_000));
        // A makespan near the end of representable time: the product
        // overflows 64 bits, the instant does not.
        let long = u64::MAX / 2;
        assert_eq!(reference(long).at(100), SimDuration::from_nanos(long));
        assert_eq!(reference(long).at(50), SimDuration::from_nanos(long / 2));
        assert_eq!(reference(long).at(u64::MAX), SimDuration::from_nanos(u64::MAX));
    }
}
