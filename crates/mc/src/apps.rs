//! Model-checking harnesses for the shipped applications: one
//! [`RunOutcome`] runner per app (validation-size parameters on an
//! N-node GPU cluster) and the bridge from a recorded run's verify
//! evidence to an ahead-of-run [`GraphSpec`].

use ompss_apps::validation;
use ompss_runtime::{RunError, RunReport, RuntimeConfig};
use ompss_verify::Finding;

use crate::explore::RunOutcome;
use crate::fingerprint;
use crate::spec::GraphSpec;

/// The apps the checker knows how to drive.
pub use validation::APPS;

/// Execute `app` once at validation size on an `nodes`-node GPU
/// cluster and distill the oracle payload. With `verify` on, the run
/// gathers clause/race evidence and its `ompss-verify` findings ride
/// along in the outcome.
pub fn run_once(app: &str, nodes: u32, verify: bool) -> Result<RunOutcome, RunError> {
    let run = validation::try_run(app, RuntimeConfig::gpu_cluster(nodes).with_verify(verify))?;
    let report = run.report.as_ref().expect("ompss app runs carry a report");
    let findings = if verify { ompss_verify::validate(report) } else { Vec::new() };
    Ok(RunOutcome { fingerprint: fingerprint(run.check.as_deref(), report.tasks), findings })
}

/// Rebuild the declared task graph of a recorded run as a
/// [`GraphSpec`] (tasks in submission order, clauses as declared).
/// `None` when the run carried no verify evidence.
pub fn spec_from_report(report: &RunReport) -> Option<GraphSpec> {
    let v = report.verify.as_ref()?;
    let mut tasks: Vec<_> = v.tasks.iter().collect();
    tasks.sort_by_key(|t| t.task.0);
    let mut spec = GraphSpec::new();
    for t in tasks {
        spec.task(&t.label, t.declared.clone());
    }
    Some(spec)
}

/// The ahead-of-run pass for one app: a single recording run (default
/// schedule) captures the declared graph, which is then linted without
/// executing anything further.
pub fn static_lints(app: &str, nodes: u32) -> Result<Vec<Finding>, RunError> {
    let run = validation::try_run(app, RuntimeConfig::gpu_cluster(nodes).with_verify(true))?;
    let report = run.report.as_ref().expect("ompss app runs carry a report");
    Ok(spec_from_report(report).map(|s| s.lint()).unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_spec_round_trips_clean() {
        let lints = static_lints("stream", 2).expect("stream runs");
        assert!(lints.is_empty(), "{lints:?}");
    }

    #[test]
    fn matmul_runs_reproducibly_without_a_controller() {
        let a = run_once("matmul", 2, false).unwrap();
        let b = run_once("matmul", 2, false).unwrap();
        assert_eq!(a.fingerprint, b.fingerprint);
        assert!(a.findings.is_empty());
    }
}
