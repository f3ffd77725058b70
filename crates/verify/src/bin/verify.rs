//! `verify` — run the shipped applications under verification mode and
//! report clause/dependence findings as JSON.
//!
//! ```text
//! verify --all              # all four apps (default when no args)
//! verify matmul stream      # a subset
//! verify --no-schedules ... # skip the seed-permutation exploration
//! verify --seeds 0,9,23     # explore these scheduler seeds instead
//! ```
//!
//! Each selected application runs with [`RuntimeConfig::verify`] on
//! under three topologies (2 GPUs on one node; a 2-node cluster; the
//! same cluster with `with_sharded_control`), its
//! evidence is checked by [`ompss_verify::validate`], and — unless
//! `--no-schedules` — it is rerun across scheduler tie-break seeds
//! ([`ompss_verify::schedule`]) to diff results. The report is printed
//! as pretty JSON; any finding makes the exit status 1.
//!
//! Sections (app × topology, and each app's schedule exploration) run
//! on `--jobs N` host threads; the report is byte-identical at any
//! job count.

use ompss_apps::common::AppRun;
use ompss_apps::validation::{apps, try_run, APPS};
use ompss_json::Json;
use ompss_runtime::RuntimeConfig;
use ompss_sweep::Argv;
use ompss_verify::schedule::{self, Observation};
use ompss_verify::{report_json, validate, Finding};

fn run_app(name: &str, cfg: RuntimeConfig) -> AppRun {
    // One consistent line per failure class — the RunError Display —
    // and a nonzero exit, not a panic trace.
    try_run(name, cfg).unwrap_or_else(|e| {
        eprintln!("error: {name}: {e}");
        std::process::exit(1)
    })
}

/// The topologies every app is checked under: the paper's single-node
/// multi-GPU setting, its multi-node cluster setting (flat master),
/// and the same cluster with one control-plane shard per node — so the
/// shard-homed directory and sub-master expansion face the same
/// clause/dependence validation as the one-shard flat master.
fn configs() -> [(&'static str, RuntimeConfig); 3] {
    [
        ("multi_gpu", RuntimeConfig::multi_gpu(2)),
        ("cluster", RuntimeConfig::gpu_cluster(2)),
        ("cluster_sharded", RuntimeConfig::gpu_cluster(2).with_sharded_control(2)),
    ]
}

const USAGE: &str = "usage: verify [--all] [--no-schedules] [--jobs N] [--seeds a,b,c] [app...]";

fn main() {
    let usage = format!("{USAGE}\napps: {}", APPS.join(" "));
    let Args { seeds, schedules, apps: selected } =
        ompss_sweep::read_args("verify", &usage, parse_args);

    // One sweep task per report section, queued in report order.
    type SectionTask = Box<dyn FnOnce() -> (String, Vec<Finding>) + Send>;
    let mut tasks: Vec<SectionTask> = Vec::new();
    for &app in &selected {
        for (cfg_name, cfg) in configs() {
            tasks.push(Box::new(move || {
                let run = run_app(app, cfg.with_verify(true));
                let report = run.report.as_ref().expect("ompss app run carries a report");
                (format!("{app}/{cfg_name}"), validate(report))
            }));
        }
        if schedules {
            let seeds = seeds.clone();
            tasks.push(Box::new(move || (format!("{app}/schedules"), explore_app(app, &seeds))));
        }
    }

    let mut sections = Json::array();
    let mut total = 0usize;
    for (target, findings) in ompss_sweep::run_jobs(ompss_sweep::jobs(), tasks) {
        total += findings.len();
        sections.push(report_json(&target, &findings));
    }

    let report = Json::object()
        .field("tool", "ompss-verify")
        .field("total_findings", total as u64)
        .field("reports", sections);
    println!("{}", report.to_pretty_string().trim_end());
    if total > 0 {
        std::process::exit(1);
    }
}

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    seeds: Vec<u64>,
    schedules: bool,
    /// Resolved against [`APPS`], so the section closures capture
    /// `&'static str`, not borrows of the arguments.
    apps: Vec<&'static str>,
}

fn parse_args(argv: &mut Argv) -> Result<Args, String> {
    argv.jobs()?;
    let seeds = argv.list("--seeds")?.unwrap_or_else(|| schedule::DEFAULT_SEEDS.to_vec());
    let (schedules, all) = (!argv.switch("--no-schedules"), argv.switch("--all"));
    let named = argv.positionals();
    if all && !named.is_empty() {
        return Err("--all already names every app".into());
    }
    Ok(Args { seeds, schedules, apps: apps(&named)? })
}

/// Rerun `app` on the multi-GPU topology across scheduler seeds and
/// diff outputs (verification itself stays off: exploration only cares
/// about the results, and the byte-diff snapshots would slow the extra
/// runs for nothing).
fn explore_app(app: &str, seeds: &[u64]) -> Vec<Finding> {
    schedule::explore(app, seeds, |seed| {
        let run = try_run(app, RuntimeConfig::multi_gpu(2).with_sched_seed(seed))?;
        let tasks = run.report.as_ref().map_or(0, |r| r.tasks);
        Ok(Observation { check: run.check, tasks })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Argv::parse(args, parse_args)
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        let args = parse(&["--seeds", "0,9", "--no-schedules", "stream"]).unwrap();
        assert_eq!(args, Args { seeds: vec![0, 9], schedules: false, apps: vec!["stream"] });
        assert_eq!(parse(&["--seeds=3"]).unwrap().apps, APPS.to_vec());
        for bad in [
            &["matmull"][..],
            &["--seeds"],
            &["--seeds", "1,x"],
            &["--seeds=,"],
            &["--bogus", "--no-schedules", "stream"],
            &["--all", "stream"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
