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
//! Every section (app × topology, and each app's schedule exploration)
//! is an independent set of simulations, so sections run on `--jobs N`
//! host threads (default `OMPSS_BENCH_JOBS` / host parallelism) and are
//! reassembled in a fixed order: the report is byte-identical at any
//! job count.

use ompss_apps::common::AppRun;
use ompss_apps::validation::{try_run, APPS};
use ompss_json::Json;
use ompss_runtime::RuntimeConfig;
use ompss_verify::schedule::{self, Observation};
use ompss_verify::{report_json, validate, Finding};

fn run_app(name: &str, cfg: RuntimeConfig) -> AppRun {
    match try_run(name, cfg) {
        Ok(run) => run,
        Err(e) => {
            // One consistent line per failure class — the RunError
            // Display — and a nonzero exit, not a panic trace.
            eprintln!("error: {name}: {e}");
            std::process::exit(1);
        }
    }
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
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}\napps: {}", APPS.join(" "));
        return;
    }
    let parsed = ompss_sweep::parse_jobs_flag(&mut args).and_then(|_| parse_args(args));
    let Args { seeds, schedules, apps: selected } = parsed.unwrap_or_else(|e| {
        eprintln!("verify: {e}; {USAGE}");
        std::process::exit(2);
    });

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

/// The parsed command line (after `--jobs`).
#[derive(Debug, PartialEq)]
struct Args {
    seeds: Vec<u64>,
    schedules: bool,
    /// Resolved against [`APPS`], so the section closures capture
    /// `&'static str`, not borrows of the arguments.
    apps: Vec<&'static str>,
}

fn parse_args(mut args: Vec<String>) -> Result<Args, String> {
    let seeds = parse_seeds_flag(&mut args)?;
    let schedules = !args.iter().any(|a| a == "--no-schedules");
    let named = args
        .iter()
        .map(String::as_str)
        .filter(|a| !a.starts_with("--"))
        .map(|a| {
            APPS.iter()
                .find(|x| **x == a)
                .copied()
                .ok_or_else(|| format!("unknown app '{a}'; expected one of {APPS:?}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let apps =
        if named.is_empty() || args.iter().any(|a| a == "--all") { APPS.to_vec() } else { named };
    Ok(Args { seeds, schedules, apps })
}

/// Consume a `--seeds a,b,c` / `--seeds=a,b,c` flag; defaults to
/// [`schedule::DEFAULT_SEEDS`] when absent.
fn parse_seeds_flag(args: &mut Vec<String>) -> Result<Vec<u64>, String> {
    let parse = |v: &str| -> Result<Vec<u64>, String> {
        let seeds = v
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.trim()
                    .parse::<u64>()
                    .map_err(|_| format!("--seeds expects comma-separated integers, got '{s}'"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if seeds.is_empty() {
            return Err("--seeds needs at least one seed".into());
        }
        Ok(seeds)
    };
    let mut seeds = schedule::DEFAULT_SEEDS.to_vec();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--seeds" {
            seeds = parse(args.get(i + 1).ok_or("--seeds needs a value")?)?;
            args.drain(i..i + 2);
        } else if let Some(v) = args[i].strip_prefix("--seeds=") {
            seeds = parse(v)?;
            args.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(seeds)
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
        parse_args(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        let args = parse(&["--seeds", "0,9", "--no-schedules", "stream"]).unwrap();
        assert_eq!(args, Args { seeds: vec![0, 9], schedules: false, apps: vec!["stream"] });
        assert_eq!(parse(&["--seeds=3"]).unwrap().apps, APPS.to_vec());
        for bad in [&["matmull"][..], &["--seeds"], &["--seeds", "1,x"], &["--seeds=,"]] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
