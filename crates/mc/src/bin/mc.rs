//! `mc` — model-check the shipped applications' schedule spaces and
//! lint their declared task graphs, reporting findings as JSON.
//!
//! ```text
//! mc                                # all four apps, default bounds
//! mc --apps matmul,stream           # a subset
//! mc --nodes 2 --depth 64 --preemptions 2 --max-interleavings 2000
//! mc --min-interleavings 1000 ...   # fail unless the search ran this far
//! mc --no-verify-oracle ...         # skip per-interleaving clause checks
//! mc --replay 0,3,1 --apps matmul   # re-run one recorded counterexample
//! ```
//!
//! Per app: an ahead-of-run static pass over the declared task graph
//! ([`ompss_mc::GraphSpec`]), then bounded sleep-set DFS over executor
//! tie-breaks with the four oracles ([`ompss_mc::explore`]). Sections
//! run on `--jobs N` host threads and are reported in a fixed order;
//! any finding (or an under-`--min-interleavings` search) exits 1.

use ompss_json::Json;
use ompss_mc::{apps, explore, parse_trace, replay, McConfig, McReport};
use ompss_verify::{report_json, Finding};

const USAGE: &str = "usage: mc [--apps a,b] [--nodes N] [--depth D] [--preemptions P] \
                     [--max-interleavings M] [--min-interleavings K] [--no-verify-oracle] \
                     [--jobs N] [--replay TRACE]";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}\napps: {}", apps::APPS.join(" "));
        return;
    }
    let parsed = ompss_sweep::parse_jobs_flag(&mut args).and_then(|_| parse_args(args));
    let Args { nodes, cfg, min_interleavings, verify_oracle, replay: replay_trace, apps: selected } =
        parsed.unwrap_or_else(|e| {
            eprintln!("mc: {e}; {USAGE}");
            std::process::exit(2);
        });

    if let Some((trace, app)) = replay_trace {
        match replay(&trace, || apps::run_once(app, nodes, verify_oracle)) {
            Ok(out) => {
                println!(
                    "{app}: replay completed; fingerprint {:#018x}, {} verify finding(s)",
                    out.fingerprint,
                    out.findings.len()
                );
                for f in &out.findings {
                    println!("  {f}");
                }
                if !out.findings.is_empty() {
                    std::process::exit(1);
                }
            }
            Err(e) => {
                println!("{app}: replay failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    // One sweep task per report section, queued in report order.
    enum Section {
        Static(Vec<Finding>),
        Mc(McReport),
    }
    type SectionTask = Box<dyn FnOnce() -> (String, Section) + Send>;
    let mut tasks: Vec<SectionTask> = Vec::new();
    for &app in &selected {
        tasks.push(Box::new(move || {
            let findings = apps::static_lints(app, nodes).unwrap_or_else(|e| {
                // The RunError Display line, then a plain nonzero exit.
                eprintln!("error: {app}: {e}");
                std::process::exit(1);
            });
            (format!("{app}/static"), Section::Static(findings))
        }));
        let cfg = cfg.clone();
        tasks.push(Box::new(move || {
            let rep = explore(app, &cfg, || apps::run_once(app, nodes, verify_oracle));
            (format!("{app}/mc"), Section::Mc(rep))
        }));
    }

    let mut sections = Json::array();
    let mut total = 0usize;
    let mut too_shallow = Vec::new();
    for (target, section) in ompss_sweep::run_jobs(ompss_sweep::jobs(), tasks) {
        match section {
            Section::Static(findings) => {
                total += findings.len();
                sections.push(report_json(&target, &findings));
            }
            Section::Mc(rep) => {
                total += rep.findings.len();
                if rep.interleavings < min_interleavings {
                    too_shallow.push(format!(
                        "{target}: {} interleavings < required {min_interleavings}",
                        rep.interleavings
                    ));
                }
                let mut j = report_json(&target, &rep.findings);
                j.set("interleavings", rep.interleavings);
                j.set("exhausted", rep.exhausted);
                j.set("max_choice_depth", rep.max_choice_depth as u64);
                if let Some(fp) = rep.fingerprint {
                    j.set("fingerprint", format!("{fp:#018x}"));
                }
                sections.push(j);
            }
        }
    }

    let report = Json::object()
        .field("tool", "ompss-mc")
        .field("nodes", nodes as u64)
        .field("total_findings", total as u64)
        .field("reports", sections);
    println!("{}", report.to_pretty_string().trim_end());
    for s in &too_shallow {
        eprintln!("mc: {s}");
    }
    if total > 0 || !too_shallow.is_empty() {
        std::process::exit(1);
    }
}

/// The parsed command line (after `--jobs`).
struct Args {
    nodes: u32,
    cfg: McConfig,
    min_interleavings: u64,
    verify_oracle: bool,
    /// A recorded counterexample to re-run, and the one app it is for.
    replay: Option<(Vec<usize>, &'static str)>,
    apps: Vec<&'static str>,
}

fn parse_args(mut args: Vec<String>) -> Result<Args, String> {
    let nodes = flag_u64(&mut args, "--nodes")?.unwrap_or(2) as u32;
    let mut cfg = McConfig::default();
    if let Some(d) = flag_u64(&mut args, "--depth")? {
        cfg.depth = d as usize;
    }
    if let Some(p) = flag_u64(&mut args, "--preemptions")? {
        cfg.preemptions = p as usize;
    }
    if let Some(m) = flag_u64(&mut args, "--max-interleavings")? {
        cfg.max_interleavings = m;
    }
    let min_interleavings = flag_u64(&mut args, "--min-interleavings")?.unwrap_or(0);
    let verify_oracle = !take_flag(&mut args, "--no-verify-oracle");
    let trace = flag_str(&mut args, "--replay")?.map(|t| parse_trace(&t)).transpose()?;
    let apps = parse_apps(&mut args)?;
    let replay = match (trace, apps.as_slice()) {
        (None, _) => None,
        (Some(trace), [app]) => Some((trace, *app)),
        (Some(_), _) => return Err("--replay needs exactly one app (--apps NAME)".into()),
    };
    Ok(Args { nodes, cfg, min_interleavings, verify_oracle, replay, apps })
}

/// Resolve `--apps a,b` (default: all) against the known app list.
fn parse_apps(args: &mut Vec<String>) -> Result<Vec<&'static str>, String> {
    let list = flag_str(args, "--apps")?;
    if let Some(a) = args.iter().find(|a| a.starts_with("--")) {
        return Err(format!("unknown flag '{a}'"));
    }
    let Some(list) = list else { return Ok(apps::APPS.to_vec()) };
    list.split(',')
        .filter(|s| !s.is_empty())
        .map(|a| {
            apps::APPS
                .iter()
                .find(|x| **x == a)
                .copied()
                .ok_or_else(|| format!("unknown app '{a}'; expected one of {:?}", apps::APPS))
        })
        .collect()
}

/// Consume `--name V` / `--name=V` returning the raw value.
fn flag_str(args: &mut Vec<String>, name: &str) -> Result<Option<String>, String> {
    let eq = format!("{name}=");
    let mut out = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == name {
            out = Some(args.get(i + 1).ok_or_else(|| format!("{name} needs a value"))?.clone());
            args.drain(i..i + 2);
        } else if let Some(v) = args[i].strip_prefix(&eq) {
            out = Some(v.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(out)
}

/// Consume `--name V` / `--name=V` as an integer.
fn flag_u64(args: &mut Vec<String>, name: &str) -> Result<Option<u64>, String> {
    flag_str(args, name)?
        .map(|v| v.parse::<u64>().map_err(|e| format!("{name} expects an integer: {e}")))
        .transpose()
}

/// Consume a bare `--name` flag; true when present.
fn take_flag(args: &mut Vec<String>, name: &str) -> bool {
    let before = args.len();
    args.retain(|a| a != name);
    args.len() != before
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        let args = parse(&["--apps", "matmul,stream", "--nodes=3", "--max-interleavings", "9"])
            .expect("well-formed");
        assert_eq!(
            (args.apps, args.nodes, args.cfg.max_interleavings),
            (vec!["matmul", "stream"], 3, 9)
        );
        let args = parse(&["--replay", "0,3,1", "--apps", "matmul"]).expect("one app");
        assert_eq!(args.replay, Some((vec![0, 3, 1], "matmul")));
        for bad in [
            &["--apps", "matmull"][..],
            &["--depth"],
            &["--depth", "deep"],
            &["--replay", "0,x", "--apps", "matmul"],
            &["--replay", "0,3"],
            &["--verbose"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
