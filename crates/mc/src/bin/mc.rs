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
//! tie-breaks with the four oracles ([`ompss_mc::explore()`]). Sections
//! run on `--jobs N` host threads and are reported in a fixed order;
//! any finding (or an under-`--min-interleavings` search) exits 1.

use ompss_apps::validation;
use ompss_json::Json;
use ompss_mc::{apps, explore, parse_trace, replay, McConfig, McReport};
use ompss_sweep::Argv;
use ompss_verify::{report_json, Finding};

const USAGE: &str = "usage: mc [--apps a,b] [--nodes N] [--depth D] [--preemptions P] \
                     [--max-interleavings M] [--min-interleavings K] [--no-verify-oracle] \
                     [--jobs N] [--replay TRACE]";

fn main() {
    let usage = format!("{USAGE}\napps: {}", apps::APPS.join(" "));
    let Args { nodes, cfg, min_interleavings, verify_oracle, replay: replay_trace, apps: selected } =
        ompss_sweep::read_args("mc", &usage, parse_args);

    if let Some((trace, app)) = replay_trace {
        let out =
            replay(&trace, || apps::run_once(app, nodes, verify_oracle)).unwrap_or_else(|e| {
                println!("{app}: replay failed: {e}");
                std::process::exit(1)
            });
        println!(
            "{app}: replay completed; fingerprint {:#018x}, {} verify finding(s)",
            out.fingerprint,
            out.findings.len()
        );
        for f in &out.findings {
            println!("  {f}");
        }
        std::process::exit(i32::from(!out.findings.is_empty()));
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

/// The parsed command line.
struct Args {
    nodes: u32,
    cfg: McConfig,
    min_interleavings: u64,
    verify_oracle: bool,
    /// A recorded counterexample to re-run, and the one app it is for.
    replay: Option<(Vec<usize>, &'static str)>,
    apps: Vec<&'static str>,
}

fn parse_args(argv: &mut Argv) -> Result<Args, String> {
    argv.jobs()?;
    let (depth, preemptions) = (argv.value("--depth")?, argv.value("--preemptions")?);
    let (max, min) = (argv.value("--max-interleavings")?, argv.value("--min-interleavings")?);
    let trace = argv.value::<String>("--replay")?.map(|t| parse_trace(&t)).transpose()?;
    let apps = validation::apps(&argv.list("--apps")?.unwrap_or_default())?;
    let replay = match (trace, apps.as_slice()) {
        (None, _) => None,
        // A replay runs one recorded schedule: a search bound would change nothing.
        (Some(_), _) if depth.or(preemptions).is_some() || max.or(min).is_some() => {
            return Err("--replay takes no search bounds".into())
        }
        (Some(trace), [app]) => Some((trace, *app)),
        (Some(_), _) => return Err("--replay needs exactly one app (--apps NAME)".into()),
    };
    let d = McConfig::default();
    Ok(Args {
        nodes: argv.value("--nodes")?.unwrap_or(2),
        cfg: McConfig {
            depth: depth.unwrap_or(d.depth),
            preemptions: preemptions.unwrap_or(d.preemptions),
            max_interleavings: max.unwrap_or(d.max_interleavings),
        },
        min_interleavings: min.unwrap_or(0),
        verify_oracle: !argv.switch("--no-verify-oracle"),
        replay,
        apps,
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
            &["nbody", "--apps", "stream"],
            &["--replay", "0", "--apps", "matmul", "--min-interleavings", "9"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
