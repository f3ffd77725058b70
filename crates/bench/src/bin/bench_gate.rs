//! `bench_gate` — the host-time regression gate over the benchmark that
//! `BENCHMARK.json` declares.
//!
//! ```text
//! bench_gate           # run every workload, record BENCH_baseline.json
//! bench_gate --check   # run every workload, compare with the committed baseline
//! ```
//!
//! It only reads `BENCHMARK.json`: the command, the workloads,
//! `run_seconds` and each end-to-end metric's bound. Each workload runs
//! [`RUNS`] times untraced with seeds `1..=RUNS`, round-robin across the
//! workloads so that drift in the host's speed spreads over all of them.
//! The baseline holds the host's core count, [`RUNS`], `run_seconds`,
//! and per workload the failed share and each end-to-end metric's median
//! and interquartile range.
//!
//! Exit status 1: an output was incorrect, a failed share rose, or a
//! median is worse than the baseline's by more than its metric's bound.
//! Exit status 2: bad usage, or the baseline is missing or was recorded
//! with another core count, run count or run length — a comparison
//! across hosts measures a different machine. Per-layer metrics are not
//! gated: `BENCHMARK.json` bounds none, and they need traced runs that
//! would double the stage.

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

use ompss_json::Json;

/// Runs of each workload: the median of five ignores up to two runs
/// that a busy host slowed.
const RUNS: u64 = 5;

/// The committed baseline, at the repository root.
const BASELINE: &str = "BENCH_baseline.json";

/// The repository root this binary was built from.
const ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

const USAGE: &str = "usage: bench_gate [--check]";

/// What `BENCHMARK.json` declares.
struct Spec {
    command: Vec<String>,
    workloads: Vec<String>,
    run_seconds: f64,
    /// End-to-end metrics: name, bound, and whether lower is better.
    metrics: Vec<(String, f64, bool)>,
}

impl Spec {
    fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => Ok(items.as_slice()),
            _ => Err(format!("no '{key}' list")),
        };
        let text = |j: Option<&Json>| match j {
            Some(Json::Str(s)) => Ok(s.clone()),
            _ => Err("a name is not a string".to_string()),
        };
        Ok(Spec {
            command: list("command")?.iter().map(|c| text(Some(c))).collect::<Result<_, _>>()?,
            workloads: list("workloads")?
                .iter()
                .map(|w| text(w.get("name")))
                .collect::<Result<_, _>>()?,
            run_seconds: num(doc.get("run_seconds")).ok_or("no 'run_seconds'")?,
            metrics: list("end_to_end")?
                .iter()
                .map(|m| {
                    let bound = num(m.get("bound")).ok_or("an end-to-end metric has no bound")?;
                    Ok((text(m.get("name"))?, bound, text(m.get("better"))? == "lower"))
                })
                .collect::<Result<_, String>>()?,
        })
    }
}

fn num(j: Option<&Json>) -> Option<f64> {
    match j? {
        Json::F64(v) => Some(*v),
        Json::U64(v) => Some(*v as f64),
        Json::I64(v) => Some(*v as f64),
        _ => None,
    }
}

/// One untraced run of `workload`: its result line.
fn run(spec: &Spec, workload: &str, seed: u64) -> Result<Json, String> {
    let [program, args @ ..] = spec.command.as_slice() else {
        return Err("BENCHMARK.json declares an empty command".into());
    };
    let out = Command::new(program)
        .args(args)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &spec.run_seconds.to_string(), "--trace", "0"])
        .current_dir(ROOT)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {program}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().map(Json::parse) {
        Some(Ok(result)) if out.status.success() => Ok(result),
        _ => Err(format!("{workload} seed {seed}: {} without a result line", out.status)),
    }
}

/// Median and interquartile range (nearest-rank quartiles).
fn median_iqr(xs: &mut [f64]) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    let (n, at) = (xs.len(), |q: usize| xs[q * (xs.len() - 1) / 4]);
    let median = if n % 2 == 1 { xs[n / 2] } else { (xs[n / 2 - 1] + xs[n / 2]) / 2.0 };
    (median, at(3) - at(1))
}

/// Per workload: the failed share, and each end-to-end metric's median
/// and IQR over its runs.
fn summarize(spec: &Spec, runs: &[(&str, Json)], mut doc: Json) -> Json {
    let mut workloads = Json::object();
    for w in &spec.workloads {
        let mine: Vec<&Json> = runs.iter().filter(|(n, _)| n == w).map(|(_, r)| r).collect();
        let sum = |key| mine.iter().map(|r| num(r.get(key)).unwrap_or(0.0)).sum::<f64>();
        let mut metrics = Json::object();
        for (m, ..) in &spec.metrics {
            let mut xs: Vec<f64> =
                mine.iter().filter_map(|r| num(r.get("metrics")?.get(m)?.get("value"))).collect();
            if !xs.is_empty() {
                let (median, iqr) = median_iqr(&mut xs);
                metrics.set(m, Json::object().field("median", median).field("iqr", iqr));
            }
        }
        let failed_share = sum("failed") / sum("attempted").max(1.0);
        workloads
            .set(w, Json::object().field("failed_share", failed_share).field("metrics", metrics));
    }
    doc.set("workloads", workloads);
    doc
}

/// Everything in `now` that regressed from `base`, one line each;
/// prints every comparison.
fn check(spec: &Spec, base: &Json, now: &Json) -> Vec<String> {
    let mut bad = Vec::new();
    for w in &spec.workloads {
        let of = |doc: &Json| doc.get("workloads").and_then(|ws| ws.get(w)).cloned();
        let (Some(b), Some(n)) = (of(base), of(now)) else {
            bad.push(format!("{w}: not in the baseline"));
            continue;
        };
        let share = |j: &Json| num(j.get("failed_share")).unwrap_or(0.0);
        let (ns, bs) = (share(&n), share(&b));
        if ns > bs {
            bad.push(format!("{w}: failed share {ns:.4} is above the baseline's {bs:.4}"));
        }
        for (m, bound, lower) in &spec.metrics {
            let stat = |j: &Json, key| num(j.get("metrics")?.get(m)?.get(key));
            let (Some(bm), Some(biqr)) = (stat(&b, "median"), stat(&b, "iqr")) else { continue };
            let (Some(nm), Some(niqr)) = (stat(&n, "median"), stat(&n, "iqr")) else {
                bad.push(format!("{w} {m}: no longer reported"));
                continue;
            };
            let line = format!(
                "{w} {m}: median {nm:.4} (IQR {niqr:.4}) vs baseline {bm:.4} (IQR {biqr:.4}), \
                 {:+.1}% against a {:.0}% bound",
                (nm / bm - 1.0) * 100.0,
                bound * 100.0
            );
            println!("  {line}");
            if (*lower && nm > bm * (1.0 + bound)) || (!*lower && nm < bm * (1.0 - bound)) {
                bad.push(line);
            }
        }
    }
    bad
}

/// Run the gate (against the committed baseline when `check_mode`); on
/// failure, the exit status (1 or 2) and what to print.
fn gate(check_mode: bool) -> Result<String, (u8, Vec<String>)> {
    let refuse = |msg: String| (2, vec![msg]);
    let spec = std::fs::read_to_string(Path::new(ROOT).join("BENCHMARK.json"))
        .map_err(|e| e.to_string())
        .and_then(|text| Spec::parse(&text))
        .map_err(|e| refuse(format!("BENCHMARK.json: {e}")))?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let settings = Json::object()
        .field("cores", cores)
        .field("runs", RUNS)
        .field("run_seconds", spec.run_seconds);
    let path = Path::new(ROOT).join(BASELINE);
    let base = if check_mode {
        let base = std::fs::read_to_string(&path).ok().and_then(|t| Json::parse(&t).ok());
        let base = base.ok_or_else(|| {
            refuse(format!("no baseline at {}; record one with `bench_gate`", path.display()))
        })?;
        let differs = |k: &&str| num(base.get(k)) != num(settings.get(k));
        if let Some(k) = ["cores", "runs", "run_seconds"].into_iter().find(differs) {
            return Err(refuse(format!(
                "the baseline was recorded with {k} {}, this gate runs with {}; \
                 record a new baseline on this host",
                num(base.get(k)).unwrap_or(f64::NAN),
                num(settings.get(k)).unwrap_or(f64::NAN)
            )));
        }
        Some(base)
    } else {
        None
    };

    println!("bench_gate: {RUNS} runs of each workload, {} s each", spec.run_seconds);
    let (mut runs, mut bad) = (Vec::new(), Vec::new());
    for seed in 1..=RUNS {
        for w in &spec.workloads {
            let result = run(&spec, w, seed).map_err(|e| (1, vec![e]))?;
            println!("  {w} seed {seed}: {}", result.to_compact_string());
            if result.get("correct") != Some(&Json::Bool(true)) {
                bad.push(format!("{w} seed {seed}: an output was incorrect"));
            }
            runs.push((w.as_str(), result));
        }
    }
    let now = summarize(&spec, &runs, settings);
    if let Some(base) = &base {
        bad.extend(check(&spec, base, &now));
    }
    if !bad.is_empty() {
        return Err((1, bad.into_iter().map(|b| format!("FAIL {b}")).collect()));
    }
    if check_mode {
        return Ok("every workload within its bounds".into());
    }
    println!("{}", now.to_pretty_string());
    std::fs::write(&path, now.to_pretty_string() + "\n")
        .map_err(|e| (1, vec![format!("cannot write {}: {e}", path.display())]))?;
    Ok(format!("wrote {}", path.display()))
}

fn main() -> ExitCode {
    let check_mode = ompss_sweep::read_args("bench_gate", USAGE, |argv| Ok(argv.switch("--check")));
    match gate(check_mode) {
        Ok(done) => {
            println!("bench_gate: {done}");
            ExitCode::SUCCESS
        }
        Err((status, lines)) => {
            for line in lines {
                eprintln!("bench_gate: {line}");
            }
            ExitCode::from(status)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A summary of runs of the first two workloads, from their
    /// `(failed, wall_s)`.
    fn summary(spec: &Spec, a: &[(u64, f64)], b: &[(u64, f64)]) -> Json {
        let line = |&(failed, wall_s): &(u64, f64)| {
            let wall_s = Json::object().field("value", wall_s).field("unit", "s");
            let metrics = Json::object().field("wall_s", wall_s);
            Json::object()
                .field("attempted", 100u64)
                .field("failed", failed)
                .field("metrics", metrics)
        };
        let (a, b) = (a.iter().map(line), b.iter().map(line));
        let runs: Vec<_> =
            a.map(|r| ("paper_suite", r)).chain(b.map(|r| ("weak_scale", r))).collect();
        summarize(spec, &runs, Json::object())
    }

    #[test]
    fn the_gate_names_the_workload_and_metric_that_regressed() {
        let spec = Spec::parse(include_str!("../../../../BENCHMARK.json")).expect("it parses");
        let ok = |s: f64| [(0, s); 5];
        let base = summary(&spec, &ok(1.0), &ok(2.0));
        assert!(check(&spec, &base, &summary(&spec, &ok(1.2), &ok(2.4))).is_empty());
        let slow = [(0, 1.0), (0, 1.3), (0, 1.3), (0, 1.3), (0, 9.0)];
        let bad = check(&spec, &base, &summary(&spec, &slow, &ok(2.0)));
        assert_eq!(bad.len(), 1);
        assert!(bad[0].starts_with("paper_suite wall_s: median 1.3000 (IQR 0.0000)"), "{bad:?}");
        let bad = check(&spec, &base, &summary(&spec, &ok(1.0), &[(1, 2.0)]));
        assert_eq!(bad, ["weak_scale: failed share 0.0100 is above the baseline's 0.0000"]);
    }
}
