//! `benchmark` — what the simulator, its runtime and its job server cost
//! in host time, end to end and layer by layer.
//!
//! ```text
//! benchmark --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]
//! benchmark --all --seed <n> [--seconds <s>]
//! ```
//!
//! Workloads: `paper_suite` (the 193 runs of Figs. 5–13), `weak_scale`
//! (the 16 runs of Fig. WS), `real_kernels` (four apps on real bytes)
//! and `serve_open` (the job server under closed- and open-loop load).
//! See `README.md` beside this crate for why each exists and which
//! layer metric should move which end-to-end metric.
//!
//! An untraced run (`--trace 0`, the default) measures the end-to-end
//! metrics: set-up time, pass wall time, per-job latency and peak RSS.
//! A traced run (`--trace 1`) measures the per-layer metrics: fixed-input
//! micro-benchmarks, counters from the run reports, the benchmark's own
//! host spans around each call, and the split of virtual time from runs
//! with `RuntimeConfig::with_tracing(true)`. Every metric prints as
//! `name value unit`; the last line of standard output is one JSON
//! object with `correct`, `attempted`, `failed` and `metrics`. Result
//! and span files go to `target/benchmark/`.
//!
//! `--all` runs each workload untraced and then traced, each run in a
//! fresh child process, one after another, so each workload's peak RSS
//! is its own.

mod figures;
mod job;
mod kernels;
mod metrics;
mod micro;
mod rng;
mod serve;
mod spans;
mod stats;

use std::collections::{BTreeMap, HashSet};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use ompss_json::Json;
use ompss_runtime::{Runtime, RuntimeConfig};

use job::{run_pass, Failures, Job, Mode, Program, Tally, VirtSplit};
use metrics::Recorder;
use rng::Rng;
use spans::Spans;
use stats::{median, percentile, quartiles};

const USAGE: &str = "usage: benchmark --workload <name> --seed <n> [--seconds <s>] \
                     [--trace [0|1]]\n       benchmark --all --seed <n> [--seconds <s>]\n\
                     workloads: paper_suite, weak_scale, real_kernels, serve_open";

/// The workloads, in `--all` order.
const WORKLOADS: [&str; 4] = ["paper_suite", "weak_scale", "real_kernels", "serve_open"];

/// Measured seconds per run when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 20.0;

/// Fewest set-up samples per `setup_s`.
const SETUP_REPS: usize = 9;

/// Least time between two set-up samples.
const SETUP_SPACING_S: f64 = 1.0;

/// Each set-up sample repeats the set-up until it has taken this long,
/// so a sub-millisecond set-up is not one timer tick.
const SETUP_SAMPLE_S: f64 = 0.02;

struct Args {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a =
        Args { workload: None, all: false, seed: 0, seconds: DEFAULT_SECONDS, trace: false };
    let (mut seed, mut traced_flag) = (None, false);
    let mut it = args.peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload '{w}'"));
                }
                a.workload = Some(w);
            }
            "--all" => a.all = true,
            "--seed" => {
                let s = value("--seed")?;
                seed = Some(s.parse().map_err(|_| format!("bad --seed '{s}'"))?);
            }
            "--seconds" => {
                let s = value("--seconds")?;
                a.seconds = s.parse().map_err(|_| format!("bad --seconds '{s}'"))?;
                if !(a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
            }
            "--trace" => {
                traced_flag = true;
                a.trace = it.next_if(|v| v == "0").is_none();
                it.next_if(|v| v == "1");
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    a.seed = seed.ok_or("--seed is required")?;
    if a.all == a.workload.is_some() {
        return Err("give exactly one of --workload and --all".into());
    }
    if a.all && traced_flag {
        return Err("--all runs every workload both untraced and traced; drop --trace".into());
    }
    Ok(a)
}

/// Outcome of a measurement.
#[derive(Debug, Default)]
pub struct Summary {
    /// Jobs attempted in measured passes.
    pub attempted: u64,
    /// Failures by class, over every pass (warm-up included).
    pub failures: Failures,
}

impl Summary {
    /// Count `attempted` more jobs and their failures.
    pub fn add(&mut self, attempted: u64, failures: &Failures) {
        self.attempted += attempted;
        self.failures.merge(failures);
    }
}

/// `setup_s` samples, taken at intervals across a run.
///
/// Other tenants of the host intermittently slow its cores by up to
/// about 2× for seconds at a time, so samples are spread over the whole
/// run (at most one per [`SETUP_SPACING_S`]) and the fastest is
/// reported: the set-up cost without interference.
pub struct SetupSampler<F> {
    once: F,
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl<F: FnMut() -> f64> SetupSampler<F> {
    /// A sampler over `once`, which performs one set-up and returns its
    /// host seconds.
    pub fn new(once: F) -> Self {
        SetupSampler { once, samples: Vec::new(), last: None }
    }

    /// One sample: the mean over as many set-ups as fill
    /// [`SETUP_SAMPLE_S`].
    fn sample(&mut self) {
        let (mut total, mut n) = (0.0, 0u32);
        while total < SETUP_SAMPLE_S {
            total += (self.once)();
            n += 1;
        }
        self.samples.push(total / f64::from(n));
        self.last = Some(Instant::now());
    }

    /// Take a sample unless one was taken in the last
    /// [`SETUP_SPACING_S`].
    pub fn maybe(&mut self) {
        if self.last.is_none_or(|t| t.elapsed().as_secs_f64() >= SETUP_SPACING_S) {
            self.sample();
        }
    }

    /// Top up to [`SETUP_REPS`] samples and return the fastest.
    pub fn finish(mut self) -> f64 {
        while self.samples.len() < SETUP_REPS {
            self.sample();
        }
        self.samples.into_iter().fold(f64::INFINITY, f64::min)
    }
}

/// Quartiles of a metric's samples within one run, as diagnostics.
pub fn record_spread(rec: &mut Recorder, name: &str, samples: &[f64]) {
    let (q1, q3) = quartiles(samples);
    rec.diag(format!("{name}.q1"), q1, "s");
    rec.diag(format!("{name}.q3"), q3, "s");
    rec.diag(format!("{name}.samples"), samples.len() as f64, "count");
}

/// Per-layer values gathered over the passes of a traced run:
/// untraced attributed passes and traced passes alternate.
#[derive(Default)]
pub struct Layers {
    untraced: Vec<BTreeMap<String, f64>>,
    traced_run_s: Vec<f64>,
    virt: VirtSplit,
    trace: Vec<Json>,
}

impl Layers {
    /// Whether the run has measured long enough: at least one pass of
    /// each kind, and `seconds` since `t0`.
    pub fn enough(&self, t0: Instant, seconds: f64) -> bool {
        !self.untraced.is_empty()
            && !self.traced_run_s.is_empty()
            && t0.elapsed().as_secs_f64() >= seconds
    }

    /// Whether the next pass runs traced.
    pub fn next_traced(&self) -> bool {
        self.untraced.len() > self.traced_run_s.len()
    }

    /// Add one pass: its spans, and for an untraced pass its counters
    /// and failures, for a traced one its virtual-time split.
    pub fn add(
        &mut self,
        traced: bool,
        spans: &Spans,
        tally: &Tally,
        virt: VirtSplit,
        f: &Failures,
    ) {
        let own = spans.self_seconds();
        let span = |name: &str| own.get(name).copied().unwrap_or(0.0);
        if traced {
            self.traced_run_s.push(span("run"));
            self.virt = virt;
        } else {
            let mut v: BTreeMap<String, f64> =
                tally.values().into_iter().map(|(k, x)| (k.to_string(), x)).collect();
            for (name, span_name) in [
                ("bench.config_s", "config"),
                ("bench.run_s", "run"),
                ("json.report_s", "to_json"),
                ("bench.check_s", "check"),
            ] {
                v.insert(name.into(), span(span_name));
            }
            v.insert("fail.retried_attempts".into(), f.retried_attempts as f64);
            v.insert("fail.panicked_attempts".into(), f.panicked_attempts as f64);
            for (nodes, ns) in tally.by_nodes() {
                v.insert(format!("sim.ns_per_event.n{nodes}"), ns);
            }
            self.untraced.push(v);
        }
        // Passes repeat the same work: the span file keeps the first of
        // each kind.
        if self.trace.len() < 2 {
            self.trace.push(Json::object().field("traced", traced).field("spans", spans.to_json()));
        }
    }

    /// Record the medians over passes, and return the span file.
    pub fn record(self, rec: &mut Recorder) -> Json {
        if let Some(first) = self.untraced.first() {
            for name in first.keys() {
                let xs: Vec<f64> =
                    self.untraced.iter().filter_map(|v| v.get(name).copied()).collect();
                if metrics::find(name).is_some() {
                    rec.set(name, median(&xs));
                } else {
                    rec.diag(name.clone(), median(&xs), "ns");
                }
            }
        }
        if let Some(run_s) = rec.get("bench.run_s") {
            rec.set("trace.overhead_frac", median(&self.traced_run_s) / run_s - 1.0);
        }
        let [compute, pcie, network, idle] = self.virt.fractions();
        rec.set("virt.compute_frac", compute);
        rec.set("virt.pcie_frac", pcie);
        rec.set("virt.network_frac", network);
        rec.set("virt.idle_frac", idle);
        Json::Arr(self.trace)
    }
}

/// The job list of a job-list workload, and diagnostics from building it.
fn job_list(workload: &str, seed: u64, rec: &mut Recorder) -> Result<Vec<Job>, String> {
    match workload {
        "paper_suite" => figures::into_jobs(figures::paper_runs(), &figures::Points::committed()),
        "weak_scale" => {
            figures::into_jobs(figures::weak_scale_runs(), &figures::Points::committed())
        }
        "real_kernels" => {
            // Scheduler seed 0 means "no perturbation"; keep it nonzero.
            let (jobs, serial_s) = kernels::jobs(Rng::new(seed).next() | 1);
            rec.diag("apps.serial_s", serial_s, "s");
            Ok(jobs)
        }
        other => unreachable!("'{other}' is not a job-list workload"),
    }
}

/// One set-up of every distinct runtime configuration of `jobs`: build
/// the machine, run an empty program, tear it down.
fn setup_configs(jobs: &[Job]) -> impl FnMut() -> f64 {
    let mut seen = HashSet::new();
    let cfgs: Vec<RuntimeConfig> = jobs
        .iter()
        .filter_map(|j| match &j.program {
            Program::Ompss { cfg, .. } => Some((**cfg).clone()),
            Program::Mpi(_) => None,
        })
        .filter(|c| seen.insert(format!("{c:?}")))
        .collect();
    move || {
        let t0 = Instant::now();
        for c in &cfgs {
            Runtime::try_run(c.clone(), |_omp| async {}).expect("an empty program runs");
        }
        t0.elapsed().as_secs_f64()
    }
}

/// End-to-end measurement of a job-list workload: a warm-up pass, then
/// passes until the next would end past `seconds`, with set-up samples
/// taken between jobs.
///
/// Each job's host time is its fastest over the passes, for the reason
/// [`SetupSampler`] gives: `wall_s` is the sum of those times over the
/// list, `p50_ms` their median.
fn measure_jobs(jobs: &[Job], order: &[usize], seconds: f64, rec: &mut Recorder) -> Summary {
    let mut setup = SetupSampler::new(setup_configs(jobs));
    let mut between = || setup.maybe();
    let mut summary = Summary::default();
    let off = Spans::off();
    let mode = Mode { tracing: false, attribute: false };
    let mut next_run = 0;
    let warm = run_pass(jobs, order, mode, &off, &mut next_run, &mut between);
    summary.failures.merge(&warm.failures);
    let t0 = Instant::now();
    let mut passes = Vec::new();
    let mut fastest = vec![f64::INFINITY; order.len()];
    while passes.is_empty() || t0.elapsed().as_secs_f64() + median(&passes) <= seconds {
        let log = run_pass(jobs, order, mode, &off, &mut next_run, &mut between);
        passes.push(log.wall_s());
        for (best, s) in fastest.iter_mut().zip(&log.run_s) {
            *best = best.min(*s);
        }
        summary.add(log.attempted, &log.failures);
    }
    rec.set("setup_s", setup.finish());
    rec.set("wall_s", fastest.iter().sum());
    rec.set("p50_ms", median(&fastest) * 1e3);
    record_spread(rec, "pass_s", &passes);
    rec.diag("p99_ms", percentile(&fastest, 0.99) * 1e3, "ms");
    summary
}

/// Per-layer measurement of a job-list workload.
fn measure_job_layers(jobs: &[Job], order: &[usize], seconds: f64, layers: &mut Layers) -> Summary {
    let mut summary = Summary::default();
    let mut next_run = 0;
    let t0 = Instant::now();
    while !layers.enough(t0, seconds) {
        let tracing = layers.next_traced();
        let spans = Spans::new();
        let mode = Mode { tracing, attribute: !tracing };
        let log = run_pass(jobs, order, mode, &spans, &mut next_run, &mut || {});
        summary.add(log.attempted, &log.failures);
        layers.add(tracing, &spans, &log.tally, log.virt, &log.failures);
    }
    summary
}

/// Peak resident set of this process in MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kib * 1024.0 / 1e6)
}

fn write_file(name: &str, doc: &Json) {
    let dir = std::path::Path::new("target/benchmark");
    let path = dir.join(name);
    if let Err(e) = std::fs::create_dir_all(dir)
        .and_then(|_| std::fs::write(&path, doc.to_pretty_string() + "\n"))
    {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    }
}

fn run_one(workload: &str, a: &Args) -> ExitCode {
    let started = Instant::now();
    let mut rec = Recorder::default();
    let mut layers = Layers::default();
    if a.trace {
        micro::run_all(&mut rec);
    }
    let seconds = if a.trace { a.seconds - started.elapsed().as_secs_f64() } else { a.seconds };
    let summary = if workload == "serve_open" {
        if a.trace {
            serve::measure_layers(a.seed, seconds, &mut layers)
        } else {
            serve::measure(a.seed, seconds, &mut rec)
        }
    } else {
        let jobs = match job_list(workload, a.seed, &mut rec) {
            Ok(jobs) => jobs,
            Err(e) => {
                eprintln!("benchmark: {e}");
                return ExitCode::FAILURE;
            }
        };
        let order = Rng::new(a.seed).permutation(jobs.len());
        if a.trace {
            measure_job_layers(&jobs, &order, seconds, &mut layers)
        } else {
            measure_jobs(&jobs, &order, seconds, &mut rec)
        }
    };
    if a.trace {
        let spans = layers.record(&mut rec);
        write_file(
            &format!("{workload}.trace.json"),
            &Json::object().field("workload", workload).field("passes", spans),
        );
    } else if let Some(mb) = peak_rss_mb() {
        rec.set("peak_rss_mb", mb);
    }
    summary.failures.record(&mut rec);
    rec.print();
    let metrics = match rec.metrics_json(!a.trace) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = summary.failures.mismatches() == 0;
    let failed = summary.failures.failed();
    let kind = if a.trace { "layers" } else { "e2e" };
    write_file(
        &format!("{workload}.{kind}.json"),
        &Json::object()
            .field("workload", workload)
            .field("seed", a.seed)
            .field("seconds", a.seconds)
            .field("trace", a.trace)
            .field("correct", correct)
            .field("attempted", summary.attempted)
            .field("failed", failed)
            .field("metrics", rec.described_json(!a.trace))
            .field("diagnostics", rec.diagnostics_json()),
    );
    let result = Json::object()
        .field("correct", correct)
        .field("attempted", summary.attempted)
        .field("failed", failed)
        .field("metrics", metrics);
    println!("{}", result.to_compact_string());
    ExitCode::SUCCESS
}

/// Run every workload, untraced and then traced, each in its own child
/// process; fail if any child fails or reports an incorrect or failed
/// job.
fn run_all(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (seed, seconds) = (a.seed.to_string(), a.seconds.to_string());
    let mut ok = true;
    for w in WORKLOADS {
        for trace in ["0", "1"] {
            println!("== {w} --trace {trace}");
            let out = Command::new(&exe)
                .args(["--workload", w, "--seed", &seed, "--seconds", &seconds, "--trace", trace])
                .stderr(Stdio::inherit())
                .output();
            let out = match out {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("benchmark: cannot run {w}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let text = String::from_utf8_lossy(&out.stdout);
            print!("{text}");
            let last = text.lines().last().and_then(|l| Json::parse(l).ok());
            let good = out.status.success()
                && last.as_ref().is_some_and(|r| {
                    r.get("correct") == Some(&Json::Bool(true))
                        && r.get("failed") == Some(&Json::U64(0))
                });
            if !good {
                eprintln!("benchmark: {w} did not finish correct and without failures");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    job::count_panics();
    let a = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &a.workload {
        Some(w) => run_one(w, &a),
        None => run_all(&a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_and_human_command_lines_parse() {
        let a = args("--workload weak_scale --seed 3 --seconds 10 --trace 0").expect("driver form");
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("weak_scale"), 3, 10.0, false)
        );
        assert!(args("--workload serve_open --seed 3 --trace 1").expect("traced").trace);
        assert!(args("--workload serve_open --trace --seed 3").expect("bare flag").trace);
        assert!(args("--all --seed 1").expect("all").all);
        assert!(args("--all --seed 1 --trace 1").is_err(), "--all runs both modes");
        for bad in [
            "--workload nope --seed 1",
            "--workload paper_suite",
            "--all --workload paper_suite --seed 1",
            "--seed 1",
            "--workload paper_suite --seed x",
            "--workload paper_suite --seed 1 --seconds 0",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }
}
