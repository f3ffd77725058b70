//! One job — a program plus the check on its output — and everything a
//! pass over a job list accounts: per-run host time, failures by class,
//! per-layer counters from the run reports, and the split of virtual
//! time from traced runs.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Once};
use std::time::Instant;

use ompss_apps::common::AppRun;
use ompss_cudasim::GpuStats;
use ompss_json::ToJson;
use ompss_runtime::{RunError, RunReport, RuntimeConfig, TraceEvent};

use crate::metrics::Recorder;
use crate::spans::{Open, Spans, ROOT};

/// An OmpSs app entry point (`try_run` with its parameters bound).
pub type OmpssFn = Arc<dyn Fn(RuntimeConfig) -> Result<AppRun, RunError> + Send + Sync>;
/// An MPI+CUDA baseline (no runtime, no report; panics on failure).
pub type MpiFn = Arc<dyn Fn() -> AppRun + Send + Sync>;
/// Whether a run's output is right.
pub type CheckFn = Arc<dyn Fn(&AppRun) -> bool + Send + Sync>;

/// What a job executes.
#[derive(Clone)]
pub enum Program {
    /// An OmpSs program on the runtime configured by `cfg`.
    Ompss {
        /// The machine and runtime knobs.
        cfg: Box<RuntimeConfig>,
        /// The app entry point.
        run: OmpssFn,
    },
    /// An MPI+CUDA baseline.
    Mpi(MpiFn),
}

/// A program with the check its output must pass.
#[derive(Clone)]
pub struct Job {
    /// Human label, e.g. `fig09 StoS/smp/presend8 @ 8`.
    pub label: String,
    /// Cluster nodes the program runs on.
    pub nodes: u32,
    /// What runs.
    pub program: Program,
    /// The output check.
    pub check: CheckFn,
}

/// Why a run produced no output.
#[derive(Debug)]
pub enum Failure {
    /// The runtime returned an error.
    Run(RunError),
    /// The host thread panicked (the MPI baselines panic on failure).
    Panic(String),
}

/// Outcome of one execution.
pub struct Done {
    /// Host seconds inside the run call alone.
    pub run_s: f64,
    /// The run's result.
    pub outcome: Result<AppRun, Failure>,
}

impl Job {
    /// Execute once, with runtime tracing on or off, recording `config`
    /// and `run` spans under `parent`. Also says whether anything
    /// panicked on this thread meanwhile (see [`panics_during`]).
    pub fn execute(&self, tracing: bool, spans: &Spans, parent: Open, run: u64) -> (Done, bool) {
        panics_during(|| match &self.program {
            Program::Ompss { cfg, run: app } => {
                let cfg =
                    spans.time("config", parent, run, || (**cfg).clone().with_tracing(tracing));
                timed(spans, parent, run, || app(cfg).map_err(Failure::Run))
            }
            Program::Mpi(app) => timed(spans, parent, run, || Ok(app())),
        })
    }
}

fn timed(
    spans: &Spans,
    parent: Open,
    run: u64,
    f: impl FnOnce() -> Result<AppRun, Failure>,
) -> Done {
    let s = spans.open("run", parent, run);
    let t0 = Instant::now();
    let outcome = match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => Err(Failure::Panic(panic_message(&*payload))),
    };
    let run_s = t0.elapsed().as_secs_f64();
    spans.close(s);
    Done { run_s, outcome }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".into())
}

thread_local! {
    static THREAD_PANICS: Cell<u64> = const { Cell::new(0) };
}
static PANICS: AtomicU64 = AtomicU64::new(0);

/// Count every panic in the process, per thread and in total. A run can
/// panic and still end in a different error — a simulated process that
/// panics while the simulation shuts down after an exhausted retry
/// budget — so panics are counted where they happen, not read off the
/// error. Only the first is printed, as one line: symbolising a
/// backtrace would grow the heap, and peak RSS with it, on exactly the
/// seeds whose inputs happen to panic.
pub fn count_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        std::panic::set_hook(Box::new(|info| {
            THREAD_PANICS.with(|c| c.set(c.get() + 1));
            if PANICS.fetch_add(1, Relaxed) == 0 {
                eprintln!("benchmark: {info} (further panics are counted, not printed)");
            }
        }));
    });
}

/// Panics in the process so far (with [`count_panics`] installed).
pub fn panics() -> u64 {
    PANICS.load(Relaxed)
}

/// Run `f`, and say whether anything panicked on this thread meanwhile.
pub fn panics_during<R>(f: impl FnOnce() -> R) -> (R, bool) {
    let before = THREAD_PANICS.with(Cell::get);
    let r = f();
    (r, THREAD_PANICS.with(Cell::get) > before)
}

/// The failure classes: one per `RunError` variant, then a panic on
/// the host thread (the MPI baselines panic on failure), then the
/// outcomes only the job server produces.
pub const CLASSES: [&str; 12] = [
    "deadlock",
    "process_panic",
    "exhausted",
    "queue_overflow",
    "invariant",
    "invalid_config",
    "host_panic",
    "mismatch",
    "rejected",
    "shed",
    "deadline",
    "cancelled",
];

/// The class of a run error from its `Display` line — the only form the
/// job server reports an error in.
pub fn error_class(line: &str) -> &'static str {
    [
        ("simulation deadlock", "deadlock"),
        ("process '", "process_panic"),
        ("recovery budget exhausted", "exhausted"),
        ("queue '", "queue_overflow"),
        ("executor invariant violated", "invariant"),
        ("invalid configuration", "invalid_config"),
    ]
    .into_iter()
    .find(|(prefix, _)| line.starts_with(prefix))
    .map_or("host_panic", |(_, class)| class)
}

/// Failures by class. A job fails at most once, in one class; the two
/// `*_attempts` counts also see attempts a retry recovered.
#[derive(Debug, Default, Clone)]
pub struct Failures {
    /// Failed jobs per class of [`CLASSES`].
    pub jobs: BTreeMap<&'static str, u64>,
    /// Attempts that failed retryably and were run again.
    pub retried_attempts: u64,
    /// Attempts, failed or not, during which something panicked.
    pub panicked_attempts: u64,
}

impl Failures {
    /// Count one failed job.
    pub fn fail(&mut self, class: &'static str) {
        debug_assert!(CLASSES.contains(&class), "unknown failure class {class}");
        *self.jobs.entry(class).or_default() += 1;
    }

    /// Count a job whose run failed.
    pub fn terminal(&mut self, f: &Failure) {
        match f {
            Failure::Run(e) => self.fail(error_class(&e.to_string())),
            Failure::Panic(_) => self.fail("host_panic"),
        }
    }

    /// Jobs that ended without a correct result.
    pub fn failed(&self) -> u64 {
        self.jobs.values().sum()
    }

    /// Outputs that failed their check.
    pub fn mismatches(&self) -> u64 {
        self.jobs.get("mismatch").copied().unwrap_or(0)
    }

    /// Fold another tally in.
    pub fn merge(&mut self, o: &Failures) {
        for (class, n) in &o.jobs {
            *self.jobs.entry(class).or_default() += n;
        }
        self.retried_attempts += o.retried_attempts;
        self.panicked_attempts += o.panicked_attempts;
    }

    /// Every class, summed over the run, as a diagnostic.
    pub fn record(&self, rec: &mut Recorder) {
        for class in CLASSES {
            let n = self.jobs.get(class).copied().unwrap_or(0);
            rec.diag(format!("fail.{class}"), n as f64, "count");
        }
        rec.diag("fail.retried_attempts.total", self.retried_attempts as f64, "count");
        rec.diag("fail.panicked_attempts.total", self.panicked_attempts as f64, "count");
        rec.diag("fail.panics.total", panics() as f64, "count");
    }
}

/// Per-layer counters summed over the run reports of one pass.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Declared count metrics, summed.
    sums: BTreeMap<&'static str, u64>,
    max_queued: u64,
    host_ns: u64,
    run_ns: u64,
    /// `(events, host_ns)` per node count.
    by_nodes: BTreeMap<u32, (u64, u64)>,
}

impl Tally {
    /// Add one run's report; `run_s` is the host time of the call that
    /// produced it.
    pub fn add(&mut self, r: &RunReport, run_s: f64, nodes: u32) {
        let gpus = |f: fn(&GpuStats) -> u64| r.gpus.iter().map(|(_, g)| f(g)).sum::<u64>();
        let c = &r.counters;
        for (name, v) in [
            ("sim.events", r.events),
            ("sim.clock_advances", r.clock_advances),
            ("sim.wakes_coalesced", r.wakes_coalesced),
            ("core.tasks", r.tasks),
            ("sched.submitted", r.sched.submitted),
            ("sched.steals", r.sched.steals),
            ("coherence.hits", r.coherence.hits),
            ("coherence.misses", r.coherence.misses),
            ("coherence.transfers", r.coherence.transfers),
            ("coherence.bytes_moved", r.coherence.bytes_moved),
            ("coherence.evictions", r.coherence.evictions),
            ("coherence.writebacks", r.coherence.writebacks),
            ("net.messages", r.net.messages),
            ("net.bytes_total", r.net.bytes_total),
            ("net.am_shorts", r.am.shorts),
            ("net.am_longs", r.am.longs),
            ("net.master_link_bytes", r.net.master_link_bytes()),
            ("cudasim.kernels", gpus(|g| g.kernels)),
            ("cudasim.h2d_bytes", gpus(|g| g.h2d_bytes)),
            ("cudasim.d2h_bytes", gpus(|g| g.d2h_bytes)),
            ("runtime.am_exec", c.am_exec),
            ("runtime.am_done", c.am_done),
            ("runtime.am_data", c.am_data),
            ("runtime.shard_lookups", c.shard_lookups),
            ("runtime.peer_resolutions", c.peer_resolutions),
            ("runtime.submaster_spawns", c.submaster_spawns),
            ("runtime.am_retries", c.am_retries),
            ("runtime.tasks_reexecuted", c.tasks_reexecuted),
        ] {
            *self.sums.entry(name).or_default() += v;
        }
        self.max_queued = self.max_queued.max(r.sched.max_queued);
        self.host_ns += r.host_ns;
        self.run_ns += (run_s * 1e9) as u64;
        let slot = self.by_nodes.entry(nodes).or_default();
        slot.0 += r.events;
        slot.1 += r.host_ns;
    }

    /// The declared per-layer values, by name.
    pub fn values(&self) -> Vec<(&'static str, f64)> {
        let sum = |name| self.sums.get(name).copied().unwrap_or(0);
        let per_event = |host_ns: u64, events: u64| host_ns as f64 / events.max(1) as f64;
        let (max_events, max_host) =
            self.by_nodes.values().next_back().copied().unwrap_or_default();
        let lookups = (sum("coherence.hits") + sum("coherence.misses")).max(1);
        let mut out: Vec<(&'static str, f64)> =
            self.sums.iter().map(|(name, v)| (*name, *v as f64)).collect();
        out.extend([
            ("sched.max_queued", self.max_queued as f64),
            ("sim.host_s", self.host_ns as f64 / 1e9),
            ("sim.ns_per_event", per_event(self.host_ns, sum("sim.events"))),
            ("sim.ns_per_event.max_nodes", per_event(max_host, max_events)),
            ("runtime.outside_sim_s", self.run_ns.saturating_sub(self.host_ns) as f64 / 1e9),
            ("coherence.hit_ratio", sum("coherence.hits") as f64 / lookups as f64),
        ]);
        out
    }

    /// Host nanoseconds per DES event at each node count, as
    /// diagnostics (`sim.ns_per_event.n<nodes>`).
    pub fn by_nodes(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.by_nodes.iter().map(|(n, (ev, ns))| (*n, *ns as f64 / (*ev).max(1) as f64))
    }
}

/// Virtual time of traced runs, split by what the machine was doing:
/// at each instant of a run's makespan, any task running counts as
/// compute; otherwise any PCIe transfer as PCIe; otherwise any network
/// transfer as network; otherwise idle. The four parts sum to the
/// makespan exactly.
#[derive(Debug, Default, Clone, Copy)]
pub struct VirtSplit {
    compute_ns: u64,
    pcie_ns: u64,
    network_ns: u64,
    total_ns: u64,
}

impl VirtSplit {
    /// Add one traced run.
    pub fn add(&mut self, events: &[TraceEvent], makespan_ns: u64) {
        let clamp = |s: u64, e: u64| (s.min(makespan_ns), e.min(makespan_ns));
        let mut compute = Vec::new();
        let mut pcie = Vec::new();
        let mut network = Vec::new();
        for e in events {
            match e {
                TraceEvent::Task { start, end, .. } => {
                    compute.push(clamp(start.as_nanos(), end.as_nanos()))
                }
                TraceEvent::Transfer { medium, start, end, .. } => {
                    let iv = clamp(start.as_nanos(), end.as_nanos());
                    if *medium == "pcie" {
                        pcie.push(iv)
                    } else {
                        network.push(iv)
                    }
                }
                TraceEvent::Recovery { .. } => {}
            }
        }
        let c = union_ns(compute.clone());
        compute.extend(pcie);
        let cp = union_ns(compute.clone());
        compute.extend(network);
        let cpn = union_ns(compute);
        self.compute_ns += c;
        self.pcie_ns += cp - c;
        self.network_ns += cpn - cp;
        self.total_ns += makespan_ns;
    }

    /// `(compute, pcie, network, idle)` as shares of the total makespan.
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total_ns.max(1) as f64;
        let busy = self.compute_ns + self.pcie_ns + self.network_ns;
        [
            self.compute_ns as f64 / t,
            self.pcie_ns as f64 / t,
            self.network_ns as f64 / t,
            self.total_ns.saturating_sub(busy) as f64 / t,
        ]
    }
}

/// Length of the union of half-open intervals.
fn union_ns(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// What one pass over a job list did.
#[derive(Debug, Default)]
pub struct PassLog {
    /// Host seconds of each run call, in execution order.
    pub run_s: Vec<f64>,
    /// Jobs attempted.
    pub attempted: u64,
    /// Failures by class.
    pub failures: Failures,
    /// Per-layer counters (attributed passes only).
    pub tally: Tally,
    /// Virtual-time split (traced passes only).
    pub virt: VirtSplit,
}

impl PassLog {
    /// Sum of the run spans: the pass's `wall_s`.
    pub fn wall_s(&self) -> f64 {
        self.run_s.iter().sum()
    }
}

/// How a pass runs.
#[derive(Debug, Clone, Copy)]
pub struct Mode {
    /// Runtime tracing on (virtual-time split) or off.
    pub tracing: bool,
    /// Serialise each report and tally its counters.
    pub attribute: bool,
}

/// Run every job once, in `order`, checking each output; `between`
/// runs after each job, outside every span.
pub fn run_pass(
    jobs: &[Job],
    order: &[usize],
    mode: Mode,
    spans: &Spans,
    next_run: &mut u64,
    between: &mut dyn FnMut(),
) -> PassLog {
    let mut log = PassLog::default();
    for &i in order {
        let job = &jobs[i];
        let run = *next_run;
        *next_run += 1;
        let root = spans.open("job", ROOT, run);
        let (done, panicked) = job.execute(mode.tracing, spans, root, run);
        log.run_s.push(done.run_s);
        log.attempted += 1;
        log.failures.panicked_attempts += u64::from(panicked);
        match &done.outcome {
            Ok(app) => {
                if let Some(rep) = &app.report {
                    if mode.attribute {
                        spans.time("to_json", root, run, || rep.to_json().to_compact_string());
                        log.tally.add(rep, done.run_s, job.nodes);
                    }
                    if let Some(trace) = &rep.trace {
                        log.virt.add(trace, rep.makespan.as_nanos());
                    }
                }
                if !spans.time("check", root, run, || (job.check)(app)) {
                    eprintln!("benchmark: output check failed: {}", job.label);
                    log.failures.fail("mismatch");
                }
            }
            Err(f) => {
                eprintln!("benchmark: {} failed: {f:?}", job.label);
                log.failures.terminal(f);
            }
        }
        spans.close(root);
        between();
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompss_runtime::{SimTime, TraceResource};

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_ns(vec![(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_ns(vec![]), 0);
    }

    #[test]
    fn virtual_split_partitions_the_makespan() {
        let task = |s, e| TraceEvent::Task {
            task: 1,
            label: "k".into(),
            resource: TraceResource { node: 0, name: "gpu0".into() },
            start: SimTime(s),
            end: SimTime(e),
        };
        let xfer = |medium, s, e| TraceEvent::Transfer {
            medium,
            bytes: 8,
            start: SimTime(s),
            end: SimTime(e),
        };
        let mut v = VirtSplit::default();
        // compute 10..40; pcie 0..20 (10 outside compute); network
        // 30..60 (20 outside compute and pcie); idle 60..100.
        v.add(&[task(10, 40), xfer("pcie", 0, 20), xfer("network", 30, 60)], 100);
        let [c, p, n, i] = v.fractions();
        assert_eq!((c, p, n, i), (0.3, 0.1, 0.2, 0.4));
    }

    #[test]
    fn failures_count_terminal_outcomes_by_class() {
        let errors = [
            (RunError::Deadlock { blocked: vec![] }, "deadlock"),
            (
                RunError::ProcessPanic("master".into(), "taskwait during shutdown".into()),
                "process_panic",
            ),
            (RunError::Exhausted { what: "t".into(), attempts: 3 }, "exhausted"),
            (RunError::QueueOverflow { queue: "q".into(), capacity: 1 }, "queue_overflow"),
            (RunError::InvariantViolation { what: "w".into() }, "invariant"),
            (RunError::InvalidConfig { what: "w".into() }, "invalid_config"),
        ];
        let mut f = Failures::default();
        for (e, class) in errors {
            assert_eq!(error_class(&e.to_string()), class);
            f.terminal(&Failure::Run(e));
        }
        f.terminal(&Failure::Panic("host".into()));
        f.fail("mismatch");
        assert_eq!((f.failed(), f.mismatches(), f.jobs["host_panic"]), (8, 1, 1));
    }

    #[test]
    fn panics_are_counted_on_the_thread_they_happen_on() {
        count_panics();
        let ((), quiet) = panics_during(|| ());
        let (r, loud) = panics_during(|| std::panic::catch_unwind(|| panic!("counted")));
        assert!(r.is_err() && loud && !quiet);
        assert!(panics() >= 1);
    }
}
