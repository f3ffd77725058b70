//! serve — the ompss simulation daemon.
//!
//! ```text
//! serve                          # line protocol on stdin/stdout
//! serve --socket PATH            # daemon on a Unix socket, one client per connection
//! serve --soak [N]               # in-process robustness soak (default 500 jobs)
//! ```
//!
//! `--jobs N` sets the worker threads of either; `--queue-cap N` the
//! daemon's queue (the soak runs its own server with a cap of 16).
//!
//! The protocol is one JSON object per line in each direction; see
//! [`ompss_serve::serve_connection`]. The soak is the daemon's CI face:
//! `./ci.sh serve` runs it. Its host-time costs are measured by the
//! benchmark's `serve_open` workload.

use std::collections::{BTreeMap, HashMap};
use std::io::BufReader;
use std::num::NonZeroUsize;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ompss_json::{Json, ToJson};
use ompss_serve::{
    serve_connection, Event, EventKind, JobSpec, ServeConfig, Server, Sink, AGING_POPS,
    PRIORITY_MAX,
};
use ompss_sweep::Argv;

/// Soak: the committed peak-RSS ceiling. The daemon's whole point is
/// bounded memory under overload; blowing this is a failed soak.
const SOAK_RSS_LIMIT_BYTES: u64 = 1 << 30; // 1 GiB

/// Soak: per-pop fairness bound on queue wait, in pops. A queued job
/// ages one priority level per [`AGING_POPS`] pops, so after
/// `PRIORITY_MAX * AGING_POPS` pops it outranks every possible
/// newcomer base priority; what remains ahead of it is bounded by the
/// queue capacity plus the newcomers admitted while it aged (at most
/// one per pop during the aging window). `3 *` leaves slack for
/// tie-break noise without ever letting true starvation pass.
fn fairness_bound(queue_cap: usize) -> u64 {
    queue_cap as u64 + 3 * PRIORITY_MAX as u64 * AGING_POPS
}

/// Peak resident set size of this process so far, in bytes (Linux
/// `VmHWM`; 0 where unavailable).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map(|kb| kb * 1024)
        .unwrap_or(0)
}

/// Deterministic 64-bit xorshift for the soak's job mix.
fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

/// Everything the soak records about the event stream, keyed by id.
#[derive(Default)]
struct SoakLog {
    /// Terminal event names per job (must end at exactly one each).
    terminals: HashMap<u64, Vec<&'static str>>,
    /// Worst queue wait seen in any `started` event, in pops.
    max_waited_pops: u64,
    /// `(id, attempts, report bytes)` of completed jobs, for the
    /// determinism re-run sample.
    results: Vec<(u64, u32, String)>,
}

fn terminal_name(kind: &EventKind) -> Option<&'static str> {
    Some(match kind {
        EventKind::Result { .. } => "result",
        EventKind::Rejected { reason } => reason,
        EventKind::Cancelled => "cancelled",
        EventKind::DeadlineExceeded => "deadline_exceeded",
        EventKind::Failed { .. } => "failed",
        EventKind::Admitted { .. } | EventKind::Started { .. } | EventKind::Retrying { .. } => {
            return None
        }
    })
}

fn soak_sink(log: Arc<Mutex<SoakLog>>) -> Sink {
    Arc::new(move |ev: &Event| {
        let mut log = log.lock().expect("soak log");
        if let EventKind::Started { waited_pops, .. } = ev.kind {
            log.max_waited_pops = log.max_waited_pops.max(waited_pops);
        }
        if let EventKind::Result { attempts, ref report, .. } = ev.kind {
            log.results.push((ev.id, attempts, report.to_compact_string()));
        }
        if let Some(name) = terminal_name(&ev.kind) {
            log.terminals.entry(ev.id).or_default().push(name);
        }
    })
}

/// The soak's deterministic job mix: mostly cheap fault-free stream
/// runs, salted with other apps, cluster topologies, zero deadlines,
/// faulty-with-retries specs and occasional hopeless fault rates.
fn soak_spec(i: usize, rng: &mut u64) -> JobSpec {
    let app = if i % 7 == 3 {
        ompss_chaos::APPS[xorshift(rng) as usize % ompss_chaos::APPS.len()]
    } else {
        "stream"
    };
    let mut j = Json::object()
        .field("app", app)
        .field("priority", xorshift(rng) % 10)
        .field("tag", format!("soak-{i}"));
    if i % 23 == 11 {
        j = j.field("topology", "cluster").field("nodes", 2u64);
    }
    if i % 13 == 5 {
        // Already expired on admission: must terminate as
        // deadline_exceeded unless a worker wins the race.
        j = j.field("deadline_ms", 0u64);
    }
    if i % 19 == 7 {
        j = j.field("fault_rate", 0.02).field("fault_seed", xorshift(rng)).field("retries", 2u64);
    }
    if i % 29 == 13 {
        j = j.field("fault_rate", 0.45).field("fault_seed", xorshift(rng)).field("retries", 1u64);
    }
    JobSpec::from_json(&j).expect("soak specs are well-formed")
}

/// Malformed specs the soak interleaves to prove bad requests are
/// rejected at the door and never become jobs.
const BAD_SPECS: [&str; 4] = [
    r#"{"topology":"cluster"}"#,
    r#"{"app":"nosuch"}"#,
    r#"{"app":"stream","priority":99}"#,
    r#"{"app":"stream","fault_rate":2.0}"#,
];

fn run_soak(n: usize) -> i32 {
    let queue_cap = 16;
    let cfg = ServeConfig { queue_cap, ..ServeConfig::default() };
    let workers = cfg.workers;
    println!("serve soak: {n} jobs, {workers} worker(s), queue cap {queue_cap}");
    let server = Server::new(cfg);
    let log: Arc<Mutex<SoakLog>> = Arc::default();
    let sink = soak_sink(log.clone());
    let mut rng = 0x5eed_5e12_feed_f00d_u64;
    let mut specs: HashMap<u64, JobSpec> = HashMap::new();
    let mut bad_rejected = 0usize;
    let mut submitted = 0usize;
    let mut violations: Vec<String> = Vec::new();

    let t0 = Instant::now();
    for i in 0..n {
        if i % 11 == 4 {
            // A malformed request: must fail validation, never queue.
            let text = BAD_SPECS[xorshift(&mut rng) as usize % BAD_SPECS.len()];
            match JobSpec::parse(text) {
                Err(_) => bad_rejected += 1,
                Ok(_) => violations.push(format!("bad spec parsed: {text}")),
            }
            continue;
        }
        let spec = soak_spec(i, &mut rng);
        let id = server.submit(spec.clone(), sink.clone());
        specs.insert(id, spec);
        submitted += 1;
        if i % 17 == 9 {
            // Cancel immediately; terminal may be `cancelled` or a
            // result the worker already raced to — both are legal.
            server.cancel(id);
        }
        // Pace most submissions so a healthy share completes, but let
        // every fourth batch of 24 arrive as an unthrottled burst: 24
        // near-instant arrivals against a cap of 16 and `workers`
        // in-flight slots must overrun admission, forcing the
        // queue-full / load-shed paths the soak exists to exercise.
        let burst = (i / 24) % 4 == 3;
        if !burst {
            while submitted - log.lock().expect("log").terminals.len() > workers {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
    }
    // Drain while work is still queued: queued jobs must terminate as
    // rejected("draining"), in-flight jobs must finish.
    let counters = server.counters();
    server.shutdown();
    let wall = t0.elapsed().as_secs_f64();

    let log = log.lock().expect("soak log");

    // 1. Exactly one terminal per submitted job.
    for (&id, names) in &log.terminals {
        if names.len() != 1 {
            violations.push(format!("job {id} got {} terminals: {names:?}", names.len()));
        }
    }
    if log.terminals.len() != submitted {
        violations.push(format!(
            "{} jobs submitted but {} got a terminal event",
            submitted,
            log.terminals.len()
        ));
    }

    // 2. Fairness: no started job waited past the aging bound.
    let bound = fairness_bound(queue_cap);
    if log.max_waited_pops > bound {
        violations
            .push(format!("fairness: a job waited {} pops (bound {bound})", log.max_waited_pops));
    }

    // 3. Determinism: first-attempt results must be byte-identical to a
    //    direct run of the same spec.
    let mut checked = 0;
    for (id, attempts, report) in log.results.iter() {
        if *attempts != 1 || checked >= 20 {
            continue;
        }
        let spec = &specs[id];
        let direct = ompss_chaos::try_run_app(spec.app, spec.config(0))
            .unwrap_or_else(|e| panic!("direct re-run of job {id} failed: {e}"));
        let direct_bytes = direct
            .report
            .as_ref()
            .map(|r| r.to_json().to_compact_string())
            .unwrap_or_else(|| Json::object().to_compact_string());
        if direct_bytes != *report {
            violations.push(format!("job {id}: served report differs from direct run"));
        }
        checked += 1;
    }

    // 4. Bounded memory.
    let rss = peak_rss_bytes();
    if rss > SOAK_RSS_LIMIT_BYTES {
        violations.push(format!(
            "peak RSS {} MiB exceeds the committed {} MiB limit",
            rss >> 20,
            SOAK_RSS_LIMIT_BYTES >> 20
        ));
    }

    let mut by_kind: BTreeMap<&str, u64> = BTreeMap::new();
    for name in log.terminals.values().flatten() {
        *by_kind.entry(name).or_default() += 1;
    }
    let terminals = by_kind.into_iter().fold(Json::object(), |j, (name, n)| j.field(name, n));
    let snap = counters.snapshot();
    let summary = Json::object()
        .field("soak_jobs", submitted as u64)
        .field("bad_specs_rejected", bad_rejected as u64)
        .field("wall_s", wall)
        .field("terminals", terminals)
        .field("max_waited_pops", log.max_waited_pops)
        .field("fairness_bound", bound)
        .field("determinism_checked", checked as u64)
        .field("peak_rss_mib", rss >> 20)
        .field("counters", snap.to_json());
    println!("{}", summary.to_pretty_string());

    // The soak must actually have exercised the overload machinery.
    if snap.serve_rejected == 0 && snap.serve_shed == 0 {
        violations.push("soak never hit admission control; lower the cap or raise n".into());
    }
    if snap.serve_completed == 0 {
        violations.push("soak completed no jobs".into());
    }

    if violations.is_empty() {
        println!("serve soak: OK");
        0
    } else {
        for v in &violations {
            eprintln!("serve soak: VIOLATION: {v}");
        }
        1
    }
}

fn run_stdin(cfg: ServeConfig) {
    let server = Server::new(cfg);
    let stdin = std::io::stdin().lock();
    let stdout = std::io::stdout();
    let wants_shutdown = serve_connection(&server, stdin, stdout);
    if !wants_shutdown {
        // Plain EOF (a piped client): deliver every outstanding result
        // before exiting. An explicit shutdown op drains instead.
        server.quiesce();
    }
    server.shutdown();
}

fn run_socket(path: &str, cfg: ServeConfig) {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)
        .unwrap_or_else(|e| panic!("serve: cannot bind socket {path}: {e}"));
    println!("serve: listening on {path}");
    let server = Server::new(cfg);
    let stop = AtomicBool::new(false);
    let conns: Mutex<Vec<UnixStream>> = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for stream in listener.incoming() {
            if stop.load(Relaxed) {
                break;
            }
            let Ok(stream) = stream else { break };
            conns.lock().expect("conns").push(stream.try_clone().expect("clone unix stream"));
            let (server, stop, conns) = (&server, &stop, &conns);
            s.spawn(move || {
                let reader = BufReader::new(stream.try_clone().expect("clone unix stream"));
                if serve_connection(server, reader, stream) {
                    stop.store(true, Relaxed);
                    // Hang up every open connection so its handler
                    // thread sees EOF, then poke the accept loop awake.
                    for c in conns.lock().expect("conns").iter() {
                        let _ = c.shutdown(std::net::Shutdown::Both);
                    }
                    let _ = UnixStream::connect(path);
                }
            });
        }
    });
    let _ = std::fs::remove_file(path);
    server.shutdown();
    println!("serve: drained, bye");
}

const USAGE: &str = "usage: serve [--jobs N] [--queue-cap N] [--socket PATH]\n       \
                     serve --soak [N] [--jobs N]";

/// The command line apart from `--jobs`.
#[derive(Debug, PartialEq)]
struct Args {
    queue_cap: Option<NonZeroUsize>,
    socket: Option<String>,
    soak: Option<usize>,
}

fn parse_args(argv: &mut Argv) -> Result<Args, String> {
    let args = Args {
        queue_cap: argv.value("--queue-cap")?,
        socket: argv.value("--socket")?,
        soak: argv.value_or("--soak", Some(500))?,
    };
    // The soak builds its own server: a daemon flag would change nothing.
    if args.soak.is_some() && (args.queue_cap.is_some() || args.socket.is_some()) {
        return Err("--soak takes no --queue-cap or --socket".into());
    }
    Ok(args)
}

fn main() {
    // Panics inside simulated processes (fault injection tripping an
    // `expect` in app code) are caught by the sim engine and surfaced
    // as structured `RunError::ProcessPanic` results; the default
    // hook's backtrace spam would drown the protocol stream. Keep one
    // diagnostic line per panic instead.
    std::panic::set_hook(Box::new(|info| {
        let thread = std::thread::current().name().unwrap_or("?").to_string();
        eprintln!("serve: panic in {thread}: {info}");
    }));
    let (jobs, Args { queue_cap, socket, soak }) =
        ompss_sweep::read_args("serve", USAGE, |argv| Ok((argv.jobs()?, parse_args(argv)?)));

    let mut cfg = ServeConfig { workers: jobs, ..ServeConfig::default() };
    if let Some(cap) = queue_cap {
        cfg.queue_cap = cap.get();
    }

    if let Some(n) = soak {
        std::process::exit(run_soak(n));
    }
    match socket {
        Some(path) => run_socket(&path, cfg),
        None => run_stdin(cfg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Argv::parse(args, parse_args)
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        let args = parse(&["--queue-cap", "8", "--socket", "serve.sock"]).unwrap();
        let socket = Some("serve.sock".to_string());
        assert_eq!(args, Args { queue_cap: NonZeroUsize::new(8), socket, soak: None });
        assert_eq!(parse(&["--soak"]).unwrap().soak, Some(500));
        assert_eq!(parse(&["--soak", "40"]).unwrap().soak, Some(40));
        for bad in [
            &["--queue-cap"][..],
            &["--queue-cap", "many"],
            &["--queue-cap", "0"],
            &["--socket"],
            &["--bench"],
            &["--soak", "--check"],
            &["--socket", "x", "--soak"],
            &["--queue-cap", "8", "--soak"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
