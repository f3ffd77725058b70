//! `bench_sim` — wall-clock benchmark spine for the simulator itself.
//!
//! Everything else in `results/` measures the *modelled* platform in
//! virtual time; this harness measures the *host* cost of producing
//! those results, so speedups (or regressions) of the DES engine and
//! the runtime's bookkeeping show up as one committed number.
//!
//! ```text
//! bench_sim [--jobs N]   # measure, print, rewrite BENCH_sim.json
//! bench_sim --check      # measure, compare against the committed
//!                        # BENCH_sim.json, exit 1 on a >20% regression
//! ```
//!
//! Three tiers:
//!
//! * **DES micro** — a single process issuing 200 000 unit delays
//!   (the inline-advance fast path) and a two-process channel pingpong
//!   (cross-process wakes: a channel handoff, a heap pop and a poll per
//!   message), each reported as events/second from the kernel's own
//!   `events` and `host_ns` counters.
//! * **Graph micro** — `TaskGraph::add_task` throughput over a
//!   10 000-task matmul-shaped graph (tasks/second).
//! * **Figure macro** — regenerates every figure/table exactly as
//!   `all_figures` does (same sweep, same job count), timing each.
//!
//! All numbers in `BENCH_sim.json` are **host measurements**: they vary
//! run to run and machine to machine, and are deliberately kept out of
//! `results/*.json`, whose bytes are deterministic. The committed file
//! is the recorded baseline the `--check` mode (wired into
//! `./ci.sh bench`) compares against.

use std::time::Instant;

use ompss_bench::FigureData;
use ompss_core::{AccessExt, TaskGraph, TaskId};
use ompss_json::Json;
use ompss_mem::{Access, DataId, Region};
use ompss_sim::{delay, Channel, Sim, SimDuration};

/// Delay events issued by the single-process DES micro-benchmark.
const DES_DELAYS: u64 = 200_000;
/// Round trips of the two-process pingpong micro-benchmark.
const PINGPONG_ROUNDS: u64 = 50_000;
/// Trivial processes spawned by the cluster-scale spawn micro-benchmark.
const SPAWN_PROCESSES: u64 = 1_000_000;
/// Peak-RSS growth allowed while running the spawn micro-benchmark:
/// ~512 bytes of heap per in-flight process, with slack for the run
/// queue and allocator overhead. A thread-per-process design (8 MiB
/// stacks) would need terabytes.
const SPAWN_RSS_BOUND_BYTES: u64 = 512 << 20;
/// Tasks submitted by the graph micro-benchmark.
const GRAPH_TASKS: usize = 10_000;
/// `--check` fails when the macro total exceeds baseline × this factor.
const REGRESSION_HEADROOM: f64 = 1.20;

/// Events/second of a single process spinning on unit delays — the
/// inline clock-advance fast path, with the event count taken from the
/// kernel's report so fast-path and slow-path builds stay comparable.
fn des_delay_micro() -> (f64, u64) {
    let sim = Sim::new();
    sim.spawn("spin", async {
        for _ in 0..DES_DELAYS {
            delay(SimDuration::from_nanos(1)).await.unwrap();
        }
    });
    let rep = sim.run().expect("delay micro-benchmark completes");
    (rep.events as f64 / (rep.host_ns as f64 / 1e9), rep.events)
}

/// Events/second of a two-process channel pingpong — every event is a
/// cross-process resume, so this measures the wake/poll handoff.
fn des_pingpong_micro() -> (f64, u64) {
    let sim = Sim::new();
    let a: Channel<u32> = Channel::new();
    let b: Channel<u32> = Channel::new();
    let (a1, b1) = (a.clone(), b.clone());
    sim.spawn("ping", async move {
        for i in 0..PINGPONG_ROUNDS as u32 {
            a1.send(i);
            b1.recv().await.unwrap();
        }
    });
    sim.process("pong").daemon().spawn(async move {
        while let Ok(v) = a.recv().await {
            b.send(v);
        }
    });
    let rep = sim.run().expect("pingpong micro-benchmark completes");
    (rep.events as f64 / (rep.host_ns as f64 / 1e9), rep.events)
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

/// Spawn throughput and memory footprint at cluster scale: one million
/// trivial processes (spawn, one yield, exit), as a stand-in for the
/// thousand-node × multi-GPU worker/manager/pump population. Reports
/// events/second and asserts the peak-RSS *delta* stays under a bound
/// that an OS-thread-per-process design would exceed by orders of
/// magnitude.
fn des_spawn_micro() -> (f64, u64, u64) {
    let rss_before = peak_rss_bytes();
    let sim = Sim::new();
    sim.spawn("spawner", async {
        for i in 0..SPAWN_PROCESSES {
            ompss_sim::spawn(("p", i), async {
                ompss_sim::yield_now().await.unwrap();
            });
        }
    });
    let rep = sim.run().expect("spawn micro-benchmark completes");
    assert_eq!(rep.processes as u64, SPAWN_PROCESSES + 1);
    let rss_delta = peak_rss_bytes().saturating_sub(rss_before);
    assert!(
        rss_delta < SPAWN_RSS_BOUND_BYTES,
        "1M stackless processes grew peak RSS by {} MiB (bound {} MiB); \
         a process stopped being one small heap object",
        rss_delta >> 20,
        SPAWN_RSS_BOUND_BYTES >> 20,
    );
    (rep.events as f64 / (rep.host_ns as f64 / 1e9), rep.events, rss_delta)
}

/// `TaskGraph::add_task` throughput (tasks/second) over a 10 000-task
/// matmul-shaped graph: three accesses per task, 8×8 tile grid, deep
/// reduction chains on the output tiles.
fn graph_micro() -> (f64, u64) {
    let reg =
        |d: u64, i: usize, j: usize| Region::new(DataId(d), ((i % 8 * 8 + j % 8) * 64) as u64, 64);
    let accesses: Vec<Vec<Access>> = (0..GRAPH_TASKS)
        .map(|t| {
            let (i, j, k) = (t / 64, t / 8, t);
            vec![
                Access::read(reg(0, i, k)),
                Access::read(reg(1, k, j)),
                Access::update(reg(2, i, j)),
            ]
        })
        .collect();
    let t0 = Instant::now();
    let mut graph = TaskGraph::new();
    for (i, a) in accesses.iter().enumerate() {
        graph.add_task(TaskId(i as u64), a).expect("graph micro-benchmark accepts tasks");
    }
    let secs = t0.elapsed().as_secs_f64();
    assert_eq!(graph.submitted(), GRAPH_TASKS);
    (GRAPH_TASKS as f64 / secs, GRAPH_TASKS as u64)
}

/// One timed entry of the figure macro-suite.
type FigureEntry = (&'static str, fn() -> FigureData);

/// Every figure/table `all_figures` regenerates, in its order.
fn figure_suite() -> Vec<FigureEntry> {
    use ompss_bench::figures as f;
    vec![
        ("fig05", f::fig05),
        ("fig06", f::fig06),
        ("fig07", f::fig07),
        ("fig08", f::fig08),
        ("fig09", f::fig09),
        ("fig10", f::fig10),
        ("fig11", f::fig11),
        ("fig12", f::fig12),
        ("fig13", f::fig13),
        ("figWS", f::figws),
        ("table1", f::table1),
    ]
}

/// Path of the committed baseline / output file: `<workspace>/BENCH_sim.json`.
fn bench_path() -> std::path::PathBuf {
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(m) => std::path::Path::new(&m).join("../../BENCH_sim.json"),
        Err(_) => std::path::PathBuf::from("BENCH_sim.json"),
    }
}

/// Pull `"total_wall_s": <number>` out of a committed `BENCH_sim.json`.
///
/// `ompss_json` is writer-only by design, and this file is machine
/// written by this binary, so a field scan is all the parsing needed.
fn baseline_total(text: &str) -> Option<f64> {
    let key = "\"total_wall_s\":";
    let at = text.find(key)? + key.len();
    let rest = text[at..].trim_start();
    let end = rest.find(|c: char| {
        !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
    })?;
    rest[..end].parse().ok()
}

const USAGE: &str = "usage: bench_sim [--jobs N] [--check]";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = ompss_sweep::parse_jobs_flag(&mut args).unwrap_or_else(|e| {
        eprintln!("bench_sim: {e}; {USAGE}");
        std::process::exit(2);
    });
    let check = args.iter().any(|a| a == "--check");
    args.retain(|a| a != "--check");
    assert!(args.is_empty(), "{USAGE}");

    println!("bench_sim: {jobs} job(s)");
    let (delay_eps, delay_events) = des_delay_micro();
    println!("  des delay       {delay_eps:>14.0} events/s  ({delay_events} events)");
    let (ping_eps, ping_events) = des_pingpong_micro();
    println!("  des pingpong    {ping_eps:>14.0} events/s  ({ping_events} events)");
    let (spawn_eps, spawn_events, spawn_rss) = des_spawn_micro();
    println!(
        "  des spawn 1m    {spawn_eps:>14.0} events/s  ({spawn_events} events, +{} MiB peak RSS)",
        spawn_rss >> 20
    );
    let (graph_tps, graph_tasks) = graph_micro();
    println!("  graph add_task  {graph_tps:>14.0} tasks/s   ({graph_tasks} tasks)");

    let mut figures = Json::array();
    let mut total = 0.0f64;
    for (id, make) in figure_suite() {
        let t0 = Instant::now();
        let fig = make();
        let wall = t0.elapsed().as_secs_f64();
        total += wall;
        println!("  {id:<8} {wall:>8.2} s  ({} series)", fig.series.len());
        figures.push(Json::object().field("id", id).field("wall_s", wall));
    }
    println!("  macro total {total:>8.2} s");

    let path = bench_path();
    let baseline = std::fs::read_to_string(&path).ok().as_deref().and_then(baseline_total);
    let speedup = baseline.map(|b| b / total);
    if let (Some(b), Some(s)) = (baseline, speedup) {
        println!("  baseline    {b:>8.2} s  (speedup {s:.2}x)");
    }

    if check {
        let b = baseline
            .unwrap_or_else(|| panic!("--check needs a committed baseline at {}", path.display()));
        if total > b * REGRESSION_HEADROOM {
            eprintln!(
                "bench_sim: macro total {total:.2}s exceeds baseline {b:.2}s by more than {:.0}%",
                (REGRESSION_HEADROOM - 1.0) * 100.0
            );
            std::process::exit(1);
        }
        println!("bench_sim: within {:.0}% of baseline", (REGRESSION_HEADROOM - 1.0) * 100.0);
        return;
    }

    let doc = Json::object()
        .field("tool", "bench_sim")
        .field("note", "host wall-clock measurements; not deterministic, kept out of results/")
        .field("jobs", jobs as u64)
        .field(
            "micro",
            Json::object()
                .field("des_delay_events_per_sec", delay_eps)
                .field("des_delay_events", delay_events)
                .field("des_pingpong_events_per_sec", ping_eps)
                .field("des_pingpong_events", ping_events)
                .field("des_spawn_1m_processes_events_per_sec", spawn_eps)
                .field("des_spawn_1m_processes_events", spawn_events)
                .field("des_spawn_1m_processes_peak_rss_delta_bytes", spawn_rss)
                .field("graph_add_task_per_sec", graph_tps)
                .field("graph_tasks", graph_tasks),
        )
        .field("macro", Json::object().field("figures", figures).field("total_wall_s", total))
        .field("speedup_vs_previous", speedup);
    std::fs::write(&path, doc.to_pretty_string() + "\n")
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    println!("wrote {}", path.display());
}
