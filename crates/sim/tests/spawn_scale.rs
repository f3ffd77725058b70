//! Memory footprint of a simulated process at cluster scale. Alone in
//! its test binary, so no other test's allocations reach the peak RSS
//! it reads.

/// Trivial processes spawned: a stand-in for the thousand-node ×
/// multi-GPU worker/manager/pump population.
const SPAWN_PROCESSES: u64 = 1_000_000;

/// Peak-RSS growth allowed while they run: ~512 bytes of heap per
/// in-flight process, with slack for the run queue and allocator
/// overhead. A thread-per-process design (8 MiB stacks) would need
/// terabytes.
const SPAWN_RSS_BOUND_BYTES: u64 = 512 << 20;

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

/// One million processes (spawn, one yield, exit) stay within the
/// peak-RSS bound: each process is one small heap object. Ignored by
/// default because debug builds take minutes; `./ci.sh scale` runs it
/// in release.
#[test]
#[ignore = "release-scale check; run via ./ci.sh scale or --release -- --ignored"]
fn million_stackless_processes_fit_the_rss_bound() {
    let rss_before = peak_rss_bytes();
    let sim = ompss_sim::Sim::new();
    sim.spawn("spawner", async {
        for i in 0..SPAWN_PROCESSES {
            ompss_sim::spawn(("p", i), async {
                ompss_sim::yield_now().await.unwrap();
            });
        }
    });
    let rep = sim.run().expect("a million trivial processes complete");
    assert_eq!(rep.processes as u64, SPAWN_PROCESSES + 1);
    let rss_delta = peak_rss_bytes().saturating_sub(rss_before);
    assert!(
        rss_delta < SPAWN_RSS_BOUND_BYTES,
        "1M stackless processes grew peak RSS by {} MiB (bound {} MiB); \
         a process stopped being one small heap object",
        rss_delta >> 20,
        SPAWN_RSS_BOUND_BYTES >> 20,
    );
}
