//! Seeded-defect corpus: prove the model checker catches each planted
//! bug class within a small exploration budget. Compiled only with
//! `RUSTFLAGS="--cfg mc_defects"` (which compiles the defects into
//! `ompss-sim` and the apps); each test arms exactly one defect on its
//! thread, runs the checker, and asserts the expected oracle fires
//! with a replayable trace.
#![cfg(mc_defects)]

use ompss_mc::{apps, explore, parse_trace, replay, McConfig, RunOutcome};
use ompss_sim::{defects, delay, Signal, Sim, SimDuration};
use ompss_verify::FindingKind;

/// Disarm on drop so a failing assertion cannot leak an armed defect
/// into another test on the same thread.
struct Armed;

impl Armed {
    fn new(which: &'static str) -> Self {
        defects::arm(which);
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        defects::disarm();
    }
}

fn budget(max: u64) -> McConfig {
    McConfig { depth: 64, preemptions: 8, max_interleavings: max }
}

/// Extract the `[trace: ...]` suffix the explorer appends to findings.
fn trace_of(message: &str) -> Vec<usize> {
    let start = message.rfind("[trace: ").expect("finding carries a trace") + "[trace: ".len();
    let end = message[start..].find(']').expect("trace is closed") + start;
    parse_trace(&message[start..end]).expect("trace parses")
}

/// "epoch": dispatch stops discarding stale (superseded) events, so a
/// timed-out waiter's dead deadline event resumes it spuriously. The
/// kernel-invariant oracle catches the stale dispatch directly.
#[test]
fn epoch_defect_trips_the_invariant_oracle() {
    let _armed = Armed::new("epoch");
    let harness = || {
        let sim = Sim::new();
        let sig = Signal::new();
        let sig2 = sig.clone();
        sim.spawn("waiter", async move {
            // Parks with a deadline event at t=100; the set at t=10
            // supersedes it, leaving a stale event in the heap.
            let got = sig2.wait_timeout(SimDuration::from_nanos(100)).await;
            assert!(got, "signal arrives before the deadline");
            // Stay parked past t=100 so the stale event finds a live
            // (but wrong-epoch) process to resume.
            delay(SimDuration::from_nanos(200)).await?;
            Ok(())
        });
        sim.spawn("setter", async move {
            delay(SimDuration::from_nanos(10)).await?;
            sig.set();
            Ok(())
        });
        sim.run().map(|_| RunOutcome::default())
    };
    let rep = explore("epoch-defect", &budget(16), harness);
    let f = rep
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::ExecutorInvariant)
        .unwrap_or_else(|| panic!("invariant oracle silent: {:?}", rep.findings));
    assert!(f.message.contains("stale event reached dispatch"), "{}", f.message);
}

/// "wakeup": `Signal::set` drops the set when no waiter is parked yet.
/// Only orderings where the setter outruns the waiter hang — the
/// deadlock oracle must find one and its trace must replay.
#[test]
fn wakeup_defect_is_found_with_a_replayable_trace() {
    let _armed = Armed::new("wakeup");
    let harness = || {
        let sim = Sim::new();
        let sig = Signal::new();
        let sig2 = sig.clone();
        sim.spawn("waiter", async move {
            delay(SimDuration::from_nanos(10)).await?;
            sig2.wait().await;
            Ok(())
        });
        sim.spawn("setter", async move {
            delay(SimDuration::from_nanos(10)).await?;
            sig.set();
            Ok(())
        });
        sim.run().map(|_| RunOutcome::default())
    };
    let rep = explore("wakeup-defect", &budget(16), harness);
    let f = rep
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::Deadlock)
        .unwrap_or_else(|| panic!("deadlock oracle silent: {:?}", rep.findings));
    assert!(f.message.contains("'waiter' blocked"), "{}", f.message);

    // The counterexample must reproduce under replay, and the default
    // order must stay clean (the bug needs the adversarial schedule).
    let trace = trace_of(&f.message);
    assert!(!trace.is_empty() && trace.iter().any(|&c| c != 0), "non-default trace: {trace:?}");
    let replayed = replay(&trace, harness);
    assert!(
        matches!(replayed, Err(ompss_sim::RunError::Deadlock { .. })),
        "replay reproduces the deadlock: {replayed:?}"
    );
    let default_run = replay(&[], harness);
    assert!(default_run.is_ok(), "default order hides the bug: {default_run:?}");
}

/// "stream": the STREAM `scale` task declares its read of `c` as an
/// output clause. The WAW edge keeps every schedule's results right,
/// so only the clause-conformance oracle can see the lie.
#[test]
fn stream_defect_is_caught_by_the_clause_oracle() {
    let _armed = Armed::new("stream");
    let rep = explore("stream-defect", &budget(8), || apps::run_once("stream", 2, true));
    let f = rep
        .findings
        .iter()
        .find(|f| f.kind == FindingKind::UndeclaredRead)
        .unwrap_or_else(|| panic!("clause oracle silent: {:?}", rep.findings));
    assert!(f.message.contains("scale"), "{}", f.message);
    assert!(f.message.contains("only as output"), "{}", f.message);
}
