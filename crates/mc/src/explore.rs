//! Stateless DFS over the executor's schedule space.
//!
//! Each execution is re-run from the start under a
//! [`RecordingController`] that replays a prescribed prefix of
//! tie-break choices and records everything past it. The explorer
//! keeps one [`Frame`] per choice point on the current path and
//! backtracks depth-first, pruning with sleep sets: a candidate whose
//! process appears in a frame's sleep set starts an interleaving
//! provably equivalent (by the step-footprint independence relation,
//! [`StepFootprint::independent`]) to one already explored, so it is
//! skipped. Depth and preemption bounds keep the search finite on real
//! programs; every executed interleaving is distinct.
//!
//! Four oracles judge every execution:
//!
//! 1. **Determinism** — the run's output fingerprint must be
//!    byte-identical to the first interleaving's.
//! 2. **Deadlock freedom** — [`RunError::Deadlock`] surfaces with the
//!    per-process blocked-state dump.
//! 3. **Executor invariants** — validation mode makes the kernel check
//!    epoch/pending-wake bookkeeping on every dispatch
//!    ([`RunError::InvariantViolation`]).
//! 4. **Clause conformance** — `ompss-verify` findings from the run's
//!    evidence ride along in [`RunOutcome::findings`].
//!
//! Any finding carries the interleaving's *trace* — the comma-joined
//! choice indexes — which [`replay`] turns back into the failing run.

use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

use ompss_sim::{install_tie_break, RunError, StepFootprint};
use ompss_verify::{Finding, FindingKind};

use crate::controller::{ChoiceRecord, RecordingController};

/// What one execution produced, as far as the oracles care.
#[derive(Debug, Clone, Default)]
pub struct RunOutcome {
    /// Output fingerprint ([`crate::fingerprint`]): identical across
    /// interleavings for a schedule-deterministic program.
    pub fingerprint: u64,
    /// `ompss-verify` findings from this run's evidence (empty when the
    /// runner does not collect verification data).
    pub findings: Vec<Finding>,
}

/// Exploration bounds and switches.
#[derive(Debug, Clone)]
pub struct McConfig {
    /// Only the first `depth` choice points branch; deeper ones always
    /// take the default order.
    pub depth: usize,
    /// Maximum number of non-default choices per interleaving.
    pub preemptions: usize,
    /// Stop after this many executed interleavings.
    pub max_interleavings: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig { depth: 64, preemptions: 2, max_interleavings: 2000 }
    }
}

/// What an exploration found.
#[derive(Debug, Clone, Default)]
pub struct McReport {
    /// Distinct interleavings executed.
    pub interleavings: u64,
    /// True when the bounded schedule space was exhausted (false when
    /// `max_interleavings` cut the search short).
    pub exhausted: bool,
    /// Deepest choice point observed.
    pub max_choice_depth: usize,
    /// Deduplicated findings across all interleavings, each message
    /// ending in `[trace: ...]` for replay.
    pub findings: Vec<Finding>,
    /// The first interleaving's fingerprint.
    pub fingerprint: Option<u64>,
}

/// One choice point on the current DFS path.
struct Frame {
    candidates: Vec<ompss_sim::Pid>,
    /// Candidate index the current path takes here.
    current: usize,
    /// Footprint of the step `current` dispatched (from the latest run
    /// through this frame); retired into `explored` on backtrack.
    chosen_fp: Option<StepFootprint>,
    /// Candidates fully explored at this frame, with their footprints —
    /// the source of children's sleep sets.
    explored: Vec<(ompss_sim::Pid, StepFootprint)>,
    /// Inherited sleep set: processes whose step here commutes with
    /// every step since an already-explored sibling branch, so choosing
    /// them would replay an explored equivalence class.
    sleep: Vec<(ompss_sim::Pid, StepFootprint)>,
}

/// Render a choice stack as a replayable trace string.
pub fn trace_string(choices: &[usize]) -> String {
    if choices.is_empty() {
        "default".to_string()
    } else {
        choices.iter().map(|c| c.to_string()).collect::<Vec<_>>().join(",")
    }
}

/// Parse a [`trace_string`] back into a choice stack.
pub fn parse_trace(s: &str) -> Result<Vec<usize>, String> {
    if s.is_empty() || s == "default" {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|p| p.trim().parse::<usize>().map_err(|e| format!("bad trace element '{p}': {e}")))
        .collect()
}

/// Run `run` once under the prescribed `trace` (with validation on)
/// and return its outcome — the counterexample replay path.
pub fn replay<R>(trace: &[usize], run: R) -> Result<RunOutcome, RunError>
where
    R: FnOnce() -> Result<RunOutcome, RunError>,
{
    let ctl = Rc::new(RefCell::new(RecordingController::new(trace.to_vec())));
    install_tie_break(ctl, true);
    run()
}

/// Explore the schedule space of `run` under `cfg`'s bounds.
///
/// `run` must construct its simulation *internally* (the tie-break
/// controller arms the thread's next `Sim::new`), be deterministic for
/// a fixed choice sequence, and return the oracle payload.
/// `target` names the program in findings.
pub fn explore<R>(target: &str, cfg: &McConfig, run: R) -> McReport
where
    R: Fn() -> Result<RunOutcome, RunError>,
{
    let mut frames: Vec<Frame> = Vec::new();
    let mut report = McReport::default();
    // Dedup key: the finding message before the trace suffix — the
    // same root cause found under many interleavings reports once,
    // with the first trace that exposed it.
    let mut seen: HashSet<String> = HashSet::new();
    let mut hidden_nondet = false;

    loop {
        if report.interleavings >= cfg.max_interleavings {
            break;
        }
        let prescribed: Vec<usize> = frames.iter().map(|f| f.current).collect();
        let trace = trace_string(&prescribed);
        let ctl = Rc::new(RefCell::new(RecordingController::new(prescribed)));
        install_tie_break(ctl.clone(), true);
        let outcome = run();
        report.interleavings += 1;
        let rec = Rc::try_unwrap(ctl)
            .unwrap_or_else(|_| panic!("run retained the tie-break controller"))
            .into_inner();
        report.max_choice_depth = report.max_choice_depth.max(rec.choices.len());

        judge(target, &trace, &outcome, &mut report, &mut seen);
        if let Some(why) = &rec.diverged {
            hidden_nondet = true;
            push_unique(
                &mut report,
                &mut seen,
                FindingKind::ExecutorInvariant,
                format!("{target} is not replay-deterministic: {why}"),
                &trace,
            );
        }

        // Fold the recorded run back into the frame stack: sanity-check
        // replayed frames, refresh chosen footprints, and grow new
        // frames (with inherited sleep sets) past the old depth.
        for i in 0..rec.choices.len() {
            if i < frames.len() {
                if frames[i].candidates != rec.choices[i].candidates && !hidden_nondet {
                    hidden_nondet = true;
                    push_unique(
                        &mut report,
                        &mut seen,
                        FindingKind::ExecutorInvariant,
                        format!(
                            "{target} is not replay-deterministic: choice {i} saw candidates \
                             {:?}, previously {:?}",
                            rec.choices[i].candidates, frames[i].candidates
                        ),
                        &trace,
                    );
                }
            } else {
                frames.push(new_frame(&frames, &rec.choices[i], &rec.segments[i]));
            }
            frames[i].chosen_fp = rec.segments[i + 1].first().cloned();
        }
        if hidden_nondet {
            // Backtracking assumes candidate sets replay identically;
            // without that the trace bookkeeping is meaningless.
            break;
        }
        frames.truncate(rec.choices.len());

        // Depth-first backtrack: retire the deepest frame's current
        // candidate and advance to its next non-sleeping sibling, under
        // the depth and preemption bounds.
        let mut advanced = false;
        while let Some(i) = frames.len().checked_sub(1) {
            let f = &mut frames[i];
            let pid = f.candidates[f.current];
            let fp = f.chosen_fp.take().unwrap_or_default();
            f.explored.push((pid, fp));
            if i >= cfg.depth {
                frames.pop();
                continue;
            }
            let mut nxt = f.current + 1;
            while nxt < f.candidates.len() && f.sleep.iter().any(|(p, _)| *p == f.candidates[nxt]) {
                nxt += 1; // asleep: an explored class covers it
            }
            let preemptions = frames[..i].iter().filter(|g| g.current != 0).count() + 1;
            if nxt < frames[i].candidates.len() && preemptions <= cfg.preemptions {
                frames[i].current = nxt;
                frames.truncate(i + 1);
                advanced = true;
                break;
            }
            frames.pop();
        }
        if !advanced {
            report.exhausted = true;
            break;
        }
    }
    report
}

/// Build the frame for a newly-reached choice point: its sleep set is
/// the parent's sleep ∪ explored entries that commute with every step
/// taken between the parent's dispatch and this choice.
fn new_frame(frames: &[Frame], choice: &ChoiceRecord, segment: &[StepFootprint]) -> Frame {
    let sleep = match frames.last() {
        None => Vec::new(),
        Some(parent) => parent
            .sleep
            .iter()
            .chain(parent.explored.iter())
            .filter(|(_, fp)| segment.iter().all(|s| fp.independent(s)))
            .cloned()
            .collect(),
    };
    Frame {
        candidates: choice.candidates.clone(),
        current: choice.chosen,
        chosen_fp: None,
        explored: Vec::new(),
        sleep,
    }
}

/// Apply the four oracles to one execution's outcome.
fn judge(
    target: &str,
    trace: &str,
    outcome: &Result<RunOutcome, RunError>,
    report: &mut McReport,
    seen: &mut HashSet<String>,
) {
    match outcome {
        Ok(out) => {
            match report.fingerprint {
                None => report.fingerprint = Some(out.fingerprint),
                Some(base) if base != out.fingerprint => push_unique(
                    report,
                    seen,
                    FindingKind::ScheduleNondeterminism,
                    format!(
                        "{target} produced fingerprint {:#018x} under a legal reordering, \
                         {base:#018x} under the default order",
                        out.fingerprint
                    ),
                    trace,
                ),
                Some(_) => {}
            }
            for f in &out.findings {
                push_unique(report, seen, f.kind, format!("{target}: {}", f.message), trace);
            }
        }
        Err(RunError::Deadlock { blocked }) => {
            let stuck: Vec<String> =
                blocked.iter().map(|p| format!("pid {} '{}' {}", p.pid, p.name, p.phase)).collect();
            push_unique(
                report,
                seen,
                FindingKind::Deadlock,
                format!("{target} deadlocked; blocked: {}", stuck.join(", ")),
                trace,
            );
        }
        Err(RunError::InvariantViolation { what }) => push_unique(
            report,
            seen,
            FindingKind::ExecutorInvariant,
            format!("{target} broke an executor invariant: {what}"),
            trace,
        ),
        Err(other) => push_unique(
            report,
            seen,
            FindingKind::Deadlock,
            format!("{target} crashed: {other}"),
            trace,
        ),
    }
}

fn push_unique(
    report: &mut McReport,
    seen: &mut HashSet<String>,
    kind: FindingKind,
    message: String,
    trace: &str,
) {
    if seen.insert(message.clone()) {
        report.findings.push(Finding {
            kind,
            task: None,
            label: String::new(),
            region: None,
            message: format!("{message} [trace: {trace}]"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompss_sim::{mc_touch, Sim, SimDuration};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn cfg() -> McConfig {
        McConfig { depth: 64, preemptions: 16, max_interleavings: 10_000 }
    }

    /// Three processes, pairwise independent (disjoint footprints):
    /// sleep sets prune part of the 3! = 6 orders.
    #[test]
    fn independent_processes_are_pruned() {
        let rep = explore("indep", &cfg(), || {
            let sim = Sim::new();
            for i in 0..3u64 {
                sim.spawn(("p", i), async move {});
            }
            sim.run().map(|_| RunOutcome::default())
        });
        assert!(rep.exhausted);
        assert!(rep.findings.is_empty(), "{:?}", rep.findings);
        assert_eq!(rep.interleavings, 5, "one commuting order should be slept away");
    }

    /// Three processes all touching the same resource: fully dependent,
    /// so every order is distinct — all 6 run.
    #[test]
    fn dependent_processes_explore_full_factorial() {
        let rep = explore("dep", &cfg(), || {
            let sim = Sim::new();
            for i in 0..3u64 {
                sim.spawn(("p", i), async move {
                    mc_touch(99);
                });
            }
            sim.run().map(|_| RunOutcome::default())
        });
        assert!(rep.exhausted);
        assert_eq!(rep.interleavings, 6);
        assert_eq!(rep.max_choice_depth, 2);
    }

    /// An order-dependent program (fingerprint = which process ran
    /// first): the determinism oracle reports the divergence with a
    /// replayable non-default trace.
    #[test]
    fn order_dependent_result_is_caught_and_replayable() {
        let first = Arc::new(AtomicU64::new(0));
        let harness = {
            let first = first.clone();
            move || {
                first.store(0, Ordering::SeqCst);
                let sim = Sim::new();
                for i in 1..=2u64 {
                    let first = first.clone();
                    sim.spawn(("w", i), async move {
                        mc_touch(1);
                        let _ = first.compare_exchange(0, i, Ordering::SeqCst, Ordering::SeqCst);
                    });
                }
                let r = sim.run();
                let fp = first.load(Ordering::SeqCst);
                r.map(|_| RunOutcome { fingerprint: fp, findings: Vec::new() })
            }
        };
        let rep = explore("ordered", &cfg(), harness.clone());
        assert_eq!(rep.interleavings, 2);
        let f = rep
            .findings
            .iter()
            .find(|f| f.kind == FindingKind::ScheduleNondeterminism)
            .expect("fingerprint divergence found");
        assert!(f.message.contains("[trace: 1]"), "{}", f.message);
        // Replay the counterexample trace and confirm it reproduces.
        let trace = parse_trace("1").unwrap();
        let out = replay(&trace, harness).unwrap();
        assert_eq!(out.fingerprint, 2, "trace 1 dispatches w2 first");
    }

    /// A lost-wakeup-shaped deadlock that only exists in the swapped
    /// order — a bell rung before the waiter parks wakes nobody. The
    /// deadlock oracle reports the blocked process and the trace.
    #[test]
    fn order_dependent_deadlock_is_found_with_trace() {
        let rep = explore("handshake", &cfg(), || {
            let sim = Sim::new();
            let bell = ompss_sim::Bell::new();
            let bell2 = bell.clone();
            sim.spawn("waiter", async move {
                ompss_sim::delay(SimDuration::from_nanos(10)).await?;
                bell2.wait().await
            });
            sim.spawn("setter", async move {
                ompss_sim::delay(SimDuration::from_nanos(10)).await?;
                bell.ring();
                Ok(())
            });
            sim.run().map(|_| RunOutcome::default())
        });
        let f =
            rep.findings.iter().find(|f| f.kind == FindingKind::Deadlock).expect("deadlock found");
        assert!(f.message.contains("'waiter' blocked"), "{}", f.message);
        assert!(f.message.contains("[trace:"), "{}", f.message);
    }

    #[test]
    fn max_interleavings_bounds_the_search() {
        let cfg = McConfig { depth: 64, preemptions: 16, max_interleavings: 3 };
        let rep = explore("bounded", &cfg, || {
            let sim = Sim::new();
            for i in 0..4u64 {
                sim.spawn(("p", i), async move {
                    mc_touch(5);
                });
            }
            sim.run().map(|_| RunOutcome::default())
        });
        assert_eq!(rep.interleavings, 3);
        assert!(!rep.exhausted);
    }

    #[test]
    fn preemption_bound_limits_divergence_from_default() {
        // With 0 preemptions only the default order runs.
        let cfg = McConfig { depth: 64, preemptions: 0, max_interleavings: 100 };
        let rep = explore("preempt0", &cfg, || {
            let sim = Sim::new();
            for i in 0..3u64 {
                sim.spawn(("p", i), async move {
                    mc_touch(5);
                });
            }
            sim.run().map(|_| RunOutcome::default())
        });
        assert_eq!(rep.interleavings, 1);
        assert!(rep.exhausted);
    }

    #[test]
    fn trace_round_trip() {
        assert_eq!(trace_string(&[]), "default");
        assert_eq!(parse_trace("default").unwrap(), Vec::<usize>::new());
        assert_eq!(parse_trace("0,3,1").unwrap(), vec![0, 3, 1]);
        assert_eq!(trace_string(&[0, 3, 1]), "0,3,1");
        assert!(parse_trace("0,x").is_err());
    }
}
