//! # ompss-verify — clause/dependence race detector
//!
//! The runtime's verification mode
//! ([`ompss_runtime::RuntimeConfig::verify`]) gathers evidence: the
//! regions every task body actually read and wrote (byte diffing plus
//! instrumented recordings), the task graph's submission-time lints,
//! and a happens-before race analysis over the observations. This crate turns that evidence into [`Finding`]s a
//! programmer can act on:
//!
//! * **Clause conformance** — every observed access is checked against
//!   the task's declared `input`/`output`/`inout` clauses: undeclared
//!   reads, undeclared writes, writes through an `input` clause, and
//!   accesses straying outside the declared region.
//! * **Races** — pairs of observed accesses with no ordering path in
//!   the dependence graph: concurrent writers and stale reads. A race
//!   *suppresses* the per-task undeclared findings for the same bytes,
//!   so each root cause surfaces exactly once.
//! * **Graph lints** — dead writes (a produced value overwritten
//!   before anything read it).
//!
//! The `verify` binary runs the shipped applications under small
//! multi-GPU and cluster configurations with verification on, applies
//! [`validate`], explores alternative schedules
//! ([`schedule`]), and emits a machine-readable JSON report; any
//! finding is a non-zero exit.

#![warn(missing_docs)]

pub mod schedule;

use std::fmt;

use ompss_core::{GraphLint, TaskId};
use ompss_json::{Json, ToJson};
use ompss_mem::Region;
use ompss_runtime::{RunReport, TaskAccess};

/// The kind of defect a [`Finding`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FindingKind {
    /// A task read bytes no `input`/`inout` clause declared.
    UndeclaredRead,
    /// A task wrote bytes no `output`/`inout` clause declared.
    UndeclaredWrite,
    /// A task wrote bytes it declared only as `input`.
    WriteThroughInput,
    /// An access overlapped a declared clause but strayed outside it.
    OutOfRegion,
    /// Two tasks wrote overlapping bytes with no ordering between them.
    ConcurrentWriters,
    /// A task read bytes another task wrote, unordered — the read may
    /// observe a stale or torn value.
    StaleRead,
    /// A produced value was overwritten before any task read it.
    DeadWrite,
    /// The program deadlocked or crashed under some schedule.
    Deadlock,
    /// Results differed across legal schedules.
    ScheduleNondeterminism,
    /// A cycle through dependence and wait edges: no legal schedule
    /// can order the involved tasks.
    WaitCycle,
    /// A wait blocks on a sentinel region no task ever produces.
    UnsatisfiableWait,
    /// A task can never become ready (its predecessors never complete).
    UnreachableTask,
    /// A clause declaration the graph builder rejected outright.
    UnsatisfiableClause,
    /// The executor broke one of its own invariants (epoch tracking,
    /// wake coalescing) during a run.
    ExecutorInvariant,
}

impl FindingKind {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            FindingKind::UndeclaredRead => "undeclared-read",
            FindingKind::UndeclaredWrite => "undeclared-write",
            FindingKind::WriteThroughInput => "write-through-input",
            FindingKind::OutOfRegion => "out-of-region",
            FindingKind::ConcurrentWriters => "concurrent-writers",
            FindingKind::StaleRead => "stale-read",
            FindingKind::DeadWrite => "dead-write",
            FindingKind::Deadlock => "deadlock",
            FindingKind::ScheduleNondeterminism => "schedule-nondeterminism",
            FindingKind::WaitCycle => "wait-cycle",
            FindingKind::UnsatisfiableWait => "unsatisfiable-wait",
            FindingKind::UnreachableTask => "unreachable-task",
            FindingKind::UnsatisfiableClause => "unsatisfiable-clause",
            FindingKind::ExecutorInvariant => "executor-invariant",
        }
    }
}

/// One verified defect, anchored to the task that exhibits it.
#[derive(Debug, Clone)]
pub struct Finding {
    /// What went wrong.
    pub kind: FindingKind,
    /// The primary task (the reader for races, the lost writer for
    /// dead writes), if the finding is task-scoped.
    pub task: Option<TaskId>,
    /// Label of the primary task (empty when unknown).
    pub label: String,
    /// The bytes involved, if region-scoped.
    pub region: Option<Region>,
    /// Human-readable diagnosis.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind.name(), self.message)
    }
}

impl ToJson for Finding {
    fn to_json(&self) -> Json {
        let mut j = Json::object().field("kind", self.kind.name());
        if let Some(t) = self.task {
            j.set("task", t.0);
        }
        j.set("label", self.label.as_str());
        if let Some(r) = self.region {
            j.set("region", r.to_string());
        }
        j.field("message", self.message.as_str())
    }
}

fn who(task: TaskId, label: &str) -> String {
    if label.is_empty() {
        format!("task {}", task.0)
    } else {
        format!("task {} '{label}'", task.0)
    }
}

/// Check one run's verification evidence; returns the findings, most
/// severe classes first (races, then clause conformance, then lints).
/// A report from a run without verification mode yields nothing.
pub fn validate(report: &RunReport) -> Vec<Finding> {
    let Some(v) = &report.verify else { return Vec::new() };
    let mut findings = Vec::new();

    // Races first: they both produce findings and suppress the
    // per-task undeclared findings covering the same bytes (the race
    // is the root cause; reporting the undeclared access again would
    // double-count it).
    let mut racy_writes: Vec<(TaskId, Region)> = Vec::new();
    let mut racy_reads: Vec<(TaskId, Region)> = Vec::new();
    for race in &v.races {
        match race {
            GraphLint::ConcurrentWrite { a, a_label, a_region, b, b_region, .. } => {
                racy_writes.push((*a, *a_region));
                racy_writes.push((*b, *b_region));
                findings.push(Finding {
                    kind: FindingKind::ConcurrentWriters,
                    task: Some(*a),
                    label: a_label.clone(),
                    region: Some(*a_region),
                    message: race.to_string(),
                });
            }
            GraphLint::UnorderedReadWrite { reader, reader_label, read, .. } => {
                racy_reads.push((*reader, *read));
                findings.push(Finding {
                    kind: FindingKind::StaleRead,
                    task: Some(*reader),
                    label: reader_label.clone(),
                    region: Some(*read),
                    message: race.to_string(),
                });
            }
            GraphLint::DeadWrite { .. } => {}
        }
    }

    for t in &v.tasks {
        findings.extend(conformance(t, &racy_writes, &racy_reads));
    }

    for lint in &v.lints {
        if let GraphLint::DeadWrite { region, writer, writer_label, .. } = lint {
            findings.push(Finding {
                kind: FindingKind::DeadWrite,
                task: Some(*writer),
                label: writer_label.clone(),
                region: Some(*region),
                message: lint.to_string(),
            });
        }
    }
    findings
}

/// Clause-conformance findings for one task's observations.
fn conformance(
    t: &TaskAccess,
    racy_writes: &[(TaskId, Region)],
    racy_reads: &[(TaskId, Region)],
) -> Vec<Finding> {
    let mut out = Vec::new();
    let suppressed = |list: &[(TaskId, Region)], r: &Region| {
        list.iter().any(|(id, s)| *id == t.task && s.overlaps(r))
    };
    for w in &t.writes {
        if let Some(d) = t.declared.iter().find(|d| d.region.contains(w)) {
            if !d.kind.writes() {
                out.push(Finding {
                    kind: FindingKind::WriteThroughInput,
                    task: Some(t.task),
                    label: t.label.clone(),
                    region: Some(*w),
                    message: format!(
                        "{} wrote {w} but declared {} only as input — \
                         successors ordered by that clause may run on stale data",
                        who(t.task, &t.label),
                        d.region
                    ),
                });
            }
        } else if let Some(d) = t.declared.iter().find(|d| d.region.overlaps(w)) {
            out.push(Finding {
                kind: FindingKind::OutOfRegion,
                task: Some(t.task),
                label: t.label.clone(),
                region: Some(*w),
                message: format!(
                    "{} wrote {w}, straying outside its declared region {}",
                    who(t.task, &t.label),
                    d.region
                ),
            });
        } else if !suppressed(racy_writes, w) {
            out.push(Finding {
                kind: FindingKind::UndeclaredWrite,
                task: Some(t.task),
                label: t.label.clone(),
                region: Some(*w),
                message: format!(
                    "{} wrote {w} without any output/inout clause covering it — \
                     the dependence graph cannot order this write",
                    who(t.task, &t.label)
                ),
            });
        }
    }
    for r in &t.reads {
        if let Some(d) = t.declared.iter().find(|d| d.region.contains(r)) {
            if !d.kind.reads() {
                out.push(Finding {
                    kind: FindingKind::UndeclaredRead,
                    task: Some(t.task),
                    label: t.label.clone(),
                    region: Some(*r),
                    message: format!(
                        "{} read {r} but declared {} only as output — \
                         the read is not ordered after the previous writer",
                        who(t.task, &t.label),
                        d.region
                    ),
                });
            }
        } else if let Some(d) = t.declared.iter().find(|d| d.region.overlaps(r)) {
            out.push(Finding {
                kind: FindingKind::OutOfRegion,
                task: Some(t.task),
                label: t.label.clone(),
                region: Some(*r),
                message: format!(
                    "{} read {r}, straying outside its declared region {}",
                    who(t.task, &t.label),
                    d.region
                ),
            });
        } else if !suppressed(racy_reads, r) {
            out.push(Finding {
                kind: FindingKind::UndeclaredRead,
                task: Some(t.task),
                label: t.label.clone(),
                region: Some(*r),
                message: format!(
                    "{} read {r} without any input/inout clause covering it — \
                     the dependence graph cannot order this read",
                    who(t.task, &t.label)
                ),
            });
        }
    }
    out
}

/// Serialise a set of findings (with context) as the verify report's
/// JSON shape: `{"target": ..., "findings": [...], "clean": bool}`.
pub fn report_json(target: &str, findings: &[Finding]) -> Json {
    let mut arr = Json::array();
    for f in findings {
        arr.push(f.to_json());
    }
    Json::object()
        .field("target", target)
        .field("clean", findings.is_empty())
        .field("findings", arr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompss_mem::{Access, DataId};
    use ompss_runtime::VerifyData;

    fn r(data: u64, offset: u64, len: u64) -> Region {
        Region::new(DataId(data), offset, len)
    }

    fn report_with(v: VerifyData) -> RunReport {
        // Only the `verify` field matters to `validate`; fabricate the
        // rest through a real (tiny) run to keep the struct honest.
        let mut rep =
            ompss_runtime::Runtime::run(ompss_runtime::RuntimeConfig::multi_gpu(1), |_omp| async {
            });
        rep.verify = Some(v);
        rep
    }

    fn obs(task: u64, label: &str, declared: Vec<Access>) -> TaskAccess {
        TaskAccess {
            task: TaskId(task),
            label: label.into(),
            declared,
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    #[test]
    fn clean_observation_yields_no_findings() {
        let mut t = obs(1, "gemm", vec![Access::input(r(1, 0, 8)), Access::inout(r(2, 0, 8))]);
        t.reads = vec![r(1, 0, 8), r(2, 0, 8)];
        t.writes = vec![r(2, 0, 8), r(2, 2, 3)];
        let rep = report_with(VerifyData { tasks: vec![t], ..Default::default() });
        assert!(validate(&rep).is_empty());
    }

    #[test]
    fn undeclared_write_is_flagged_once() {
        let mut t = obs(3, "rogue", vec![Access::input(r(1, 0, 8))]);
        t.writes = vec![r(2, 0, 8)];
        let rep = report_with(VerifyData { tasks: vec![t], ..Default::default() });
        let f = validate(&rep);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::UndeclaredWrite);
        assert_eq!(f[0].label, "rogue");
        assert!(f[0].message.contains("task 3 'rogue'"), "{}", f[0].message);
    }

    #[test]
    fn write_through_input_beats_undeclared() {
        let mut t = obs(4, "sneaky", vec![Access::input(r(1, 0, 16))]);
        t.writes = vec![r(1, 4, 4)];
        let rep = report_with(VerifyData { tasks: vec![t], ..Default::default() });
        let f = validate(&rep);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::WriteThroughInput);
    }

    #[test]
    fn out_of_region_access_is_distinguished() {
        let mut t = obs(5, "stray", vec![Access::output(r(1, 0, 8))]);
        t.writes = vec![r(1, 4, 8)]; // half in, half out
        let rep = report_with(VerifyData { tasks: vec![t], ..Default::default() });
        let f = validate(&rep);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].kind, FindingKind::OutOfRegion);
    }

    #[test]
    fn race_suppresses_matching_undeclared_findings() {
        let mut a = obs(1, "wa", vec![Access::input(r(9, 0, 8))]);
        a.writes = vec![r(3, 0, 8)];
        let mut b = obs(2, "wb", vec![Access::input(r(9, 8, 8))]);
        b.writes = vec![r(3, 0, 8)];
        let race = GraphLint::ConcurrentWrite {
            a: TaskId(1),
            a_label: "wa".into(),
            a_region: r(3, 0, 8),
            b: TaskId(2),
            b_label: "wb".into(),
            b_region: r(3, 0, 8),
        };
        let rep =
            report_with(VerifyData { tasks: vec![a, b], races: vec![race], ..Default::default() });
        let f = validate(&rep);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].kind, FindingKind::ConcurrentWriters);
    }

    #[test]
    fn json_report_shape() {
        let f = Finding {
            kind: FindingKind::DeadWrite,
            task: Some(TaskId(7)),
            label: "init".into(),
            region: Some(r(1, 0, 8)),
            message: "m".into(),
        };
        let j = report_json("stream/multi_gpu", &[f]);
        assert_eq!(j.get("clean"), Some(&Json::Bool(false)));
        assert_eq!(j.get("target"), Some(&Json::Str("stream/multi_gpu".into())));
        let Some(Json::Arr(items)) = j.get("findings") else { panic!("findings not an array") };
        assert_eq!(items[0].get("kind"), Some(&Json::Str("dead-write".into())));
        assert_eq!(items[0].get("region"), Some(&Json::Str("D1[0..8)".into())));
    }
}
