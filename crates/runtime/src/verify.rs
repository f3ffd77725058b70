//! Access observation for verification mode ([`RuntimeConfig::verify`]).
//!
//! When verification is on and the machine carries real bytes, every
//! task body execution is observed two ways:
//!
//! * **Byte diffing** — the body's views are snapshotted before the
//!   call and diffed after it. Any changed byte range becomes an
//!   observed *write* over the corresponding sub-region of the clause
//!   that mapped the view. Diffing catches writes no matter how the
//!   body is written, but cannot see reads and misses writes that
//!   happen to store the value already present.
//! * **Explicit recording** — instrumented bodies (the shipped apps in
//!   verify builds) call [`ompss_mem::track::record_read`] /
//!   [`record_write`](ompss_mem::track::record_write) with the regions
//!   their kernels actually touch. The tracker is installed on the
//!   executing thread around the body call — including inside a
//!   simulated GPU stream's effect — so recordings land on the right
//!   task.
//!
//! The merged observations accumulate in a [`VerifySink`]; when the run
//! ends they are packaged — together with the graph's submission-time
//! lints and a post-hoc race analysis over the observed accesses —
//! into [`VerifyData`] on the [`RunReport`](crate::RunReport). The
//! `ompss-verify` crate turns that into findings; this module only
//! gathers evidence.
//!
//! [`RuntimeConfig::verify`]: crate::RuntimeConfig::verify

use std::cell::RefCell;

use ompss_core::{GraphLint, TaskId};
use ompss_mem::{track, Access, AllocId, MemoryManager, Region, SpaceId};

use crate::task::TaskBody;

/// The observed memory behaviour of one executed task body.
#[derive(Debug, Clone)]
pub struct TaskAccess {
    /// The task that ran.
    pub task: TaskId,
    /// Its label (kernel name).
    pub label: String,
    /// The clauses it declared, in body-view order.
    pub declared: Vec<Access>,
    /// Regions the body was observed to read (explicit recordings
    /// only — byte diffing cannot see reads).
    pub reads: Vec<Region>,
    /// Regions the body was observed to write (byte diffs plus
    /// explicit recordings), deduplicated.
    pub writes: Vec<Region>,
}

/// Everything verification mode gathered during a run, attached to
/// [`RunReport::verify`](crate::RunReport::verify).
#[derive(Debug, Clone, Default)]
pub struct VerifyData {
    /// Per-task observations, in completion order.
    pub tasks: Vec<TaskAccess>,
    /// Lints the task graph raised at submission time (dead writes).
    pub lints: Vec<GraphLint>,
    /// Races found by checking every pair of observed accesses against
    /// the graph's happens-before relation.
    pub races: Vec<GraphLint>,
    /// True when the run used phantom backing: bodies were skipped, so
    /// `tasks` is empty by construction and only `lints` carry signal.
    pub phantom: bool,
}

/// Run-wide collector of task observations. One per runtime instance;
/// shared by every worker and GPU-stream process.
pub(crate) struct VerifySink {
    tasks: RefCell<Vec<TaskAccess>>,
}

impl VerifySink {
    pub(crate) fn new() -> Self {
        VerifySink { tasks: RefCell::default() }
    }

    pub(crate) fn take(&self) -> Vec<TaskAccess> {
        self.tasks.take()
    }

    /// Execute `body` over the mapped views with observation: snapshot,
    /// install the thread-local tracker, diff, merge, record.
    pub(crate) fn run_observed(
        &self,
        mem: &MemoryManager,
        task: TaskId,
        label: &str,
        declared: &[Access],
        requests: &[(SpaceId, AllocId, u64, u64)],
        body: &TaskBody,
    ) {
        let declared = declared.to_vec();
        let observed = mem.with_bytes_many(requests, |views| {
            let before: Vec<Vec<u8>> = views.iter().map(|v| v.to_vec()).collect();
            track::begin();
            body(views);
            let tracked = track::take().unwrap_or_default();
            let mut reads = tracked.reads;
            let mut writes = tracked.writes;
            for (i, view) in views.iter().enumerate() {
                if let Some(w) = diff_region(&declared[i].region, &before[i], view) {
                    writes.push(w);
                }
            }
            reads.sort();
            reads.dedup();
            writes.sort();
            writes.dedup();
            (reads, writes)
        });
        let Some((reads, writes)) = observed else { return };
        self.tasks.borrow_mut().push(TaskAccess {
            task,
            label: label.to_string(),
            declared,
            reads,
            writes,
        });
    }

    /// Flatten the observations into the `(task, region, is_write)`
    /// triples [`TaskGraph::races`](ompss_core::TaskGraph::races) takes.
    pub(crate) fn observations(tasks: &[TaskAccess]) -> Vec<(TaskId, Region, bool)> {
        let mut out = Vec::new();
        for t in tasks {
            for &r in &t.reads {
                out.push((t.task, r, false));
            }
            for &w in &t.writes {
                out.push((t.task, w, true));
            }
        }
        out
    }
}

/// The smallest sub-region of `declared` covering every byte that
/// differs between `before` and `after`, or `None` if nothing changed.
fn diff_region(declared: &Region, before: &[u8], after: &[u8]) -> Option<Region> {
    let first = before.iter().zip(after).position(|(b, a)| b != a)?;
    let last = before
        .iter()
        .zip(after)
        .rposition(|(b, a)| b != a)
        .expect("a first differing byte implies a last");
    Some(Region {
        data: declared.data,
        offset: declared.offset + first as u64,
        len: (last - first + 1) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompss_mem::DataId;

    fn r(offset: u64, len: u64) -> Region {
        Region::new(DataId(1), offset, len)
    }

    #[test]
    fn diff_finds_tight_changed_span() {
        let declared = r(8, 8);
        let before = [0u8; 8];
        let mut after = [0u8; 8];
        after[2] = 1;
        after[5] = 7;
        assert_eq!(diff_region(&declared, &before, &after), Some(r(10, 4)));
    }

    #[test]
    fn diff_of_identical_bytes_is_none() {
        assert_eq!(diff_region(&r(0, 4), &[3; 4], &[3; 4]), None);
    }

    #[test]
    fn diff_single_byte() {
        let before = [0u8, 0, 0];
        let after = [0u8, 9, 0];
        assert_eq!(diff_region(&r(0, 3), &before, &after), Some(r(1, 1)));
    }
}
