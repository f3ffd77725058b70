//! The task dependency graph (paper §III-C1).
//!
//! Nanos++ maintains a DAG connecting sibling tasks by the dependence
//! kinds read-after-write, write-after-read and write-after-write,
//! derived from `input`/`output`/`inout` clauses over *exact-match*
//! regions. Tasks become *ready* when their predecessor count drains;
//! completing a task releases its successors. The OmpSs model only
//! relates siblings (tasks created by the same parent), so nested
//! parallelism uses one graph per parent — that is what lets the
//! cluster runtime distribute hierarchy cheaply.
//!
//! Partial region overlap is not supported (as in the paper's
//! implementation) and is *detected*: submitting a task whose clause
//! partially overlaps a previously-seen region is a model error, not
//! silent misbehaviour.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use ompss_mem::{Access, DataId, FxHashMap, Region};

use crate::task::TaskId;

/// Lifecycle of a task within the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskState {
    /// Waiting on predecessors.
    Pending,
    /// All predecessors completed; eligible for scheduling.
    Ready,
    /// Handed to a resource and executing.
    Running,
    /// Finished; successors released.
    Completed,
}

/// Errors detected at task submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A dependence clause partially overlaps a region already tracked
    /// for the same data object — undefined behaviour in the OmpSs
    /// model, rejected here. Boxed: the diagnostic payload is large
    /// and the `Ok` path pays for the biggest variant.
    PartialOverlap(Box<PartialOverlap>),
    /// The same task id was submitted twice.
    DuplicateTask(TaskId),
}

/// The payload of [`GraphError::PartialOverlap`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartialOverlap {
    /// The submitting task.
    pub task: TaskId,
    /// Label of the submitting task (empty if none was given).
    pub task_label: String,
    /// The newly-declared region.
    pub new: Region,
    /// The previously-tracked region it collides with.
    pub existing: Region,
    /// The task that declared `existing` most recently, if any
    /// (`None` when the collision is between two clauses of the
    /// submitting task itself).
    pub existing_task: Option<TaskId>,
    /// Label of `existing_task` (empty if unknown or unlabeled).
    pub existing_label: String,
    /// Suggested exact-match split: the union of both regions cut
    /// at every boundary. Declaring these sub-regions instead of
    /// `new`/`existing` keeps dependence matching exact.
    pub splits: Vec<Region>,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::PartialOverlap(o) => {
                let who = fmt_task(o.task, &o.task_label);
                let owner = match o.existing_task {
                    Some(t) => format!(" (declared by {})", fmt_task(t, &o.existing_label)),
                    None => " (declared by the same task)".to_string(),
                };
                let cut = o.splits.iter().map(|r| r.to_string()).collect::<Vec<_>>().join(", ");
                write!(
                    f,
                    "{who} declares region {} partially overlapping {}{owner}; \
                     partial overlap is unsupported (undefined behaviour in OmpSs) — \
                     split both clauses into exact tiles: {cut}",
                    o.new, o.existing
                )
            }
            GraphError::DuplicateTask(id) => write!(f, "task {id:?} submitted twice"),
        }
    }
}

fn fmt_task(id: TaskId, label: &str) -> String {
    if label.is_empty() {
        format!("task {}", id.0)
    } else {
        format!("task {} '{label}'", id.0)
    }
}

impl std::error::Error for GraphError {}

/// An advisory finding detected over the graph: not an error (the run
/// stays well-defined) but a strong smell the verify subsystem reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphLint {
    /// A region produced by `writer` was overwritten by a non-reading
    /// (`output`) clause of `overwriter` with no task reading it in
    /// between — the value never escaped (dead / never-released write).
    /// Host-side reads between taskwaits are not tracked here, so this
    /// is advisory.
    DeadWrite {
        /// The overwritten region.
        region: Region,
        /// The task whose write was lost.
        writer: TaskId,
        /// Label of `writer`.
        writer_label: String,
        /// The task that overwrote it without reading.
        overwriter: TaskId,
        /// Label of `overwriter`.
        overwriter_label: String,
    },
    /// Two tasks wrote overlapping bytes with no ordering path between
    /// them in either direction — a write/write race.
    ConcurrentWrite {
        /// First writer (lower id).
        a: TaskId,
        /// Label of `a`.
        a_label: String,
        /// Bytes written by `a`.
        a_region: Region,
        /// Second writer.
        b: TaskId,
        /// Label of `b`.
        b_label: String,
        /// Bytes written by `b`.
        b_region: Region,
    },
    /// A task read bytes another task wrote, with no ordering path
    /// between them — the reader may observe a stale (or torn) value.
    UnorderedReadWrite {
        /// The reading task.
        reader: TaskId,
        /// Label of `reader`.
        reader_label: String,
        /// Bytes read.
        read: Region,
        /// The writing task.
        writer: TaskId,
        /// Label of `writer`.
        writer_label: String,
        /// Bytes written.
        written: Region,
    },
}

impl fmt::Display for GraphLint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphLint::DeadWrite { region, writer, writer_label, overwriter, overwriter_label } => {
                write!(
                    f,
                    "dead write: {} produced {region} but {} overwrote it before any task read it",
                    fmt_task(*writer, writer_label),
                    fmt_task(*overwriter, overwriter_label)
                )
            }
            GraphLint::ConcurrentWrite { a, a_label, a_region, b, b_label, b_region } => write!(
                f,
                "concurrent writers: {} wrote {a_region} and {} wrote {b_region} \
                 with no ordering path between them",
                fmt_task(*a, a_label),
                fmt_task(*b, b_label)
            ),
            GraphLint::UnorderedReadWrite {
                reader,
                reader_label,
                read,
                writer,
                writer_label,
                written,
            } => write!(
                f,
                "stale read: {} read {read} while {} wrote {written} \
                 with no ordering path between them",
                fmt_task(*reader, reader_label),
                fmt_task(*writer, writer_label)
            ),
        }
    }
}

struct Node {
    preds: usize,
    succs: Vec<TaskId>,
    state: TaskState,
    /// Index of the task's label in [`Labels`].
    label: u32,
    /// Position in the global submit/complete sequence when submitted.
    seq: u64,
    /// Position in the sequence when completed, if completed.
    completed_seq: Option<u64>,
}

#[derive(Default)]
struct RegionState {
    last_writer: Option<TaskId>,
    readers: Vec<TaskId>,
    /// Most recent task to declare any clause on this exact region —
    /// used to name the owner in `PartialOverlap` diagnostics.
    declared_by: Option<TaskId>,
    /// Every writer of this region in submission order, retained only
    /// while lineage tracking is enabled and bounded by its depth. The
    /// exact-match dependence rules serialise writers of one region
    /// (WAW/RAW/WAR chaining), so position `k` in the *absolute* history
    /// is the producer of version `k + 1` — the fact the node-loss
    /// recovery path re-executes from.
    writers: Vec<TaskId>,
    /// Writers trimmed off the front of `writers` by the depth bound;
    /// `writers[i]` is absolute writer index `dropped + i`.
    dropped: u64,
}

/// Regions tracked for one datum, with the longest region length ever
/// declared on it. The bound lets partial-overlap validation scan only
/// keys in `(offset + 1 − max_len)..end` instead of every region below
/// `end` — O(candidates) instead of O(all prior regions) per access,
/// which keeps submission linear for tiled apps.
#[derive(Default)]
struct DataRegions {
    max_len: u64,
    map: BTreeMap<(u64, u64), RegionState>,
}

/// The distinct task labels, each stored once: a program submits
/// thousands of tasks under a handful of kernel names, so a node keeps
/// an index instead of its own copy of the string.
#[derive(Default)]
struct Labels {
    names: Vec<Box<str>>,
    ids: FxHashMap<Box<str>, u32>,
}

impl Labels {
    fn intern(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.ids.get(label) {
            return id;
        }
        let id = self.names.len() as u32;
        self.names.push(label.into());
        self.ids.insert(label.into(), id);
        id
    }

    fn name(&self, id: u32) -> &str {
        &self.names[id as usize]
    }
}

/// A single-level (sibling) task dependency graph.
#[derive(Default)]
pub struct TaskGraph {
    nodes: FxHashMap<TaskId, Node>,
    regions: FxHashMap<DataId, DataRegions>,
    labels: Labels,
    /// Reusable predecessor buffer of [`TaskGraph::add_task_labeled`]
    /// (always left empty between submissions).
    preds_scratch: Vec<TaskId>,
    live: usize,
    /// Logical clock over submit/complete events, backing the
    /// happens-before oracle (a completed-before-b-was-submitted is an
    /// ordering even though no edge was recorded).
    clock: u64,
    lints: Vec<GraphLint>,
    /// Per-region writer-history retention depth; `None` (the default)
    /// retains nothing — the zero-cost path when node-loss recovery is
    /// disarmed.
    lineage: Option<u32>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Submit a task with its dependence clauses. Returns `true` if the
    /// task is immediately ready (no outstanding predecessors).
    pub fn add_task(&mut self, id: TaskId, accesses: &[Access]) -> Result<bool, GraphError> {
        self.add_task_labeled(id, "", accesses)
    }

    /// [`TaskGraph::add_task`] with a human-readable task label, threaded
    /// into diagnostics and lints.
    pub fn add_task_labeled(
        &mut self,
        id: TaskId,
        label: &str,
        accesses: &[Access],
    ) -> Result<bool, GraphError> {
        if self.nodes.contains_key(&id) {
            return Err(GraphError::DuplicateTask(id));
        }
        // Validate against tracked regions and against the task's own
        // clauses before mutating any state.
        for (i, a) in accesses.iter().enumerate() {
            if let Some((existing, owner)) = self.find_partial_overlap(&a.region) {
                return Err(self.partial_overlap(id, label, a.region, existing, owner));
            }
            for b in &accesses[i + 1..] {
                if a.region.partially_overlaps(&b.region) {
                    return Err(self.partial_overlap(id, label, b.region, a.region, None));
                }
            }
        }

        // Every predecessor once: collected with repeats (a task may
        // read and write regions with the same last writer), then
        // sorted and deduplicated, so each gets exactly one edge.
        let mut preds = std::mem::take(&mut self.preds_scratch);
        let mut dead: Vec<(Region, TaskId)> = Vec::new();
        let lineage = self.lineage;
        for a in accesses {
            let dr = self.regions.entry(a.region.data).or_default();
            dr.max_len = dr.max_len.max(a.region.len);
            let st = dr.map.entry((a.region.offset, a.region.len)).or_default();
            if a.kind.reads() {
                if let Some(w) = st.last_writer {
                    if w != id {
                        preds.push(w);
                    }
                }
            }
            if a.kind.writes() {
                // A non-reading write that supersedes an unread write:
                // the previous value never escaped. Advisory lint.
                if !a.kind.reads() {
                    if let Some(w) = st.last_writer {
                        if st.readers.is_empty() && w != id {
                            dead.push((a.region, w));
                        }
                    }
                }
                // WAR on every reader since the last write, WAW on the
                // last writer (covers the no-reader case).
                preds.extend(st.readers.iter().copied().filter(|&r| r != id));
                if let Some(w) = st.last_writer {
                    if w != id {
                        preds.push(w);
                    }
                }
                st.last_writer = Some(id);
                st.readers.clear();
                if let Some(depth) = lineage {
                    st.writers.push(id);
                    let over = st.writers.len().saturating_sub(depth.max(1) as usize);
                    if over > 0 {
                        st.writers.drain(..over);
                        st.dropped += over as u64;
                    }
                }
            } else {
                // Pure reader.
                if !st.readers.contains(&id) {
                    st.readers.push(id);
                }
            }
            st.declared_by = Some(id);
        }
        for (region, w) in dead {
            self.lints.push(GraphLint::DeadWrite {
                region,
                writer: w,
                writer_label: self.label_of(w).to_string(),
                overwriter: id,
                overwriter_label: label.to_string(),
            });
        }

        // Count only predecessors that have not already completed.
        preds.sort_unstable();
        preds.dedup();
        let mut pred_count = 0;
        for &p in &preds {
            let pnode = self.nodes.get_mut(&p).expect("predecessor must exist");
            if pnode.state != TaskState::Completed {
                pnode.succs.push(id);
                pred_count += 1;
            }
        }
        preds.clear();
        self.preds_scratch = preds;

        let ready = pred_count == 0;
        self.clock += 1;
        self.nodes.insert(
            id,
            Node {
                preds: pred_count,
                succs: Vec::new(),
                state: if ready { TaskState::Ready } else { TaskState::Pending },
                label: self.labels.intern(label),
                seq: self.clock,
                completed_seq: None,
            },
        );
        self.live += 1;
        Ok(ready)
    }

    fn partial_overlap(
        &self,
        id: TaskId,
        label: &str,
        new: Region,
        existing: Region,
        owner: Option<TaskId>,
    ) -> GraphError {
        GraphError::PartialOverlap(Box::new(PartialOverlap {
            task: id,
            task_label: label.to_string(),
            new,
            existing,
            existing_task: owner,
            existing_label: owner.map(|t| self.label_of(t).to_string()).unwrap_or_default(),
            splits: suggest_splits(&new, &existing),
        }))
    }

    fn find_partial_overlap(&self, r: &Region) -> Option<(Region, Option<TaskId>)> {
        let dr = self.regions.get(&r.data)?;
        // A region (o, l) overlaps `r` only if o < r.end() and
        // o + l > r.offset; with l ≤ max_len that bounds o from below.
        let start = (r.offset + 1).saturating_sub(dr.max_len);
        for (&(offset, len), st) in dr.map.range((start, 0)..(r.end(), 0)) {
            let existing = Region { data: r.data, offset, len };
            if r.partially_overlaps(&existing) {
                return Some((existing, st.declared_by));
            }
        }
        None
    }

    fn label_of(&self, id: TaskId) -> &str {
        self.nodes.get(&id).map(|n| self.labels.name(n.label)).unwrap_or("")
    }

    /// Mark a ready task as running (handed to a resource).
    pub fn start(&mut self, id: TaskId) {
        let n = self.nodes.get_mut(&id).expect("unknown task");
        assert_eq!(n.state, TaskState::Ready, "start() on a task that is not ready");
        n.state = TaskState::Running;
    }

    /// Return a running task to the ready state without releasing its
    /// successors — its resource was lost before the task could finish,
    /// and the runtime is migrating it to a surviving resource, which
    /// will [`start`](TaskGraph::start) it again.
    pub fn reset_running(&mut self, id: TaskId) {
        let n = self.nodes.get_mut(&id).expect("unknown task");
        assert_eq!(n.state, TaskState::Running, "reset_running() on a task that is not running");
        n.state = TaskState::Ready;
    }

    /// Complete a task, releasing successors. Returns the tasks that
    /// became ready.
    pub fn complete(&mut self, id: TaskId) -> Vec<TaskId> {
        let mut newly_ready = Vec::new();
        self.complete_into(id, &mut newly_ready);
        newly_ready
    }

    /// [`TaskGraph::complete`] into a caller-supplied buffer (cleared
    /// first), so the per-completion allocation disappears from hot
    /// loops that complete many tasks with a reusable scratch vector.
    pub fn complete_into(&mut self, id: TaskId, newly_ready: &mut Vec<TaskId>) {
        newly_ready.clear();
        self.clock += 1;
        let clock = self.clock;
        let succs = {
            let n = self.nodes.get_mut(&id).expect("unknown task");
            assert_ne!(n.state, TaskState::Completed, "task completed twice");
            n.state = TaskState::Completed;
            n.completed_seq = Some(clock);
            // Edges move out and back below (not cloned) so the verify
            // subsystem can still query reachability after the run.
            // Nothing appends to a completed task's edge list, so the
            // round trip is invisible.
            std::mem::take(&mut n.succs)
        };
        self.live -= 1;
        for &s in &succs {
            let sn = self.nodes.get_mut(&s).expect("successor must exist");
            sn.preds -= 1;
            if sn.preds == 0 {
                sn.state = TaskState::Ready;
                newly_ready.push(s);
            }
        }
        self.nodes.get_mut(&id).expect("unknown task").succs = succs;
    }

    /// State of a task.
    pub fn state(&self, id: TaskId) -> TaskState {
        self.nodes.get(&id).expect("unknown task").state
    }

    /// Current successors of a task (direct dependents submitted so
    /// far), borrowed — no per-query allocation. The `dependencies`
    /// scheduler consults this to run a freed successor immediately.
    pub fn successors(&self, id: TaskId) -> &[TaskId] {
        self.nodes.get(&id).map(|n| n.succs.as_slice()).unwrap_or(&[])
    }

    /// Number of tasks not yet completed.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Tasks ever submitted.
    pub fn submitted(&self) -> usize {
        self.nodes.len()
    }

    /// The task that most recently declared a write on exactly `region`,
    /// if it has not completed. Used by `taskwait on(...)`.
    pub fn pending_writer(&self, region: &Region) -> Option<TaskId> {
        let st = self.regions.get(&region.data)?.map.get(&(region.offset, region.len))?;
        let w = st.last_writer?;
        if self.nodes.get(&w).map(|n| n.state) == Some(TaskState::Completed) {
            None
        } else {
            Some(w)
        }
    }

    /// Advisory lints accumulated at submission time (dead writes).
    pub fn lints(&self) -> &[GraphLint] {
        &self.lints
    }

    /// Introspection for ahead-of-run analysis (the `ompss-mc` static
    /// lints): every submitted task in submission order, with its label
    /// and the dependence successors recorded at submission time. Edges
    /// only exist toward tasks submitted while the predecessor was
    /// still live — completed-before-submission orderings are temporal,
    /// not edges (see [`TaskGraph::happens_before`]).
    pub fn tasks_snapshot(&self) -> Vec<(TaskId, &str, &[TaskId])> {
        let mut v: Vec<(&TaskId, &Node)> = self.nodes.iter().collect();
        v.sort_by_key(|(_, n)| n.seq);
        v.into_iter().map(|(id, n)| (*id, self.labels.name(n.label), n.succs.as_slice())).collect()
    }

    /// Retain up to `depth` writers per region for lineage-based
    /// reconstruction (node-loss recovery). Enable *before* submitting
    /// tasks — history is recorded at submission, not retroactively.
    pub fn enable_lineage(&mut self, depth: u32) {
        self.lineage = Some(depth);
    }

    /// The retained writer history of exactly `region`: the slice of
    /// retained writer ids plus the count of older writers trimmed by
    /// the depth bound. The producer of version `v` (versions are
    /// 1-based; version 0 is the pre-task home copy) is absolute writer
    /// index `v - 1`, i.e. `writers[v - 1 - dropped]` when retained.
    /// `None` when lineage is disabled or the region has no writers.
    pub fn writer_history(&self, region: &Region) -> Option<(&[TaskId], u64)> {
        self.lineage?;
        let st = self.regions.get(&region.data)?.map.get(&(region.offset, region.len))?;
        if st.writers.is_empty() && st.dropped == 0 {
            return None;
        }
        Some((&st.writers, st.dropped))
    }

    /// The label a task was submitted with (empty if unknown).
    pub fn task_label(&self, id: TaskId) -> &str {
        self.label_of(id)
    }

    /// Is `a` ordered before `b`? True when `a == b`, when `a` completed
    /// before `b` was submitted (temporal order — the graph records no
    /// edge for an already-completed predecessor), or when a dependence
    /// path `a → … → b` exists. Sound and complete over the orderings
    /// the runtime actually enforces: any enforced chain either consists
    /// purely of edges (found by the walk) or contains a
    /// completed-before-submitted link, in which case `a` itself
    /// completed before `b` was submitted.
    pub fn happens_before(&self, a: TaskId, b: TaskId) -> bool {
        if a == b {
            return true;
        }
        let (Some(na), Some(nb)) = (self.nodes.get(&a), self.nodes.get(&b)) else {
            return false;
        };
        if na.completed_seq.is_some_and(|ca| ca < nb.seq) {
            return true;
        }
        let mut stack = vec![a];
        let mut seen = HashSet::new();
        while let Some(x) = stack.pop() {
            if x == b {
                return true;
            }
            if !seen.insert(x) {
                continue;
            }
            if let Some(n) = self.nodes.get(&x) {
                stack.extend(n.succs.iter().copied());
            }
        }
        false
    }

    /// Race detection over *observed* accesses `(task, region, is_write)`
    /// — typically the regions task bodies actually touched, as recorded
    /// by the verify subsystem's access-tracking mode. Declared clauses
    /// never race (the graph orders them by construction), so this is
    /// where mis-declared clauses surface: any overlapping pair with at
    /// least one write and no ordering path in either direction is a
    /// race. One lint per unordered task pair and kind.
    pub fn races(&self, observed: &[(TaskId, Region, bool)]) -> Vec<GraphLint> {
        let mut out = Vec::new();
        let mut reported: HashSet<(TaskId, TaskId, bool)> = HashSet::new();
        for (i, &(ta, ra, wa)) in observed.iter().enumerate() {
            for &(tb, rb, wb) in &observed[i + 1..] {
                if ta == tb || (!wa && !wb) || !ra.overlaps(&rb) {
                    continue;
                }
                if self.happens_before(ta, tb) || self.happens_before(tb, ta) {
                    continue;
                }
                let (lo, hi) = if ta.0 <= tb.0 { (ta, tb) } else { (tb, ta) };
                let both_write = wa && wb;
                if !reported.insert((lo, hi, both_write)) {
                    continue;
                }
                if both_write {
                    let ((a, a_region), (b, b_region)) =
                        if ta.0 <= tb.0 { ((ta, ra), (tb, rb)) } else { ((tb, rb), (ta, ra)) };
                    out.push(GraphLint::ConcurrentWrite {
                        a,
                        a_label: self.label_of(a).to_string(),
                        a_region,
                        b,
                        b_label: self.label_of(b).to_string(),
                        b_region,
                    });
                } else {
                    let ((reader, read), (writer, written)) =
                        if wa { ((tb, rb), (ta, ra)) } else { ((ta, ra), (tb, rb)) };
                    out.push(GraphLint::UnorderedReadWrite {
                        reader,
                        reader_label: self.label_of(reader).to_string(),
                        read,
                        writer,
                        writer_label: self.label_of(writer).to_string(),
                        written,
                    });
                }
            }
        }
        out
    }
}

/// Cut the union of two partially-overlapping regions at every start/end
/// boundary, yielding the exact-match tiles a correct decomposition
/// would use.
fn suggest_splits(a: &Region, b: &Region) -> Vec<Region> {
    debug_assert_eq!(a.data, b.data);
    let mut cuts = [a.offset, a.end(), b.offset, b.end()];
    cuts.sort_unstable();
    let mut out = Vec::new();
    for w in cuts.windows(2) {
        if w[1] > w[0] {
            out.push(Region { data: a.data, offset: w[0], len: w[1] - w[0] });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::AccessExt;

    fn r(data: u64, offset: u64, len: u64) -> Region {
        Region::new(DataId(data), offset, len)
    }

    fn t(n: u64) -> TaskId {
        TaskId(n)
    }

    #[test]
    fn independent_tasks_are_immediately_ready() {
        let mut g = TaskGraph::new();
        assert!(g.add_task(t(1), &[Access::write(r(1, 0, 8))]).unwrap());
        assert!(g.add_task(t(2), &[Access::write(r(1, 8, 8))]).unwrap());
        assert_eq!(g.live(), 2);
    }

    #[test]
    fn raw_chain_serialises() {
        let mut g = TaskGraph::new();
        assert!(g.add_task(t(1), &[Access::write(r(1, 0, 8))]).unwrap());
        assert!(!g.add_task(t(2), &[Access::read(r(1, 0, 8))]).unwrap());
        assert_eq!(g.state(t(2)), TaskState::Pending);
        let ready = g.complete(t(1));
        assert_eq!(ready, vec![t(2)]);
        assert_eq!(g.state(t(2)), TaskState::Ready);
    }

    #[test]
    fn multiple_readers_run_concurrently_then_war() {
        let mut g = TaskGraph::new();
        g.add_task(t(1), &[Access::write(r(1, 0, 8))]).unwrap();
        assert!(!g.add_task(t(2), &[Access::read(r(1, 0, 8))]).unwrap());
        assert!(!g.add_task(t(3), &[Access::read(r(1, 0, 8))]).unwrap());
        // Writer after the readers: WAR on both.
        assert!(!g.add_task(t(4), &[Access::write(r(1, 0, 8))]).unwrap());
        let ready = g.complete(t(1));
        assert_eq!(ready, vec![t(2), t(3)]);
        assert!(g.complete(t(2)).is_empty(), "writer still blocked on t3");
        assert_eq!(g.complete(t(3)), vec![t(4)]);
    }

    #[test]
    fn reset_running_allows_a_clean_restart() {
        let mut g = TaskGraph::new();
        g.add_task(t(1), &[Access::write(r(1, 0, 8))]).unwrap();
        assert!(!g.add_task(t(2), &[Access::read(r(1, 0, 8))]).unwrap());
        g.start(t(1));
        assert_eq!(g.state(t(1)), TaskState::Running);
        // The resource running t1 dies; the task migrates.
        g.reset_running(t(1));
        assert_eq!(g.state(t(1)), TaskState::Ready);
        assert_eq!(g.state(t(2)), TaskState::Pending, "successors stay blocked");
        g.start(t(1));
        assert_eq!(g.complete(t(1)), vec![t(2)]);
    }

    #[test]
    fn waw_orders_writers() {
        let mut g = TaskGraph::new();
        g.add_task(t(1), &[Access::write(r(1, 0, 8))]).unwrap();
        assert!(!g.add_task(t(2), &[Access::write(r(1, 0, 8))]).unwrap());
        assert_eq!(g.complete(t(1)), vec![t(2)]);
    }

    #[test]
    fn inout_is_both_raw_and_war() {
        let mut g = TaskGraph::new();
        g.add_task(t(1), &[Access::write(r(1, 0, 8))]).unwrap();
        g.add_task(t(2), &[Access::read(r(1, 0, 8))]).unwrap();
        assert!(!g.add_task(t(3), &[Access::update(r(1, 0, 8))]).unwrap());
        g.complete(t(1));
        // t3 needs both t1 (RAW) and t2 (WAR).
        assert_eq!(g.state(t(3)), TaskState::Pending);
        assert_eq!(g.complete(t(2)), vec![t(3)]);
    }

    #[test]
    fn diamond_dependency() {
        // t1 writes a; t2, t3 read a and write b0/b1; t4 reads b0+b1.
        let mut g = TaskGraph::new();
        g.add_task(t(1), &[Access::write(r(1, 0, 8))]).unwrap();
        g.add_task(t(2), &[Access::read(r(1, 0, 8)), Access::write(r(2, 0, 8))]).unwrap();
        g.add_task(t(3), &[Access::read(r(1, 0, 8)), Access::write(r(2, 8, 8))]).unwrap();
        g.add_task(t(4), &[Access::read(r(2, 0, 8)), Access::read(r(2, 8, 8))]).unwrap();
        assert_eq!(g.complete(t(1)), vec![t(2), t(3)]);
        assert!(g.complete(t(2)).is_empty());
        assert_eq!(g.complete(t(3)), vec![t(4)]);
    }

    #[test]
    fn dependency_on_completed_task_is_skipped() {
        let mut g = TaskGraph::new();
        g.add_task(t(1), &[Access::write(r(1, 0, 8))]).unwrap();
        g.complete(t(1));
        // Reader of data written by an already-completed task is ready.
        assert!(g.add_task(t(2), &[Access::read(r(1, 0, 8))]).unwrap());
    }

    #[test]
    fn partial_overlap_rejected_across_tasks() {
        let mut g = TaskGraph::new();
        g.add_task_labeled(t(1), "init", &[Access::write(r(1, 0, 16))]).unwrap();
        let err = g.add_task_labeled(t(2), "gemm", &[Access::read(r(1, 8, 16))]).unwrap_err();
        match err {
            GraphError::PartialOverlap(o) => {
                assert_eq!(o.task, t(2));
                assert_eq!(o.task_label, "gemm");
                assert_eq!(o.new, r(1, 8, 16));
                assert_eq!(o.existing, r(1, 0, 16));
                assert_eq!(o.existing_task, Some(t(1)), "names the declaring task");
                assert_eq!(o.existing_label, "init");
                assert_eq!(o.splits, vec![r(1, 0, 8), r(1, 8, 8), r(1, 16, 8)]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn partial_overlap_diagnostic_mentions_labels_and_splits() {
        let mut g = TaskGraph::new();
        g.add_task_labeled(t(1), "init", &[Access::write(r(1, 0, 16))]).unwrap();
        let msg =
            g.add_task_labeled(t(2), "gemm", &[Access::read(r(1, 8, 16))]).unwrap_err().to_string();
        assert!(msg.contains("task 2 'gemm'"), "{msg}");
        assert!(msg.contains("task 1 'init'"), "{msg}");
        assert!(msg.contains("D1[0..8), D1[8..16), D1[16..24)"), "{msg}");
    }

    #[test]
    fn nested_overlap_suggests_three_way_split() {
        let mut g = TaskGraph::new();
        g.add_task(t(1), &[Access::write(r(1, 0, 24))]).unwrap();
        let err = g.add_task(t(2), &[Access::read(r(1, 8, 8))]).unwrap_err();
        match err {
            GraphError::PartialOverlap(o) => {
                assert_eq!(o.splits, vec![r(1, 0, 8), r(1, 8, 8), r(1, 16, 8)]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn partial_overlap_rejected_within_one_task() {
        let mut g = TaskGraph::new();
        let err =
            g.add_task(t(1), &[Access::write(r(1, 0, 16)), Access::read(r(1, 4, 4))]).unwrap_err();
        assert!(matches!(err, GraphError::PartialOverlap(_)));
    }

    #[test]
    fn exact_match_regions_are_fine() {
        let mut g = TaskGraph::new();
        g.add_task(t(1), &[Access::write(r(1, 0, 16))]).unwrap();
        assert!(g.add_task(t(2), &[Access::read(r(1, 16, 16))]).unwrap(), "adjacent ok");
        assert!(!g.add_task(t(3), &[Access::read(r(1, 0, 16))]).unwrap(), "exact ok");
    }

    #[test]
    fn duplicate_task_rejected() {
        let mut g = TaskGraph::new();
        g.add_task(t(1), &[]).unwrap();
        assert_eq!(g.add_task(t(1), &[]).unwrap_err(), GraphError::DuplicateTask(t(1)));
    }

    #[test]
    fn successors_visible_for_scheduler() {
        let mut g = TaskGraph::new();
        g.add_task(t(1), &[Access::write(r(1, 0, 8))]).unwrap();
        g.add_task(t(2), &[Access::read(r(1, 0, 8))]).unwrap();
        g.add_task(t(3), &[Access::read(r(1, 0, 8))]).unwrap();
        assert_eq!(g.successors(t(1)), vec![t(2), t(3)]);
    }

    #[test]
    fn pending_writer_supports_taskwait_on() {
        let mut g = TaskGraph::new();
        g.add_task(t(1), &[Access::write(r(1, 0, 8))]).unwrap();
        assert_eq!(g.pending_writer(&r(1, 0, 8)), Some(t(1)));
        assert_eq!(g.pending_writer(&r(1, 8, 8)), None);
        g.complete(t(1));
        assert_eq!(g.pending_writer(&r(1, 0, 8)), None);
    }

    #[test]
    fn start_transitions_and_double_complete_panics() {
        let mut g = TaskGraph::new();
        g.add_task(t(1), &[]).unwrap();
        g.start(t(1));
        assert_eq!(g.state(t(1)), TaskState::Running);
        g.complete(t(1));
        assert_eq!(g.state(t(1)), TaskState::Completed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            g.complete(t(1));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn dead_write_lint_fires_on_unread_overwrite() {
        let mut g = TaskGraph::new();
        g.add_task_labeled(t(1), "init", &[Access::write(r(1, 0, 8))]).unwrap();
        // Output over an unread output: the init value never escaped.
        g.add_task_labeled(t(2), "scale", &[Access::write(r(1, 0, 8))]).unwrap();
        assert_eq!(g.lints().len(), 1);
        match &g.lints()[0] {
            GraphLint::DeadWrite { region, writer, writer_label, overwriter, overwriter_label } => {
                assert_eq!(*region, r(1, 0, 8));
                assert_eq!((*writer, writer_label.as_str()), (t(1), "init"));
                assert_eq!((*overwriter, overwriter_label.as_str()), (t(2), "scale"));
            }
            other => panic!("unexpected lint: {other:?}"),
        }
    }

    #[test]
    fn dead_write_lint_spares_read_values_and_inout() {
        let mut g = TaskGraph::new();
        g.add_task(t(1), &[Access::write(r(1, 0, 8))]).unwrap();
        g.add_task(t(2), &[Access::read(r(1, 0, 8))]).unwrap();
        // Overwrite after a read: value escaped, no lint.
        g.add_task(t(3), &[Access::write(r(1, 0, 8))]).unwrap();
        // InOut reads the prior version itself: no lint either.
        g.add_task(t(4), &[Access::update(r(1, 0, 8))]).unwrap();
        assert!(g.lints().is_empty(), "{:?}", g.lints());
    }

    #[test]
    fn happens_before_edges_temporal_and_unordered() {
        let mut g = TaskGraph::new();
        g.add_task(t(1), &[Access::write(r(1, 0, 8))]).unwrap();
        g.add_task(t(2), &[Access::read(r(1, 0, 8))]).unwrap(); // edge 1→2
        g.add_task(t(3), &[Access::write(r(2, 0, 8))]).unwrap(); // independent
        assert!(g.happens_before(t(1), t(2)), "dependence edge");
        assert!(!g.happens_before(t(2), t(1)));
        assert!(!g.happens_before(t(1), t(3)) && !g.happens_before(t(3), t(1)), "unordered");
        g.complete(t(1));
        g.complete(t(2));
        g.complete(t(3));
        // Temporal: t4 submitted after everything completed — ordered
        // after all of them even with no shared region.
        g.add_task(t(4), &[Access::write(r(3, 0, 8))]).unwrap();
        assert!(g.happens_before(t(1), t(4)) && g.happens_before(t(3), t(4)));
        assert!(!g.happens_before(t(4), t(1)));
        // Edges survive completion so reachability still answers.
        assert!(g.happens_before(t(1), t(2)));
    }

    #[test]
    fn races_found_only_between_unordered_tasks() {
        let mut g = TaskGraph::new();
        g.add_task_labeled(t(1), "a", &[Access::write(r(1, 0, 8))]).unwrap();
        g.add_task_labeled(t(2), "b", &[Access::read(r(1, 0, 8))]).unwrap(); // ordered after t1
        g.add_task_labeled(t(3), "c", &[Access::write(r(2, 0, 8))]).unwrap(); // unordered vs both
        let s = r(9, 0, 16); // a region nobody declared
                             // Ordered pair writing the same bytes: no race.
        assert!(g.races(&[(t(1), s, true), (t(2), s, true)]).is_empty());
        // Unordered write/write: one ConcurrentWrite.
        let ww = g.races(&[(t(1), s, true), (t(3), s, true)]);
        assert_eq!(ww.len(), 1);
        assert!(
            matches!(&ww[0], GraphLint::ConcurrentWrite { a, b, .. } if *a == t(1) && *b == t(3)),
            "{ww:?}"
        );
        // Unordered read vs write: one UnorderedReadWrite with roles.
        let rw = g.races(&[(t(3), s, false), (t(1), s, true)]);
        assert_eq!(rw.len(), 1);
        assert!(
            matches!(&rw[0], GraphLint::UnorderedReadWrite { reader, writer, .. }
                if *reader == t(3) && *writer == t(1)),
            "{rw:?}"
        );
        // Read/read never races.
        assert!(g.races(&[(t(1), s, false), (t(3), s, false)]).is_empty());
    }

    #[test]
    fn lineage_disabled_retains_nothing() {
        let mut g = TaskGraph::new();
        g.add_task(t(1), &[Access::write(r(1, 0, 8))]).unwrap();
        g.add_task(t(2), &[Access::update(r(1, 0, 8))]).unwrap();
        assert_eq!(g.writer_history(&r(1, 0, 8)), None, "no retention when disabled");
    }

    #[test]
    fn lineage_records_writers_in_version_order() {
        let mut g = TaskGraph::new();
        g.enable_lineage(64);
        let region = r(1, 0, 8);
        g.add_task(t(1), &[Access::write(region)]).unwrap();
        g.add_task(t(2), &[Access::read(region)]).unwrap(); // readers don't count
        g.add_task(t(3), &[Access::update(region)]).unwrap();
        g.add_task(t(4), &[Access::write(region)]).unwrap();
        let (writers, dropped) = g.writer_history(&region).unwrap();
        assert_eq!(writers, &[t(1), t(3), t(4)]);
        assert_eq!(dropped, 0);
        assert_eq!(g.writer_history(&r(1, 8, 8)), None, "unwritten region has no history");
    }

    #[test]
    fn lineage_depth_bound_trims_front_and_keeps_absolute_indexing() {
        let mut g = TaskGraph::new();
        g.enable_lineage(3);
        let region = r(1, 0, 8);
        for i in 1..=10 {
            g.add_task(t(i), &[Access::update(region)]).unwrap();
        }
        let (writers, dropped) = g.writer_history(&region).unwrap();
        assert_eq!(writers, &[t(8), t(9), t(10)]);
        assert_eq!(dropped, 7);
        // The producer of version v is absolute index v-1: version 9's
        // producer is writers[9 - 1 - dropped] = writers[1] = t(9).
        assert_eq!(writers[(9 - 1 - dropped) as usize], t(9));
    }

    #[test]
    fn long_chain_completes_in_order() {
        let mut g = TaskGraph::new();
        let region = r(1, 0, 8);
        for i in 0..100 {
            let ready = g.add_task(t(i), &[Access::update(region)]).unwrap();
            assert_eq!(ready, i == 0);
        }
        for i in 0..100 {
            let next = g.complete(t(i));
            if i < 99 {
                assert_eq!(next, vec![t(i + 1)]);
            } else {
                assert!(next.is_empty());
            }
        }
        assert_eq!(g.live(), 0);
        assert_eq!(g.submitted(), 100);
    }
}
