//! Property-based tests of the dependence graph: for arbitrary task
//! streams over a small region universe, any greedy execution must
//! respect the data-flow semantics of the clauses and must never get
//! stuck.

use proptest::prelude::*;

use ompss_core::{TaskGraph, TaskId, TaskState};
use ompss_mem::{Access, AccessKind, DataId, Region};

/// A compact generated clause: (data 0..3, slot 0..4, kind).
#[derive(Debug, Clone, Copy)]
struct GenAccess {
    data: u64,
    slot: u64,
    kind: AccessKind,
}

fn gen_access() -> impl Strategy<Value = GenAccess> {
    (0u64..3, 0u64..4, 0u8..3).prop_map(|(data, slot, k)| GenAccess {
        data,
        slot,
        kind: match k {
            0 => AccessKind::Input,
            1 => AccessKind::Output,
            _ => AccessKind::InOut,
        },
    })
}

fn to_access(g: GenAccess) -> Access {
    // Disjoint 8-byte slots: always exact-match, never partial overlap.
    Access { region: Region::new(DataId(g.data), g.slot * 8, 8), kind: g.kind }
}

/// One generated task: up to 3 clauses (deduplicated by region, with
/// the strongest kind winning, to keep clause lists well-formed).
fn gen_task() -> impl Strategy<Value = Vec<GenAccess>> {
    proptest::collection::vec(gen_access(), 1..4).prop_map(|mut v| {
        v.sort_by_key(|a| (a.data, a.slot));
        let mut out: Vec<GenAccess> = Vec::new();
        for a in v {
            if let Some(last) = out.last_mut() {
                if last.data == a.data && last.slot == a.slot {
                    // Merge duplicate regions into InOut when kinds differ.
                    if last.kind != a.kind {
                        last.kind = AccessKind::InOut;
                    }
                    continue;
                }
            }
            out.push(a);
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Greedy execution of any submitted task stream: (1) drains — no
    /// deadlock; (2) writers to a region complete in submission order;
    /// (3) a reader completes before the *next* writer of its region
    /// completes; (4) a reader's RAW writer completes before it does.
    #[test]
    fn execution_respects_dataflow(tasks in proptest::collection::vec(gen_task(), 1..40)) {
        let mut g = TaskGraph::new();
        let mut ready: Vec<TaskId> = Vec::new();
        let accesses: Vec<Vec<Access>> =
            tasks.iter().map(|t| t.iter().map(|&a| to_access(a)).collect()).collect();

        for (i, acc) in accesses.iter().enumerate() {
            let id = TaskId(i as u64);
            if g.add_task(id, acc).expect("disjoint slots never partially overlap") {
                ready.push(id);
            }
        }

        // Execute greedily in FIFO ready order, recording completion order.
        let mut completion_order: Vec<TaskId> = Vec::new();
        let mut idx = 0;
        while idx < ready.len() {
            let id = ready[idx];
            idx += 1;
            g.start(id);
            let newly = g.complete(id);
            completion_order.push(id);
            ready.extend(newly);
        }

        // (1) every task completed
        prop_assert_eq!(completion_order.len(), accesses.len());
        prop_assert_eq!(g.live(), 0);
        for i in 0..accesses.len() {
            prop_assert_eq!(g.state(TaskId(i as u64)), TaskState::Completed);
        }

        let completed_at: std::collections::HashMap<TaskId, usize> =
            completion_order.iter().enumerate().map(|(pos, &id)| (id, pos)).collect();

        // Per-region bookkeeping in submission order.
        use std::collections::HashMap;
        let mut last_writer: HashMap<(u64, u64, u64), TaskId> = HashMap::new();
        let mut readers_since: HashMap<(u64, u64, u64), Vec<TaskId>> = HashMap::new();
        for (i, acc) in accesses.iter().enumerate() {
            let id = TaskId(i as u64);
            for a in acc {
                let key = (a.region.data.0, a.region.offset, a.region.len);
                if a.kind.reads() {
                    if let Some(&w) = last_writer.get(&key) {
                        // (4) RAW: writer completes before this reader.
                        prop_assert!(completed_at[&w] < completed_at[&id],
                            "RAW violated: writer {:?} after reader {:?}", w, id);
                    }
                }
                if a.kind.writes() {
                    if let Some(&w) = last_writer.get(&key) {
                        // (2) WAW: earlier writer first.
                        prop_assert!(completed_at[&w] < completed_at[&id],
                            "WAW violated between {:?} and {:?}", w, id);
                    }
                    for r in readers_since.get(&key).into_iter().flatten() {
                        // (3) WAR: the readers complete before this writer.
                        prop_assert!(completed_at[r] < completed_at[&id],
                            "WAR violated: reader {:?} after writer {:?}", r, id);
                    }
                    last_writer.insert(key, id);
                    readers_since.insert(key, Vec::new());
                } else {
                    readers_since.entry(key).or_default().push(id);
                }
            }
        }
    }

    /// Submitting in any order, the set of immediately-ready tasks is
    /// exactly the set with no conflicting predecessor.
    #[test]
    fn initial_readiness_matches_conflicts(tasks in proptest::collection::vec(gen_task(), 1..25)) {
        let mut g = TaskGraph::new();
        let accesses: Vec<Vec<Access>> =
            tasks.iter().map(|t| t.iter().map(|&a| to_access(a)).collect()).collect();
        for (i, acc) in accesses.iter().enumerate() {
            let id = TaskId(i as u64);
            let ready = g.add_task(id, acc).unwrap();
            // Recompute expectation by brute force against all earlier tasks.
            let mut expect_ready = true;
            'outer: for (j, prev) in accesses[..i].iter().enumerate() {
                for a in acc {
                    for b in prev {
                        if a.region == b.region && (a.kind.writes() || b.kind.writes()) {
                            // There is an uncompleted conflicting predecessor
                            // (nothing has completed yet).
                            let _ = j;
                            expect_ready = false;
                            break 'outer;
                        }
                    }
                }
            }
            prop_assert_eq!(ready, expect_ready, "task {} readiness mismatch", i);
        }
    }
}

/// The dependence rules of [`TaskGraph::add_task`] restated the plain
/// way, with predecessors gathered in a `HashSet`: the reference the
/// graph's sort-and-dedup predecessor list is checked against.
#[derive(Default)]
struct ReferenceGraph {
    last_writer: std::collections::HashMap<Region, TaskId>,
    readers: std::collections::HashMap<Region, Vec<TaskId>>,
    preds: std::collections::HashMap<TaskId, usize>,
    succs: std::collections::HashMap<TaskId, Vec<TaskId>>,
    completed: std::collections::HashSet<TaskId>,
    order: Vec<TaskId>,
}

impl ReferenceGraph {
    fn add_task(&mut self, id: TaskId, accesses: &[Access]) -> bool {
        let mut preds = std::collections::HashSet::new();
        for a in accesses {
            let writer = self.last_writer.get(&a.region).copied().filter(|&w| w != id);
            if a.kind.reads() {
                preds.extend(writer);
            }
            if a.kind.writes() {
                let readers = self.readers.entry(a.region).or_default();
                preds.extend(readers.iter().copied().filter(|&r| r != id));
                preds.extend(writer);
                readers.clear();
                self.last_writer.insert(a.region, id);
            } else {
                let readers = self.readers.entry(a.region).or_default();
                if !readers.contains(&id) {
                    readers.push(id);
                }
            }
        }
        let mut count = 0;
        for p in preds {
            if !self.completed.contains(&p) {
                self.succs.entry(p).or_default().push(id);
                count += 1;
            }
        }
        self.preds.insert(id, count);
        self.order.push(id);
        count == 0
    }

    fn complete(&mut self, id: TaskId) -> Vec<TaskId> {
        self.completed.insert(id);
        let mut ready = Vec::new();
        for &s in self.succs.get(&id).into_iter().flatten() {
            let n = self.preds.get_mut(&s).expect("successor submitted");
            *n -= 1;
            if *n == 0 {
                ready.push(s);
            }
        }
        ready
    }

    fn successors(&self, id: TaskId) -> &[TaskId] {
        self.succs.get(&id).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// A task over a tiny region universe (2 data × 2 slots) with up to 5
/// clauses, so one task often reads and writes several regions last
/// written by one earlier task: the repeated-predecessor case.
fn gen_dense_task() -> impl Strategy<Value = Vec<GenAccess>> {
    let access = (0u64..2, 0u64..2, 0u8..3).prop_map(|(data, slot, k)| GenAccess {
        data,
        slot,
        kind: match k {
            0 => AccessKind::Input,
            1 => AccessKind::Output,
            _ => AccessKind::InOut,
        },
    });
    proptest::collection::vec(access, 1..6).prop_map(|mut v| {
        v.sort_by_key(|a| (a.data, a.slot));
        v.dedup_by_key(|a| (a.data, a.slot));
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Submissions interleaved with completions: every `add_task`
    /// readiness, every set of tasks a completion releases, and every
    /// task's successor list in `tasks_snapshot` equal the reference's.
    /// A predecessor reached through several clauses still gets exactly
    /// one edge.
    #[test]
    fn predecessors_match_hash_set_reference(
        steps in proptest::collection::vec((gen_dense_task(), 0usize..3), 1..40),
    ) {
        let mut g = TaskGraph::new();
        let mut reference = ReferenceGraph::default();
        let mut ready: std::collections::VecDeque<TaskId> = Default::default();
        for (i, (task, completions)) in steps.iter().enumerate() {
            let id = TaskId(i as u64);
            let accesses: Vec<Access> = task.iter().map(|&a| to_access(a)).collect();
            let got = g.add_task(id, &accesses).expect("disjoint slots never partially overlap");
            prop_assert_eq!(got, reference.add_task(id, &accesses), "readiness of task {}", i);
            if got {
                ready.push_back(id);
            }
            for _ in 0..*completions {
                let Some(done) = ready.pop_front() else { break };
                g.start(done);
                let released = g.complete(done);
                prop_assert_eq!(&released, &reference.complete(done), "completing {:?}", done);
                ready.extend(released);
            }
        }
        let snapshot = g.tasks_snapshot();
        prop_assert_eq!(snapshot.len(), reference.order.len());
        for ((id, _, succs), want) in snapshot.iter().zip(&reference.order) {
            prop_assert_eq!(id, want);
            prop_assert_eq!(*succs, reference.successors(*want), "successors of {:?}", id);
        }
    }
}

/// The repeated-predecessor case by hand: t2 reads `a` (RAW on t1) and
/// writes `b` (WAW on t1), and still records one edge from t1.
#[test]
fn one_edge_per_predecessor_reached_twice() {
    let a = Region::new(DataId(0), 0, 8);
    let b = Region::new(DataId(0), 8, 8);
    let mut g = TaskGraph::new();
    assert!(g.add_task(TaskId(1), &[Access::output(a), Access::output(b)]).unwrap());
    assert!(!g.add_task(TaskId(2), &[Access::input(a), Access::output(b)]).unwrap());
    let snapshot = g.tasks_snapshot();
    assert_eq!(snapshot[0].2, &[TaskId(2)]);
    g.start(TaskId(1));
    assert_eq!(g.complete(TaskId(1)), vec![TaskId(2)]);
    assert_eq!(g.state(TaskId(2)), TaskState::Ready);
}
