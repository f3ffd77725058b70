//! The ready queue behind every scheduler queue (the global queue, each
//! resource's local queue and its successor-hint slot).
//!
//! A queue behaves exactly like one FIFO of tasks scanned for the best
//! eligible entry, but whether a task is eligible depends only on its
//! device kind, so tasks are filed by device, then by priority (highest
//! first), then by arrival number — the position the task would have
//! held in the FIFO. A poll reads the head of at most one level per
//! device instead of scanning every queued task.

use std::collections::VecDeque;

use ompss_core::{Device, TaskDesc, TaskId};

/// The device kinds, in sub-queue order.
pub(crate) const DEVICES: [Device; 2] = [Device::Smp, Device::Cuda];

/// A set of device kinds, indexed like [`DEVICES`].
pub(crate) type Kinds = [bool; 2];

fn slot(device: Device) -> usize {
    match device {
        Device::Smp => 0,
        Device::Cuda => 1,
    }
}

/// The task facts a queue retains.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Queued {
    pub(crate) id: TaskId,
    pub(crate) device: Device,
    pub(crate) priority: i32,
}

impl Queued {
    pub(crate) fn of(desc: &TaskDesc) -> Self {
        Queued { id: desc.id, device: desc.device, priority: desc.priority }
    }
}

/// One priority level of one device kind: `(arrival, task)`, oldest
/// first.
struct Level {
    priority: i32,
    tasks: VecDeque<(u64, TaskId)>,
}

/// Ready tasks filed by device kind, priority and arrival.
#[derive(Default)]
pub(crate) struct ReadyQueue {
    /// Per device kind: levels by descending priority. An emptied level
    /// is kept for reuse — a queue sees few distinct priorities — so
    /// filing allocates only while a level grows.
    levels: [Vec<Level>; 2],
    /// Per device kind: tasks queued.
    counts: [usize; 2],
    /// Arrival number of the next task filed.
    arrivals: u64,
}

impl ReadyQueue {
    /// Tasks queued.
    pub(crate) fn len(&self) -> usize {
        self.counts[0] + self.counts[1]
    }

    /// Is any task of a kind in `kinds` queued?
    pub(crate) fn holds_any(&self, kinds: Kinds) -> bool {
        (0..2).any(|d| kinds[d] && self.counts[d] > 0)
    }

    /// File `task` behind every task already queued.
    pub(crate) fn push(&mut self, task: Queued) {
        let d = slot(task.device);
        let levels = &mut self.levels[d];
        let at = levels.partition_point(|l| l.priority > task.priority);
        if levels.get(at).is_none_or(|l| l.priority != task.priority) {
            levels.insert(at, Level { priority: task.priority, tasks: VecDeque::new() });
        }
        levels[at].tasks.push_back((self.arrivals, task.id));
        self.arrivals += 1;
        self.counts[d] += 1;
    }

    /// The highest non-empty level of device kind `d`.
    fn top(&self, d: usize) -> Option<&Level> {
        if self.counts[d] == 0 {
            return None;
        }
        self.levels[d].iter().find(|l| !l.tasks.is_empty())
    }

    /// Remove and return one of the eligible tasks of the highest
    /// priority: with `n` of them, the `salt % n`-th in arrival order
    /// (`salt == 0` takes the oldest).
    pub(crate) fn pick(&mut self, eligible: Kinds, salt: u64) -> Option<TaskId> {
        let tops = [0, 1].map(|d| self.top(d).filter(|_| eligible[d]));
        let best = tops.iter().flatten().map(|l| l.priority).max()?;
        let [a, b] = tops.map(|l| l.filter(|l| l.priority == best).map(|l| &l.tasks));
        let n = a.map_or(0, VecDeque::len) + b.map_or(0, VecDeque::len);
        let mut k = (salt % n as u64) as usize;
        let (d, pos) = match (a, b) {
            (Some(_), None) => (0, k),
            (None, Some(_)) => (1, k),
            (Some(a), Some(b)) => {
                // Merge the two levels by arrival up to the k-th task.
                let (mut i, mut j) = (0, 0);
                loop {
                    let from_a = j == b.len() || (i < a.len() && a[i].0 < b[j].0);
                    if k == 0 {
                        break if from_a { (0, i) } else { (1, j) };
                    }
                    if from_a {
                        i += 1;
                    } else {
                        j += 1;
                    }
                    k -= 1;
                }
            }
            (None, None) => unreachable!("a best priority implies a candidate level"),
        };
        self.counts[d] -= 1;
        let level = self.levels[d].iter_mut().find(|l| l.priority == best).expect("level found");
        level.tasks.remove(pos).map(|(_, id)| id)
    }

    /// Remove and return the newest eligible task, whatever its
    /// priority (a thief takes from the back of the queue).
    pub(crate) fn steal(&mut self, eligible: Kinds) -> Option<TaskId> {
        let mut newest: Option<(u64, usize, usize)> = None;
        for d in (0..2).filter(|&d| eligible[d]) {
            for (l, level) in self.levels[d].iter().enumerate() {
                if let Some(&(arrival, _)) = level.tasks.back() {
                    if newest.is_none_or(|(a, ..)| arrival > a) {
                        newest = Some((arrival, d, l));
                    }
                }
            }
        }
        let (_, d, l) = newest?;
        self.counts[d] -= 1;
        self.levels[d][l].tasks.pop_back().map(|(_, id)| id)
    }

    /// Move every task of a kind in `kinds` to the end of `out`, in
    /// arrival order.
    pub(crate) fn take(&mut self, kinds: Kinds, out: &mut Vec<Queued>) {
        if !self.holds_any(kinds) {
            return;
        }
        let mut moved: Vec<(u64, Queued)> = Vec::new();
        for d in (0..2).filter(|&d| kinds[d]) {
            self.counts[d] = 0;
            for level in &mut self.levels[d] {
                let (device, priority) = (DEVICES[d], level.priority);
                moved.extend(
                    level.tasks.drain(..).map(|(a, id)| (a, Queued { id, device, priority })),
                );
            }
        }
        moved.sort_unstable_by_key(|&(a, _)| a);
        out.extend(moved.into_iter().map(|(_, t)| t));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(tasks: &[(u64, Device, i32)]) -> ReadyQueue {
        let mut q = ReadyQueue::default();
        for &(id, device, priority) in tasks {
            q.push(Queued { id: TaskId(id), device, priority });
        }
        q
    }

    const BOTH: Kinds = [true, true];
    const SMP: Kinds = [true, false];

    #[test]
    fn pick_takes_highest_priority_then_oldest_across_devices() {
        use Device::*;
        let mut r = q(&[(0, Cuda, 0), (1, Smp, 1), (2, Cuda, 1), (3, Smp, 0)]);
        let order: Vec<_> = std::iter::from_fn(|| r.pick(BOTH, 0)).map(|t| t.0).collect();
        assert_eq!(order, [1, 2, 0, 3]);
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn seeded_pick_counts_candidates_in_arrival_order() {
        use Device::*;
        // Equal-priority candidates in arrival order: 0, 1, 2, 4 (3 is
        // lower priority). The third one (k = 2) is task 2.
        let mut r = q(&[(0, Smp, 0), (1, Cuda, 0), (2, Smp, 0), (3, Cuda, -1), (4, Cuda, 0)]);
        assert_eq!(r.pick(BOTH, 2), Some(TaskId(2)));
        // Three left (0, 1, 4): salt 4 selects index 4 % 3 = 1.
        assert_eq!(r.pick(BOTH, 4), Some(TaskId(1)));
        // Only SMP eligible: task 0 is the sole candidate.
        assert_eq!(r.pick(SMP, 7), Some(TaskId(0)));
        assert_eq!(r.pick(SMP, 0), None);
    }

    #[test]
    fn steal_takes_newest_eligible_of_any_priority() {
        use Device::*;
        let mut r = q(&[(0, Smp, 5), (1, Cuda, 0), (2, Smp, -1), (3, Cuda, 2)]);
        assert_eq!(r.steal(SMP), Some(TaskId(2)));
        assert_eq!(r.steal(BOTH), Some(TaskId(3)));
        assert_eq!(r.steal(BOTH), Some(TaskId(1)));
        assert_eq!(r.steal([false, true]), None);
        assert!(r.holds_any(SMP));
    }

    #[test]
    fn take_moves_selected_kinds_in_arrival_order() {
        use Device::*;
        let mut r = q(&[(0, Cuda, 0), (1, Smp, 0), (2, Cuda, 3), (3, Cuda, -2)]);
        let mut out = Vec::new();
        r.take([false, true], &mut out);
        assert_eq!(out.iter().map(|t| t.id.0).collect::<Vec<_>>(), [0, 2, 3]);
        assert_eq!(out[1].priority, 3);
        assert_eq!(r.len(), 1);
        assert!(!r.holds_any([false, true]));
        // Emptied levels are reused: later arrivals still queue behind.
        r.push(Queued { id: TaskId(4), device: Smp, priority: 0 });
        assert_eq!(r.pick(BOTH, 0), Some(TaskId(1)));
        assert_eq!(r.pick(BOTH, 0), Some(TaskId(4)));
    }
}
