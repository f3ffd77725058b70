//! The master's dispatch of ready tasks to remote nodes (§III-D1): the
//! communication thread "polls the task pool for each node of the
//! cluster in a round-robin fashion", at most one task per node per
//! visit, from a persistent cursor, keeping each node at most
//! `resources + presend` tasks in flight per device kind.
//!
//! A sweep makes `nodes - 1` visits. Visit `s` goes to the node at
//! `cursor + s`; a dispatch at visit `s` moves the cursor to
//! `cursor + s + 1`, so the next visit lands `s + 1` nodes further on
//! and one sweep can pass over a node or come back to it.
//!
//! [`Dispatcher::sweep`] makes exactly those visits, but it only polls
//! the nodes whose poll would hand out a task. It jumps over the rest by
//! index: per device kind, the nodes below that kind's cap, and the
//! scheduler's index of proxies with hinted or local work. A skipped
//! visit is one whose poll would have returned `None`; a seeded
//! scheduler is told how many of those it missed, so its tie-break
//! stream advances as if every poll had been made. Dispatch order,
//! cursor and decision counter are those of the visit-every-node sweep
//! (`crates/sched/tests/dispatch.rs` keeps that sweep as a reference).

use ompss_core::{Device, TaskId};

use crate::bits::Bits;
use crate::ready::DEVICES;
use crate::{ResourceId, Scheduler};

/// What the master knows of one remote node.
#[derive(Debug, Clone)]
struct Node {
    /// Declared dead by the lease protocol, or retired by a drain.
    dead: bool,
    /// Armed to join and not yet come up.
    absent: bool,
    /// Dispatched-but-unfinished tasks per device kind (`[smp, cuda]`).
    inflight: [u32; 2],
    /// Live CUDA devices as the master knows them.
    cuda_alive: u32,
}

/// Per-node dispatch state of the master's communication thread and
/// the indexes that let a sweep visit only nodes that can take work.
///
/// Every change to a node's liveness, in-flight counts or proxy service
/// goes through a method here, so the indexes never go stale. Nodes are
/// numbered from 1 (node 0 is the master); their proxies must be
/// registered consecutively in node order, in one steal group.
pub struct Dispatcher {
    /// In-flight cap per device kind: resources plus presend depth.
    caps: [u32; 2],
    /// The proxy resource of node 1; node `n`'s is `proxy_base + n - 1`.
    proxy_base: usize,
    /// The proxies' steal group.
    group: u32,
    nodes: Vec<Node>,
    /// Persistent round-robin position, as a node index from 0.
    cursor: usize,
    /// Nodes a visit polls (live, present, below some cap, proxy in
    /// service): each skipped visit to one is a skipped decision.
    polled: Bits,
    /// Per device kind: nodes a visit may hand a task of that kind.
    spare: [Bits; 2],
}

impl Dispatcher {
    /// Dispatch state for the nodes whose proxies are `proxies` (node 1
    /// first), each live with `gpus` CUDA devices and nothing in flight,
    /// capped at `caps` (`[smp, cuda]`) tasks in flight.
    pub fn new(sched: &Scheduler, proxies: &[ResourceId], caps: [u32; 2], gpus: u32) -> Self {
        let proxy_base = proxies.first().map_or(0, |p| p.0);
        assert!(
            proxies.iter().enumerate().all(|(i, p)| p.0 == proxy_base + i),
            "node proxies must be registered consecutively in node order"
        );
        let group = proxies.first().map_or(0, |&p| sched.steal_group(p));
        assert!(
            proxies.iter().all(|&p| sched.steal_group(p) == group),
            "node proxies must share one steal group"
        );
        let node = Node { dead: false, absent: false, inflight: [0, 0], cuda_alive: gpus };
        let mut d = Dispatcher {
            caps,
            proxy_base,
            group,
            nodes: vec![node; proxies.len()],
            cursor: 0,
            polled: Bits::default(),
            spare: Default::default(),
        };
        for i in 0..proxies.len() {
            d.refresh(sched, i);
        }
        d
    }

    fn proxy(&self, i: usize) -> ResourceId {
        ResourceId(self.proxy_base + i)
    }

    /// The device kinds node index `i` has room for. CUDA needs a live
    /// GPU too: a GPU-less node's dispatcher would only bounce the task.
    fn room(&self, i: usize) -> [bool; 2] {
        let n = &self.nodes[i];
        [n.inflight[0] < self.caps[0], n.cuda_alive > 0 && n.inflight[1] < self.caps[1]]
    }

    /// Re-file node index `i` in the indexes after its state changed.
    fn refresh(&mut self, sched: &Scheduler, i: usize) {
        let n = &self.nodes[i];
        let full = n.inflight[0] >= self.caps[0] && n.inflight[1] >= self.caps[1];
        let visited = !n.dead && !n.absent && !full;
        let proxy = self.proxy(i);
        let room = self.room(i);
        self.polled.set(i, visited && sched.is_active(proxy));
        for (d, spare) in self.spare.iter_mut().enumerate() {
            spare.set(i, visited && room[d] && sched.serves(proxy.0, DEVICES[d]));
        }
    }

    fn slot(&self, node: u32) -> usize {
        assert!(node >= 1 && (node as usize) <= self.nodes.len(), "node {node} has no proxy");
        node as usize - 1
    }

    /// Would a visit to node index `i` hand it a task?
    fn takes(&self, sched: &Scheduler, i: usize) -> bool {
        let room = self.room(i);
        self.polled.contains(i) && sched.could_hand(self.proxy(i), |d| room[slot_of(d)])
    }

    /// The first node index in `from..to` a visit would hand a task.
    fn first_taker(&self, sched: &Scheduler, from: usize, to: usize) -> Option<usize> {
        // Global or stealable work of a kind goes to any node with room
        // for that kind.
        let shared = sched.shared_kinds(self.group);
        let mut end = to;
        for (d, spare) in self.spare.iter().enumerate() {
            if shared[d] {
                end = spare.next(from, end).unwrap_or(end);
            }
        }
        // Hinted or local work goes only to its own proxy.
        let mut at = from;
        while let Some(r) = sched.next_owning(self.proxy_base + at, self.proxy_base + end) {
            let i = r - self.proxy_base;
            if self.takes(sched, i) {
                return Some(i);
            }
            at = i + 1;
        }
        (end < to).then_some(end)
    }

    /// Distance from node index `pos` to the first node of the next
    /// `len` in circular order a visit would hand a task.
    fn next_taker(&self, sched: &Scheduler, pos: usize, len: usize) -> Option<usize> {
        let n = self.nodes.len();
        let end = pos + len;
        if let Some(i) = self.first_taker(sched, pos, end.min(n)) {
            return Some(i - pos);
        }
        if end > n {
            return self.first_taker(sched, 0, end - n).map(|i| i + n - pos);
        }
        None
    }

    /// Polled nodes among the `len` from node index `pos`, circularly.
    fn polled_in(&self, pos: usize, len: usize) -> u64 {
        let n = self.nodes.len();
        let end = pos + len;
        self.polled.count(pos, end.min(n)) + if end > n { self.polled.count(0, end - n) } else { 0 }
    }

    /// One round-robin sweep: hand at most one task to each node per
    /// visit, in the module's visit order. `dispatch(node, task)` is
    /// called for each hand-out, in order, and returns the task's device
    /// kind. Returns whether anything was dispatched.
    pub fn sweep(
        &mut self,
        sched: &mut Scheduler,
        mut dispatch: impl FnMut(u32, TaskId) -> Device,
    ) -> bool {
        let n = self.nodes.len();
        let mut progressed = false;
        let mut step = 0;
        while step < n {
            let pos = (self.cursor + step) % n;
            let Some(skip) = self.next_taker(sched, pos, n - step) else {
                sched.skip_decisions(self.polled_in(pos, n - step));
                break;
            };
            sched.skip_decisions(self.polled_in(pos, skip));
            step += skip;
            let i = (pos + skip) % n;
            let room = self.room(i);
            let task = sched
                .next_matching(self.proxy(i), |d| room[slot_of(d)])
                .expect("a node that takes work is handed a task");
            let device = dispatch(i as u32 + 1, task);
            self.nodes[i].inflight[slot_of(device)] += 1;
            self.refresh(sched, i);
            step += 1;
            self.cursor = (self.cursor + step) % n;
            progressed = true;
        }
        progressed
    }

    /// The persistent round-robin position: the node the next sweep
    /// visits first.
    pub fn cursor(&self) -> u32 {
        self.cursor as u32 + 1
    }

    /// Has `node` been declared dead (or retired by a drain)?
    pub fn is_dead(&self, node: u32) -> bool {
        self.nodes[self.slot(node)].dead
    }

    /// Is `node` armed to join and not yet up?
    pub fn is_absent(&self, node: u32) -> bool {
        self.nodes[self.slot(node)].absent
    }

    /// Tasks in flight on `node`, `[smp, cuda]`.
    pub fn inflight(&self, node: u32) -> [u32; 2] {
        self.nodes[self.slot(node)].inflight
    }

    /// A `device`-kind task dispatched to `node` finished there or was
    /// handed back: its in-flight slot is free again.
    pub fn finished(&mut self, sched: &Scheduler, node: u32, device: Device) {
        let i = self.slot(node);
        self.nodes[i].inflight[slot_of(device)] -= 1;
        self.refresh(sched, i);
    }

    /// `node` will join later: until [`join`](Dispatcher::join) it is
    /// absent and its proxy is out of service.
    pub fn arm_join(&mut self, sched: &mut Scheduler, node: u32) {
        let i = self.slot(node);
        self.nodes[i].absent = true;
        sched.deactivate(self.proxy(i));
        self.refresh(sched, i);
    }

    /// `node` came up: it is present and its proxy is back in service.
    pub fn join(&mut self, sched: &mut Scheduler, node: u32) {
        let i = self.slot(node);
        self.nodes[i].absent = false;
        sched.adopt(self.proxy(i));
        self.refresh(sched, i);
    }

    /// `node` reports one GPU lost. At its last GPU the proxy is
    /// forbidden CUDA work ([`Scheduler::forbid`]).
    pub fn gpu_down(&mut self, sched: &mut Scheduler, node: u32) {
        let i = self.slot(node);
        let n = &mut self.nodes[i];
        n.cuda_alive = n.cuda_alive.saturating_sub(1);
        if n.cuda_alive == 0 {
            sched.forbid(self.proxy(i), Device::Cuda);
        }
        self.refresh(sched, i);
    }

    /// Take `node`'s proxy out of service ([`Scheduler::withdraw`]) and
    /// return the tasks no surviving resource can serve.
    pub fn withdraw(&mut self, sched: &mut Scheduler, node: u32) -> Vec<TaskId> {
        let i = self.slot(node);
        let orphans = sched.withdraw(self.proxy(i));
        self.refresh(sched, i);
        orphans
    }

    /// `node` is gone for good (declared dead, or drained): it gets no
    /// further dispatch, and nothing is in flight there any more.
    pub fn retire(&mut self, sched: &Scheduler, node: u32) {
        let i = self.slot(node);
        self.nodes[i] = Node { dead: true, absent: false, inflight: [0, 0], cuda_alive: 0 };
        self.refresh(sched, i);
    }
}

fn slot_of(device: Device) -> usize {
    crate::ready::slot(device)
}
