//! # ompss-sched — Nanos++-style task schedulers
//!
//! The three scheduling strategies evaluated in the paper (§III-C2):
//!
//! * **breadth-first** (`bf` in the charts) — a simple global FIFO;
//! * **dependencies** (the runtime's default) — FIFO, but a resource
//!   that finishes a task first tries to run one of the successors it
//!   just released, on the theory that producer and consumer share data;
//! * **locality-aware** (`affinity`) — on submission, an affinity score
//!   is computed from *where the task's data already is* (weighted by
//!   size) for the resources on the spaces holding it; the task is
//!   queued on the best resource, falling back to a global queue. Idle
//!   resources look at their local queue, then the global queue, then
//!   *steal* from backlogged resources in the same steal group (load
//!   balancing, per Martinell's SMPSs work).
//!
//! Each decision costs O(work present), not O(resources registered) or
//! O(tasks queued): an idle poll returns at once; a poll of a non-empty
//! queue reads the head of at most one priority level per device kind,
//! because every ready queue files its tasks by device, priority and
//! arrival; steal victims come from an index of backlogged queues; and
//! placement asks the oracle once per copy region for the spaces holding
//! it.
//!
//! Schedulers are pure data structures: the runtime serialises access
//! and parks/wakes worker processes itself. Resources are abstract — a
//! host worker, a GPU manager thread, or (on the master) a *node proxy*
//! drained by the communication thread, which is how the same policies
//! do both intra-node and cluster-level placement.

#![warn(missing_docs)]

mod ready;

use std::collections::BTreeSet;

use ompss_core::{Device, TaskDesc, TaskId};
use ompss_mem::{Region, SpaceId};

use ready::{Kinds, Queued, ReadyQueue, DEVICES};

/// Index of a schedulable resource within one scheduler instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub usize);

/// What a resource is, which determines the device kinds it accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceKind {
    /// A host CPU worker: runs `Device::Smp` tasks.
    SmpWorker,
    /// A GPU manager thread: runs `Device::Cuda` tasks.
    GpuManager,
    /// A remote node, represented at the master by the communication
    /// thread: accepts both device kinds (the remote node schedules
    /// internally).
    NodeProxy,
}

impl ResourceKind {
    /// Can this resource execute a task targeted at `device`?
    pub fn accepts(self, device: Device) -> bool {
        match self {
            ResourceKind::SmpWorker => device == Device::Smp,
            ResourceKind::GpuManager => device == Device::Cuda,
            ResourceKind::NodeProxy => true,
        }
    }
}

/// Registration record for a resource.
#[derive(Debug, Clone)]
pub struct ResourceInfo {
    /// Resource kind.
    pub kind: ResourceKind,
    /// The address space tasks placed here execute against (a GPU's
    /// device space, the node's host space, or a remote node's host
    /// space for proxies). Affinity scores are computed against it.
    pub space: SpaceId,
    /// Resources share work-stealing within the same group. A slave
    /// node's workers and GPU managers form one group per node; at the
    /// master, every worker, GPU manager and node proxy shares group 0,
    /// so an idle node's proxy may re-route a task still queued for
    /// another node.
    pub steal_group: u32,
}

/// Where the data of a region currently lives — implemented by the
/// coherence directory. `holders` reports every resource space that
/// already holds valid bytes of `region`, and how many, so placing the
/// task on a resource there would avoid transferring them.
pub trait LocalityOracle {
    /// Call `found(space, bytes)` for each space holding valid bytes of
    /// `region`, at most once per space.
    fn holders(&self, region: &Region, found: &mut dyn FnMut(SpaceId, u64));
}

/// An oracle for contexts with no locality information (breadth-first /
/// dependencies policies, unit tests).
pub struct NoLocality;

impl LocalityOracle for NoLocality {
    fn holders(&self, _region: &Region, _found: &mut dyn FnMut(SpaceId, u64)) {}
}

/// A local queue this long makes its resource a steal victim: migrating
/// a task away from its data is only worth it against real imbalance.
const STEAL_THRESHOLD: usize = 2;

/// Scheduling decisions counted for the evaluation's ablations.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SchedStats {
    /// Tasks handed out from a resource's own queue.
    pub local_hits: u64,
    /// Tasks handed out from the global queue.
    pub global_hits: u64,
    /// Tasks obtained by stealing.
    pub steals: u64,
    /// Tasks run via the successor-first hint (dependencies policy).
    pub successor_hits: u64,
    /// Tasks ever enqueued (submissions plus released successors).
    pub submitted: u64,
    /// High-water mark of the ready-queue depth.
    pub max_queued: u64,
}

/// The scheduling policy selected for a run (`NX_SCHEDULE` in Nanos++).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Global FIFO.
    BreadthFirst,
    /// FIFO + successor-first (the runtime default).
    Dependencies,
    /// Locality-aware placement with per-resource queues and stealing.
    Affinity,
}

impl Policy {
    /// The chart label used in the paper's figures.
    pub fn chart_label(self) -> &'static str {
        match self {
            Policy::BreadthFirst => "bf",
            Policy::Dependencies => "default",
            Policy::Affinity => "affinity",
        }
    }
}

/// A task scheduler: single-owner data structure driven by the runtime.
pub struct Scheduler {
    policy: Policy,
    resources: Vec<ResourceInfo>,
    /// Per-resource liveness: a deactivated resource (lost GPU) is
    /// handed no more work, receives no placements and is never a steal
    /// victim.
    active: Vec<bool>,
    /// Per-resource forbidden device kind: the master's view of a
    /// remote node that lost its last GPU — the proxy stays in service
    /// for SMP work but must no longer attract CUDA tasks.
    forbidden: Vec<Option<Device>>,
    global: ReadyQueue,
    local: Vec<ReadyQueue>,
    /// Successor hint slot per resource (dependencies policy).
    hints: Vec<ReadyQueue>,
    /// Resources whose local queue holds at least `STEAL_THRESHOLD`
    /// tasks — the only possible steal victims.
    backlog: BTreeSet<usize>,
    /// `(space, resource)` for every resource, sorted: affinity
    /// placement scores only the resources on spaces holding data.
    by_space: Vec<(SpaceId, usize)>,
    /// Affinity scratch: per-resource score (all zero between
    /// placements; sized on first use) and the resources scored so far.
    score: Vec<u64>,
    scored: Vec<usize>,
    stats: SchedStats,
    queued: usize,
    /// Tie-break perturbation seed for the verify subsystem's schedule
    /// exploration: `0` (the default) keeps the documented deterministic
    /// FIFO tie-break; any other value picks among equal-priority
    /// eligible tasks pseudo-randomly (but still deterministically for a
    /// given seed), exposing schedule-dependent nondeterminism in
    /// applications.
    seed: u64,
    /// Decision counter feeding the perturbation stream.
    decisions: u64,
}

impl Scheduler {
    /// Create a scheduler with the given policy.
    pub fn new(policy: Policy) -> Self {
        Scheduler {
            policy,
            resources: Vec::new(),
            active: Vec::new(),
            forbidden: Vec::new(),
            global: ReadyQueue::default(),
            local: Vec::new(),
            hints: Vec::new(),
            backlog: BTreeSet::new(),
            by_space: Vec::new(),
            score: Vec::new(),
            scored: Vec::new(),
            stats: SchedStats::default(),
            queued: 0,
            seed: 0,
            decisions: 0,
        }
    }

    /// Set the tie-break perturbation seed (see the `seed` field docs);
    /// `0` disables perturbation. Builder-style.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The active policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Register a resource; returns its id.
    pub fn register(&mut self, info: ResourceInfo) -> ResourceId {
        let id = ResourceId(self.resources.len());
        let at = self.by_space.partition_point(|&(s, _)| s <= info.space);
        self.by_space.insert(at, (info.space, id.0));
        self.resources.push(info);
        self.active.push(true);
        self.forbidden.push(None);
        self.local.push(ReadyQueue::default());
        self.hints.push(ReadyQueue::default());
        id
    }

    /// Re-file `resource` in or out of the steal backlog after its local
    /// queue changed length.
    fn sync_backlog(&mut self, resource: usize) {
        if self.local[resource].len() >= STEAL_THRESHOLD {
            self.backlog.insert(resource);
        } else {
            self.backlog.remove(&resource);
        }
    }

    /// Take `resource` out of service (an injected device loss): its
    /// queued work — local placements and successor hints — migrates to
    /// the global queue for surviving resources to pick up, and the
    /// resource is skipped by placement, hand-out and stealing from now
    /// on. Idempotent.
    pub fn deactivate(&mut self, resource: ResourceId) {
        if !self.active[resource.0] {
            return;
        }
        self.active[resource.0] = false;
        self.migrate_to_global(resource.0, [true, true]);
    }

    /// Move `resource`'s hinted, then locally queued, tasks of the
    /// device kinds in `kinds` to the back of the global queue, each
    /// group in its queue order.
    fn migrate_to_global(&mut self, resource: usize, kinds: Kinds) {
        let mut orphans = Vec::new();
        self.hints[resource].take(kinds, &mut orphans);
        self.local[resource].take(kinds, &mut orphans);
        for t in orphans {
            self.global.push(t);
        }
        self.sync_backlog(resource);
    }

    /// Is `resource` still in service?
    pub fn is_active(&self, resource: ResourceId) -> bool {
        self.active[resource.0]
    }

    /// Bring `resource` (back) into service — elastic membership's dual
    /// of [`deactivate`](Scheduler::deactivate): placement, hand-out,
    /// stealing and affinity scoring include it again from now on, with
    /// the same deterministic index-order tie-breaks as a resource that
    /// was registered from the start (its id never changed, only its
    /// service bit). Any forbidden device kind is cleared: a joining
    /// node arrives whole, devices and all. Idempotent.
    pub fn adopt(&mut self, resource: ResourceId) {
        self.active[resource.0] = true;
        self.forbidden[resource.0] = None;
    }

    /// Stop routing `device`-kind tasks to `resource` while keeping it
    /// in service for everything else: the master calls this on a node
    /// proxy when the node reports its last GPU down, so CUDA work no
    /// longer strands on a queue the node can never drain. Already
    /// queued tasks of that kind migrate to the global queue for
    /// surviving resources. Idempotent.
    pub fn forbid(&mut self, resource: ResourceId, device: Device) {
        if self.forbidden[resource.0] == Some(device) {
            return;
        }
        self.forbidden[resource.0] = Some(device);
        self.migrate_to_global(resource.0, DEVICES.map(|d| d == device));
    }

    /// Withdraw `resource` entirely — whole-node loss, the
    /// generalisation of [`deactivate`](Scheduler::deactivate) (a lost
    /// GPU) and [`forbid`](Scheduler::forbid) (a node that can no longer
    /// run one device kind): the resource is taken out of service for
    /// *every* device kind, its queued placements and hints migrate to
    /// the global queue, and any task **no surviving resource can
    /// serve** is drained out and returned for the caller to fail
    /// closed on. Idempotent.
    pub fn withdraw(&mut self, resource: ResourceId) -> Vec<TaskId> {
        self.deactivate(resource);
        self.drain_unservable()
    }

    /// Can `resource` currently be handed a `device`-kind task?
    fn serves(&self, resource: usize, device: Device) -> bool {
        self.active[resource]
            && self.resources[resource].kind.accepts(device)
            && self.forbidden[resource] != Some(device)
    }

    /// Remove and return every queued task no surviving resource can
    /// execute (e.g. CUDA tasks on a node whose last GPU died — the
    /// machine-wide fuse prevents this, but a *node* can lose all its
    /// GPUs). The caller re-routes them elsewhere.
    pub fn drain_unservable(&mut self) -> Vec<TaskId> {
        let unservable = DEVICES.map(|d| !(0..self.resources.len()).any(|i| self.serves(i, d)));
        let mut drained = Vec::new();
        let queues = self.hints.iter_mut().chain(self.local.iter_mut()).chain([&mut self.global]);
        for q in queues {
            q.take(unservable, &mut drained);
        }
        if drained.is_empty() {
            return Vec::new();
        }
        self.queued -= drained.len();
        for i in 0..self.local.len() {
            self.sync_backlog(i);
        }
        drained.into_iter().map(|t| t.id).collect()
    }

    /// Number of registered resources.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// Tasks currently queued (not yet handed to a resource).
    pub fn queued(&self) -> usize {
        self.queued
    }

    /// Decision counters.
    pub fn stats(&self) -> SchedStats {
        self.stats.clone()
    }

    fn note_enqueue(&mut self) {
        self.stats.submitted += 1;
        self.stats.max_queued = self.stats.max_queued.max(self.queued as u64);
    }

    /// Enqueue a ready task.
    pub fn submit(&mut self, desc: &TaskDesc, oracle: &dyn LocalityOracle) {
        self.queued += 1;
        self.note_enqueue();
        match self.policy {
            Policy::BreadthFirst | Policy::Dependencies => self.global.push(Queued::of(desc)),
            Policy::Affinity => self.place_by_affinity(desc, oracle),
        }
    }

    /// Notification that `resource` finished a task whose completion
    /// released `ready_successors`. The scheduler enqueues them; under
    /// the `dependencies` policy one eligible successor is pinned to the
    /// finishing resource so it runs next and reuses the data.
    pub fn task_completed(
        &mut self,
        resource: ResourceId,
        ready_successors: &[&TaskDesc],
        oracle: &dyn LocalityOracle,
    ) {
        match self.policy {
            Policy::Dependencies => {
                let mut hinted = false;
                for desc in ready_successors {
                    let task = Queued::of(desc);
                    self.queued += 1;
                    self.note_enqueue();
                    if !hinted && self.serves(resource.0, task.device) {
                        self.hints[resource.0].push(task);
                        hinted = true;
                    } else {
                        self.global.push(task);
                    }
                }
            }
            _ => {
                for desc in ready_successors {
                    self.submit(desc, oracle);
                }
            }
        }
    }

    fn place_by_affinity(&mut self, desc: &TaskDesc, oracle: &dyn LocalityOracle) {
        let task = Queued::of(desc);
        // Only resources on a space holding some of the task's data can
        // score above zero: one holder lookup per copy region, however
        // many resources are registered.
        self.score.resize(self.resources.len(), 0);
        let (by_space, score, scored) = (&self.by_space, &mut self.score, &mut self.scored);
        for a in desc.copies() {
            // Written data weighs double: moving a producer chain's
            // output is costlier than re-fetching an input.
            let w = if a.kind.writes() { 2 } else { 1 };
            oracle.holders(&a.region, &mut |space, bytes| {
                let gain = w * bytes;
                if gain == 0 {
                    return;
                }
                let from = by_space.partition_point(|&(s, _)| s < space);
                for &(_, i) in by_space[from..].iter().take_while(|&&(s, _)| s == space) {
                    if score[i] == 0 {
                        scored.push(i);
                    }
                    score[i] += gain;
                }
            });
        }
        // Highest weighted score wins; per the paper, "if there is no
        // highest affinity" (a tie, or no resident data at all) the task
        // goes to the global queue for demand-driven pickup. A winner is
        // unique, so the order resources were scored in is irrelevant.
        let mut best: Option<(u64, usize)> = None;
        let mut tied = false;
        let mut scored = std::mem::take(&mut self.scored);
        for i in scored.drain(..) {
            let s = std::mem::take(&mut self.score[i]);
            if !self.serves(i, task.device) {
                continue;
            }
            match best {
                Some((b, _)) if s < b => {}
                Some((b, _)) if s == b => tied = true,
                _ => {
                    best = Some((s, i));
                    tied = false;
                }
            }
        }
        self.scored = scored;
        match best {
            Some((_, i)) if !tied => {
                self.local[i].push(task);
                self.sync_backlog(i);
            }
            _ => self.global.push(task),
        }
    }

    /// Hand the next task to `resource`, or `None` if nothing eligible
    /// is queued. Order of preference: successor hint, local queue,
    /// global queue, steal within the steal group.
    pub fn next(&mut self, resource: ResourceId) -> Option<TaskId> {
        self.next_matching(resource, |_| true)
    }

    /// Like [`next`](Scheduler::next), but only tasks whose device kind
    /// passes `allow` are eligible — the communication thread uses this
    /// to enforce per-device-kind in-flight caps on remote nodes.
    pub fn next_matching(
        &mut self,
        resource: ResourceId,
        allow: impl Fn(Device) -> bool,
    ) -> Option<TaskId> {
        if !self.active[resource.0] {
            return None;
        }
        let kind = self.resources[resource.0].kind;
        let banned = self.forbidden[resource.0];
        let eligible = DEVICES.map(|d| kind.accepts(d) && banned != Some(d) && allow(d));
        // Highest priority wins; FIFO within a priority level — unless a
        // perturbation seed is set, in which case the tie-break among
        // equal-priority eligible tasks is drawn from a deterministic
        // pseudo-random stream (schedule exploration).
        let salt = if self.seed == 0 {
            0
        } else {
            self.decisions += 1;
            splitmix64(self.seed ^ self.decisions)
        };
        // An idle poll costs O(1) however many resources are registered
        // (the decision above still counts, keeping seeded streams).
        if self.queued == 0 {
            return None;
        }

        if let Some(t) = self.hints[resource.0].pick(eligible, salt) {
            self.queued -= 1;
            self.stats.successor_hits += 1;
            return Some(t);
        }

        if let Some(t) = self.local[resource.0].pick(eligible, salt) {
            self.sync_backlog(resource.0);
            self.queued -= 1;
            self.stats.local_hits += 1;
            return Some(t);
        }

        if let Some(t) = self.global.pick(eligible, salt) {
            self.queued -= 1;
            self.stats.global_hits += 1;
            return Some(t);
        }

        if self.policy == Policy::Affinity {
            // Steal from the back of the longest local queue in our
            // group — but only from a backlogged victim (the `backlog`
            // index), so the search is over queued work, not resources.
            let group = self.resources[resource.0].steal_group;
            let victim = self
                .backlog
                .iter()
                .copied()
                .filter(|&i| i != resource.0 && self.active[i])
                .filter(|&i| self.resources[i].steal_group == group)
                .filter(|&i| self.local[i].holds_any(eligible))
                .max_by_key(|&i| (self.local[i].len(), usize::MAX - i));
            if let Some(v) = victim {
                let t = self.local[v].steal(eligible).expect("victim filtered to hold a task");
                self.sync_backlog(v);
                self.queued -= 1;
                self.stats.steals += 1;
                return Some(t);
            }
        }

        None
    }
}

/// SplitMix64 — the standard 64-bit finalizer used as the perturbation
/// stream. Chosen for statelessness: the n-th decision's draw depends
/// only on `(seed, n)`, keeping perturbed runs reproducible.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompss_mem::{Access, DataId};
    use std::collections::HashMap;

    fn desc(id: u64, device: Device, copies: &[(u64, u64, u64)]) -> TaskDesc {
        TaskDesc {
            id: TaskId(id),
            label: format!("t{id}"),
            device,
            deps: copies
                .iter()
                .map(|&(d, o, l)| Access::inout(Region::new(DataId(d), o, l)))
                .collect(),
            copy_deps: true,
            extra_copies: vec![],
            priority: 0,
        }
    }

    fn smp(space: u32) -> ResourceInfo {
        ResourceInfo { kind: ResourceKind::SmpWorker, space: SpaceId(space), steal_group: 0 }
    }

    fn gpu(space: u32) -> ResourceInfo {
        ResourceInfo { kind: ResourceKind::GpuManager, space: SpaceId(space), steal_group: 0 }
    }

    struct MapOracle(HashMap<(u64, u32), u64>);

    impl LocalityOracle for MapOracle {
        fn holders(&self, region: &Region, found: &mut dyn FnMut(SpaceId, u64)) {
            for (&(data, space), &bytes) in &self.0 {
                if data == region.data.0 {
                    found(SpaceId(space), bytes);
                }
            }
        }
    }

    #[test]
    fn resource_kind_accepts() {
        assert!(ResourceKind::SmpWorker.accepts(Device::Smp));
        assert!(!ResourceKind::SmpWorker.accepts(Device::Cuda));
        assert!(ResourceKind::GpuManager.accepts(Device::Cuda));
        assert!(!ResourceKind::GpuManager.accepts(Device::Smp));
        assert!(ResourceKind::NodeProxy.accepts(Device::Smp));
        assert!(ResourceKind::NodeProxy.accepts(Device::Cuda));
    }

    #[test]
    fn breadth_first_is_fifo() {
        let mut s = Scheduler::new(Policy::BreadthFirst);
        let w = s.register(smp(0));
        for i in 0..3 {
            s.submit(&desc(i, Device::Smp, &[]), &NoLocality);
        }
        assert_eq!(s.queued(), 3);
        assert_eq!(s.next(w), Some(TaskId(0)));
        assert_eq!(s.next(w), Some(TaskId(1)));
        assert_eq!(s.next(w), Some(TaskId(2)));
        assert_eq!(s.next(w), None);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn device_mismatch_skipped_in_fifo() {
        let mut s = Scheduler::new(Policy::BreadthFirst);
        let w = s.register(smp(0));
        let g = s.register(gpu(1));
        s.submit(&desc(0, Device::Cuda, &[]), &NoLocality);
        s.submit(&desc(1, Device::Smp, &[]), &NoLocality);
        // The SMP worker skips the CUDA task and takes the SMP one.
        assert_eq!(s.next(w), Some(TaskId(1)));
        assert_eq!(s.next(w), None);
        assert_eq!(s.next(g), Some(TaskId(0)));
    }

    #[test]
    fn dependencies_policy_prefers_released_successor() {
        let mut s = Scheduler::new(Policy::Dependencies);
        let w0 = s.register(smp(0));
        let w1 = s.register(smp(0));
        // Some unrelated work is queued first.
        s.submit(&desc(10, Device::Smp, &[]), &NoLocality);
        // w0 finishes a task releasing successors 20 and 21.
        let s20 = desc(20, Device::Smp, &[]);
        let s21 = desc(21, Device::Smp, &[]);
        s.task_completed(w0, &[&s20, &s21], &NoLocality);
        // w0 gets its successor before the older queued task.
        assert_eq!(s.next(w0), Some(TaskId(20)));
        assert_eq!(s.stats().successor_hits, 1);
        // The other successor went to the global queue, behind task 10.
        assert_eq!(s.next(w1), Some(TaskId(10)));
        assert_eq!(s.next(w1), Some(TaskId(21)));
    }

    #[test]
    fn dependencies_hint_respects_device() {
        let mut s = Scheduler::new(Policy::Dependencies);
        let g = s.register(gpu(1));
        // A GPU manager finishing a task cannot take an SMP successor.
        let smp_succ = desc(5, Device::Smp, &[]);
        s.task_completed(g, &[&smp_succ], &NoLocality);
        assert_eq!(s.next(g), None, "SMP successor must not be hinted to a GPU");
        let w = s.register(smp(0));
        assert_eq!(s.next(w), Some(TaskId(5)));
    }

    #[test]
    fn adopt_brings_a_resource_into_service() {
        // A joining node's proxy is registered at construction but held
        // out of service; adopt() makes it a full scheduling citizen.
        let mut s = Scheduler::new(Policy::BreadthFirst);
        let w = s.register(smp(0));
        s.deactivate(w);
        s.submit(&desc(0, Device::Smp, &[]), &NoLocality);
        assert_eq!(s.next(w), None, "out-of-service resources are never handed work");
        s.adopt(w);
        assert!(s.is_active(w));
        assert_eq!(s.next(w), Some(TaskId(0)));
        // Idempotent: adopting an active resource changes nothing.
        s.adopt(w);
        assert_eq!(s.next(w), None);
    }

    #[test]
    fn adopt_clears_forbidden_kinds_and_restores_affinity_tie_breaks() {
        // An adopted resource scores affinity exactly like one that was
        // never away: same index-order iteration, so a genuine tie
        // still goes to the global queue rather than favouring either
        // contender.
        let mut s = Scheduler::new(Policy::Affinity);
        let g0 = s.register(gpu(10));
        let g1 = s.register(gpu(11));
        s.forbid(g1, Device::Cuda);
        s.deactivate(g1);
        s.adopt(g1);
        let oracle = MapOracle(HashMap::from([((7, 10), 4096), ((7, 11), 4096)]));
        s.submit(&desc(0, Device::Cuda, &[(7, 0, 4096)]), &oracle);
        // Tie between g0 and g1: global queue, demand-driven pickup —
        // and the adopted g1 may serve CUDA again (forbid was cleared).
        assert_eq!(s.next(g1), Some(TaskId(0)));
        assert_eq!(s.stats().global_hits, 1);
        // With g1 holding strictly more bytes, placement picks it over
        // the never-deactivated g0, proving the tie-break order healed.
        let oracle = MapOracle(HashMap::from([((8, 10), 100), ((8, 11), 4096)]));
        s.submit(&desc(1, Device::Cuda, &[(8, 0, 4096)]), &oracle);
        assert_eq!(s.next(g1), Some(TaskId(1)));
        assert_eq!(s.stats().local_hits, 1);
        let _ = g0;
    }

    #[test]
    fn affinity_places_on_resource_holding_data() {
        let mut s = Scheduler::new(Policy::Affinity);
        let g0 = s.register(gpu(10));
        let g1 = s.register(gpu(11));
        let oracle = MapOracle(HashMap::from([((7, 11), 4096)]));
        // Task touching data 7, which lives at space 11 (g1).
        s.submit(&desc(0, Device::Cuda, &[(7, 0, 4096)]), &oracle);
        assert_eq!(s.next(g1), Some(TaskId(0)));
        assert_eq!(s.stats().local_hits, 1);
        let _ = g0;
    }

    #[test]
    fn affinity_prefers_bigger_bytes() {
        let mut s = Scheduler::new(Policy::Affinity);
        let g0 = s.register(gpu(10));
        let g1 = s.register(gpu(11));
        let oracle = MapOracle(HashMap::from([((1, 10), 100), ((2, 11), 4096)]));
        // Touches data 1 (100 B at g0) and data 2 (4 KiB at g1): g1 wins
        // the placement (g0 could still steal it later, so ask g1 first).
        s.submit(&desc(0, Device::Cuda, &[(1, 0, 100), (2, 0, 4096)]), &oracle);
        assert_eq!(s.next(g1), Some(TaskId(0)));
        assert_eq!(s.stats().local_hits, 1);
        assert_eq!(s.next(g0), None);
    }

    #[test]
    fn placement_costs_one_holder_lookup_per_copy_region() {
        // Complexity pin: with 1024 resources registered, scoring a task
        // asks the oracle once per copy region, not once per resource.
        struct Counting(std::cell::Cell<u64>);
        impl LocalityOracle for Counting {
            fn holders(&self, region: &Region, found: &mut dyn FnMut(SpaceId, u64)) {
                self.0.set(self.0.get() + 1);
                found(SpaceId((region.data.0 % 1024) as u32), region.len);
            }
        }
        let mut s = Scheduler::new(Policy::Affinity);
        let res: Vec<ResourceId> = (0..1024).map(|i| s.register(gpu(i))).collect();
        let oracle = Counting(std::cell::Cell::new(0));
        for t in 0..64 {
            // The big region (at space t) outweighs the small one.
            s.submit(&desc(t, Device::Cuda, &[(t, 0, 4096), (t + 512, 0, 64)]), &oracle);
        }
        assert_eq!(oracle.0.get(), 64 * 2, "one lookup per copy region");
        for t in 0..64 {
            assert_eq!(s.next(res[t as usize]), Some(TaskId(t)));
        }
        assert_eq!(s.stats().local_hits, 64);
    }

    #[test]
    fn affinity_without_locality_goes_global() {
        let mut s = Scheduler::new(Policy::Affinity);
        let g0 = s.register(gpu(10));
        s.submit(&desc(0, Device::Cuda, &[(1, 0, 64)]), &NoLocality);
        assert_eq!(s.next(g0), Some(TaskId(0)));
        assert_eq!(s.stats().global_hits, 1);
    }

    #[test]
    fn affinity_steals_within_group_from_longest_queue() {
        let mut s = Scheduler::new(Policy::Affinity);
        let g0 = s.register(gpu(10));
        let g1 = s.register(gpu(11));
        let oracle = MapOracle(HashMap::from([((1, 11), 64)]));
        // Three tasks all affine to g1.
        for i in 0..3 {
            s.submit(&desc(i, Device::Cuda, &[(1, 0, 64)]), &oracle);
        }
        // Idle g0 steals from the back of g1's queue.
        assert_eq!(s.next(g0), Some(TaskId(2)));
        assert_eq!(s.stats().steals, 1);
        assert_eq!(s.next(g1), Some(TaskId(0)));
        assert_eq!(s.next(g1), Some(TaskId(1)));
    }

    #[test]
    fn no_steal_across_groups() {
        let mut s = Scheduler::new(Policy::Affinity);
        let mut p0 =
            ResourceInfo { kind: ResourceKind::NodeProxy, space: SpaceId(20), steal_group: 1 };
        let n0 = s.register(p0.clone());
        p0.space = SpaceId(21);
        p0.steal_group = 2;
        let n1 = s.register(p0);
        let oracle = MapOracle(HashMap::from([((1, 21), 64)]));
        s.submit(&desc(0, Device::Cuda, &[(1, 0, 64)]), &oracle);
        assert_eq!(s.next(n0), None, "proxies in different groups must not steal");
        assert_eq!(s.next(n1), Some(TaskId(0)));
    }

    #[test]
    fn queued_count_tracks_all_paths() {
        let mut s = Scheduler::new(Policy::Affinity);
        let g0 = s.register(gpu(10));
        let oracle = MapOracle(HashMap::from([((1, 10), 64)]));
        s.submit(&desc(0, Device::Cuda, &[(1, 0, 64)]), &oracle);
        s.submit(&desc(1, Device::Cuda, &[]), &oracle);
        assert_eq!(s.queued(), 2);
        s.next(g0);
        s.next(g0);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn priority_orders_global_queue() {
        let mut s = Scheduler::new(Policy::BreadthFirst);
        let w = s.register(smp(0));
        let mut lo = desc(1, Device::Smp, &[]);
        lo.priority = 0;
        let mut hi = desc(2, Device::Smp, &[]);
        hi.priority = 5;
        let mut mid = desc(3, Device::Smp, &[]);
        mid.priority = 5;
        s.submit(&lo, &NoLocality);
        s.submit(&hi, &NoLocality);
        s.submit(&mid, &NoLocality);
        // Highest priority first; FIFO among equal priorities.
        assert_eq!(s.next(w), Some(TaskId(2)));
        assert_eq!(s.next(w), Some(TaskId(3)));
        assert_eq!(s.next(w), Some(TaskId(1)));
    }

    #[test]
    fn seed_zero_matches_unseeded_fifo_exactly() {
        let run = |seed: u64| {
            let mut s = Scheduler::new(Policy::BreadthFirst).with_seed(seed);
            let w = s.register(smp(0));
            for i in 0..8 {
                s.submit(&desc(i, Device::Smp, &[]), &NoLocality);
            }
            let mut order = Vec::new();
            while let Some(t) = s.next(w) {
                order.push(t);
            }
            order
        };
        assert_eq!(run(0), (0..8).map(TaskId).collect::<Vec<_>>());
    }

    #[test]
    fn nonzero_seed_permutes_equal_priority_ties_deterministically() {
        let run = |seed: u64| {
            let mut s = Scheduler::new(Policy::BreadthFirst).with_seed(seed);
            let w = s.register(smp(0));
            for i in 0..8 {
                s.submit(&desc(i, Device::Smp, &[]), &NoLocality);
            }
            let mut order = Vec::new();
            while let Some(t) = s.next(w) {
                order.push(t);
            }
            order
        };
        let fifo: Vec<_> = (0..8).map(TaskId).collect();
        assert_eq!(run(7), run(7), "same seed, same schedule");
        assert_ne!(run(7), fifo, "a perturbed seed must actually change tie-breaks");
        // All eight tasks still get scheduled exactly once.
        let mut sorted = run(7);
        sorted.sort();
        assert_eq!(sorted, fifo);
    }

    #[test]
    fn perturbation_never_violates_priority_order() {
        let mut s = Scheduler::new(Policy::BreadthFirst).with_seed(99);
        let w = s.register(smp(0));
        let mut hi = desc(50, Device::Smp, &[]);
        hi.priority = 10;
        for i in 0..4 {
            s.submit(&desc(i, Device::Smp, &[]), &NoLocality);
        }
        s.submit(&hi, &NoLocality);
        assert_eq!(s.next(w), Some(TaskId(50)), "priority beats any tie-break seed");
    }

    #[test]
    fn deactivated_resource_gets_nothing_and_its_queue_migrates() {
        let mut s = Scheduler::new(Policy::Affinity);
        let g0 = s.register(gpu(10));
        let g1 = s.register(gpu(11));
        let oracle = MapOracle(HashMap::from([((1, 11), 64)]));
        // Both tasks placed locally on g1, then g1 dies.
        s.submit(&desc(0, Device::Cuda, &[(1, 0, 64)]), &oracle);
        s.submit(&desc(1, Device::Cuda, &[(1, 0, 64)]), &oracle);
        s.deactivate(g1);
        assert!(!s.is_active(g1));
        assert_eq!(s.next(g1), None, "a dead resource is handed no work");
        // The orphans are available to the survivor via the global queue.
        assert_eq!(s.next(g0), Some(TaskId(0)));
        assert_eq!(s.next(g0), Some(TaskId(1)));
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn deactivated_resource_is_not_placed_on_or_stolen_from() {
        let mut s = Scheduler::new(Policy::Affinity);
        let g0 = s.register(gpu(10));
        let g1 = s.register(gpu(11));
        s.deactivate(g1);
        let oracle = MapOracle(HashMap::from([((1, 11), 64)]));
        // Affinity points at the dead g1: placement must not use it.
        s.submit(&desc(0, Device::Cuda, &[(1, 0, 64)]), &oracle);
        assert_eq!(s.next(g0), Some(TaskId(0)), "task must be reachable by the survivor");
    }

    #[test]
    fn dead_resource_successor_hint_goes_global() {
        let mut s = Scheduler::new(Policy::Dependencies);
        let w0 = s.register(smp(0));
        let w1 = s.register(smp(0));
        s.deactivate(w0);
        let succ = desc(5, Device::Smp, &[]);
        s.task_completed(w0, &[&succ], &NoLocality);
        assert_eq!(s.next(w0), None);
        assert_eq!(s.next(w1), Some(TaskId(5)));
    }

    #[test]
    fn drain_unservable_returns_orphaned_device_tasks() {
        let mut s = Scheduler::new(Policy::BreadthFirst);
        let w = s.register(smp(0));
        let g = s.register(gpu(1));
        s.submit(&desc(0, Device::Cuda, &[]), &NoLocality);
        s.submit(&desc(1, Device::Smp, &[]), &NoLocality);
        s.submit(&desc(2, Device::Cuda, &[]), &NoLocality);
        s.deactivate(g);
        let orphans = s.drain_unservable();
        assert_eq!(orphans, vec![TaskId(0), TaskId(2)]);
        assert_eq!(s.queued(), 1);
        assert_eq!(s.next(w), Some(TaskId(1)));
        // With every kind still servable, nothing drains.
        assert!(s.drain_unservable().is_empty());
    }

    #[test]
    fn forbid_migrates_queued_kind_and_blocks_future_placement() {
        let mut s = Scheduler::new(Policy::Affinity);
        let proxy =
            ResourceInfo { kind: ResourceKind::NodeProxy, space: SpaceId(20), steal_group: 1 };
        let p = s.register(proxy);
        let g = s.register(gpu(10));
        let oracle = MapOracle(HashMap::from([((1, 20), 64)]));
        // Two CUDA tasks and an SMP task, all affine to the proxy.
        s.submit(&desc(0, Device::Cuda, &[(1, 0, 64)]), &oracle);
        s.submit(&desc(1, Device::Smp, &[(1, 0, 64)]), &oracle);
        s.submit(&desc(2, Device::Cuda, &[(1, 0, 64)]), &oracle);
        // The node reports its last GPU down: CUDA work must leave the
        // proxy queue (for the surviving GPU) but SMP work stays.
        s.forbid(p, Device::Cuda);
        assert_eq!(s.next(p), Some(TaskId(1)), "proxy keeps serving SMP");
        assert_eq!(s.next(p), None, "proxy is handed no CUDA work");
        assert_eq!(s.next(g), Some(TaskId(0)));
        assert_eq!(s.next(g), Some(TaskId(2)));
        // Future placements skip the forbidden proxy even with affinity.
        s.submit(&desc(3, Device::Cuda, &[(1, 0, 64)]), &oracle);
        assert_eq!(s.next(p), None);
        assert_eq!(s.next(g), Some(TaskId(3)));
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn drain_unservable_counts_forbidden_resources_as_dead() {
        let mut s = Scheduler::new(Policy::BreadthFirst);
        let p = s.register(ResourceInfo {
            kind: ResourceKind::NodeProxy,
            space: SpaceId(20),
            steal_group: 1,
        });
        s.submit(&desc(0, Device::Cuda, &[]), &NoLocality);
        s.submit(&desc(1, Device::Smp, &[]), &NoLocality);
        s.forbid(p, Device::Cuda);
        assert_eq!(s.drain_unservable(), vec![TaskId(0)]);
        assert_eq!(s.next(p), Some(TaskId(1)));
    }

    #[test]
    fn withdraw_rehomes_servable_work_and_returns_the_rest() {
        let mut s = Scheduler::new(Policy::Affinity);
        let proxy =
            ResourceInfo { kind: ResourceKind::NodeProxy, space: SpaceId(20), steal_group: 1 };
        let p = s.register(proxy);
        let w = s.register(smp(0));
        let oracle = MapOracle(HashMap::from([((1, 20), 64)]));
        // An SMP task placed on the proxy (survivable by the worker) and
        // a CUDA task only the proxy could ever serve.
        s.submit(&desc(0, Device::Smp, &[(1, 0, 64)]), &oracle);
        s.submit(&desc(1, Device::Cuda, &[(1, 0, 64)]), &oracle);
        let orphans = s.withdraw(p);
        assert_eq!(orphans, vec![TaskId(1)], "unservable CUDA task is surfaced");
        assert!(!s.is_active(p));
        assert_eq!(s.next(p), None, "a withdrawn node is handed nothing");
        assert_eq!(s.next(w), Some(TaskId(0)), "SMP work re-homed to the survivor");
        assert_eq!(s.queued(), 0);
        // Idempotent.
        assert!(s.withdraw(p).is_empty());
    }

    #[test]
    fn chart_labels_match_paper() {
        assert_eq!(Policy::BreadthFirst.chart_label(), "bf");
        assert_eq!(Policy::Dependencies.chart_label(), "default");
        assert_eq!(Policy::Affinity.chart_label(), "affinity");
    }
}
