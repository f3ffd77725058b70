//! Differential test of the indexed scheduler against a scan-based
//! reference: the straightforward implementation that scores every
//! registered resource on each placement (one `bytes_at` query per
//! resource and copy region), scans every resource for a steal victim,
//! and keeps each queue as one `VecDeque` scanned in full for the best
//! eligible task. The indexed [`Scheduler`] — device-indexed ready
//! queues, backlog index, holder lookups — must make exactly the same
//! decisions — same hand-outs, queue depth, counters and returned
//! orphans — under random operation sequences covering every policy,
//! seeded and unseeded tie-breaks, mixed priorities and device kinds,
//! several steal groups and resources that share a space (so affinity
//! scores tie).

use std::collections::{BTreeMap, VecDeque};

use proptest::prelude::*;

use ompss_core::{Device, TaskDesc, TaskId};
use ompss_mem::{Access, DataId, Region, SpaceId};
use ompss_sched::{
    LocalityOracle, Policy, ResourceId, ResourceInfo, ResourceKind, SchedStats, Scheduler,
};

/// Valid bytes per `(data, space)`: both schedulers read the same map,
/// the indexed one by holder lookup, the reference one point by point.
#[derive(Default)]
struct Holdings(BTreeMap<(u64, u32), u64>);

impl Holdings {
    fn bytes_at(&self, region: &Region, space: SpaceId) -> u64 {
        self.0.get(&(region.data.0, space.0)).copied().unwrap_or(0)
    }
}

impl LocalityOracle for Holdings {
    fn holders(&self, region: &Region, found: &mut dyn FnMut(SpaceId, u64)) {
        let d = region.data.0;
        for (&(_, space), &bytes) in self.0.range((d, 0)..=(d, u32::MAX)) {
            found(SpaceId(space), bytes);
        }
    }
}

// ---- the scan-based reference model ---------------------------------

struct RefTask {
    id: TaskId,
    device: Device,
    priority: i32,
    copies: Vec<(Region, u64)>,
}

impl RefTask {
    fn from_desc(desc: &TaskDesc) -> Self {
        RefTask {
            id: desc.id,
            device: desc.device,
            priority: desc.priority,
            copies: desc
                .copies()
                .iter()
                .map(|a| (a.region, if a.kind.writes() { 2 } else { 1 }))
                .collect(),
        }
    }
}

struct Reference {
    policy: Policy,
    resources: Vec<ResourceInfo>,
    active: Vec<bool>,
    forbidden: Vec<Option<Device>>,
    global: VecDeque<RefTask>,
    local: Vec<VecDeque<RefTask>>,
    hints: Vec<VecDeque<RefTask>>,
    stats: SchedStats,
    queued: usize,
    seed: u64,
    decisions: u64,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl Reference {
    fn new(policy: Policy, seed: u64) -> Self {
        Reference {
            policy,
            resources: Vec::new(),
            active: Vec::new(),
            forbidden: Vec::new(),
            global: VecDeque::new(),
            local: Vec::new(),
            hints: Vec::new(),
            stats: SchedStats::default(),
            queued: 0,
            seed,
            decisions: 0,
        }
    }

    fn register(&mut self, info: ResourceInfo) {
        self.resources.push(info);
        self.active.push(true);
        self.forbidden.push(None);
        self.local.push(VecDeque::new());
        self.hints.push(VecDeque::new());
    }

    fn deactivate(&mut self, r: usize) {
        if !self.active[r] {
            return;
        }
        self.active[r] = false;
        let orphans: Vec<RefTask> =
            self.hints[r].drain(..).chain(self.local[r].drain(..)).collect();
        self.global.extend(orphans);
    }

    fn adopt(&mut self, r: usize) {
        self.active[r] = true;
        self.forbidden[r] = None;
    }

    fn forbid(&mut self, r: usize, device: Device) {
        if self.forbidden[r] == Some(device) {
            return;
        }
        self.forbidden[r] = Some(device);
        let mut out = Vec::new();
        for q in [&mut self.hints[r], &mut self.local[r]] {
            let mut i = 0;
            while i < q.len() {
                if q[i].device == device {
                    out.push(q.remove(i).unwrap());
                } else {
                    i += 1;
                }
            }
        }
        self.global.extend(out);
    }

    fn withdraw(&mut self, r: usize) -> Vec<TaskId> {
        self.deactivate(r);
        self.drain_unservable()
    }

    fn serves(&self, r: usize, device: Device) -> bool {
        self.active[r]
            && self.resources[r].kind.accepts(device)
            && self.forbidden[r] != Some(device)
    }

    fn drain_unservable(&mut self) -> Vec<TaskId> {
        let mut orphans = Vec::new();
        let servable = |t: &RefTask, res: &[ResourceInfo], act: &[bool], fb: &[Option<Device>]| {
            (0..res.len())
                .any(|i| act[i] && res[i].kind.accepts(t.device) && fb[i] != Some(t.device))
        };
        let (resources, active, forbidden) = (&self.resources, &self.active, &self.forbidden);
        let queues = self.hints.iter_mut().chain(self.local.iter_mut()).chain([&mut self.global]);
        for q in queues {
            let mut i = 0;
            while i < q.len() {
                if servable(&q[i], resources, active, forbidden) {
                    i += 1;
                } else {
                    orphans.push(q.remove(i).unwrap().id);
                }
            }
        }
        self.queued -= orphans.len();
        orphans
    }

    fn note_enqueue(&mut self) {
        self.stats.submitted += 1;
        self.stats.max_queued = self.stats.max_queued.max(self.queued as u64);
    }

    fn submit(&mut self, desc: &TaskDesc, oracle: &Holdings) {
        let task = RefTask::from_desc(desc);
        self.queued += 1;
        self.note_enqueue();
        match self.policy {
            Policy::BreadthFirst | Policy::Dependencies => self.global.push_back(task),
            Policy::Affinity => self.place_by_affinity(task, oracle),
        }
    }

    fn task_completed(&mut self, r: usize, succs: &[TaskDesc], oracle: &Holdings) {
        match self.policy {
            Policy::Dependencies => {
                let mut hinted = false;
                for desc in succs {
                    let task = RefTask::from_desc(desc);
                    self.queued += 1;
                    self.note_enqueue();
                    if !hinted && self.serves(r, task.device) {
                        self.hints[r].push_back(task);
                        hinted = true;
                    } else {
                        self.global.push_back(task);
                    }
                }
            }
            _ => {
                for desc in succs {
                    self.submit(desc, oracle);
                }
            }
        }
    }

    fn place_by_affinity(&mut self, task: RefTask, oracle: &Holdings) {
        let mut best: Option<(u64, usize)> = None;
        let mut tied = false;
        for i in 0..self.resources.len() {
            if !self.serves(i, task.device) {
                continue;
            }
            let space = self.resources[i].space;
            let score: u64 = task.copies.iter().map(|(r, w)| w * oracle.bytes_at(r, space)).sum();
            if score == 0 {
                continue;
            }
            match best {
                Some((s, _)) if score > s => {
                    best = Some((score, i));
                    tied = false;
                }
                Some((s, _)) if score == s => tied = true,
                Some(_) => {}
                None => best = Some((score, i)),
            }
        }
        match best {
            Some((_, i)) if !tied => self.local[i].push_back(task),
            _ => self.global.push_back(task),
        }
    }

    fn next_matching(&mut self, r: usize, allow: impl Fn(Device) -> bool) -> Option<TaskId> {
        if !self.active[r] {
            return None;
        }
        let kind = self.resources[r].kind;
        let banned = self.forbidden[r];
        let accepts =
            |t: &RefTask| kind.accepts(t.device) && banned != Some(t.device) && allow(t.device);
        let salt = if self.seed == 0 {
            0
        } else {
            self.decisions += 1;
            splitmix64(self.seed ^ self.decisions)
        };
        fn pick(
            q: &VecDeque<RefTask>,
            accepts: impl Fn(&RefTask) -> bool,
            salt: u64,
        ) -> Option<usize> {
            let mut best_prio = i32::MIN;
            let mut candidates: Vec<usize> = Vec::new();
            for (i, t) in q.iter().enumerate() {
                if !accepts(t) {
                    continue;
                }
                if candidates.is_empty() || t.priority > best_prio {
                    best_prio = t.priority;
                    candidates.clear();
                    candidates.push(i);
                } else if t.priority == best_prio {
                    candidates.push(i);
                }
            }
            if candidates.is_empty() {
                None
            } else {
                Some(candidates[(salt % candidates.len() as u64) as usize])
            }
        }
        if let Some(pos) = pick(&self.hints[r], accepts, salt) {
            let t = self.hints[r].remove(pos).unwrap();
            self.queued -= 1;
            self.stats.successor_hits += 1;
            return Some(t.id);
        }
        if let Some(pos) = pick(&self.local[r], accepts, salt) {
            let t = self.local[r].remove(pos).unwrap();
            self.queued -= 1;
            self.stats.local_hits += 1;
            return Some(t.id);
        }
        if let Some(pos) = pick(&self.global, accepts, salt) {
            let t = self.global.remove(pos).unwrap();
            self.queued -= 1;
            self.stats.global_hits += 1;
            return Some(t.id);
        }
        if self.policy == Policy::Affinity {
            const STEAL_THRESHOLD: usize = 2;
            let group = self.resources[r].steal_group;
            let victim = (0..self.resources.len())
                .filter(|&i| i != r && self.active[i])
                .filter(|&i| self.resources[i].steal_group == group)
                .filter(|&i| self.local[i].len() >= STEAL_THRESHOLD)
                .filter(|&i| self.local[i].iter().any(&accepts))
                .max_by_key(|&i| (self.local[i].len(), usize::MAX - i));
            if let Some(v) = victim {
                let pos = self.local[v].iter().rposition(&accepts).unwrap();
                let t = self.local[v].remove(pos).unwrap();
                self.queued -= 1;
                self.stats.steals += 1;
                return Some(t.id);
            }
        }
        None
    }
}

// ---- random operation sequences -------------------------------------

/// A task to create: device, up to two data objects touched (the second
/// read-only, so placements weigh written data double), priority.
type TaskGen = (bool, u64, u64, i32);

#[derive(Debug, Clone)]
enum Op {
    Register { kind: u8, space: u32, group: u32 },
    Submit(TaskGen),
    Completed { resource: usize, succs: Vec<TaskGen> },
    Next { resource: usize, allow_smp: bool, allow_cuda: bool },
    Deactivate { resource: usize },
    Forbid { resource: usize, cuda: bool },
    Adopt { resource: usize },
    Withdraw { resource: usize },
    DrainUnservable,
    Hold { data: u64, space: u32, bytes: u64 },
}

fn gen_task() -> impl Strategy<Value = TaskGen> {
    (any::<bool>(), 0u64..6, 0u64..8, -1i32..2)
}

/// Set the bytes of one data object at one space (`k == 0` clears it).
fn gen_hold(k: std::ops::Range<u64>) -> impl Strategy<Value = Op> {
    (0u64..6, 0u32..4, k).prop_map(|(data, space, k)| Op::Hold { data, space, bytes: k * 64 })
}

fn gen_poll() -> impl Strategy<Value = Op> {
    (0usize..64).prop_map(|resource| Op::Next { resource, allow_smp: true, allow_cuda: true })
}

fn gen_op() -> impl Strategy<Value = Op> {
    // The union is uniform: submits, plain polls and holding changes
    // are listed more than once so queues fill and locality shifts.
    prop_oneof![
        (0u8..3, 0u32..4, 0u32..2).prop_map(|(kind, space, group)| Op::Register {
            kind,
            space,
            group
        }),
        gen_task().prop_map(Op::Submit),
        gen_task().prop_map(Op::Submit),
        gen_task().prop_map(Op::Submit),
        (0usize..64, proptest::collection::vec(gen_task(), 0..4))
            .prop_map(|(resource, succs)| Op::Completed { resource, succs }),
        (0usize..64, any::<bool>(), any::<bool>()).prop_map(|(resource, allow_smp, allow_cuda)| {
            Op::Next { resource, allow_smp, allow_cuda }
        }),
        gen_poll(),
        gen_poll(),
        (0usize..64).prop_map(|resource| Op::Deactivate { resource }),
        (0usize..64, any::<bool>()).prop_map(|(resource, cuda)| Op::Forbid { resource, cuda }),
        (0usize..64).prop_map(|resource| Op::Adopt { resource }),
        (0usize..64).prop_map(|resource| Op::Withdraw { resource }),
        Just(Op::DrainUnservable),
        gen_hold(0..3),
        gen_hold(0..3),
    ]
}

fn make_desc(id: u64, (cuda, written, read, priority): TaskGen) -> TaskDesc {
    let mut deps = vec![Access::inout(Region::new(DataId(written), 0, 64))];
    // Data ids 6 and 7 mean "no second region".
    if read < 6 && read != written {
        deps.push(Access::input(Region::new(DataId(read), 0, 64)));
    }
    TaskDesc {
        id: TaskId(id),
        label: String::new(),
        device: if cuda { Device::Cuda } else { Device::Smp },
        deps,
        copy_deps: true,
        extra_copies: vec![],
        priority,
    }
}

fn kind_of(k: u8) -> ResourceKind {
    match k {
        0 => ResourceKind::SmpWorker,
        1 => ResourceKind::GpuManager,
        _ => ResourceKind::NodeProxy,
    }
}

fn policy_of(sel: u8) -> Policy {
    match sel {
        0 => Policy::BreadthFirst,
        1 => Policy::Dependencies,
        _ => Policy::Affinity,
    }
}

/// Drive both schedulers through `ops` and compare every observable.
fn differential(
    policy: Policy,
    seed: u64,
    initial: &[(u8, u32, u32)],
    ops: &[Op],
) -> Result<(), TestCaseError> {
    let mut fast = Scheduler::new(policy).with_seed(seed);
    let mut reference = Reference::new(policy, seed);
    let mut oracle = Holdings::default();
    let mut next_id = 0u64;
    let register = |fast: &mut Scheduler, reference: &mut Reference, k, space, group| {
        let info = ResourceInfo { kind: kind_of(k), space: SpaceId(space), steal_group: group };
        fast.register(info.clone());
        reference.register(info);
    };
    for &(k, space, group) in initial {
        register(&mut fast, &mut reference, k, space, group);
    }
    for (step, op) in ops.iter().enumerate() {
        let n = reference.resources.len();
        match op {
            Op::Register { kind, space, group } => {
                register(&mut fast, &mut reference, *kind, *space, *group)
            }
            Op::Submit(t) => {
                let desc = make_desc(next_id, *t);
                next_id += 1;
                fast.submit(&desc, &oracle);
                reference.submit(&desc, &oracle);
            }
            Op::Completed { resource, succs } => {
                let r = resource % n;
                let descs: Vec<TaskDesc> = succs
                    .iter()
                    .map(|t| {
                        next_id += 1;
                        make_desc(next_id - 1, *t)
                    })
                    .collect();
                let refs: Vec<&TaskDesc> = descs.iter().collect();
                fast.task_completed(ResourceId(r), &refs, &oracle);
                reference.task_completed(r, &descs, &oracle);
            }
            Op::Next { resource, allow_smp, allow_cuda } => {
                let r = resource % n;
                let allow = |d: Device| match d {
                    Device::Smp => *allow_smp,
                    Device::Cuda => *allow_cuda,
                };
                let got = fast.next_matching(ResourceId(r), allow);
                let want = reference.next_matching(r, allow);
                prop_assert_eq!(got, want, "hand-out differs at step {} ({:?})", step, op);
            }
            Op::Deactivate { resource } => {
                fast.deactivate(ResourceId(resource % n));
                reference.deactivate(resource % n);
            }
            Op::Forbid { resource, cuda } => {
                let device = if *cuda { Device::Cuda } else { Device::Smp };
                fast.forbid(ResourceId(resource % n), device);
                reference.forbid(resource % n, device);
            }
            Op::Adopt { resource } => {
                fast.adopt(ResourceId(resource % n));
                reference.adopt(resource % n);
            }
            Op::Withdraw { resource } => {
                let got = fast.withdraw(ResourceId(resource % n));
                let want = reference.withdraw(resource % n);
                prop_assert_eq!(got, want, "withdraw orphans differ at step {}", step);
            }
            Op::DrainUnservable => {
                prop_assert_eq!(
                    fast.drain_unservable(),
                    reference.drain_unservable(),
                    "drained orphans differ at step {}",
                    step
                );
            }
            Op::Hold { data, space, bytes } => {
                if *bytes == 0 {
                    oracle.0.remove(&(*data, *space));
                } else {
                    oracle.0.insert((*data, *space), *bytes);
                }
            }
        }
        prop_assert_eq!(fast.queued(), reference.queued, "queued differs at step {}", step);
        prop_assert_eq!(fast.stats(), reference.stats.clone(), "stats differ at step {}", step);
    }
    // Drain: every resource polls until nobody gets anything, in both.
    loop {
        let mut progressed = false;
        for r in 0..reference.resources.len() {
            let got = fast.next(ResourceId(r));
            prop_assert_eq!(got, reference.next_matching(r, |_| true), "drain hand-out differs");
            progressed |= got.is_some();
        }
        if !progressed {
            break;
        }
    }
    prop_assert_eq!(fast.queued(), reference.queued);
    prop_assert_eq!(fast.stats(), reference.stats.clone());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn indexed_scheduler_matches_scan_reference(
        policy_sel in 0u8..3,
        seeded in any::<bool>(),
        seed in 1u64..1_000_000,
        initial in proptest::collection::vec((0u8..3, 0u32..4, 0u32..2), 1..8),
        ops in proptest::collection::vec(gen_op(), 1..160),
    ) {
        let seed = if seeded { seed } else { 0 };
        differential(policy_of(policy_sel), seed, &initial, &ops)?;
    }

    /// Affinity only, data resident from the start and many resources
    /// per space: local queues build up, so steals, ties and the
    /// backlog bookkeeping of `forbid`/`withdraw`/`drain_unservable` on
    /// non-empty queues all get exercised.
    #[test]
    fn affinity_placement_and_steals_match_scan_reference(
        seeded in any::<bool>(),
        initial in proptest::collection::vec((0u8..3, 0u32..4, 0u32..2), 4..16),
        holds in proptest::collection::vec(gen_hold(1..3), 1..12),
        ops in proptest::collection::vec(gen_op(), 1..200),
    ) {
        let all: Vec<Op> = holds.into_iter().chain(ops).collect();
        differential(Policy::Affinity, if seeded { 42 } else { 0 }, &initial, &all)?;
    }
}
