//! Differential test of the master's dispatcher against the sweep it
//! replaced: visit every node in round-robin order from the persistent
//! cursor, skip dead, absent and fully capped nodes, poll the rest with
//! `next_matching` under the node's in-flight caps, and after a
//! dispatch at visit `s` move the cursor `s + 1` past it. The indexed
//! [`Dispatcher`] polls only nodes that can take a task; it must hand
//! out the same tasks to the same nodes in the same order, leave the
//! same cursor, and advance a seeded scheduler's decision counter by
//! exactly as much — over random master states: dead, absent and
//! joining nodes, in-flight counts against both caps, GPU losses down
//! to a CUDA-forbidden proxy, withdrawn proxies, and hinted, local,
//! global and stealable tasks, unseeded and seeded.

use std::collections::BTreeMap;

use proptest::prelude::*;

use ompss_core::{Device, TaskDesc, TaskId};
use ompss_mem::{Access, DataId, Region, SpaceId};
use ompss_sched::{
    Dispatcher, LocalityOracle, Policy, ResourceId, ResourceInfo, ResourceKind, Scheduler,
};

/// Valid bytes per `(data, space)`, for affinity placement.
#[derive(Default)]
struct Holdings(BTreeMap<(u64, u32), u64>);

impl LocalityOracle for Holdings {
    fn holders(&self, region: &Region, found: &mut dyn FnMut(SpaceId, u64)) {
        let d = region.data.0;
        for (&(_, space), &bytes) in self.0.range((d, 0)..=(d, u32::MAX)) {
            found(SpaceId(space), bytes);
        }
    }
}

// ---- the visit-every-node reference sweep ----------------------------

/// The master's view of its nodes, as the comm thread kept it.
struct RefNodes {
    proxies: Vec<ResourceId>,
    caps: [u32; 2],
    dead: Vec<bool>,
    absent: Vec<bool>,
    inflight: Vec<[u32; 2]>,
    cuda_alive: Vec<u32>,
    cursor: usize,
}

fn slot(d: Device) -> usize {
    match d {
        Device::Smp => 0,
        Device::Cuda => 1,
    }
}

impl RefNodes {
    fn sweep(
        &mut self,
        sched: &mut Scheduler,
        device: &dyn Fn(TaskId) -> Device,
    ) -> Vec<(u32, TaskId)> {
        let n = self.proxies.len();
        let mut out = Vec::new();
        for step in 0..n {
            let i = (self.cursor + step) % n;
            if self.dead[i] || self.absent[i] {
                continue;
            }
            let [smp_in, cuda_in] = self.inflight[i];
            if smp_in >= self.caps[0] && cuda_in >= self.caps[1] {
                continue;
            }
            let cuda_ok = self.cuda_alive[i] > 0;
            let allow = |d: Device| match d {
                Device::Smp => smp_in < self.caps[0],
                Device::Cuda => cuda_ok && cuda_in < self.caps[1],
            };
            if let Some(t) = sched.next_matching(self.proxies[i], allow) {
                self.inflight[i][slot(device(t))] += 1;
                out.push((i as u32 + 1, t));
                self.cursor = (self.cursor + step + 1) % n;
            }
        }
        out
    }
}

// ---- random master states ---------------------------------------------

/// A task to create: CUDA?, data written, data read (6+ = none),
/// priority.
type TaskGen = (bool, u64, u64, i32);

#[derive(Debug, Clone)]
enum Op {
    Submit(TaskGen),
    /// A master resource or proxy finished a task releasing successors
    /// (hinted to it under the dependencies policy).
    Completed {
        resource: usize,
        succs: Vec<TaskGen>,
    },
    /// A master worker or GPU manager polls.
    Poll {
        resource: usize,
    },
    Sweep,
    /// The `k`-th task in flight finishes (or is handed back).
    Finish {
        k: usize,
    },
    GpuDown {
        node: u32,
    },
    Join {
        node: u32,
    },
    /// A drain's quiesce: the proxy leaves service, the node stays.
    Withdraw {
        node: u32,
    },
    /// A drain's departure.
    Retire {
        node: u32,
    },
    /// The lease protocol declares the node dead.
    Lost {
        node: u32,
    },
    Hold {
        data: u64,
        space: u32,
        bytes: u64,
    },
}

fn gen_task() -> impl Strategy<Value = TaskGen> {
    (any::<bool>(), 0u64..6, 0u64..8, -1i32..2)
}

fn gen_op() -> impl Strategy<Value = Op> {
    // The union is uniform: submits, sweeps and finishes are listed more
    // than once so nodes fill up to their caps and drain again.
    prop_oneof![
        gen_task().prop_map(Op::Submit),
        gen_task().prop_map(Op::Submit),
        gen_task().prop_map(Op::Submit),
        (0usize..64, proptest::collection::vec(gen_task(), 0..4))
            .prop_map(|(resource, succs)| Op::Completed { resource, succs }),
        (0usize..64).prop_map(|resource| Op::Poll { resource }),
        Just(Op::Sweep),
        Just(Op::Sweep),
        Just(Op::Sweep),
        (0usize..64).prop_map(|k| Op::Finish { k }),
        (0usize..64).prop_map(|k| Op::Finish { k }),
        (0u32..64).prop_map(|node| Op::GpuDown { node }),
        (0u32..64).prop_map(|node| Op::Join { node }),
        (0u32..64).prop_map(|node| Op::Withdraw { node }),
        (0u32..64).prop_map(|node| Op::Retire { node }),
        (0u32..64).prop_map(|node| Op::Lost { node }),
        (0u64..6, 0u32..12, 0u64..3).prop_map(|(data, space, k)| Op::Hold {
            data,
            space,
            bytes: k * 64
        }),
    ]
}

fn make_desc(id: u64, (cuda, written, read, priority): TaskGen) -> TaskDesc {
    let mut deps = vec![Access::inout(Region::new(DataId(written), 0, 64))];
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

fn policy_of(sel: u8) -> Policy {
    match sel {
        0 => Policy::BreadthFirst,
        1 => Policy::Dependencies,
        _ => Policy::Affinity,
    }
}

/// The master's scheduler: `workers` SMP workers and `gpus` GPU
/// managers (all on the master's spaces), then one proxy per node on
/// spaces 1.., everything in steal group 0.
fn master(
    policy: Policy,
    seed: u64,
    workers: u8,
    gpus: u8,
    nodes: u32,
) -> (Scheduler, Vec<ResourceId>) {
    let mut s = Scheduler::new(policy).with_seed(seed);
    let info = |kind, space| ResourceInfo { kind, space: SpaceId(space), steal_group: 0 };
    for _ in 0..workers {
        s.register(info(ResourceKind::SmpWorker, 0));
    }
    for g in 0..gpus {
        s.register(info(ResourceKind::GpuManager, 100 + g as u32));
    }
    let proxies = (1..=nodes).map(|n| s.register(info(ResourceKind::NodeProxy, n))).collect();
    (s, proxies)
}

struct Case {
    policy: Policy,
    seed: u64,
    workers: u8,
    gpus: u8,
    nodes: u32,
    caps: [u32; 2],
    node_gpus: u32,
    armed: Vec<u32>,
}

fn differential(case: Case, ops: &[Op]) -> Result<(), TestCaseError> {
    let (mut fast, proxies) = master(case.policy, case.seed, case.workers, case.gpus, case.nodes);
    let (mut slow, _) = master(case.policy, case.seed, case.workers, case.gpus, case.nodes);
    let n = case.nodes as usize;
    let mut disp = Dispatcher::new(&fast, &proxies, case.caps, case.node_gpus);
    let mut refn = RefNodes {
        proxies: proxies.clone(),
        caps: case.caps,
        dead: vec![false; n],
        absent: vec![false; n],
        inflight: vec![[0, 0]; n],
        cuda_alive: vec![case.node_gpus; n],
        cursor: 0,
    };
    for &j in &case.armed {
        let node = j % case.nodes + 1;
        disp.arm_join(&mut fast, node);
        refn.absent[node as usize - 1] = true;
        slow.deactivate(proxies[node as usize - 1]);
    }
    let resources = fast.resource_count();
    let mut oracle = Holdings::default();
    let mut devices: BTreeMap<TaskId, Device> = BTreeMap::new();
    let mut in_flight: Vec<(u32, TaskId)> = Vec::new();
    let mut next_id = 0u64;
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Submit(t) => {
                let desc = make_desc(next_id, *t);
                next_id += 1;
                devices.insert(desc.id, desc.device);
                fast.submit(&desc, &oracle);
                slow.submit(&desc, &oracle);
            }
            Op::Completed { resource, succs } => {
                let r = ResourceId(resource % resources);
                let descs: Vec<TaskDesc> = succs
                    .iter()
                    .map(|t| {
                        next_id += 1;
                        make_desc(next_id - 1, *t)
                    })
                    .collect();
                for d in &descs {
                    devices.insert(d.id, d.device);
                }
                fast.task_completed(r, &descs, &oracle);
                slow.task_completed(r, &descs, &oracle);
            }
            Op::Poll { resource } => {
                // Master workers and GPU managers only: proxies are the
                // dispatcher's.
                let own = resources - n;
                if own > 0 {
                    let r = ResourceId(resource % own);
                    prop_assert_eq!(fast.next(r), slow.next(r), "poll differs at step {}", step);
                }
            }
            Op::Sweep => {
                let mut got = Vec::new();
                disp.sweep(&mut fast, |node, t| {
                    got.push((node, t));
                    devices[&t]
                });
                let want = refn.sweep(&mut slow, &|t| devices[&t]);
                prop_assert_eq!(&got, &want, "dispatch differs at step {} ({:?})", step, op);
                in_flight.extend(got);
            }
            Op::Finish { k } => {
                if !in_flight.is_empty() {
                    let (node, t) = in_flight.remove(k % in_flight.len());
                    let i = node as usize - 1;
                    // A retired node's in-flight work was dropped with it.
                    if !refn.dead[i] {
                        disp.finished(&fast, node, devices[&t]);
                        refn.inflight[i][slot(devices[&t])] -= 1;
                    }
                }
            }
            Op::GpuDown { node } => {
                let node = node % case.nodes + 1;
                let i = node as usize - 1;
                disp.gpu_down(&mut fast, node);
                refn.cuda_alive[i] = refn.cuda_alive[i].saturating_sub(1);
                if refn.cuda_alive[i] == 0 {
                    slow.forbid(proxies[i], Device::Cuda);
                }
            }
            Op::Join { node } => {
                let node = node % case.nodes + 1;
                let i = node as usize - 1;
                disp.join(&mut fast, node);
                refn.absent[i] = false;
                slow.adopt(proxies[i]);
            }
            Op::Withdraw { node } => {
                let node = node % case.nodes + 1;
                let got = disp.withdraw(&mut fast, node);
                let want = slow.withdraw(proxies[node as usize - 1]);
                prop_assert_eq!(got, want, "withdraw orphans differ at step {}", step);
            }
            Op::Retire { node } | Op::Lost { node } => {
                let node = node % case.nodes + 1;
                let i = node as usize - 1;
                disp.retire(&fast, node);
                refn.dead[i] = true;
                refn.cuda_alive[i] = 0;
                refn.inflight[i] = [0, 0];
                in_flight.retain(|&(n, _)| n != node);
                if matches!(op, Op::Lost { .. }) {
                    let got = disp.withdraw(&mut fast, node);
                    let want = slow.withdraw(proxies[i]);
                    prop_assert_eq!(got, want, "lost-node orphans differ at step {}", step);
                }
            }
            Op::Hold { data, space, bytes } => {
                if *bytes == 0 {
                    oracle.0.remove(&(*data, *space));
                } else {
                    oracle.0.insert((*data, *space), *bytes);
                }
            }
        }
        prop_assert_eq!(disp.cursor() as usize, refn.cursor + 1, "cursor differs at step {}", step);
        prop_assert_eq!(fast.decisions(), slow.decisions(), "decisions differ at step {}", step);
        prop_assert_eq!(fast.queued(), slow.queued(), "queued differs at step {}", step);
        prop_assert_eq!(fast.stats(), slow.stats(), "stats differ at step {}", step);
        for node in 1..=case.nodes {
            prop_assert_eq!(disp.inflight(node), refn.inflight[node as usize - 1]);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    #[test]
    fn indexed_dispatch_matches_visit_every_node_sweep(
        policy_sel in 0u8..3,
        seeded in any::<bool>(),
        seed in 1u64..1_000_000,
        master_res in (0u8..3, 0u8..2),
        nodes in 1u32..12,
        caps in (0u32..3, 0u32..3),
        node_gpus in 0u32..3,
        armed in proptest::collection::vec(0u32..12, 0..3),
        ops in proptest::collection::vec(gen_op(), 1..200),
    ) {
        let case = Case {
            policy: policy_of(policy_sel),
            seed: if seeded { seed } else { 0 },
            workers: master_res.0,
            gpus: master_res.1,
            nodes,
            caps: [caps.0, caps.1],
            node_gpus,
            armed,
        };
        differential(case, &ops)?;
    }

    /// Many nodes, small caps and affinity placements onto the proxies:
    /// nodes fill up, local queues back up, and most visits of a sweep
    /// are ones the dispatcher skips — across word boundaries of its
    /// indexes.
    #[test]
    fn indexed_dispatch_matches_on_wide_clusters(
        seeded in any::<bool>(),
        nodes in 60u32..140,
        holds in proptest::collection::vec((0u64..6, 1u32..140, 1u64..3), 1..16),
        ops in proptest::collection::vec(gen_op(), 1..300),
    ) {
        let case = Case {
            policy: Policy::Affinity,
            seed: if seeded { 7 } else { 0 },
            workers: 2,
            gpus: 1,
            nodes,
            caps: [1, 1],
            node_gpus: 1,
            armed: vec![3],
        };
        let all: Vec<Op> = holds
            .into_iter()
            .map(|(data, space, k)| Op::Hold { data, space, bytes: k * 64 })
            .chain(ops)
            .collect();
        differential(case, &all)?;
    }
}
