//! Property tests of the schedulers: under arbitrary submit/next/steal
//! interleavings, no task is ever lost, duplicated, or handed to a
//! resource of the wrong device kind — for all three policies.

use proptest::prelude::*;

use ompss_core::{Device, TaskDesc, TaskId};
use ompss_mem::{Access, DataId, Region, SpaceId};
use ompss_sched::{LocalityOracle, Policy, ResourceInfo, ResourceKind, Scheduler};

#[derive(Debug, Clone, Copy)]
enum Step {
    Submit { device_cuda: bool, data: u64, priority: i32 },
    Next { resource: usize },
}

fn gen_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (any::<bool>(), 0u64..6, -2i32..3).prop_map(|(device_cuda, data, priority)| {
            Step::Submit { device_cuda, data, priority }
        }),
        (0usize..6).prop_map(|resource| Step::Next { resource }),
    ]
}

/// Oracle: data object `d` "lives" at space `d % 4` — arbitrary but
/// deterministic locality for the affinity policy to chew on.
struct ModOracle;
impl LocalityOracle for ModOracle {
    fn holders(&self, region: &Region, found: &mut dyn FnMut(SpaceId, u64)) {
        found(SpaceId((region.data.0 % 4) as u32), region.len);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_task_lost_duplicated_or_misrouted(
        steps in proptest::collection::vec(gen_step(), 1..120),
        policy_sel in 0u8..3,
    ) {
        let policy = match policy_sel {
            0 => Policy::BreadthFirst,
            1 => Policy::Dependencies,
            _ => Policy::Affinity,
        };
        let mut s = Scheduler::new(policy);
        // 3 SMP workers + 3 GPU managers sharing one steal group.
        let mut resources = Vec::new();
        for i in 0..3 {
            resources.push((
                s.register(ResourceInfo {
                    kind: ResourceKind::SmpWorker,
                    space: SpaceId(i),
                    steal_group: 0,
                }),
                ResourceKind::SmpWorker,
            ));
        }
        for i in 0..3 {
            resources.push((
                s.register(ResourceInfo {
                    kind: ResourceKind::GpuManager,
                    space: SpaceId(i),
                    steal_group: 0,
                }),
                ResourceKind::GpuManager,
            ));
        }

        let mut submitted: Vec<(TaskId, Device)> = Vec::new();
        let mut handed: Vec<(TaskId, ResourceKind)> = Vec::new();
        let mut next_id = 0u64;
        for step in steps {
            match step {
                Step::Submit { device_cuda, data, priority } => {
                    let device = if device_cuda { Device::Cuda } else { Device::Smp };
                    let desc = TaskDesc {
                        id: TaskId(next_id),
                        label: String::new(),
                        device,
                        deps: vec![Access::inout(Region::new(DataId(data), 0, 64))],
                        copy_deps: true,
                        extra_copies: vec![],
                        priority,
                    };
                    submitted.push((desc.id, device));
                    next_id += 1;
                    s.submit(&desc, &ModOracle);
                }
                Step::Next { resource } => {
                    let (res, kind) = resources[resource];
                    if let Some(t) = s.next(res) {
                        handed.push((t, kind));
                    }
                }
            }
        }
        // Drain whatever is left.
        loop {
            let before = handed.len();
            for &(res, kind) in &resources {
                if let Some(t) = s.next(res) {
                    handed.push((t, kind));
                }
            }
            if handed.len() == before {
                break;
            }
        }
        prop_assert_eq!(s.queued(), 0, "scheduler retained tasks after drain");
        prop_assert_eq!(handed.len(), submitted.len(), "lost or duplicated tasks");
        let mut ids: Vec<u64> = handed.iter().map(|(t, _)| t.0).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), submitted.len(), "duplicate hand-out");
        // Device/resource compatibility.
        for (t, kind) in &handed {
            let (_, dev) = submitted[t.0 as usize];
            match dev {
                Device::Smp => prop_assert_eq!(*kind, ResourceKind::SmpWorker),
                Device::Cuda => prop_assert_eq!(*kind, ResourceKind::GpuManager),
            }
        }
    }
}
