//! Whole-runtime property test: arbitrary task DAGs over arbitrary
//! machines must compute exactly what sequential submission-order
//! execution computes.
//!
//! Each generated task applies a non-commutative affine update
//! (`x = 2x + c`) to the regions it declares `inout`. The dependence
//! graph totally orders conflicting tasks by submission, so replaying
//! the task list serially is an exact oracle — any scheduling, caching,
//! routing or transfer bug that reorders or loses an update changes the
//! result.

use proptest::prelude::*;

use ompss_mem::cast_slice_mut;
use ompss_runtime::{
    CachePolicy, Device, KernelCost, Policy, Runtime, RuntimeConfig, SimDuration, SlaveRouting,
    TaskSpec,
};

const SLOTS: usize = 4;
const SLOT_ELEMS: usize = 16;
const ARRAYS: usize = 3;

#[derive(Debug, Clone)]
struct GenTask {
    /// (array, slot) regions the task updates (deduplicated).
    targets: Vec<(usize, usize)>,
    /// The constant of this task's affine update.
    c: f32,
    cuda: bool,
}

fn gen_task() -> impl Strategy<Value = GenTask> {
    (proptest::collection::vec((0usize..ARRAYS, 0usize..SLOTS), 1..3), 0u8..100, any::<bool>())
        .prop_map(|(mut targets, c, cuda)| {
            targets.sort();
            targets.dedup();
            GenTask { targets, c: c as f32, cuda }
        })
}

fn machine(sel: u8) -> RuntimeConfig {
    match sel % 4 {
        0 => RuntimeConfig::multi_gpu(1),
        1 => RuntimeConfig::multi_gpu(3).with_cache(CachePolicy::NoCache),
        2 => RuntimeConfig::gpu_cluster(2)
            .with_sched(Policy::BreadthFirst)
            .with_cache(CachePolicy::WriteThrough),
        _ => RuntimeConfig::gpu_cluster(3).with_routing(SlaveRouting::ViaMaster).with_presend(2),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_dags_match_sequential_semantics(
        tasks in proptest::collection::vec(gen_task(), 1..25),
        machine_sel in 0u8..4,
    ) {
        // Oracle: sequential replay.
        let mut oracle = vec![vec![0.0f32; SLOTS * SLOT_ELEMS]; ARRAYS];
        for t in &tasks {
            for &(a, s) in &t.targets {
                for x in &mut oracle[a][s * SLOT_ELEMS..(s + 1) * SLOT_ELEMS] {
                    *x = 2.0 * *x + t.c;
                }
            }
        }

        // Runtime execution.
        let got = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let got2 = got.clone();
        let tasks2 = tasks.clone();
        Runtime::run(machine(machine_sel), move |omp| async move {
            let arrays: Vec<_> =
                (0..ARRAYS).map(|_| omp.alloc_array::<f32>(SLOTS * SLOT_ELEMS)).collect();
            for t in &tasks2 {
                let mut spec = TaskSpec::new("affine");
                spec = if t.cuda {
                    spec.device(Device::Cuda)
                        .cost_gpu(KernelCost::fixed(SimDuration::from_micros(20)))
                } else {
                    spec.device(Device::Smp).cost_smp(SimDuration::from_micros(20))
                };
                for &(a, s) in &t.targets {
                    spec = spec.inout(arrays[a].region(s * SLOT_ELEMS..(s + 1) * SLOT_ELEMS));
                }
                let c = t.c;
                omp.submit(spec.body(move |views| {
                    for view in views.iter_mut() {
                        for x in cast_slice_mut::<f32>(view) {
                            *x = 2.0 * *x + c;
                        }
                    }
                })).await;
            }
            omp.taskwait().await;
            let mut out = Vec::new();
            for a in &arrays {
                out.push(omp.read_array(a, 0..SLOTS * SLOT_ELEMS).unwrap());
            }
            *got2.borrow_mut() = out;
        });

        let got = got.borrow().clone();
        for a in 0..ARRAYS {
            prop_assert_eq!(&got[a], &oracle[a], "array {} diverged (machine {})", a, machine_sel);
        }
    }
}
