//! Quickstart: the OmpSs programming model in one small program.
//!
//! A blocked SAXPY (`y = a·x + y`) written once as annotated tasks,
//! then run on three different machines — one GPU, a 4-GPU node, and a
//! 4-node GPU cluster — without touching the program. The runtime moves
//! the data, schedules the tasks and overlaps the communication; the
//! program just states the data flow.
//!
//! Run with: `cargo run --example quickstart`

use ompss::prelude::*;
use ompss::{cast_slice, cast_slice_mut};

const N: usize = 1 << 14;
const BS: usize = 1 << 11;
const A: f32 = 2.5;

/// The annotated program: the paper's `#pragma omp target device(cuda)
/// copy_deps` + `#pragma omp task input([BS]x) inout([BS]y)` pair,
/// lowered to the runtime API.
async fn saxpy(omp: &ompss::Omp) -> Vec<f32> {
    let x = omp.alloc_array::<f32>(N);
    let y = omp.alloc_array::<f32>(N);
    omp.write_array(&x, 0, &(0..N).map(|i| i as f32).collect::<Vec<_>>());
    omp.write_array(&y, 0, &vec![1.0f32; N]);

    for j in (0..N).step_by(BS) {
        omp.submit(
            TaskSpec::new("saxpy")
                .device(Device::Cuda)
                .input(x.region(j..j + BS))
                .inout(y.region(j..j + BS))
                .cost_gpu(KernelCost::memory_bound((BS * 12) as f64, 0.8))
                .body(|v| {
                    let (xs, ys) = v.split_first_mut().unwrap();
                    for (yv, xv) in
                        cast_slice_mut::<f32>(ys[0]).iter_mut().zip(cast_slice::<f32>(xs))
                    {
                        *yv += A * xv;
                    }
                }),
        )
        .await;
    }
    omp.taskwait().await; // wait + flush results back to the host
    omp.read_array(&y, 0..N).expect("real backing")
}

fn main() {
    let machines = [
        ("one GPU", RuntimeConfig::multi_gpu(1)),
        ("4-GPU node", RuntimeConfig::multi_gpu(4)),
        ("4-node GPU cluster", RuntimeConfig::gpu_cluster(4)),
    ];
    for (name, cfg) in machines {
        let out = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let out2 = out.clone();
        let report = Runtime::run(cfg, move |omp| async move {
            *out2.borrow_mut() = saxpy(&omp).await;
        });
        let y = out.borrow().clone();
        // Validate against the closed form: y[i] = 1 + A·i.
        for (i, &v) in y.iter().enumerate() {
            assert_eq!(v, 1.0 + A * i as f32, "wrong y[{i}]");
        }
        println!(
            "{name:>20}: {} tasks in {} of virtual time, {} bytes moved by coherence — results verified",
            report.tasks,
            report.elapsed,
            report.coherence.bytes_moved,
        );
    }
    println!("\nThe same program ran on all three machines unchanged.");
}
