//! Seeded scenarios pinning one recovery path per defect class. Each
//! test arms a quiet fault plan with exactly the class under test, so
//! the run exercises that path and nothing else, and asserts both that
//! the recovery machinery fired (counters) and that it was lossless
//! (bit-identical output).

use ompss_apps::common::AppRun;
use ompss_chaos::{chaos_run, output_of, run_app};
use ompss_core::Device;
use ompss_json::ToJson;
use ompss_mem::cast_slice_mut;
use ompss_runtime::{
    FaultClass, FaultPlan, KernelCost, RunError, Runtime, RuntimeConfig, TaskSpec, TraceEvent,
};

/// The faults a run injected of `class`, from its report.
fn injected(run: &AppRun, class: FaultClass) -> u64 {
    run.report
        .as_ref()
        .and_then(|r| r.faults)
        .expect("an armed run reports its faults")
        .count(class)
}

#[test]
fn dropped_am_recovered_by_retransmission() {
    let cfg = RuntimeConfig::gpu_cluster(2);
    let reference = output_of(&run_app("stream", cfg.clone())).to_vec();
    let plan = FaultPlan::quiet(11).with_rate(FaultClass::NetDrop, 0.25);
    let run = chaos_run("stream", cfg, plan);
    assert!(injected(&run, FaultClass::NetDrop) >= 1, "the plan never dropped a message");
    let rep = run.report.as_ref().expect("report");
    assert!(rep.counters.am_retries >= 1, "a dropped control message must be retransmitted");
    assert_eq!(output_of(&run), reference.as_slice(), "recovery must be lossless");
}

#[test]
fn duplicated_am_deduplicated() {
    let cfg = RuntimeConfig::gpu_cluster(2);
    let reference = run_app("stream", cfg.clone());
    let plan = FaultPlan::quiet(5).with_rate(FaultClass::NetDup, 0.5);
    let run = chaos_run("stream", cfg, plan);
    assert!(injected(&run, FaultClass::NetDup) >= 1, "the plan never duplicated a message");
    let rep = run.report.as_ref().expect("report");
    let ref_rep = reference.report.as_ref().expect("report");
    assert_eq!(rep.tasks, ref_rep.tasks, "a duplicated Exec must not run its task twice");
    assert_eq!(output_of(&run), output_of(&reference), "recovery must be lossless");
}

#[test]
fn kernel_failure_reexecuted_once() {
    let cfg = RuntimeConfig::multi_gpu(2);
    let reference = output_of(&run_app("matmul", cfg.clone())).to_vec();
    let plan = FaultPlan::quiet(3).with_forced(FaultClass::KernelFail, 1);
    let run = chaos_run("matmul", cfg, plan);
    let rep = run.report.as_ref().expect("report");
    assert_eq!(rep.counters.tasks_reexecuted, 1, "exactly the forced failure re-executes");
    assert_eq!(output_of(&run), reference.as_slice(), "recovery must be lossless");
}

#[test]
fn a_pre_armed_config_replays_byte_for_byte() {
    // A config names one run: running it twice replays the forced fault
    // and every decision after it, so the two reports serialise alike.
    let cfg = RuntimeConfig::multi_gpu(2)
        .with_fault_plan(FaultPlan::quiet(3).with_forced(FaultClass::KernelFail, 1));
    let report = |run: AppRun| run.report.expect("report").to_json().to_compact_string();
    let first = run_app("matmul", cfg.clone());
    assert_eq!(first.report.as_ref().expect("report").counters.tasks_reexecuted, 1);
    assert_eq!(report(first), report(run_app("matmul", cfg)), "the same config, another run");
}

#[test]
fn device_loss_migrates_queued_work() {
    let cfg = RuntimeConfig::multi_gpu(2);
    let reference = output_of(&run_app("stream", cfg.clone())).to_vec();
    let plan = FaultPlan::quiet(7).with_forced(FaultClass::DeviceLoss, 1);
    let run = chaos_run("stream", cfg, plan);
    let rep = run.report.as_ref().expect("report");
    assert_eq!(rep.counters.devices_lost, 1, "the forced loss takes one device");
    assert_eq!(output_of(&run), reference.as_slice(), "migration must be lossless");
}

#[test]
fn slave_device_loss_hands_cuda_work_back() {
    // Stream on two nodes, one GPU each. Kernel retirements draw the
    // device-loss stream in a fixed order; draw 0 is the master's GPU
    // (which `device_loss_migrates_queued_work` covers on one node) and
    // draw 5 is node 1's third kernel. Seed 416 at rate 0.02 fires
    // draw 5 and no other of the run's 73 draws, so exactly node 1's
    // GPU is lost mid-run: the slave re-queues its work, tells the
    // master `GpuDown`, and hands its CUDA tasks back as `Failed`.
    let cfg = RuntimeConfig::gpu_cluster(2).with_tracing(true);
    let reference = output_of(&run_app("stream", cfg.clone())).to_vec();
    let plan = FaultPlan::quiet(416).with_rate(FaultClass::DeviceLoss, 0.02);
    let run = chaos_run("stream", cfg, plan);
    assert_eq!(injected(&run, FaultClass::DeviceLoss), 1, "one drawn loss");
    let rep = run.report.as_ref().expect("report");
    assert_eq!(rep.counters.devices_lost, 1, "the drawn loss takes one device");
    assert_eq!(output_of(&run), reference.as_slice(), "hand-back must be lossless");

    let trace = rep.trace.as_ref().expect("traced run");
    let lost_at = trace
        .iter()
        .find_map(|e| match e {
            TraceEvent::Recovery { kind: "device_lost", at, .. } => Some(*at),
            _ => None,
        })
        .expect("the loss is traced");
    let gpu_spans = |node: u32| {
        trace.iter().filter_map(move |e| match e {
            TraceEvent::Task { resource, start, .. }
                if resource.node == node && resource.name.starts_with("gpu") =>
            {
                Some(*start)
            }
            _ => None,
        })
    };
    assert!(gpu_spans(1).any(|s| s < lost_at), "node 1's GPU ran kernels before the loss");
    assert!(gpu_spans(1).all(|s| s < lost_at), "no task runs on node 1's GPU after its loss");
    assert!(gpu_spans(0).any(|s| s > lost_at), "CUDA tasks still complete after the loss");
}

#[test]
fn exhausted_budget_yields_run_error_not_panic() {
    // Every kernel launch fails and there is only one GPU, so the task
    // burns its whole retry budget and the run must surface that as a
    // value through `try_run`.
    let plan = FaultPlan::quiet(1).with_forced(FaultClass::KernelFail, u64::MAX);
    let cfg = RuntimeConfig::multi_gpu(1).with_fault_plan(plan);
    let budget = cfg.task_retry_budget;
    let result = Runtime::try_run(cfg, |omp| async move {
        let a = omp.alloc_array::<f32>(256);
        omp.write_array(&a, 0, &vec![1.0f32; 256]);
        omp.submit(
            TaskSpec::new("doomed")
                .device(Device::Cuda)
                .inout(a.full())
                .cost_gpu(KernelCost::memory_bound(1024.0, 0.8))
                .body(|views| {
                    for x in cast_slice_mut::<f32>(views[0]) {
                        *x *= 2.0;
                    }
                }),
        )
        .await;
    });
    match result {
        Err(RunError::Exhausted { attempts, .. }) => {
            assert_eq!(attempts, budget + 1, "budget + 1 attempts before giving up")
        }
        other => panic!("expected RunError::Exhausted, got {other:?}"),
    }
}

#[test]
fn a_failed_plan_armed_run_is_tagged_with_its_plan() {
    // A rate plan with no retry budget: the first failed kernel launch
    // of eight tasks on one GPU fails the run closed. The error must
    // name the plan's own coordinates, so that the run replays from
    // the message alone.
    let cfg = RuntimeConfig::multi_gpu(1)
        .with_fault_plan(FaultPlan::new(7, 0.5))
        .with_task_retry_budget(0);
    let result = Runtime::try_run(cfg, |omp| async move {
        let a = omp.alloc_array::<f32>(256);
        for k in 0..8 {
            omp.submit(
                TaskSpec::new(format!("t{k}"))
                    .device(Device::Cuda)
                    .inout(a.full())
                    .cost_gpu(KernelCost::memory_bound(1024.0, 0.8)),
            )
            .await;
        }
    });
    match result {
        Err(e @ RunError::Exhausted { .. }) => {
            let shown = e.to_string();
            assert!(shown.contains("[fault_seed=7 fault_rate=0.5]"), "wrong tag: {shown}")
        }
        other => panic!("expected RunError::Exhausted, got {other:?}"),
    }
}
