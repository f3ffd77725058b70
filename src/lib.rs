//! # OmpSs for GPU clusters — a Rust reproduction
//!
//! This crate is the facade of a full reproduction of *Productive
//! Programming of GPU Clusters with OmpSs* (Bueno et al., IPPS 2012):
//! the OmpSs task-parallel programming model and its Nanos++-style
//! runtime, rebuilt over deterministic simulated hardware (Fermi-era
//! GPUs, a QDR-Infiniband cluster) so that the paper's entire
//! evaluation regenerates on a laptop.
//!
//! The same annotated program runs unchanged on one GPU, a multi-GPU
//! node, or a cluster of GPU nodes:
//!
//! ```
//! use ompss::{Device, KernelCost, Runtime, RuntimeConfig, TaskSpec};
//!
//! // Two GPUs in one node; swap for `RuntimeConfig::gpu_cluster(8)`
//! // and the program below is untouched.
//! let report = Runtime::run(RuntimeConfig::multi_gpu(2), |omp| async move {
//!     let a = omp.alloc_array::<f32>(1 << 12);
//!     for j in (0..1 << 12).step_by(1 << 10) {
//!         let r = a.region(j..j + (1 << 10));
//!         omp.submit(
//!             TaskSpec::new("scale")
//!                 .device(Device::Cuda)
//!                 .inout(r)
//!                 .cost_gpu(KernelCost::memory_bound(8.0 * (1 << 10) as f64, 0.8))
//!                 .body(|v| {
//!                     for x in ompss::cast_slice_mut::<f32>(v[0]) {
//!                         *x = 2.0 * *x + 1.0;
//!                     }
//!                 }),
//!         )
//!         .await;
//!     }
//!     omp.taskwait().await;
//! });
//! assert_eq!(report.tasks, 4);
//! ```
//!
//! See the workspace crates for the pieces: `ompss-sim` (deterministic
//! DES), `ompss-mem`, `ompss-net`, `ompss-cudasim` (substrates),
//! `ompss-core`/`ompss-sched`/`ompss-coherence`/`ompss-runtime` (the
//! model and runtime), `ompss-apps` (the four evaluation benchmarks in
//! four programming styles), and `ompss-bench` (one harness per figure
//! and table of the paper).

#![warn(missing_docs)]

pub use ompss_core::{Device, TaskGraph, TaskId};
pub use ompss_cudasim::{GpuSpec, KernelCost};
pub use ompss_mem::{cast_slice, cast_slice_mut, Backing, Region};
pub use ompss_runtime::trace;
pub use ompss_runtime::SlaveRouting;
pub use ompss_runtime::{
    ArrayHandle, CachePolicy, CounterSnapshot, FaultClass, FaultPlan, FaultStats, Omp,
    ParaverTrace, Policy, RunError, RunReport, Runtime, RuntimeConfig, SimDuration, SimTime,
    TaskCost, TaskHandle, TaskSpec,
};

/// Everything an annotated program needs, in one import.
///
/// ```
/// use ompss::prelude::*;
///
/// let report = Runtime::run(RuntimeConfig::multi_gpu(1), |omp| async move {
///     let a = omp.alloc_array::<f32>(256);
///     // A bare handle in a clause means the whole array; `submit`
///     // returns a handle for `taskwait on`-style point waits.
///     let h = omp.submit(TaskSpec::new("init").device(Device::Smp).output(a)).await;
///     omp.taskwait_on_handle(&h).await;
/// });
/// assert_eq!(report.tasks, 1);
/// ```
pub mod prelude {
    pub use ompss_core::Device;
    pub use ompss_cudasim::{GpuSpec, KernelCost};
    pub use ompss_mem::{Backing, Region};
    pub use ompss_runtime::{
        ArrayHandle, CachePolicy, Omp, Policy, RunReport, Runtime, RuntimeConfig, SimDuration,
        SlaveRouting, TaskHandle, TaskSpec,
    };
    // Ambient-context accessors, usable directly inside any `async`
    // task or process body — no handle threading required.
    pub use ompss_sim::{abort_run, delay, now, pid, yield_now};
}

/// The evaluation applications (Matmul, STREAM, Perlin, N-Body) in
/// serial / CUDA / MPI+CUDA / OmpSs versions.
pub use ompss_apps as apps;

/// The clause/dependence race detector and invariant checker: turns
/// verify-mode run evidence ([`RuntimeConfig::with_verify`]) into
/// actionable findings.
///
/// ```
/// use ompss::{Device, Runtime, RuntimeConfig, TaskSpec};
///
/// let report = Runtime::run(RuntimeConfig::multi_gpu(1).with_verify(true), |omp| async move {
///     let a = omp.alloc_array::<f32>(64);
///     let r = a.region(0..64);
///     // Mutates its view despite declaring only `input` — the byte
///     // diff catches it.
///     omp.submit(TaskSpec::new("sneaky").device(Device::Smp).input(r).body(|v| {
///         v[0][0] ^= 1;
///     }))
///     .await;
/// });
/// let findings = ompss::verify::validate(&report);
/// assert_eq!(findings.len(), 1);
/// assert_eq!(findings[0].kind, ompss::verify::FindingKind::WriteThroughInput);
/// assert_eq!(findings[0].label, "sneaky");
/// ```
pub use ompss_verify as verify;

/// The simulation substrates, for building custom machines.
pub mod substrate {
    pub use ompss_coherence::{
        Coherence, HopExec, HopFuture, HopKind, Loc, Topology, TransferExec,
    };
    pub use ompss_cudasim::{CopyDir, CudaEvent, GpuDevice, PinnedPool, Stream};
    pub use ompss_mem::{MemoryManager, SpaceId, SpaceKind};
    pub use ompss_net::{AmEndpoint, AmNet, Fabric, FabricConfig, Mpi, MpiRank};
    pub use ompss_sim::{
        delay, now, pid, process, spawn, yield_now, Bell, Channel, Latch, Semaphore, Signal, Sim,
    };
}
