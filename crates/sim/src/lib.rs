//! # ompss-sim — deterministic discrete-event simulation engine
//!
//! The substrate under the whole OmpSs reproduction. The original
//! Nanos++ runtime (Bueno et al., IPPS 2012) ran its worker threads, GPU
//! manager threads and cluster communication thread on real hardware;
//! here every one of those agents is a *simulation process* — a
//! stackless `async` task polled over a virtual clock — so that:
//!
//! * experiments are **deterministic and reproducible** — identical
//!   configurations produce identical schedules and makespans;
//! * hardware we don't have (Fermi-era GPUs, a QDR Infiniband cluster)
//!   is modelled by charging virtual time for transfers and kernels
//!   while the *logic* of the runtime (dependence tracking, scheduling,
//!   caching, message protocols) executes for real;
//! * a process costs one heap allocation, not an OS thread — a
//!   thousand-node cluster's worth of workers, device managers and
//!   message pumps is just a vector of futures.
//!
//! ## Quick tour
//!
//! ```
//! use ompss_sim::{delay, Channel, Sim, SimDuration};
//!
//! let sim = Sim::new();
//! let jobs: Channel<u32> = Channel::new();
//!
//! // A daemon service loop, torn down automatically when the sim drains.
//! let rx = jobs.clone();
//! sim.process("worker").daemon().spawn(async move {
//!     while let Ok(job) = rx.recv().await {
//!         // charge `job` ms of virtual time per job
//!         delay(SimDuration::from_millis(job as u64)).await.unwrap();
//!     }
//! });
//!
//! let tx = jobs.clone();
//! sim.spawn("main", async move {
//!     for j in [1u32, 2, 3] {
//!         tx.send(j);
//!     }
//! });
//!
//! let report = sim.run().unwrap();
//! assert_eq!(report.end_time.as_nanos(), 6_000_000); // 1+2+3 ms, serialised
//! ```
//!
//! Inside an `async` process body the current task is ambient: free
//! functions [`now`], [`pid`], [`delay`], [`yield_now`], [`spawn`],
//! [`process`] and [`abort_run`] resolve it from the running executor,
//! so no context handle is threaded through call chains.

#![warn(missing_docs)]

mod backoff;
pub mod defects;
mod engine;
mod error;
mod fault;
mod queue;
mod sync;
mod time;

pub use backoff::Backoff;
pub use engine::{
    abort_run, delay, install_tie_break, mc_active, mc_resource_id, mc_touch, now, pid, process,
    spawn, yield_now, Delay, Pid, ProcName, ProcessBuilder, ProcessExit, Sim, StepFootprint,
    TieBreak,
};
pub use error::{ProcState, RunError, RunReport, SimError, SimResult};
pub use fault::{DeviceFuse, FaultClass, FaultPlan, FaultStats, FaultStream, FAULT_CLASSES};
pub use queue::Channel;
pub use sync::{Bell, Latch, Semaphore, Signal};
pub use time::{SimDuration, SimTime};
