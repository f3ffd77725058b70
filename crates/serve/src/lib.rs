//! ompss-serve: simulation-as-a-service for the OmpSs cluster simulator.
//!
//! The other binaries in this workspace are batch tools: `verify`,
//! `chaos`, `mc` and `sweep` each parse flags, run a fixed job list and
//! exit. This crate turns the same deterministic simulator into a
//! *daemon*: a persistent process that accepts job specifications over
//! a line protocol (stdin or a Unix socket), executes them on a bounded
//! worker pool, and streams progress and results back as JSON lines —
//! while staying well-behaved under overload.
//!
//! The three layers:
//!
//! * [`spec`] — what a client may ask for: app, topology,
//!   scheduler/fault seeds, priority, deadline, retry budget. Strictly
//!   validated; bad requests are rejected before they cost anything.
//! * [`queue`] — the bounded admission queue: priority scheduling with
//!   aging (no starvation), load-shedding of the weakest entry when a
//!   strictly stronger job arrives at a full queue, explicit rejection
//!   otherwise. Overload becomes structured errors, never memory growth.
//! * [`server`] — execution and routing: a fixed worker pool, per-job
//!   cancellation tokens, host-time deadlines, deterministic
//!   exponential backoff between retries of retryable failures, and an
//!   exactly-once terminal event per job enforced structurally.
//!
//! Everything observable is deterministic where it can be: a job's
//! `RunReport` is byte-identical to a direct [`ompss_chaos::try_run_app`]
//! call with the same configuration, and retry attempt `n` of a faulty
//! spec replays exactly (the fault seed is `fault_seed + n`). Only
//! arrival interleaving — which is the client's, not the server's — is
//! host-time dependent.

pub mod queue;
pub mod server;
pub mod spec;

pub use queue::{Admit, AdmitQueue, QueuedJob, AGING_POPS};
pub use server::{
    serve_connection, sim_runner, Event, EventKind, RunOutcome, Runner, ServeConfig, ServeCounters,
    ServeStats, Server, Sink,
};
pub use spec::{JobSpec, SpecError, Topology, PRIORITY_DEFAULT, PRIORITY_MAX, RETRIES_MAX};
