//! Error types for simulation processes.

use std::fmt;

/// Errors returned by blocking simulation calls.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The run is stopping: [`crate::abort_run`] returns it, and a
    /// layer may return it when its target can no longer be served (a
    /// dead node). A process receiving it must return promptly; the
    /// kernel drops whatever is left unfinished.
    Shutdown,
    /// A primitive was used after being closed (e.g. receiving on a
    /// channel whose senders are all gone and which is empty).
    Closed,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Shutdown => write!(f, "simulation is shutting down"),
            SimError::Closed => write!(f, "simulation primitive closed"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias for blocking simulation calls.
pub type SimResult<T> = Result<T, SimError>;

/// Outcome of [`crate::Sim::run`].
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual time when the last event was processed.
    pub end_time: crate::SimTime,
    /// Number of events the kernel dispatched.
    pub events: u64,
    /// Number of times the virtual clock moved forward (distinct event
    /// timestamps dispatched) — the simulation's "clock tick" count for
    /// observability reports.
    pub clock_advances: u64,
    /// Number of processes ever spawned.
    pub processes: usize,
    /// Host wall-clock nanoseconds spent inside [`crate::Sim::run`].
    /// **Not deterministic** — varies run to run and machine to machine;
    /// never fold it into a fingerprint or committed JSON.
    pub host_ns: u64,
    /// Wakeups skipped by the kernel's dedup fast path (they could only
    /// ever have popped stale). Zero with `OMPSS_SIM_NO_FASTPATH=1`.
    pub wakes_coalesced: u64,
}

/// Where a process stood when a run ended badly — one entry per stuck
/// process in [`RunError::Deadlock`]. Structured so tools (the seed
/// sweep, the model checker) can name the culprits without parsing a
/// panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcState {
    /// The process's id, assigned at spawn time.
    pub pid: usize,
    /// The process's rendered name.
    pub name: String,
    /// Executor phase when the queue drained: `"blocked"` (parked in a
    /// primitive, waiting for a wake that never came) or `"ready"` (a
    /// resume event was still in flight — only possible when a fatal
    /// abort discarded the queue).
    pub phase: &'static str,
}

/// A simulation failed to complete cleanly.
#[derive(Debug, Clone)]
pub enum RunError {
    /// The event queue drained while non-daemon processes were still
    /// blocked: a deadlock in the modelled system. Carries the stuck
    /// processes with their blocked-state details.
    Deadlock {
        /// Every non-daemon process that had not finished.
        blocked: Vec<ProcState>,
    },
    /// A process panicked. Contains `(process name, panic message)` for
    /// the first recorded panic.
    ProcessPanic(String, String),
    /// A recovery budget ran out: a fault kept firing past every retry
    /// the runtime was allowed. `what` names the exhausted operation
    /// (task label, message kind), `attempts` how many were made.
    Exhausted {
        /// What ran out of retries.
        what: String,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A bounded runtime queue overflowed (e.g. the MPI unexpected-
    /// message queue) — surfaced as an error instead of silent
    /// unbounded growth.
    QueueOverflow {
        /// Which queue overflowed.
        queue: String,
        /// The configured capacity it hit.
        capacity: usize,
    },
    /// The kernel's own bookkeeping broke an invariant while running in
    /// validation mode (model checking): a stale event was dispatched,
    /// or a valid pop did not match the tracked pending wake. This is a
    /// bug in the executor, not in the modelled program.
    InvariantViolation {
        /// What the kernel caught, with event/epoch details.
        what: String,
    },
    /// The run was rejected before the machine was built: the
    /// configuration is self-contradictory (e.g. a heartbeat period no
    /// shorter than the lease window, so no node could ever renew its
    /// lease between probes). Structured so callers can distinguish "fix
    /// your config" from runtime failures without parsing a message.
    InvalidConfig {
        /// What is wrong with the configuration, and why.
        what: String,
    },
}

impl RunError {
    /// Whether re-running the same job could plausibly succeed.
    ///
    /// The classification a job server needs before it burns a retry
    /// budget: [`Exhausted`](RunError::Exhausted) and
    /// [`QueueOverflow`](RunError::QueueOverflow) are *resource-shaped*
    /// failures — a retry budget that ran out under an unlucky fault
    /// draw, a bounded queue that filled under momentary pressure — and
    /// a re-run under different fault coordinates (or lighter load) can
    /// complete. [`Deadlock`](RunError::Deadlock),
    /// [`ProcessPanic`](RunError::ProcessPanic) and
    /// [`InvariantViolation`](RunError::InvariantViolation) are
    /// *defect-shaped*: the simulation is deterministic, so an
    /// identical re-run reproduces them exactly and retrying only
    /// wastes the budget.
    pub fn is_retryable(&self) -> bool {
        match self {
            RunError::Exhausted { .. } | RunError::QueueOverflow { .. } => true,
            RunError::Deadlock { .. }
            | RunError::ProcessPanic(_, _)
            | RunError::InvariantViolation { .. }
            | RunError::InvalidConfig { .. } => false,
        }
    }

    /// Tag this error with the fault plan that produced the run, so any
    /// chaos failure is reproducible from its message alone. The tag is
    /// appended to the variant's existing string payload (the `what`,
    /// panic message, queue name, or the stuck-process list) — the enum
    /// shape is unchanged, so callers matching on variants still work.
    pub fn with_fault_context(mut self, seed: u64, rate: f64) -> RunError {
        let tag = format!(" [fault_seed={seed} fault_rate={rate}]");
        match &mut self {
            RunError::Deadlock { blocked } => blocked.push(ProcState {
                pid: usize::MAX,
                name: format!("(fault_seed={seed} fault_rate={rate})"),
                phase: "tag",
            }),
            RunError::ProcessPanic(_, msg) => msg.push_str(&tag),
            RunError::Exhausted { what, .. } => what.push_str(&tag),
            RunError::QueueOverflow { queue, .. } => queue.push_str(&tag),
            RunError::InvariantViolation { what } => what.push_str(&tag),
            RunError::InvalidConfig { what } => what.push_str(&tag),
        }
        self
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Deadlock { blocked } => {
                let names: Vec<&str> = blocked.iter().map(|p| p.name.as_str()).collect();
                write!(f, "simulation deadlock; blocked processes: {}", names.join(", "))
            }
            RunError::ProcessPanic(name, msg) => {
                write!(f, "process '{name}' panicked: {msg}")
            }
            RunError::Exhausted { what, attempts } => {
                write!(f, "recovery budget exhausted for {what} after {attempts} attempts")
            }
            RunError::QueueOverflow { queue, capacity } => {
                write!(f, "queue '{queue}' overflowed its capacity of {capacity}")
            }
            RunError::InvariantViolation { what } => {
                write!(f, "executor invariant violated: {what}")
            }
            RunError::InvalidConfig { what } => {
                write!(f, "invalid configuration: {what}")
            }
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_context_lands_in_display_of_every_variant() {
        let errs = [
            RunError::Deadlock {
                blocked: vec![ProcState { pid: 0, name: "p0".into(), phase: "blocked" }],
            },
            RunError::ProcessPanic("p".into(), "boom".into()),
            RunError::Exhausted { what: "x".into(), attempts: 3 },
            RunError::QueueOverflow { queue: "q".into(), capacity: 8 },
            RunError::InvariantViolation { what: "stale dispatch".into() },
            RunError::InvalidConfig { what: "period >= window".into() },
        ];
        for e in errs {
            let tagged = e.with_fault_context(42, 0.05);
            let shown = tagged.to_string();
            assert!(shown.contains("fault_seed=42"), "missing seed in: {shown}");
            assert!(shown.contains("fault_rate=0.05"), "missing rate in: {shown}");
        }
    }

    #[test]
    fn retryable_classification_covers_every_variant() {
        let retryable = [
            RunError::Exhausted { what: "x".into(), attempts: 3 },
            RunError::QueueOverflow { queue: "q".into(), capacity: 8 },
        ];
        let fatal = [
            RunError::Deadlock { blocked: vec![] },
            RunError::ProcessPanic("p".into(), "boom".into()),
            RunError::InvariantViolation { what: "stale".into() },
            RunError::InvalidConfig { what: "period >= window".into() },
        ];
        for e in retryable {
            assert!(e.is_retryable(), "{e}");
        }
        for e in fatal {
            assert!(!e.is_retryable(), "{e}");
        }
    }

    #[test]
    fn fault_context_preserves_variant_shape() {
        let e = RunError::Exhausted { what: "task t".into(), attempts: 2 };
        match e.with_fault_context(1, 0.1) {
            RunError::Exhausted { attempts: 2, .. } => {}
            other => panic!("variant changed: {other:?}"),
        }
    }
}
