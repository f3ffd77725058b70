//! Execution tracing — a Paraver-flavoured timeline of what every
//! resource did on the virtual clock.
//!
//! The original Nanos++ emitted Paraver traces for BSC's performance
//! tools; this module records the equivalent events (task executions
//! per resource, data transfers per medium) when
//! [`RuntimeConfig::tracing`](crate::RuntimeConfig) is enabled, and can
//! render them as a Paraver `.prv`/`.row` trace pair via
//! [`ParaverTrace`]. [`RunReport::utilisation`](crate::RunReport::utilisation)
//! summarises per-resource busy time from the always-on counters.

mod paraver;

pub use paraver::ParaverTrace;

use std::cell::RefCell;
use std::rc::Rc;

use ompss_sim::SimTime;

/// Where a traced activity ran.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceResource {
    /// Cluster node index.
    pub node: u32,
    /// Resource name within the node (e.g. `gpu0`, `worker2`, `comm`).
    pub name: String,
}

/// One traced event.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// A task body executed on a resource.
    Task {
        /// Task id.
        task: u64,
        /// Kernel label.
        label: String,
        /// Executing resource.
        resource: TraceResource,
        /// Start of execution (data staged, kernel launched).
        start: SimTime,
        /// Completion time.
        end: SimTime,
    },
    /// A coherence transfer moved bytes between spaces.
    Transfer {
        /// `"pcie"` or `"network"`.
        medium: &'static str,
        /// Payload bytes.
        bytes: u64,
        /// Transfer start.
        start: SimTime,
        /// Transfer end.
        end: SimTime,
    },
    /// The runtime recovered from an injected fault.
    Recovery {
        /// `"task_retry"`, `"device_lost"`, `"node_lost"` or
        /// `"relineage"`.
        kind: &'static str,
        /// The affected task, when one was in hand.
        task: Option<u64>,
        /// When recovery was initiated.
        at: SimTime,
    },
}

impl TraceEvent {
    fn start(&self) -> SimTime {
        match self {
            TraceEvent::Task { start, .. } | TraceEvent::Transfer { start, .. } => *start,
            TraceEvent::Recovery { at, .. } => *at,
        }
    }
}

/// A shared, append-only event sink. Clones share the sink; it belongs
/// to the simulation thread, like the run it traces.
#[derive(Clone, Default)]
pub struct Tracer {
    events: Rc<RefCell<Vec<TraceEvent>>>,
}

impl Tracer {
    /// New empty tracer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append an event.
    pub fn record(&self, ev: TraceEvent) {
        self.events.borrow_mut().push(ev);
    }

    /// Drain all events, sorted by start time.
    pub fn take(&self) -> Vec<TraceEvent> {
        let mut v = self.events.take();
        v.sort_by_key(|e| e.start());
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task_ev(task: u64, node: u32, name: &str, s: u64, e: u64) -> TraceEvent {
        TraceEvent::Task {
            task,
            label: "k".into(),
            resource: TraceResource { node, name: name.into() },
            start: SimTime(s),
            end: SimTime(e),
        }
    }

    #[test]
    fn tracer_collects_and_sorts() {
        let t = Tracer::new();
        t.record(task_ev(2, 0, "gpu0", 50, 80));
        t.record(task_ev(1, 0, "gpu0", 10, 40));
        t.record(TraceEvent::Transfer {
            medium: "pcie",
            bytes: 1024,
            start: SimTime(20),
            end: SimTime(30),
        });
        let evs = t.take();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].start(), SimTime(10));
        assert_eq!(evs[1].start(), SimTime(20));
        assert!(t.take().is_empty(), "take drains");
    }
}
