//! Execution tracing — a Paraver-flavoured timeline of what every
//! resource did on the virtual clock.
//!
//! The original Nanos++ emitted Paraver traces for BSC's performance
//! tools; this module records the equivalent events (task executions
//! per resource, data transfers per medium) when
//! [`RuntimeConfig::tracing`](crate::RuntimeConfig) is enabled, and can
//! render them as CSV for external tooling, as a per-resource
//! utilisation summary, or as a Paraver `.prv`/`.row` trace pair via
//! [`ParaverTrace`].

mod paraver;

pub use paraver::ParaverTrace;

use std::cell::RefCell;
use std::rc::Rc;

use ompss_sim::{SimDuration, SimTime};

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

/// Render events as CSV (`kind,task,label,node,resource,medium,bytes,start_ns,end_ns`).
pub fn to_csv(events: &[TraceEvent]) -> String {
    let mut out = String::from("kind,task,label,node,resource,medium,bytes,start_ns,end_ns\n");
    for e in events {
        match e {
            TraceEvent::Task { task, label, resource, start, end } => {
                out.push_str(&format!(
                    "task,{task},{label},{},{},,,{},{}\n",
                    resource.node,
                    resource.name,
                    start.as_nanos(),
                    end.as_nanos()
                ));
            }
            TraceEvent::Transfer { medium, bytes, start, end } => {
                out.push_str(&format!(
                    "transfer,,,,,{medium},{bytes},{},{}\n",
                    start.as_nanos(),
                    end.as_nanos()
                ));
            }
            TraceEvent::Recovery { kind, task, at } => {
                let task = task.map(|t| t.to_string()).unwrap_or_default();
                out.push_str(&format!(
                    "recovery,{task},{kind},,,,,{},{}\n",
                    at.as_nanos(),
                    at.as_nanos()
                ));
            }
        }
    }
    out
}

/// Per-resource busy-time summary over a run of `makespan` length:
/// `(resource, tasks executed, busy time, utilisation)`.
pub fn utilisation(
    events: &[TraceEvent],
    makespan: SimTime,
) -> Vec<(TraceResource, usize, SimDuration, f64)> {
    use std::collections::BTreeMap;
    let mut per: BTreeMap<TraceResource, (usize, SimDuration)> = BTreeMap::new();
    for e in events {
        if let TraceEvent::Task { resource, start, end, .. } = e {
            let slot = per.entry(resource.clone()).or_insert((0, SimDuration::ZERO));
            slot.0 += 1;
            slot.1 += *end - *start;
        }
    }
    let total = makespan.as_secs_f64().max(f64::MIN_POSITIVE);
    per.into_iter()
        .map(|(r, (n, busy))| {
            let u = busy.as_secs_f64() / total;
            (r, n, busy, u)
        })
        .collect()
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

    #[test]
    fn csv_has_header_and_rows() {
        let evs = vec![
            task_ev(1, 0, "gpu0", 10, 40),
            TraceEvent::Transfer {
                medium: "network",
                bytes: 64,
                start: SimTime(5),
                end: SimTime(9),
            },
        ];
        let csv = to_csv(&evs);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("kind,"));
        assert!(lines[1].contains("task,1,k,0,gpu0"));
        assert!(lines[2].contains("transfer,,,,,network,64,5,9"));
    }

    #[test]
    fn recovery_rows_in_csv() {
        let evs =
            vec![TraceEvent::Recovery { kind: "device_lost", task: Some(9), at: SimTime(17) }];
        let csv = to_csv(&evs);
        assert!(csv.lines().nth(1).expect("one row").contains("recovery,9,device_lost,,,,,17,17"));
    }

    #[test]
    fn utilisation_sums_busy_time() {
        let evs = vec![
            task_ev(1, 0, "gpu0", 0, 40),
            task_ev(2, 0, "gpu0", 50, 90),
            task_ev(3, 1, "gpu0", 0, 10),
        ];
        let u = utilisation(&evs, SimTime(100));
        assert_eq!(u.len(), 2);
        let (r0, n0, busy0, util0) = &u[0];
        assert_eq!((r0.node, n0, busy0.as_nanos()), (0, &2, 80));
        assert!((util0 - 0.8).abs() < 1e-12);
    }
}
