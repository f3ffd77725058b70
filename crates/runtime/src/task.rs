//! Runtime task records and the task-builder API — the calls Mercurium
//! would emit for `#pragma omp target` + `#pragma omp task`.

use std::rc::Rc;

use ompss_core::{Device, TaskDesc, TaskId};
use ompss_cudasim::KernelCost;
use ompss_mem::{Access, Region};
use ompss_sim::SimDuration;

/// The modelled execution cost of a task body.
#[derive(Debug, Clone, Copy)]
pub enum TaskCost {
    /// A GPU kernel with a roofline cost (charged on the device's
    /// engines by the GPU manager).
    Gpu(KernelCost),
    /// A host computation of fixed virtual duration.
    Smp(SimDuration),
    /// Derive a memory-bound cost from the task's copy footprint (the
    /// default): streaming kernels touch each named byte about once, so
    /// `footprint / (memory bandwidth × 0.8)` on the executing device.
    /// Compute-bound kernels should set an explicit cost.
    Auto,
    /// Free (pure bookkeeping tasks).
    Zero,
}

/// The functional body of a task: receives one mutable byte view per
/// *copy access*, in clause order. Under phantom backing the body is
/// skipped entirely (timing comes from [`TaskCost`] alone).
pub type TaskBody = Rc<dyn Fn(&mut [&mut [u8]])>;

/// Full runtime record of one task instance.
pub struct TaskRecord {
    /// The model-level descriptor (device, clauses).
    pub desc: TaskDesc,
    /// Modelled cost.
    pub cost: TaskCost,
    /// Functional body (None = metadata-only task).
    pub body: Option<TaskBody>,
    /// Completion signal (`taskwait on` waits here).
    pub done: ompss_sim::Signal,
}

impl TaskRecord {
    /// The copy-clause accesses in the deterministic order bodies see.
    pub fn copy_accesses(&self) -> Vec<Access> {
        self.desc.copies()
    }
}

/// Fluent construction of a task — the runtime-facing face of the
/// `task`/`target` pragmas:
///
/// ```text
/// #pragma omp target device(cuda) copy_deps        .device(Device::Cuda)
/// #pragma omp task input([BS]a) output([BS]c)      .input(a).output(c)
/// ```
pub struct TaskSpec {
    pub(crate) label: String,
    pub(crate) device: Device,
    pub(crate) deps: Vec<Access>,
    pub(crate) copy_deps: bool,
    pub(crate) extra_copies: Vec<Access>,
    pub(crate) cost: TaskCost,
    pub(crate) priority: i32,
    pub(crate) body: Option<TaskBody>,
}

impl TaskSpec {
    /// Start building a task with a label (kernel name).
    pub fn new(label: impl Into<String>) -> Self {
        TaskSpec {
            label: label.into(),
            device: Device::Smp,
            deps: Vec::new(),
            copy_deps: true,
            extra_copies: Vec::new(),
            cost: TaskCost::Auto,
            priority: 0,
            body: None,
        }
    }

    /// `device(...)` clause of the target construct.
    pub fn device(mut self, d: Device) -> Self {
        self.device = d;
        self
    }

    /// `input(region)` dependence clause. Accepts anything convertible
    /// to a [`Region`] — e.g. an `ArrayHandle` for the whole array.
    pub fn input(mut self, r: impl Into<Region>) -> Self {
        self.deps.push(Access::input(r.into()));
        self
    }

    /// `output(region)` dependence clause.
    pub fn output(mut self, r: impl Into<Region>) -> Self {
        self.deps.push(Access::output(r.into()));
        self
    }

    /// `inout(region)` dependence clause.
    pub fn inout(mut self, r: impl Into<Region>) -> Self {
        self.deps.push(Access::inout(r.into()));
        self
    }

    /// `copy_deps` / `no_copy_deps` choice on the target construct:
    /// whether dependence clauses also imply copies (the OmpSs default
    /// is yes; pass `false` to manage copies with explicit clauses).
    pub fn copy_deps(mut self, enabled: bool) -> Self {
        self.copy_deps = enabled;
        self
    }

    /// Explicit `copy_in` clause.
    pub fn copy_in(mut self, r: impl Into<Region>) -> Self {
        self.extra_copies.push(Access::input(r.into()));
        self
    }

    /// Explicit `copy_out` clause.
    pub fn copy_out(mut self, r: impl Into<Region>) -> Self {
        self.extra_copies.push(Access::output(r.into()));
        self
    }

    /// Explicit `copy_inout` clause.
    pub fn copy_inout(mut self, r: impl Into<Region>) -> Self {
        self.extra_copies.push(Access::inout(r.into()));
        self
    }

    /// Attach a GPU kernel cost.
    pub fn cost_gpu(mut self, c: KernelCost) -> Self {
        self.cost = TaskCost::Gpu(c);
        self
    }

    /// Attach a fixed SMP cost.
    pub fn cost_smp(mut self, d: SimDuration) -> Self {
        self.cost = TaskCost::Smp(d);
        self
    }

    /// Mark the task as free of modelled cost (pure bookkeeping).
    pub fn cost_zero(mut self) -> Self {
        self.cost = TaskCost::Zero;
        self
    }

    /// `priority(...)` clause: higher-priority ready tasks are picked
    /// first by every scheduler queue.
    pub fn priority(mut self, p: i32) -> Self {
        self.priority = p;
        self
    }

    /// Attach the functional body. It receives one `&mut [u8]` view per
    /// copy access, in clause order (dependence clauses first when
    /// `copy_deps`, then explicit copy clauses).
    pub fn body(mut self, f: impl Fn(&mut [&mut [u8]]) + 'static) -> Self {
        self.body = Some(Rc::new(f));
        self
    }

    /// Finalise into a record with the given id.
    pub(crate) fn into_record(self, id: TaskId) -> TaskRecord {
        TaskRecord {
            desc: TaskDesc {
                id,
                label: self.label,
                device: self.device,
                deps: self.deps,
                copy_deps: self.copy_deps,
                extra_copies: self.extra_copies,
                priority: self.priority,
            },
            cost: self.cost,
            body: self.body,
            done: ompss_sim::Signal::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompss_mem::DataId;

    #[test]
    fn builder_produces_descriptor() {
        let a = Region::new(DataId(0), 0, 64);
        let c = Region::new(DataId(1), 0, 64);
        let spec = TaskSpec::new("copy")
            .device(Device::Cuda)
            .input(a)
            .output(c)
            .cost_gpu(KernelCost::memory_bound(128.0, 0.8));
        let rec = spec.into_record(TaskId(7));
        assert_eq!(rec.desc.id, TaskId(7));
        assert_eq!(rec.desc.device, Device::Cuda);
        assert_eq!(rec.desc.deps.len(), 2);
        assert!(rec.desc.copy_deps);
        assert_eq!(rec.copy_accesses().len(), 2);
        assert!(matches!(rec.cost, TaskCost::Gpu(_)));
    }

    #[test]
    fn no_copy_deps_with_explicit_copies() {
        let a = Region::new(DataId(0), 0, 64);
        let rec = TaskSpec::new("t").inout(a).copy_deps(false).copy_in(a).into_record(TaskId(1));
        assert_eq!(rec.copy_accesses().len(), 1);
        assert_eq!(rec.desc.deps.len(), 1);
    }
}
