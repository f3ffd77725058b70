//! Task descriptors — what a `#pragma omp task` + `#pragma omp target`
//! pair lowers to.
//!
//! Mercurium translates the directives into runtime calls carrying: the
//! target device, the dependence clauses (evaluated to address ranges),
//! and whether those clauses also have copy semantics (`copy_deps`).
//! [`TaskDesc`] is that lowered form.

use ompss_mem::{Access, AccessKind, Region};

/// Identifier of a task instance, unique within a runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u64);

/// Target device of a task (`device(...)` clause of the `target`
/// construct). Only the two the paper evaluates are supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Device {
    /// Run on a host CPU core.
    Smp,
    /// Run on a GPU (the paper's `device(cuda)`).
    Cuda,
}

/// The lowered form of one task instance.
#[derive(Debug, Clone)]
pub struct TaskDesc {
    /// Unique id.
    pub id: TaskId,
    /// Human-readable kernel name, for traces and stats.
    pub label: String,
    /// Target device kind.
    pub device: Device,
    /// Dependence clauses (`input`/`output`/`inout`).
    pub deps: Vec<Access>,
    /// `copy_deps`: dependence clauses double as copy clauses.
    pub copy_deps: bool,
    /// Explicit `copy_in`/`copy_out`/`copy_inout` clauses beyond the
    /// dependence clauses.
    pub extra_copies: Vec<Access>,
    /// Scheduling priority (`priority` clause); higher runs earlier
    /// among ready tasks. Default 0.
    pub priority: i32,
}

impl TaskDesc {
    /// All regions with copy semantics: the dependence clauses when
    /// `copy_deps` is set, plus any explicit copy clauses. This is what
    /// the coherence layer must make available in the execution space.
    /// Borrowed from the descriptor, in clause order: no allocation.
    pub fn copies(&self) -> impl Iterator<Item = Access> + '_ {
        let deps: &[Access] = if self.copy_deps { &self.deps } else { &[] };
        deps.iter().chain(&self.extra_copies).copied()
    }

    /// Regions the task will read in its execution space.
    pub fn copy_inputs(&self) -> Vec<Region> {
        self.copies().filter(|a| a.kind.reads()).map(|a| a.region).collect()
    }

    /// Regions the task will produce in its execution space.
    pub fn copy_outputs(&self) -> Vec<Region> {
        self.copies().filter(|a| a.kind.writes()).map(|a| a.region).collect()
    }

    /// Total bytes named by copy clauses — the task's data footprint,
    /// used by the locality-aware scheduler's affinity score.
    pub fn copy_footprint(&self) -> u64 {
        self.copies().map(|a| a.region.len).sum()
    }
}

/// Convenience constructors for the three dependence clauses.
pub trait AccessExt {
    /// `input(region)` clause.
    fn read(region: Region) -> Access;
    /// `output(region)` clause.
    fn write(region: Region) -> Access;
    /// `inout(region)` clause.
    fn update(region: Region) -> Access;
}

impl AccessExt for Access {
    fn read(region: Region) -> Access {
        Access { region, kind: AccessKind::Input }
    }
    fn write(region: Region) -> Access {
        Access { region, kind: AccessKind::Output }
    }
    fn update(region: Region) -> Access {
        Access { region, kind: AccessKind::InOut }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompss_mem::DataId;

    fn desc(copy_deps: bool) -> TaskDesc {
        let a = Region::new(DataId(1), 0, 64);
        let b = Region::new(DataId(2), 0, 32);
        let c = Region::new(DataId(3), 0, 16);
        TaskDesc {
            id: TaskId(1),
            label: "t".into(),
            device: Device::Cuda,
            deps: vec![Access::input(a), Access::inout(b)],
            copy_deps,
            extra_copies: vec![Access::output(c)],
            priority: 0,
        }
    }

    #[test]
    fn copies_merge_deps_when_copy_deps() {
        let t = desc(true);
        assert_eq!(t.copies().count(), 3);
        assert_eq!(t.copy_footprint(), 64 + 32 + 16);
        assert_eq!(t.copy_inputs().len(), 2); // a (input) + b (inout)
        assert_eq!(t.copy_outputs().len(), 2); // b (inout) + c (output)
    }

    #[test]
    fn copies_exclude_deps_without_copy_deps() {
        let t = desc(false);
        assert_eq!(t.copies().count(), 1);
        assert_eq!(t.copy_footprint(), 16);
    }
}
