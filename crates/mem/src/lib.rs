//! # ompss-mem — multiple address spaces for the OmpSs memory model
//!
//! OmpSs (§II-A2 of Bueno et al., IPPS 2012) assumes data may live in
//! address spaces not directly reachable from every computational
//! resource: host memories of different cluster nodes and device
//! memories of GPUs. This crate provides those spaces, allocations
//! within them (with real byte backing for validated runs or phantom
//! accounting-only backing for paper-scale benchmarks), the data-object
//! registry, and the region/access vocabulary used by dependence
//! clauses.
//!
//! ```
//! use ompss_mem::{Backing, MemoryManager, SpaceKind};
//!
//! let m = MemoryManager::new(Backing::Real);
//! let host = m.add_space("node0", SpaceKind::Host(0), None, 1 << 20);
//! let gpu = m.add_space("node0:gpu0", SpaceKind::Gpu(0, 0), Some(host), 1 << 20);
//!
//! let a = m.alloc(host, 64).unwrap();
//! let b = m.alloc(gpu, 64).unwrap();
//! m.with_slice_mut::<f32, _>(host, a, 0, 64, |xs| xs.fill(2.0));
//! m.copy((host, a), 0, (gpu, b), 0, 64);
//! let sum = m.with_slice::<f32, _>(gpu, b, 0, 64, |xs| xs.iter().sum::<f32>());
//! assert_eq!(sum, Some(32.0));
//! ```

#![warn(missing_docs)]

mod fx;
mod region;
mod scalar;
mod space;
pub mod track;

pub use fx::{FxHashMap, FxHasher};
pub use region::{Access, AccessKind, DataId, Region};
pub use scalar::{cast_slice, cast_slice_mut, Scalar};
pub use space::{AllocId, Backing, DataInfo, MemoryManager, OutOfMemory, SpaceId, SpaceKind};
