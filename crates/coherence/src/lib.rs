//! # ompss-coherence — hierarchical directory and software caches
//!
//! The coherence support of Nanos++ (§III-C3 of Bueno et al., IPPS
//! 2012): before a task executes, an up-to-date copy of every region it
//! names is made available in the address space where it will run; a
//! hierarchical directory tracks the location and version of every
//! copy, and a software cache per device (each remote node is "a single
//! device" to the master; GPUs inside a node have their own caches)
//! skips transfers for data already in place.
//!
//! Three write policies are provided — `no-cache`, `write-through` and
//! `write-back` (default) — plus LRU replacement with dirty write-back,
//! in-flight transfer deduplication (the non-blocking cache), and the
//! `taskwait` flush semantics.
//!
//! The engine does bookkeeping and planning; the *runtime* executes the
//! planned hops (PCIe DMAs, network messages) via the [`HopExec`]
//! trait, charging virtual time and moving real bytes.

#![warn(missing_docs)]

mod cache;
mod dir;
mod shard;
mod topo;

pub use cache::{
    CachePolicy, Coherence, CoherenceStats, HopExec, HopFuture, Loc, LostRegion, TransferExec,
    TransferPurpose,
};
pub use shard::{MembershipEpochs, ShardMap};
pub use topo::{Hop, HopKind, SlaveRouting, Topology};
