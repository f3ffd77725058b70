//! The runtime's transfer executor: how planned coherence hops become
//! modelled hardware activity.
//!
//! * **PCIe hops** drive the owning GPU's DMA engine. With `overlap`
//!   enabled the runtime stages data through pinned host buffers
//!   (paying a host memcpy, §III-D2) so the DMA can proceed
//!   concurrently with kernels; otherwise the copy is pageable and
//!   CUDA-style serialisation with compute applies.
//! * **Network hops** become GASNet-style long active messages on the
//!   cluster fabric, contending for NIC ports (which is what makes
//!   master-routed transfers a bottleneck).
//!
//! The executor also moves the real bytes through the memory manager,
//! so functional results survive arbitrary routings.

use std::rc::Rc;

use ompss_coherence::{HopExec, HopFuture, HopKind, Loc, TransferPurpose};
use ompss_core::TaskId;
use ompss_cudasim::{CopyDir, GpuDevice, GpuFault, PinnedPool};
use ompss_mem::{FxHashMap, MemoryManager, SpaceId};
use ompss_net::{Fabric, NodeId};
use ompss_sim::{abort_run, delay, now, RunError, SimResult};

/// DMA re-issues allowed when an injected fault corrupts a PCIe copy
/// before the run aborts. Corruption is detected per transfer and each
/// retry pays the full copy time, so a small budget suffices.
const PCIE_RETRIES: u32 = 8;

use crate::stats::Counters;
use crate::trace::{TraceEvent, Tracer};

/// Control / data messages of the cluster protocol (§III-D1).
///
/// The `rel` field of each control message is its reliable-delivery id:
/// `Some` when chaos is armed (the receiver acks and deduplicates by
/// it, in the runtime's private `recover` module), `None` in fault-free
/// runs, where the protocol is exactly the paper's.
#[derive(Debug, Clone, Copy)]
pub enum ClusterMsg {
    /// Master → slave: run this task (its data is already staged).
    Exec {
        /// The task to run.
        task: TaskId,
        /// Reliable-delivery id.
        rel: Option<u64>,
    },
    /// Slave → master: the task finished.
    Done {
        /// The finished task.
        task: TaskId,
        /// Reliable-delivery id.
        rel: Option<u64>,
    },
    /// Slave → master: this dispatched task cannot run here any more
    /// (its device was lost) — take it back and reschedule.
    Failed {
        /// The handed-back task.
        task: TaskId,
        /// Reliable-delivery id.
        rel: Option<u64>,
    },
    /// Slave → master: the sending node lost one GPU; throttle CUDA
    /// dispatch to it accordingly.
    GpuDown {
        /// Reliable-delivery id.
        rel: Option<u64>,
    },
    /// Acknowledgement of the reliable control message `id`.
    Ack {
        /// The acknowledged id.
        id: u64,
    },
    /// Master → slave: liveness probe of the lease protocol. Sent only
    /// when node-loss chaos is armed; never retried or acknowledged —
    /// a missing reply *is* the detection signal.
    Ping,
    /// Slave → master: lease renewal answering a [`ClusterMsg::Ping`].
    Pong {
        /// The replying node.
        node: NodeId,
    },
    /// A bulk data payload (byte movement itself is done by the
    /// executor; the message models the wire traffic).
    Data,
}

/// The runtime's [`HopExec`].
pub struct RtExec {
    mem: MemoryManager,
    /// GPU space → device.
    gpus: FxHashMap<SpaceId, GpuDevice>,
    /// Any space → owning node.
    node_of: FxHashMap<SpaceId, NodeId>,
    /// Per-node pinned staging pools.
    pinned: Vec<Rc<PinnedPool>>,
    fabric: Fabric<ClusterMsg>,
    overlap: bool,
    tracer: Option<Tracer>,
    counters: Counters,
}

impl RtExec {
    /// Assemble the executor from machine parts.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mem: MemoryManager,
        gpus: FxHashMap<SpaceId, GpuDevice>,
        node_of: FxHashMap<SpaceId, NodeId>,
        pinned: Vec<Rc<PinnedPool>>,
        fabric: Fabric<ClusterMsg>,
        overlap: bool,
        tracer: Option<Tracer>,
        counters: Counters,
    ) -> Self {
        RtExec { mem, gpus, node_of, pinned, fabric, overlap, tracer, counters }
    }
}

impl HopExec for RtExec {
    fn hop<'a>(
        &'a self,
        kind: HopKind,
        purpose: TransferPurpose,
        src: Loc,
        dst: Loc,
        bytes: u64,
    ) -> HopFuture<'a> {
        Box::pin(async move {
            let t0 = now();
            match kind {
                HopKind::Pcie => {
                    let (gpu_space, dir) = if self.gpus.contains_key(&dst.space) {
                        (dst.space, CopyDir::H2D)
                    } else {
                        (src.space, CopyDir::D2H)
                    };
                    let dev = self.gpus.get(&gpu_space).expect("PCIe hop must touch a GPU space");
                    let node = self.node_of[&gpu_space] as usize;
                    let pool = &self.pinned[node];
                    let use_pinned = self.overlap && pool.try_alloc(bytes);
                    self.counters.update(|c| {
                        if use_pinned {
                            c.pcie_pinned_bytes += bytes;
                        } else {
                            c.pcie_pageable_bytes += bytes;
                        }
                    });
                    let r = pcie_copy(dev, dir, bytes, use_pinned).await;
                    if use_pinned {
                        pool.free(bytes);
                    }
                    r?;
                }
                HopKind::Network => {
                    let sn = self.node_of[&src.space];
                    let dn = self.node_of[&dst.space];
                    debug_assert_ne!(sn, dn, "network hop within one node");
                    // Classify the wire traffic: pre-send staging is its own
                    // bucket; everything else splits by whether the master
                    // is an endpoint (MtoS) or the hop is slave-direct (StoS).
                    self.counters.update(|c| {
                        if purpose == TransferPurpose::Presend {
                            c.net_presend_bytes += bytes;
                        } else if sn == 0 || dn == 0 {
                            c.net_mts_bytes += bytes;
                        } else {
                            c.net_sts_bytes += bytes;
                        }
                        // On a multi-shard map a slave↔slave hop means the
                        // consumer resolved the owner locally via the
                        // ShardMap and pulled peer-to-peer; the report
                        // keeps the count only there (`with_shard_count`).
                        if sn != 0 && dn != 0 {
                            c.peer_resolutions += 1;
                        }
                        c.am_data += 1;
                    });
                    self.fabric
                        .send(sn, dn, ompss_net::AM_HEADER_BYTES + bytes, ClusterMsg::Data)
                        .await?;
                }
            }
            // The wire/DMA time is spent either way, but if an endpoint's
            // node has been killed the bytes never land: copying here would
            // let a stale in-flight transfer clobber data that node-loss
            // recovery reconstructs at the destination.
            let delivered = !self.fabric.is_dead(self.node_of[&src.space])
                && !self.fabric.is_dead(self.node_of[&dst.space]);
            if delivered {
                self.mem.copy(
                    (src.space, src.alloc),
                    src.offset,
                    (dst.space, dst.alloc),
                    dst.offset,
                    bytes,
                );
            }
            if let Some(tr) = &self.tracer {
                tr.record(TraceEvent::Transfer {
                    medium: match kind {
                        HopKind::Pcie => "pcie",
                        HopKind::Network => "network",
                    },
                    bytes,
                    start: t0,
                    end: now(),
                });
            }
            Ok(delivered)
        })
    }
}

/// One PCIe hop on `dev`, re-issued (paying the copy time again) when
/// the armed fault plan corrupts it. Pinned copies stage through the
/// host buffer on the way in (H2D) or out (D2H), as in the paper's
/// overlap path. A lost device short-circuits to success: the byte
/// movement is performed by the caller in simulator memory, and the
/// space is being torn down by its manager — there is no DMA left to
/// charge.
async fn pcie_copy(dev: &GpuDevice, dir: CopyDir, bytes: u64, pinned: bool) -> SimResult<()> {
    let mut attempts = 0u32;
    loop {
        if pinned && dir == CopyDir::H2D {
            delay(dev.spec().staging_time(bytes)).await?;
        }
        match dev.try_memcpy(dir, bytes, pinned, None).await? {
            Ok(()) => {}
            Err(GpuFault::DeviceLost) => return Ok(()),
            Err(_) => {
                attempts += 1;
                if attempts > PCIE_RETRIES {
                    return Err(abort_run(RunError::Exhausted {
                        what: "pcie copy re-issues".into(),
                        attempts,
                    }));
                }
                continue;
            }
        }
        if pinned && dir == CopyDir::D2H {
            // Unstage after the DMA.
            delay(dev.spec().staging_time(bytes)).await?;
        }
        return Ok(());
    }
}
