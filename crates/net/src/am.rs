//! GASNet-style active messages.
//!
//! Nanos++'s cluster layer implements *all* control and data traffic as
//! active messages over GASNet (paper §III-D1). This module provides the
//! same vocabulary on top of the [`Fabric`](crate::Fabric): *short*
//! requests (header-only control), and *long* requests that carry a bulk
//! payload into the peer's memory. Each node owns an [`AmEndpoint`]; a
//! dispatcher process on every node [`poll`](AmEndpoint::poll)s it and
//! runs the handler logic — exactly the "slave images constantly waiting
//! for upcoming requests" structure of the paper.

use std::cell::Cell;
use std::rc::Rc;

use ompss_sim::{Signal, SimResult};

use crate::fabric::{Fabric, FabricConfig, NetStats, NodeId};

/// Wire overhead of an active-message header, in bytes.
pub const AM_HEADER_BYTES: u64 = 64;

/// Counts of active messages by kind, across all endpoints.
#[derive(Debug, Default)]
struct AmCounters {
    shorts: Cell<u64>,
    longs: Cell<u64>,
    long_payload_bytes: Cell<u64>,
}

/// Add `n` to one of the [`AmCounters`].
fn bump(counter: &Cell<u64>, n: u64) {
    counter.set(counter.get() + n);
}

/// Snapshot of [`AmNet`] message counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AmStats {
    /// Header-only (*short*) requests sent.
    pub shorts: u64,
    /// Bulk (*long*) requests sent.
    pub longs: u64,
    /// Total payload bytes carried by long requests (headers excluded).
    pub long_payload_bytes: u64,
}

/// An active-message network carrying handler arguments of type `M`.
///
/// Clones share the same fabric.
pub struct AmNet<M> {
    fabric: Fabric<M>,
    counters: Rc<AmCounters>,
}

impl<M> Clone for AmNet<M> {
    fn clone(&self) -> Self {
        AmNet { fabric: self.fabric.clone(), counters: self.counters.clone() }
    }
}

impl<M: Clone + 'static> AmNet<M> {
    /// Build an AM network over a fresh fabric.
    pub fn new(cfg: FabricConfig) -> Self {
        AmNet { fabric: Fabric::new(cfg), counters: Rc::default() }
    }

    /// Arm chaos injection on the underlying fabric (see
    /// [`Fabric::set_fault_stream`]).
    pub fn set_fault_stream(&self, faults: ompss_sim::FaultStream) {
        self.fabric.set_fault_stream(faults);
    }

    /// The endpoint owned by `node`.
    pub fn endpoint(&self, node: NodeId) -> AmEndpoint<M> {
        AmEndpoint { node, net: self.clone() }
    }

    /// Number of nodes on the network.
    pub fn nodes(&self) -> u32 {
        self.fabric.config().nodes
    }

    /// Traffic counters (shared with the underlying fabric).
    pub fn stats(&self) -> NetStats {
        self.fabric.stats()
    }

    /// Active-message counts by kind.
    pub fn am_stats(&self) -> AmStats {
        AmStats {
            shorts: self.counters.shorts.get(),
            longs: self.counters.longs.get(),
            long_payload_bytes: self.counters.long_payload_bytes.get(),
        }
    }

    /// A handle to the underlying fabric (the same shared object) so
    /// bulk data transfers issued elsewhere contend with AM control
    /// traffic for the same NIC ports.
    pub fn fabric_clone(&self) -> Fabric<M> {
        self.fabric.clone()
    }
}

/// One node's attachment to the AM network.
pub struct AmEndpoint<M> {
    node: NodeId,
    net: AmNet<M>,
}

impl<M> Clone for AmEndpoint<M> {
    fn clone(&self) -> Self {
        AmEndpoint { node: self.node, net: self.net.clone() }
    }
}

impl<M: Clone + 'static> AmEndpoint<M> {
    /// The node that owns this endpoint.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Send a header-only control message; blocks for the wire time.
    pub async fn request_short(&self, dst: NodeId, msg: M) -> SimResult<()> {
        bump(&self.net.counters.shorts, 1);
        self.net.fabric.send(self.node, dst, AM_HEADER_BYTES, msg).await
    }

    /// Send a control message accompanied by `payload` bytes of bulk
    /// data (a GASNet *long* request); blocks for the wire time of
    /// header + payload. The actual bytes are moved by the memory
    /// manager on the handler side; the fabric charges their transfer
    /// time and accounts them here.
    pub async fn request_long(&self, dst: NodeId, msg: M, payload: u64) -> SimResult<()> {
        self.count_long(payload);
        self.net.fabric.send(self.node, dst, AM_HEADER_BYTES + payload, msg).await
    }

    /// Asynchronous [`request_long`](Self::request_long): the transfer
    /// proceeds on a helper process; the returned signal is set at
    /// delivery time.
    pub fn request_long_detached(&self, dst: NodeId, msg: M, payload: u64) -> Signal {
        self.count_long(payload);
        self.net.fabric.send_detached(self.node, dst, AM_HEADER_BYTES + payload, msg)
    }

    /// Asynchronous [`request_short`](Self::request_short).
    pub fn request_short_detached(&self, dst: NodeId, msg: M) -> Signal {
        bump(&self.net.counters.shorts, 1);
        self.net.fabric.send_detached(self.node, dst, AM_HEADER_BYTES, msg)
    }

    fn count_long(&self, payload: u64) {
        bump(&self.net.counters.longs, 1);
        bump(&self.net.counters.long_payload_bytes, payload);
    }

    /// Park until the next request addressed to this node arrives;
    /// returns `(sender, handler argument)`. This is the dispatcher
    /// loop's blocking point.
    pub async fn poll(&self) -> SimResult<(NodeId, M)> {
        self.net.fabric.recv(self.node).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompss_sim::{delay, now, Sim, SimDuration};

    fn net() -> AmNet<&'static str> {
        AmNet::new(FabricConfig { nodes: 3, latency: SimDuration::from_micros(1), bandwidth: 1e9 })
    }

    #[test]
    fn short_request_costs_header_only() {
        let sim = Sim::new();
        let n = net();
        let ep0 = n.endpoint(0);
        let ep1 = n.endpoint(1);
        sim.spawn("master", async move {
            ep0.request_short(1, "exec").await.unwrap();
            // 1 µs latency + 64B / 1GB/s = 64ns
            assert_eq!(now().as_nanos(), 1_064);
        });
        sim.spawn("slave", async move {
            let (src, msg) = ep1.poll().await.unwrap();
            assert_eq!((src, msg), (0, "exec"));
        });
        sim.run().unwrap();
    }

    #[test]
    fn long_request_charges_payload() {
        let sim = Sim::new();
        let n = net();
        let ep0 = n.endpoint(0);
        let ep2 = n.endpoint(2);
        sim.spawn("master", async move {
            ep0.request_long(2, "data", 1_000_000).await.unwrap();
            // 1 µs + (64 + 1e6) / 1e9 s ≈ 1µs + 1.000064 ms
            assert_eq!(now().as_nanos(), 1_000 + 1_000_064);
        });
        sim.spawn("slave", async move {
            assert_eq!(ep2.poll().await.unwrap(), (0, "data"));
        });
        sim.run().unwrap();
    }

    #[test]
    fn detached_requests_overlap_with_compute() {
        let sim = Sim::new();
        let n = net();
        let ep0 = n.endpoint(0);
        let ep1 = n.endpoint(1);
        sim.spawn("master", async move {
            let s = ep0.request_long_detached(1, "bulk", 1_000_000);
            // Master "computes" while the payload flies.
            delay(SimDuration::from_millis(2)).await.unwrap();
            s.wait().await;
            assert_eq!(now().as_nanos(), 2_000_000, "transfer hid under compute");
        });
        sim.spawn("slave", async move {
            let _ = ep1.poll().await.unwrap();
            assert!(now().as_nanos() < 2_000_000);
        });
        sim.run().unwrap();
    }

    #[test]
    fn dispatcher_loop_handles_many_requests() {
        let sim = Sim::new();
        let n = net();
        let ep0 = n.endpoint(0);
        let ep1 = n.endpoint(1);
        sim.process("dispatcher").daemon().spawn(async move {
            let mut seen = 0;
            while let Ok((_, _msg)) = ep1.poll().await {
                seen += 1;
                assert!(seen <= 10);
            }
        });
        sim.spawn("master", async move {
            for _ in 0..10 {
                ep0.request_short(1, "tick").await.unwrap();
            }
        });
        sim.run().unwrap();
    }

    #[test]
    fn stats_visible_through_am_layer() {
        let sim = Sim::new();
        let n = net();
        let ep0 = n.endpoint(0);
        let n2 = n.clone();
        sim.spawn("p", async move {
            ep0.request_long(1, "x", 936).await.unwrap();
            let st = n2.stats();
            assert_eq!(st.bytes_total, 1000);
            assert_eq!(st.messages, 1);
            assert_eq!(n2.am_stats(), AmStats { shorts: 0, longs: 1, long_payload_bytes: 936 });
        });
        sim.process("sink").daemon().spawn({
            let ep1 = n.endpoint(1);
            async move { while ep1.poll().await.is_ok() {} }
        });
        sim.run().unwrap();
    }
}
