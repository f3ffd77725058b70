//! The cluster interconnect model.
//!
//! Models a switched fabric (the paper's QDR Infiniband) as one
//! full-duplex NIC per node and a contention-free core: a message from
//! `src` to `dst` occupies `src`'s TX port and `dst`'s RX port for
//! `latency + size / bandwidth`, then appears in `dst`'s inbox. Port
//! occupancy is what creates the effects the paper measures at the
//! cluster level — in particular the *master bottleneck* when all data
//! is routed through node 0 (`MtoS`), and its disappearance with
//! slave-to-slave transfers (`StoS`).
//!
//! The fabric carries typed messages (`M`) plus a declared wire size;
//! bulk payload bytes are accounted here but physically moved by the
//! memory manager (which may be phantom-backed for paper-scale runs).

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

use ompss_sim::{
    delay, process, Channel, FaultClass, FaultPlan, Semaphore, Signal, SimDuration, SimResult,
};

/// A node index within the fabric.
pub type NodeId = u32;

/// Fabric configuration.
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of nodes.
    pub nodes: u32,
    /// One-way message latency.
    pub latency: SimDuration,
    /// Link bandwidth in bytes per second (per NIC port, each direction).
    pub bandwidth: f64,
}

impl FabricConfig {
    /// The paper's cluster interconnect: QDR Infiniband (32 Gbit/s
    /// signalling, ≈3.2 GB/s effective payload bandwidth) with 2 µs
    /// latency. The paper's text says "8 Gbits/s peak", which matches
    /// QDR's per-lane rate; the calibration that reproduces the paper's
    /// cluster results is the full 4-lane effective rate used here.
    pub fn qdr_infiniband(nodes: u32) -> Self {
        FabricConfig { nodes, latency: SimDuration::from_micros(2), bandwidth: 3.2e9 }
    }

    /// Time on the wire for a message of `size` bytes.
    pub fn wire_time(&self, size: u64) -> SimDuration {
        self.latency + SimDuration::from_secs_f64(size as f64 / self.bandwidth)
    }
}

/// Per-pair and per-node traffic accounting.
#[derive(Debug, Default, Clone)]
pub struct NetStats {
    /// Total bytes ever sent (including loopback).
    pub bytes_total: u64,
    /// Total messages ever sent.
    pub messages: u64,
    /// Bytes sent from each node.
    pub tx_bytes: Vec<u64>,
    /// Bytes received by each node.
    pub rx_bytes: Vec<u64>,
    /// Full per-link traffic matrix: `link_bytes[src][dst]` is every
    /// byte carried on that directed link (loopback on the diagonal).
    pub link_bytes: Vec<Vec<u64>>,
    /// Messages per directed link, same layout.
    pub link_messages: Vec<Vec<u64>>,
}

impl NetStats {
    /// Bytes on links with the master (node 0) as an endpoint,
    /// excluding loopback — the traffic of master-routed (`MtoS`)
    /// configurations.
    pub fn master_link_bytes(&self) -> u64 {
        let mut total = 0;
        for (s, row) in self.link_bytes.iter().enumerate() {
            for (d, &b) in row.iter().enumerate() {
                if s != d && (s == 0 || d == 0) {
                    total += b;
                }
            }
        }
        total
    }

    /// Bytes on slave↔slave links (neither endpoint is node 0).
    pub fn slave_link_bytes(&self) -> u64 {
        let mut total = 0;
        for (s, row) in self.link_bytes.iter().enumerate() {
            for (d, &b) in row.iter().enumerate() {
                if s != d && s != 0 && d != 0 {
                    total += b;
                }
            }
        }
        total
    }
}

struct Nic<M> {
    tx: Semaphore,
    rx: Semaphore,
    inbox: Channel<(NodeId, M)>,
}

struct FabricInner<M> {
    cfg: FabricConfig,
    nics: Vec<Nic<M>>,
    stats: RefCell<NetStats>,
    /// Chaos injection plan; `None` (the default) takes the exact
    /// legacy path.
    faults: RefCell<Option<Arc<FaultPlan>>>,
    /// Per-node NIC death flags (whole-node loss): a dead endpoint's
    /// messages still occupy the wire but are never delivered.
    dead: Vec<Cell<bool>>,
    /// Per-node NIC offline flags (elastic membership): an offline NIC
    /// behaves like a dead one on the wire, but unlike death it is
    /// planned and reversible — a joining node's NIC starts offline and
    /// is brought up at its join instant; a drained node's goes back
    /// offline at departure.
    offline: Vec<Cell<bool>>,
}

/// A simulated cluster interconnect carrying messages of type `M`.
///
/// Clones share the same fabric.
pub struct Fabric<M> {
    inner: Rc<FabricInner<M>>,
}

impl<M> Clone for Fabric<M> {
    fn clone(&self) -> Self {
        Fabric { inner: self.inner.clone() }
    }
}

impl<M: Clone + 'static> Fabric<M> {
    /// Build a fabric with one NIC and inbox per node.
    pub fn new(cfg: FabricConfig) -> Self {
        let nics = (0..cfg.nodes)
            .map(|_| Nic { tx: Semaphore::new(1), rx: Semaphore::new(1), inbox: Channel::new() })
            .collect();
        Fabric {
            inner: Rc::new(FabricInner {
                stats: RefCell::new(NetStats {
                    tx_bytes: vec![0; cfg.nodes as usize],
                    rx_bytes: vec![0; cfg.nodes as usize],
                    link_bytes: vec![vec![0; cfg.nodes as usize]; cfg.nodes as usize],
                    link_messages: vec![vec![0; cfg.nodes as usize]; cfg.nodes as usize],
                    ..NetStats::default()
                }),
                dead: (0..cfg.nodes).map(|_| Cell::new(false)).collect(),
                offline: (0..cfg.nodes).map(|_| Cell::new(false)).collect(),
                cfg,
                nics,
                faults: RefCell::new(None),
            }),
        }
    }

    /// Fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.inner.cfg
    }

    /// Arm chaos injection on every non-loopback link: messages may be
    /// dropped after occupying the wire, delivered twice, or delayed by
    /// a bounded extra latency, as the plan decides.
    pub fn set_fault_plan(&self, plan: Arc<FaultPlan>) {
        *self.inner.faults.borrow_mut() = Some(plan);
    }

    /// Declare `node`'s NIC dead (whole-node loss): messages to or from
    /// it still occupy ports and wire time (in-flight traffic does not
    /// un-happen) but are never delivered, and nothing it would send
    /// reaches an inbox again. Irreversible for the run.
    pub fn kill_node(&self, node: NodeId) {
        self.inner.dead[node as usize].set(true);
    }

    /// Has `node` been declared dead?
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.inner.dead[node as usize].get()
    }

    /// Take `node`'s NIC off the wire without declaring it dead: the
    /// planned counterpart of [`Fabric::kill_node`]. Off-wire delivery
    /// semantics are identical (traffic occupies the wire but is never
    /// delivered); the difference is intent and reversibility — a
    /// joiner's NIC starts offline and comes up via
    /// [`Fabric::set_online`].
    pub fn set_offline(&self, node: NodeId) {
        self.inner.offline[node as usize].set(true);
    }

    /// Bring `node`'s NIC onto the wire (join bring-up). Death is not
    /// reversible: a killed NIC stays off the wire regardless.
    pub fn set_online(&self, node: NodeId) {
        self.inner.offline[node as usize].set(false);
    }

    /// Is `node`'s NIC currently off the wire (offline or dead)?
    pub fn is_offwire(&self, node: NodeId) -> bool {
        self.is_dead(node) || self.inner.offline[node as usize].get()
    }

    /// Send `msg` (declared wire size `size` bytes) from `src` to `dst`,
    /// blocking the calling process for the transfer duration. The
    /// message is in `dst`'s inbox when this returns.
    ///
    /// Loopback (`src == dst`) is free of port occupancy and latency:
    /// intra-node "messages" model function calls, not wire traffic.
    pub async fn send(&self, src: NodeId, dst: NodeId, size: u64, msg: M) -> SimResult<()> {
        {
            let mut st = self.inner.stats.borrow_mut();
            st.bytes_total += size;
            st.messages += 1;
            st.tx_bytes[src as usize] += size;
            st.rx_bytes[dst as usize] += size;
            st.link_bytes[src as usize][dst as usize] += size;
            st.link_messages[src as usize][dst as usize] += 1;
        }
        if src == dst {
            if !self.is_offwire(dst) {
                self.inner.nics[dst as usize].inbox.send((src, msg));
            }
            return Ok(());
        }
        // Chaos: one decision per class per message, drawn before the
        // wire so the fault stream is a pure function of message order.
        let (mut wire, mut dropped, mut dup) = (self.inner.cfg.wire_time(size), false, false);
        if let Some(p) = self.inner.faults.borrow().as_ref() {
            if p.decide(FaultClass::NetDelay) {
                // Bounded: at most 4 extra one-way latencies.
                let extra = self.inner.cfg.latency.as_nanos() as f64
                    * 4.0
                    * p.fraction(FaultClass::NetDelay);
                wire += SimDuration::from_nanos(extra as u64);
            }
            dropped = p.decide(FaultClass::NetDrop);
            dup = p.decide(FaultClass::NetDup);
        }
        let s = &self.inner.nics[src as usize];
        let d = &self.inner.nics[dst as usize];
        s.tx.acquire().await;
        d.rx.acquire().await;
        delay(wire).await?;
        d.rx.release();
        s.tx.release();
        if dropped {
            // The message occupied both ports and the wire, then
            // vanished; the sender cannot tell. Recovery is the
            // reliability layer's problem.
            return Ok(());
        }
        if self.is_offwire(src) || self.is_offwire(dst) {
            // An off-wire endpoint (killed, not yet joined, or drained
            // away before or during the transfer): the bytes were on
            // the wire but there is nobody to receive them — same
            // observable outcome as a drop.
            return Ok(());
        }
        if dup {
            self.inner.nics[dst as usize].inbox.send((src, msg.clone()));
        }
        self.inner.nics[dst as usize].inbox.send((src, msg));
        Ok(())
    }

    /// Fire-and-forget send: a helper process performs the transfer; the
    /// returned signal is set when the message has been delivered.
    pub fn send_detached(&self, src: NodeId, dst: NodeId, size: u64, msg: M) -> Signal {
        let done = Signal::new();
        let fab = self.clone();
        let sig = done.clone();
        process(format!("net:send:{src}->{dst}")).daemon().spawn(async move {
            if fab.send(src, dst, size, msg).await.is_ok() {
                sig.set();
            }
        });
        done
    }

    /// Receive the next message addressed to `node`, parking until one
    /// arrives. Returns `(sender, message)`.
    pub async fn recv(&self, node: NodeId) -> SimResult<(NodeId, M)> {
        self.inner.nics[node as usize].inbox.recv().await
    }

    /// Non-blocking receive.
    pub fn try_recv(&self, node: NodeId) -> Option<(NodeId, M)> {
        self.inner.nics[node as usize].inbox.try_recv()
    }

    /// Snapshot of the traffic counters.
    pub fn stats(&self) -> NetStats {
        self.inner.stats.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompss_sim::{now, Sim};

    fn cfg() -> FabricConfig {
        // 1 GB/s, 1 µs latency: a 1000-byte message takes 2 µs.
        FabricConfig { nodes: 4, latency: SimDuration::from_micros(1), bandwidth: 1e9 }
    }

    #[test]
    fn wire_time_includes_latency_and_serialisation() {
        let c = cfg();
        assert_eq!(c.wire_time(0).as_nanos(), 1_000);
        assert_eq!(c.wire_time(1000).as_nanos(), 2_000);
    }

    #[test]
    fn message_arrives_after_wire_time() {
        let sim = Sim::new();
        let fab: Fabric<u32> = Fabric::new(cfg());
        let f1 = fab.clone();
        sim.spawn("sender", async move {
            f1.send(0, 1, 1000, 42).await.unwrap();
            assert_eq!(now().as_nanos(), 2_000);
        });
        let f2 = fab.clone();
        sim.spawn("receiver", async move {
            let (src, msg) = f2.recv(1).await.unwrap();
            assert_eq!((src, msg), (0, 42));
            assert_eq!(now().as_nanos(), 2_000);
        });
        sim.run().unwrap();
    }

    #[test]
    fn same_source_sends_serialise_on_tx_port() {
        // Two 1000-byte messages from node 0 must take 2 + 2 µs on TX.
        let sim = Sim::new();
        let fab: Fabric<u32> = Fabric::new(cfg());
        for (i, dst) in [(0u32, 1u32), (1, 2)] {
            let f = fab.clone();
            sim.spawn(format!("s{i}"), async move {
                f.send(0, dst, 1000, i).await.unwrap();
            });
        }
        let f = fab.clone();
        sim.spawn("r2", async move {
            let _ = f.recv(2).await.unwrap();
            assert_eq!(now().as_nanos(), 4_000, "second transfer queued behind first");
        });
        sim.run().unwrap();
    }

    #[test]
    fn incast_serialises_on_rx_port() {
        // Nodes 1 and 2 both send 1000 bytes to node 0: the second
        // delivery waits for node 0's RX port.
        let sim = Sim::new();
        let fab: Fabric<u32> = Fabric::new(cfg());
        for src in [1u32, 2] {
            let f = fab.clone();
            sim.spawn(format!("s{src}"), async move {
                f.send(src, 0, 1000, src).await.unwrap();
            });
        }
        let f = fab.clone();
        sim.spawn("sink", async move {
            let _ = f.recv(0).await.unwrap();
            let _ = f.recv(0).await.unwrap();
            assert_eq!(now().as_nanos(), 4_000);
        });
        sim.run().unwrap();
    }

    #[test]
    fn disjoint_pairs_transfer_concurrently() {
        let sim = Sim::new();
        let fab: Fabric<u32> = Fabric::new(cfg());
        for (src, dst) in [(0u32, 1u32), (2, 3)] {
            let f = fab.clone();
            sim.spawn(format!("s{src}"), async move {
                f.send(src, dst, 1000, 0).await.unwrap();
                assert_eq!(now().as_nanos(), 2_000, "no cross-pair contention");
            });
        }
        sim.run().unwrap();
    }

    #[test]
    fn loopback_is_immediate() {
        let sim = Sim::new();
        let fab: Fabric<u32> = Fabric::new(cfg());
        let f = fab.clone();
        sim.spawn("p", async move {
            f.send(2, 2, 1_000_000, 9).await.unwrap();
            assert_eq!(now().as_nanos(), 0);
            assert_eq!(f.recv(2).await.unwrap(), (2, 9));
        });
        sim.run().unwrap();
    }

    #[test]
    fn detached_send_sets_signal_on_delivery() {
        let sim = Sim::new();
        let fab: Fabric<u32> = Fabric::new(cfg());
        let f = fab.clone();
        sim.spawn("p", async move {
            let done = f.send_detached(0, 1, 1000, 5);
            assert!(!done.is_set(), "send is asynchronous");
            done.wait().await;
            assert_eq!(now().as_nanos(), 2_000);
            assert_eq!(f.try_recv(1), Some((0, 5)));
        });
        sim.run().unwrap();
    }

    #[test]
    fn stats_account_bytes_and_messages() {
        let sim = Sim::new();
        let fab: Fabric<u32> = Fabric::new(cfg());
        let f = fab.clone();
        sim.spawn("p", async move {
            f.send(0, 1, 500, 1).await.unwrap();
            f.send(1, 0, 300, 2).await.unwrap();
            let st = f.stats();
            assert_eq!(st.bytes_total, 800);
            assert_eq!(st.messages, 2);
            assert_eq!(st.tx_bytes, vec![500, 300, 0, 0]);
            assert_eq!(st.rx_bytes, vec![300, 500, 0, 0]);
            assert_eq!(st.link_bytes[0][1], 500);
            assert_eq!(st.link_bytes[1][0], 300);
            assert_eq!(st.link_messages[0][1], 1);
            assert_eq!(st.master_link_bytes(), 800);
            assert_eq!(st.slave_link_bytes(), 0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn forced_drop_occupies_wire_but_never_delivers() {
        let sim = Sim::new();
        let fab: Fabric<u32> = Fabric::new(cfg());
        fab.set_fault_plan(Arc::new(FaultPlan::quiet(1).with_forced(FaultClass::NetDrop, 1)));
        let f = fab.clone();
        sim.spawn("p", async move {
            f.send(0, 1, 1000, 7).await.unwrap();
            assert_eq!(now().as_nanos(), 2_000, "dropped message still cost wire time");
            assert_eq!(f.try_recv(1), None, "dropped message must not arrive");
            f.send(0, 1, 1000, 8).await.unwrap();
            assert_eq!(f.try_recv(1), Some((0, 8)), "later messages flow normally");
        });
        sim.run().unwrap();
    }

    #[test]
    fn forced_dup_delivers_twice() {
        let sim = Sim::new();
        let fab: Fabric<u32> = Fabric::new(cfg());
        fab.set_fault_plan(Arc::new(FaultPlan::quiet(1).with_forced(FaultClass::NetDup, 1)));
        let f = fab.clone();
        sim.spawn("p", async move {
            f.send(0, 1, 100, 9).await.unwrap();
            assert_eq!(f.try_recv(1), Some((0, 9)));
            assert_eq!(f.try_recv(1), Some((0, 9)), "duplicated message arrives twice");
            assert_eq!(f.try_recv(1), None);
        });
        sim.run().unwrap();
    }

    #[test]
    fn delay_fault_is_bounded_and_deterministic() {
        let run = || {
            let sim = Sim::new();
            let fab: Fabric<u32> = Fabric::new(cfg());
            fab.set_fault_plan(Arc::new(
                FaultPlan::new(5, 0.0).with_rate(FaultClass::NetDelay, 1.0),
            ));
            let f = fab.clone();
            let t = Rc::new(RefCell::new(0u64));
            let t2 = t.clone();
            sim.spawn("p", async move {
                f.send(0, 1, 1000, 1).await.unwrap();
                *t2.borrow_mut() = now().as_nanos();
            });
            sim.run().unwrap();
            let v = *t.borrow();
            v
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "delay injection must replay exactly");
        // Base wire time 2µs; extra bounded by 4 × 1µs latency.
        assert!((2_000..6_000).contains(&a), "delay out of bounds: {a}");
    }

    #[test]
    fn loopback_is_immune_to_faults() {
        let sim = Sim::new();
        let fab: Fabric<u32> = Fabric::new(cfg());
        fab.set_fault_plan(Arc::new(
            FaultPlan::quiet(1)
                .with_forced(FaultClass::NetDrop, u64::MAX)
                .with_forced(FaultClass::NetDup, u64::MAX),
        ));
        let f = fab.clone();
        sim.spawn("p", async move {
            f.send(2, 2, 64, 3).await.unwrap();
            assert_eq!(f.try_recv(2), Some((2, 3)), "loopback models a call, not a wire");
            assert_eq!(f.try_recv(2), None);
        });
        sim.run().unwrap();
    }

    #[test]
    fn dead_node_messages_occupy_wire_but_never_deliver() {
        let sim = Sim::new();
        let fab: Fabric<u32> = Fabric::new(cfg());
        let f = fab.clone();
        sim.spawn("p", async move {
            f.kill_node(1);
            assert!(f.is_dead(1));
            assert!(!f.is_dead(0));
            // To the dead node: wire time charged, nothing delivered.
            f.send(0, 1, 1000, 7).await.unwrap();
            assert_eq!(now().as_nanos(), 2_000);
            assert_eq!(f.try_recv(1), None);
            // From the dead node (a zombie process mid-send): same.
            f.send(1, 2, 1000, 8).await.unwrap();
            assert_eq!(f.try_recv(2), None);
            // Dead-node loopback delivers nothing either.
            f.send(1, 1, 64, 9).await.unwrap();
            assert_eq!(f.try_recv(1), None);
            // Live pairs are unaffected.
            f.send(0, 2, 64, 10).await.unwrap();
            assert_eq!(f.try_recv(2), Some((0, 10)));
        });
        sim.run().unwrap();
    }

    #[test]
    fn offline_nic_is_off_the_wire_until_brought_online() {
        let sim = Sim::new();
        let fab: Fabric<u32> = Fabric::new(cfg());
        let f = fab.clone();
        sim.spawn("p", async move {
            // A joiner's NIC starts offline: wire time is charged (the
            // sender cannot tell) but nothing is delivered.
            f.set_offline(1);
            assert!(f.is_offwire(1));
            assert!(!f.is_dead(1), "offline is planned, not a death");
            f.send(0, 1, 1000, 7).await.unwrap();
            assert_eq!(f.try_recv(1), None);
            // Join bring-up: the same link now delivers.
            f.set_online(1);
            assert!(!f.is_offwire(1));
            f.send(0, 1, 1000, 8).await.unwrap();
            assert_eq!(f.try_recv(1), Some((0, 8)));
            // Death is not reversible via set_online.
            f.kill_node(2);
            f.set_online(2);
            assert!(f.is_offwire(2));
        });
        sim.run().unwrap();
    }

    #[test]
    fn link_matrix_separates_master_and_slave_traffic() {
        let sim = Sim::new();
        let fab: Fabric<u32> = Fabric::new(cfg());
        let f = fab.clone();
        sim.spawn("p", async move {
            f.send(0, 2, 100, 0).await.unwrap();
            f.send(1, 2, 40, 0).await.unwrap();
            f.send(3, 3, 7, 0).await.unwrap(); // loopback: neither bucket
            let st = f.stats();
            assert_eq!(st.master_link_bytes(), 100);
            assert_eq!(st.slave_link_bytes(), 40);
            assert_eq!(st.link_bytes[3][3], 7);
        });
        sim.run().unwrap();
    }
}
