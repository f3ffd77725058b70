//! A small MPI-like message-passing layer for the baseline applications.
//!
//! The paper compares OmpSs against hand-written MPI+CUDA programs
//! (SUMMA matrix multiply, STREAM, Perlin, N-Body). Those baselines are
//! reproduced here against this layer, which provides blocking tagged
//! point-to-point sends/receives with MPI's matching semantics
//! (source+tag, unexpected-message queue) plus the collectives the
//! baselines need: dissemination barrier, binomial-tree broadcast (also
//! over sub-groups, for SUMMA's row/column broadcasts) and ring
//! allgather. It runs over the same [`Fabric`](crate::Fabric) model as
//! the OmpSs runtime, so simulated times are directly comparable.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use ompss_sim::{abort_run, RunError, SimResult};

use crate::fabric::{Fabric, FabricConfig, NetStats, NodeId};

/// Wire overhead of a point-to-point message envelope, in bytes.
pub const MPI_ENVELOPE_BYTES: u64 = 64;

/// Default bound on each rank's unexpected-message queue. Real MPI
/// implementations cap eager buffering; an unbounded queue hides a
/// receiver that never matches what it is sent until memory runs out.
pub const MPI_UNEXPECTED_CAP: usize = 4096;

/// A tagged message. `data` carries real bytes when the sender provides
/// them (validation runs); `size` is always the modelled payload size.
#[derive(Debug, Clone)]
pub struct MpiMsg {
    /// User tag for matching.
    pub tag: u32,
    /// Modelled payload size in bytes.
    pub size: u64,
    /// Real payload bytes, if the sender supplied them.
    pub data: Option<Vec<u8>>,
}

/// Receive matching: MPI's `source` argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Match a specific sender rank.
    Rank(NodeId),
    /// `MPI_ANY_SOURCE`.
    Any,
}

/// Pressure observed on the world's unexpected-message queues — the
/// early-warning gauge for the bounded-queue abort: `peak` close to the
/// cap means the receive pattern is one burst away from
/// [`RunError::QueueOverflow`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnexpectedStats {
    /// Messages stashed as unexpected (received before any matching
    /// `recv` was posted), summed over all ranks.
    pub stashed: u64,
    /// High-water mark of any single rank's unexpected queue.
    pub peak: u64,
    /// Overflow aborts triggered (0 or 1 — the first ends the run).
    pub overflows: u64,
}

/// An MPI-like world of `size` ranks over a simulated fabric.
///
/// Clones share the same world.
pub struct Mpi {
    fabric: Fabric<MpiMsg>,
    /// Per-rank queue of received-but-unmatched messages.
    #[allow(clippy::type_complexity)]
    unexpected: Rc<Vec<RefCell<VecDeque<(NodeId, MpiMsg)>>>>,
    /// Bound on each unexpected queue; overflow aborts the run with
    /// [`RunError::QueueOverflow`] instead of growing silently.
    unexpected_cap: usize,
    /// `[stashed, peak, overflows]` — see [`UnexpectedStats`].
    unexpected_stats: Rc<[Cell<u64>; 3]>,
}

impl Clone for Mpi {
    fn clone(&self) -> Self {
        Mpi {
            fabric: self.fabric.clone(),
            unexpected: self.unexpected.clone(),
            unexpected_cap: self.unexpected_cap,
            unexpected_stats: self.unexpected_stats.clone(),
        }
    }
}

impl Mpi {
    /// Create a world over a fresh fabric.
    pub fn new(cfg: FabricConfig) -> Self {
        let n = cfg.nodes as usize;
        Mpi {
            fabric: Fabric::new(cfg),
            unexpected: Rc::new((0..n).map(|_| RefCell::new(VecDeque::new())).collect()),
            unexpected_cap: MPI_UNEXPECTED_CAP,
            unexpected_stats: Rc::default(),
        }
    }

    /// Override the unexpected-queue bound (tests use small caps).
    pub fn with_unexpected_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "unexpected-queue cap must be positive");
        self.unexpected_cap = cap;
        self
    }

    /// Number of ranks.
    pub fn size(&self) -> u32 {
        self.fabric.config().nodes
    }

    /// The communicator handle for rank `rank`. Each rank must be driven
    /// by a single simulation process.
    pub fn rank(&self, rank: NodeId) -> MpiRank {
        assert!(rank < self.size());
        MpiRank { rank, world: self.clone() }
    }

    /// Traffic counters.
    pub fn stats(&self) -> NetStats {
        self.fabric.stats()
    }

    /// Unexpected-queue pressure counters.
    pub fn unexpected_stats(&self) -> UnexpectedStats {
        UnexpectedStats {
            stashed: self.unexpected_stats[0].get(),
            peak: self.unexpected_stats[1].get(),
            overflows: self.unexpected_stats[2].get(),
        }
    }
}

/// One rank's view of the world.
pub struct MpiRank {
    rank: NodeId,
    world: Mpi,
}

impl Clone for MpiRank {
    fn clone(&self) -> Self {
        MpiRank { rank: self.rank, world: self.world.clone() }
    }
}

impl MpiRank {
    /// This rank's index.
    pub fn rank(&self) -> NodeId {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> u32 {
        self.world.size()
    }

    /// Blocking tagged send of `size` modelled bytes (optionally with
    /// real data). Completes when the message is delivered — rendezvous
    /// semantics, like a large-message `MPI_Send`.
    pub async fn send(
        &self,
        dst: NodeId,
        tag: u32,
        size: u64,
        data: Option<Vec<u8>>,
    ) -> SimResult<()> {
        self.world
            .fabric
            .send(self.rank, dst, MPI_ENVELOPE_BYTES + size, MpiMsg { tag, size, data })
            .await
    }

    /// Blocking receive matching `source` and `tag` (`None` = any tag).
    /// Returns `(sender, message)`.
    pub async fn recv(&self, source: Source, tag: Option<u32>) -> SimResult<(NodeId, MpiMsg)> {
        let matches = |src: NodeId, m: &MpiMsg| {
            (match source {
                Source::Rank(r) => src == r,
                Source::Any => true,
            }) && tag.is_none_or(|t| m.tag == t)
        };
        // First scan the unexpected queue (FIFO within matches).
        {
            let mut q = self.world.unexpected[self.rank as usize].borrow_mut();
            if let Some(pos) = q.iter().position(|(s, m)| matches(*s, m)) {
                return Ok(q.remove(pos).expect("position just found"));
            }
        }
        // Then pull from the wire, stashing non-matching messages.
        loop {
            let (src, msg) = self.world.fabric.recv(self.rank).await?;
            if matches(src, &msg) {
                return Ok((src, msg));
            }
            let mut q = self.world.unexpected[self.rank as usize].borrow_mut();
            if q.len() >= self.world.unexpected_cap {
                let overflows = &self.world.unexpected_stats[2];
                overflows.set(overflows.get() + 1);
                return Err(abort_run(RunError::QueueOverflow {
                    queue: format!("mpi:rank{}:unexpected", self.rank),
                    capacity: self.world.unexpected_cap,
                }));
            }
            q.push_back((src, msg));
            let [stashed, peak, _] = &*self.world.unexpected_stats;
            stashed.set(stashed.get() + 1);
            peak.set(peak.get().max(q.len() as u64));
        }
    }

    /// Dissemination barrier: ⌈log₂ p⌉ rounds, no master hotspot.
    pub async fn barrier(&self, tag: u32) -> SimResult<()> {
        let p = self.size();
        if p == 1 {
            return Ok(());
        }
        let mut step = 1u32;
        let mut round = 0u32;
        while step < p {
            let dst = (self.rank + step) % p;
            let src = (self.rank + p - step) % p;
            // Send then receive; both are on disjoint ports so the
            // pattern cannot deadlock in this fabric model.
            self.send(dst, tag + round, 0, None).await?;
            let _ = self.recv(Source::Rank(src), Some(tag + round)).await?;
            step *= 2;
            round += 1;
        }
        Ok(())
    }

    /// Binomial-tree broadcast over the whole world.
    /// Returns the payload (the root passes it in; others receive it).
    pub async fn bcast(
        &self,
        root: NodeId,
        tag: u32,
        size: u64,
        data: Option<Vec<u8>>,
    ) -> SimResult<Option<Vec<u8>>> {
        let group: Vec<NodeId> = (0..self.size()).collect();
        self.bcast_group(&group, root, tag, size, data).await
    }

    /// Binomial-tree broadcast over an explicit `group` of ranks (used
    /// for SUMMA's row/column broadcasts). `root` must be in the group;
    /// every group member must call with identical arguments.
    pub async fn bcast_group(
        &self,
        group: &[NodeId],
        root: NodeId,
        tag: u32,
        size: u64,
        data: Option<Vec<u8>>,
    ) -> SimResult<Option<Vec<u8>>> {
        let p = group.len() as u32;
        let me =
            group.iter().position(|&r| r == self.rank).expect("calling rank not in bcast group")
                as u32;
        let rootpos =
            group.iter().position(|&r| r == root).expect("root not in bcast group") as u32;
        // Standard binomial tree over virtual ranks (root at 0): a rank
        // receives from the peer that differs in its lowest set bit,
        // then forwards to peers formed by setting each lower bit.
        let vrank = (me + p - rootpos) % p;
        let to_real = |v: u32| group[((v + rootpos) % p) as usize];
        let mut payload = data;
        let mut mask = 1u32;
        while mask < p {
            if vrank & mask != 0 {
                let parent = to_real(vrank ^ mask);
                let (_, msg) = self.recv(Source::Rank(parent), Some(tag)).await?;
                payload = msg.data;
                break;
            }
            mask <<= 1;
        }
        // `mask` is now our lowest set bit (or ≥ the group size for the
        // root); children are vrank | m for every m below it.
        mask >>= 1;
        while mask > 0 {
            let vchild = vrank | mask;
            if vchild < p && vchild != vrank {
                self.send(to_real(vchild), tag, size, payload.clone()).await?;
            }
            mask >>= 1;
        }
        Ok(payload)
    }

    /// Ring allgather: every rank contributes `size` modelled bytes and
    /// receives all contributions. Returns the gathered contributions in
    /// rank order (each `None` unless real data was supplied).
    pub async fn allgather(
        &self,
        tag: u32,
        size: u64,
        data: Option<Vec<u8>>,
    ) -> SimResult<Vec<Option<Vec<u8>>>> {
        let p = self.size();
        let mut slots: Vec<Option<Option<Vec<u8>>>> = vec![None; p as usize];
        slots[self.rank as usize] = Some(data.clone());
        if p == 1 {
            return Ok(slots.into_iter().map(|s| s.expect("own slot")).collect());
        }
        let right = (self.rank + 1) % p;
        let left = (self.rank + p - 1) % p;
        // At step s we forward the block that originated at rank - s.
        let mut carry = data;
        let mut carry_origin = self.rank;
        for _ in 0..p - 1 {
            self.send(right, tag, size, carry.clone()).await?;
            let (_, msg) = self.recv(Source::Rank(left), Some(tag)).await?;
            carry_origin = (carry_origin + p - 1) % p;
            carry = msg.data;
            slots[carry_origin as usize] = Some(carry.clone());
        }
        Ok(slots.into_iter().map(|s| s.expect("ring visits every origin")).collect())
    }

    /// Gather to `root`: everyone sends `size` bytes to the root, which
    /// receives them in rank order. Returns contributions at the root.
    pub async fn gather(
        &self,
        root: NodeId,
        tag: u32,
        size: u64,
        data: Option<Vec<u8>>,
    ) -> SimResult<Option<Vec<Option<Vec<u8>>>>> {
        if self.rank == root {
            let mut out: Vec<Option<Vec<u8>>> = vec![None; self.size() as usize];
            out[root as usize] = data;
            for r in 0..self.size() {
                if r == root {
                    continue;
                }
                let (_, msg) = self.recv(Source::Rank(r), Some(tag)).await?;
                out[r as usize] = msg.data;
            }
            Ok(Some(out))
        } else {
            self.send(root, tag, size, data).await?;
            Ok(None)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompss_sim::{delay, now, Sim, SimDuration};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn world(n: u32) -> Mpi {
        Mpi::new(FabricConfig { nodes: n, latency: SimDuration::from_micros(1), bandwidth: 1e9 })
    }

    /// Run `f(rank_handle)` on every rank as its own process.
    fn run_ranks<F, Fut>(mpi: &Mpi, f: F)
    where
        F: Fn(MpiRank) -> Fut + 'static,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        let sim = Sim::new();
        let f = Rc::new(f);
        for r in 0..mpi.size() {
            let rank = mpi.rank(r);
            let f = f.clone();
            sim.spawn(format!("rank{r}"), async move { f(rank).await });
        }
        sim.run().unwrap();
    }

    #[test]
    fn send_recv_with_data() {
        let mpi = world(2);
        run_ranks(&mpi, |rank| async move {
            if rank.rank() == 0 {
                rank.send(1, 7, 3, Some(vec![1, 2, 3])).await.unwrap();
            } else {
                let (src, msg) = rank.recv(Source::Rank(0), Some(7)).await.unwrap();
                assert_eq!(src, 0);
                assert_eq!(msg.data, Some(vec![1, 2, 3]));
                assert_eq!(msg.size, 3);
            }
        });
    }

    #[test]
    fn recv_matches_tag_with_unexpected_queue() {
        let mpi = world(2);
        run_ranks(&mpi, |rank| async move {
            if rank.rank() == 0 {
                rank.send(1, 1, 0, Some(vec![1])).await.unwrap();
                rank.send(1, 2, 0, Some(vec![2])).await.unwrap();
            } else {
                // Receive tag 2 first although tag 1 arrives first.
                let (_, m2) = rank.recv(Source::Rank(0), Some(2)).await.unwrap();
                assert_eq!(m2.data, Some(vec![2]));
                let (_, m1) = rank.recv(Source::Rank(0), Some(1)).await.unwrap();
                assert_eq!(m1.data, Some(vec![1]));
            }
        });
    }

    #[test]
    fn recv_any_source() {
        let mpi = world(3);
        run_ranks(&mpi, |rank| async move {
            match rank.rank() {
                0 => {
                    let mut got = Vec::new();
                    for _ in 0..2 {
                        let (src, _) = rank.recv(Source::Any, Some(9)).await.unwrap();
                        got.push(src);
                    }
                    got.sort();
                    assert_eq!(got, vec![1, 2]);
                }
                _ => rank.send(0, 9, 10, None).await.unwrap(),
            }
        });
    }

    #[test]
    fn barrier_synchronises_all_ranks() {
        for p in [1u32, 2, 3, 4, 8] {
            let mpi = world(p);
            let after = Rc::new(RefCell::new(Vec::new()));
            let a = after.clone();
            run_ranks(&mpi, move |rank| {
                let a = a.clone();
                async move {
                    // Stagger arrival.
                    delay(SimDuration::from_micros(rank.rank() as u64 * 10)).await.unwrap();
                    rank.barrier(100).await.unwrap();
                    a.borrow_mut().push(now());
                }
            });
            let times = after.borrow().clone();
            assert_eq!(times.len(), p as usize);
            let min = times.iter().min().unwrap();
            // All ranks leave the barrier no earlier than the last arrival.
            assert!(min.as_nanos() >= (p as u64 - 1) * 10_000, "p={p}");
        }
    }

    #[test]
    fn bcast_delivers_payload_to_all() {
        for p in [1u32, 2, 3, 4, 5, 8] {
            for root in [0, p - 1] {
                let mpi = world(p);
                run_ranks(&mpi, move |rank| async move {
                    let data = if rank.rank() == root { Some(vec![42, root as u8]) } else { None };
                    let out = rank.bcast(root, 5, 2, data).await.unwrap();
                    assert_eq!(out, Some(vec![42, root as u8]), "p={p} root={root}");
                });
            }
        }
    }

    #[test]
    fn bcast_group_works_on_subsets() {
        // Ranks {1, 3} form a group with root 3; others do nothing.
        let mpi = world(4);
        run_ranks(&mpi, |rank| async move {
            let group = [1u32, 3];
            if group.contains(&rank.rank()) {
                let data = if rank.rank() == 3 { Some(vec![7]) } else { None };
                let out = rank.bcast_group(&group, 3, 11, 1, data).await.unwrap();
                assert_eq!(out, Some(vec![7]));
            }
        });
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        for p in [1u32, 2, 3, 4, 6] {
            let mpi = world(p);
            run_ranks(&mpi, move |rank| async move {
                let mine = vec![rank.rank() as u8];
                let all = rank.allgather(3, 1, Some(mine)).await.unwrap();
                let expect: Vec<_> = (0..p).map(|r| Some(vec![r as u8])).collect();
                assert_eq!(all, expect, "p={p}");
            });
        }
    }

    #[test]
    fn gather_collects_at_root() {
        let mpi = world(4);
        run_ranks(&mpi, |rank| async move {
            let out = rank.gather(2, 8, 1, Some(vec![rank.rank() as u8])).await.unwrap();
            if rank.rank() == 2 {
                let got = out.unwrap();
                assert_eq!(got, vec![Some(vec![0]), Some(vec![1]), Some(vec![2]), Some(vec![3])]);
            } else {
                assert!(out.is_none());
            }
        });
    }

    #[test]
    fn unexpected_queue_overflow_surfaces_as_run_error() {
        let mpi = world(2).with_unexpected_cap(2);
        let sim = Sim::new();
        let r0 = mpi.rank(0);
        sim.spawn("rank0", async move {
            // Four tag-1 messages the receiver never matches.
            for _ in 0..4 {
                let _ = r0.send(1, 1, 0, None).await;
            }
        });
        let r1 = mpi.rank(1);
        sim.spawn("rank1", async move {
            // Waits for tag 2, which never comes; the mismatched tag-1
            // flood must overflow the bounded queue, not grow forever.
            let _ = r1.recv(Source::Rank(0), Some(2)).await;
        });
        match sim.run() {
            Err(e @ ompss_sim::RunError::QueueOverflow { .. }) => {
                match &e {
                    ompss_sim::RunError::QueueOverflow { queue, capacity } => {
                        assert_eq!(queue, "mpi:rank1:unexpected");
                        assert_eq!(*capacity, 2);
                    }
                    _ => unreachable!(),
                }
                // The overflow is momentary pressure, not a defect: a
                // job server may re-run the spec.
                assert!(e.is_retryable(), "queue overflow must classify as retryable");
            }
            other => panic!("expected QueueOverflow, got {other:?}"),
        }
        // The pressure gauge reports the path to the abort: two stashes
        // filled the queue to its cap, the third triggered the overflow.
        let stats = mpi.unexpected_stats();
        assert_eq!(stats, UnexpectedStats { stashed: 2, peak: 2, overflows: 1 });
    }

    #[test]
    fn unexpected_stats_track_peak_without_overflow() {
        let mpi = world(2).with_unexpected_cap(8);
        run_ranks(&mpi, |rank| async move {
            if rank.rank() == 0 {
                for tag in [1u32, 2, 3] {
                    rank.send(1, tag, 0, None).await.unwrap();
                }
            } else {
                // Match in reverse order: tags 1 and 2 get stashed
                // while waiting for 3, then drain from the queue.
                for tag in [3u32, 2, 1] {
                    rank.recv(Source::Rank(0), Some(tag)).await.unwrap();
                }
            }
        });
        let stats = mpi.unexpected_stats();
        assert_eq!(stats.overflows, 0);
        assert_eq!(stats.stashed, 2);
        assert_eq!(stats.peak, 2);
    }

    #[test]
    fn bigger_payloads_take_longer() {
        let mpi = world(2);
        let t_small = Rc::new(RefCell::new(0u64));
        let ts = t_small.clone();
        run_ranks(&mpi, move |rank| {
            let ts = ts.clone();
            async move {
                if rank.rank() == 0 {
                    rank.send(1, 0, 1_000_000, None).await.unwrap();
                    *ts.borrow_mut() = now().as_nanos();
                } else {
                    rank.recv(Source::Rank(0), Some(0)).await.unwrap();
                }
            }
        });
        // ~1ms for 1MB at 1GB/s (plus envelope + latency).
        let t = *t_small.borrow();
        assert!(t > 1_000_000 && t < 1_100_000, "t={t}");
    }
}
