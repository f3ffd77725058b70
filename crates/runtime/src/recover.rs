//! Reliable delivery for the cluster control protocol under chaos.
//!
//! The fabric's fault plan may drop, duplicate or delay any message
//! (see `ompss_net`), so when faults are armed every *control* message
//! (`Exec`, `Done`, `Failed`, `GpuDown`) travels with a globally unique
//! id, the receiver acknowledges it, and the sender retransmits on an
//! ack timeout with exponential backoff until a budget runs out. The
//! receiver deduplicates by id (a retransmission whose original did
//! arrive is re-acked but not reprocessed), which makes duplicated
//! *and* dropped messages both safe.
//!
//! Bulk `Data` messages need none of this: they model wire occupancy,
//! and the simulated byte movement is performed by the executor after
//! the send — a dropped `Data` costs time, never data.
//!
//! When faults are off the runtime sends plain messages and none of
//! this state exists — the zero-cost contract.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::future::Future;

use ompss_sim::{abort_run, Backoff, RunError, Signal, SimDuration, SimResult};

use crate::stats::Counters;

/// Shared reliable-delivery state: one instance per run, used by every
/// node image (the simulation is one process, so ids are globally
/// unique by construction).
pub(crate) struct Reliability {
    next_id: Cell<u64>,
    /// Unacknowledged sends, keyed by message id; each carries its
    /// endpoint nodes `(src, dst)` (so node-loss recovery can abandon
    /// every exchange touching a dead peer — aimed at it, or stuck on
    /// it when it died) and the signal that wakes the blocked sender
    /// when the ack arrives.
    pending: RefCell<HashMap<u64, (u32, u32, Signal)>>,
    /// Every id already processed by a receiver (dedup).
    seen: RefCell<HashSet<u64>>,
    /// Nodes declared dead: sends to them resolve immediately instead
    /// of burning the retransmit budget on a peer that cannot answer.
    dead: RefCell<HashSet<u32>>,
    /// First ack wait; doubles per retransmission.
    base_timeout: SimDuration,
    /// Retransmissions allowed before the run aborts.
    budget: u32,
}

impl Reliability {
    /// New delivery state with `budget` retransmissions per message and
    /// an initial ack timeout of `base_timeout`.
    pub fn new(base_timeout: SimDuration, budget: u32) -> Self {
        Reliability {
            next_id: Cell::new(0),
            pending: RefCell::default(),
            seen: RefCell::default(),
            dead: RefCell::default(),
            base_timeout,
            budget,
        }
    }

    /// Send a message from node `src` to node `dst` built by `send(id)`
    /// and park until its ack arrives, retransmitting on timeout. Each
    /// retransmission doubles the wait and bumps `am_retries`. When the
    /// budget is exhausted the whole run is aborted with
    /// [`RunError::Exhausted`] — an unreachable peer is unrecoverable,
    /// unless node-loss recovery declared either endpoint dead, in
    /// which case the exchange is abandoned as delivered (the recovery
    /// path re-homes whatever the message was about, and a sender on a
    /// dead node is about to observe its own death and stand down).
    pub async fn send_reliable<F, Fut>(
        &self,
        counters: &Counters,
        what: &str,
        src: u32,
        dst: u32,
        mut send: F,
    ) -> SimResult<()>
    where
        F: FnMut(u64) -> Fut,
        Fut: Future<Output = SimResult<()>>,
    {
        {
            let dead = self.dead.borrow();
            if dead.contains(&dst) || dead.contains(&src) {
                return Ok(());
            }
        }
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let sig = Signal::new();
        self.pending.borrow_mut().insert(id, (src, dst, sig.clone()));
        // One ack wait per attempt, doubling: the shared deterministic
        // backoff schedule (also used by `ompss-serve` job retries).
        let attempts = self.budget.saturating_add(1);
        for (attempt, timeout) in Backoff::exponential(self.base_timeout, attempts).enumerate() {
            if attempt > 0 {
                Counters::add(&counters.am_retries, 1);
            }
            send(id).await?;
            if sig.wait_timeout(timeout).await {
                self.pending.borrow_mut().remove(&id);
                return Ok(());
            }
        }
        self.pending.borrow_mut().remove(&id);
        Err(abort_run(RunError::Exhausted { what: format!("{what} retransmissions"), attempts }))
    }

    /// Node `node` died: wake every sender blocked on an exchange
    /// touching it — sends aimed at it *and* sends stuck on it (the
    /// fabric silences a dead node in both directions, so neither kind
    /// of exchange can ever complete) — and short-circuit all future
    /// sends involving it. Idempotent.
    pub fn abandon_node(&self, node: u32) {
        self.dead.borrow_mut().insert(node);
        let mut pending = self.pending.borrow_mut();
        for (_, (src, dst, sig)) in pending.iter() {
            if *dst == node || *src == node {
                sig.set();
            }
        }
        pending.retain(|_, (src, dst, _)| *dst != node && *src != node);
    }

    /// An ack for `id` arrived: wake its sender. Idempotent (duplicate
    /// acks, or acks racing a concurrent timeout, are no-ops).
    pub fn on_ack(&self, id: u64) {
        if let Some((_, _, sig)) = self.pending.borrow_mut().remove(&id) {
            sig.set();
        }
    }

    /// Receiver-side dedup: true exactly once per id. The caller acks
    /// regardless (the sender may have missed the first ack) but only
    /// acts when this returns true.
    pub fn should_process(&self, id: u64) -> bool {
        self.seen.borrow_mut().insert(id)
    }
}

#[cfg(test)]
mod tests {
    use std::future::{ready, Ready};
    use std::rc::Rc;

    use ompss_sim::{delay, now, process, Sim};

    use super::*;

    #[test]
    fn retransmission_recovers_a_dropped_message() {
        let rel = Rc::new(Reliability::new(SimDuration::from_micros(10), 3));
        let counters = Rc::new(Counters::new());
        let sent = Rc::new(Cell::new(0u64));
        let (r2, c2, s2) = (rel.clone(), counters.clone(), sent.clone());
        let sim = Sim::new();
        sim.spawn("sender", async move {
            let r3 = &r2;
            r2.send_reliable(&c2, "test", 0, 1, |id| {
                s2.set(s2.get() + 1);
                if s2.get() == 1 {
                    return ready(Ok(())); // the first copy vanishes on the wire
                }
                let r4 = r3.clone();
                process("acker").daemon().spawn(async move {
                    let _ = delay(SimDuration::from_micros(1)).await;
                    r4.on_ack(id);
                });
                ready(Ok(()))
            })
            .await
            .expect("retransmission must recover the message");
        });
        sim.run().expect("run completes");
        assert_eq!(sent.get(), 2, "exactly one retransmission");
        assert_eq!(counters.snapshot().am_retries, 1);
    }

    #[test]
    fn exhausted_budget_aborts_the_run() {
        let rel = Rc::new(Reliability::new(SimDuration::from_micros(5), 2));
        let counters = Rc::new(Counters::new());
        let sim = Sim::new();
        sim.spawn("sender", async move {
            let r = rel.send_reliable(&counters, "exec", 0, 1, |_| ready(Ok(()))).await;
            assert!(r.is_err(), "an unacknowledged message must fail the send");
        });
        match sim.run() {
            Err(RunError::Exhausted { attempts, .. }) => assert_eq!(attempts, 3),
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn abandon_to_resolves_pending_and_future_sends_to_a_dead_node() {
        let rel = Rc::new(Reliability::new(SimDuration::from_micros(50), 2));
        let counters = Rc::new(Counters::new());
        let (r2, c2) = (rel.clone(), counters.clone());
        let sim = Sim::new();
        sim.spawn("sender", async move {
            let r3 = r2.clone();
            process("reaper").daemon().spawn(async move {
                let _ = delay(SimDuration::from_micros(10)).await;
                r3.abandon_node(2);
            });
            // Never acked, but abandoned before any retransmission: the
            // exchange resolves without burning the budget or aborting.
            r2.send_reliable(&c2, "exec", 0, 2, |_| ready(Ok(())))
                .await
                .expect("abandoned exchange resolves as delivered");
            // Sends to an already-dead node return immediately.
            let t0 = now();
            r2.send_reliable(&c2, "exec", 0, 2, |_| -> Ready<SimResult<()>> {
                panic!("must not hit the wire")
            })
            .await
            .expect("dead-node send short-circuits");
            assert_eq!(now(), t0);
            // Exchanges with live nodes still work as before.
            let r4 = r2.clone();
            r2.send_reliable(&c2, "done", 1, 0, |id| {
                let r5 = r4.clone();
                process("acker").daemon().spawn(async move {
                    let _ = delay(SimDuration::from_micros(1)).await;
                    r5.on_ack(id);
                });
                ready(Ok(()))
            })
            .await
            .expect("live exchange unaffected");
        });
        sim.run().expect("run completes");
        assert_eq!(counters.snapshot().am_retries, 0);
    }

    #[test]
    fn duplicate_ids_are_processed_once() {
        let rel = Reliability::new(SimDuration::from_micros(1), 0);
        assert!(rel.should_process(7));
        assert!(!rel.should_process(7), "retransmitted id must be deduplicated");
        assert!(rel.should_process(8));
    }
}
