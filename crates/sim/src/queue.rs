//! FIFO channels between simulation processes.
//!
//! [`Channel`] is an unbounded multi-producer multi-consumer queue with
//! deterministic FIFO delivery: items are received in send order, and
//! blocked receivers are served in the order they blocked. `send` never
//! blocks (the modelled queues — ready-task pools, message inboxes — are
//! unbounded in Nanos++ too); `recv().await` parks the calling process
//! until an item arrives.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::rc::Rc;

use crate::engine::{mc_resource_id, mc_touch, park_while, with_current_shared, Pid};
use crate::error::{SimError, SimResult};

struct Inner<T> {
    items: VecDeque<T>,
    waiters: VecDeque<Pid>,
    /// Items handed directly to a woken receiver. When `send` finds a
    /// parked waiter it moves the item here instead of through `items`,
    /// so the receiver's wake path is a guaranteed O(1) claim — it can
    /// never lose its item to another consumer and re-park. A pid
    /// appears at most once (a parked process cannot call `recv` again).
    handoff: Vec<(Pid, T)>,
    closed: bool,
}

/// An unbounded MPMC FIFO channel for simulation processes.
///
/// Clones share the same queue.
pub struct Channel<T> {
    inner: Rc<RefCell<Inner<T>>>,
    /// Stable resource id for the model checker's independence oracle.
    id: u64,
}

impl<T> Clone for Channel<T> {
    fn clone(&self) -> Self {
        Channel { inner: self.inner.clone(), id: self.id }
    }
}

impl<T> Default for Channel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Channel<T> {
    /// Create an empty channel.
    pub fn new() -> Self {
        Channel {
            inner: Rc::new(RefCell::new(Inner {
                items: VecDeque::new(),
                waiters: VecDeque::new(),
                handoff: Vec::new(),
                closed: false,
            })),
            id: mc_resource_id(),
        }
    }

    /// Enqueue an item. If a receiver is parked, the oldest one is woken
    /// at the current virtual time. Never blocks.
    pub fn send(&self, item: T) {
        mc_touch(self.id);
        let wake = {
            let mut inner = self.inner.borrow_mut();
            match inner.waiters.pop_front() {
                Some(pid) => {
                    inner.handoff.push((pid, item));
                    Some(pid)
                }
                None => {
                    inner.items.push_back(item);
                    None
                }
            }
        };
        if let Some(pid) = wake {
            with_current_shared(|s| s.schedule_wake_current_epoch(pid, s.now()));
        }
    }

    /// Dequeue an item, parking until one is available.
    ///
    /// Resolves to [`SimError::Closed`] if the channel is closed and
    /// empty. A receiver still parked when the run ends is dropped, not
    /// resumed.
    pub fn recv(&self) -> impl Future<Output = SimResult<T>> + '_ {
        let mut registered = false;
        park_while(move |_, pid| {
            mc_touch(self.id);
            let mut inner = self.inner.borrow_mut();
            if let Some(i) = inner.handoff.iter().position(|(p, _)| *p == pid) {
                return Some(Ok(inner.handoff.swap_remove(i).1));
            }
            if let Some(v) = inner.items.pop_front() {
                return Some(Ok(v));
            }
            if inner.closed {
                return Some(Err(SimError::Closed));
            }
            if !registered {
                inner.waiters.push_back(pid);
                registered = true;
            }
            None
        })
    }

    /// Dequeue an item if one is immediately available.
    pub fn try_recv(&self) -> Option<T> {
        mc_touch(self.id);
        self.inner.borrow_mut().items.pop_front()
    }

    /// Number of queued items, including those already handed to a woken
    /// receiver that has not resumed yet (they were externally observable
    /// as "queued" before the handoff optimisation, and must stay so).
    pub fn len(&self) -> usize {
        mc_touch(self.id);
        let inner = self.inner.borrow();
        inner.items.len() + inner.handoff.len()
    }

    /// True if no items are queued (see [`Channel::len`]).
    pub fn is_empty(&self) -> bool {
        mc_touch(self.id);
        let inner = self.inner.borrow();
        inner.items.is_empty() && inner.handoff.is_empty()
    }

    /// Close the channel: parked and future receivers get
    /// [`SimError::Closed`] once the queue is empty. Items already queued
    /// are still delivered.
    pub fn close(&self) {
        mc_touch(self.id);
        let wakes: Vec<Pid> = {
            let mut inner = self.inner.borrow_mut();
            inner.closed = true;
            inner.waiters.drain(..).collect()
        };
        if !wakes.is_empty() {
            with_current_shared(|s| {
                for pid in wakes {
                    s.schedule_wake_current_epoch(pid, s.now());
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{delay, now, Sim, SimDuration};

    #[test]
    fn send_then_recv_same_process() {
        let sim = Sim::new();
        let ch = Channel::new();
        let c = ch.clone();
        sim.spawn("p", async move {
            c.send(41);
            c.send(42);
            assert_eq!(c.recv().await.unwrap(), 41);
            assert_eq!(c.recv().await.unwrap(), 42);
        });
        sim.run().unwrap();
    }

    #[test]
    fn recv_blocks_until_send() {
        let sim = Sim::new();
        let ch: Channel<u64> = Channel::new();
        let (c1, c2) = (ch.clone(), ch.clone());
        sim.spawn("consumer", async move {
            let v = c1.recv().await.unwrap();
            assert_eq!(v, 7);
            assert_eq!(now().as_nanos(), 50, "woken at the producer's send time");
        });
        sim.spawn("producer", async move {
            delay(SimDuration::from_nanos(50)).await.unwrap();
            c2.send(7);
        });
        sim.run().unwrap();
    }

    #[test]
    fn fifo_order_preserved() {
        let sim = Sim::new();
        let ch = Channel::new();
        let got = Rc::new(RefCell::new(Vec::new()));
        let (c1, c2, g) = (ch.clone(), ch.clone(), got.clone());
        sim.spawn("producer", async move {
            for i in 0..100 {
                c1.send(i);
            }
        });
        sim.spawn("consumer", async move {
            for _ in 0..100 {
                let v = c2.recv().await.unwrap();
                g.borrow_mut().push(v);
            }
        });
        sim.run().unwrap();
        assert_eq!(*got.borrow(), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn blocked_receivers_served_in_block_order() {
        let sim = Sim::new();
        let ch: Channel<u32> = Channel::new();
        let got = Rc::new(RefCell::new(Vec::new()));
        for name in ["r1", "r2"] {
            let c = ch.clone();
            let g = got.clone();
            sim.spawn(name, async move {
                let v = c.recv().await.unwrap();
                g.borrow_mut().push((name, v));
            });
        }
        let c = ch.clone();
        sim.spawn("sender", async move {
            delay(SimDuration::from_nanos(10)).await.unwrap();
            c.send(100);
            c.send(200);
        });
        sim.run().unwrap();
        assert_eq!(*got.borrow(), vec![("r1", 100), ("r2", 200)]);
    }

    #[test]
    fn try_recv_does_not_block() {
        let sim = Sim::new();
        let ch: Channel<u32> = Channel::new();
        let c = ch.clone();
        sim.spawn("p", async move {
            assert_eq!(c.try_recv(), None);
            c.send(1);
            assert_eq!(c.try_recv(), Some(1));
        });
        sim.run().unwrap();
    }

    #[test]
    fn close_wakes_blocked_receiver_with_closed() {
        let sim = Sim::new();
        let ch: Channel<u32> = Channel::new();
        let (c1, c2) = (ch.clone(), ch.clone());
        sim.spawn("consumer", async move {
            assert_eq!(c1.recv().await, Err(SimError::Closed));
        });
        sim.spawn("closer", async move {
            delay(SimDuration::from_nanos(5)).await.unwrap();
            c2.close();
        });
        sim.run().unwrap();
    }

    #[test]
    fn close_still_delivers_queued_items() {
        let sim = Sim::new();
        let ch = Channel::new();
        let c = ch.clone();
        sim.spawn("p", async move {
            c.send(9);
            c.close();
            assert_eq!(c.recv().await.unwrap(), 9);
            assert_eq!(c.recv().await, Err(SimError::Closed));
        });
        sim.run().unwrap();
    }

    #[test]
    fn daemon_worker_loop_drains_then_shuts_down() {
        let sim = Sim::new();
        let ch: Channel<u32> = Channel::new();
        let done = Rc::new(RefCell::new(0u32));
        let (c1, c2, d) = (ch.clone(), ch.clone(), done.clone());
        sim.process("worker").daemon().spawn(async move {
            while let Ok(v) = c1.recv().await {
                *d.borrow_mut() += v;
            }
        });
        sim.spawn("main", async move {
            for _ in 0..5 {
                c2.send(2);
                delay(SimDuration::from_nanos(1)).await.unwrap();
            }
        });
        sim.run().unwrap();
        assert_eq!(*done.borrow(), 10);
    }
}
