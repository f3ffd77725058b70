//! Synchronization primitives for simulation processes: counting
//! semaphores (the building block of every modelled hardware resource —
//! PCIe links, DMA engines, NIC ports), one-shot broadcast signals
//! (completion events), and counting latches (taskwait).
//!
//! Blocking operations (`acquire`, `wait`, `wait_zero`, …) return
//! futures; waking operations (`release`, `set`, `done`, `ring`) are
//! plain synchronous calls that schedule the waiters' resume events.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::rc::Rc;

use crate::engine::{mc_resource_id, mc_touch, park_while, with_current, with_current_shared, Pid};
use crate::error::SimResult;

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct SemInner {
    permits: u64,
    /// FIFO of (pid, permits wanted) — strict arrival-order fairness, so
    /// modelled hardware queues (a PCIe link, a copy engine) serve
    /// requests deterministically and without starvation.
    waiters: VecDeque<(Pid, u64)>,
}

/// A counting semaphore with FIFO fairness.
///
/// Modelled hardware is a semaphore: a link with one transfer in flight
/// is `Semaphore::new(1)`; a GPU with two copy engines is
/// `Semaphore::new(2)`. `acquire + delay + release` around an operation
/// serialises contending processes and accumulates queueing time on the
/// virtual clock exactly like a busy device would.
pub struct Semaphore {
    inner: Rc<RefCell<SemInner>>,
    /// Stable resource id for the model checker's independence oracle.
    id: u64,
}

impl Clone for Semaphore {
    fn clone(&self) -> Self {
        Semaphore { inner: self.inner.clone(), id: self.id }
    }
}

impl Semaphore {
    /// Create a semaphore holding `permits` permits.
    pub fn new(permits: u64) -> Self {
        Semaphore {
            inner: Rc::new(RefCell::new(SemInner { permits, waiters: VecDeque::new() })),
            id: mc_resource_id(),
        }
    }

    /// Acquire one permit, parking until available.
    pub fn acquire(&self) -> impl Future<Output = SimResult<()>> + '_ {
        self.acquire_n(1)
    }

    /// Acquire `n` permits atomically, parking until available.
    ///
    /// FIFO: a large request at the head of the queue blocks later small
    /// requests (no barging), which keeps service order deterministic.
    pub fn acquire_n(&self, n: u64) -> impl Future<Output = SimResult<()>> + '_ {
        let mut registered = false;
        park_while(move |shared, pid| {
            mc_touch(self.id);
            let mut inner = self.inner.borrow_mut();
            let at_head = inner.waiters.front().map(|&(p, _)| p) == Some(pid);
            if inner.permits >= n
                && (!registered || at_head)
                && (registered || inner.waiters.is_empty())
            {
                if registered {
                    inner.waiters.pop_front();
                    // Wake the next head in case permits remain for it.
                    if let Some(&(next, want)) = inner.waiters.front() {
                        if inner.permits - n >= want {
                            shared.schedule_wake_current_epoch(next, shared.now());
                        }
                    }
                }
                inner.permits -= n;
                return Some(Ok(()));
            }
            if !registered {
                inner.waiters.push_back((pid, n));
                registered = true;
            }
            None
        })
    }

    /// Return one permit.
    pub fn release(&self) {
        self.release_n(1);
    }

    /// Return `n` permits and wake the head waiter if it can now proceed.
    pub fn release_n(&self, n: u64) {
        mc_touch(self.id);
        let wake = {
            let mut inner = self.inner.borrow_mut();
            inner.permits += n;
            match inner.waiters.front() {
                Some(&(pid, want)) if inner.permits >= want => Some(pid),
                _ => None,
            }
        };
        if let Some(pid) = wake {
            with_current_shared(|s| s.schedule_wake_current_epoch(pid, s.now()));
        }
    }

    /// Permits currently available.
    pub fn available(&self) -> u64 {
        mc_touch(self.id);
        self.inner.borrow().permits
    }
}

// ---------------------------------------------------------------------------
// Signal
// ---------------------------------------------------------------------------

struct SignalInner {
    set: bool,
    waiters: Vec<Pid>,
}

/// A one-shot broadcast event: any number of processes [`wait`](Signal::wait)
/// until some process calls [`set`](Signal::set). Waiting on an
/// already-set signal returns immediately. Used for completion
/// notifications (a transfer finished, a kernel retired, a remote task
/// acknowledged).
///
/// Like every primitive, a signal belongs to the simulation thread; it
/// is not `Send`:
///
/// ```compile_fail
/// fn assert_send<T: Send>(_: T) {}
/// assert_send(ompss_sim::Signal::new());
/// ```
pub struct Signal {
    inner: Rc<RefCell<SignalInner>>,
    /// Stable resource id for the model checker's independence oracle.
    id: u64,
}

impl Clone for Signal {
    fn clone(&self) -> Self {
        Signal { inner: self.inner.clone(), id: self.id }
    }
}

impl Default for Signal {
    fn default() -> Self {
        Self::new()
    }
}

impl Signal {
    /// Create an unset signal.
    pub fn new() -> Self {
        Signal {
            inner: Rc::new(RefCell::new(SignalInner { set: false, waiters: Vec::new() })),
            id: mc_resource_id(),
        }
    }

    /// Set the signal and wake every waiter. Idempotent.
    pub fn set(&self) {
        mc_touch(self.id);
        let wakes: Vec<Pid> = {
            let mut inner = self.inner.borrow_mut();
            if inner.set {
                return;
            }
            if crate::defects::armed("wakeup") && inner.waiters.is_empty() {
                // Seeded defect: drop the set when nobody is registered
                // yet — the classic lost-wakeup race. Only orderings
                // where the setter runs before the waiter parks hang.
                return;
            }
            inner.set = true;
            std::mem::take(&mut inner.waiters)
        };
        if !wakes.is_empty() {
            with_current_shared(|s| {
                for pid in wakes {
                    s.schedule_wake_current_epoch(pid, s.now());
                }
            });
        }
    }

    /// True if the signal has been set.
    pub fn is_set(&self) -> bool {
        mc_touch(self.id);
        self.inner.borrow().set
    }

    /// Park until the signal is set.
    pub fn wait(&self) -> impl Future<Output = SimResult<()>> + '_ {
        park_while(move |_, pid| {
            mc_touch(self.id);
            let mut inner = self.inner.borrow_mut();
            if inner.set {
                return Some(Ok(()));
            }
            inner.waiters.push(pid);
            None
        })
    }

    /// Park until the signal is set or `timeout` elapses. Resolves to
    /// `Ok(true)` if the signal was set, `Ok(false)` on timeout. The
    /// timeout path deregisters this process from the waiter list, so a
    /// later `set` cannot deliver a stale wakeup into whatever the
    /// process blocks on next.
    pub fn wait_timeout(
        &self,
        timeout: crate::SimDuration,
    ) -> impl Future<Output = SimResult<bool>> + '_ {
        let mut deadline = None;
        park_while(move |shared, pid| {
            mc_touch(self.id);
            let deadline = *deadline.get_or_insert_with(|| shared.now() + timeout);
            let mut inner = self.inner.borrow_mut();
            if inner.set {
                inner.waiters.retain(|&p| p != pid);
                return Some(Ok(true));
            }
            if shared.now() >= deadline {
                inner.waiters.retain(|&p| p != pid);
                return Some(Ok(false));
            }
            inner.waiters.push(pid);
            drop(inner);
            // Own wakeup at the deadline; a `set` before then wakes us
            // earlier and the stale deadline event is epoch-invalidated.
            shared.schedule_wake_current_epoch(pid, deadline);
            None
        })
    }
}

// ---------------------------------------------------------------------------
// Latch
// ---------------------------------------------------------------------------

struct LatchInner {
    count: u64,
    waiters: Vec<Pid>,
}

/// A counting latch: `add` raises the count, `done` lowers it, and
/// [`wait_zero`](Latch::wait_zero) parks until it reaches zero.
///
/// This is the synchronization shape of OmpSs `taskwait`: the creating
/// task adds one per child and waits for the count to drain. Unlike a
/// one-shot signal the count may rise again after reaching zero (a
/// second `taskwait` region).
pub struct Latch {
    inner: Rc<RefCell<LatchInner>>,
    /// Stable resource id for the model checker's independence oracle.
    id: u64,
}

impl Clone for Latch {
    fn clone(&self) -> Self {
        Latch { inner: self.inner.clone(), id: self.id }
    }
}

impl Default for Latch {
    fn default() -> Self {
        Self::new()
    }
}

impl Latch {
    /// Create a latch with count zero.
    pub fn new() -> Self {
        Latch {
            inner: Rc::new(RefCell::new(LatchInner { count: 0, waiters: Vec::new() })),
            id: mc_resource_id(),
        }
    }

    /// Raise the count by `n`.
    pub fn add(&self, n: u64) {
        mc_touch(self.id);
        self.inner.borrow_mut().count += n;
    }

    /// Lower the count by one; at zero, wake all waiters.
    pub fn done(&self) {
        mc_touch(self.id);
        let wakes: Vec<Pid> = {
            let mut inner = self.inner.borrow_mut();
            assert!(inner.count > 0, "Latch::done without matching add");
            inner.count -= 1;
            if inner.count == 0 {
                std::mem::take(&mut inner.waiters)
            } else {
                Vec::new()
            }
        };
        if !wakes.is_empty() {
            with_current_shared(|s| {
                for pid in wakes {
                    s.schedule_wake_current_epoch(pid, s.now());
                }
            });
        }
    }

    /// Current count.
    pub fn count(&self) -> u64 {
        mc_touch(self.id);
        self.inner.borrow().count
    }

    /// Park until the count reaches zero. Returns immediately if already
    /// zero.
    pub fn wait_zero(&self) -> impl Future<Output = SimResult<()>> + '_ {
        park_while(move |_, pid| {
            mc_touch(self.id);
            let mut inner = self.inner.borrow_mut();
            if inner.count == 0 {
                return Some(Ok(()));
            }
            inner.waiters.push(pid);
            None
        })
    }
}

// ---------------------------------------------------------------------------
// Bell
// ---------------------------------------------------------------------------

struct BellInner {
    waiters: Vec<Pid>,
}

/// A reusable broadcast wakeup — the shape of a condition variable.
///
/// Idle workers [`wait`](Bell::wait) on the bell after finding their
/// queues empty; producers [`ring`](Bell::ring) it after enqueueing
/// work, waking *all* current waiters to re-check their queues. Because
/// the simulation is sequential (a process cannot be preempted between
/// checking a queue and parking on the bell), the classic lost-wakeup
/// race cannot occur.
pub struct Bell {
    inner: Rc<RefCell<BellInner>>,
    /// Stable resource id for the model checker's independence oracle.
    id: u64,
}

impl Clone for Bell {
    fn clone(&self) -> Self {
        Bell { inner: self.inner.clone(), id: self.id }
    }
}

impl Default for Bell {
    fn default() -> Self {
        Self::new()
    }
}

impl Bell {
    /// Create a bell with no waiters.
    pub fn new() -> Self {
        Bell {
            inner: Rc::new(RefCell::new(BellInner { waiters: Vec::new() })),
            id: mc_resource_id(),
        }
    }

    /// Park until the next ring. Unconditional: registration happens on
    /// the first poll, and any valid wakeup (the ring) completes it.
    pub fn wait(&self) -> impl Future<Output = SimResult<()>> + '_ {
        let mut registered = false;
        park_while(move |_, pid| {
            mc_touch(self.id);
            if registered {
                return Some(Ok(()));
            }
            self.inner.borrow_mut().waiters.push(pid);
            registered = true;
            None
        })
    }

    /// Wake every process currently waiting.
    pub fn ring(&self) {
        mc_touch(self.id);
        let wakes: Vec<Pid> = std::mem::take(&mut self.inner.borrow_mut().waiters);
        if !wakes.is_empty() {
            with_current(|shared, _| {
                for pid in wakes {
                    shared.schedule_wake_current_epoch(pid, shared.now());
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{delay, now, spawn, Sim, SimDuration};

    #[test]
    fn semaphore_serialises_contenders() {
        // Two processes each hold a 1-permit semaphore for 10ns; the
        // second must finish at 20ns.
        let sim = Sim::new();
        let sem = Semaphore::new(1);
        let ends = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let s = sem.clone();
            let e = ends.clone();
            sim.spawn(name, async move {
                s.acquire().await.unwrap();
                delay(SimDuration::from_nanos(10)).await.unwrap();
                s.release();
                e.borrow_mut().push((name, now().as_nanos()));
            });
        }
        sim.run().unwrap();
        assert_eq!(*ends.borrow(), vec![("a", 10), ("b", 20)]);
    }

    #[test]
    fn semaphore_two_permits_run_concurrently() {
        let sim = Sim::new();
        let sem = Semaphore::new(2);
        let ends = Rc::new(RefCell::new(Vec::new()));
        for name in ["a", "b"] {
            let s = sem.clone();
            let e = ends.clone();
            sim.spawn(name, async move {
                s.acquire().await.unwrap();
                delay(SimDuration::from_nanos(10)).await.unwrap();
                s.release();
                e.borrow_mut().push(now().as_nanos());
            });
        }
        sim.run().unwrap();
        assert_eq!(*ends.borrow(), vec![10, 10]);
    }

    #[test]
    fn semaphore_fifo_no_barging() {
        // Queue: big wants 2 permits, then small wants 1. Releasing one
        // permit (total available 1) must NOT let small barge past big.
        let sim = Sim::new();
        let sem = Semaphore::new(2);
        let order = Rc::new(RefCell::new(Vec::new()));
        {
            let s = sem.clone();
            sim.spawn("holder", async move {
                s.acquire_n(2).await.unwrap();
                delay(SimDuration::from_nanos(10)).await.unwrap();
                s.release(); // one back -> big still can't run
                delay(SimDuration::from_nanos(10)).await.unwrap();
                s.release(); // second back -> big runs
            });
        }
        {
            let s = sem.clone();
            let o = order.clone();
            sim.spawn("big", async move {
                delay(SimDuration::from_nanos(1)).await.unwrap();
                s.acquire_n(2).await.unwrap();
                o.borrow_mut().push(("big", now().as_nanos()));
                s.release_n(2);
            });
        }
        {
            let s = sem.clone();
            let o = order.clone();
            sim.spawn("small", async move {
                delay(SimDuration::from_nanos(2)).await.unwrap();
                s.acquire().await.unwrap();
                o.borrow_mut().push(("small", now().as_nanos()));
                s.release();
            });
        }
        sim.run().unwrap();
        let got = order.borrow().clone();
        assert_eq!(got[0].0, "big", "FIFO order violated: {got:?}");
        assert_eq!(got[0].1, 20);
        assert_eq!(got[1].0, "small");
    }

    #[test]
    fn semaphore_available_tracks_permits() {
        let sim = Sim::new();
        let sem = Semaphore::new(3);
        let s = sem.clone();
        sim.spawn("p", async move {
            assert_eq!(s.available(), 3);
            s.acquire_n(2).await.unwrap();
            assert_eq!(s.available(), 1);
            s.release_n(2);
            assert_eq!(s.available(), 3);
        });
        sim.run().unwrap();
    }

    #[test]
    fn signal_wakes_all_waiters() {
        let sim = Sim::new();
        let sig = Signal::new();
        let done = Rc::new(RefCell::new(Vec::new()));
        for name in ["w1", "w2", "w3"] {
            let s = sig.clone();
            let d = done.clone();
            sim.spawn(name, async move {
                s.wait().await.unwrap();
                d.borrow_mut().push((name, now().as_nanos()));
            });
        }
        let s = sig.clone();
        sim.spawn("setter", async move {
            delay(SimDuration::from_nanos(30)).await.unwrap();
            s.set();
        });
        sim.run().unwrap();
        let got = done.borrow().clone();
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|&(_, t)| t == 30));
    }

    #[test]
    fn signal_already_set_returns_immediately() {
        let sim = Sim::new();
        let sig = Signal::new();
        let s = sig.clone();
        sim.spawn("p", async move {
            s.set();
            assert!(s.is_set());
            s.wait().await.unwrap();
            assert_eq!(now().as_nanos(), 0);
        });
        sim.run().unwrap();
    }

    #[test]
    fn signal_wait_timeout_set_and_expiry() {
        let sim = Sim::new();
        let sig = Signal::new();
        {
            let s = sig.clone();
            sim.spawn("waiter", async move {
                // First wait times out at 10ns (set comes at 25ns).
                assert!(!s.wait_timeout(SimDuration::from_nanos(10)).await.unwrap());
                assert_eq!(now().as_nanos(), 10);
                // Second wait sees the set at 25ns, before its deadline.
                assert!(s.wait_timeout(SimDuration::from_nanos(100)).await.unwrap());
                assert_eq!(now().as_nanos(), 25);
                // A later delay must not be cut short by any stale wake.
                delay(SimDuration::from_nanos(500)).await.unwrap();
                assert_eq!(now().as_nanos(), 525);
            });
        }
        let s = sig.clone();
        sim.spawn("setter", async move {
            delay(SimDuration::from_nanos(25)).await.unwrap();
            s.set();
        });
        sim.run().unwrap();
    }

    #[test]
    fn signal_wait_timeout_deregisters_on_expiry() {
        // After a timeout, a set() must find no stale waiter entry.
        let sim = Sim::new();
        let sig = Signal::new();
        let s = sig.clone();
        sim.spawn("p", async move {
            assert!(!s.wait_timeout(SimDuration::from_nanos(5)).await.unwrap());
            s.set(); // would panic/misfire on a stale self-wake
            delay(SimDuration::from_nanos(50)).await.unwrap();
            assert_eq!(now().as_nanos(), 55);
        });
        sim.run().unwrap();
    }

    #[test]
    fn latch_waits_for_all_children() {
        let sim = Sim::new();
        let latch = Latch::new();
        latch.add(3);
        for i in 1..=3u64 {
            let l = latch.clone();
            sim.spawn(format!("child{i}"), async move {
                delay(SimDuration::from_nanos(i * 10)).await.unwrap();
                l.done();
            });
        }
        let l = latch.clone();
        sim.spawn("parent", async move {
            l.wait_zero().await.unwrap();
            assert_eq!(now().as_nanos(), 30);
        });
        sim.run().unwrap();
    }

    #[test]
    fn latch_reusable_across_regions() {
        let sim = Sim::new();
        let latch = Latch::new();
        let l = latch.clone();
        sim.spawn("parent", async move {
            // Region 1.
            l.add(1);
            let l2 = l.clone();
            spawn("c1", async move {
                delay(SimDuration::from_nanos(5)).await.unwrap();
                l2.done();
            });
            l.wait_zero().await.unwrap();
            assert_eq!(now().as_nanos(), 5);
            // Region 2 raises the count again.
            l.add(1);
            let l3 = l.clone();
            spawn("c2", async move {
                delay(SimDuration::from_nanos(7)).await.unwrap();
                l3.done();
            });
            l.wait_zero().await.unwrap();
            assert_eq!(now().as_nanos(), 12);
        });
        sim.run().unwrap();
    }

    #[test]
    fn bell_wakes_all_waiters_and_is_reusable() {
        let sim = Sim::new();
        let bell = Bell::new();
        let wakeups = Rc::new(RefCell::new(Vec::new()));
        for name in ["w1", "w2"] {
            let b = bell.clone();
            let w = wakeups.clone();
            sim.spawn(name, async move {
                b.wait().await.unwrap();
                w.borrow_mut().push((name, now().as_nanos()));
                b.wait().await.unwrap();
                w.borrow_mut().push((name, now().as_nanos()));
            });
        }
        let b = bell.clone();
        sim.spawn("ringer", async move {
            delay(SimDuration::from_nanos(10)).await.unwrap();
            b.ring();
            delay(SimDuration::from_nanos(10)).await.unwrap();
            b.ring();
        });
        sim.run().unwrap();
        let got = wakeups.borrow().clone();
        assert_eq!(got, vec![("w1", 10), ("w2", 10), ("w1", 20), ("w2", 20)]);
    }

    #[test]
    fn bell_ring_with_no_waiters_is_noop() {
        let sim = Sim::new();
        let bell = Bell::new();
        sim.spawn("p", async move { bell.ring() });
        sim.run().unwrap();
    }

    #[test]
    #[should_panic(expected = "Latch::done without matching add")]
    fn latch_underflow_panics() {
        let sim = Sim::new();
        let latch = Latch::new();
        sim.spawn("p", async move { latch.done() });
        // The panic is reported through RunError; re-panic for the test.
        if let Err(e) = sim.run() {
            panic!("{e}");
        }
    }
}
