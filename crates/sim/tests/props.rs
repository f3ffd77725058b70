//! Property tests of the DES primitives: conservation and fairness
//! invariants under randomized schedules.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use ompss_sim::{delay, spawn, Channel, Semaphore, Sim, SimDuration};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever interleaving the delays force, every message sent is
    /// received exactly once and per-producer FIFO order is preserved.
    #[test]
    fn channel_conserves_messages_with_per_producer_fifo(
        delays in proptest::collection::vec((0u64..50, 0u64..50), 1..20)
    ) {
        let sim = Sim::new();
        let ch: Channel<(usize, u32)> = Channel::new();
        let n_producers = delays.len();
        let msgs_per = 5u32;
        for (p, (d0, d1)) in delays.clone().into_iter().enumerate() {
            let tx = ch.clone();
            sim.spawn(format!("producer{p}"), async move {
                for m in 0..msgs_per {
                    delay(SimDuration::from_nanos(d0 + (m as u64 * d1) % 17)).await.unwrap();
                    tx.send((p, m));
                }
            });
        }
        let got = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        let rx = ch.clone();
        sim.process("consumer").daemon().spawn(async move {
            while let Ok(v) = rx.recv().await {
                g.borrow_mut().push(v);
            }
        });
        sim.run().unwrap();
        let received = got.borrow().clone();
        prop_assert_eq!(received.len(), n_producers * msgs_per as usize);
        // Per-producer FIFO.
        for p in 0..n_producers {
            let seq: Vec<u32> =
                received.iter().filter(|(pp, _)| *pp == p).map(|&(_, m)| m).collect();
            prop_assert_eq!(seq, (0..msgs_per).collect::<Vec<_>>());
        }
    }

    /// Semaphore permits are conserved: with capacity C, at most C
    /// holders ever overlap, and everyone eventually gets in.
    #[test]
    fn semaphore_never_oversubscribes(
        cap in 1u64..5,
        workers in 2usize..12,
        hold in 1u64..40,
    ) {
        let sim = Sim::new();
        let sem = Semaphore::new(cap);
        let active = Rc::new(RefCell::new((0i64, 0i64))); // (current, max)
        let served = Rc::new(RefCell::new(0usize));
        for w in 0..workers {
            let s = sem.clone();
            let a = active.clone();
            let done = served.clone();
            sim.spawn(format!("w{w}"), async move {
                delay(SimDuration::from_nanos((w as u64 * 7) % 13)).await.unwrap();
                s.acquire().await;
                {
                    let mut g = a.borrow_mut();
                    g.0 += 1;
                    g.1 = g.1.max(g.0);
                }
                delay(SimDuration::from_nanos(hold)).await.unwrap();
                a.borrow_mut().0 -= 1;
                s.release();
                *done.borrow_mut() += 1;
            });
        }
        sim.run().unwrap();
        let (cur, max) = *active.borrow();
        prop_assert_eq!(cur, 0);
        prop_assert!(max as u64 <= cap, "max holders {} exceeded capacity {}", max, cap);
        prop_assert_eq!(*served.borrow(), workers);
    }

    /// Determinism: any program built from random delays produces the
    /// same end time twice.
    #[test]
    fn random_delay_programs_are_deterministic(
        prog in proptest::collection::vec(proptest::collection::vec(1u64..100, 1..10), 1..10)
    ) {
        let run = |prog: Vec<Vec<u64>>| {
            let sim = Sim::new();
            for (i, delays) in prog.into_iter().enumerate() {
                sim.spawn(format!("p{i}"), async move {
                    for d in delays {
                        delay(SimDuration::from_nanos(d)).await.unwrap();
                    }
                });
            }
            let r = sim.run().unwrap();
            (r.end_time, r.events)
        };
        prop_assert_eq!(run(prog.clone()), run(prog));
    }

    /// Executor determinism under the full primitive mix: an interleaved
    /// spawn/delay/channel workload produces the identical event order
    /// (observed trace) and identical RunReport fingerprint on every run.
    #[test]
    fn interleaved_spawn_delay_channel_workloads_fingerprint_identically(
        groups in proptest::collection::vec((1u64..60, 1u64..8, 1u64..6), 1..12)
    ) {
        let run = |groups: &[(u64, u64, u64)]| {
            let trace = Rc::new(RefCell::new(Vec::new()));
            let sim = Sim::new();
            let ch: Channel<u64> = Channel::new();
            for (g, &(d, msgs, kids)) in groups.iter().enumerate() {
                let tx = ch.clone();
                let tr = trace.clone();
                sim.spawn(format!("g{g}"), async move {
                    for k in 0..kids {
                        let tx = tx.clone();
                        let tr = tr.clone();
                        spawn(format!("g{g}k{k}"), async move {
                            delay(SimDuration::from_nanos(d * (k + 1))).await.unwrap();
                            for m in 0..msgs {
                                tx.send(g as u64 * 1000 + k * 100 + m);
                                delay(SimDuration::from_nanos(d % 7 + 1)).await.unwrap();
                            }
                            tr.borrow_mut().push((ompss_sim::now().as_nanos(), g as u64, k));
                        });
                    }
                    delay(SimDuration::from_nanos(d)).await.unwrap();
                });
            }
            let total: u64 = groups.iter().map(|&(_, m, k)| m * k).sum();
            let rx = ch.clone();
            let tr = trace.clone();
            sim.spawn("drain", async move {
                for _ in 0..total {
                    let v = rx.recv().await.unwrap();
                    tr.borrow_mut().push((ompss_sim::now().as_nanos(), u64::MAX, v));
                }
            });
            let r = sim.run().unwrap();
            let t = trace.borrow().clone();
            (t, (r.end_time.as_nanos(), r.events, r.clock_advances, r.processes as u64))
        };
        let (trace_a, fp_a) = run(&groups);
        let (trace_b, fp_b) = run(&groups);
        prop_assert_eq!(trace_a, trace_b, "event order diverged between identical runs");
        prop_assert_eq!(fp_a, fp_b, "RunReport fingerprint diverged between identical runs");
    }
}

// Epoch edge cases: deterministic regression tests for the wake-epoch
// machinery the model checker's validation mode polices.

/// A superseded deadline event still in the heap when the run aborts
/// must stay dead: teardown drops the waiter without polling it, so
/// the stale event can neither resume the waiter a second time nor
/// displace the abort as the run's outcome.
#[test]
fn stale_wake_is_inert_after_abort_run() {
    use std::sync::atomic::{AtomicUsize, Ordering};

    let resumed = Arc::new(AtomicUsize::new(0));
    let sim = Sim::new();
    let sig = ompss_sim::Signal::new();
    let sig2 = sig.clone();
    let r = resumed.clone();
    sim.spawn("waiter", async move {
        // Deadline event at t=100; the set at t=10 supersedes it.
        let got = sig2.wait_timeout(SimDuration::from_nanos(100)).await;
        assert!(got, "set arrives before the deadline");
        r.fetch_add(1, Ordering::Relaxed);
        // Still parked at t=100 (stale event's instant) and at t=20
        // (abort instant): any spurious resume would count twice.
        delay(SimDuration::from_nanos(500)).await?;
        r.fetch_add(1, Ordering::Relaxed);
        Ok(())
    });
    sim.spawn("setter", async move {
        delay(SimDuration::from_nanos(10)).await?;
        sig.set();
        Ok(())
    });
    sim.spawn("aborter", async move {
        delay(SimDuration::from_nanos(20)).await?;
        Err(ompss_sim::abort_run(ompss_sim::RunError::Exhausted {
            what: "test abort".to_string(),
            attempts: 1,
        }))
    });
    match sim.run() {
        Err(ompss_sim::RunError::Exhausted { what, attempts: 1 }) => {
            assert_eq!(what, "test abort");
        }
        other => panic!("abort must be the run's outcome, got {other:?}"),
    }
    assert_eq!(resumed.load(Ordering::Relaxed), 1, "waiter resumed exactly once (the set)");
}

/// Two same-instant wakes for one parked process coalesce into one
/// heap event — and the counter records exactly that one coalescing,
/// no more (delays and spawns never coalesce: each targets a fresh
/// epoch or a distinct pid). A semaphore's head waiter stays
/// registered until it polls, so two releases at one instant both
/// wake it: the second wake is the coalesced one. With
/// `OMPSS_SIM_NO_FASTPATH=1` both wakes are queued and the second pops
/// stale, so nothing is coalesced; either way the waiter resumes once.
#[test]
fn same_instant_double_wake_coalesces_exactly_once() {
    let fast_paths = std::env::var_os("OMPSS_SIM_NO_FASTPATH").is_none_or(|v| v == "0");
    let resumed = Rc::new(RefCell::new(0u32));
    let sim = Sim::new();
    let sem = Semaphore::new(0);
    let s = sem.clone();
    let r = resumed.clone();
    sim.spawn("waiter", async move {
        s.acquire().await;
        *r.borrow_mut() += 1;
        Ok(())
    });
    for i in 0..2u64 {
        let s = sem.clone();
        sim.spawn(("releaser", i), async move {
            delay(SimDuration::from_nanos(10)).await?;
            s.release();
            Ok(())
        });
    }
    let rep = sim.run().unwrap();
    assert_eq!(
        rep.wakes_coalesced,
        u64::from(fast_paths),
        "two releases at one instant are one event plus one coalesced wake (none without fast \
         paths)"
    );
    assert_eq!(*resumed.borrow(), 1, "the waiter resumes exactly once");
    assert_eq!(rep.end_time.as_nanos(), 10, "the run ends at the releases' instant");
}

/// `(virtual ns, what, pid)` records, in the order they were made.
type Log = Rc<RefCell<Vec<(u64, &'static str, usize)>>>;

/// Logs `(now, pid)` when dropped: when, and as which process,
/// teardown dropped the daemon that owns it.
struct DropLog(Log);

impl Drop for DropLog {
    fn drop(&mut self) {
        self.0.borrow_mut().push((ompss_sim::now().as_nanos(), "daemon-dropped", ompss_sim::pid()));
    }
}

/// Daemons are torn down only after the last non-daemon event: each
/// daemon's future is dropped after the worker's last record, in pid
/// order, with its own task context, and teardown does not advance the
/// virtual clock.
#[test]
fn daemon_teardown_follows_the_last_worker_event() {
    let log: Log = Rc::default();
    let sim = Sim::new();
    let ch: Channel<u64> = Channel::new();
    let mut daemons = Vec::new();
    for i in 0..2u64 {
        let guard = DropLog(log.clone());
        let rx = ch.clone();
        daemons.push(sim.process(("daemon", i)).daemon().spawn(async move {
            let _guard = guard;
            while rx.recv().await.is_ok() {}
        }));
    }
    let l = log.clone();
    let tx = ch.clone();
    let worker = sim.spawn("worker", async move {
        delay(SimDuration::from_nanos(50)).await?;
        tx.send(7);
        l.borrow_mut().push((ompss_sim::now().as_nanos(), "worker-done", ompss_sim::pid()));
        Ok(())
    });
    let rep = sim.run().unwrap();
    assert_eq!(rep.end_time.as_nanos(), 50);
    let end = rep.end_time.as_nanos();
    assert_eq!(
        *log.borrow(),
        vec![
            (50, "worker-done", worker),
            (end, "daemon-dropped", daemons[0]),
            (end, "daemon-dropped", daemons[1]),
        ],
        "daemons dropped after the worker, in pid order, at the end time"
    );
}
