//! The discrete-event simulation kernel.
//!
//! # Model
//!
//! A simulation is a set of *processes* — stackless `async` tasks, one
//! heap object each — polled by a single-threaded executor over a
//! virtual clock. The kernel pops resume events in `(time, sequence)`
//! order and polls the matching process's future; while a process
//! executes Rust code between awaits, virtual time stands still —
//! computation is free unless explicitly charged with [`delay`].
//! Because exactly one future runs at any instant, the whole simulation
//! is sequential and **deterministic**: a given program always produces
//! the same schedule, the same byte counts and the same makespan. No
//! OS threads, no stacks, no handshakes — a thousand-node cluster's
//! worth of live processes is just a vector of boxed futures. The
//! vector is an *arena*: a slot whose future completed cleanly is
//! recycled by the next spawn (its epoch sequence continues, so events
//! aimed at the dead incarnation stay stale), which keeps spawn-heavy
//! runs — millions of short-lived transfer/pump processes — at a
//! footprint proportional to the number *live*, not the number ever
//! spawned. Panicked slots are never recycled.
//!
//! Processes interact with virtual time through free functions that
//! resolve the running task from executor state: [`delay`] advances the
//! clock, [`now`]/[`pid`] read it, and the blocking primitives in
//! [`crate::queue`], [`crate::sync`] return futures that park the
//! process until another process wakes it.
//!
//! # Wakeup correctness
//!
//! Every poll bumps the process's *epoch*; every scheduled resume event
//! carries the epoch it was aimed at. A resume whose epoch is stale
//! (the process has run since it was scheduled) is skipped, so spurious
//! or duplicate wakeups can never cut a `delay` short or corrupt a
//! primitive's wait protocol. Dropping a process's future marks it
//! finished, so a timer pending for it at drop time pops stale and
//! never fires.
//!
//! # Shutdown
//!
//! Processes spawned as daemons (service loops: workers, device
//! managers, message dispatchers) are expected to block forever. When
//! the event queue drains and only daemons remain blocked, the kernel
//! flips the shutdown flag and polls them one last time; every blocking
//! future then resolves to [`SimError::Shutdown`] and the daemon's
//! `async` body unwinds through its `?`s. If a *non-daemon* process is
//! still blocked when the queue drains, that is a deadlock in the
//! modelled system and [`Sim::run`] reports it.
//!
//! # Event queue
//!
//! Events live in two containers: a binary heap for events due after
//! the current instant, and a FIFO *now lane* for events due exactly at
//! it. Spawns, same-instant wakes and yields — the large majority of
//! events — cost a `VecDeque` push and pop instead of a heap sift. The
//! next event is the smaller `(time, sequence)` of the heap top and the
//! lane front, so dispatch order is exactly that of one heap: lane
//! entries all carry the current time and arrive in sequence order, and
//! the clock only advances once the lane is empty. The lane is the
//! queue's structure, not a fast path; it is always on.
//!
//! A [`Sim`] is owned by one thread (it is `!Send`). Its shared state
//! sits behind an `Rc`, with `RefCell`/`Cell` interiors, so the
//! dispatch path takes no lock and issues no atomic.
//!
//! # Host fast paths
//!
//! An activation costs one future poll (no context switch at all), and
//! the kernel avoids even the event-queue round trip wherever the
//! outcome is already decided (see DESIGN.md §7): a `delay` whose
//! wakeup precedes every queued event completes inline on its first
//! poll, a wakeup scheduled behind an earlier live wakeup for the same
//! process is never enqueued (it could only pop stale), and the queue
//! is compacted when superseded entries outnumber live ones. None of
//! this is observable in virtual time — event and clock-advance counts
//! are identical to the literal kernel — and setting
//! `OMPSS_SIM_NO_FASTPATH=1` disables the delay/wakeup-dedup shortcuts
//! for A/B determinism checks.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::time::Instant;

use crate::error::{ProcState, RunError, RunReport, SimError, SimResult};
use crate::time::{SimDuration, SimTime};

/// Identifier of a simulation process.
pub type Pid = usize;

/// A process name, stored without forcing an allocation on the spawn
/// hot path.
///
/// Spawn-heavy runs used to pay a `format!` + heap allocation per
/// process for a name that is only rendered on cold paths (deadlock
/// reports, panic reports). `ProcName` keeps the common cases free:
/// literals are borrowed, and the ubiquitous `"{prefix}{index}"` shape
/// is stored as its parts and rendered lazily via `Display`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcName {
    /// A borrowed literal — zero allocation.
    Static(&'static str),
    /// An owned, pre-rendered string.
    Owned(Box<str>),
    /// `"{0}{1}"`, rendered only when displayed.
    Indexed(&'static str, u64),
}

impl fmt::Display for ProcName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProcName::Static(s) => f.write_str(s),
            ProcName::Owned(s) => f.write_str(s),
            ProcName::Indexed(prefix, i) => write!(f, "{prefix}{i}"),
        }
    }
}

impl From<&'static str> for ProcName {
    fn from(s: &'static str) -> Self {
        ProcName::Static(s)
    }
}

impl From<String> for ProcName {
    fn from(s: String) -> Self {
        ProcName::Owned(s.into_boxed_str())
    }
}

impl From<(&'static str, u64)> for ProcName {
    fn from((prefix, i): (&'static str, u64)) -> Self {
        ProcName::Indexed(prefix, i)
    }
}

/// A process body, type-erased: the `async` block the user spawned,
/// with its output normalised to `SimResult<()>` (see [`ProcessExit`]).
type TaskFut = Pin<Box<dyn Future<Output = SimResult<()>>>>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Has a resume event in flight (initial spawn or timed wakeup).
    Ready,
    /// Currently being polled by the executor.
    Running,
    /// Parked in a blocking primitive, waiting for an external wake.
    Blocked,
    /// Future completed (or was dropped).
    Finished,
}

struct ProcSlot {
    name: ProcName,
    phase: Phase,
    /// Bumped every time the kernel polls this process; used to
    /// invalidate stale wakeup events.
    epoch: u64,
    daemon: bool,
    /// `(time, epoch)` of the earliest live resume event queued for this
    /// process. A later wakeup aimed at the same epoch could only ever
    /// pop stale (the earlier one fires first and bumps the epoch), so
    /// it is not enqueued at all — this is the per-process reuse slot
    /// that keeps redundant wakes out of the queue.
    pending_wake: Option<(SimTime, u64)>,
}

/// One entry in the event queue: resume `pid` at `time`, provided its
/// epoch still equals `epoch`. `seq` breaks ties deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time: SimTime,
    seq: u64,
    pid: Pid,
    epoch: u64,
}

// ---------------------------------------------------------------------------
// Model-checking hooks: tie-break control + dispatch footprints
// ---------------------------------------------------------------------------

/// What one dispatched step did, as far as commutativity analysis
/// cares. Two steps whose footprints are disjoint (no shared process,
/// no shared resource) can be reordered without changing the reachable
/// state — the independence relation behind the model checker's
/// partial-order reduction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StepFootprint {
    /// The process that was polled.
    pub pid: Pid,
    /// Processes it scheduled wakes for (including coalesced wakes).
    pub wakes: Vec<Pid>,
    /// Processes it spawned.
    pub spawns: Vec<Pid>,
    /// Ids of primitives it touched (channels, semaphores, signals,
    /// latches, bells, coherence regions) — see [`mc_touch`].
    pub resources: Vec<u64>,
}

impl StepFootprint {
    /// True when the two steps commute: they involve disjoint process
    /// sets and disjoint resource sets.
    pub fn independent(&self, other: &StepFootprint) -> bool {
        fn pids(s: &StepFootprint) -> impl Iterator<Item = Pid> + '_ {
            std::iter::once(s.pid).chain(s.wakes.iter().copied()).chain(s.spawns.iter().copied())
        }
        if pids(self).any(|p| pids(other).any(|q| p == q)) {
            return false;
        }
        !self.resources.iter().any(|r| other.resources.contains(r))
    }
}

/// Controls the executor's tie-break between co-enabled events.
///
/// Whenever two or more live events pop at the same minimal `SimTime`,
/// a controller installed via [`install_tie_break`] picks which process
/// runs next (the default executor always picks the lowest sequence
/// number — spawn/schedule order). After each dispatched poll the
/// controller also observes the step's [`StepFootprint`], which is what
/// the model checker's independence oracle is built from.
pub trait TieBreak {
    /// Pick one of `candidates` (ordered by sequence number, so index 0
    /// is the default schedule's choice) to dispatch at time `now`.
    /// Returns an index into `candidates`.
    fn choose(&mut self, now: SimTime, candidates: &[Pid]) -> usize;

    /// Observe what the just-dispatched step did.
    fn observe(&mut self, step: StepFootprint);
}

/// Tie-break installation consumed by the next [`Sim::new`] on this
/// thread (loom-style: the checker arms the thread, then calls into
/// code that constructs the simulation internally).
struct McInstall {
    controller: Rc<RefCell<dyn TieBreak>>,
    validate: bool,
}

/// Per-sim model-checking state.
struct McState {
    controller: Rc<RefCell<dyn TieBreak>>,
    /// Check kernel invariants on every dispatch (stale events must be
    /// dropped; a valid pop must match the tracked pending wake).
    validate: bool,
}

thread_local! {
    static MC_INSTALL: RefCell<Option<McInstall>> = const { RefCell::new(None) };
    /// Resource-id well for [`mc_resource_id`]. Thread-local and reset
    /// by [`install_tie_break`] so ids are stable across replays of the
    /// same single-threaded program.
    static RESOURCE_IDS: Cell<u64> = const { Cell::new(0) };
    /// Fast flag: the process currently being polled on this thread
    /// belongs to a sim with a controller installed, so primitives
    /// should report resource touches.
    static MC_ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Arm the **next** [`Sim::new`] on this thread with a tie-break
/// controller. Also resets the resource-id counter so primitive ids
/// are identical across replays of the same program. `validate` turns
/// on per-dispatch kernel invariant checking (surfaced as
/// [`RunError::InvariantViolation`]).
pub fn install_tie_break(controller: Rc<RefCell<dyn TieBreak>>, validate: bool) {
    RESOURCE_IDS.with(|c| c.set(0));
    MC_INSTALL.with(|slot| *slot.borrow_mut() = Some(McInstall { controller, validate }));
}

/// Allocate a stable id for a dependence-relevant resource (channel,
/// semaphore, coherence region, ...). Deterministic for a
/// deterministic program: the counter is thread-local and reset by
/// [`install_tie_break`], so the n-th primitive constructed is always
/// resource n across replays.
pub fn mc_resource_id() -> u64 {
    RESOURCE_IDS.with(|c| {
        let id = c.get() + 1;
        c.set(id);
        id
    })
}

/// Report that the running process touched resource `id`. No-op unless
/// the current poll belongs to a sim with a tie-break controller
/// installed, so the cost outside model checking is one thread-local
/// flag read.
pub fn mc_touch(id: u64) {
    if !MC_ACTIVE.with(|f| f.get()) {
        return;
    }
    CURRENT.with(|stack| {
        if let Some(top) = stack.borrow().last() {
            if top.shared.mc.is_some() {
                if let Some(step) = top.shared.kernel.borrow_mut().step.as_mut() {
                    step.resources.push(id);
                }
            }
        }
    });
}

pub(crate) struct Kernel {
    now: SimTime,
    seq: u64,
    /// Events due after `now`, earliest `(time, seq)` on top.
    queue: BinaryHeap<Reverse<Event>>,
    /// Events due exactly at `now`, in `seq` order: the now lane. Most
    /// events (spawns, same-instant wakes, yields) land here and cost a
    /// `VecDeque` push/pop instead of a heap sift. Every entry is
    /// pushed with a fresh, hence maximal, `seq`, so the lane is sorted
    /// by construction; the clock only advances once it is empty.
    lane: VecDeque<Event>,
    procs: Vec<ProcSlot>,
    /// Total processes ever spawned. With slot reuse `procs.len()` is
    /// only the high-water mark of *live* processes; this counter is
    /// what [`RunReport::processes`] reports.
    spawned: u64,
    /// Arena free list: pids whose futures completed cleanly, ready to
    /// host a new process. The slot's epoch is never reset, so events
    /// aimed at a previous incarnation stay stale forever. Panicked
    /// slots are deliberately not recycled — their name/panic records
    /// must keep pointing at the process that died in them.
    free_slots: Vec<Pid>,
    shutdown: bool,
    events_processed: u64,
    clock_advances: u64,
    /// Queued events (heap or lane) that are already known stale: they
    /// were superseded by an earlier wake for the same `(pid, epoch)`.
    /// When they outnumber live events both containers are compacted
    /// instead of letting cancelled wakeups accumulate.
    stale_events: u64,
    /// Wakeups never enqueued because an earlier live wake for the same
    /// `(pid, epoch)` already guaranteed them stale.
    wakes_coalesced: u64,
    panics: Vec<(String, String)>,
    /// First fatal error raised via [`abort_run`]; ends the run at the
    /// next kernel step and becomes [`Sim::run`]'s error.
    fatal: Option<RunError>,
    /// Footprint of the step currently being executed (set at dispatch,
    /// handed to the controller after the poll). `None` unless a
    /// tie-break controller is installed.
    step: Option<StepFootprint>,
    /// Kernel invariant violations caught in validation mode. Bounded;
    /// the first one becomes [`RunError::InvariantViolation`].
    violations: Vec<String>,
}

impl Kernel {
    /// Queue `ev`, which must carry a fresh `seq`: same-instant events
    /// go to the lane, later ones to the heap.
    fn push(&mut self, ev: Event) {
        debug_assert!(ev.time >= self.now, "event scheduled in the past");
        if ev.time == self.now {
            self.lane.push_back(ev);
        } else {
            self.queue.push(Reverse(ev));
        }
    }

    /// Take the earliest queued event by `(time, seq)`, from whichever
    /// of the heap and the lane holds it.
    fn pop_min(&mut self) -> Option<Event> {
        let from_lane = match (self.lane.front(), self.queue.peek()) {
            (Some(l), Some(Reverse(h))) => l < h,
            (l, _) => l.is_some(),
        };
        if from_lane {
            self.lane.pop_front()
        } else {
            self.queue.pop().map(|Reverse(ev)| ev)
        }
    }

    /// Time of the earliest queued event, if any. A lane entry is due
    /// at `now`, and nothing queued is earlier, so a non-empty lane
    /// decides it.
    fn min_time(&self) -> Option<SimTime> {
        match self.lane.front() {
            Some(l) => Some(l.time),
            None => self.queue.peek().map(|Reverse(h)| h.time),
        }
    }

    /// Drop provably-stale events once they dominate the queued ones.
    /// Amortised O(1) per push: each compaction halves the queue at
    /// least.
    fn maybe_compact(&mut self) {
        let queued = (self.queue.len() + self.lane.len()) as u64;
        if self.stale_events >= 64 && self.stale_events * 2 > queued {
            let procs = &self.procs;
            let live = |ev: &Event| {
                let slot = &procs[ev.pid];
                slot.phase != Phase::Finished && slot.epoch == ev.epoch
            };
            self.queue.retain(|Reverse(ev)| live(ev));
            self.lane.retain(live);
            self.stale_events = 0;
        }
    }
}

/// State shared between the kernel and every primitive. Owned by one
/// thread: the [`Sim`] and every task context hold it through an `Rc`,
/// and the mutable parts are `RefCell`/`Cell`, so the dispatch path
/// takes no lock and issues no atomic.
pub(crate) struct Shared {
    pub(crate) kernel: RefCell<Kernel>,
    /// The process futures, indexed by pid. Kept outside the kernel
    /// cell so a future being polled can borrow the kernel (delay,
    /// spawn, wake scheduling) while the executor holds no borrow; the
    /// executor takes a future out to poll it and puts it back if it
    /// stays pending.
    tasks: RefCell<Vec<Option<TaskFut>>>,
    /// Mirror of `Kernel::now` so [`now`] (called on every primitive
    /// operation) never borrows the kernel. Only the executor writes
    /// it, at dispatch time.
    now_ns: Cell<u64>,
    /// Mirror of `Kernel::shutdown`, for borrow-free checks in futures.
    shutdown_flag: Cell<bool>,
    /// Host fast paths enabled (default). `OMPSS_SIM_NO_FASTPATH=1`
    /// restores the literal kernel for determinism A/B tests.
    fast_paths: bool,
    /// Model-checking state, consumed from [`install_tie_break`]'s
    /// thread-local by [`Sim::new`]. `None` in ordinary runs.
    mc: Option<McState>,
}

impl Shared {
    /// Schedule a wakeup for `pid` at absolute time `at`, targeted at the
    /// process's *current* epoch. Call while the process is blocked (or
    /// about to block); a stale epoch at pop time makes the event a no-op.
    pub(crate) fn schedule_wake_current_epoch(&self, pid: Pid, at: SimTime) {
        let mut k = self.kernel.borrow_mut();
        if let Some(step) = k.step.as_mut() {
            // Record the wake whether or not it is coalesced below: the
            // independence oracle cares that this step *interacts* with
            // `pid`, not how the queue stores the event.
            step.wakes.push(pid);
        }
        let epoch = k.procs[pid].epoch;
        if self.fast_paths {
            match k.procs[pid].pending_wake {
                // An earlier (or simultaneous, hence lower-seq) live wake
                // already resumes the process and bumps its epoch; this
                // one could only pop stale. Skip the queue entirely.
                Some((t, e)) if e == epoch && t <= at => {
                    k.wakes_coalesced += 1;
                    return;
                }
                // The new wake fires first and strands the old entry.
                Some((_, e)) if e == epoch => k.stale_events += 1,
                _ => {}
            }
            k.procs[pid].pending_wake = Some((at, epoch));
        }
        let seq = k.seq;
        k.seq += 1;
        k.push(Event { time: at, seq, pid, epoch });
        if self.fast_paths {
            k.maybe_compact();
        }
    }

    /// Pop and account the next valid event; returns the process to
    /// poll, or `None` when the run is over (queue drained, fatal
    /// abort, or shutdown).
    fn dispatch(&self, k: &mut Kernel) -> Option<Pid> {
        if self.mc.is_some() {
            return self.dispatch_mc(k);
        }
        loop {
            if k.fatal.is_some() || k.shutdown {
                return None;
            }
            match k.pop_min() {
                None => return None,
                Some(ev) => {
                    let slot = &mut k.procs[ev.pid];
                    let stale = slot.phase == Phase::Finished || slot.epoch != ev.epoch;
                    if stale && !crate::defects::armed("epoch") {
                        // Stale wakeup. If it was superseded it was
                        // counted; settle the books.
                        k.stale_events = k.stale_events.saturating_sub(1);
                        continue;
                    }
                    if stale && slot.phase == Phase::Finished {
                        // Even the seeded epoch defect cannot resume a
                        // dropped future.
                        continue;
                    }
                    debug_assert!(
                        slot.phase == Phase::Ready || slot.phase == Phase::Blocked,
                        "resuming a process in phase {:?}",
                        slot.phase
                    );
                    slot.phase = Phase::Running;
                    slot.epoch += 1;
                    // A valid pop is necessarily the tracked earliest
                    // live wake for this process.
                    slot.pending_wake = None;
                    if ev.time > k.now {
                        debug_assert!(k.lane.is_empty(), "clock advanced past the now lane");
                        k.clock_advances += 1;
                    }
                    k.now = ev.time;
                    k.events_processed += 1;
                    self.now_ns.set(ev.time.as_nanos());
                    return Some(ev.pid);
                }
            }
        }
    }

    /// Dispatch with a tie-break controller installed: every set of
    /// live events co-enabled at the minimal queued time becomes an
    /// explicit choice point the controller resolves, instead of the
    /// sequence counter deciding. Unchosen events go back on the heap
    /// with their original sequence numbers, so sibling order at the
    /// next choice point is stable. They bypass the lane, which only
    /// takes fresh (maximal) sequence numbers; [`Kernel::pop_min`]'s
    /// merge still orders them against it.
    fn dispatch_mc(&self, k: &mut Kernel) -> Option<Pid> {
        let mc = self.mc.as_ref().expect("mc dispatch without a controller");
        loop {
            if k.fatal.is_some() || k.shutdown {
                return None;
            }
            let first = k.pop_min()?;
            let t = first.time;
            // Pop everything co-enabled at `t`; drop stale events and
            // keep at most one live event per process (a second could
            // only pop stale once the first dispatches).
            let mut live: Vec<Event> = Vec::new();
            let mut requeue: Vec<Event> = Vec::new();
            let mut next = Some(first);
            loop {
                let e = match next.take() {
                    Some(e) => e,
                    None if k.min_time() == Some(t) => k.pop_min().expect("queued event vanished"),
                    None => break,
                };
                let (phase, slot_epoch) = {
                    let s = &k.procs[e.pid];
                    (s.phase, s.epoch)
                };
                let stale = phase == Phase::Finished || slot_epoch != e.epoch;
                if stale && !crate::defects::armed("epoch") {
                    k.stale_events = k.stale_events.saturating_sub(1);
                    continue;
                }
                if stale && phase == Phase::Finished {
                    continue;
                }
                if stale {
                    // The seeded epoch defect let a stale event through:
                    // exactly what validation mode must catch.
                    if mc.validate && k.violations.len() < 16 {
                        k.violations.push(format!(
                            "stale event reached dispatch: pid {} event epoch {} vs slot \
                             epoch {slot_epoch} at t={}ns",
                            e.pid,
                            e.epoch,
                            t.as_nanos()
                        ));
                    }
                }
                if live.iter().any(|l| l.pid == e.pid) {
                    // Reachable only with fast paths off: leave it
                    // queued; it pops stale after the first dispatches.
                    requeue.push(e);
                    continue;
                }
                live.push(e);
            }
            for e in requeue {
                k.queue.push(Reverse(e));
            }
            if live.is_empty() {
                continue;
            }
            let chosen = if live.len() == 1 {
                0
            } else {
                let pids: Vec<Pid> = live.iter().map(|e| e.pid).collect();
                let c = mc.controller.borrow_mut().choose(t, &pids);
                assert!(
                    c < live.len(),
                    "TieBreak::choose returned {c} for {} candidates",
                    live.len()
                );
                c
            };
            for (i, e) in live.iter().enumerate() {
                if i != chosen {
                    k.queue.push(Reverse(*e));
                }
            }
            let ev = live[chosen];
            if mc.validate && self.fast_paths {
                let (slot_epoch, pending) = {
                    let s = &k.procs[ev.pid];
                    (s.epoch, s.pending_wake)
                };
                if slot_epoch == ev.epoch
                    && pending != Some((ev.time, ev.epoch))
                    && k.violations.len() < 16
                {
                    k.violations.push(format!(
                        "valid pop does not match tracked pending wake: pid {} expected \
                         {:?}, tracked {pending:?}",
                        ev.pid,
                        (ev.time.as_nanos(), ev.epoch)
                    ));
                }
            }
            {
                let slot = &mut k.procs[ev.pid];
                slot.phase = Phase::Running;
                slot.epoch += 1;
                slot.pending_wake = None;
            }
            if ev.time > k.now {
                k.clock_advances += 1;
            }
            k.now = ev.time;
            k.events_processed += 1;
            self.now_ns.set(ev.time.as_nanos());
            k.step = Some(StepFootprint { pid: ev.pid, ..Default::default() });
            return Some(ev.pid);
        }
    }

    /// Hand the finished step's footprint to the controller (set only
    /// while a tie-break controller is installed).
    fn flush_step(&self) {
        let Some(mc) = self.mc.as_ref() else {
            return;
        };
        let step = self.kernel.borrow_mut().step.take();
        if let Some(step) = step {
            mc.controller.borrow_mut().observe(step);
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        SimTime(self.now_ns.get())
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown_flag.get()
    }
}

// ---------------------------------------------------------------------------
// Current-task context
// ---------------------------------------------------------------------------

/// The executor publishes the task being polled here, so [`now`],
/// [`delay`], [`spawn`] and the primitives work inside any `async`
/// process body without threading a handle through every call. A stack,
/// so a process may construct and run a nested [`Sim`] synchronously.
struct TaskCtx {
    shared: Rc<Shared>,
    pid: Pid,
}

thread_local! {
    static CURRENT: RefCell<Vec<TaskCtx>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with the current task's shared state and pid. Panics when
/// called outside a simulation process.
pub(crate) fn with_current<R>(f: impl FnOnce(&Rc<Shared>, Pid) -> R) -> R {
    CURRENT.with(|stack| {
        let stack = stack.borrow();
        let top = stack
            .last()
            .expect("this operation only works inside a simulation process (is a Sim running?)");
        f(&top.shared, top.pid)
    })
}

/// Like [`with_current`], but only needs the executor, not the pid.
pub(crate) fn with_current_shared<R>(f: impl FnOnce(&Rc<Shared>) -> R) -> R {
    with_current(|shared, _| f(shared))
}

/// Current virtual time. Only valid inside a simulation process.
pub fn now() -> SimTime {
    with_current_shared(|s| s.now())
}

/// The calling process's id. Only valid inside a simulation process.
pub fn pid() -> Pid {
    with_current(|_, pid| pid)
}

/// Abort the whole simulation with a structured error: the kernel stops
/// dispatching, daemons are torn down, and [`Sim::run`] returns `err`
/// (first abort wins). Returns [`SimError::Shutdown`] so the caller can
/// unwind through the ordinary `?` path:
///
/// ```ignore
/// return Err(abort_run(RunError::Exhausted { what, attempts }));
/// ```
pub fn abort_run(err: RunError) -> SimError {
    with_current_shared(|shared| {
        let mut k = shared.kernel.borrow_mut();
        if !k.shutdown && k.fatal.is_none() {
            k.fatal = Some(err);
        }
    });
    SimError::Shutdown
}

// ---------------------------------------------------------------------------
// Spawning
// ---------------------------------------------------------------------------

/// What an `async` process body may resolve to. Sealed in practice:
/// `()` for infallible bodies, `SimResult<()>` for bodies that use `?`
/// on blocking calls — [`SimError::Shutdown`] (daemon teardown) and
/// [`SimError::Closed`] (drained channel) are clean exits, not errors.
pub trait ProcessExit: 'static {
    /// Normalise to the kernel's internal exit type.
    fn into_exit(self) -> SimResult<()>;
}

impl ProcessExit for () {
    fn into_exit(self) -> SimResult<()> {
        Ok(())
    }
}

impl ProcessExit for SimResult<()> {
    fn into_exit(self) -> SimResult<()> {
        self
    }
}

fn spawn_impl(shared: &Rc<Shared>, name: ProcName, daemon: bool, fut: TaskFut) -> Pid {
    let mut k = shared.kernel.borrow_mut();
    // Initial activation at the current time: a fresh slot starts at
    // epoch 0; a recycled slot continues its epoch sequence so stale
    // events from the previous incarnation can never resume this one.
    let at = k.now;
    k.spawned += 1;
    let (pid, epoch) = match k.free_slots.pop() {
        Some(pid) => {
            let slot = &mut k.procs[pid];
            debug_assert_eq!(slot.phase, Phase::Finished);
            let epoch = slot.epoch;
            slot.name = name;
            slot.phase = Phase::Ready;
            slot.daemon = daemon;
            slot.pending_wake = Some((at, epoch));
            (pid, epoch)
        }
        None => {
            let pid = k.procs.len();
            k.procs.push(ProcSlot {
                name,
                phase: Phase::Ready,
                epoch: 0,
                daemon,
                pending_wake: Some((at, 0)),
            });
            (pid, 0)
        }
    };
    if let Some(step) = k.step.as_mut() {
        step.spawns.push(pid);
    }
    let seq = k.seq;
    k.seq += 1;
    k.push(Event { time: at, seq, pid, epoch });
    drop(k);
    let mut tasks = shared.tasks.borrow_mut();
    if pid < tasks.len() {
        debug_assert!(tasks[pid].is_none(), "reused slot still holds a future");
        tasks[pid] = Some(fut);
    } else {
        debug_assert_eq!(tasks.len(), pid);
        tasks.push(Some(fut));
    }
    pid
}

fn box_body<F>(fut: F) -> TaskFut
where
    F: Future + 'static,
    F::Output: ProcessExit,
{
    Box::pin(async move { fut.await.into_exit() })
}

/// Configure-and-spawn builder for one process: the single spawn
/// surface. `spawn(name, fut)` is shorthand for
/// `process(name).spawn(fut)`; daemon-ness is the builder option:
///
/// ```ignore
/// process("worker").daemon().spawn(async move {
///     loop { handle(rx.recv().await?); }
/// });
/// ```
pub struct ProcessBuilder {
    shared: Rc<Shared>,
    name: ProcName,
    daemon: bool,
}

impl ProcessBuilder {
    /// Mark the process a daemon: a service loop that blocks forever
    /// and is torn down via [`SimError::Shutdown`] when the simulation
    /// drains. Non-daemon processes must finish on their own, or the
    /// run reports a deadlock.
    pub fn daemon(mut self) -> Self {
        self.daemon = true;
        self
    }

    /// Spawn the process with `fut` as its body, runnable at the
    /// current virtual time. Returns its pid.
    pub fn spawn<F>(self, fut: F) -> Pid
    where
        F: Future + 'static,
        F::Output: ProcessExit,
    {
        spawn_impl(&self.shared, self.name, self.daemon, box_body(fut))
    }
}

/// Begin spawning a process from inside another process (builder form;
/// see [`Sim::process`] for the pre-run equivalent).
pub fn process(name: impl Into<ProcName>) -> ProcessBuilder {
    with_current_shared(|shared| ProcessBuilder {
        shared: shared.clone(),
        name: name.into(),
        daemon: false,
    })
}

/// Spawn a regular (non-daemon) child process from inside another
/// process, runnable at the current virtual time.
pub fn spawn<F>(name: impl Into<ProcName>, fut: F) -> Pid
where
    F: Future + 'static,
    F::Output: ProcessExit,
{
    process(name).spawn(fut)
}

// ---------------------------------------------------------------------------
// Delay
// ---------------------------------------------------------------------------

enum DelayState {
    Init,
    Waiting,
    Done,
}

/// Future returned by [`delay`] and [`yield_now`].
pub struct Delay {
    d: SimDuration,
    state: DelayState,
}

impl Future for Delay {
    type Output = SimResult<()>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        match self.state {
            DelayState::Init => with_current(|shared, pid| {
                let mut k = shared.kernel.borrow_mut();
                if k.shutdown {
                    self.state = DelayState::Done;
                    return Poll::Ready(Err(SimError::Shutdown));
                }
                let at = k.now + self.d;
                if shared.fast_paths && k.fatal.is_none() {
                    let head_due = k.min_time().is_some_and(|t| t <= at);
                    if !head_due {
                        // No queued event precedes the wakeup: parking
                        // would make the kernel pop our own event
                        // straight back. Advance the clock inline
                        // instead, with identical event accounting.
                        let now = k.now;
                        let slot = &mut k.procs[pid];
                        debug_assert_eq!(slot.phase, Phase::Running);
                        debug_assert!(
                            !matches!(slot.pending_wake, Some((_, e)) if e == slot.epoch),
                            "running process has a live wake in flight"
                        );
                        slot.epoch += 1;
                        if at > now {
                            k.clock_advances += 1;
                        }
                        k.now = at;
                        k.events_processed += 1;
                        shared.now_ns.set(at.as_nanos());
                        self.state = DelayState::Done;
                        return Poll::Ready(Ok(()));
                    }
                }
                let seq = k.seq;
                k.seq += 1;
                let epoch = k.procs[pid].epoch;
                k.procs[pid].phase = Phase::Ready;
                if shared.fast_paths {
                    k.procs[pid].pending_wake = Some((at, epoch));
                }
                k.push(Event { time: at, seq, pid, epoch });
                self.state = DelayState::Waiting;
                Poll::Pending
            }),
            DelayState::Waiting => {
                self.state = DelayState::Done;
                if with_current_shared(|s| s.is_shutdown()) {
                    Poll::Ready(Err(SimError::Shutdown))
                } else {
                    Poll::Ready(Ok(()))
                }
            }
            DelayState::Done => panic!("Delay polled after completion"),
        }
    }
}

/// Advance virtual time by `d`: park this process and resume it once
/// every event scheduled before `now + d` has run.
pub fn delay(d: SimDuration) -> Delay {
    Delay { d, state: DelayState::Init }
}

/// Relinquish the CPU until the next event at the same timestamp has
/// run: a deterministic yield. Useful to let same-time events
/// interleave fairly.
pub fn yield_now() -> Delay {
    delay(SimDuration::ZERO)
}

// ---------------------------------------------------------------------------
// Parking (the primitive-side future)
// ---------------------------------------------------------------------------

/// Future that repeatedly evaluates `f` — once per valid wakeup — until
/// it resolves. `f` sees the executor and the calling pid; returning
/// `None` parks the process (register in a waiter list first, schedule
/// a wake, or both). This is the poll-based translation of the old
/// `loop { check-and-register; park()?; }` protocol: each `None` is one
/// park, each re-evaluation one valid wakeup, so event accounting is
/// identical. A would-park evaluation during shutdown resolves to
/// [`SimError::Shutdown`] instead.
pub(crate) struct ParkWhile<F> {
    f: F,
}

impl<T, F> Future for ParkWhile<F>
where
    F: FnMut(&Rc<Shared>, Pid) -> Option<SimResult<T>> + Unpin,
{
    type Output = SimResult<T>;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let me = &mut *self;
        with_current(|shared, pid| match (me.f)(shared, pid) {
            Some(r) => Poll::Ready(r),
            None => {
                let mut k = shared.kernel.borrow_mut();
                if k.shutdown {
                    return Poll::Ready(Err(SimError::Shutdown));
                }
                k.procs[pid].phase = Phase::Blocked;
                Poll::Pending
            }
        })
    }
}

/// Build a parking future from a check-and-register closure (see
/// [`ParkWhile`]).
pub(crate) fn park_while<T, F>(f: F) -> ParkWhile<F>
where
    F: FnMut(&Rc<Shared>, Pid) -> Option<SimResult<T>> + Unpin,
{
    ParkWhile { f }
}

// ---------------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------------

/// A deterministic discrete-event simulation.
///
/// Build one, spawn a root process, and [`run`](Sim::run) it to
/// completion:
///
/// ```
/// use ompss_sim::{delay, now, Sim, SimDuration};
///
/// let sim = Sim::new();
/// sim.spawn("main", async {
///     delay(SimDuration::from_millis(3)).await.unwrap();
///     assert_eq!(now().as_nanos(), 3_000_000);
/// });
/// let report = sim.run().unwrap();
/// assert_eq!(report.end_time.as_nanos(), 3_000_000);
/// ```
///
/// A simulation is single-threaded by construction: it stays on the
/// thread that built it, and so do its process bodies, which need not
/// be `Send`.
///
/// ```compile_fail
/// fn assert_send<T: Send>(_: T) {}
/// assert_send(ompss_sim::Sim::new());
/// ```
pub struct Sim {
    shared: Rc<Shared>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

const NOOP_VTABLE: RawWakerVTable =
    RawWakerVTable::new(|_| RawWaker::new(std::ptr::null(), &NOOP_VTABLE), |_| {}, |_| {}, |_| {});

/// Wakes go through the event queue ([`Shared::schedule_wake_current_epoch`]),
/// never through the std waker, so the executor polls with a no-op one.
fn noop_waker() -> Waker {
    // SAFETY: all vtable functions are no-ops; the data pointer is unused.
    unsafe { Waker::from_raw(RawWaker::new(std::ptr::null(), &NOOP_VTABLE)) }
}

impl Sim {
    /// Create an empty simulation at time zero.
    pub fn new() -> Self {
        Sim {
            shared: Rc::new(Shared {
                kernel: RefCell::new(Kernel {
                    now: SimTime::ZERO,
                    seq: 0,
                    queue: BinaryHeap::new(),
                    lane: VecDeque::new(),
                    procs: Vec::new(),
                    spawned: 0,
                    free_slots: Vec::new(),
                    shutdown: false,
                    events_processed: 0,
                    clock_advances: 0,
                    stale_events: 0,
                    wakes_coalesced: 0,
                    panics: Vec::new(),
                    fatal: None,
                    step: None,
                    violations: Vec::new(),
                }),
                tasks: RefCell::new(Vec::new()),
                now_ns: Cell::new(0),
                shutdown_flag: Cell::new(false),
                fast_paths: std::env::var_os("OMPSS_SIM_NO_FASTPATH").is_none_or(|v| v == "0"),
                mc: MC_INSTALL.with(|slot| {
                    slot.borrow_mut()
                        .take()
                        .map(|i| McState { controller: i.controller, validate: i.validate })
                }),
            }),
        }
    }

    /// Begin spawning a process (builder form, for daemon-ness):
    /// `sim.process("worker").daemon().spawn(async move { ... })`.
    pub fn process(&self, name: impl Into<ProcName>) -> ProcessBuilder {
        ProcessBuilder { shared: self.shared.clone(), name: name.into(), daemon: false }
    }

    /// Spawn a regular (non-daemon) process. It becomes runnable at the
    /// current virtual time. The simulation is not complete until every
    /// non-daemon process has returned.
    pub fn spawn<F>(&self, name: impl Into<ProcName>, fut: F) -> Pid
    where
        F: Future + 'static,
        F::Output: ProcessExit,
    {
        self.process(name).spawn(fut)
    }

    /// Poll process `pid` once, with the current-task context published
    /// for the free functions. Returns whether the future completed.
    fn poll_process(shared: &Rc<Shared>, pid: Pid) -> bool {
        let Some(mut fut) = shared.tasks.borrow_mut()[pid].take() else {
            return true;
        };
        CURRENT.with(|s| s.borrow_mut().push(TaskCtx { shared: shared.clone(), pid }));
        let mc_was_active = MC_ACTIVE.with(|f| f.replace(shared.mc.is_some()));
        let waker = noop_waker();
        let mut cx = Context::from_waker(&waker);
        let polled = catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx)));
        let finished = match polled {
            Ok(Poll::Pending) => {
                shared.tasks.borrow_mut()[pid] = Some(fut);
                false
            }
            Ok(Poll::Ready(_exit)) => {
                // Shutdown/Closed exits are clean teardown, not failures.
                let mut k = shared.kernel.borrow_mut();
                let slot = &mut k.procs[pid];
                slot.phase = Phase::Finished;
                slot.epoch += 1;
                // Clean finishes recycle their slot. Safe even though
                // the body's destructors run below: the future is
                // already out of the task table, so a destructor-spawn
                // that wins this slot installs its own future, and the
                // epoch continuation keeps the dead incarnation's
                // events stale. No recycling during shutdown — teardown
                // enumerates slots and nothing spawns.
                if !k.shutdown {
                    k.free_slots.push(pid);
                }
                drop(k);
                // Drop the body with the task context still published,
                // so destructors may use the free functions.
                drop(fut);
                true
            }
            Err(payload) => {
                let msg = panic_message(&*payload);
                let mut k = shared.kernel.borrow_mut();
                let slot = &mut k.procs[pid];
                slot.phase = Phase::Finished;
                slot.epoch += 1;
                let name = slot.name.to_string();
                // Shutdown unwinds may legitimately panic through user
                // code that unwraps a SimResult; only record panics that
                // happen while the simulation is live.
                if !k.shutdown {
                    k.panics.push((name, msg));
                }
                drop(k);
                // The future may be mid-poll-poisoned; a panicking drop
                // must not take the executor down with it.
                let _ = catch_unwind(AssertUnwindSafe(move || drop(fut)));
                true
            }
        };
        MC_ACTIVE.with(|f| f.set(mc_was_active));
        CURRENT.with(|s| {
            s.borrow_mut().pop();
        });
        finished
    }

    /// Run the simulation until the event queue drains, then tear down
    /// daemons.
    ///
    /// Returns an error if the modelled system deadlocked (a non-daemon
    /// process was still blocked at drain time) or any process panicked.
    pub fn run(self) -> Result<RunReport, RunError> {
        let host_start = Instant::now();
        let shared = &self.shared;
        loop {
            let pid = {
                let mut k = shared.kernel.borrow_mut();
                shared.dispatch(&mut k)
            };
            match pid {
                Some(pid) => {
                    Self::poll_process(shared, pid);
                    shared.flush_step();
                }
                None => break,
            }
        }

        // Queue drained. Non-daemon processes still alive are deadlocked.
        let deadlocked: Vec<ProcState> = {
            let k = shared.kernel.borrow();
            k.procs
                .iter()
                .enumerate()
                .filter(|(_, p)| !p.daemon && p.phase != Phase::Finished)
                .map(|(pid, p)| ProcState {
                    pid,
                    name: p.name.to_string(),
                    phase: match p.phase {
                        Phase::Blocked => "blocked",
                        _ => "ready",
                    },
                })
                .collect()
        };

        // Tear down daemons (and, on deadlock, the stuck processes too).
        // Blocking futures observe the shutdown flag and resolve to
        // `Err(Shutdown)`, so one poll unwinds each body through its
        // `?`s — a body that keeps blocking is re-polled until the guard
        // trips.
        shared.kernel.borrow_mut().shutdown = true;
        shared.shutdown_flag.set(true);
        let mut guard = 0usize;
        loop {
            let pending: Vec<Pid> = {
                let mut k = shared.kernel.borrow_mut();
                let mut v = Vec::new();
                for (pid, slot) in k.procs.iter_mut().enumerate() {
                    if slot.phase != Phase::Finished {
                        slot.phase = Phase::Running;
                        slot.epoch += 1;
                        v.push(pid);
                    }
                }
                v
            };
            if pending.is_empty() {
                break;
            }
            for pid in pending {
                Self::poll_process(shared, pid);
            }
            guard += 1;
            assert!(guard < 1000, "a process is ignoring SimError::Shutdown");
        }

        let mut k = shared.kernel.borrow_mut();
        // An abort takes precedence: processes blocked at that instant
        // (and panics from their forced unwinds) are consequences of
        // stopping early, not independent failures.
        if let Some(fatal) = k.fatal.take() {
            return Err(fatal);
        }
        // A kernel invariant break is the root cause of whatever
        // followed it (spurious wakes can cascade into panics or
        // deadlocks), so it outranks both.
        if let Some(what) = k.violations.first() {
            return Err(RunError::InvariantViolation { what: what.clone() });
        }
        if let Some((name, msg)) = k.panics.first() {
            return Err(RunError::ProcessPanic(name.clone(), msg.clone()));
        }
        if !deadlocked.is_empty() {
            return Err(RunError::Deadlock { blocked: deadlocked });
        }
        Ok(RunReport {
            end_time: k.now,
            events: k.events_processed,
            clock_advances: k.clock_advances,
            processes: k.spawned as usize,
            host_ns: host_start.elapsed().as_nanos() as u64,
            wakes_coalesced: k.wakes_coalesced,
        })
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Park forever (test helper): the old engine's bare `ctx.park()`.
    async fn park_forever() -> SimResult<()> {
        park_while(|_, _| None::<SimResult<()>>).await
    }

    #[test]
    fn empty_sim_completes() {
        let report = Sim::new().run().unwrap();
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.events, 0);
    }

    #[test]
    fn single_process_delays_advance_clock() {
        let sim = Sim::new();
        sim.spawn("p", async {
            assert_eq!(now(), SimTime::ZERO);
            delay(SimDuration::from_nanos(10)).await.unwrap();
            assert_eq!(now().as_nanos(), 10);
            delay(SimDuration::from_nanos(5)).await.unwrap();
            assert_eq!(now().as_nanos(), 15);
        });
        let report = sim.run().unwrap();
        assert_eq!(report.end_time.as_nanos(), 15);
    }

    #[test]
    fn events_fire_in_time_order_across_processes() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let sim = Sim::new();
        for (name, d) in [("a", 30u64), ("b", 10), ("c", 20)] {
            let log = log.clone();
            sim.spawn(name, async move {
                delay(SimDuration::from_nanos(d)).await.unwrap();
                log.borrow_mut().push(name);
            });
        }
        sim.run().unwrap();
        assert_eq!(*log.borrow(), vec!["b", "c", "a"]);
    }

    #[test]
    fn same_time_events_fire_in_spawn_order() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let sim = Sim::new();
        for name in ["first", "second", "third"] {
            let log = log.clone();
            sim.spawn(name, async move {
                delay(SimDuration::from_nanos(7)).await.unwrap();
                log.borrow_mut().push(name);
            });
        }
        sim.run().unwrap();
        assert_eq!(*log.borrow(), vec!["first", "second", "third"]);
    }

    #[test]
    fn nested_spawn_runs_at_current_time() {
        let hits = Arc::new(AtomicUsize::new(0));
        let sim = Sim::new();
        let h = hits.clone();
        sim.spawn("parent", async move {
            delay(SimDuration::from_nanos(5)).await.unwrap();
            let h2 = h.clone();
            spawn("child", async move {
                assert_eq!(now().as_nanos(), 5);
                h2.fetch_add(1, Ordering::SeqCst);
            });
            delay(SimDuration::from_nanos(1)).await.unwrap();
            assert_eq!(h.load(Ordering::SeqCst), 1, "child ran before parent's next event");
        });
        sim.run().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn daemon_blocked_forever_is_torn_down() {
        let sim = Sim::new();
        sim.process("daemon").daemon().spawn(async {
            // Parks forever; must be woken with Shutdown.
            let r = park_forever().await;
            assert_eq!(r, Err(SimError::Shutdown));
        });
        sim.spawn("main", async {
            delay(SimDuration::from_nanos(100)).await.unwrap();
        });
        let report = sim.run().unwrap();
        assert_eq!(report.end_time.as_nanos(), 100);
    }

    #[test]
    fn blocked_non_daemon_is_reported_as_deadlock() {
        let sim = Sim::new();
        sim.spawn("stuck", async {
            let _ = park_forever().await;
        });
        match sim.run() {
            Err(RunError::Deadlock { blocked }) => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].name, "stuck");
                assert_eq!(blocked[0].phase, "blocked");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn process_panic_is_reported() {
        let sim = Sim::new();
        sim.spawn("boom", async {
            panic!("kaboom");
            #[allow(unreachable_code)]
            ()
        });
        match sim.run() {
            Err(RunError::ProcessPanic(name, msg)) => {
                assert_eq!(name, "boom");
                assert!(msg.contains("kaboom"));
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn delay_after_shutdown_errors() {
        let sim = Sim::new();
        sim.process("d").daemon().spawn(async {
            assert_eq!(park_forever().await, Err(SimError::Shutdown));
            // Further blocking calls must also fail immediately.
            assert_eq!(delay(SimDuration::from_nanos(1)).await, Err(SimError::Shutdown));
        });
        sim.run().unwrap();
    }

    #[test]
    fn yield_now_interleaves_same_time_processes() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let sim = Sim::new();
        for name in ["a", "b"] {
            let log = log.clone();
            sim.spawn(name, async move {
                for i in 0..3 {
                    log.borrow_mut().push(format!("{name}{i}"));
                    yield_now().await.unwrap();
                }
            });
        }
        sim.run().unwrap();
        let got = log.borrow().clone();
        assert_eq!(got, vec!["a0", "b0", "a1", "b1", "a2", "b2"]);
    }

    #[test]
    fn abort_run_returns_the_structured_error() {
        let sim = Sim::new();
        sim.spawn("stuck", async {
            // Would be a deadlock — but the abort below must win.
            let _ = park_forever().await;
        });
        sim.spawn("aborter", async {
            delay(SimDuration::from_nanos(5)).await.unwrap();
            let e = abort_run(RunError::Exhausted { what: "t0".into(), attempts: 4 });
            assert_eq!(e, SimError::Shutdown);
        });
        match sim.run() {
            Err(RunError::Exhausted { what, attempts }) => {
                assert_eq!(what, "t0");
                assert_eq!(attempts, 4);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn first_abort_wins() {
        let sim = Sim::new();
        for i in 0..3u32 {
            sim.spawn(format!("a{i}"), async move {
                delay(SimDuration::from_nanos(i as u64 + 1)).await.unwrap();
                let _ = abort_run(RunError::Exhausted { what: format!("t{i}"), attempts: i });
            });
        }
        match sim.run() {
            Err(RunError::Exhausted { what, .. }) => assert_eq!(what, "t0"),
            other => panic!("expected Exhausted, got {other:?}"),
        }
    }

    #[test]
    fn determinism_two_identical_runs_match() {
        fn run_once() -> (u64, u64) {
            let sim = Sim::new();
            for i in 0..20u64 {
                sim.spawn(format!("p{i}"), async move {
                    for j in 0..10u64 {
                        delay(SimDuration::from_nanos((i * 7 + j * 13) % 29 + 1)).await.unwrap();
                    }
                });
            }
            let r = sim.run().unwrap();
            (r.end_time.as_nanos(), r.events)
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn many_processes_complete() {
        let counter = Arc::new(AtomicUsize::new(0));
        let sim = Sim::new();
        for i in 0..200 {
            let c = counter.clone();
            sim.spawn(format!("p{i}"), async move {
                delay(SimDuration::from_nanos(i as u64)).await.unwrap();
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        let report = sim.run().unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 200);
        assert_eq!(report.processes, 200);
    }

    #[test]
    fn process_body_returning_result_exits_cleanly() {
        let sim = Sim::new();
        sim.spawn("q", async {
            delay(SimDuration::from_nanos(3)).await?;
            Ok(())
        });
        let report = sim.run().unwrap();
        assert_eq!(report.end_time.as_nanos(), 3);
    }

    #[test]
    fn pending_timer_of_dropped_process_does_not_fire() {
        // A process parks with a timeout; the signal arrives first, the
        // process finishes, and its future is dropped while its deadline
        // event is still queued. The stale timer must pop as a no-op —
        // it cannot resume a dead task or drive the clock.
        let sim = Sim::new();
        let sig = crate::sync::Signal::new();
        let s = sig.clone();
        sim.spawn("waiter", async move {
            let got = s.wait_timeout(SimDuration::from_nanos(100)).await.unwrap();
            assert!(got, "signal should arrive before the deadline");
        });
        let s2 = sig.clone();
        sim.spawn("setter", async move {
            delay(SimDuration::from_nanos(25)).await.unwrap();
            s2.set();
        });
        let report = sim.run().unwrap();
        assert_eq!(report.end_time.as_nanos(), 25, "stale deadline timer drove the clock");
    }

    #[test]
    fn finished_slots_are_reused_and_processes_reports_spawn_count() {
        let sim = Sim::new();
        let shared = sim.shared.clone();
        sim.spawn("root", async {
            for i in 0..50u64 {
                spawn(("p", i), async {
                    yield_now().await.unwrap();
                });
                // Let the child run to completion before the next spawn,
                // so its slot is free for reuse.
                delay(SimDuration::from_nanos(10)).await.unwrap();
            }
        });
        let report = sim.run().unwrap();
        assert_eq!(report.processes, 51, "processes must count spawns, not slots");
        let slots = shared.kernel.borrow().procs.len();
        assert!(slots <= 3, "sequential spawn/finish must recycle slots; got {slots} of 51");
    }

    #[test]
    fn panicked_slots_are_never_reused() {
        let sim = Sim::new();
        let shared = sim.shared.clone();
        sim.spawn("root", async {
            for i in 0..5u64 {
                spawn(("bad", i), async {
                    panic!("dies in its slot");
                    #[allow(unreachable_code)]
                    ()
                });
                delay(SimDuration::from_nanos(10)).await.unwrap();
            }
        });
        match sim.run() {
            Err(RunError::ProcessPanic(name, _)) => assert_eq!(name, "bad0"),
            other => panic!("expected panic report, got {other:?}"),
        }
        let slots = shared.kernel.borrow().procs.len();
        assert_eq!(slots, 6, "each panicked process must keep its own slot");
    }

    #[test]
    fn stale_wake_of_previous_incarnation_never_resumes_reused_slot() {
        // The waiter finishes at t=25 with its 100ns deadline event
        // still queued; the reincarnation takes over the slot and must
        // sleep straight through that stale event.
        let sim = Sim::new();
        let shared = sim.shared.clone();
        let sig = crate::sync::Signal::new();
        let s = sig.clone();
        sim.spawn("waiter", async move {
            let got = s.wait_timeout(SimDuration::from_nanos(100)).await.unwrap();
            assert!(got, "signal should arrive before the deadline");
        });
        sim.spawn("driver", async move {
            delay(SimDuration::from_nanos(25)).await.unwrap();
            sig.set();
            delay(SimDuration::from_nanos(5)).await.unwrap();
            spawn("reincarnation", async {
                delay(SimDuration::from_nanos(200)).await.unwrap();
                assert_eq!(now().as_nanos(), 230, "stale deadline cut the delay short");
            });
        });
        let report = sim.run().unwrap();
        assert_eq!(report.end_time.as_nanos(), 230);
        assert_eq!(report.processes, 3);
        assert_eq!(
            shared.kernel.borrow().procs.len(),
            2,
            "the reincarnation must reuse the waiter's slot"
        );
    }

    #[test]
    fn heap_event_due_now_dispatches_before_lane_events_made_now() {
        // "late" queued its wake for t=10 before "maker" made a spawn
        // and a wake at t=10, so it holds the lower sequence number and
        // must run first from the heap; the two same-instant events
        // then run from the lane in the order they were made.
        let log = Rc::new(RefCell::new(Vec::new()));
        let sim = Sim::new();
        let sig = crate::sync::Signal::new();
        let (l, s) = (log.clone(), sig.clone());
        sim.spawn("waiter", async move {
            s.wait().await.unwrap();
            l.borrow_mut().push("waiter");
        });
        let (l, s) = (log.clone(), sig.clone());
        sim.spawn("maker", async move {
            delay(SimDuration::from_nanos(10)).await.unwrap();
            l.borrow_mut().push("maker");
            let l2 = l.clone();
            spawn("child", async move {
                l2.borrow_mut().push("child");
            });
            s.set();
            let (heap, lane) = with_current_shared(|shared| {
                let k = shared.kernel.borrow();
                (k.queue.len(), k.lane.len())
            });
            assert_eq!((heap, lane), (1, 2), "late's wake in the heap, spawn + wake in the lane");
        });
        let l = log.clone();
        sim.spawn("late", async move {
            delay(SimDuration::from_nanos(10)).await.unwrap();
            l.borrow_mut().push("late");
        });
        let report = sim.run().unwrap();
        assert_eq!(*log.borrow(), vec!["maker", "late", "child", "waiter"]);
        assert_eq!(report.end_time.as_nanos(), 10);
    }

    #[test]
    fn compaction_prunes_stale_entries_from_heap_and_lane() {
        // Each round the waiter arms a far deadline (heap) and is woken
        // early (lane), stranding the deadline. In the round that trips
        // compaction a ghost first leaves a wake for itself in the lane
        // and finishes, so that entry is stale too. Compaction must clear
        // both containers, and the stale events left after it must pop
        // as no-ops and settle the count.
        const ROUNDS: usize = 100;
        let sim = Sim::new();
        if !sim.shared.fast_paths {
            return; // compaction is a fast path
        }
        let shared = sim.shared.clone();
        let waiter = sim.spawn("waiter", async {
            for _ in 0..ROUNDS {
                let mut armed = false;
                park_while(move |shared, pid| {
                    if armed {
                        return Some(Ok(()));
                    }
                    armed = true;
                    let deadline = shared.now() + SimDuration::from_nanos(1000);
                    shared.schedule_wake_current_epoch(pid, deadline);
                    None
                })
                .await
                .unwrap();
            }
        });
        let compactions = Arc::new(AtomicUsize::new(0));
        let c = compactions.clone();
        sim.spawn("setter", async move {
            for _ in 0..ROUNDS {
                if with_current_shared(|shared| shared.kernel.borrow().stale_events) == 63 {
                    spawn("ghost", async {
                        park_while(|shared, pid| {
                            shared.schedule_wake_current_epoch(pid, shared.now());
                            Some(Ok(()))
                        })
                        .await
                        .unwrap();
                    });
                }
                yield_now().await.unwrap();
                with_current_shared(|shared| {
                    let had_stale = shared.kernel.borrow().stale_events > 0;
                    shared.schedule_wake_current_epoch(waiter, shared.now());
                    let k = shared.kernel.borrow();
                    if had_stale && k.stale_events == 0 {
                        c.fetch_add(1, Ordering::SeqCst);
                        // Only the deadline just stranded survives: it still
                        // carries the waiter's current epoch until the wake
                        // dispatches, so it is not provably stale yet.
                        assert_eq!(k.queue.len(), 1, "stranded deadlines survived compaction");
                        let lane: Vec<Pid> = k.lane.iter().map(|ev| ev.pid).collect();
                        assert_eq!(lane, vec![waiter], "stale lane entry survived compaction");
                    }
                });
            }
        });
        let report = sim.run().unwrap();
        assert_eq!(compactions.load(Ordering::SeqCst), 1);
        assert_eq!(shared.kernel.borrow().stale_events, 0, "stale count did not settle");
        assert_eq!(report.end_time, SimTime::ZERO, "a stale deadline drove the clock");
    }

    #[test]
    fn wake_dedup_coalesces_redundant_wakes() {
        // Two same-time wakes for one blocked process: the second can
        // only pop stale, so the fast path never enqueues it.
        let sim = Sim::new();
        sim.spawn("sleeper", async {
            park_while({
                let mut registered = false;
                move |shared, pid| {
                    if registered {
                        return Some(Ok(()));
                    }
                    registered = true;
                    let at = shared.now() + SimDuration::from_nanos(5);
                    shared.schedule_wake_current_epoch(pid, at);
                    shared.schedule_wake_current_epoch(pid, at);
                    None
                }
            })
            .await
            .unwrap();
        });
        let report = sim.run().unwrap();
        if std::env::var_os("OMPSS_SIM_NO_FASTPATH").is_none_or(|v| v == "0") {
            assert_eq!(report.wakes_coalesced, 1);
        }
    }
}
