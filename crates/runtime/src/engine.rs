//! The runtime engine: node images and their service processes.
//!
//! Mirrors the Nanos++ execution flow (§III-C): a submitted task enters
//! the dependency graph; when ready it goes to the scheduler; a
//! resource (SMP worker, GPU manager thread, or — via the master's
//! communication thread — a remote node) picks it up; the coherence
//! layer stages its data in the execution space; the task runs; its
//! completion releases successors.
//!
//! One runtime image per node (§III-D1, §III-D2): every node, master and
//! slaves alike, runs the same [`smp_worker`] loop per worker thread and
//! the same [`gpu_manager`] loop per GPU. A [`Home`] makes the four
//! decisions that depend on the node, in one place: where its ready
//! queue lives ([`Home::take`]), which bell an idle resource parks on
//! ([`Home::bell`]), how a completion is reported ([`Home::finish`]),
//! and what follows a lost GPU ([`RtShared::gpu_lost`]).
//!
//! Cluster protocol (§III-D1): the master image also runs the program
//! and owns the task graph. One *communication thread* drains the per-node
//! proxy queues round-robin, staging each dispatched task's input data
//! in the remote node's host memory (concurrently, via helper
//! processes — GASNet sends are asynchronous) before sending the `Exec`
//! active message. Slaves submit received tasks to their local
//! scheduler, execute them with their own workers/GPU managers, and
//! send `Done` back; the master releases successors and refills the
//! node up to `resources + presend` tasks in flight.
//!
//! The master is event-driven. A sweep of the communication thread
//! ([`ompss_sched::Dispatcher`]) keeps the round-robin order and the
//! persistent cursor but polls only nodes that can take a task, and
//! does nothing when none can. Every event that makes work ready or
//! frees a slave's slot goes through [`RtShared::announce`], which
//! wakes only the processes that can act on it, and decides by its ring
//! order which of them polls first at one instant (DESIGN.md §10).

use std::cell::{Cell, RefCell, RefMut};
use std::collections::BTreeSet;
use std::rc::Rc;

use ompss_coherence::{Coherence, MembershipEpochs};
use ompss_core::{Device, TaskGraph, TaskId};
use ompss_cudasim::{GpuDevice, GpuFault, KernelCost};
use ompss_mem::{FxHashMap, MemoryManager, Region, SpaceId};
use ompss_net::{AmEndpoint, Fabric, LeaseTracker, NodeId};
use ompss_sched::{Dispatcher, LocalityOracle, ResourceId, Scheduler};
use ompss_sim::{
    abort_run, delay, now, process, yield_now, Bell, FaultClass, FaultStream, Latch, RunError,
    Signal, SimDuration, SimResult,
};

use crate::exec::{ClusterMsg, RtExec};
use crate::recover::Reliability;
use crate::task::{TaskCost, TaskRecord};
use crate::trace::{TraceEvent, TraceResource, Tracer};

/// Scheduler oracle crediting each holder of a region to the resource
/// space it counts toward: a GPU or host counts only itself; at the
/// master, a node proxy (keyed by the node's host) counts the whole node
/// (host + GPUs), matching the master's node-granularity view.
pub(crate) struct SpanOracle {
    pub coh: Rc<Coherence>,
    /// Space → span key, for spaces folded into a node proxy's span;
    /// any other space is its own key.
    pub span_key: FxHashMap<SpaceId, SpaceId>,
}

impl SpanOracle {
    fn key(&self, space: SpaceId) -> SpaceId {
        self.span_key.get(&space).copied().unwrap_or(space)
    }

    /// Does any space of `key`'s span hold the latest copy of `region`?
    pub fn span_holds(&self, region: &Region, key: SpaceId) -> bool {
        let mut held = false;
        self.coh.latest_holders(region, |s| held |= self.key(s) == key);
        held
    }
}

impl LocalityOracle for SpanOracle {
    fn holders(&self, region: &Region, found: &mut dyn FnMut(SpaceId, u64)) {
        // Present once in a span counts once. Holders come in space
        // order, and the runtime numbers each node's host and then its
        // GPUs, a GPU keyed to its own host: the keys never decrease,
        // so a span's duplicates sit next to each other.
        let mut last = None;
        self.coh.latest_holders(region, |s| {
            let k = self.key(s);
            debug_assert!(last.is_none_or(|l| l <= k), "span keys out of order");
            if last != Some(k) {
                last = Some(k);
                found(k, region.len);
            }
        });
    }
}

/// State owned by the master image, in one `RefCell`.
pub(crate) struct MasterState {
    pub graph: TaskGraph,
    pub sched: Scheduler,
    pub records: FxHashMap<TaskId, Rc<TaskRecord>>,
    pub next_id: u64,
    /// What the comm thread knows of each slave — liveness, presence,
    /// in-flight counts, live GPUs — and its round-robin cursor.
    pub dispatch: Dispatcher,
    pub tasks_executed: u64,
    /// Reusable buffer for [`TaskGraph::complete_into`] on the
    /// completion hot path (always left empty between completions).
    pub newly_scratch: Vec<TaskId>,
    /// Tasks dispatched to each node and not yet completed or handed
    /// back (index 0 unused) — the re-home set when a node is lost.
    pub dispatched: Vec<BTreeSet<TaskId>>,
}

impl MasterState {
    /// Has the lease protocol declared `node` dead (or a drain retired
    /// it)? The comm thread no longer dispatches to it, and stale
    /// notifications from it are ignored. The master never dies.
    pub fn node_dead(&self, node: NodeId) -> bool {
        node != 0 && self.dispatch.is_dead(node)
    }
}

/// Per-slave-node state.
pub(crate) struct SlaveState {
    pub sched: RefCell<Scheduler>,
    pub bell: Bell,
    /// Set once this node has lost a GPU: its dispatcher then bounces
    /// freshly arrived CUDA tasks the node can no longer serve back to
    /// the master (covers `Exec`s that raced the `GpuDown` notice).
    pub gpu_lost: Cell<bool>,
    /// Ground truth of a planned node-kill: set at the fault instant.
    /// The node's own processes observe it and stop before committing
    /// anything further; the *master* reacts only once the lease
    /// protocol detects the silence.
    pub dead: Cell<bool>,
}

/// Everything the service processes share.
pub(crate) struct RtShared {
    pub cfg: crate::config::RuntimeConfig,
    pub mem: MemoryManager,
    pub coh: Rc<Coherence>,
    pub exec: Rc<RtExec>,
    pub master: RefCell<MasterState>,
    /// The master's SMP workers park here; see [`RtShared::announce`]
    /// for when each of the three master bells rings.
    pub smp_bell: Bell,
    /// The master's GPU managers park here.
    pub gpu_bell: Bell,
    /// The communication thread parks here.
    pub comm_bell: Bell,
    pub master_oracle: SpanOracle,
    pub slaves: Vec<SlaveState>,
    /// Every slave's oracle: a slave scheduler's resources count only
    /// their own spaces, so all slaves share one span-less oracle.
    pub slave_oracle: SpanOracle,
    /// Outstanding tasks (for `taskwait`).
    pub latch: Latch,
    /// Node proxy resource ids within the master scheduler, per node
    /// (index 0 unused).
    pub proxy_res: Vec<ResourceId>,
    pub gpus: FxHashMap<SpaceId, GpuDevice>,
    pub hosts: Vec<SpaceId>,
    pub tracer: Option<Tracer>,
    pub counters: crate::stats::Counters,
    /// Access-observation collector; `Some` only in verification mode
    /// ([`crate::RuntimeConfig::verify`]), so the task hot path pays
    /// one `Option` check when it is off.
    pub verify: Option<Rc<crate::verify::VerifySink>>,
    /// This run's chaos fault stream; `None` in fault-free runs, where
    /// every injection site costs one `Option` check.
    pub faults: Option<FaultStream>,
    /// Reliable-delivery state for control messages; `Some` exactly
    /// when `faults` is (plain sends otherwise — the paper's protocol).
    pub rel: Option<Rc<Reliability>>,
    /// Lease bookkeeping of the heartbeat protocol; `Some` only when
    /// node-loss chaos is armed, the one case its lease monitor runs
    /// (other runs track nothing and send nothing). An armed joiner
    /// starts untracked — its lease begins at the join instant; a
    /// drained node is untracked at departure — retirement, not death.
    pub lease: Option<RefCell<LeaseTracker>>,
    /// Epoch-versioned shard ownership, the one control plane every
    /// run asks for homes and worksharing owners. Epoch 0 holds the
    /// initial members, so a static cluster is epoch 0 of an elastic
    /// one; planned joins/drains advance the epoch and rebalance slice
    /// homes. With one shard every owner is the master.
    pub membership: RefCell<MembershipEpochs>,
    /// Every space of each node (host first, then its GPUs) — the purge
    /// set when that node dies.
    pub node_spaces: Vec<Vec<SpaceId>>,
    /// Set by the main program when it returns: chaos daemons (lease
    /// monitor, planned node-kill) stand down instead of holding timed
    /// events that would keep virtual time marching past the makespan.
    pub done: Signal,
}

/// `rec`'s body, if it runs at all: a body runs on real bytes, or under
/// verify mode. Under phantom backing outside verify mode there are no
/// bytes to view, and the body never runs.
fn runnable_body<'a>(
    mem: &MemoryManager,
    verify: Option<&crate::verify::VerifySink>,
    rec: &'a TaskRecord,
) -> Option<&'a crate::task::TaskBody> {
    rec.body.as_ref().filter(|_| verify.is_some() || mem.is_real())
}

/// Run `rec`'s body, if it runs at all ([`runnable_body`]), over the
/// bytes its copy `accesses` were mapped to (`locs`, in access order),
/// observed by the verification sink in verify mode. An SMP worker
/// calls it inline; a GPU manager boxes it as the kernel's effect.
fn run_body(
    mem: &MemoryManager,
    verify: Option<&crate::verify::VerifySink>,
    rec: &TaskRecord,
    accesses: &[ompss_mem::Access],
    locs: &[ompss_coherence::Loc],
) {
    let Some(body) = runnable_body(mem, verify, rec) else { return };
    let requests: Vec<_> = locs
        .iter()
        .zip(accesses)
        .map(|(l, a)| (l.space, l.alloc, l.offset, a.region.len))
        .collect();
    match verify {
        Some(sink) => {
            sink.run_observed(mem, rec.desc.id, &rec.desc.label, accesses, &requests, body)
        }
        None => {
            mem.with_bytes_many(&requests, |views| body(views));
        }
    }
}

/// How one attempt at a task body ended.
pub(crate) enum BodyOutcome {
    /// Completed and committed.
    Done,
    /// An injected failure was detected before commit: the body never
    /// ran, outputs were not written, inputs were unpinned — safe to
    /// re-execute under the retry budget.
    Failed,
    /// The executing GPU was lost outright (GPU flavour only).
    DeviceLost,
    /// The executing *node* was killed while the body ran: nothing was
    /// committed, no completion is sent, and the acquired copies are
    /// left for the master's purge — the worker just stops.
    Abandoned,
}

/// A set of device kinds, `[smp, cuda]`.
pub(crate) type Kinds = [bool; 2];

/// Every device kind: recovery and membership sites re-queue work of
/// any kind, or change where it may run.
pub(crate) const ALL_KINDS: Kinds = [true, true];

/// The device kinds of `tasks`.
pub(crate) fn kinds_of<'a>(tasks: impl IntoIterator<Item = &'a TaskRecord>) -> Kinds {
    let mut kinds = [false, false];
    for t in tasks {
        kinds[(t.desc.device == Device::Cuda) as usize] = true;
    }
    kinds
}

impl RtShared {
    /// The master's wakeup rule, in one place (DESIGN.md §10). Work of
    /// `kinds` became ready at this instant — submitted, released by a
    /// completion, or re-queued — and `slot_freed` says a slave got an
    /// in-flight slot back.
    ///
    /// - The SMP workers wake only for ready SMP work.
    /// - The GPU managers wake at every announcement, as they did on the
    ///   one shared bell: which idle manager takes a ready task at an
    ///   instant follows the order they last parked in, and the
    ///   multi-GPU figures are measured with that order.
    /// - The communication thread wakes only when there is ready work
    ///   or a freed slot — otherwise its sweep could dispatch nothing.
    ///
    /// Ring order decides the same-instant race: the kind bells ring
    /// before the comm bell, so at the instant work becomes ready the
    /// master's idle resources poll before the communication thread
    /// sweeps the node proxies.
    pub(crate) fn announce(&self, kinds: Kinds, slot_freed: bool) {
        if kinds[0] {
            self.smp_bell.ring();
        }
        self.gpu_bell.ring();
        if slot_freed || kinds != [false, false] {
            self.comm_bell.ring();
        }
    }

    /// Record a completed task body: always charges the counter
    /// registry's per-resource busy time, and additionally emits a
    /// trace event when tracing is on.
    fn trace_task(
        &self,
        rec: &TaskRecord,
        node: u32,
        name: &str,
        start: ompss_sim::SimTime,
        end: ompss_sim::SimTime,
    ) {
        self.counters.record_busy(node, name, end.saturating_since(start));
        if let Some(tr) = &self.tracer {
            tr.record(TraceEvent::Task {
                task: rec.desc.id.0,
                label: rec.desc.label.clone(),
                resource: TraceResource { node, name: name.to_string() },
                start,
                end,
            });
        }
    }

    fn record(&self, id: TaskId) -> Rc<TaskRecord> {
        self.master.borrow().records.get(&id).expect("unknown task id").clone()
    }

    /// Ground truth: has `node` been killed? (The master only *acts* on
    /// this once the lease protocol detects it; the dead node's own
    /// processes consult it directly — a dead machine stops computing.)
    pub(crate) fn node_down(&self, node: NodeId) -> bool {
        node != 0 && self.slaves[node as usize].dead.get()
    }

    /// Acquire all of a task's copy accesses in `space` concurrently —
    /// the paper's *non-blocking cache*: every input transfer is issued
    /// at once (they pipeline on the DMA engines and NIC ports) and the
    /// caller parks until the last completes. Returns the mapped
    /// locations in access order.
    async fn acquire_all(
        self: &Rc<Self>,
        accesses: &[ompss_mem::Access],
        space: SpaceId,
    ) -> SimResult<Vec<ompss_coherence::Loc>> {
        if accesses.len() <= 1 {
            let mut locs = Vec::with_capacity(accesses.len());
            for a in accesses {
                locs.push(self.coh.acquire(&*self.exec, &a.region, a.kind.reads(), space).await?);
            }
            return Ok(locs);
        }
        let latch = ompss_sim::Latch::new();
        latch.add(accesses.len() as u64);
        let results: Rc<RefCell<Vec<Option<ompss_coherence::Loc>>>> =
            Rc::new(RefCell::new(vec![None; accesses.len()]));
        for (i, a) in accesses.iter().copied().enumerate() {
            let sh = self.clone();
            let latch = latch.clone();
            let results = results.clone();
            process(("acquire:D", a.region.data.0)).daemon().spawn(async move {
                if let Ok(loc) = sh.coh.acquire(&*sh.exec, &a.region, a.kind.reads(), space).await {
                    results.borrow_mut()[i] = Some(loc);
                }
                latch.done();
            });
        }
        latch.wait_zero().await;
        let locs: Option<Vec<_>> = results.borrow().iter().copied().collect();
        locs.ok_or(ompss_sim::SimError::Shutdown)
    }

    /// Run the body + cost of `task` in `space`, assuming the caller
    /// handles graph bookkeeping. SMP flavour: cost charged as a delay.
    ///
    /// `sim`-layer injection happens here: a *stall* charges bounded
    /// extra time (the task still completes); a *timeout* charges the
    /// full cost and then reports failure without running the body, so
    /// the worker re-executes under its retry budget.
    async fn run_smp_body(
        self: &Rc<Self>,
        rec: &TaskRecord,
        space: SpaceId,
        node: NodeId,
    ) -> SimResult<BodyOutcome> {
        let accesses = rec.copy_accesses();
        let mut locs = Vec::with_capacity(accesses.len());
        for a in &accesses {
            locs.push(self.coh.acquire(&*self.exec, &a.region, a.kind.reads(), space).await?);
        }
        let base = match rec.cost {
            TaskCost::Smp(d) => d,
            TaskCost::Auto => {
                // Streaming-kernel default: one pass over the footprint
                // at host memcpy bandwidth.
                let bytes = rec.desc.copy_footprint() as f64;
                SimDuration::from_secs_f64(bytes / self.cfg.gpu_spec.host_memcpy_bandwidth)
            }
            TaskCost::Gpu(_) => unreachable!("GPU task routed to an SMP worker"),
        };
        let mut timed_out = false;
        let mut charge = base;
        if let Some(faults) = &self.faults {
            if faults.decide(FaultClass::SimTimeout) {
                timed_out = true;
            } else if faults.decide(FaultClass::SimStall) {
                let extra = (base.as_nanos() as f64 * faults.fraction(FaultClass::SimStall)) as u64;
                charge = base + SimDuration::from_nanos(extra);
            }
        }
        delay(charge).await?;
        if timed_out {
            for a in &accesses {
                self.coh.unpin(&a.region, space);
            }
            return Ok(BodyOutcome::Failed);
        }
        if self.node_down(node) {
            return Ok(BodyOutcome::Abandoned);
        }
        run_body(&self.mem, self.verify.as_deref(), rec, &accesses, &locs);
        self.coh.commit(&*self.exec, &accesses, space).await?;
        Ok(BodyOutcome::Done)
    }

    /// Run `task` on a GPU through its manager's stream, with optional
    /// prefetch of `next` while the kernel executes.
    async fn run_gpu_body(
        self: &Rc<Self>,
        rec: &Rc<TaskRecord>,
        space: SpaceId,
        node: NodeId,
        stream: &ompss_cudasim::Stream,
        prefetch_next: Option<&TaskRecord>,
    ) -> SimResult<BodyOutcome> {
        let accesses = rec.copy_accesses();
        let locs = self.acquire_all(&accesses, space).await?;
        let cost = match rec.cost {
            TaskCost::Gpu(k) => k,
            TaskCost::Smp(d) => KernelCost::fixed(d),
            TaskCost::Auto => {
                // Streaming-kernel default: the copy clauses name every
                // byte the kernel touches, streamed once at 80% of
                // device memory bandwidth.
                KernelCost::memory_bound(rec.desc.copy_footprint() as f64, 0.8)
            }
        };
        // Launch asynchronously so prefetch can proceed underneath. The
        // effect runs on the stream's own process, so in verification
        // mode the observation wrapper (thread-local access tracker +
        // byte diffing) must travel inside the closure.
        // A body that never runs ([`runnable_body`]) builds no effect.
        let runs = runnable_body(&self.mem, self.verify.as_deref(), rec).is_some();
        let effect: Option<ompss_cudasim::Effect> = runs.then(|| {
            let rec = rec.clone();
            let mem = self.mem.clone();
            let verify = self.verify.clone();
            let declared = accesses.clone();
            Box::new(move || run_body(&mem, verify.as_deref(), &rec, &declared, &locs))
                as ompss_cudasim::Effect
        });
        let ev = stream.launch_async(cost, effect);
        // Prefetch the next task's read data while the kernel runs
        // (§III-D2): effective only with overlap, since pageable copies
        // serialise after the kernel — the cudasim models that.
        if let Some(next) = prefetch_next {
            for a in next.copy_accesses() {
                if a.kind.reads() {
                    self.coh.prefetch(&*self.exec, &a.region, space).await?;
                }
            }
        }
        ev.synchronize().await;
        if let Some(fault) = ev.fault() {
            // The kernel did not retire: its effect never ran, outputs
            // were not written. Unpin the acquired copies (commit would
            // have) so recovery can re-acquire or invalidate them.
            for a in &accesses {
                self.coh.unpin(&a.region, space);
            }
            return Ok(match fault {
                GpuFault::DeviceLost => BodyOutcome::DeviceLost,
                _ => BodyOutcome::Failed,
            });
        }
        if self.node_down(node) {
            return Ok(BodyOutcome::Abandoned);
        }
        self.coh.commit(&*self.exec, &accesses, space).await?;
        Ok(BodyOutcome::Done)
    }

    /// Account one failed attempt at `rec`'s body. True = retry; false
    /// after aborting the run because the budget ran out.
    fn note_retry(&self, rec: &TaskRecord, attempts: &mut u32) -> bool {
        *attempts += 1;
        if *attempts > self.cfg.task_retry_budget {
            abort_run(RunError::Exhausted {
                what: format!("task '{}' (t{}) re-executions", rec.desc.label, rec.desc.id.0),
                attempts: *attempts,
            });
            return false;
        }
        self.counters.update(|c| c.tasks_reexecuted += 1);
        if let Some(tr) = &self.tracer {
            tr.record(TraceEvent::Recovery {
                kind: "task_retry",
                task: Some(rec.desc.id.0),
                at: now(),
            });
        }
        true
    }

    /// Whole-device loss, on any node: blacklist the manager's resource
    /// in the node's scheduler (migrating its queue), put the in-hand and
    /// any prefetched task back, drop the dead space's cached copies and
    /// record the loss. The rest depends on the node. The master first
    /// resets the tasks in its graph and afterwards announces them: the
    /// machine-wide fuse guarantees a surviving CUDA-capable resource
    /// (another local GPU, or the node proxies when clustered), so
    /// nothing becomes unservable there. A slave marks its GPU lost and
    /// hands everything it can no longer serve back to the master as
    /// `Failed`, after a `GpuDown` notice so the master throttles CUDA
    /// dispatch to it.
    fn gpu_lost(
        self: &Rc<Self>,
        home: &Home,
        res: ResourceId,
        space: SpaceId,
        tid: TaskId,
        prefetched: Option<TaskId>,
    ) {
        self.counters.update(|c| c.devices_lost += 1);
        let requeue: Vec<Rc<TaskRecord>> =
            std::iter::once(tid).chain(prefetched).map(|t| self.record(t)).collect();
        match &home.ep {
            None => {
                let mut m = self.master.borrow_mut();
                for rec in &requeue {
                    m.graph.reset_running(rec.desc.id);
                }
            }
            Some(_) => self.slaves[home.node as usize].gpu_lost.set(true),
        }
        let orphans = {
            let (mut sched, oracle) = home.sched(self);
            sched.deactivate(res);
            for rec in &requeue {
                sched.submit(&rec.desc, oracle);
            }
            if home.ep.is_some() {
                sched.drain_unservable()
            } else {
                Vec::new()
            }
        };
        self.coh.invalidate_space(space);
        if let Some(tr) = &self.tracer {
            tr.record(TraceEvent::Recovery { kind: "device_lost", task: Some(tid.0), at: now() });
        }
        let Some(ep) = &home.ep else {
            self.announce(ALL_KINDS, true);
            return;
        };
        let shared = self.clone();
        let ep = ep.clone();
        process(format!("gpu-down:n{}", home.node)).daemon().spawn(async move {
            send_msg(&shared, &ep, 0, "GpuDown", |rel| ClusterMsg::GpuDown { rel }).await;
            for t in orphans {
                send_msg(&shared, &ep, 0, "Failed", |rel| ClusterMsg::Failed { task: t, rel })
                    .await;
            }
        });
        self.slaves[home.node as usize].bell.ring();
    }

    /// Master-side completion: release successors, update the
    /// scheduler, and announce the kinds released. `remote`: the task
    /// ran on a slave, whose in-flight slot is now free.
    pub(crate) fn complete_on_master(&self, id: TaskId, res: ResourceId, remote: bool) {
        let (rec, released) = {
            let mut m = self.master.borrow_mut();
            let m = &mut *m;
            let mut newly = std::mem::take(&mut m.newly_scratch);
            m.graph.complete_into(id, &mut newly);
            let released = kinds_of(newly.iter().map(|t| &*m.records[t]));
            let descs = newly.iter().map(|t| &m.records[t].desc);
            m.sched.task_completed(res, descs, &self.master_oracle);
            newly.clear();
            m.newly_scratch = newly;
            m.tasks_executed += 1;
            (m.records[&id].clone(), released)
        };
        rec.done.set();
        self.latch.done();
        self.announce(released, remote);
    }
}

/// Where a resource loop runs: the node, and — on a slave — the
/// endpoint its completions and hand-backs leave through. The master
/// and every slave run the same loops; what differs between them is
/// decided here.
#[derive(Clone)]
pub(crate) struct Home {
    pub node: NodeId,
    /// The slave's endpoint; `None` on the master.
    pub ep: Option<AmEndpoint<ClusterMsg>>,
}

impl Home {
    /// This node's scheduler and the locality oracle it scores with.
    fn sched<'a>(&self, shared: &'a RtShared) -> (RefMut<'a, Scheduler>, &'a SpanOracle) {
        match self.ep {
            None => {
                (RefMut::map(shared.master.borrow_mut(), |m| &mut m.sched), &shared.master_oracle)
            }
            Some(_) => {
                let n = self.node as usize;
                (shared.slaves[n].sched.borrow_mut(), &shared.slave_oracle)
            }
        }
    }

    /// Take the next task for `res` from this node's ready queue. On the
    /// master, taking a task starts it in the graph; a slave's tasks
    /// were started when the master dispatched them.
    fn take(&self, shared: &RtShared, res: ResourceId) -> Option<TaskId> {
        let t = self.sched(shared).0.next(res)?;
        if self.ep.is_none() {
            shared.master.borrow_mut().graph.start(t);
        }
        Some(t)
    }

    /// The bell an idle resource running `kind` parks on: the master's
    /// per-kind bell ([`RtShared::announce`]), or the slave's one bell.
    fn bell<'a>(&self, shared: &'a RtShared, kind: Device) -> &'a Bell {
        match (&self.ep, kind) {
            (Some(_), _) => &shared.slaves[self.node as usize].bell,
            (None, Device::Smp) => &shared.smp_bell,
            (None, Device::Cuda) => &shared.gpu_bell,
        }
    }

    /// Report `tid` done on `res`: the master releases its successors at
    /// once; a slave sends `Done` to the master.
    async fn finish(&self, shared: &Rc<RtShared>, tid: TaskId, res: ResourceId) {
        match &self.ep {
            None => shared.complete_on_master(tid, res, false),
            Some(ep) => {
                shared.counters.update(|c| c.am_done += 1);
                send_msg(shared, ep, 0, "Done", |rel| ClusterMsg::Done { task: tid, rel }).await;
            }
        }
    }
}

/// An SMP worker thread, on any node.
pub(crate) async fn smp_worker(shared: Rc<RtShared>, home: Home, res: ResourceId) {
    let node = home.node;
    let space = shared.hosts[node as usize];
    // Rendered at the first completed task: set-up runs start every
    // loop and complete none.
    let mut name: Option<String> = None;
    loop {
        if shared.node_down(node) {
            return;
        }
        let Some(tid) = home.take(&shared, res) else {
            home.bell(&shared, Device::Smp).wait().await;
            continue;
        };
        let rec = shared.record(tid);
        let mut attempts = 0u32;
        loop {
            let t0 = now();
            match shared.run_smp_body(&rec, space, node).await {
                Err(_) => return,
                Ok(BodyOutcome::Done) => {
                    shared.trace_task(
                        &rec,
                        node,
                        name.get_or_insert_with(|| format!("worker{}", res.0)),
                        t0,
                        now(),
                    );
                    home.finish(&shared, tid, res).await;
                    break;
                }
                Ok(BodyOutcome::Failed) => {
                    if !shared.note_retry(&rec, &mut attempts) {
                        return;
                    }
                }
                Ok(BodyOutcome::DeviceLost) => unreachable!("SMP body cannot lose a device"),
                Ok(BodyOutcome::Abandoned) => {
                    debug_assert_ne!(node, 0, "node 0 cannot be killed");
                    return;
                }
            }
        }
    }
}

/// A GPU manager thread, on any node: one per GPU, with prefetch of the
/// next task's inputs while the kernel runs (§III-D2).
pub(crate) async fn gpu_manager(shared: Rc<RtShared>, home: Home, res: ResourceId, space: SpaceId) {
    let node = home.node;
    let dev = shared.gpus[&space].clone();
    let stream = dev.create_stream(format!("mgr{}", space.0));
    // Rendered at the first completed task: set-up runs start every
    // loop and complete none.
    let mut name: Option<String> = None;
    let mut next: Option<TaskId> = None;
    loop {
        if shared.node_down(node) {
            return;
        }
        let Some(tid) = next.take().or_else(|| home.take(&shared, res)) else {
            home.bell(&shared, Device::Cuda).wait().await;
            continue;
        };
        let rec = shared.record(tid);
        // Pick (and start) a prefetch candidate before launching.
        let pf: Option<Rc<TaskRecord>> = if shared.cfg.prefetch {
            next = home.take(&shared, res);
            next.map(|n| shared.record(n))
        } else {
            None
        };
        let mut attempts = 0u32;
        loop {
            let t0 = now();
            // Prefetch only rides the first attempt; a retry must not
            // re-issue it (the copies are already inbound or pinned).
            let pf_arg = if attempts == 0 { pf.as_deref() } else { None };
            match shared.run_gpu_body(&rec, space, node, &stream, pf_arg).await {
                Err(_) => return,
                Ok(BodyOutcome::Done) => {
                    shared.trace_task(
                        &rec,
                        node,
                        name.get_or_insert_with(|| format!("gpu{}", space.0)),
                        t0,
                        now(),
                    );
                    home.finish(&shared, tid, res).await;
                    break;
                }
                Ok(BodyOutcome::Failed) => {
                    if !shared.note_retry(&rec, &mut attempts) {
                        return;
                    }
                }
                Ok(BodyOutcome::DeviceLost) => {
                    shared.gpu_lost(&home, res, space, tid, next.take());
                    return;
                }
                Ok(BodyOutcome::Abandoned) => {
                    debug_assert_ne!(node, 0, "node 0 cannot be killed");
                    return;
                }
            }
        }
    }
}

/// The master's communication thread: drains node-proxy queues round
/// robin ([`Dispatcher::sweep`]: at most one task per node per visit,
/// from a persistent cursor), staging data and dispatching `Exec`
/// messages, keeping each node at `resources + presend` tasks in
/// flight. A sweep polls only the nodes that can take a task. After a
/// sweep that dispatched, the thread yields and sweeps again; after one
/// that dispatched nothing, it parks until [`RtShared::announce`] rings
/// `comm_bell` for new ready work or a freed slot.
pub(crate) async fn comm_thread(shared: Rc<RtShared>, ep: AmEndpoint<ClusterMsg>) {
    let mut sent: Vec<(NodeId, Rc<TaskRecord>)> = Vec::new();
    loop {
        {
            let mut guard = shared.master.borrow_mut();
            let m = &mut *guard;
            m.dispatch.sweep(&mut m.sched, |node, t| {
                m.graph.start(t);
                m.dispatched[node as usize].insert(t);
                let rec = m.records[&t].clone();
                let device = rec.desc.device;
                sent.push((node, rec));
                device
            });
        }
        let progressed = !sent.is_empty();
        for (node, rec) in sent.drain(..) {
            let host = shared.hosts[node as usize];
            let shared2 = shared.clone();
            let ep2 = ep.clone();
            // Helper process: data staging + Exec message, so sends to
            // different nodes overlap (asynchronous GASNet puts).
            // Staging is node-granular ("a whole remote cluster node is
            // a single device", §III-C3): data already valid in any
            // space of the node needs no push.
            process(("comm:push:t", rec.desc.id.0)).daemon().spawn(async move {
                let needed: Vec<_> = rec
                    .copy_accesses()
                    .into_iter()
                    .filter(|a| a.kind.reads())
                    .filter(|a| !shared2.master_oracle.span_holds(&a.region, host))
                    .collect();
                // Asynchronous GASNet puts: stage every input at once,
                // then send the execution request.
                let latch = ompss_sim::Latch::new();
                latch.add(needed.len() as u64);
                for a in needed {
                    let sh = shared2.clone();
                    let latch = latch.clone();
                    process(("comm:stage:D", a.region.data.0)).daemon().spawn(async move {
                        let _ = sh.coh.presend(&*sh.exec, &a.region, host).await;
                        latch.done();
                    });
                }
                latch.wait_zero().await;
                shared2.counters.update(|c| c.am_exec += 1);
                send_msg(&shared2, &ep2, node, "Exec", |rel| ClusterMsg::Exec {
                    task: rec.desc.id,
                    rel,
                })
                .await;
            });
        }
        if progressed {
            // Yield so helpers and other processes advance before the
            // next sweep.
            let _ = yield_now().await;
        } else {
            shared.comm_bell.wait().await;
        }
    }
}

/// The master's AM dispatcher: completion notifications and inbound
/// data-message sinks.
pub(crate) async fn master_dispatcher(shared: Rc<RtShared>, ep: AmEndpoint<ClusterMsg>) {
    while let Ok((src, msg)) = ep.poll().await {
        match msg {
            ClusterMsg::Done { task, rel } => {
                if !ack_fresh(&shared, &ep, src, rel) {
                    continue;
                }
                let stale = {
                    let mut guard = shared.master.borrow_mut();
                    let m = &mut *guard;
                    if m.node_dead(src) {
                        // The node was declared dead and this task was
                        // already re-homed; the straggler is dropped.
                        true
                    } else {
                        m.dispatch.finished(&m.sched, src, m.records[&task].desc.device);
                        m.dispatched[src as usize].remove(&task);
                        false
                    }
                };
                if stale {
                    continue;
                }
                shared.complete_on_master(task, shared.proxy_res[src as usize], true);
            }
            ClusterMsg::Failed { task, rel } => {
                if !ack_fresh(&shared, &ep, src, rel) {
                    continue;
                }
                // The node hands the task back: put it into the graph
                // and scheduler again, free its in-flight slot.
                {
                    let mut guard = shared.master.borrow_mut();
                    let m = &mut *guard;
                    if m.node_dead(src) {
                        continue;
                    }
                    m.dispatch.finished(&m.sched, src, m.records[&task].desc.device);
                    m.dispatched[src as usize].remove(&task);
                    m.graph.reset_running(task);
                    let rec = m.records[&task].clone();
                    m.sched.submit(&rec.desc, &shared.master_oracle);
                }
                shared.announce(ALL_KINDS, true);
            }
            ClusterMsg::GpuDown { rel } => {
                if !ack_fresh(&shared, &ep, src, rel) {
                    continue;
                }
                {
                    let mut guard = shared.master.borrow_mut();
                    let m = &mut *guard;
                    if m.node_dead(src) {
                        continue;
                    }
                    // At the node's last GPU its proxy is forbidden CUDA
                    // work: no more placing or hinting CUDA tasks there,
                    // and any already queued there migrate to the global
                    // queue for the surviving GPUs.
                    m.dispatch.gpu_down(&mut m.sched, src);
                }
                shared.announce(ALL_KINDS, true);
            }
            ClusterMsg::Pong { node } => {
                if let Some(lease) = &shared.lease {
                    lease.borrow_mut().beat(node, now());
                }
            }
            ClusterMsg::Ack { id } => {
                if let Some(r) = &shared.rel {
                    r.on_ack(id);
                }
            }
            ClusterMsg::Data => {}
            ClusterMsg::Exec { .. } | ClusterMsg::Ping => {
                unreachable!("master never receives Exec/Ping")
            }
        }
    }
}

/// A slave node's AM dispatcher: receives `Exec` requests and submits
/// them to the local scheduler.
pub(crate) async fn slave_dispatcher(
    shared: Rc<RtShared>,
    node: NodeId,
    ep: AmEndpoint<ClusterMsg>,
) {
    while let Ok((src, msg)) = ep.poll().await {
        if shared.node_down(node) {
            // A dead machine processes nothing. (The fabric already
            // suppresses delivery to a killed node; this also covers
            // messages queued before the kill instant.)
            return;
        }
        match msg {
            ClusterMsg::Exec { task, rel } => {
                if !ack_fresh(&shared, &ep, src, rel) {
                    continue;
                }
                let rec = shared.record(task);
                let slave = &shared.slaves[node as usize];
                let orphans = {
                    let mut s = slave.sched.borrow_mut();
                    s.submit(&rec.desc, &shared.slave_oracle);
                    if slave.gpu_lost.get() {
                        // This Exec may have raced the GpuDown notice:
                        // hand back anything no local resource serves.
                        s.drain_unservable()
                    } else {
                        Vec::new()
                    }
                };
                for t in orphans {
                    let shared2 = shared.clone();
                    let ep2 = ep.clone();
                    process(("bounce:t", t.0)).daemon().spawn(async move {
                        send_msg(&shared2, &ep2, 0, "Failed", |rel| ClusterMsg::Failed {
                            task: t,
                            rel,
                        })
                        .await;
                    });
                }
                slave.bell.ring();
            }
            ClusterMsg::Ping => {
                // Renew the master's lease on this node. Detached and
                // unacknowledged by design: a silent node is the signal.
                let _ = ep.request_short_detached(0, ClusterMsg::Pong { node });
            }
            ClusterMsg::Ack { id } => {
                if let Some(r) = &shared.rel {
                    r.on_ack(id);
                }
            }
            ClusterMsg::Data => {}
            _ => unreachable!("slaves receive only Exec/Ping/Ack/Data"),
        }
    }
}

/// The planned node-kill: at the armed virtual instant the slave's
/// ground-truth dead flag goes up (its processes stop before their next
/// commit) and its NIC goes silent — messages to or from it still
/// occupy the wire but never deliver. Nothing on the master changes
/// here: detection is the lease protocol's job.
pub(crate) async fn node_kill(
    shared: Rc<RtShared>,
    fabric: Fabric<ClusterMsg>,
    node: NodeId,
    at: SimDuration,
) {
    if shared.done.wait_timeout(at).await {
        return; // program finished first: stand down
    }
    shared.slaves[node as usize].dead.set(true);
    fabric.kill_node(node);
    if let Some(faults) = &shared.faults {
        faults.note_injected(FaultClass::NodeLoss);
    }
    // Wake the node's parked processes so they observe the flag and
    // stop instead of sleeping through their own death.
    shared.slaves[node as usize].bell.ring();
}

/// The planned node-join: at the armed virtual instant the new node's
/// NIC comes on the wire, the master adopts its proxy resource (with
/// affinity tie-breaks restored), its heartbeat lease starts fresh, and
/// membership advances one epoch and the slices the new member now
/// owns (none with one shard) are re-homed onto it, registry first.
/// The whole master-side handshake is atomic in virtual time (one
/// critical section, no yields), so the rest of the machine observes
/// either the pre-join cluster or the fully joined one; the epoch's
/// handoff window opens and seals inside that same section.
pub(crate) async fn node_join(
    shared: Rc<RtShared>,
    fabric: Fabric<ClusterMsg>,
    node: NodeId,
    at: SimDuration,
) {
    if shared.done.wait_timeout(at).await {
        return; // program finished first: stand down
    }
    if shared.node_down(node) {
        return; // killed before it came up: it stays down
    }
    fabric.set_online(node);
    let mut regions_moved = 0u64;
    let mut bytes_moved = 0u64;
    {
        let mut guard = shared.master.borrow_mut();
        let m = &mut *guard;
        m.dispatch.join(&mut m.sched, node);
        if let Some(lease) = &shared.lease {
            // The joiner's lease begins now — silence before the join
            // was absence, not failure.
            lease.borrow_mut().track(node, now());
        }
        let mut ms = shared.membership.borrow_mut();
        ms.join(node);
        // Rebalance: every slice whose owner the new epoch changed
        // is re-homed, registry first. A slice whose copies are
        // busy (pinned or mid-transfer) simply stays put — the
        // registry remains authoritative either way, so resolution
        // keeps returning real bytes; this is an optimisation, not
        // a correctness requirement, unlike the drain's migration.
        for h in 0..shared.cfg.nodes as usize {
            for (data, size) in shared.mem.datas_homed_at(shared.hosts[h]) {
                let owner = ms.owner(data) as usize;
                if m.node_dead(owner as NodeId) {
                    continue; // crashed members never receive slices
                }
                let new_home = shared.hosts[owner];
                if new_home == shared.hosts[h] || !shared.coh.migrate_ready(data, new_home) {
                    continue;
                }
                let info = shared.mem.data_info(data);
                let Ok(new_alloc) = shared.mem.rehome_data(data, new_home) else {
                    continue; // new owner out of memory: stays put
                };
                let (r, b) = shared.coh.migrate_home(
                    data,
                    size,
                    (info.home_space, info.home_alloc),
                    new_home,
                    new_alloc,
                );
                regions_moved += r as u64;
                bytes_moved += b;
            }
        }
        ms.seal();
    }
    shared.counters.update(|c| {
        c.nodes_joined += 1;
        c.regions_rebalanced += regions_moved;
        c.bytes_migrated += bytes_moved;
    });
    if let Some(tr) = &shared.tracer {
        tr.record(TraceEvent::Recovery { kind: "node_join", task: None, at: now() });
    }
    // Wake the joiner's parked workers and the master's dispatch loops:
    // there is a new node to feed.
    shared.slaves[node as usize].bell.ring();
    shared.announce(ALL_KINDS, true);
}

/// The planned node-drain — graceful elastic departure, the inverse of
/// [`node_join`]. No fault semantics: nothing is lost, nothing is
/// replayed. The state machine:
///
/// 1. **Quiesce** — withdraw the node's proxy so no new work is placed
///    on it (tasks only it could serve fail closed, as with a loss).
/// 2. **Drain** — wait until every task already dispatched there has
///    completed. A kill racing the drain abandons the protocol here:
///    the lease monitor's crash recovery owns the node from then on.
/// 3. **Flush** — write every dirty region cached on the node back to
///    its home over the modeled wire (the drain's data cost).
/// 4. **Re-home** — advance membership one epoch (opening the two-epoch
///    handoff window) and move every slice homed on the leaver to its
///    new owner, registry first — the master, with one shard. Busy
///    slices are retried on a short period and fail closed
///    ([`RunError::Exhausted`]) when the budget runs out — wrong bytes
///    are never served.
/// 5. **Depart** — seal the epoch, purge the node's spaces (anything
///    still stranded fails closed), retire its lease, and take it off
///    the wire.
pub(crate) async fn node_drain(
    shared: Rc<RtShared>,
    fabric: Fabric<ClusterMsg>,
    node: NodeId,
    at: SimDuration,
) {
    if shared.done.wait_timeout(at).await {
        return; // program finished first: stand down
    }
    // 1. Quiesce: no new dispatch to the leaver.
    {
        let mut guard = shared.master.borrow_mut();
        let m = &mut *guard;
        if m.node_dead(node) || m.dispatch.is_absent(node) || shared.node_down(node) {
            return; // already gone (killed, or never joined): nothing to drain
        }
        let orphans = m.dispatch.withdraw(&mut m.sched, node);
        if !orphans.is_empty() {
            drop(guard);
            abort_run(RunError::Exhausted {
                what: format!("placements for tasks only draining node {node} could serve"),
                attempts: orphans.len() as u32,
            });
            return;
        }
    }
    // The withdrawn proxy's queued work went to the global queue.
    shared.announce(ALL_KINDS, true);
    // 2. Drain in-flight work. Polled on a short virtual period: cheap
    // in events, and immune to completions that ring no bell.
    let poll = SimDuration::from_micros(50);
    loop {
        {
            let m = shared.master.borrow();
            if m.node_dead(node) || shared.node_down(node) {
                return; // killed mid-drain: crash recovery owns the node now
            }
            if m.dispatched[node as usize].is_empty() {
                break;
            }
        }
        let _ = delay(poll).await;
    }
    // 3. Flush dirty regions home. The withdrawn node runs no further
    // tasks, so no new dirty copy can appear behind the sweep.
    let mut bytes_moved = 0u64;
    for region in shared.coh.dirty_regions_at(&shared.node_spaces[node as usize]) {
        if shared.node_down(node) {
            return;
        }
        if shared.coh.flush_region(&*shared.exec, &region).await.is_err() {
            return;
        }
        bytes_moved += region.len;
    }
    // 4. Re-home every slice the leaver homes. The epoch advances
    // before any slice moves, so lookups that race the migration
    // resolve through the two-epoch window; each move is registry-first
    // and atomic in virtual time, so neither registry ever points at
    // bytes that are not there.
    {
        let m = shared.master.borrow();
        if m.node_dead(node) || shared.node_down(node) {
            return;
        }
        shared.membership.borrow_mut().drain(node);
    }
    let leaver_host = shared.hosts[node as usize];
    let mut regions_moved = 0u64;
    let mut attempts = 0u32;
    loop {
        let busy = {
            let m = shared.master.borrow();
            if m.node_dead(node) || shared.node_down(node) {
                return;
            }
            let mut busy = 0usize;
            for (data, size) in shared.mem.datas_homed_at(leaver_host) {
                let owner = shared.membership.borrow().owner(data);
                // A *crashed* member is invisible to the epoch map
                // (only joins and drains advance it). Never re-home
                // onto a dead node: the master adopts those slices.
                let owner = if m.node_dead(owner) { 0 } else { owner };
                let new_home = shared.hosts[owner as usize];
                if !shared.coh.migrate_ready(data, new_home) {
                    busy += 1;
                    continue;
                }
                let info = shared.mem.data_info(data);
                let new_alloc = match shared.mem.rehome_data(data, new_home) {
                    Ok(a) => a,
                    Err(e) => {
                        drop(m);
                        abort_run(RunError::Exhausted {
                            what: format!("re-homing {data:?} off draining node {node}: {e}"),
                            attempts: 1,
                        });
                        return;
                    }
                };
                let (r, b) = shared.coh.migrate_home(
                    data,
                    size,
                    (info.home_space, info.home_alloc),
                    new_home,
                    new_alloc,
                );
                regions_moved += r as u64;
                bytes_moved += b;
            }
            busy
        };
        if busy == 0 {
            break;
        }
        attempts += 1;
        if attempts > 64 {
            abort_run(RunError::Exhausted {
                what: format!("{busy} slices stayed busy while node {node} drained"),
                attempts,
            });
            return;
        }
        let _ = delay(poll).await;
    }
    // 5. Depart.
    {
        let mut m = shared.master.borrow_mut();
        if m.node_dead(node) || shared.node_down(node) {
            return;
        }
        shared.membership.borrow_mut().seal();
        let lost = shared.coh.purge_spaces(&shared.node_spaces[node as usize]);
        if !lost.is_empty() {
            drop(m);
            abort_run(RunError::Exhausted {
                what: format!("{} regions were still live on node {node} at departure", lost.len()),
                attempts: 1,
            });
            return;
        }
        let m = &mut *m;
        m.dispatch.retire(&m.sched, node);
        if let Some(lease) = &shared.lease {
            lease.borrow_mut().untrack(node);
        }
    }
    shared.slaves[node as usize].dead.set(true);
    fabric.set_offline(node);
    shared.counters.update(|c| {
        c.nodes_drained += 1;
        c.regions_rebalanced += regions_moved;
        c.bytes_migrated += bytes_moved;
    });
    if let Some(tr) = &shared.tracer {
        tr.record(TraceEvent::Recovery { kind: "node_drain", task: None, at: now() });
    }
    shared.slaves[node as usize].bell.ring();
    shared.announce(ALL_KINDS, true);
}

/// The master's lease monitor (armed-only): probes every live slave on
/// the heartbeat period, charges missed renewals, and hands nodes whose
/// lease expired to [`master_node_lost`].
pub(crate) async fn lease_monitor(shared: Rc<RtShared>, ep: AmEndpoint<ClusterMsg>) {
    let Some(lease) = &shared.lease else { return };
    let period = lease.borrow().config().period;
    loop {
        if shared.done.wait_timeout(period).await {
            return; // program finished: stand down
        }
        let dead = {
            let mut l = lease.borrow_mut();
            let before = l.missed();
            let dead = l.expired(now());
            shared.counters.update(|c| c.heartbeats_missed += l.missed() - before);
            dead
        };
        for node in dead {
            master_node_lost(&shared, node);
        }
        let mut any_live = false;
        for n in 1..shared.cfg.nodes {
            // Only tracked nodes are probed: an armed joiner has no
            // lease until it comes up, a drained node retired its lease
            // at departure — silence from either is not a failure.
            let live = {
                let l = lease.borrow();
                l.is_tracked(n) && !l.is_declared_dead(n)
            };
            if live {
                any_live = true;
                let _ = ep.request_short_detached(n, ClusterMsg::Ping);
            }
        }
        if !any_live {
            return;
        }
    }
}

/// Master-side whole-node loss, run at lease expiry — atomically in
/// virtual time (no yields), so the rest of the machine observes either
/// the pre-loss or the fully recovered state:
///
/// 1. withdraw the node's proxy resource (tasks only it could serve are
///    fail-closed [`RunError::Exhausted`]),
/// 2. re-home every task dispatched to it and not yet finished,
/// 3. abandon reliable exchanges aimed at it (parked senders resolve),
/// 4. purge its spaces from the coherence directory, and
/// 5. reconstruct regions whose latest version lived only there by
///    lineage re-execution ([`crate::lineage`]), rolling the version
///    back to the rebuilt point so re-homed writers re-commit on top.
pub(crate) fn master_node_lost(shared: &Rc<RtShared>, node: NodeId) {
    shared.counters.update(|c| c.nodes_lost += 1);
    if let Some(tr) = &shared.tracer {
        tr.record(TraceEvent::Recovery { kind: "node_lost", task: None, at: now() });
    }
    {
        let mut guard = shared.master.borrow_mut();
        let m = &mut *guard;
        m.dispatch.retire(&m.sched, node);
        let orphans = m.dispatch.withdraw(&mut m.sched, node);
        if !orphans.is_empty() {
            drop(guard);
            abort_run(RunError::Exhausted {
                what: format!("placements for tasks only lost node {node} could serve"),
                attempts: orphans.len() as u32,
            });
            return;
        }
        let stranded: Vec<TaskId> =
            std::mem::take(&mut m.dispatched[node as usize]).into_iter().collect();
        for t in stranded {
            m.graph.reset_running(t);
            let rec = m.records[&t].clone();
            m.sched.submit(&rec.desc, &shared.master_oracle);
        }
        if let Some(r) = &shared.rel {
            r.abandon_node(node);
        }
        let lost = shared.coh.purge_spaces(&shared.node_spaces[node as usize]);
        // Sharded control plane: the dead node may have *homed* part of
        // the data space. Re-home its shard onto the master — registry
        // first (so lineage replay targets the new home), then the
        // directory, which pulls the best surviving bytes into the new
        // home copy. No surviving copy, a coverage gap, or a busy copy
        // at the new home fails closed: wrong bytes are never served.
        let dead_host = shared.hosts[node as usize];
        for (data, size) in shared.mem.datas_homed_at(dead_host) {
            let new_alloc = match shared.mem.rehome_data(data, shared.hosts[0]) {
                Ok(a) => a,
                Err(e) => {
                    drop(guard);
                    abort_run(RunError::Exhausted {
                        what: format!("master memory re-homing shard of node {node}: {e}"),
                        attempts: 1,
                    });
                    return;
                }
            };
            if let Err(e) = shared.coh.rehome_data(data, size, shared.hosts[0], new_alloc) {
                drop(guard);
                abort_run(RunError::Exhausted {
                    what: format!("re-homing {data:?} off dead node {node}: {e}"),
                    attempts: 1,
                });
                return;
            }
        }
        if let Err(e) = crate::lineage::reconstruct(shared, m, &lost) {
            drop(guard);
            abort_run(e);
            return;
        }
    }
    shared.announce(ALL_KINDS, true);
}

/// Send one control message: reliably (park until the ack arrives,
/// retransmitting on timeout) when chaos is armed, as a plain
/// fire-and-forget active message otherwise.
async fn send_msg(
    shared: &Rc<RtShared>,
    ep: &AmEndpoint<ClusterMsg>,
    dst: NodeId,
    what: &str,
    make: impl Fn(Option<u64>) -> ClusterMsg,
) {
    match &shared.rel {
        Some(r) => {
            let _ = r
                .send_reliable(&shared.counters, what, ep.node(), dst, |id| {
                    ep.request_short(dst, make(Some(id)))
                })
                .await;
        }
        None => {
            let _ = ep.request_short(dst, make(None)).await;
        }
    }
}

/// Ack a received control message and report whether it is fresh
/// (first delivery). Duplicates are re-acked — the sender may have
/// missed the first ack — but must not be reprocessed.
fn ack_fresh(
    shared: &Rc<RtShared>,
    ep: &AmEndpoint<ClusterMsg>,
    src: NodeId,
    rel: Option<u64>,
) -> bool {
    let Some(id) = rel else { return true };
    let _ = ep.request_short_detached(src, ClusterMsg::Ack { id });
    shared.rel.as_ref().map(|r| r.should_process(id)).unwrap_or(true)
}

/// Device-kind check used by the submit path to validate task specs.
pub(crate) fn device_has_resource(cfg: &crate::config::RuntimeConfig, d: Device) -> bool {
    match d {
        Device::Smp => cfg.cpu_workers_per_node > 0,
        Device::Cuda => cfg.gpus_per_node > 0,
    }
}
