//! The public runtime API: build a machine from a [`RuntimeConfig`],
//! run an OmpSs program against it, and collect a [`RunReport`].
//!
//! The user program is an `async` closure receiving an [`Omp`] handle —
//! the programming model surface: allocate arrays, submit tasks built
//! with [`TaskSpec`](crate::TaskSpec), and synchronise with
//! `taskwait().await`. The same program runs unchanged on one GPU, a
//! multi-GPU node, or a cluster of GPU nodes — only the config differs
//! (the paper's central productivity claim).

use std::cell::{Cell, RefCell};
use std::future::Future;
use std::marker::PhantomData;
use std::ops::Range;
use std::rc::Rc;

use ompss_coherence::{CachePolicy, Coherence, CoherenceStats, MembershipEpochs, Topology};
use ompss_core::{TaskGraph, TaskId};
use ompss_cudasim::{GpuDevice, GpuStats, PinnedPool};
use ompss_json::{Json, ToJson};
use ompss_mem::{DataId, FxHashMap, MemoryManager, Region, Scalar, SpaceId, SpaceKind};
use ompss_net::{AmNet, AmStats, NetStats};
use ompss_sched::{Dispatcher, ResourceId, ResourceInfo, ResourceKind, SchedStats, Scheduler};
use ompss_sim::{
    delay, now, process, Bell, DeviceFuse, FaultClass, FaultPlan, FaultStats, FaultStream, Latch,
    RunError, Signal, Sim, SimDuration, SimTime,
};

use crate::config::RuntimeConfig;
use crate::engine::{
    comm_thread, device_has_resource, gpu_manager, kinds_of, lease_monitor, master_dispatcher,
    node_drain, node_join, node_kill, slave_dispatcher, smp_worker, Home, MasterState, RtShared,
    SlaveState, SpanOracle,
};
use crate::exec::RtExec;
use crate::lineage::LINEAGE_DEPTH_BUDGET;
use crate::recover::Reliability;
use crate::stats::{CounterSnapshot, Counters};
use crate::task::TaskSpec;
use crate::trace::{TraceEvent, Tracer};
use crate::verify::{VerifyData, VerifySink};

// Everything a run owns stays on its simulation thread; what enters and
// leaves it crosses threads (sweeps and the job server run jobs on
// worker threads), so the config and the report must stay `Send`, and
// the config — plain data that sweep threads share by reference —
// `Sync` too.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<RuntimeConfig>();
    assert_sync::<RuntimeConfig>();
    assert_send::<RunReport>();
};

/// Pinned host staging pool per node (bytes), drawn on when `overlap`
/// is on.
const PINNED_POOL: u64 = 2 << 30;

/// Virtual time a task submission costs the submitting process: the
/// runtime's task-creation bookkeeping.
const TASK_OVERHEAD: SimDuration = SimDuration::from_micros(5);

/// Measured outcome of a run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual time from program start to the end of the user closure
    /// (including its implicit final `taskwait`).
    pub elapsed: SimDuration,
    /// Absolute end time of the program.
    pub makespan: SimTime,
    /// Tasks executed.
    pub tasks: u64,
    /// Fabric traffic.
    pub net: NetStats,
    /// Active-message counts by wire kind (short/long).
    pub am: AmStats,
    /// Coherence activity.
    pub coherence: CoherenceStats,
    /// Master scheduler decisions.
    pub sched: SchedStats,
    /// Per-GPU device counters, `(name, stats)`, sorted by name.
    pub gpus: Vec<(String, GpuStats)>,
    /// The always-on runtime counter registry: per-resource busy time,
    /// bytes by medium, AM counts by protocol kind.
    pub counters: CounterSnapshot,
    /// DES events processed (a determinism fingerprint).
    pub events: u64,
    /// Distinct virtual-clock advances in the DES kernel.
    pub clock_advances: u64,
    /// Host wall-clock nanoseconds the DES kernel spent running this
    /// program. **Not deterministic** — it varies run to run and host
    /// to host, so [`ToJson`] leaves it out; use [`Self::events_per_sec`]
    /// or read it directly for wall-clock reporting (the benchmark's
    /// `sim.host_s` and `sim.ns_per_event`).
    pub host_ns: u64,
    /// Wakeups the kernel's dedup fast path skipped (they could only
    /// ever have popped stale). Zero under `OMPSS_SIM_NO_FASTPATH=1`;
    /// excluded from the JSON report for that reason.
    pub wakes_coalesced: u64,
    /// Execution trace, when [`RuntimeConfig::tracing`] was enabled.
    pub trace: Option<Vec<TraceEvent>>,
    /// Verification evidence, when [`RuntimeConfig::verify`] was
    /// enabled: per-task observed accesses, graph lints, and races
    /// among the observations. The `ompss-verify` crate turns this
    /// into findings.
    pub verify: Option<VerifyData>,
    /// Injection tallies of the armed fault plan; `None` in fault-free
    /// runs.
    pub faults: Option<FaultStats>,
}

impl RunReport {
    /// Per-resource utilisation from the always-on counters:
    /// `(node, name, tasks, busy_ns, busy/makespan)`.
    pub fn utilisation(&self) -> Vec<(u32, String, u64, u64, f64)> {
        self.counters.utilisation(self.makespan.as_nanos())
    }

    /// Host throughput of the simulation that produced this report:
    /// DES events per host second. Like [`Self::host_ns`] this is a
    /// wall-clock measurement, not a deterministic field.
    pub fn events_per_sec(&self) -> f64 {
        if self.host_ns == 0 {
            return 0.0;
        }
        self.events as f64 / (self.host_ns as f64 / 1e9)
    }
}

impl ToJson for RunReport {
    fn to_json(&self) -> Json {
        let mut gpus = Json::array();
        for (name, g) in &self.gpus {
            gpus.push(
                Json::object()
                    .field("name", name.as_str())
                    .field("kernels", g.kernels)
                    .field("kernel_time_ns", g.kernel_time.as_nanos())
                    .field("h2d_copies", g.h2d_copies)
                    .field("h2d_bytes", g.h2d_bytes)
                    .field("d2h_copies", g.d2h_copies)
                    .field("d2h_bytes", g.d2h_bytes)
                    .field("pinned_bytes", g.pinned_bytes)
                    .field("pageable_bytes", g.pageable_bytes)
                    .field("copy_time_ns", g.copy_time.as_nanos()),
            );
        }
        let mut utilisation = Json::array();
        for (node, name, tasks, busy_ns, u) in self.utilisation() {
            utilisation.push(
                Json::object()
                    .field("node", node)
                    .field("name", name)
                    .field("tasks", tasks)
                    .field("busy_ns", busy_ns)
                    .field("utilisation", u),
            );
        }
        let mut j = Json::object()
            .field("elapsed_ns", self.elapsed.as_nanos())
            .field("makespan_ns", self.makespan.as_nanos())
            .field("tasks", self.tasks)
            .field(
                "net",
                Json::object()
                    .field("bytes_total", self.net.bytes_total)
                    .field("messages", self.net.messages)
                    .field("tx_bytes", self.net.tx_bytes.as_slice())
                    .field("rx_bytes", self.net.rx_bytes.as_slice())
                    .field("master_link_bytes", self.net.master_link_bytes())
                    .field("slave_link_bytes", self.net.slave_link_bytes())
                    .field("am_shorts", self.am.shorts)
                    .field("am_longs", self.am.longs)
                    .field("am_long_payload_bytes", self.am.long_payload_bytes),
            )
            .field(
                "coherence",
                Json::object()
                    .field("hits", self.coherence.hits)
                    .field("misses", self.coherence.misses)
                    .field("transfers", self.coherence.transfers)
                    .field("bytes_moved", self.coherence.bytes_moved)
                    .field("pcie_bytes", self.coherence.pcie_bytes)
                    .field("net_bytes", self.coherence.net_bytes)
                    .field("demand_bytes", self.coherence.demand_bytes)
                    .field("prefetch_bytes", self.coherence.prefetch_bytes)
                    .field("presend_bytes", self.coherence.presend_bytes)
                    .field("push_bytes", self.coherence.push_bytes)
                    .field("flush_bytes", self.coherence.flush_bytes)
                    .field("writebacks", self.coherence.writebacks)
                    .field("writeback_bytes", self.coherence.writeback_bytes)
                    .field("evictions", self.coherence.evictions),
            )
            .field(
                "sched",
                Json::object()
                    .field("local_hits", self.sched.local_hits)
                    .field("global_hits", self.sched.global_hits)
                    .field("steals", self.sched.steals)
                    .field("successor_hits", self.sched.successor_hits)
                    .field("submitted", self.sched.submitted)
                    .field("max_queued", self.sched.max_queued),
            )
            .field("gpus", gpus)
            .field("counters", self.counters.to_json())
            .field("utilisation", utilisation)
            .field("events", self.events)
            .field("clock_advances", self.clock_advances);
        if let Some(f) = &self.faults {
            j = j.field(
                "faults",
                Json::object()
                    .field("injected", f.total())
                    .field("net_drop", f.count(FaultClass::NetDrop))
                    .field("net_dup", f.count(FaultClass::NetDup))
                    .field("net_delay", f.count(FaultClass::NetDelay))
                    .field("kernel_fail", f.count(FaultClass::KernelFail))
                    .field("copy_corrupt", f.count(FaultClass::CopyCorrupt))
                    .field("device_loss", f.count(FaultClass::DeviceLoss))
                    .field("sim_stall", f.count(FaultClass::SimStall))
                    .field("sim_timeout", f.count(FaultClass::SimTimeout))
                    .field("node_loss", f.count(FaultClass::NodeLoss)),
            );
        }
        j
    }
}

/// A handle to one submitted task, returned by [`Omp::submit`]. Lets a
/// program wait on that task alone (finer than a full `taskwait`).
#[derive(Clone)]
pub struct TaskHandle {
    id: TaskId,
    done: Signal,
}

impl TaskHandle {
    /// The runtime-assigned task id.
    pub fn id(&self) -> u64 {
        self.id.0
    }
}

/// A typed handle to a runtime-registered array living in the master's
/// host memory, addressed by dependence clauses through byte regions.
pub struct ArrayHandle<T: Scalar> {
    data: DataId,
    len: usize,
    _t: PhantomData<T>,
}

impl<T: Scalar> Clone for ArrayHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<T: Scalar> Copy for ArrayHandle<T> {}

impl<T: Scalar> ArrayHandle<T> {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The underlying data object.
    pub fn data(&self) -> DataId {
        self.data
    }

    /// Byte region covering elements `range` — what a dependence clause
    /// like `input([BS] &a[j])` evaluates to.
    pub fn region(&self, range: Range<usize>) -> Region {
        assert!(range.start < range.end && range.end <= self.len, "region out of bounds");
        let es = std::mem::size_of::<T>() as u64;
        Region::new(self.data, range.start as u64 * es, (range.end - range.start) as u64 * es)
    }

    /// Byte region covering the whole array.
    pub fn full(&self) -> Region {
        self.region(0..self.len)
    }
}

/// A bare handle in a dependence clause means "the whole array" —
/// `input(a)` reads like `input([N]a)` in the pragma syntax.
impl<T: Scalar> From<ArrayHandle<T>> for Region {
    fn from(h: ArrayHandle<T>) -> Region {
        h.full()
    }
}

impl<T: Scalar> From<&ArrayHandle<T>> for Region {
    fn from(h: &ArrayHandle<T>) -> Region {
        h.full()
    }
}

/// The OmpSs programming-model handle passed to the user program.
///
/// Clones share the same runtime; the handle is freely movable into
/// helper processes spawned by the program. Like the run it drives, it
/// stays on the simulation thread:
///
/// ```compile_fail
/// fn assert_send<T: Send>(_: &T) {}
/// ompss_runtime::Runtime::run(ompss_runtime::RuntimeConfig::multi_gpu(1), |omp| async move {
///     assert_send(&omp);
/// });
/// ```
#[derive(Clone)]
pub struct Omp {
    shared: Rc<RtShared>,
}

impl Omp {
    /// Current virtual time (for phase timing in harnesses).
    pub fn now(&self) -> SimTime {
        now()
    }

    /// The machine's memory manager (host-side initialisation and
    /// validation go straight to the home allocations).
    pub fn mem(&self) -> &MemoryManager {
        &self.shared.mem
    }

    /// The active configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.shared.cfg
    }

    /// Allocate a typed array in its home host memory: the owner of
    /// its shard under the current membership epoch — every node
    /// computes the owner locally from the
    /// [`ompss_coherence::ShardMap`], no directory round trip. With one
    /// shard (the default) that is always the master, the paper's flat
    /// plane.
    pub fn alloc_array<T: Scalar>(&self, len: usize) -> ArrayHandle<T> {
        let bytes = (len * std::mem::size_of::<T>()) as u64;
        let owner = self.shared.membership.borrow().owner(self.shared.mem.next_data_id());
        self.shared.counters.update(|c| c.shard_lookups += 1);
        let home = self.shared.hosts[owner as usize];
        let data = self.shared.mem.register_data(bytes, home).expect("home host out of memory");
        ArrayHandle { data, len, _t: PhantomData }
    }

    /// Write elements into an array's home copy (sequential host
    /// initialisation — zero virtual-time cost; the *placement* is what
    /// matters to the experiments).
    pub fn write_array<T: Scalar>(&self, h: &ArrayHandle<T>, offset: usize, values: &[T]) {
        let info = self.shared.mem.data_info(h.data);
        let es = std::mem::size_of::<T>();
        self.shared.mem.with_slice_mut::<T, _>(
            info.home_space,
            info.home_alloc,
            (offset * es) as u64,
            std::mem::size_of_val(values) as u64,
            |dst| dst.copy_from_slice(values),
        );
    }

    /// Read elements from an array's home copy (call after a flushing
    /// `taskwait` for up-to-date values). Returns `None` under phantom
    /// backing.
    pub fn read_array<T: Scalar>(&self, h: &ArrayHandle<T>, range: Range<usize>) -> Option<Vec<T>> {
        self.with_array(h, range, <[T]>::to_vec)
    }

    /// Run `f` over elements of an array's home copy in place, without
    /// copying them out (call after a flushing `taskwait` for
    /// up-to-date values). Returns `None`, and does not call `f`, under
    /// phantom backing. `f` runs under a borrow of the array, so it must
    /// not write that array through this `Omp`: that panics.
    pub fn with_array<T: Scalar, R>(
        &self,
        h: &ArrayHandle<T>,
        range: Range<usize>,
        f: impl FnOnce(&[T]) -> R,
    ) -> Option<R> {
        let info = self.shared.mem.data_info(h.data);
        let es = std::mem::size_of::<T>();
        self.shared.mem.with_slice::<T, _>(
            info.home_space,
            info.home_alloc,
            (range.start * es) as u64,
            ((range.end - range.start) * es) as u64,
            f,
        )
    }

    /// Submit a task (the lowered `#pragma omp task`). Charges the
    /// per-task creation overhead on the submitting process. Returns a
    /// [`TaskHandle`] for fine-grained synchronisation with
    /// [`taskwait_on_handle`](Omp::taskwait_on_handle); the handle may
    /// be dropped freely when only barrier-style `taskwait` is needed.
    pub async fn submit(&self, spec: TaskSpec) -> TaskHandle {
        assert!(
            device_has_resource(&self.shared.cfg, spec.device),
            "task '{}' targets a device kind with no resources in this configuration",
            spec.label
        );
        let _ = delay(TASK_OVERHEAD).await;
        self.latch().add(1);
        let (handle, kinds) = {
            let mut m = self.shared.master.borrow_mut();
            let id = TaskId(m.next_id);
            m.next_id += 1;
            let rec = Rc::new(spec.into_record(id));
            let handle = TaskHandle { id, done: rec.done.clone() };
            let ready = match m.graph.add_task_labeled(id, &rec.desc.label, &rec.desc.deps) {
                Ok(r) => r,
                Err(e) => panic!("invalid task submission: {e}"),
            };
            let mut kinds = [false, false];
            if ready {
                m.sched.submit(&rec.desc, &self.shared.master_oracle);
                kinds = kinds_of([&*rec]);
            }
            m.records.insert(id, rec);
            (handle, kinds)
        };
        self.shared.announce(kinds, false);
        handle
    }

    fn latch(&self) -> &Latch {
        &self.shared.latch
    }

    /// Wait for all submitted tasks and flush device data to the host
    /// (the default `#pragma omp taskwait`). All dirty regions are
    /// flushed concurrently — the non-blocking cache issues every
    /// write-back at once and waits for the set.
    pub async fn taskwait(&self) {
        self.latch().wait_zero().await;
        let dirty = self.shared.coh.dirty_regions();
        if dirty.is_empty() {
            return;
        }
        let latch = ompss_sim::Latch::new();
        latch.add(dirty.len() as u64);
        for region in dirty {
            let sh = self.shared.clone();
            let latch = latch.clone();
            process(("flush:D", region.data.0)).daemon().spawn(async move {
                let _ = sh.coh.flush_region(&*sh.exec, &region).await;
                latch.done();
            });
        }
        latch.wait_zero().await;
    }

    /// Wait for all submitted tasks without flushing device copies
    /// (`taskwait noflush`).
    pub async fn taskwait_noflush(&self) {
        self.latch().wait_zero().await;
    }

    /// Wait until one specific task (identified by the handle its
    /// submission returned) has completed. Does not flush; pair with
    /// [`taskwait_on`](Omp::taskwait_on) when the host must read the
    /// task's output.
    pub async fn taskwait_on_handle(&self, handle: &TaskHandle) {
        handle.done.wait().await;
    }

    /// Wait until the pending writer of `region` (if any) completes,
    /// then flush that region home (`taskwait on(...)`).
    pub async fn taskwait_on(&self, region: Region) {
        let writer = {
            let m = self.shared.master.borrow();
            m.graph.pending_writer(&region).map(|t| m.records[&t].clone())
        };
        if let Some(rec) = writer {
            rec.done.wait().await;
        }
        self.shared
            .coh
            .flush_region(&*self.shared.exec, &region)
            .await
            .expect("taskwait_on could not flush the region home");
    }

    /// Sleep for virtual time (harness pacing).
    pub async fn delay(&self, d: SimDuration) {
        let _ = delay(d).await;
    }

    /// Blocked worksharing: submit one task per `block`-sized chunk of
    /// `range`, built by `make` from the chunk's element range. This is
    /// the tasking equivalent of applying the `target` construct to a
    /// worksharing loop — the extension the paper lists as future work
    /// (§VII) — and what every blocked loop in the evaluation does by
    /// hand.
    /// The blocks are partitioned by the shard owner of the data each
    /// writes and expanded by per-owner *sub-master* processes, so the
    /// per-task creation overhead is paid in parallel across owners
    /// instead of serialising through one loop. When the master owns
    /// every block — always, with one shard — the caller submits them
    /// inline, as the paper's master loop does. Worksharing semantics
    /// are assumed: the blocks of one call are mutually independent
    /// (dependences on *earlier* submissions are preserved either way —
    /// every task of the call is in the graph before the call returns).
    pub async fn for_each_block(
        &self,
        range: Range<usize>,
        block: usize,
        make: impl Fn(Range<usize>) -> TaskSpec,
    ) {
        assert!(block > 0, "block size must be positive");
        // Route each block to the owner of the data it writes (its
        // first dependence when it writes nothing).
        let mut parts: Vec<Vec<TaskSpec>> =
            (0..self.shared.cfg.nodes).map(|_| Vec::new()).collect();
        let mut start = range.start;
        while start < range.end {
            let end = (start + block).min(range.end);
            let spec = make(start..end);
            let key = spec
                .deps
                .iter()
                .find(|a| a.kind.writes())
                .or_else(|| spec.deps.first())
                .map(|a| a.region.data)
                .unwrap_or(DataId(0));
            parts[self.shared.membership.borrow().owner(key) as usize].push(spec);
            start = end;
        }
        // Master-inline rule: when node 0 owns every block (always, with
        // one shard) the caller is the paper's serial master loop.
        if parts[1..].iter().all(Vec::is_empty) {
            for spec in std::mem::take(&mut parts[0]) {
                self.submit(spec).await;
            }
            return;
        }
        let latch = Latch::new();
        for (owner, specs) in parts.into_iter().enumerate() {
            if specs.is_empty() {
                continue;
            }
            latch.add(1);
            let omp = self.clone();
            let latch = latch.clone();
            let n = specs.len() as u64;
            process(format!("submaster:node{owner}")).daemon().spawn(async move {
                for spec in specs {
                    omp.submit(spec).await;
                }
                omp.shared.counters.update(|c| c.submaster_spawns += n);
                latch.done();
            });
        }
        latch.wait_zero().await;
    }
}

/// The runtime: builds the simulated machine and runs a program.
pub struct Runtime;

impl Runtime {
    /// Run `program` on a machine described by `cfg`; returns the
    /// measured report. Panics (mirroring a crashed run) if the program
    /// deadlocks or a process panics; use [`Runtime::try_run`] to
    /// handle those outcomes as values.
    pub fn run<F, Fut>(cfg: RuntimeConfig, program: F) -> RunReport
    where
        F: FnOnce(Omp) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        match Self::try_run(cfg, program) {
            Ok(report) => report,
            Err(RunError::Deadlock { blocked }) => {
                let names: Vec<&str> = blocked.iter().map(|p| p.name.as_str()).collect();
                panic!("runtime deadlock; stuck: {names:?}")
            }
            Err(RunError::ProcessPanic(name, msg)) => panic!("process '{name}' panicked: {msg}"),
            Err(e) => panic!("run failed: {e}"),
        }
    }

    /// Like [`Runtime::run`], but returns the failure as a value when
    /// the program deadlocks ([`RunError::Deadlock`], carrying the
    /// stuck process names) or a process panics
    /// ([`RunError::ProcessPanic`]). Harnesses that probe pathological
    /// schedules want the error, not a crash.
    pub fn try_run<F, Fut>(mut cfg: RuntimeConfig, program: F) -> Result<RunReport, RunError>
    where
        F: FnOnce(Omp) -> Fut + 'static,
        Fut: Future<Output = ()> + 'static,
    {
        // ---- configuration validation ---------------------------------
        // A self-contradictory config is rejected before any machine is
        // built — a structured error, not a mid-run surprise.
        cfg.check()?;

        // ---- chaos arming ---------------------------------------------
        // Every run draws from a fresh stream of its plan, so the same
        // config replays the same faults however often it runs.
        // Node loss alone arms the recovery machinery with a plan that
        // never fires on its own.
        let plan = cfg.faults.clone().or_else(|| cfg.node_loss.map(|_| FaultPlan::quiet(1)));
        let faults: Option<FaultStream> = plan.as_ref().map(FaultPlan::stream);
        // Rate-based recovery assumes a failed or lost device never
        // holds the only up-to-date copy of anything, so that chaos pins
        // write-back caching down to write-through (commit leaves device
        // copies clean). Node loss keeps the configured policy: lineage
        // reconstruction exists precisely to rebuild dirty data the dead
        // node took with it.
        if cfg.faults.is_some() && cfg.cache_policy == CachePolicy::WriteBack {
            cfg.cache_policy = CachePolicy::WriteThrough;
        }

        // ---- machine construction ------------------------------------
        let mem = MemoryManager::new(cfg.backing);
        let mut hosts = Vec::new();
        let mut gpu_spaces: Vec<Vec<SpaceId>> = Vec::new();
        for n in 0..cfg.nodes {
            let host =
                mem.add_space(format!("node{n}:host"), SpaceKind::Host(n), None, cfg.host_mem);
            hosts.push(host);
            let mut gs = Vec::new();
            for g in 0..cfg.gpus_per_node {
                gs.push(mem.add_space(
                    format!("node{n}:gpu{g}"),
                    SpaceKind::Gpu(n, g),
                    Some(host),
                    cfg.gpu_cache_capacity(),
                ));
            }
            gpu_spaces.push(gs);
        }

        let mut topo = Topology::new(hosts[0], cfg.routing);
        let mut gpus = FxHashMap::default();
        let mut node_of = FxHashMap::default();
        for n in 0..cfg.nodes as usize {
            node_of.insert(hosts[n], n as u32);
            for (g, &gs) in gpu_spaces[n].iter().enumerate() {
                topo.add_gpu(gs, hosts[n]);
                node_of.insert(gs, n as u32);
                gpus.insert(gs, GpuDevice::new(format!("node{n}:gpu{g}"), cfg.gpu_spec.clone()));
            }
        }

        if let Some(faults) = &faults {
            // One fuse across the whole machine: device-loss draws are
            // granted only while more than one GPU survives, so the
            // scheduler always has a CUDA-capable resource left.
            let fuse = DeviceFuse::new(gpus.len() as u64);
            for dev in gpus.values() {
                dev.set_fault_stream(faults.clone(), fuse.clone());
            }
        }

        let tracer = cfg.tracing.then(Tracer::new);
        let counters = Counters::new();
        let am: AmNet<crate::exec::ClusterMsg> = AmNet::new(cfg.fabric.clone());
        if let Some(faults) = &faults {
            am.set_fault_stream(faults.clone());
        }
        let rel = faults.as_ref().map(|_| {
            // Base ack timeout: a generous round trip on the configured
            // fabric; doubles per retransmission.
            Rc::new(Reliability::new(
                cfg.fabric.latency * 8 + SimDuration::from_micros(100),
                cfg.am_retry_budget,
            ))
        });
        let pinned: Vec<Rc<PinnedPool>> =
            (0..cfg.nodes).map(|_| Rc::new(PinnedPool::new(PINNED_POOL))).collect();
        // The fabric inside the AM net is what the executor shares.
        let exec = Rc::new(RtExec::new(
            mem.clone(),
            gpus.clone(),
            node_of.clone(),
            pinned,
            am_fabric(&am),
            cfg.overlap,
            tracer.clone(),
            counters.clone(),
        ));
        let coh = Rc::new(
            Coherence::new(mem.clone(), topo, cfg.cache_policy).with_validation(cfg.verify),
        );

        // ---- master scheduler and resources --------------------------
        let mut sched = Scheduler::new(cfg.sched_policy).with_seed(cfg.sched_seed);
        let mut span_key = FxHashMap::default();
        // Each node's SMP workers and GPU managers, registered in the
        // node's own scheduler (the master's for node 0).
        let mut node_res = vec![register_resources(&mut sched, &cfg, 0, hosts[0], &gpu_spaces[0])];
        // Node proxies, one per slave. All master-level resources share
        // one steal group: an idle node's proxy may re-route (steal) a
        // task still queued for another node — the load balancing the
        // paper's locality scheduler does. (Slaves never steal from each
        // other *after* dispatch; their schedulers are separate.)
        let mut proxy_res = vec![ompss_sched::ResourceId(usize::MAX)];
        for n in 1..cfg.nodes {
            proxy_res.push(sched.register(ResourceInfo {
                kind: ResourceKind::NodeProxy,
                space: hosts[n as usize],
                steal_group: 0,
            }));
            // The node's GPUs count toward its proxy, keyed by its host.
            for &gs in &gpu_spaces[n as usize] {
                span_key.insert(gs, hosts[n as usize]);
            }
        }
        // "Presend" dispatches work to a node before its resources go
        // idle: the cap per device kind is the resource count plus the
        // presend depth (presend 0 = exactly one task per resource in
        // flight).
        let caps = [cfg.cpu_workers_per_node + cfg.presend, cfg.gpus_per_node + cfg.presend];
        let mut dispatch = Dispatcher::new(&sched, &proxy_res[1..], caps, cfg.gpus_per_node);
        // An armed joiner starts absent: its proxy is out of service
        // (no placement, no affinity hints) until the planned join
        // adopts it back.
        if let Some((j, _)) = cfg.node_join {
            dispatch.arm_join(&mut sched, j);
        }
        let master_oracle = SpanOracle { coh: coh.clone(), span_key };

        // ---- slave schedulers ----------------------------------------
        let mut slaves = vec![SlaveState {
            sched: RefCell::new(Scheduler::new(cfg.sched_policy).with_seed(cfg.sched_seed)),
            bell: Bell::new(),
            gpu_lost: Cell::new(false),
            dead: Cell::new(false),
        }];
        for n in 1..cfg.nodes as usize {
            let mut s = Scheduler::new(cfg.sched_policy).with_seed(cfg.sched_seed);
            node_res.push(register_resources(&mut s, &cfg, n as u32, hosts[n], &gpu_spaces[n]));
            slaves.push(SlaveState {
                sched: RefCell::new(s),
                bell: Bell::new(),
                gpu_lost: Cell::new(false),
                dead: Cell::new(false),
            });
        }

        // Per-node purge set for node loss: losing a node loses its host
        // memory and every GPU attached to it.
        let node_spaces: Vec<Vec<SpaceId>> = (0..cfg.nodes as usize)
            .map(|n| {
                let mut v = vec![hosts[n]];
                v.extend(gpu_spaces[n].iter().copied());
                v
            })
            .collect();
        let mut graph = TaskGraph::new();
        if cfg.node_loss.is_some() {
            graph.enable_lineage(LINEAGE_DEPTH_BUDGET);
        }
        let shared = Rc::new(RtShared {
            cfg: cfg.clone(),
            mem: mem.clone(),
            coh: coh.clone(),
            exec,
            master: RefCell::new(MasterState {
                graph,
                sched,
                records: FxHashMap::default(),
                next_id: 0,
                dispatch,
                tasks_executed: 0,
                newly_scratch: Vec::new(),
                dispatched: vec![std::collections::BTreeSet::new(); cfg.nodes as usize],
            }),
            smp_bell: Bell::new(),
            gpu_bell: Bell::new(),
            comm_bell: Bell::new(),
            master_oracle,
            slaves,
            slave_oracle: SpanOracle { coh: coh.clone(), span_key: FxHashMap::default() },
            latch: Latch::new(),
            proxy_res,
            gpus: gpus.clone(),
            hosts: hosts.clone(),
            tracer: tracer.clone(),
            counters: counters.clone(),
            verify: cfg.verify.then(|| Rc::new(VerifySink::new())),
            faults: faults.clone(),
            rel,
            lease: cfg.node_loss.is_some().then(|| {
                /// The master probes every slave this often.
                const PERIOD: SimDuration = SimDuration::from_micros(200);
                /// Silence beyond this declares a slave dead; it spans
                /// several probes plus a network round trip, so one
                /// late probe never kills a live node.
                const WINDOW: SimDuration = SimDuration::from_micros(1000);
                const _: () = assert!(PERIOD.as_nanos() < WINDOW.as_nanos());
                // An armed joiner is not tracked from the start: its
                // lease begins at the join instant, so pre-join silence
                // is absence, not failure.
                let tracked: Vec<ompss_net::NodeId> =
                    (1..cfg.nodes).filter(|&n| cfg.node_join.is_none_or(|(j, _)| j != n)).collect();
                RefCell::new(ompss_net::LeaseTracker::new(
                    ompss_net::LeaseConfig { period: PERIOD, window: WINDOW },
                    tracked,
                    SimTime(0),
                ))
            }),
            // Epoch 0: every node but an armed joiner — a static
            // cluster is just epoch 0 of an elastic one.
            membership: RefCell::new(MembershipEpochs::new(
                cfg.shards,
                (0..cfg.nodes).filter(|&n| cfg.node_join.is_none_or(|(j, _)| j != n)).collect(),
            )),
            node_spaces,
            done: ompss_sim::Signal::new(),
        });

        // ---- processes ------------------------------------------------
        // Spawn order fixes process ids and event sequence numbers, so it
        // decides same-instant ordering: the master's resources, its comm
        // thread and dispatcher, then per slave its dispatcher and
        // resources.
        let sim = Sim::new();
        let mut node_res = node_res.into_iter();
        let master_res = node_res.next().expect("the master's resources");
        spawn_resources(&sim, &shared, Home { node: 0, ep: None }, master_res);
        if cfg.nodes > 1 {
            let sh = shared.clone();
            let ep = am.endpoint(0);
            sim.process("node0:comm").daemon().spawn(comm_thread(sh, ep));
            let sh = shared.clone();
            let ep = am.endpoint(0);
            sim.process("node0:dispatch").daemon().spawn(master_dispatcher(sh, ep));
            for (n, res) in (1..cfg.nodes).zip(node_res) {
                let sh = shared.clone();
                let ep = am.endpoint(n);
                sim.process(format!("node{n}:dispatch"))
                    .daemon()
                    .spawn(slave_dispatcher(sh, n, ep));
                spawn_resources(&sim, &shared, Home { node: n, ep: Some(am.endpoint(n)) }, res);
            }
            if cfg.node_loss.is_some() {
                let sh = shared.clone();
                let ep = am.endpoint(0);
                sim.process("node0:lease").daemon().spawn(lease_monitor(sh, ep));
            }
            if let Some((node, at)) = cfg.node_loss {
                let sh = shared.clone();
                let fabric = am.fabric_clone();
                sim.process("chaos:nodekill").daemon().spawn(node_kill(sh, fabric, node, at));
            }
            if let Some((node, at)) = cfg.node_join {
                // The joiner starts off the wire; its (already spawned)
                // service processes idle until the join feeds them.
                am.fabric_clone().set_offline(node);
                let sh = shared.clone();
                let fabric = am.fabric_clone();
                sim.process("elastic:join").daemon().spawn(node_join(sh, fabric, node, at));
            }
            if let Some((node, at)) = cfg.node_drain {
                let sh = shared.clone();
                let fabric = am.fabric_clone();
                sim.process("elastic:drain").daemon().spawn(node_drain(sh, fabric, node, at));
            }
        }

        // ---- main program ---------------------------------------------
        let result: Rc<RefCell<Option<(SimTime, SimTime)>>> = Rc::new(RefCell::new(None));
        let result2 = result.clone();
        let sh_main = shared.clone();
        sim.spawn("main", async move {
            let start = now();
            let omp = Omp { shared: sh_main };
            program(omp.clone()).await;
            // Implicit final taskwait with flush (end of OmpSs program).
            omp.taskwait().await;
            *result2.borrow_mut() = Some((start, now()));
            // Program over: release the chaos daemons (lease monitor,
            // planned kill) so their timers stop driving virtual time.
            omp.shared.done.set();
        });

        // Tag failures from armed-chaos runs with the fault coordinates
        // so a sweep harness can reproduce the exact run from the error
        // alone.
        let run = match (sim.run(), &plan) {
            (Ok(run), _) => run,
            (Err(e), Some(plan)) => return Err(e.with_fault_context(plan.seed(), plan.rate())),
            (Err(e), None) => return Err(e),
        };
        let faults = faults.map(|f| f.stats());
        if let Some(stats) = &faults {
            counters.update(|c| c.msgs_dropped += stats.count(FaultClass::NetDrop));
        }
        let (start, end) = result.borrow_mut().take().expect("main completed");
        let m = shared.master.borrow();
        let verify = shared.verify.as_ref().map(|sink| {
            let tasks = sink.take();
            let races = m.graph.races(&VerifySink::observations(&tasks));
            VerifyData { tasks, lints: m.graph.lints().to_vec(), races, phantom: !mem.is_real() }
        });
        // The report lists GPUs by name, not in the map's order, so
        // identical runs serialise byte-identically.
        let mut gpu_stats: Vec<(String, GpuStats)> =
            gpus.values().map(|d| (d.name().to_string(), d.stats())).collect();
        gpu_stats.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(RunReport {
            elapsed: end - start,
            makespan: end,
            tasks: m.tasks_executed,
            net: am.stats(),
            am: am.am_stats(),
            coherence: coh.stats(),
            sched: m.sched.stats(),
            gpus: gpu_stats,
            counters: counters.snapshot().with_shard_count(cfg.shards),
            events: run.events,
            clock_advances: run.clock_advances,
            host_ns: run.host_ns,
            wakes_coalesced: run.wakes_coalesced,
            trace: tracer.map(|t| t.take()),
            verify,
            faults,
        })
    }
}

/// A node's SMP workers and its GPU managers with their spaces.
type NodeResources = (Vec<ResourceId>, Vec<(ResourceId, SpaceId)>);

/// Register one node's SMP workers and GPU managers in `sched`, the
/// node's own scheduler. They steal only within the node.
fn register_resources(
    sched: &mut Scheduler,
    cfg: &RuntimeConfig,
    node: u32,
    host: SpaceId,
    gpu_spaces: &[SpaceId],
) -> NodeResources {
    let mut register =
        |kind, space| sched.register(ResourceInfo { kind, space, steal_group: node });
    let workers =
        (0..cfg.cpu_workers_per_node).map(|_| register(ResourceKind::SmpWorker, host)).collect();
    let gpus = gpu_spaces.iter().map(|&gs| (register(ResourceKind::GpuManager, gs), gs)).collect();
    (workers, gpus)
}

/// Spawn one node's SMP workers, then its GPU managers: the same loops
/// on every node, each with its own copy of the node's [`Home`].
fn spawn_resources(sim: &Sim, shared: &Rc<RtShared>, home: Home, (workers, gpus): NodeResources) {
    let n = home.node;
    for (i, res) in workers.into_iter().enumerate() {
        let (sh, h) = (shared.clone(), home.clone());
        sim.process(format!("node{n}:worker{i}")).daemon().spawn(smp_worker(sh, h, res));
    }
    for (res, gs) in gpus {
        let (sh, h) = (shared.clone(), home.clone());
        sim.process(format!("node{n}:gpumgr{}", gs.0)).daemon().spawn(gpu_manager(sh, h, res, gs));
    }
}

/// Extract the shared fabric from an AM network (they are the same
/// object; the executor sends `Data` messages on it so bulk transfers
/// contend with control traffic for NIC ports).
fn am_fabric(am: &AmNet<crate::exec::ClusterMsg>) -> ompss_net::Fabric<crate::exec::ClusterMsg> {
    am.fabric_clone()
}
