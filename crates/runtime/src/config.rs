//! Runtime configuration — the knobs the paper's evaluation sweeps.
//!
//! Every configuration axis of §IV is here: cache policy, scheduling
//! policy, slave-to-slave routing, presend depth, transfer/compute
//! overlap, prefetch, plus the platform shape (nodes, GPUs, specs).
//! Presets reproduce the paper's two testbeds.

use ompss_cudasim::GpuSpec;
use ompss_mem::Backing;
use ompss_net::FabricConfig;
use ompss_sched::Policy;
use ompss_sim::{FaultPlan, RunError, SimDuration};

pub use ompss_coherence::{CachePolicy, SlaveRouting};

/// Full configuration of a runtime instance.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Cluster nodes (1 = the multi-GPU single-node environment).
    pub nodes: u32,
    /// GPUs per node.
    pub gpus_per_node: u32,
    /// SMP worker threads per node (cores left after manager threads).
    pub cpu_workers_per_node: u32,
    /// GPU model.
    pub gpu_spec: GpuSpec,
    /// Override the GPU memory the cache may use (bytes). Defaults to
    /// the spec's capacity minus a small reserve. Fig. 8's memory-
    /// pressure study uses this.
    pub gpu_mem_override: Option<u64>,
    /// Host memory per node (bytes).
    pub host_mem: u64,
    /// Interconnect model.
    pub fabric: FabricConfig,
    /// Cache write policy (`nocache` / `wt` / `wb`).
    pub cache_policy: CachePolicy,
    /// Task scheduling policy (`bf` / `default` / `affinity`).
    pub sched_policy: Policy,
    /// Inter-slave transfer routing (`MtoS` / `StoS`).
    pub routing: SlaveRouting,
    /// Tasks present to a remote node beyond its resource count, so
    /// their input transfers overlap remote compute.
    pub presend: u32,
    /// Overlap PCIe transfers with GPU compute via pinned staging
    /// buffers (off by default, as in the paper).
    pub overlap: bool,
    /// Prefetch the next scheduled task's data right after a kernel
    /// launch.
    pub prefetch: bool,
    /// Real byte backing (validated runs) or phantom (paper-scale).
    pub backing: Backing,
    /// Record a Paraver-style execution trace (task intervals per
    /// resource, transfers per medium) into the run report.
    pub tracing: bool,
    /// Verification mode (`OMPSS_VERIFY`): record the regions task
    /// bodies actually touch, diff them against the declared clauses,
    /// run graph race lints over the observations, and sweep the
    /// coherence directory invariants after every operation. The
    /// findings land in [`crate::RunReport::verify`]. Zero-cost when
    /// off: the task hot path checks one `Option`.
    pub verify: bool,
    /// Scheduler tie-break perturbation seed (`OMPSS_SCHED_SEED`): `0`
    /// (default) keeps the deterministic FIFO tie-break; any other
    /// value permutes equal-priority scheduling decisions pseudo-
    /// randomly but reproducibly. The verify binary's schedule
    /// exploration reruns apps under several seeds and diffs results.
    pub sched_seed: u64,
    /// Times a failed task is re-executed before the run aborts with
    /// [`ompss_sim::RunError::Exhausted`].
    pub task_retry_budget: u32,
    /// Times an unacknowledged cluster message is retransmitted before
    /// the run aborts with [`ompss_sim::RunError::Exhausted`].
    pub am_retry_budget: u32,
    /// Armed chaos (`OMPSS_FAULT_RATE` / `OMPSS_FAULT_SEED`, or a
    /// hand-built plan: harnesses use [`FaultPlan::with_forced`] to pin
    /// one fault class deterministically instead of sweeping a rate).
    /// Same plan = the same faults at the same draws: it is plain data,
    /// and every run draws from a fresh stream of it. `None` (default)
    /// disables injection and the rate-driven recovery machinery — runs
    /// are bit- and time-identical to a build without it.
    pub faults: Option<FaultPlan>,
    /// Planned whole-node kill (`OMPSS_FAULT_NODE_LOSS`): slave node
    /// index and the virtual instant it dies. Arms the heartbeat/lease
    /// protocol and lineage retention; `None` (default) spawns none of
    /// that machinery.
    pub node_loss: Option<(u32, SimDuration)>,
    /// Planned mid-run node join (`OMPSS_NODE_JOIN`): slave node index
    /// and the virtual instant it comes up. The node starts absent —
    /// NIC offline, scheduler proxy out of service, no heartbeat lease
    /// — and at the instant the Fabric brings its NIC online, the
    /// scheduler adopts its proxy and, when a kill is armed too, the
    /// lease tracker starts its lease. The join opens a new membership epoch and rebalances
    /// moved slices onto the joiner (none with one shard). `None`
    /// (default) spawns none of the machinery.
    pub node_join: Option<(u32, SimDuration)>,
    /// Planned graceful drain (`OMPSS_NODE_DRAIN`): slave node index
    /// and the virtual instant it starts leaving. The node stops
    /// accepting tasks, finishes what it has, flushes and migrates its
    /// home/cached regions off (no fault semantics, no lineage), then
    /// departs. A drain interrupted by a kill falls back to crash
    /// recovery or fails closed. `None` (default) spawns none of the
    /// machinery.
    pub node_drain: Option<(u32, SimDuration)>,
    /// Control-plane shards (`OMPSS_SHARDS`, at least 1): the
    /// [`ompss_coherence::ShardMap`] partitions the `DataId` space into
    /// this many shards, and every run asks it for array homes and
    /// `for_each_block` owners. `1` (default) is the paper's flat
    /// master: the one shard is owned by node 0, so directory, homes
    /// and task generation all stay there. `n > 1` spreads array homes
    /// over shard-owner nodes, transfer sources resolve peer-to-peer,
    /// and `for_each_block` expands shard-locally through per-owner
    /// sub-masters.
    pub shards: u32,
}

impl RuntimeConfig {
    /// The paper's multi-GPU node: 2× Xeon E5440 (8 cores) with 4×
    /// Tesla S2050. One core per GPU is a manager thread; the caller
    /// picks how many GPUs to enable.
    pub fn multi_gpu(gpus: u32) -> Self {
        RuntimeConfig {
            nodes: 1,
            gpus_per_node: gpus,
            cpu_workers_per_node: 8u32.saturating_sub(gpus).max(1),
            gpu_spec: GpuSpec::tesla_s2050(),
            gpu_mem_override: None,
            host_mem: 16 << 30,
            // Single node: fabric unused but must exist.
            fabric: FabricConfig::qdr_infiniband(1),
            cache_policy: CachePolicy::WriteBack,
            sched_policy: Policy::Dependencies,
            routing: SlaveRouting::Direct,
            presend: 0,
            overlap: false,
            prefetch: false,
            backing: Backing::Real,
            tracing: false,
            verify: false,
            sched_seed: 0,
            task_retry_budget: 3,
            am_retry_budget: 8,
            faults: None,
            node_loss: None,
            node_join: None,
            node_drain: None,
            shards: 1,
        }
    }

    /// The paper's GPU cluster: up to 8 nodes, each 2× Xeon E5620
    /// (8 cores) + 1 GTX 480, QDR Infiniband.
    pub fn gpu_cluster(nodes: u32) -> Self {
        RuntimeConfig {
            nodes,
            gpus_per_node: 1,
            cpu_workers_per_node: 6,
            gpu_spec: GpuSpec::gtx_480(),
            gpu_mem_override: None,
            host_mem: 25 << 30,
            fabric: FabricConfig::qdr_infiniband(nodes),
            cache_policy: CachePolicy::WriteBack,
            sched_policy: Policy::Affinity,
            routing: SlaveRouting::Direct,
            presend: 0,
            overlap: true,
            prefetch: true,
            backing: Backing::Real,
            tracing: false,
            verify: false,
            sched_seed: 0,
            task_retry_budget: 3,
            am_retry_budget: 8,
            faults: None,
            node_loss: None,
            node_join: None,
            node_drain: None,
            shards: 1,
        }
    }

    /// Builder-style setters for the experiment sweeps.
    pub fn with_cache(mut self, p: CachePolicy) -> Self {
        self.cache_policy = p;
        self
    }

    /// Set the scheduling policy.
    pub fn with_sched(mut self, p: Policy) -> Self {
        self.sched_policy = p;
        self
    }

    /// Set inter-slave routing.
    pub fn with_routing(mut self, r: SlaveRouting) -> Self {
        self.routing = r;
        self
    }

    /// Set the presend depth.
    pub fn with_presend(mut self, n: u32) -> Self {
        self.presend = n;
        self
    }

    /// Enable/disable transfer–compute overlap.
    pub fn with_overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Enable/disable prefetch.
    pub fn with_prefetch(mut self, on: bool) -> Self {
        self.prefetch = on;
        self
    }

    /// Select phantom or real byte backing.
    pub fn with_backing(mut self, b: Backing) -> Self {
        self.backing = b;
        self
    }

    /// Cap the GPU memory visible to the cache.
    pub fn with_gpu_mem(mut self, bytes: u64) -> Self {
        self.gpu_mem_override = Some(bytes);
        self
    }

    /// Enable execution tracing (see [`crate::trace`]).
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Enable verification mode (see the field docs).
    pub fn with_verify(mut self, on: bool) -> Self {
        self.verify = on;
        self
    }

    /// Set the scheduler tie-break perturbation seed (0 = off).
    pub fn with_sched_seed(mut self, seed: u64) -> Self {
        self.sched_seed = seed;
        self
    }

    /// Arm chaos injection: fault `rate` drawn from the deterministic
    /// stream of `seed`. A zero rate leaves chaos unarmed.
    pub fn with_faults(mut self, seed: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0, 1]");
        self.faults = (rate > 0.0).then(|| FaultPlan::new(seed, rate));
        self
    }

    /// Set the per-task re-execution budget.
    pub fn with_task_retry_budget(mut self, n: u32) -> Self {
        self.task_retry_budget = n;
        self
    }

    /// Set the per-message retransmit budget.
    pub fn with_am_retry_budget(mut self, n: u32) -> Self {
        self.am_retry_budget = n;
        self
    }

    /// Arm a hand-built fault plan (see the field docs).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Arm a planned whole-node kill: slave `node` dies at `at` of
    /// virtual time. Also arms the heartbeat/lease machinery.
    pub fn with_node_loss(mut self, node: u32, at: SimDuration) -> Self {
        assert!(node > 0, "node 0 is the master; only slaves can be killed");
        self.node_loss = Some((node, at));
        self
    }

    /// Plan a node join: slave `node` starts the run absent and comes
    /// up at `at` of virtual time.
    pub fn with_node_join(mut self, node: u32, at: SimDuration) -> Self {
        assert!(node > 0, "node 0 is the master; only slaves can join");
        self.node_join = Some((node, at));
        self
    }

    /// Plan a graceful drain: slave `node` starts leaving at `at` of
    /// virtual time.
    pub fn with_node_drain(mut self, node: u32, at: SimDuration) -> Self {
        assert!(node > 0, "node 0 is the master; only slaves can drain");
        self.node_drain = Some((node, at));
        self
    }

    /// Shard the control plane into `n ≥ 1` shards (1 = the paper's
    /// flat master; see the field docs). Shards beyond the node count
    /// still work — several shards just wrap onto the same owner node.
    pub fn with_sharded_control(mut self, n: u32) -> Self {
        assert!(n > 0, "the control plane needs at least one shard");
        self.shards = n;
        self
    }

    /// Usable GPU cache capacity.
    pub fn gpu_cache_capacity(&self) -> u64 {
        self.gpu_mem_override.unwrap_or_else(|| {
            // Reserve ~5% for CUDA context and fragmentation.
            self.gpu_spec.mem_capacity - self.gpu_spec.mem_capacity / 20
        })
    }

    /// Apply `NX_ARGS`-style environment overrides, the way Nanos++ read
    /// its runtime options. Recognised variables:
    ///
    /// | variable | values |
    /// |---|---|
    /// | `OMPSS_SCHEDULE` | `bf`, `default`, `affinity` |
    /// | `OMPSS_CACHE_POLICY` | `nocache`, `wt`, `wb` |
    /// | `OMPSS_ROUTING` | `mtos`, `stos` |
    /// | `OMPSS_PRESEND` | integer depth |
    /// | `OMPSS_OVERLAP` / `OMPSS_PREFETCH` / `OMPSS_TRACE` | `0`/`1` |
    /// | `OMPSS_VERIFY` | `0`/`1` |
    /// | `OMPSS_SCHED_SEED` | integer seed (0 = off) |
    /// | `OMPSS_FAULT_RATE` | float in `[0, 1]` (0 = off) |
    /// | `OMPSS_FAULT_SEED` | integer seed of the fault stream (default 1) |
    /// | `OMPSS_TASK_RETRIES` / `OMPSS_AM_RETRIES` | integer budgets |
    /// | `OMPSS_FAULT_NODE_LOSS` | `node@micros` planned kill (e.g. `1@800`) |
    /// | `OMPSS_SHARDS` | control-plane shard count (default 1 = flat master) |
    /// | `OMPSS_NODE_JOIN` | `node@micros` planned join (e.g. `2@500`) |
    /// | `OMPSS_NODE_DRAIN` | `node@micros` planned drain (e.g. `1@800`) |
    ///
    /// A value that does not parse, or that a builder would reject (a
    /// fault rate outside `[0, 1]`, node 0 as a kill, join or drain
    /// target, zero shards), is a [`RunError::InvalidConfig`] naming the
    /// variable and the value: a typo silently ignored would invalidate
    /// an experiment.
    pub fn overridden_from_env(mut self) -> Result<Self, RunError> {
        let flag = |v: &str| match v {
            "1" | "true" | "on" => Some(true),
            "0" | "false" | "off" => Some(false),
            _ => None,
        };
        const INT: &str = "an integer";
        const FLAG: &str = "0|1";
        const NODE_AT: &str = "node@micros with node >= 1";
        let sched = Policy::ALL.map(|p| (p.chart_label(), p));
        from_env(&mut self.sched_policy, "OMPSS_SCHEDULE", &labels(&sched), |v| pick(&sched, v))?;
        let cache = CachePolicy::ALL.map(|c| (c.chart_label(), c));
        from_env(&mut self.cache_policy, "OMPSS_CACHE_POLICY", &labels(&cache), |v| {
            pick(&cache, v)
        })?;
        let routing = [("mtos", SlaveRouting::ViaMaster), ("stos", SlaveRouting::Direct)];
        from_env(&mut self.routing, "OMPSS_ROUTING", &labels(&routing), |v| pick(&routing, v))?;
        from_env(&mut self.presend, "OMPSS_PRESEND", INT, int)?;
        from_env(&mut self.overlap, "OMPSS_OVERLAP", FLAG, flag)?;
        from_env(&mut self.prefetch, "OMPSS_PREFETCH", FLAG, flag)?;
        from_env(&mut self.tracing, "OMPSS_TRACE", FLAG, flag)?;
        from_env(&mut self.verify, "OMPSS_VERIFY", FLAG, flag)?;
        from_env(&mut self.sched_seed, "OMPSS_SCHED_SEED", INT, int)?;
        // Setting either fault variable rebuilds the one plan from its
        // headline seed and rate (seed 1 when unarmed); a zero rate
        // disarms it.
        let (mut seed, mut rate) = self.faults.as_ref().map_or((1, 0.0), |p| (p.seed(), p.rate()));
        let rate_set = from_env(&mut rate, "OMPSS_FAULT_RATE", "a number in [0, 1]", |v| {
            v.parse().ok().filter(|r| (0.0..=1.0).contains(r))
        })?;
        let seed_set = from_env(&mut seed, "OMPSS_FAULT_SEED", INT, int)?;
        if rate_set || seed_set {
            self = self.with_faults(seed, rate);
        }
        from_env(&mut self.task_retry_budget, "OMPSS_TASK_RETRIES", INT, int)?;
        from_env(&mut self.am_retry_budget, "OMPSS_AM_RETRIES", INT, int)?;
        from_env(&mut self.node_loss, "OMPSS_FAULT_NODE_LOSS", NODE_AT, node_at)?;
        from_env(&mut self.shards, "OMPSS_SHARDS", "an integer >= 1", |v| {
            v.parse().ok().filter(|&n| n > 0)
        })?;
        from_env(&mut self.node_join, "OMPSS_NODE_JOIN", NODE_AT, node_at)?;
        from_env(&mut self.node_drain, "OMPSS_NODE_DRAIN", NODE_AT, node_at)?;
        Ok(self)
    }
}

/// Overwrite `field` with environment variable `name` parsed by
/// `parse` and return `true`; leave it and return `false` when the
/// variable is unset. A value `parse` rejects (or one that is not
/// Unicode) is an [`RunError::InvalidConfig`] naming the variable, the
/// value and what was `expected`.
fn from_env<T>(
    field: &mut T,
    name: &str,
    expected: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Result<bool, RunError> {
    let Some(raw) = std::env::var_os(name) else { return Ok(false) };
    *field = raw.to_str().and_then(parse).ok_or_else(|| RunError::InvalidConfig {
        what: format!("{name}={raw:?}: expected {expected}"),
    })?;
    Ok(true)
}

/// The labels of `choices`, as `a|b|c`.
fn labels<T>(choices: &[(&str, T)]) -> String {
    choices.iter().map(|c| c.0).collect::<Vec<_>>().join("|")
}

/// The choice labelled `v`.
fn pick<T: Copy>(choices: &[(&str, T)], v: &str) -> Option<T> {
    choices.iter().find(|c| c.0 == v).map(|c| c.1)
}

/// An integer of the field's width.
fn int<T: std::str::FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

/// A planned membership event, `node@micros`, aimed at a slave.
fn node_at(v: &str) -> Option<Option<(u32, SimDuration)>> {
    let (node, micros) = v.split_once('@')?;
    let node = node.parse().ok().filter(|&n: &u32| n > 0)?;
    Some(Some((node, SimDuration::from_micros(micros.parse().ok()?))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_platforms() {
        let m = RuntimeConfig::multi_gpu(4);
        assert_eq!(m.nodes, 1);
        assert_eq!(m.gpus_per_node, 4);
        assert_eq!(m.gpu_spec.name, "Tesla S2050");
        let c = RuntimeConfig::gpu_cluster(8);
        assert_eq!(c.nodes, 8);
        assert_eq!(c.gpus_per_node, 1);
        assert_eq!(c.gpu_spec.name, "GTX 480");
    }

    #[test]
    fn builders_compose() {
        let c = RuntimeConfig::gpu_cluster(4)
            .with_cache(CachePolicy::NoCache)
            .with_sched(Policy::BreadthFirst)
            .with_routing(SlaveRouting::ViaMaster)
            .with_presend(2)
            .with_overlap(false)
            .with_prefetch(false)
            .with_gpu_mem(1 << 20);
        assert_eq!(c.cache_policy, CachePolicy::NoCache);
        assert_eq!(c.presend, 2);
        assert_eq!(c.gpu_cache_capacity(), 1 << 20);
    }

    #[test]
    fn default_gpu_capacity_reserves_headroom() {
        let c = RuntimeConfig::gpu_cluster(1);
        assert!(c.gpu_cache_capacity() < c.gpu_spec.mem_capacity);
        assert!(c.gpu_cache_capacity() > c.gpu_spec.mem_capacity / 2);
    }
}
