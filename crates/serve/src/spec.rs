//! Job specifications: what a client asks the daemon to simulate.
//!
//! A spec arrives as one JSON object naming an application, a topology,
//! runtime knobs (scheduler seed, fault coordinates) and service
//! parameters (priority, deadline, retry budget). Parsing is strict —
//! unknown apps, out-of-range priorities and malformed fields reject
//! the job with a structured error before it ever touches the queue, so
//! a bad client cannot cost the daemon anything but the parse.

use std::fmt;

use ompss_apps::validation;
use ompss_json::Json;
use ompss_runtime::RuntimeConfig;

/// Highest admissible base priority (priorities run 0..=9; higher runs
/// first).
pub const PRIORITY_MAX: u8 = 9;

/// Default base priority for specs that do not set one.
pub const PRIORITY_DEFAULT: u8 = 4;

/// Ceiling on a spec's retry budget — a client cannot buy unbounded
/// re-runs.
pub const RETRIES_MAX: u32 = 8;

/// Where a job runs: the paper's two topology families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One node with `gpus` GPUs.
    MultiGpu(u32),
    /// A cluster of `nodes` single-GPU nodes.
    Cluster(u32),
}

/// A parsed, validated job request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Which application to run (validation scale), from
    /// [`validation::APPS`].
    pub app: &'static str,
    /// Simulated hardware to run it on.
    pub topology: Topology,
    /// Base priority, `0..=`[`PRIORITY_MAX`]; higher pops first.
    pub priority: u8,
    /// Host-time deadline in milliseconds from admission; a job still
    /// queued (or between retry attempts) past it is terminated with
    /// `deadline_exceeded`.
    pub deadline_ms: Option<u64>,
    /// Re-runs allowed after a *retryable* failure (see
    /// [`ompss_runtime::RunError::is_retryable`]), `0..=`[`RETRIES_MAX`].
    pub retries: u32,
    /// Scheduler tie-break seed override.
    pub sched_seed: Option<u64>,
    /// Fault-injection coordinates; faults are armed when `rate > 0`.
    pub fault_seed: u64,
    /// Fault rate in `[0, 1)`; `0.0` (default) runs fault-free.
    pub fault_rate: f64,
    /// Opaque client tag echoed in every response about this job.
    pub tag: Option<String>,
}

/// Why a spec failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad job spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn bad(msg: impl Into<String>) -> SpecError {
    SpecError(msg.into())
}

fn u64_field(j: &Json, key: &str) -> Result<Option<u64>, SpecError> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::U64(v)) => Ok(Some(*v)),
        Some(other) => {
            Err(bad(format!("field '{key}' must be an unsigned integer, got {other:?}")))
        }
    }
}

fn f64_field(j: &Json, key: &str) -> Result<Option<f64>, SpecError> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::F64(v)) => Ok(Some(*v)),
        Some(Json::U64(v)) => Ok(Some(*v as f64)),
        Some(other) => Err(bad(format!("field '{key}' must be a number, got {other:?}"))),
    }
}

fn str_field<'a>(j: &'a Json, key: &str) -> Result<Option<&'a str>, SpecError> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.as_str())),
        Some(other) => Err(bad(format!("field '{key}' must be a string, got {other:?}"))),
    }
}

impl JobSpec {
    /// Parse and validate a spec from its JSON object.
    pub fn from_json(j: &Json) -> Result<JobSpec, SpecError> {
        if !matches!(j, Json::Obj(_)) {
            return Err(bad("spec must be a JSON object"));
        }
        let app_name = str_field(j, "app")?.ok_or_else(|| bad("missing required field 'app'"))?;
        let app = validation::app(app_name).map_err(bad)?;

        let topology = match str_field(j, "topology")?.unwrap_or("multi_gpu") {
            "multi_gpu" => {
                let gpus = u64_field(j, "gpus")?.unwrap_or(2);
                if !(1..=64).contains(&gpus) {
                    return Err(bad(format!("'gpus' must be in 1..=64, got {gpus}")));
                }
                Topology::MultiGpu(gpus as u32)
            }
            "cluster" => {
                let nodes = u64_field(j, "nodes")?.unwrap_or(2);
                if !(2..=64).contains(&nodes) {
                    return Err(bad(format!("'nodes' must be in 2..=64, got {nodes}")));
                }
                Topology::Cluster(nodes as u32)
            }
            other => {
                return Err(bad(format!(
                    "unknown topology '{other}'; expected 'multi_gpu' or 'cluster'"
                )))
            }
        };

        let priority = u64_field(j, "priority")?.unwrap_or(PRIORITY_DEFAULT as u64);
        if priority > PRIORITY_MAX as u64 {
            return Err(bad(format!("'priority' must be in 0..={PRIORITY_MAX}, got {priority}")));
        }
        let retries = u64_field(j, "retries")?.unwrap_or(0);
        if retries > RETRIES_MAX as u64 {
            return Err(bad(format!("'retries' must be in 0..={RETRIES_MAX}, got {retries}")));
        }
        let fault_rate = f64_field(j, "fault_rate")?.unwrap_or(0.0);
        if !(0.0..1.0).contains(&fault_rate) {
            return Err(bad(format!("'fault_rate' must be in [0, 1), got {fault_rate}")));
        }

        Ok(JobSpec {
            app,
            topology,
            priority: priority as u8,
            deadline_ms: u64_field(j, "deadline_ms")?,
            retries: retries as u32,
            sched_seed: u64_field(j, "sched_seed")?,
            fault_seed: u64_field(j, "fault_seed")?.unwrap_or(1),
            fault_rate,
            tag: str_field(j, "tag")?.map(str::to_string),
        })
    }

    /// Parse a spec from JSON text.
    pub fn parse(text: &str) -> Result<JobSpec, SpecError> {
        let j = Json::parse(text).map_err(|e| bad(e.to_string()))?;
        JobSpec::from_json(&j)
    }

    /// The runtime configuration for attempt number `attempt` (0-based).
    ///
    /// When faults are armed, each retry bumps the fault seed by the
    /// attempt index: the re-run explores different fault coordinates —
    /// the whole point of retrying a deterministic simulation — while
    /// the `(spec, attempt)` pair still names the run exactly, so any
    /// attempt replays bit-for-bit.
    pub fn config(&self, attempt: u32) -> RuntimeConfig {
        let mut cfg = match self.topology {
            Topology::MultiGpu(gpus) => RuntimeConfig::multi_gpu(gpus),
            Topology::Cluster(nodes) => RuntimeConfig::gpu_cluster(nodes),
        };
        if let Some(seed) = self.sched_seed {
            cfg = cfg.with_sched_seed(seed);
        }
        cfg.with_faults(self.fault_seed.wrapping_add(attempt as u64), self.fault_rate)
    }

    /// The spec as JSON (echoed in admission responses and used by the
    /// soak harness to re-run a job directly).
    pub fn to_json(&self) -> Json {
        let mut j = Json::object().field("app", self.app);
        match self.topology {
            Topology::MultiGpu(g) => {
                j = j.field("topology", "multi_gpu").field("gpus", g as u64);
            }
            Topology::Cluster(n) => {
                j = j.field("topology", "cluster").field("nodes", n as u64);
            }
        }
        j = j.field("priority", self.priority as u64).field("retries", self.retries as u64);
        if let Some(d) = self.deadline_ms {
            j = j.field("deadline_ms", d);
        }
        if let Some(s) = self.sched_seed {
            j = j.field("sched_seed", s);
        }
        if self.fault_rate > 0.0 {
            j = j.field("fault_seed", self.fault_seed).field("fault_rate", self.fault_rate);
        }
        if let Some(tag) = &self.tag {
            j = j.field("tag", tag.as_str());
        }
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_spec_fills_defaults() {
        let s = JobSpec::parse(r#"{"app": "stream"}"#).expect("minimal spec parses");
        assert_eq!(s.app, "stream");
        assert_eq!(s.topology, Topology::MultiGpu(2));
        assert_eq!(s.priority, PRIORITY_DEFAULT);
        assert_eq!(s.retries, 0);
        assert_eq!(s.fault_rate, 0.0);
        assert!(s.deadline_ms.is_none());
    }

    #[test]
    fn full_spec_round_trips_through_its_json() {
        let text = r#"{"app":"matmul","topology":"cluster","nodes":3,"priority":7,
                       "deadline_ms":500,"retries":2,"sched_seed":5,
                       "fault_seed":9,"fault_rate":0.05,"tag":"t1"}"#;
        let s = JobSpec::parse(text).expect("full spec parses");
        assert_eq!(s.topology, Topology::Cluster(3));
        assert_eq!(s.priority, 7);
        assert_eq!(s.deadline_ms, Some(500));
        let again = JobSpec::from_json(&s.to_json()).expect("echoed spec re-parses");
        assert_eq!(again, s);
    }

    #[test]
    fn bad_specs_reject_with_the_offending_field() {
        for (text, needle) in [
            (r#"{"topology":"cluster"}"#, "'app'"),
            (r#"{"app":"nosuch"}"#, "unknown app"),
            (r#"{"app":"stream","topology":"ring"}"#, "unknown topology"),
            (r#"{"app":"stream","priority":10}"#, "'priority'"),
            (r#"{"app":"stream","retries":99}"#, "'retries'"),
            (r#"{"app":"stream","fault_rate":1.5}"#, "'fault_rate'"),
            (r#"{"app":"stream","priority":"high"}"#, "'priority'"),
            (r#"[1,2]"#, "object"),
        ] {
            let e = JobSpec::parse(text).expect_err(text);
            assert!(e.to_string().contains(needle), "{text}: {e}");
        }
    }

    #[test]
    fn retry_attempts_explore_distinct_fault_seeds() {
        let s = JobSpec::parse(r#"{"app":"stream","fault_seed":10,"fault_rate":0.1}"#).unwrap();
        let seed = |attempt| s.config(attempt).faults.map(|p| p.seed());
        assert_eq!(seed(0), Some(10));
        assert_eq!(seed(2), Some(12));
        // Fault-free specs never arm the plan, whatever the attempt.
        let quiet = JobSpec::parse(r#"{"app":"stream"}"#).unwrap();
        assert!(quiet.config(3).faults.is_none());
    }
}
