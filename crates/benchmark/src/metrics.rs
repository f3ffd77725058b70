//! The declared metrics and the recorder that collects their values.
//!
//! [`DECLARED`] is the single source of truth: `BENCHMARK.json` must list
//! exactly these names with these units, directions and bounds (a unit
//! test holds the two together), and the result line prints exactly the
//! declared metrics of the run's class — end-to-end for untraced runs,
//! per-layer for traced ones. Each entry also names the layer it
//! measures and the end-to-end metric and workload it should move, so a
//! change that claims a gain on one layer says in advance where to look.
//!
//! Workload-specific numbers that not every workload can produce (the
//! serve latency ladder, per-node-count event costs, the serial kernel
//! time) are *diagnostics*: printed with a `#` prefix and saved in the
//! result file, never in the result line.

use std::collections::BTreeMap;

use ompss_json::Json;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughputs, hit ratios).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]`, starting with a letter or digit.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Regression bound as a share of the parent's median; `Some` for
    /// end-to-end metrics, `None` for per-layer ones.
    pub bound: Option<f64>,
    /// The crate (or benchmark-side stage) the metric measures.
    pub layer: &'static str,
    /// The end-to-end metric and workload a change to this layer should
    /// move.
    pub moves: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, moves: &'static str) -> Metric {
    Metric { name, unit, better: Better::Lower, bound: Some(bound), layer: "end-to-end", moves }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    moves: &'static str,
) -> Metric {
    Metric { name, unit, better, bound: None, layer, moves }
}

use Better::{Higher, Lower};

const WALL_PAPER: &str = "wall_s on paper_suite";
const WALL_WS: &str = "wall_s on weak_scale";
const WALL_ALL_SIM: &str = "wall_s on paper_suite and weak_scale";
const WALL_KERNELS: &str = "wall_s on real_kernels";
const SERVE: &str = "wall_s and p50_ms on serve_open";
const MODEL: &str = "none unless the model changes";

/// Every metric the benchmark reports, end-to-end first.
pub const DECLARED: &[Metric] = &[
    // ---- end to end (untraced runs) --------------------------------
    e2e("setup_s", "s", 0.25, "-"),
    e2e("wall_s", "s", 0.25, "-"),
    e2e("p50_ms", "ms", 0.25, "-"),
    e2e("peak_rss_mb", "MB", 0.25, "-"),
    // ---- sim: the DES executor --------------------------------------
    layer("sim.delay_ns_per_event", "ns", Lower, "sim", WALL_ALL_SIM),
    layer("sim.pingpong_ns_per_event", "ns", Lower, "sim", WALL_WS),
    layer("sim.spawn_ns_per_process", "ns", Lower, "sim", "setup_s on weak_scale"),
    layer("sim.events", "count", Lower, "sim", MODEL),
    layer("sim.clock_advances", "count", Lower, "sim", MODEL),
    layer("sim.wakes_coalesced", "count", Higher, "sim", WALL_WS),
    layer("sim.host_s", "s", Lower, "sim", WALL_ALL_SIM),
    layer("sim.ns_per_event", "ns", Lower, "sim", WALL_ALL_SIM),
    layer("sim.ns_per_event.max_nodes", "ns", Lower, "sim", WALL_WS),
    // ---- core: the task graph ---------------------------------------
    layer("core.add_task_ns", "ns", Lower, "core", WALL_PAPER),
    layer("core.add_complete_ns", "ns", Lower, "core", WALL_PAPER),
    layer("core.tasks", "count", Lower, "core", MODEL),
    // ---- sched -------------------------------------------------------
    layer("sched.submit_next_ns.bf", "ns", Lower, "sched", WALL_PAPER),
    layer("sched.submit_next_ns.default", "ns", Lower, "sched", WALL_PAPER),
    layer("sched.submit_next_ns.affinity", "ns", Lower, "sched", WALL_PAPER),
    layer("sched.submit_next_ns.affinity_r256", "ns", Lower, "sched", WALL_WS),
    layer("sched.submitted", "count", Lower, "sched", MODEL),
    layer("sched.steals", "count", Lower, "sched", MODEL),
    layer("sched.max_queued", "count", Lower, "sched", MODEL),
    // ---- coherence ---------------------------------------------------
    layer("coherence.hit_ns", "ns", Lower, "coherence", WALL_PAPER),
    layer("coherence.miss_ns", "ns", Lower, "coherence", WALL_PAPER),
    layer("coherence.shard_owner_ns", "ns", Lower, "coherence", WALL_WS),
    layer("coherence.hits", "count", Higher, "coherence", MODEL),
    layer("coherence.misses", "count", Lower, "coherence", MODEL),
    layer("coherence.hit_ratio", "ratio", Higher, "coherence", MODEL),
    layer("coherence.transfers", "count", Lower, "coherence", MODEL),
    layer("coherence.bytes_moved", "bytes", Lower, "coherence", MODEL),
    layer("coherence.evictions", "count", Lower, "coherence", MODEL),
    layer("coherence.writebacks", "count", Lower, "coherence", MODEL),
    // ---- mem ---------------------------------------------------------
    layer("mem.copy_gb_per_s", "GB/s", Higher, "mem", WALL_KERNELS),
    // ---- net: fabric and active messages ----------------------------
    layer("net.send_recv_ns.n2", "ns", Lower, "net", WALL_PAPER),
    layer("net.send_recv_ns.n256", "ns", Lower, "net", WALL_WS),
    layer("net.messages", "count", Lower, "net", MODEL),
    layer("net.bytes_total", "bytes", Lower, "net", MODEL),
    layer("net.am_shorts", "count", Lower, "net", MODEL),
    layer("net.am_longs", "count", Lower, "net", MODEL),
    layer("net.master_link_bytes", "bytes", Lower, "net", MODEL),
    // ---- cudasim -----------------------------------------------------
    layer("cudasim.launch_ns", "ns", Lower, "cudasim", WALL_PAPER),
    layer("cudasim.memcpy_ns", "ns", Lower, "cudasim", WALL_PAPER),
    layer("cudasim.kernels", "count", Lower, "cudasim", MODEL),
    layer("cudasim.h2d_bytes", "bytes", Lower, "cudasim", MODEL),
    layer("cudasim.d2h_bytes", "bytes", Lower, "cudasim", MODEL),
    // ---- apps: functional kernel bodies -----------------------------
    layer("apps.sgemm_gflops", "GFLOP/s", Higher, "apps", WALL_KERNELS),
    layer("apps.nbody_step_ns", "ns", Lower, "apps", WALL_KERNELS),
    layer("apps.perlin_filter_mpix_per_s", "Mpix/s", Higher, "apps", WALL_KERNELS),
    // ---- runtime: machine construction and the cluster protocol -----
    layer("runtime.empty_run_ms.n8", "ms", Lower, "runtime", "setup_s on paper_suite"),
    layer("runtime.empty_run_ms.n64", "ms", Lower, "runtime", "setup_s on weak_scale"),
    layer("runtime.empty_run_ms.n256", "ms", Lower, "runtime", "setup_s on weak_scale"),
    layer("runtime.outside_sim_s", "s", Lower, "runtime", "p50_ms on every workload"),
    layer("runtime.am_exec", "count", Lower, "runtime", MODEL),
    layer("runtime.am_done", "count", Lower, "runtime", MODEL),
    layer("runtime.am_data", "count", Lower, "runtime", MODEL),
    layer("runtime.shard_lookups", "count", Lower, "runtime", MODEL),
    layer("runtime.peer_resolutions", "count", Lower, "runtime", MODEL),
    layer("runtime.submaster_spawns", "count", Lower, "runtime", MODEL),
    layer("runtime.am_retries", "count", Lower, "runtime", MODEL),
    layer("runtime.tasks_reexecuted", "count", Lower, "runtime", MODEL),
    // ---- json: report serialisation ---------------------------------
    layer("json.report_ns", "ns", Lower, "json", SERVE),
    layer("json.report_s", "s", Lower, "json", SERVE),
    // ---- serve -------------------------------------------------------
    layer("serve.spec_parse_ns", "ns", Lower, "serve", SERVE),
    layer("serve.queue_push_pop_ns", "ns", Lower, "serve", SERVE),
    // ---- benchmark-side host spans around each call -----------------
    layer("bench.config_s", "s", Lower, "bench", "setup_s on every workload"),
    layer("bench.run_s", "s", Lower, "bench", "wall_s on every workload"),
    layer("bench.check_s", "s", Lower, "bench", "none: the check is outside every timed span"),
    // ---- failure classes --------------------------------------------
    layer("fail.retried_attempts", "count", Lower, "serve", SERVE),
    layer("fail.panicked_attempts", "count", Lower, "runtime", SERVE),
    // ---- virtual time, from the traced pass -------------------------
    layer("virt.compute_frac", "frac", Higher, "virt", MODEL),
    layer("virt.pcie_frac", "frac", Lower, "virt", MODEL),
    layer("virt.network_frac", "frac", Lower, "virt", MODEL),
    layer("virt.idle_frac", "frac", Lower, "virt", MODEL),
    layer(
        "trace.overhead_frac",
        "frac",
        Lower,
        "runtime",
        "none: tracing is off in every timed pass",
    ),
];

/// The declared metrics of one class.
pub fn declared(end_to_end: bool) -> impl Iterator<Item = &'static Metric> {
    DECLARED.iter().filter(move |m| m.bound.is_some() == end_to_end)
}

/// Look up a declared metric.
pub fn find(name: &str) -> Option<&'static Metric> {
    DECLARED.iter().find(|m| m.name == name)
}

/// Collects declared metric values and undeclared diagnostics.
#[derive(Debug, Default)]
pub struct Recorder {
    values: BTreeMap<&'static str, f64>,
    diagnostics: Vec<(String, f64, &'static str)>,
}

impl Recorder {
    /// Record a declared metric.
    ///
    /// # Panics
    /// Panics if `name` is not declared — every emitted metric must be.
    pub fn set(&mut self, name: &str, value: f64) {
        let m = find(name).unwrap_or_else(|| panic!("metric '{name}' is not declared"));
        self.values.insert(m.name, value);
    }

    /// Record a workload-specific diagnostic (kept out of the result
    /// line).
    pub fn diag(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.diagnostics.push((name.into(), value, unit));
    }

    /// The value of a recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Print every recorded value as `name value unit` (diagnostics
    /// with a `# ` prefix).
    pub fn print(&self) {
        for m in DECLARED {
            if let Some(v) = self.values.get(m.name) {
                println!("{} {v} {}", m.name, m.unit);
            }
        }
        for (name, v, unit) in &self.diagnostics {
            println!("# {name} {v} {unit}");
        }
    }

    /// The result line's `metrics` object: every declared metric of the
    /// class, in table order.
    ///
    /// # Errors
    /// Names the first declared metric of the class that was never
    /// recorded, or that is not a finite number.
    pub fn metrics_json(&self, end_to_end: bool) -> Result<Json, String> {
        let mut out = Json::object();
        for m in declared(end_to_end) {
            match self.values.get(m.name) {
                Some(v) if v.is_finite() => {
                    out.set(m.name, Json::object().field("value", *v).field("unit", m.unit))
                }
                Some(v) => return Err(format!("metric '{}' is not finite: {v}", m.name)),
                None => return Err(format!("metric '{}' was not measured", m.name)),
            }
        }
        Ok(out)
    }

    /// Every declared metric of the class with its value (where
    /// recorded), unit, direction, bound, layer and what it moves — the
    /// self-describing form saved in the result file.
    pub fn described_json(&self, end_to_end: bool) -> Json {
        let mut out = Json::object();
        for m in declared(end_to_end) {
            let value = self.values.get(m.name).map_or(Json::Null, |v| Json::F64(*v));
            let bound = m.bound.map_or(Json::Null, Json::F64);
            out.set(
                m.name,
                Json::object()
                    .field("value", value)
                    .field("unit", m.unit)
                    .field("better", m.better.as_str())
                    .field("bound", bound)
                    .field("layer", m.layer)
                    .field("moves", m.moves),
            );
        }
        out
    }

    /// Diagnostics as a JSON object.
    pub fn diagnostics_json(&self) -> Json {
        let mut out = Json::object();
        for (name, v, unit) in &self.diagnostics {
            out.set(name, Json::object().field("value", *v).field("unit", *unit));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `s` is a valid metric name: 1–64 of `[A-Za-z0-9_.-]`,
    /// starting with a letter or digit.
    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Whether `s` is a valid unit: 1–16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    /// `BENCHMARK.json` and [`DECLARED`] list the same metrics with the
    /// same units, directions and bounds, every name and unit obeys the
    /// naming rules, and every metric says which layer it measures and
    /// what it should move.
    #[test]
    fn benchmark_json_matches_the_declared_table() {
        let text = include_str!("../../../BENCHMARK.json");
        let doc = Json::parse(text).expect("BENCHMARK.json parses");
        let mut listed = Vec::new();
        for (key, end_to_end) in [("end_to_end", true), ("per_layer", false)] {
            let Some(Json::Arr(items)) = doc.get(key) else {
                panic!("BENCHMARK.json lacks '{key}'")
            };
            for item in items {
                let Some(Json::Str(name)) = item.get("name") else { panic!("unnamed metric") };
                let m = find(name).unwrap_or_else(|| panic!("'{name}' is not emitted"));
                assert_eq!(m.bound.is_some(), end_to_end, "{name}: wrong class");
                assert_eq!(item.get("unit"), Some(&Json::Str(m.unit.into())), "{name}: unit");
                assert_eq!(
                    item.get("better"),
                    Some(&Json::Str(m.better.as_str().into())),
                    "{name}: direction"
                );
                let bound = match item.get("bound") {
                    Some(Json::F64(b)) => Some(*b),
                    None => None,
                    other => panic!("{name}: bad bound {other:?}"),
                };
                assert_eq!(bound, m.bound, "{name}: bound");
                listed.push(name.clone());
            }
        }
        let declared: Vec<&str> = DECLARED.iter().map(|m| m.name).collect();
        assert_eq!(listed, declared, "BENCHMARK.json and the declared table differ");
        for m in DECLARED {
            assert!(valid_name(m.name), "bad metric name '{}'", m.name);
            assert!(valid_unit(m.unit), "bad unit '{}'", m.unit);
            assert!(!m.layer.is_empty() && !m.moves.is_empty(), "{}: layer/moves", m.name);
            if let Some(b) = m.bound {
                assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
            }
        }
        let setup = find("setup_s").and_then(|m| m.bound).expect("setup_s is end-to-end");
        assert!(DECLARED.iter().filter_map(|m| m.bound).all(|b| b <= setup), "setup_s bound");
    }

    /// The README documents every declared metric.
    #[test]
    fn readme_names_every_metric() {
        let readme = include_str!("../README.md");
        for m in DECLARED {
            assert!(readme.contains(&format!("`{}`", m.name)), "README.md omits `{}`", m.name);
        }
    }

    #[test]
    fn undeclared_metrics_are_refused() {
        let r = std::panic::catch_unwind(|| Recorder::default().set("no.such_metric", 1.0));
        assert!(r.is_err());
        assert!(!valid_name(".dot_first") && !valid_name("a b") && valid_name("sim.ns_per_event"));
    }

    #[test]
    fn result_metrics_cover_exactly_the_declared_class() {
        let mut r = Recorder::default();
        for m in declared(true) {
            r.set(m.name, 1.5);
        }
        r.diag("serve.p99_ms.r1000", 3.0, "ms");
        let Json::Obj(fields) = r.metrics_json(true).expect("all end-to-end metrics recorded")
        else {
            panic!("metrics is an object")
        };
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = declared(true).map(|m| m.name).collect();
        assert_eq!(names, want);
        assert!(r.metrics_json(false).is_err(), "per-layer metrics were never recorded");
    }
}
