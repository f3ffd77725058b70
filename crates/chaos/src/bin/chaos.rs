//! `chaos` — deterministic fault-injection sweep over the shipped
//! applications.
//!
//! ```text
//! chaos                          # all apps, default rates and seeds
//! chaos --rates 0.05,0.1 --seeds 1,2,3 matmul stream
//! chaos --node-kill              # whole-node kill sweep (cluster only)
//! chaos --node-kill --kill-points 20,45,70 perlin
//! ```
//!
//! For every app × topology, the sweep first runs fault-free for a
//! reference output, then replays the same program under each
//! `(rate, seed)` fault plan and requires the recovered output to be
//! bit-identical. The report is printed as pretty JSON; any divergence,
//! failed run, or missing recovery class makes the exit status 1.
//!
//! `--node-kill` switches to the whole-node loss grid: every app on
//! every cluster topology — including a sharded-control-plane cluster
//! where each slave victim owns a directory shard — killing each slave
//! node at planned fractions of the fault-free makespan. Each case must
//! either recover bit-identically or fail closed with
//! [`RunError::Exhausted`]; wrong bytes or any other crash fails the
//! sweep, as does a grid in which no case actually recovered.
//!
//! `--churn` switches to the elastic-membership grid: each app on a
//! three-node cluster, flat and sharded control plane, under planned
//! joins, drains, a join+drain round trip, and two drain×kill races
//! (the draining node killed mid-drain, and a bystander killed while
//! another node drains). Every cell must finish bit-identically to the
//! static reference or fail closed with [`RunError::Exhausted`] —
//! wrong bytes or any other crash fails the sweep, as does a grid in
//! which no join or no drain actually fired.
//!
//! Each sweep is a [`Mode`]: its axes, counter columns and pass rules,
//! declared over the one reference-then-case grid of
//! [`ompss_chaos::run_grid`]. Its runs, references included, execute on
//! `--jobs N` host threads; the report is byte-identical at any job
//! count. A flag of another sweep is a usage error.
//!
//! [`RunError::Exhausted`]: ompss_runtime::RunError::Exhausted

use ompss_apps::validation::apps;
use ompss_chaos::{run_grid, with_big_budgets, Case, Outcome, APPS};
use ompss_json::Json;
use ompss_runtime::{FaultClass, FaultPlan, RunReport, RuntimeConfig};
use ompss_sweep::Argv;

const USAGE: &str = "usage: chaos [--rates r1,r2] [--seeds s1,s2] [--jobs N] [app...]\n       \
                     chaos --node-kill [--kill-points p1,p2] [--jobs N] [app...]\n       \
                     chaos --churn [--jobs N] [app...]";

fn main() {
    let usage = format!("{USAGE}\napps: {}", APPS.join(" "));
    let args = ompss_sweep::read_args("chaos", &usage, parse_args);
    let mode = match args.sweep {
        Sweep::Rates => rate_mode(&args),
        Sweep::NodeKill => node_kill_mode(&args),
        Sweep::Churn => churn_mode(&args),
    };
    std::process::exit(mode.run());
}

/// Which grid to run.
#[derive(Debug, PartialEq)]
enum Sweep {
    Rates,
    NodeKill,
    Churn,
}

/// The parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    sweep: Sweep,
    rates: Vec<f64>,
    seeds: Vec<u64>,
    kill_points: Vec<u64>,
    /// Resolved against [`APPS`]; all of them when none is named.
    apps: Vec<&'static str>,
}

fn parse_args(argv: &mut Argv) -> Result<Args, String> {
    argv.jobs()?;
    let sweep = match (argv.switch("--node-kill"), argv.switch("--churn")) {
        (false, false) => Sweep::Rates,
        (true, false) => Sweep::NodeKill,
        (false, true) => Sweep::Churn,
        (true, true) => return Err("--node-kill and --churn exclude each other".into()),
    };
    let (rates, seeds, kill_points) =
        (argv.list("--rates")?, argv.list("--seeds")?, argv.list("--kill-points")?);
    // An axis the chosen sweep does not have would change nothing.
    let axes = [
        ("--rates", rates.is_some(), Sweep::Rates),
        ("--seeds", seeds.is_some(), Sweep::Rates),
        ("--kill-points", kill_points.is_some(), Sweep::NodeKill),
    ];
    if let Some((flag, ..)) = axes.iter().find(|(_, given, of)| *given && *of != sweep) {
        return Err(format!("{flag} is not an axis of this sweep"));
    }
    let rates = rates.unwrap_or_else(|| vec![0.05, 0.1]);
    // A fault rate is a probability; NaN fails this too.
    if let Some(r) = rates.iter().find(|r| !(0.0..=1.0).contains(*r)) {
        return Err(format!("--rates entry '{r}' is not in [0, 1]"));
    }
    let kill_points = kill_points.unwrap_or_else(|| vec![20, 45, 70]);
    // A kill point is a percentage of the fault-free makespan.
    if let Some(p) = kill_points.iter().find(|&&p| p > 100) {
        return Err(format!("--kill-points entry '{p}' is not in [0, 100]"));
    }
    Ok(Args {
        sweep,
        rates,
        seeds: seeds.unwrap_or_else(|| vec![1, 2, 3]),
        kill_points,
        apps: apps(&argv.positionals())?,
    })
}

/// A named counter: a report column or its total.
type Count = (&'static str, u64);

/// One sweep, declared over the shared grid: which runs it makes, what
/// it reports per case, and what it takes to pass.
struct Mode {
    /// The report's `mode` field. `None` for the rate/seed sweep, whose
    /// report predates the field: it flags each case `identical`,
    /// shows the counters of every completed run, and heads the report
    /// with `divergences` and `recovery_totals` instead of `totals`.
    name: Option<&'static str>,
    references: Vec<(&'static str, RuntimeConfig)>,
    /// Every case, with the report fields that name its axes.
    cases: Vec<(Json, Case)>,
    /// The outcome label of a finished case.
    finished: &'static str,
    /// Whether failing closed with `Exhausted` passes.
    fail_closed_ok: bool,
    /// Per-case counter columns, read from a run's report.
    columns: fn(&RunReport) -> Vec<Count>,
    /// The columns summed into the report's totals.
    summed: &'static [&'static str],
    /// What the failed cases did, for the stderr line.
    failed: &'static str,
    /// The evidence gate: given the finished-case count and the summed
    /// totals, the complaint when the grid did not exercise what it
    /// exists to exercise.
    evidence: fn(u64, &[Count]) -> Option<String>,
}

impl Mode {
    /// Run the grid, print the report, and return the exit status.
    fn run(mut self) -> i32 {
        let (axes, cases): (Vec<Json>, Vec<Case>) =
            std::mem::take(&mut self.cases).into_iter().unzip();
        let outcomes = run_grid(&self.references, cases);
        let (report, verdict) = self.report(axes, outcomes);
        println!("{}", report.to_pretty_string().trim_end());
        match verdict {
            Ok(()) => 0,
            Err(complaint) => {
                eprintln!("{complaint}");
                1
            }
        }
    }

    /// The report over the cases' axes and outcomes, and the verdict:
    /// the stderr complaint when the sweep fails.
    fn report(&self, axes: Vec<Json>, outcomes: Vec<Outcome>) -> (Json, Result<(), String>) {
        let (mut finished, mut fail_closed, mut failures) = (0u64, 0u64, 0u64);
        let mut sums: Vec<Count> = self.summed.iter().map(|&k| (k, 0)).collect();
        let mut rows = Json::array();
        for (row, outcome) in axes.into_iter().zip(outcomes) {
            let label = match &outcome {
                Outcome::Finished(_) => {
                    finished += 1;
                    self.finished
                }
                Outcome::FailClosed(_) if self.fail_closed_ok => {
                    fail_closed += 1;
                    "fail_closed"
                }
                _ => {
                    failures += 1;
                    "FAILURE"
                }
            };
            let is_finished = matches!(outcome, Outcome::Finished(_));
            let (mut row, shown) = match self.name {
                None => (row.field("identical", is_finished), outcome.run()),
                Some(_) => (row.field("outcome", label), outcome.run().filter(|_| is_finished)),
            };
            match shown {
                Some(run) => {
                    for (k, v) in (self.columns)(run.report.as_ref().expect("report")) {
                        if let Some(sum) = sums.iter_mut().find(|(name, _)| *name == k) {
                            sum.1 += v;
                        }
                        row = row.field(k, v);
                    }
                }
                None => row = row.field("error", outcome.error().expect("unfinished case")),
            }
            rows.push(row);
        }

        let with_sums = |totals: Json| sums.iter().fold(totals, |t, &(k, v)| t.field(k, v));
        let head = Json::object().field("tool", "ompss-chaos");
        let report = match self.name {
            None => head
                .field("divergences", failures)
                .field("recovery_totals", with_sums(Json::object())),
            Some(name) => head.field("mode", name).field(
                "totals",
                with_sums(
                    Json::object()
                        .field(self.finished, finished)
                        .field("fail_closed", fail_closed)
                        .field("failures", failures),
                ),
            ),
        };
        let prefix = self.name.map_or("chaos".to_string(), |n| format!("chaos --{n}"));
        let verdict = if failures > 0 {
            Err(format!("{prefix}: {failures} case(s) {}", self.failed))
        } else {
            (self.evidence)(finished, &sums).map_or(Ok(()), |c| Err(format!("{prefix}: {c}")))
        };
        (report.field("cases", rows), verdict)
    }
}

/// Rate × seed: every app on the paper's two topologies under each
/// seeded fault plan, retry budgets raised. Strict: only a
/// bit-identical finish passes, and every recovery class the runtime
/// has must fire somewhere in the grid.
fn rate_mode(args: &Args) -> Mode {
    let (mut references, mut cases) = (Vec::new(), Vec::new());
    for &app in &args.apps {
        for (topo, cfg) in
            [("multi_gpu", RuntimeConfig::multi_gpu(2)), ("cluster", RuntimeConfig::gpu_cluster(2))]
        {
            references.push((app, cfg));
            for &rate in &args.rates {
                for &seed in &args.seeds {
                    let axes = Json::object()
                        .field("app", app)
                        .field("topology", topo)
                        .field("rate", rate)
                        .field("seed", seed);
                    let case = Case::new(references.len() - 1, move |cfg, _| {
                        with_big_budgets(cfg.with_fault_plan(FaultPlan::new(seed, rate)))
                    });
                    cases.push((axes, case));
                }
            }
        }
    }
    Mode {
        name: None,
        references,
        cases,
        finished: "identical",
        fail_closed_ok: false,
        columns: |rep| {
            let faults = rep.faults.as_ref().expect("armed fault plan");
            let c = &rep.counters;
            vec![
                ("injected", faults.total()),
                ("device_losses", faults.count(FaultClass::DeviceLoss)),
                ("am_retries", c.am_retries),
                ("tasks_reexecuted", c.tasks_reexecuted),
                ("devices_lost", c.devices_lost),
                ("msgs_dropped", c.msgs_dropped),
            ]
        },
        summed: &["am_retries", "tasks_reexecuted", "devices_lost", "msgs_dropped"],
        failed: "diverged from the fault-free output",
        evidence: |_, sums| {
            let missing: Vec<&str> =
                sums.iter().filter(|(_, n)| *n == 0).map(|(name, _)| *name).collect();
            (!missing.is_empty()).then(|| {
                format!("sweep exercised no recovery of class(es): {}", missing.join(", "))
            })
        },
    }
}

/// Whole-node loss: app × cluster × victim slave × kill instant (a
/// percentage of the fault-free makespan). The third cluster runs the
/// sharded control plane, so every victim is a shard *owner* homing a
/// slice of the directory: killing it exercises the master's
/// re-homing path, which must either restore the bytes or fail closed.
fn node_kill_mode(args: &Args) -> Mode {
    let clusters = [("cluster2", 2, false), ("cluster3", 3, false), ("cluster3_sharded", 3, true)];
    let (mut references, mut cases) = (Vec::new(), Vec::new());
    for &app in &args.apps {
        for (topo, nodes, sharded) in clusters {
            references.push((app, cluster(nodes, sharded)));
            for victim in 1..nodes {
                for &pct in &args.kill_points {
                    let axes = Json::object()
                        .field("app", app)
                        .field("topology", topo)
                        .field("victim", victim as u64)
                        .field("kill_percent", pct);
                    let case = Case::new(references.len() - 1, move |cfg, r| {
                        cfg.with_node_loss(victim, r.at(pct))
                    });
                    cases.push((axes, case));
                }
            }
        }
    }
    Mode {
        name: Some("node-kill"),
        references,
        cases,
        finished: "recovered",
        fail_closed_ok: true,
        columns: |rep| {
            let c = &rep.counters;
            vec![
                ("nodes_lost", c.nodes_lost),
                ("tasks_relineaged", c.tasks_relineaged),
                ("bytes_reconstructed", c.bytes_reconstructed),
                ("heartbeats_missed", c.heartbeats_missed),
            ]
        },
        summed: &["tasks_relineaged", "bytes_reconstructed"],
        failed: "crashed or produced wrong bytes",
        evidence: |recovered, _| {
            (recovered == 0).then(|| "no case actually recovered; the grid proves nothing".into())
        },
    }
}

/// Elastic membership: app × {flat, sharded} three-node cluster ×
/// churn scenario. Node 2 is the elastic member throughout; the two
/// kill scenarios race a crash against its drain (the drainee itself,
/// then bystander node 1). Instants are fractions of the static
/// fault-free makespan so every event lands mid-run.
fn churn_mode(args: &Args) -> Mode {
    // (name, join %, drain %, (kill victim, kill %)).
    type Scenario = (&'static str, Option<u64>, Option<u64>, Option<(u32, u64)>);
    const SCENARIOS: [Scenario; 5] = [
        ("join", Some(25), None, None),
        ("drain", None, Some(45), None),
        ("join_drain", Some(20), Some(55), None),
        ("drain_then_kill", None, Some(40), Some((2, 45))),
        ("kill_other_during_drain", None, Some(40), Some((1, 45))),
    ];
    let (mut references, mut cases) = (Vec::new(), Vec::new());
    for &app in &args.apps {
        for (plane, sharded) in [("cluster3", false), ("cluster3_sharded", true)] {
            references.push((app, cluster(3, sharded)));
            for (name, join, drain, kill) in SCENARIOS {
                let axes = Json::object()
                    .field("app", app)
                    .field("topology", plane)
                    .field("scenario", name);
                let case = Case::new(references.len() - 1, move |mut cfg, r| {
                    if let Some(pct) = join {
                        cfg = cfg.with_node_join(2, r.at(pct));
                    }
                    if let Some(pct) = drain {
                        cfg = cfg.with_node_drain(2, r.at(pct));
                    }
                    if let Some((victim, pct)) = kill {
                        cfg = cfg.with_node_loss(victim, r.at(pct));
                    }
                    cfg
                });
                cases.push((axes, case));
            }
        }
    }
    Mode {
        name: Some("churn"),
        references,
        cases,
        finished: "identical",
        fail_closed_ok: true,
        columns: |rep| {
            let c = &rep.counters;
            vec![
                ("nodes_joined", c.nodes_joined),
                ("nodes_drained", c.nodes_drained),
                ("regions_rebalanced", c.regions_rebalanced),
                ("bytes_migrated", c.bytes_migrated),
                ("nodes_lost", c.nodes_lost),
            ]
        },
        summed: &[
            "nodes_joined",
            "nodes_drained",
            "regions_rebalanced",
            "bytes_migrated",
            "nodes_lost",
        ],
        failed: "crashed or produced wrong bytes",
        evidence: |_, sums| {
            let total = |k: &str| sums.iter().find(|(name, _)| *name == k).map_or(0, |s| s.1);
            let (joined, drained) = (total("nodes_joined"), total("nodes_drained"));
            (joined == 0 || drained == 0).then(|| {
                format!(
                    "the grid exercised no {} (joined={joined}, drained={drained})",
                    if joined == 0 { "join" } else { "drain" }
                )
            })
        },
    }
}

/// A GPU cluster of `nodes`: one shard per node if `sharded`, else the
/// one-shard flat master.
fn cluster(nodes: u32, sharded: bool) -> RuntimeConfig {
    RuntimeConfig::gpu_cluster(nodes).with_sharded_control(if sharded { nodes } else { 1 })
}

#[cfg(test)]
mod tests {
    use ompss_runtime::RunError;

    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Argv::parse(args, parse_args)
    }

    #[test]
    fn defaults_cover_every_app_in_the_rate_sweep() {
        let args = parse(&[]).unwrap();
        assert_eq!(args.sweep, Sweep::Rates);
        assert_eq!(
            (args.rates, args.seeds, args.kill_points),
            (vec![0.05, 0.1], vec![1, 2, 3], vec![20, 45, 70])
        );
        assert_eq!(args.apps, APPS.to_vec());
    }

    #[test]
    fn integers_parse_as_integers() {
        let args = parse(&["--rates", "0.05", "--seeds", "7, 9", "stream"]).unwrap();
        assert_eq!((args.rates, args.seeds, args.apps), (vec![0.05], vec![7, 9], vec!["stream"]));
        let args = parse(&["--node-kill", "--kill-points", "20,45"]).unwrap();
        assert_eq!((args.sweep, args.kill_points), (Sweep::NodeKill, vec![20, 45]));
        assert_eq!(parse(&["--churn", "perlin"]).unwrap().sweep, Sweep::Churn);
        assert_eq!(
            parse(&["--rates=0.1", "--seeds", "1", "stream"]),
            parse(&["--rates", "0.1", "--seeds", "1", "stream"])
        );
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        for bad in [
            &["--seeds", "2.7,-3"][..],
            &["--seeds", "-3"],
            &["--seeds", "1,,2"],
            &["--kill-points", "45.5"],
            &["--rates", "fast"],
            &["--rates", "NaN"],
            &["--rates", "1.5"],
            &["--rates", "0.1,-1"],
            &["--rates", "inf"],
            &["--rates"],
            &["--seeds"],
            &["--node-kill", "--kill-points"],
            &["matmull"],
            &["--verbose"],
            &["--node-kill", "--churn"],
            &["--churn", "--kill-points", "20"],
            &["--node-kill", "--seeds", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must be rejected");
        }
        assert_eq!(parse(&["--seeds", "2.7"]).unwrap_err(), "malformed --seeds entry '2.7'");
        assert_eq!(parse(&["--rates"]).unwrap_err(), "--rates needs a value");
        assert_eq!(parse(&["--rates", "1.5"]).unwrap_err(), "--rates entry '1.5' is not in [0, 1]");
        assert_eq!(parse(&["--rates", "0,1"]).unwrap().rates, [0.0, 1.0], "the bounds are rates");
    }

    #[test]
    fn kill_points_are_percentages() {
        for (points, bad) in [("250", 250u64), ("20,184467440737095516", 184467440737095516)] {
            assert_eq!(
                parse(&["--node-kill", "--kill-points", points]).unwrap_err(),
                format!("--kill-points entry '{bad}' is not in [0, 100]")
            );
        }
        let args = parse(&["--node-kill", "--kill-points", "0,100"]).unwrap();
        assert_eq!(args.kill_points, [0, 100], "the bounds are percentages");
    }

    fn fail_closed() -> Outcome {
        Outcome::FailClosed(RunError::Exhausted { what: "task t1".into(), attempts: 8 })
    }

    #[test]
    fn the_rate_sweep_rejects_failing_closed() {
        let args = parse(&["stream"]).unwrap();
        let (report, verdict) = rate_mode(&args).report(vec![Json::object()], vec![fail_closed()]);
        assert_eq!(verdict, Err("chaos: 1 case(s) diverged from the fault-free output".into()));
        assert_eq!(report.get("divergences"), Some(&Json::from(1u64)));
        let (_, verdict) = node_kill_mode(&args).report(vec![Json::object()], vec![fail_closed()]);
        assert_eq!(
            verdict,
            Err("chaos --node-kill: no case actually recovered; the grid proves nothing".into()),
            "failing closed passes the node-kill grid; only its evidence gate objects"
        );
    }
}
