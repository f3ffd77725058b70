//! Regenerates every figure and table of the paper's evaluation,
//! printing each and saving JSON under `results/`. Fig. 5 and Fig. 9
//! also export a Paraver trace pair (`fig05_multigpu.prv`/`.row`,
//! `fig09_cluster.prv`/`.row`) of their best configuration.
//!
//! Independent configurations within each figure run on `--jobs N` host
//! threads; the output is byte-identical at any job count. Naming
//! figure ids (e.g. `all_figures figWS`) regenerates just those.
use std::path::Path;

use ompss_apps::matmul::{self, ompss::InitMode};
use ompss_runtime::{Backing, CachePolicy, ParaverTrace, Policy, RuntimeConfig, SlaveRouting};

const USAGE: &str = "usage: all_figures [--jobs N] [figure-id...]";

type Entry = (&'static str, fn() -> ompss_bench::FigureData);

const ALL: [Entry; 11] = [
    ("fig05", ompss_bench::figures::fig05),
    ("fig06", ompss_bench::figures::fig06),
    ("fig07", ompss_bench::figures::fig07),
    ("fig08", ompss_bench::figures::fig08),
    ("fig09", ompss_bench::figures::fig09),
    ("fig10", ompss_bench::figures::fig10),
    ("fig11", ompss_bench::figures::fig11),
    ("fig12", ompss_bench::figures::fig12),
    ("fig13", ompss_bench::figures::fig13),
    ("figWS", ompss_bench::figures::figws),
    ("table1", ompss_bench::figures::table1),
];

/// The figures `args` names, in table order; every one when it names none.
fn select(args: &[String]) -> Result<Vec<Entry>, String> {
    if let Some(a) = args.iter().find(|a| !ALL.iter().any(|(id, _)| id == a)) {
        return Err(format!("unknown figure id '{a}'"));
    }
    Ok(ALL.into_iter().filter(|(id, _)| args.is_empty() || args.iter().any(|a| a == id)).collect())
}

fn main() {
    let selected = ompss_sweep::read_args("all_figures", USAGE, |argv| {
        argv.jobs().and_then(|_| select(&argv.positionals()))
    });
    let dir = ompss_bench::results_dir();
    let mut saved = 0;
    for (id, make) in selected {
        let fig = make();
        fig.print();
        fig.save(&dir);
        saved += 1;
        if let Some((name, cfg, init)) = paraver(id) {
            export_trace(&dir, name, cfg, init);
        }
    }
    println!("saved {saved} result files to {}", dir.display());
}

/// The figure's Paraver export, if it has one: the trace file name and
/// the paper-scale matmul run it records.
fn paraver(id: &str) -> Option<(&'static str, RuntimeConfig, InitMode)> {
    match id {
        // The timeline behind Fig. 5's wb/affinity 4-GPU bar.
        "fig05" => Some((
            "fig05_multigpu",
            RuntimeConfig::multi_gpu(4)
                .with_backing(Backing::Phantom)
                .with_cache(CachePolicy::WriteBack)
                .with_sched(Policy::Affinity),
            InitMode::Seq,
        )),
        // Fig. 9's best cluster setup: StoS routing, SMP-parallel init,
        // deep presend.
        "fig09" => Some((
            "fig09_cluster",
            RuntimeConfig::gpu_cluster(8)
                .with_backing(Backing::Phantom)
                .with_routing(SlaveRouting::Direct)
                .with_presend(8),
            InitMode::Smp,
        )),
        _ => None,
    }
}

/// Run `cfg` traced and save the timeline as `dir/name.prv`/`.row`.
fn export_trace(dir: &Path, name: &str, cfg: RuntimeConfig, init: InitMode) {
    let r = matmul::ompss::run(cfg.with_tracing(true), matmul::MatmulParams::paper(), init);
    let rep = r.report.expect("ompss run carries a report");
    let events = rep.trace.as_deref().expect("tracing was enabled");
    match ParaverTrace::from_events(events, rep.makespan).save(dir, name) {
        Ok((p, _)) => println!("paraver trace: {}", p.display()),
        Err(e) => eprintln!("paraver trace export failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_ids_select_in_table_order() {
        let ids = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            select(&args).map(|v| v.into_iter().map(|(id, _)| id).collect::<Vec<_>>())
        };
        assert_eq!(ids(&["figWS", "fig05"]), Ok(vec!["fig05", "figWS"]));
        assert_eq!(ids(&[]).map(|v| v.len()), Ok(11));
        assert_eq!(ids(&["fig5"]), Err("unknown figure id 'fig5'".into()));
    }
}
