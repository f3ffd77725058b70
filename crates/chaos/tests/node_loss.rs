//! Whole-node loss: seeded kills of a slave node mid-run must end in
//! bit-identical output (heartbeat detection, task re-homing, lineage
//! reconstruction) — or, when lineage cannot soundly rebuild, in a
//! fail-closed [`RunError::Exhausted`]. Wrong bytes and panics are
//! never acceptable outcomes.
//!
//! Perlin is the reconstruction-friendly workload: every row block is
//! an independent `inout` writer chain, so any lost version is
//! rebuildable from the master's retained lineage regardless of where
//! the kill lands.

use ompss_chaos::{output_of, reference, run_app, Reference};
use ompss_runtime::{RuntimeConfig, SimDuration};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn any_planned_node_loss_recovers_bit_identically(percent in 5u64..=85) {
        let cfg = RuntimeConfig::gpu_cluster(2);
        let r = reference("perlin", cfg.clone());
        let run = run_app("perlin", cfg.with_node_loss(1, r.at(percent)));
        let rep = run.report.as_ref().expect("report");
        prop_assert_eq!(rep.counters.nodes_lost, 1, "the kill must be detected");
        prop_assert_eq!(output_of(&run), r.output.as_slice(), "recovery must be lossless");
    }
}

#[test]
fn missed_lease_declares_the_node_dead() {
    let cfg = RuntimeConfig::gpu_cluster(2);
    let r = reference("perlin", cfg.clone());
    let run = run_app("perlin", cfg.with_node_loss(1, r.at(40)));
    let rep = run.report.as_ref().expect("report");
    assert!(
        rep.counters.heartbeats_missed >= 1,
        "a killed slave goes silent: probes must be missed before the lease expires"
    );
    assert_eq!(rep.counters.nodes_lost, 1, "exactly the killed node is declared dead");
    assert!(
        rep.faults.as_ref().expect("armed plan").total() >= 1,
        "the kill is tallied as an injected fault"
    );
    assert_eq!(output_of(&run), r.output.as_slice(), "recovery must be lossless");
}

#[test]
fn lineage_reexecution_rebuilds_lost_regions() {
    // Write-back caching on the cluster preset: the dead node holds the
    // *only* copy of every block it computed, so recovery must actually
    // re-run producers, not just re-fetch surviving copies.
    let cfg = RuntimeConfig::gpu_cluster(2);
    let r = reference("perlin", cfg.clone());
    let run = run_app("perlin", cfg.with_node_loss(1, r.at(55)));
    let rep = run.report.as_ref().expect("report");
    assert_eq!(rep.counters.nodes_lost, 1);
    assert!(
        rep.counters.tasks_relineaged >= 1,
        "dirty blocks on the dead node force producer re-execution"
    );
    assert!(rep.counters.bytes_reconstructed > 0, "reconstructed regions are tallied by size");
    assert_eq!(output_of(&run), r.output.as_slice(), "reconstruction must be lossless");
}

#[test]
fn inflight_presend_to_dead_node_is_rerouted() {
    // Matmul's tiles read across both operand matrices, so the master
    // keeps input transfers to the remote node in flight throughout the
    // run; killing the node mid-stream hits transfers on the wire,
    // whose data must be regenerated or rerouted — never half-applied.
    let cfg = RuntimeConfig::gpu_cluster(2).with_presend(4);
    let probe = run_app("matmul", cfg.clone());
    let rep = probe.report.as_ref().expect("report");
    assert!(rep.coherence.presend_bytes > 0, "the scenario must actually exercise presend");
    let r = Reference { output: output_of(&probe).to_vec(), makespan: rep.makespan };
    let run = run_app("matmul", cfg.with_node_loss(1, r.at(50)));
    let rep = run.report.as_ref().expect("report");
    assert_eq!(rep.counters.nodes_lost, 1);
    assert_eq!(output_of(&run), r.output.as_slice(), "rerouted presends must be lossless");
}

#[test]
fn kill_after_completion_is_a_no_op() {
    // A kill instant past the makespan never fires: the run must be
    // byte-identical to the reference even with the machinery armed.
    let cfg = RuntimeConfig::gpu_cluster(2);
    let r = reference("perlin", cfg.clone());
    let run = run_app(
        "perlin",
        cfg.with_node_loss(1, SimDuration::from_nanos(r.makespan.as_nanos() * 10)),
    );
    let rep = run.report.as_ref().expect("report");
    assert_eq!(rep.counters.nodes_lost, 0, "no kill, no death");
    assert_eq!(output_of(&run), r.output.as_slice());
}
