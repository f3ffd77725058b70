//! Elastic membership under chaos: planned joins and drains must be
//! invisible in the output bytes, and a crash racing a drain must
//! resolve to crash recovery or a fail-closed abort — never to wrong
//! bytes. These pin one seeded scenario each; the full grid is
//! `chaos --churn`.
//!
//! Perlin is the workload throughout: every row block is an
//! independent `inout` writer chain, so lineage can rebuild whatever a
//! racing kill strands, and any lost or doubled work shows up as a
//! byte diff against the static reference.

use ompss_chaos::{output_of, reference, run_app, try_run_app};
use ompss_runtime::{RunError, RuntimeConfig};

fn sharded3() -> RuntimeConfig {
    RuntimeConfig::gpu_cluster(3).with_sharded_control(3)
}

#[test]
fn planned_drain_is_bit_identical_to_the_static_run() {
    let cfg = sharded3();
    let r = reference("perlin", cfg.clone());
    let run = run_app("perlin", cfg.with_node_drain(2, r.at(45)));
    let rep = run.report.as_ref().expect("report");
    assert_eq!(rep.counters.nodes_drained, 1, "the drain must actually fire");
    assert_eq!(rep.counters.nodes_lost, 0, "a drain is not a fault");
    assert!(rep.counters.bytes_migrated > 0, "the leaver's data must move home");
    assert_eq!(output_of(&run), r.output.as_slice(), "a graceful drain never changes bytes");
}

#[test]
fn planned_join_is_bit_identical_to_the_static_run() {
    let cfg = sharded3();
    let r = reference("perlin", cfg.clone());
    let run = run_app("perlin", cfg.with_node_join(2, r.at(25)));
    let rep = run.report.as_ref().expect("report");
    assert_eq!(rep.counters.nodes_joined, 1, "the join must actually fire");
    assert_eq!(output_of(&run), r.output.as_slice(), "an elastic join never changes bytes");
}

#[test]
fn kill_racing_the_drain_never_serves_wrong_bytes() {
    // The draining node is killed five makespan-percent after its drain
    // starts: whichever step the crash lands in, the run must either
    // finish bit-identically (the drain won the race, or crash recovery
    // rebuilt what the kill stranded) or abort fail-closed with
    // `Exhausted`. Any other error — and any byte diff — is a defect.
    let cfg = sharded3();
    let r = reference("perlin", cfg.clone());
    let armed = cfg.with_node_drain(2, r.at(40)).with_node_loss(2, r.at(45));
    match try_run_app("perlin", armed) {
        Ok(run) => {
            let rep = run.report.as_ref().expect("report");
            assert!(
                rep.counters.nodes_drained == 1 || rep.counters.nodes_lost == 1,
                "someone must own the node's end: drained={} lost={}",
                rep.counters.nodes_drained,
                rep.counters.nodes_lost
            );
            assert_eq!(output_of(&run), r.output.as_slice(), "the race must be lossless");
        }
        Err(RunError::Exhausted { .. }) => {} // fail closed: acceptable
        Err(e) => panic!("drain x kill race must recover or fail closed, got: {e}"),
    }
}
