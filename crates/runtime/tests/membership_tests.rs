//! Elastic-membership tests: config validation (rejected before the
//! machine is built), and end-to-end planned joins/drains preserving
//! results under the one-shard flat master and a multi-shard map.

use ompss_json::ToJson;
use ompss_mem::cast_slice_mut;
use ompss_runtime::{Device, RunError, RunReport, Runtime, RuntimeConfig, SimDuration, TaskSpec};

/// Two waves of blocked SMP "scale by 2" over eight arrays — enough
/// 100 µs tasks that a membership event armed a few hundred µs in lands
/// mid-run (the two-wave makespan is ~600 µs on a three-node cluster),
/// and enough distinct `DataId`s that a multi-shard map homes slices on
/// every member. The taskwait between waves makes the second wave's
/// placement see the churned cluster.
fn run_two_wave(cfg: RuntimeConfig) -> (Vec<Vec<f32>>, RunReport) {
    const N: usize = 512;
    const BS: usize = 128;
    const ARRAYS: usize = 8;
    let out = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let out2 = out.clone();
    let report = Runtime::run(cfg, move |omp| async move {
        let arrays: Vec<_> = (0..ARRAYS).map(|_| omp.alloc_array::<f32>(N)).collect();
        for a in &arrays {
            omp.write_array(a, 0, &(0..N).map(|i| i as f32).collect::<Vec<_>>());
        }
        for _wave in 0..2 {
            for a in arrays.clone() {
                omp.for_each_block(0..N, BS, |r| {
                    TaskSpec::new("scale")
                        .device(Device::Smp)
                        .inout(a.region(r))
                        .cost_smp(SimDuration::from_micros(100))
                        .body(|views| {
                            for x in cast_slice_mut::<f32>(views[0]) {
                                *x *= 2.0;
                            }
                        })
                })
                .await;
            }
            omp.taskwait().await;
        }
        *out2.borrow_mut() =
            arrays.iter().map(|a| omp.read_array(a, 0..N).unwrap()).collect::<Vec<_>>();
    });
    let v = out.borrow().clone();
    (v, report)
}

fn assert_scaled_4x(arrays: &[Vec<f32>], ctx: &str) {
    let want: Vec<f32> = (0..512).map(|i| (i as f32) * 4.0).collect();
    for (k, a) in arrays.iter().enumerate() {
        assert_eq!(a, &want, "array {k} wrong under {ctx}");
    }
}

#[test]
fn membership_targets_outside_the_cluster_are_rejected() {
    // Fields set directly reach try_run unchecked by any builder and
    // must fail closed in `RuntimeConfig::check`, on either side.
    let mut cfg = RuntimeConfig::gpu_cluster(2);
    cfg.node_join = Some((5, SimDuration::from_micros(10)));
    match Runtime::try_run(cfg, |omp| async move {
        omp.taskwait().await;
    }) {
        Err(RunError::InvalidConfig { what }) => {
            assert!(what.contains("node_join"), "unhelpful message: {what}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    let mut cfg = RuntimeConfig::gpu_cluster(2);
    cfg.node_drain = Some((0, SimDuration::from_micros(10)));
    assert!(matches!(
        Runtime::try_run(cfg, |omp| async move {
            omp.taskwait().await;
        }),
        Err(RunError::InvalidConfig { .. })
    ));
}

#[test]
fn zero_shards_are_rejected() {
    // The flat master is the one-shard map, so zero shards is no plane
    // at all. `RuntimeConfig::check` holds the rule: a field set
    // directly, as here, must fail closed in try_run (`OMPSS_SHARDS=0`
    // and `set("shards", "0")` fail in the same check before a run).
    let mut cfg = RuntimeConfig::gpu_cluster(2);
    cfg.shards = 0;
    match Runtime::try_run(cfg, |omp| async move {
        omp.taskwait().await;
    }) {
        Err(RunError::InvalidConfig { what }) => {
            assert!(what.contains("shards"), "unhelpful message: {what}")
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

#[test]
fn flat_master_is_the_one_shard_map() {
    // The default config and an explicit one-shard map are the same
    // control plane: identical report bytes, no shard section, and no
    // sub-master — node 0 owns every block, so the caller submits
    // inline. A planned join opens an epoch that moves nothing.
    for join in [None, Some(SimDuration::from_micros(300))] {
        let mut base = RuntimeConfig::gpu_cluster(3);
        if let Some(at) = join {
            base = base.with_node_join(2, at);
        }
        let (flat_v, flat) = run_two_wave(base.clone());
        let (one_v, one) = run_two_wave(base.with_sharded_control(1));
        assert_scaled_4x(&flat_v, &format!("default, join={join:?}"));
        assert_eq!(flat_v, one_v);
        let json = flat.to_json();
        assert_eq!(json.to_pretty_string(), one.to_json().to_pretty_string(), "join={join:?}");
        assert_eq!(json.get("counters").and_then(|c| c.get("shard")), None, "join={join:?}");
        assert_eq!(flat.counters.submaster_spawns, 0, "join={join:?}");
        assert_eq!(flat.counters.regions_rebalanced, 0, "join={join:?}");
        assert_eq!(flat.counters.nodes_joined, u64::from(join.is_some()));
    }
}

#[test]
fn planned_join_adds_a_node_mid_run_and_preserves_results() {
    for shards in [1u32, 3] {
        let cfg = RuntimeConfig::gpu_cluster(3)
            .with_node_join(2, SimDuration::from_micros(300))
            .with_sharded_control(shards);
        let (v, report) = run_two_wave(cfg);
        assert_scaled_4x(&v, &format!("join, shards={shards}"));
        assert_eq!(report.counters.nodes_joined, 1, "shards={shards}");
        assert_eq!(report.counters.nodes_drained, 0, "shards={shards}");
        if shards > 1 {
            // The joiner took ownership of part of the DataId space;
            // the idle slices must have been re-homed onto it.
            assert!(report.counters.regions_rebalanced > 0, "sharded join moved no slices");
        }
    }
}

#[test]
fn planned_drain_retires_a_node_mid_run_and_preserves_results() {
    for shards in [1u32, 3] {
        let cfg = RuntimeConfig::gpu_cluster(3)
            .with_node_drain(2, SimDuration::from_micros(300))
            .with_sharded_control(shards);
        let (v, report) = run_two_wave(cfg);
        assert_scaled_4x(&v, &format!("drain, shards={shards}"));
        assert_eq!(report.counters.nodes_drained, 1, "shards={shards}");
        assert_eq!(report.counters.nodes_joined, 0, "shards={shards}");
        // Draining always costs data movement: the leaver's dirty cache
        // is flushed home; a multi-shard map additionally re-homes
        // every slice the leaver owned.
        assert!(report.counters.bytes_migrated > 0, "drain moved no bytes (shards={shards})");
        if shards > 1 {
            assert!(report.counters.regions_rebalanced > 0, "sharded drain moved no slices");
        }
    }
}

#[test]
fn drain_after_the_makespan_changes_nothing() {
    // A drain planned past the end of the program must stand down: no
    // membership activity, identical results and makespan to the
    // unarmed run (the zero-cost pin checks the full report bytes).
    let base = run_two_wave(RuntimeConfig::gpu_cluster(3));
    let armed = run_two_wave(
        RuntimeConfig::gpu_cluster(3).with_node_drain(2, SimDuration::from_millis(100)),
    );
    assert_eq!(armed.0, base.0);
    assert_eq!(armed.1.makespan, base.1.makespan);
    assert_eq!(armed.1.counters.nodes_drained, 0);
    assert_eq!(armed.1.counters.regions_rebalanced, 0);
    assert_eq!(armed.1.counters.bytes_migrated, 0);
}

#[test]
fn join_then_drain_of_the_same_node_round_trips() {
    // Node 2 comes up at 200 µs and leaves again at 500 µs: both
    // events land mid-run and results survive the double rebalance.
    let cfg = RuntimeConfig::gpu_cluster(3)
        .with_sharded_control(3)
        .with_node_join(2, SimDuration::from_micros(200))
        .with_node_drain(2, SimDuration::from_micros(500));
    let (v, report) = run_two_wave(cfg);
    assert_scaled_4x(&v, "join+drain round trip");
    assert_eq!(report.counters.nodes_joined, 1);
    assert_eq!(report.counters.nodes_drained, 1);
    assert!(report.counters.bytes_migrated > 0);
}
