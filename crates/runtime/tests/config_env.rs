//! The environment and `RuntimeConfig::set` are one path: for every
//! key, `OMPSS_<KEY>=value` and `set(key, value)` give the same config,
//! or the same error naming the variable where `set` names the key.
//! The only test in this binary, so its environment mutation races
//! nothing.

use ompss_runtime::RuntimeConfig;

#[test]
fn env_and_set_agree_on_every_key() {
    // One value each key takes (and that changes the base config), and
    // one it rejects, as text or through `check`.
    let values = [
        ("schedule", ["bf", "fifo"]),
        ("cache_policy", ["wt", "wback"]),
        ("routing", ["mtos", "direct"]),
        ("presend", ["3", "-1"]),
        ("overlap", ["off", "yes"]),
        ("prefetch", ["0", ""]),
        ("trace", ["true", "2"]),
        ("verify", ["1", "maybe"]),
        ("sched_seed", ["17", "0x11"]),
        ("fault_rate", ["0.25", "1.5"]),
        ("fault_seed", ["9", "seven"]),
        ("task_retries", ["5", "4294967296"]),
        ("am_retries", ["16", "3.0"]),
        ("fault_node_loss", ["2@800", "0@800"]),
        ("shards", ["3", "0"]),
        ("node_join", ["1@500", "3@500"]),
        ("node_drain", ["2@900", "1@"]),
    ];
    assert_eq!(values.map(|v| v.0).to_vec(), RuntimeConfig::keys().collect::<Vec<_>>());
    let base = || RuntimeConfig::gpu_cluster(3).with_faults(4, 0.1);
    for (key, [good, bad]) in values {
        let var = format!("OMPSS_{}", key.to_ascii_uppercase());
        for value in [good, bad] {
            std::env::set_var(&var, value);
            let from_env = base().overridden_from_env();
            std::env::remove_var(&var);
            let mut by_key = base();
            let set = by_key.set(key, value);
            match (from_env, set) {
                (Ok(env), Ok(())) => {
                    assert_eq!(value, good, "{key}={value:?} must be rejected");
                    let (env, by_key) = (format!("{env:?}"), format!("{by_key:?}"));
                    assert_eq!(env, by_key, "{key}={value:?}");
                    assert_ne!(env, format!("{:?}", base()), "{key}={value:?} changed nothing");
                }
                (Err(env), Err(set)) => {
                    assert_eq!(value, bad, "{key}={value:?} must be accepted: {set}");
                    assert_eq!(env.to_string().replacen(&var, key, 1), set.to_string());
                    assert_eq!(format!("{by_key:?}"), format!("{:?}", base()), "{key}={value:?}");
                }
                (env, set) => panic!("{key}={value:?}: env gave {env:?}, set gave {set:?}"),
            }
        }
    }
}
