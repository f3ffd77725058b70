//! Property: any seeded fault plan with rate below saturation and a
//! sufficient retry budget recovers to the exact fault-free output.

use ompss_chaos::{chaos_run, output_of, run_app};
use ompss_runtime::{FaultPlan, RuntimeConfig};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn any_seeded_plan_recovers_bit_identically(seed in 0u64..1_000_000, rate_milli in 0u64..=200) {
        let rate = rate_milli as f64 / 1000.0;
        let cfg = RuntimeConfig::gpu_cluster(2);
        let reference = output_of(&run_app("stream", cfg.clone())).to_vec();
        let run = chaos_run("stream", cfg, FaultPlan::new(seed, rate));
        prop_assert_eq!(output_of(&run), reference.as_slice());
    }
}
