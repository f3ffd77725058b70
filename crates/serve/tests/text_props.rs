//! Text input never panics. Every runtime key goes through
//! `RuntimeConfig::set`, and serve's three runtime keys through
//! `JobSpec::parse` (as a raw JSON value and as a JSON string), on
//! strings of number-like fragments, whitespace and non-ASCII text.

use ompss_json::Json;
use ompss_runtime::{RunError, RuntimeConfig};
use ompss_serve::JobSpec;
use proptest::prelude::*;

const FRAGMENTS: [&str; 22] = [
    "0", "1", "2", "9", "42", ".", "-", "+", "@", "e", "E", "NaN", "inf", " ", "\t", "\n", "é",
    "\u{0}", "\u{ff10}", "\u{663}", "true", "off",
];

const EDGES: [&str; 7] =
    ["", "-0", "18446744073709551616", "1@", "@5", "1@18446744073709552", "1e400"];

fn text() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(0..FRAGMENTS.len(), 0..8)
            .prop_map(|ix| ix.into_iter().map(|i| FRAGMENTS[i]).collect::<String>()),
        (0..EDGES.len()).prop_map(|i| EDGES[i].to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn text_input_is_a_value_or_an_error_never_a_panic(value in text()) {
        for key in RuntimeConfig::keys() {
            let mut cfg = RuntimeConfig::gpu_cluster(3);
            match cfg.set(key, &value) {
                Ok(()) | Err(RunError::InvalidConfig { .. }) => {}
                Err(e) => prop_assert!(false, "{key}={value:?}: {e}"),
            }
        }
        for key in ["sched_seed", "fault_rate", "fault_seed"] {
            let quoted = Json::object().field("app", "stream").field(key, value.as_str());
            for spec in [format!(r#"{{"app":"stream","{key}":{value}}}"#), quoted.to_compact_string()] {
                // `Ok` or `SpecError` by type: reaching the end is the property.
                let _ = JobSpec::parse(&spec);
            }
        }
    }
}
