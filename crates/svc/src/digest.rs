//! Content-addressed submission digests.
//!
//! Two submissions that would execute the *same run* must map to the same
//! digest, so the service can return the already-running (or completed) run
//! instead of burning a worker on a duplicate. The dedup key is defined as
//! the FNV-1a 64 hash of the **canonical JSON** of:
//!
//! ```text
//! { "flow": <FlowConfig>, "optimizer": <OptimizerConfig>,
//!   "problem": <problem id>, "seed": <seed> }
//! ```
//!
//! where canonical JSON sorts every object's keys recursively and uses the
//! vendored `serde_json`'s compact rendering (shortest-round-trip floats, so
//! the text is bit-stable). Hashing the *whole serialized value* rather than
//! a hand-picked field list means a future `FlowConfig` field is covered
//! automatically — and the field-inventory tests below fail loudly if the
//! serialized shape changes, forcing this module's documentation (and the
//! dedup-compatibility story) to be revisited.
//!
//! The digest is computed **after** seed normalisation (the submitted seed
//! is pushed into `ga.seed`, `monte_carlo.seed`, and the optimizer — same
//! semantics as `FlowBuilder::with_seed`), so `{"seed": 7}` and a full flow
//! spelling of the same run collapse to one key.
//!
//! **Retired keys.** Deleting a `FlowConfig` field would change every
//! digest, and with it every key the result cache and the dedup index
//! hold. So the deleted field's key goes on `RETIRED_FLOW_KEYS`, and a flow
//! value that lacks it hashes it as `null`, the value it had in every
//! submission that did not set it: each key computed before the deletion
//! stays valid. A model-version bump changes every key anyway and can
//! empty the list.

use serde::{Serialize, Value};

/// Keys of deleted `FlowConfig` fields, hashed as `null` when absent (see
/// the module docs).
const RETIRED_FLOW_KEYS: [&str; 1] = ["eval_cache"];

/// Returns a copy of `value` with every object's keys sorted recursively.
///
/// The vendored `serde::Value::Object` is an *ordered* list of pairs, so two
/// semantically identical objects can differ in pair order; canonicalisation
/// erases that difference before hashing.
pub fn canonical_value(value: &Value) -> Value {
    match value {
        Value::Array(items) => Value::Array(items.iter().map(canonical_value).collect()),
        Value::Object(pairs) => {
            let mut sorted: Vec<(String, Value)> = pairs
                .iter()
                .map(|(k, v)| (k.clone(), canonical_value(v)))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            Value::Object(sorted)
        }
        other => other.clone(),
    }
}

/// Renders a value's canonical JSON text (sorted keys, compact).
pub fn canonical_json(value: &Value) -> String {
    serde_json::to_string(&canonical_value(value)).expect("canonical json render")
}

/// FNV-1a 64 over a byte string.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Computes the dedup digest from already-serialized config values.
///
/// This is the layer the stability tests drive: it accepts raw [`Value`]s so
/// a test can mutate individual fields without constructing impossible typed
/// configs.
pub fn submission_digest_value(problem: &str, seed: u64, optimizer: &Value, flow: &Value) -> u64 {
    let mut flow = flow.clone();
    if let Value::Object(pairs) = &mut flow {
        for key in RETIRED_FLOW_KEYS {
            if !pairs.iter().any(|(k, _)| k == key) {
                pairs.push((key.to_string(), Value::Null));
            }
        }
    }
    let envelope = Value::Object(vec![
        ("flow".to_string(), flow),
        ("optimizer".to_string(), optimizer.clone()),
        ("problem".to_string(), Value::Str(problem.to_string())),
        ("seed".to_string(), seed.to_value()),
    ]);
    fnv1a64(canonical_json(&envelope).as_bytes())
}

/// Computes the dedup digest of a typed submission.
pub fn submission_digest<O: Serialize, F: Serialize>(
    problem: &str,
    seed: u64,
    optimizer: &O,
    flow: &F,
) -> u64 {
    submission_digest_value(problem, seed, &optimizer.to_value(), &flow.to_value())
}

/// Renders a digest as the fixed-width hex string stored in run manifests.
pub fn digest_hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// Parses a manifest's hex digest back to the integer key.
pub fn parse_digest_hex(text: &str) -> Option<u64> {
    (text.len() == 16).then(|| u64::from_str_radix(text, 16).ok())?
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayb_core::FlowConfig;
    use ayb_moo::{GaConfig, OptimizerConfig};

    /// The problem id every current submission uses (one testbench today;
    /// the field exists so a second problem cannot collide with the first).
    const PROBLEM: &str = "ota";

    /// The submission `{"seed": seed}` on `flow` with the default WBGA, as
    /// the service normalises it.
    fn submission(mut flow: FlowConfig, seed: u64) -> (FlowConfig, OptimizerConfig, u64) {
        flow.ga.seed = seed;
        flow.monte_carlo.seed = seed;
        let optimizer = OptimizerConfig::Wbga(flow.ga).with_seed(seed);
        let digest = submission_digest(PROBLEM, seed, &optimizer, &flow);
        (flow, optimizer, digest)
    }

    fn baseline() -> (FlowConfig, OptimizerConfig, u64) {
        submission(FlowConfig::reduced(), 42)
    }

    /// Recursively reverses object pair order — a worst-case reordering.
    fn reversed(value: &Value) -> Value {
        match value {
            Value::Array(items) => Value::Array(items.iter().map(reversed).collect()),
            Value::Object(pairs) => Value::Object(
                pairs
                    .iter()
                    .rev()
                    .map(|(k, v)| (k.clone(), reversed(v)))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn digest_is_invariant_under_field_reordering() {
        let (flow, optimizer, digest) = baseline();
        let shuffled_flow = reversed(&flow.to_value());
        let shuffled_opt = reversed(&optimizer.to_value());
        assert_eq!(
            submission_digest_value(PROBLEM, 42, &shuffled_opt, &shuffled_flow),
            digest
        );
    }

    #[test]
    fn digest_is_invariant_under_a_json_round_trip() {
        let (flow, optimizer, digest) = baseline();
        let flow_rt: Value = serde_json::from_str(&serde_json::to_string(&flow).unwrap()).unwrap();
        let opt_rt: Value =
            serde_json::from_str(&serde_json::to_string(&optimizer).unwrap()).unwrap();
        assert_eq!(
            submission_digest_value(PROBLEM, 42, &opt_rt, &flow_rt),
            digest
        );
    }

    #[test]
    fn digest_changes_for_every_flow_config_field() {
        // Table-driven over the *actual* serialized keys: a FlowConfig field
        // added in a future PR is automatically included, so forgetting to
        // think about its dedup impact fails this test, not production.
        let (flow, optimizer, digest) = baseline();
        let Value::Object(pairs) = flow.to_value() else {
            panic!("FlowConfig must serialize as an object");
        };
        let opt_value = optimizer.to_value();
        assert!(!pairs.is_empty());
        for (index, (key, _)) in pairs.iter().enumerate() {
            let mut mutated = pairs.clone();
            mutated[index].1 = Value::Str("__mutated__".to_string());
            let mutated_digest =
                submission_digest_value(PROBLEM, 42, &opt_value, &Value::Object(mutated));
            assert_ne!(
                mutated_digest, digest,
                "mutating flow field `{key}` did not change the digest — \
                 the field is not covered by the dedup key"
            );
        }
    }

    #[test]
    fn digest_changes_for_every_ga_config_field() {
        let (flow, optimizer, digest) = baseline();
        let Value::Object(flow_pairs) = flow.to_value() else {
            panic!("FlowConfig must serialize as an object");
        };
        let ga_index = flow_pairs.iter().position(|(k, _)| k == "ga").unwrap();
        let Value::Object(ga_pairs) = flow_pairs[ga_index].1.clone() else {
            panic!("GaConfig must serialize as an object");
        };
        for (index, (key, _)) in ga_pairs.iter().enumerate() {
            let mut mutated_ga = ga_pairs.clone();
            mutated_ga[index].1 = Value::Str("__mutated__".to_string());
            let mut mutated_flow = flow_pairs.clone();
            mutated_flow[ga_index].1 = Value::Object(mutated_ga);
            let mutated_digest = submission_digest_value(
                PROBLEM,
                42,
                &optimizer.to_value(),
                &Value::Object(mutated_flow),
            );
            assert_ne!(
                mutated_digest, digest,
                "mutating ga field `{key}` did not change the digest"
            );
        }
    }

    #[test]
    fn keys_computed_while_flow_config_had_eval_cache_still_hold() {
        // What `serve-http` returned for `{"seed": 42}` and
        // `{"seed": 42, "scale": "paper"}` before `eval_cache` was deleted.
        assert_eq!(digest_hex(baseline().2), "8993e2ec1c97a525");
        let (_, _, paper) = submission(FlowConfig::paper_scale(), 42);
        assert_eq!(digest_hex(paper), "5d88cd4bf357348d");
    }

    #[test]
    fn flow_config_field_inventory_is_what_this_module_documents() {
        // If this fails, a FlowConfig field was added/renamed: check that the
        // dedup key still means "same run", then update this inventory.
        let Value::Object(pairs) = FlowConfig::reduced().to_value() else {
            panic!("FlowConfig must serialize as an object");
        };
        let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            vec![
                "ga",
                "max_pareto_points",
                "monte_carlo",
                "shard_size",
                "sharded",
                "sigma_level",
                "solver",
                "sweep",
                "testbench",
                "threads",
                "transport",
                "variation",
                "variation_batch",
            ]
        );
    }

    #[test]
    fn ga_config_field_inventory_is_stable() {
        let Value::Object(pairs) = GaConfig::small_test().to_value() else {
            panic!("GaConfig must serialize as an object");
        };
        let mut keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        assert_eq!(
            keys,
            vec![
                "crossover_rate",
                "early_stop",
                "elitism",
                "generations",
                "mutation_rate",
                "mutation_sigma",
                "population_size",
                "seed",
                "tournament_size",
            ]
        );
    }

    #[test]
    fn digest_changes_with_seed_problem_and_optimizer_variant() {
        let (flow, optimizer, digest) = baseline();
        assert_ne!(submission_digest(PROBLEM, 43, &optimizer, &flow), digest);
        assert_ne!(submission_digest("ota2", 42, &optimizer, &flow), digest);
        let nsga2 = OptimizerConfig::Nsga2(flow.ga).with_seed(42);
        assert_ne!(submission_digest(PROBLEM, 42, &nsga2, &flow), digest);
        let random = OptimizerConfig::RandomSearch {
            budget: 64,
            seed: 42,
        };
        assert_ne!(submission_digest(PROBLEM, 42, &random, &flow), digest);
    }

    #[test]
    fn hex_form_round_trips() {
        let (_, _, digest) = baseline();
        assert_eq!(parse_digest_hex(&digest_hex(digest)), Some(digest));
        assert_eq!(parse_digest_hex("nope"), None);
        assert_eq!(parse_digest_hex(""), None);
    }
}
