//! The checkpoint stream of every optimiser, pinned byte for byte.
//!
//! `fixtures/checkpoint_stream.jsonl` holds one line per optimiser
//! configuration: the configuration itself, the `next_generation` and the
//! FNV-1a 64 digest of the compact JSON of every checkpoint a fresh run
//! emits, the number of generations it records, the digest of its final
//! `OptimizationResult`, and one mid-run checkpoint in full. A durable run
//! persists exactly this stream and resumes from it, so any change to the
//! generation loop must reproduce it: a run interrupted under an earlier
//! build then resumes to the same result under this one.
//!
//! The configurations cover WBGA and NSGA-II (with and without early
//! stopping, which fires on this problem), and random search over three
//! full chunks plus a partial tail — its `next_generation` counts completed
//! chunks, the GAs' counts bred generations. The problem has an infeasible
//! region, so the failure counters move too.

use ayb_moo::{
    Checkpoint, CheckpointControl, DiscardCheckpoints, FnProblem, ObjectiveSpec, OptimizerConfig,
};
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize)]
struct Pinned {
    next_generation: usize,
    fnv: String,
}

#[derive(Serialize, Deserialize)]
struct VariantStream {
    label: String,
    optimizer: OptimizerConfig,
    checkpoints: Vec<Pinned>,
    generations_run: usize,
    result: String,
    resume_from: Checkpoint,
}

fn fixture() -> Vec<VariantStream> {
    include_str!("fixtures/checkpoint_stream.jsonl")
        .lines()
        .map(|line| serde_json::from_str(line).expect("fixture line parses"))
        .collect()
}

fn fnv1a64(text: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{hash:016x}")
}

fn digest<T: Serialize>(value: &T) -> String {
    fnv1a64(&serde_json::to_string(value).expect("serializes"))
}

/// Two parameters, a quantised trade-off (so the front saturates and early
/// stopping fires) and an infeasible band at `x[1] > 0.9`.
fn problem() -> FnProblem<impl Fn(&[f64]) -> Option<Vec<f64>> + Sync> {
    FnProblem::new(
        2,
        vec![ObjectiveSpec::maximize("f1"), ObjectiveSpec::minimize("f2")],
        |x: &[f64]| {
            if x[1] > 0.9 {
                return None;
            }
            let f1 = (x[0] * 8.0).floor() / 8.0;
            Some(vec![f1, f1 * f1 + (x[1] * 4.0).floor() / 16.0])
        },
    )
}

#[test]
fn every_optimizer_reproduces_its_pinned_checkpoint_stream() {
    let problem = problem();
    let variants = fixture();
    assert_eq!(variants.len(), 5);
    for variant in variants {
        let label = &variant.label;
        let mut stream = Vec::new();
        let mut sink = |checkpoint: &Checkpoint| {
            stream.push(Pinned {
                next_generation: checkpoint.next_generation,
                fnv: digest(checkpoint),
            });
            CheckpointControl::Continue
        };
        let result = variant
            .optimizer
            .run_checkpointed(&problem, None, &mut sink)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let emitted: Vec<(usize, &str)> = stream
            .iter()
            .map(|p| (p.next_generation, p.fnv.as_str()))
            .collect();
        let pinned: Vec<(usize, &str)> = variant
            .checkpoints
            .iter()
            .map(|p| (p.next_generation, p.fnv.as_str()))
            .collect();
        assert_eq!(emitted, pinned, "{label}: checkpoint stream");
        assert_eq!(result.history.len(), variant.generations_run, "{label}");
        assert_eq!(digest(&result), variant.result, "{label}: result");
        assert_eq!(
            digest(&variant.optimizer.run(&problem)),
            variant.result,
            "{label}: plain run"
        );
    }
}

#[test]
fn a_pinned_mid_run_checkpoint_resumes_to_the_pinned_result() {
    let problem = problem();
    for variant in fixture() {
        let label = &variant.label;
        let generation = variant.resume_from.next_generation;
        assert!(
            variant
                .checkpoints
                .iter()
                .any(|p| p.next_generation == generation && p.fnv == digest(&variant.resume_from)),
            "{label}: the full checkpoint is one of the pinned stream"
        );
        let resumed = variant
            .optimizer
            .run_checkpointed(&problem, Some(variant.resume_from), &mut DiscardCheckpoints)
            .unwrap_or_else(|e| panic!("{label}: resume from {generation} failed: {e}"));
        assert_eq!(digest(&resumed), variant.result, "{label}: resumed result");
    }
}
