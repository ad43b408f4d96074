//! Per-layer probes for traced runs: the workload's own candidates, Pareto
//! points, results and run directories, fed through the layers' public
//! functions one call at a time.

use crate::host::{self, MB};
use crate::stats::median;
use crate::{timed, Outcome};
use ayb_circuit::ota::build_open_loop_testbench;
use ayb_core::{measure_testbench_with, point_mc_seed, FlowConfig, FlowResult, OtaSizingProblem};
use ayb_moo::SizingProblem;
use ayb_process::montecarlo;
use ayb_sim::{ac_analysis_with, dc_operating_point_with, DcOptions, MnaLayout};
use ayb_store::RunHandle;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::collections::HashSet;
use std::path::Path;

/// Threads the probes may use, as many as the workloads use.
const THREADS: usize = 2;
/// Monte Carlo samples per probed Pareto point (the paper's 200).
const MC_SAMPLES: usize = 200;
/// Candidates timed through the simulation probes.
const SIM_CANDIDATES: usize = 200;
/// Pareto points timed through the Monte Carlo probe.
const MC_POINTS: usize = 12;
/// Perturbed circuits timed one by one per probed point.
const MC_SINGLE: usize = 20;
/// Batches timed through the optimiser's batch evaluation.
const BATCHES: usize = 10;
/// Archive entries in the decode document built from a result.
const DECODE_ARCHIVE: usize = 2000;

fn problem(config: &FlowConfig, threads: usize) -> OtaSizingProblem {
    OtaSizingProblem::new(config.testbench, config.sweep.clone())
        .with_solver(config.solver)
        .with_threads(threads)
}

/// `count` entries spread evenly over `items` (cycling when short).
fn spread<T>(items: &[T], count: usize) -> Vec<&T> {
    if items.is_empty() {
        return Vec::new();
    }
    (0..count)
        .map(|i| {
            if items.len() >= count {
                &items[i * items.len() / count]
            } else {
                &items[i % items.len()]
            }
        })
        .collect()
}

/// Exact counts and layer probes on one completed flow result: the sim,
/// circuit, process and moo layers, the digest, and the JSON codec. `json`
/// is an on-disk result document to decode; without one, a document is
/// built from the result's archive.
pub fn flow(result: &FlowResult, config: &FlowConfig, json: Option<&str>, out: &mut Outcome) {
    out.layer("sim.evals", result.optimization.evaluations as f64);
    out.layer(
        "sim.mc_samples",
        (result.timings.mc_points * config.monte_carlo.samples) as f64,
    );
    let distinct: HashSet<Vec<u64>> = result
        .archive
        .iter()
        .map(|e| e.parameters.iter().map(|p| p.to_bits()).collect())
        .collect();
    if !result.archive.is_empty() {
        out.layer(
            "moo.repeat_share",
            1.0 - distinct.len() as f64 / result.archive.len() as f64,
        );
    }
    let digest_ms: Vec<f64> = (0..5)
        .map(|_| timed(|| result.determinism_digest()).1 * 1e3)
        .collect();
    out.layer("core.digest_ms", median(&digest_ms));

    let single = problem(config, 1);
    let mut eval_us = Vec::new();
    let mut build_us = Vec::new();
    let mut dc_us = Vec::new();
    let mut ac_us = Vec::new();
    for candidate in spread(&result.archive, SIM_CANDIDATES) {
        let genes = &candidate.parameters;
        eval_us.push(timed(|| single.evaluate(genes)).1 * 1e6);
        let Some(params) = single.ota_parameters(genes) else {
            continue;
        };
        let (circuit, build) = timed(|| build_open_loop_testbench(&params, &config.testbench));
        build_us.push(build * 1e6);
        let Ok(circuit) = circuit else {
            continue;
        };
        let layout = MnaLayout::new(&circuit);
        let (op, dc) =
            timed(|| dc_operating_point_with(&circuit, &layout, &DcOptions::new(), config.solver));
        dc_us.push(dc * 1e6);
        if let Ok(op) = op {
            let ac =
                timed(|| ac_analysis_with(&circuit, &layout, &op, &config.sweep, config.solver)).1;
            ac_us.push(ac * 1e6);
        }
    }
    let eval_p50 = median(&eval_us);
    out.layer("sim.eval_us_p50", eval_p50);
    out.layer("sim.dc_us_p50", median(&dc_us));
    out.layer("sim.ac_us_p50", median(&ac_us));
    out.layer("circuit.build_us_p50", median(&build_us));

    monte_carlo(result, config, &single, out);

    let parallel = problem(config, THREADS);
    let population = config.ga.population_size.max(1);
    let pool: Vec<Vec<f64>> = result
        .archive
        .iter()
        .map(|e| e.parameters.clone())
        .collect();
    let mut batch_ms = Vec::new();
    for b in 0..BATCHES {
        if pool.is_empty() {
            break;
        }
        let batch: Vec<Vec<f64>> = (0..population)
            .map(|i| pool[(b * population + i) % pool.len()].clone())
            .collect();
        batch_ms.push(timed(|| parallel.evaluate_batch(&batch)).1 * 1e3);
    }
    let batch_p50 = median(&batch_ms);
    out.layer("moo.batch_ms_p50", batch_p50);
    if batch_p50 > 0.0 {
        out.layer(
            "moo.fanout_share",
            population as f64 * eval_p50 / 1e3 / (THREADS as f64 * batch_p50),
        );
    }

    let (pretty, encode_s) = timed(|| serde_json::to_string_pretty(result));
    if let Ok(pretty) = pretty {
        out.layer("json.encode_mb_s", pretty.len() as f64 / MB / encode_s);
    }
    let built;
    let document = match json {
        Some(text) => text,
        None => {
            let cap = result.archive.len().min(DECODE_ARCHIVE);
            built = serde_json::to_string_pretty(&result.archive[..cap]).unwrap_or_default();
            &built
        }
    };
    let (decoded, decode_s) = timed(|| serde_json::from_str::<Value>(document));
    if decoded.is_ok() {
        out.layer("json.decode_mb_s", document.len() as f64 / MB / decode_s);
    } else {
        out.fail("json probe document does not parse");
    }
}

/// `process.mc_point_ms_p50` and `process.mc_useful_share` on the result's
/// Pareto points.
fn monte_carlo(
    result: &FlowResult,
    config: &FlowConfig,
    single: &OtaSizingProblem,
    out: &mut Outcome,
) {
    let mut mc = config.monte_carlo;
    mc.samples = MC_SAMPLES;
    let sweep = &config.sweep;
    let solver = config.solver;
    let mut point_ms = Vec::new();
    let mut useful = Vec::new();
    for (index, point) in spread(&result.pareto, MC_POINTS).into_iter().enumerate() {
        let Some(params) = single.ota_parameters(&point.parameters) else {
            continue;
        };
        let Ok(circuit) = build_open_loop_testbench(&params, &config.testbench) else {
            continue;
        };
        mc.seed = point_mc_seed(config.monte_carlo.seed, index);
        let point_s = timed(|| {
            montecarlo::run_parallel(&circuit, &config.variation, &mc, THREADS, |sample| {
                measure_testbench_with(sample, sweep, solver).map(|p| p.gain_db)
            })
        })
        .1;
        point_ms.push(point_s * 1e3);
        let mut rng = StdRng::seed_from_u64(mc.seed);
        let one: Vec<f64> = (0..MC_SINGLE)
            .map(|_| {
                let sample =
                    montecarlo::perturb_circuit(&circuit, &config.variation, &mc, &mut rng);
                timed(|| measure_testbench_with(&sample, sweep, solver)).1
            })
            .collect();
        useful.push(MC_SAMPLES as f64 * median(&one) / (THREADS as f64 * point_s));
    }
    out.layer("process.mc_point_ms_p50", median(&point_ms));
    out.layer("process.mc_useful_share", median(&useful));
}

/// What one completed durable run left on disk, per run: checkpoint files
/// and bytes, result bytes, event lines and bytes.
#[derive(Default, Clone, Copy)]
pub struct RunFiles {
    pub checkpoint_files: f64,
    pub checkpoint_mb: f64,
    pub result_mb: f64,
    pub events: f64,
    pub events_kb: f64,
}

impl RunFiles {
    pub fn of(dir: &Path) -> RunFiles {
        let events = std::fs::read_to_string(dir.join("events.jsonl")).unwrap_or_default();
        RunFiles {
            checkpoint_files: host::file_count(&dir.join("checkpoints")) as f64,
            checkpoint_mb: host::dir_bytes(&dir.join("checkpoints")) as f64 / MB,
            result_mb: std::fs::metadata(dir.join("result.json"))
                .map_or(0.0, |m| m.len() as f64 / MB),
            events: events.lines().count() as f64,
            events_kb: events.len() as f64 / 1024.0,
        }
    }

    /// The mean over `runs`.
    pub fn mean(runs: &[RunFiles]) -> RunFiles {
        let n = runs.len().max(1) as f64;
        let sum = |f: fn(&RunFiles) -> f64| runs.iter().map(f).sum::<f64>() / n;
        RunFiles {
            checkpoint_files: sum(|r| r.checkpoint_files),
            checkpoint_mb: sum(|r| r.checkpoint_mb),
            result_mb: sum(|r| r.result_mb),
            events: sum(|r| r.events),
            events_kb: sum(|r| r.events_kb),
        }
    }

    pub fn record(&self, out: &mut Outcome) {
        out.layer("store.checkpoint_files", self.checkpoint_files);
        out.layer("store.checkpoint_mb", self.checkpoint_mb);
        out.layer("store.result_mb", self.result_mb);
        out.layer("obs.events", self.events);
        out.layer("obs.events_kb", self.events_kb);
    }
}

/// `obs.read_events_ms`: median time to parse one run's event log.
pub fn read_events(handle: &RunHandle, out: &mut Outcome) {
    let ms: Vec<f64> = (0..5)
        .map(|_| {
            let (events, took) = timed(|| ayb_obs::read_events(&handle.events_path()));
            if events.is_err() {
                out.fail(format!("events of run {} do not parse", handle.id()));
            }
            took * 1e3
        })
        .collect();
    out.layer("obs.read_events_ms", median(&ms));
}

/// Exact shard-plane counts from a flow's timings.
pub fn net_counts(result: &FlowResult, run_s: f64, out: &mut Outcome) {
    let timings = &result.timings;
    out.layer("net.requests", timings.shard_requests as f64);
    out.layer("net.fenced", timings.shards_fenced as f64);
    out.layer("net.degraded", timings.shards_degraded as f64);
    if run_s > 0.0 {
        out.layer("net.wait_share", timings.shard_request_seconds / run_s);
    }
}
