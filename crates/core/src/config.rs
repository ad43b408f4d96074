//! Flow configuration.

use ayb_circuit::ota::OtaTestbenchConfig;
use ayb_moo::GaConfig;
use ayb_process::{MonteCarloConfig, ProcessVariation};
use ayb_sim::{FrequencySweep, SolverKind};
use serde::{Deserialize, Serialize};

/// Configuration of the complete model-generation flow (paper §3).
///
/// Manifests written before the sharding, transport, solver, batching and
/// cache fields existed still load: each absent field reads as the
/// behaviour that predates it (unsharded, the disk plane, the dense kernel,
/// one variation point per task, no cache).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowConfig {
    /// Genetic-algorithm settings for the OTA sizing optimisation (§3.2).
    pub ga: GaConfig,
    /// Monte Carlo settings applied to every Pareto point (§3.4).
    pub monte_carlo: MonteCarloConfig,
    /// Statistical process model.
    pub variation: ProcessVariation,
    /// Test-bench conditions (supply, common mode, load, servo loop).
    pub testbench: OtaTestbenchConfig,
    /// Frequency sweep used for every AC characterisation.
    pub sweep: FrequencySweep,
    /// k·σ level used to convert Monte Carlo spreads into the ±Δ% columns of
    /// Table 2 (3.0 = conventional process extremes).
    pub sigma_level: f64,
    /// Upper bound on the number of Pareto points taken through Monte Carlo
    /// analysis (the paper analyses all 1022; scaled-down runs cap this).
    pub max_pareto_points: usize,
    /// Number of worker threads for circuit evaluation: used both by the
    /// optimiser's batch candidate evaluation (via
    /// `OtaSizingProblem::with_threads`) and by the per-point Monte Carlo
    /// stage. Thread count never changes results, only wall-clock time.
    pub threads: usize,
    /// When `true` *and* the flow runs against a store, the flow's heavy
    /// stages go through the store's shard data plane: optimiser populations
    /// split into [`FlowConfig::shard_size`]-candidate evaluation shards,
    /// and the Monte Carlo variation stage (stage 4) publishes one task per
    /// analysed Pareto point — either of which any `ayb serve` worker
    /// process sharing the store, on this machine or another host, may claim
    /// and service. Sharding never changes results (shards reassemble in
    /// index order; variation points carry per-point derived seeds), only
    /// where the work is computed; without a store the flag falls back to
    /// local execution.
    #[serde(default)]
    pub sharded: bool,
    /// Maximum number of candidates per shard when [`FlowConfig::sharded`]
    /// is set (minimum 1; batches at most one shard long are evaluated
    /// locally).
    #[serde(default = "legacy_shard_size")]
    pub shard_size: usize,
    /// Where a sharded flow's data plane lives. `None` (the default) keeps
    /// shard epochs on the run store's filesystem, serviced by workers that
    /// mount the same store. `Some("tcp://host:port")` routes them through
    /// an `ayb coordinate` coordinator instead, so workers need network
    /// reachability but **no shared filesystem**. The transport never
    /// changes results — only where shard payloads travel; an unreachable
    /// coordinator degrades (noisily, via
    /// [`FlowObserver::on_transport_degraded`](crate::FlowObserver)) to
    /// local evaluation.
    #[serde(default)]
    pub transport: Option<String>,
    /// The linear-solver kernel every DC operating point and AC sweep in the
    /// flow runs on. [`SolverKind::Dense`] is the only kernel; the field
    /// stays so that manifests and submission digests record which kernel
    /// computed a run, and a manifest naming any other kernel fails to load
    /// instead of resuming on this one.
    #[serde(default)]
    pub solver: SolverKind,
    /// Number of Monte Carlo variation points carried per shard task when
    /// the sharded variation stage runs (minimum 1 = one point per task,
    /// the historical shape). Larger batches amortise task claim/commit
    /// overhead; per-point checkpoints are preserved, so batching never
    /// changes results or resumability.
    #[serde(default = "legacy_variation_batch")]
    pub variation_batch: usize,
    /// Quantization step of the in-process evaluation cache
    /// ([`ayb_moo::CachedProblem`]). `None` (the default) disables the
    /// cache; `Some(step)` memoises evaluations keyed by the parameter
    /// vector quantized at `step`, serving a hit only on bit-identical raw
    /// parameters — so the cache skips repeated solves without ever
    /// changing results or the determinism digest. Hits are reported in
    /// [`FlowTimings::eval_cache_hits`](crate::FlowTimings).
    #[serde(default)]
    pub eval_cache: Option<f64>,
}

impl FlowConfig {
    /// Full paper-scale settings: 100 × 100 WBGA (10 000 simulations),
    /// 200-sample Monte Carlo on every Pareto point (§4, Table 5).
    pub fn paper_scale() -> Self {
        FlowConfig {
            ga: GaConfig::paper_ota(),
            monte_carlo: MonteCarloConfig::new(200, 2008),
            variation: ProcessVariation::generic_035um(),
            testbench: OtaTestbenchConfig::new(),
            sweep: FrequencySweep::logarithmic(10.0, 1e9, 8),
            sigma_level: 3.0,
            max_pareto_points: usize::MAX,
            threads: 4,
            sharded: false,
            shard_size: 25,
            transport: None,
            solver: SolverKind::Dense,
            variation_batch: 8,
            eval_cache: None,
        }
    }

    /// Reduced settings for unit tests and examples: small population, few
    /// Monte Carlo samples, capped Pareto set. Produces the same artefacts in
    /// seconds instead of hours.
    pub fn reduced() -> Self {
        FlowConfig {
            ga: GaConfig {
                population_size: 14,
                generations: 8,
                crossover_rate: 0.9,
                mutation_rate: 0.12,
                mutation_sigma: 0.12,
                tournament_size: 2,
                elitism: 1,
                seed: 2008,
                early_stop: None,
            },
            monte_carlo: MonteCarloConfig::new(16, 77),
            variation: ProcessVariation::generic_035um(),
            testbench: OtaTestbenchConfig::new(),
            sweep: FrequencySweep::logarithmic(10.0, 1e9, 5),
            sigma_level: 3.0,
            max_pareto_points: 12,
            threads: 2,
            sharded: false,
            shard_size: 4,
            transport: None,
            solver: SolverKind::Dense,
            variation_batch: 3,
            eval_cache: None,
        }
    }

    /// Intermediate settings (`ayb run --scale demo`): large enough to show
    /// the paper's trends, small enough to run in seconds.
    pub fn demo_scale() -> Self {
        FlowConfig {
            ga: GaConfig {
                population_size: 40,
                generations: 25,
                ..GaConfig::paper_ota()
            },
            monte_carlo: MonteCarloConfig::new(50, 0xa5a5),
            max_pareto_points: 60,
            threads: 4,
            shard_size: 10,
            variation_batch: 4,
            ..FlowConfig::reduced()
        }
    }

    /// The preset named `scale` on the command line and in service
    /// submissions: `reduced`, `demo` or `paper`.
    ///
    /// # Errors
    ///
    /// Returns the message naming the accepted scales for any other name.
    pub fn from_scale(scale: &str) -> Result<Self, String> {
        match scale {
            "reduced" => Ok(FlowConfig::reduced()),
            "demo" => Ok(FlowConfig::demo_scale()),
            "paper" => Ok(FlowConfig::paper_scale()),
            other => Err(format!("unknown scale `{other}` (reduced|demo|paper)")),
        }
    }

    /// Returns a copy with a different optimisation seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.ga.seed = seed;
        self
    }
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig::paper_scale()
    }
}

/// `FlowConfig::shard_size` of manifests that predate it.
fn legacy_shard_size() -> usize {
    25
}

/// `FlowConfig::variation_batch` of manifests that predate it: one point
/// per shard task.
fn legacy_variation_batch() -> usize {
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_reported_budget() {
        let cfg = FlowConfig::paper_scale();
        assert_eq!(cfg.ga.evaluation_budget(), 10_000);
        assert_eq!(cfg.monte_carlo.samples, 200);
        assert_eq!(cfg.sigma_level, 3.0);
    }

    #[test]
    fn reduced_is_small() {
        let cfg = FlowConfig::reduced();
        assert!(cfg.ga.evaluation_budget() <= 200);
        assert!(cfg.monte_carlo.samples <= 32);
        assert!(cfg.max_pareto_points <= 16);
    }

    #[test]
    fn with_seed_changes_ga_seed_only() {
        let a = FlowConfig::reduced();
        let b = a.clone().with_seed(99);
        assert_ne!(a.ga.seed, b.ga.seed);
        assert_eq!(a.monte_carlo.seed, b.monte_carlo.seed);
    }

    #[test]
    fn deserializes_pre_sharding_manifest_json() {
        // A config serialized before the sharding fields existed (simulated
        // by stripping them from current JSON) must still load, defaulting
        // to unsharded evaluation — old stores stay resumable.
        let mut config = FlowConfig::reduced();
        config.sharded = true;
        config.shard_size = 7;
        config.transport = Some("tcp://127.0.0.1:4710".to_string());
        config.variation_batch = 5;
        config.eval_cache = Some(1e-9);
        let serde::Value::Object(mut pairs) = serde::Serialize::to_value(&config) else {
            panic!("FlowConfig serializes to an object");
        };
        pairs.retain(|(key, _)| {
            key != "sharded"
                && key != "shard_size"
                && key != "transport"
                && key != "solver"
                && key != "variation_batch"
                && key != "eval_cache"
        });
        let legacy = serde::Value::Object(pairs);
        let back: FlowConfig = serde::Deserialize::from_value(&legacy).expect("legacy loads");
        assert!(!back.sharded);
        assert!(back.shard_size >= 1);
        assert_eq!(back.transport, None);
        assert_eq!(back.solver, SolverKind::Dense);
        assert_eq!(back.variation_batch, 1);
        assert_eq!(back.eval_cache, None);
        assert_eq!(back.ga, config.ga);
        assert_eq!(back.threads, config.threads);

        // And the current shape round-trips unchanged.
        let roundtrip: FlowConfig =
            serde::Deserialize::from_value(&serde::Serialize::to_value(&config)).unwrap();
        assert_eq!(roundtrip, config);
    }
}
