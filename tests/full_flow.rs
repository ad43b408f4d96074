//! End-to-end integration test of the paper's flow at reduced scale:
//! optimisation → Pareto front → Monte Carlo variation → combined model
//! → retargeting → transistor-level verification, plus the one-call /
//! staged FlowBuilder equivalence and optimiser-interchangeability
//! contracts.

use ayb_core::{
    report, verify_accuracy, verify_ota_yield, FlowBuilder, FlowConfig, FlowObserver, FlowStage,
};
use ayb_moo::{dominates, GaConfig, OptimizerConfig, Sense};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn reduced_config() -> FlowConfig {
    let mut config = FlowConfig::reduced();
    // Keep the integration test fast: tiny sweep, few MC samples.
    config.sweep = ayb_sim::FrequencySweep::logarithmic(10.0, 1e9, 4);
    config.monte_carlo.samples = 10;
    config.max_pareto_points = 8;
    config
}

#[test]
fn flow_produces_model_with_paper_shaped_artifacts() {
    let config = reduced_config();
    let result = FlowBuilder::new(config.clone())
        .run()
        .expect("flow completes at reduced scale");

    // Figure 7: archive of evaluated candidates plus a non-empty Pareto front.
    assert!(
        result.archive.len() >= 80,
        "archive = {}",
        result.archive.len()
    );
    assert!(!result.pareto.is_empty());
    // The front must consist of mutually non-dominated points.
    let senses = [Sense::Maximize, Sense::Maximize];
    for a in &result.pareto {
        for b in &result.pareto {
            assert!(
                !dominates(&a.objectives, &b.objectives, &senses) || a.objectives == b.objectives,
                "pareto front contains a dominated point"
            );
        }
    }
    // Performance values must lie in a physically sensible range.
    for e in &result.archive {
        assert!(
            (0.0..120.0).contains(&e.objectives[0]),
            "gain {}",
            e.objectives[0]
        );
        assert!(
            (0.0..180.0).contains(&e.objectives[1]),
            "pm {}",
            e.objectives[1]
        );
    }

    // Table 2: every analysed Pareto point carries positive variation figures.
    assert!(result.pareto_data.len() >= 3);
    for p in &result.pareto_data {
        assert!(p.gain_delta_percent >= 0.0 && p.gain_delta_percent < 50.0);
        assert!(p.pm_delta_percent >= 0.0 && p.pm_delta_percent < 50.0);
        assert!(p.parameters.len() == 8, "8 designable parameters per point");
    }

    // Table 5: the summary is consistent with the configuration.
    let summary = result.summary(&config);
    assert_eq!(summary.generations, config.ga.generations);
    assert_eq!(summary.mc_samples_per_point, config.monte_carlo.samples);
    assert!(summary.cpu_time_seconds > 0.0);

    // The report renderers accept the real flow output.
    let table2 = report::render_table2(&result.pareto_data);
    assert!(table2.lines().count() >= result.pareto_data.len());
    let fig7 = report::render_fig7_data(&result.archive, &result.pareto);
    assert!(fig7.lines().count() > result.archive.len());
}

#[test]
fn model_use_retargets_and_verifies_against_transistor_level() {
    let config = reduced_config();
    let result = FlowBuilder::new(config.clone())
        .run()
        .expect("flow completes");
    let model = &result.model;

    // Pick a specification safely inside the modelled performance region so
    // the reduced-scale model can serve it.
    let (gain_lo, gain_hi) = model.gain_range_db();
    let spec_gain = gain_lo + 0.3 * (gain_hi - gain_lo);
    let pm_at = model.pm_at_gain(spec_gain).expect("pm lookup");
    let spec = ayb_behavioral::OtaSpec::new(spec_gain, (pm_at - 8.0).max(1.0));

    let design = model.design_for_spec(&spec).expect("spec achievable");
    // Retargeting always moves the nominal performance above the requirement.
    assert!(design.retarget.new_gain_db >= spec.min_gain_db);
    assert!(design.worst_case_pm_deg >= spec.min_phase_margin_deg);

    // Table 4: transistor-level simulation of the interpolated parameters
    // agrees with the model prediction to within a few percent.
    let (accuracy, transistor) = verify_accuracy(&design, &config).expect("transistor sim runs");
    assert!(
        accuracy.gain_error_percent() < 10.0,
        "gain error {}% (model {} dB vs transistor {} dB)",
        accuracy.gain_error_percent(),
        accuracy.model_gain_db,
        accuracy.transistor_gain_db
    );
    assert!(
        accuracy.pm_error_percent() < 15.0,
        "pm error {}%",
        accuracy.pm_error_percent()
    );
    assert!(transistor.unity_gain_hz > 1e5);

    // Yield verification: the retargeted design meets the spec for most
    // process samples (the paper reports 100 %; at reduced MC size we accept
    // a small shortfall from sampling noise).
    let yield_report =
        verify_ota_yield(&design.parameters, &spec, &config, 12, 99).expect("yield runs");
    assert!(
        yield_report.yield_fraction >= 0.75,
        "yield only {}",
        yield_report.yield_fraction
    );
}

/// Counts observer callbacks so the test can assert every stage reported.
#[derive(Clone, Default)]
struct CountingObserver {
    starts: Arc<AtomicUsize>,
    completions: Arc<AtomicUsize>,
    progress_ticks: Arc<AtomicUsize>,
}

impl FlowObserver for CountingObserver {
    fn on_stage_start(&mut self, _stage: FlowStage) {
        self.starts.fetch_add(1, Ordering::Relaxed);
    }

    fn on_stage_complete(&mut self, _stage: FlowStage, _elapsed: std::time::Duration) {
        self.completions.fetch_add(1, Ordering::Relaxed);
    }

    fn on_progress(&mut self, stage: FlowStage, done: usize, total: usize) {
        assert_eq!(stage, FlowStage::AnalyzeVariation);
        assert!(done <= total);
        self.progress_ticks.fetch_add(1, Ordering::Relaxed);
    }
}

#[test]
fn builder_and_compat_wrapper_produce_identical_results() {
    let config = reduced_config();

    let via_run = FlowBuilder::new(config.clone())
        .run()
        .expect("one-call flow completes");
    let observer = CountingObserver::default();
    let via_builder = FlowBuilder::new(config.clone())
        .with_observer(observer.clone())
        .optimize()
        .expect("optimize stage")
        .analyze_variation()
        .expect("variation stage")
        .build_model()
        .expect("model stage");

    // Deterministic artifacts are identical for the same seed and config.
    assert_eq!(via_run.archive, via_builder.archive);
    assert_eq!(via_run.pareto, via_builder.pareto);
    assert_eq!(via_run.pareto_data, via_builder.pareto_data);
    assert_eq!(
        via_run.optimization.evaluations,
        via_builder.optimization.evaluations
    );
    assert_eq!(via_run.optimization.optimizer, "wbga");

    // The Table 5 summaries agree on every deterministic column (wall-clock
    // time is the only field that can differ between two runs).
    let summary_run = via_run.summary(&config).without_timing();
    let summary_builder = via_builder.summary(&config).without_timing();
    assert_eq!(summary_run, summary_builder);

    // All three stages reported through the observer, including per-point
    // Monte Carlo progress.
    assert_eq!(observer.starts.load(Ordering::Relaxed), 3);
    assert_eq!(observer.completions.load(Ordering::Relaxed), 3);
    assert!(observer.progress_ticks.load(Ordering::Relaxed) >= 3);
}

#[test]
fn every_optimizer_variant_drives_the_flow_to_a_valid_model() {
    let mut config = reduced_config();
    // Keep the per-variant runtime small; three full flows run in this test.
    config.ga = GaConfig {
        population_size: 12,
        generations: 6,
        ..config.ga
    };

    let ga = config.ga;
    let variants = [
        OptimizerConfig::Wbga(ga),
        OptimizerConfig::Nsga2(ga),
        OptimizerConfig::RandomSearch {
            budget: ga.evaluation_budget(),
            seed: ga.seed,
        },
    ];

    for variant in variants {
        let name = variant.name();
        let result = FlowBuilder::new(config.clone())
            .with_optimizer(variant)
            .run()
            .unwrap_or_else(|e| panic!("flow with {name} failed: {e}"));

        // The optimiser identity is carried through to the result.
        assert_eq!(result.optimization.optimizer, name);
        assert!(!result.archive.is_empty(), "{name}: empty archive");

        // The front is mutually non-dominated (§3.3 condition a).
        let senses = [Sense::Maximize, Sense::Maximize];
        assert!(!result.pareto.is_empty(), "{name}: empty front");
        for a in &result.pareto {
            for b in &result.pareto {
                assert!(
                    !dominates(&a.objectives, &b.objectives, &senses)
                        || a.objectives == b.objectives,
                    "{name}: front contains a dominated point"
                );
            }
        }

        // A combined model was built from ≥ 3 analysed points and serves
        // lookups over its gain range.
        assert!(result.pareto_data.len() >= 3, "{name}: too few points");
        let (gain_lo, gain_hi) = result.model.gain_range_db();
        assert!(gain_lo < gain_hi, "{name}: degenerate gain range");
        let mid = 0.5 * (gain_lo + gain_hi);
        assert!(
            result.model.pm_at_gain(mid).is_ok(),
            "{name}: model lookup fails at mid-range gain"
        );
    }
}

#[test]
fn explicit_seeding_makes_runs_reproducible_end_to_end() {
    let config = reduced_config();
    let run = |seed: u64| {
        FlowBuilder::new(config.clone())
            .with_seed(seed)
            .run()
            .expect("seeded flow completes")
    };
    let a = run(424242);
    let b = run(424242);
    assert_eq!(a.archive, b.archive);
    assert_eq!(a.pareto_data, b.pareto_data);
    let c = run(424243);
    assert_ne!(
        a.archive, c.archive,
        "different seeds must explore differently"
    );
}

#[test]
fn halt_signal_never_aborts_a_storeless_flow() {
    // A raised halt signal stops *durable* runs at resumable boundaries;
    // a store-less flow has nothing to resume from, so it must ignore the
    // signal and complete rather than discard all finished work.
    let signal = Arc::new(std::sync::atomic::AtomicBool::new(true));
    let result = FlowBuilder::new(reduced_config())
        .with_seed(17)
        .halt_when(signal)
        .run()
        .expect("store-less flow completes despite a raised halt signal");
    assert!(result.pareto_data.len() >= 3);
}
