//! The conventional simulation-based baseline.
//!
//! The paper's headline claim is a large reduction in simulation time and
//! effort compared with "conventional simulation based approaches" — flows
//! that keep the transistor-level netlist in the loop and evaluate yield by
//! Monte Carlo for every candidate (e.g. HOLMES, paper ref. \[5\], which needed
//! 7 hours against the proposed 4 for the same OTA). This module implements
//! that baseline so the speed-up section of the paper report
//! ([`crate::report::render_flow_report`]) can measure both sides:
//!
//! * per-candidate cost of a transistor-level Monte Carlo yield estimate
//!   versus a single behavioural-model lookup, and
//! * per-evaluation cost of the transistor-level filter versus the
//!   behavioural (macromodel) filter.

use crate::config::FlowConfig;
use crate::ota_problem::measure_testbench;
use crate::verify::YieldReport;
use ayb_behavioral::{CombinedOtaModel, FilterSpec, OtaSpec};
use ayb_circuit::filter::FilterParameters;
use ayb_circuit::ota::{build_open_loop_testbench, OtaParameters};
use ayb_process::{montecarlo, yield_estimate, MonteCarloConfig};
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Timing comparison between the conventional and model-based approaches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApproachComparison {
    /// Wall-clock time of the conventional (transistor Monte Carlo) evaluation.
    pub conventional: Duration,
    /// Wall-clock time of the model-based evaluation.
    pub model_based: Duration,
    /// Yield estimated by the conventional approach (0–1).
    pub conventional_yield: f64,
    /// Yield predicted by the behavioural model (0–1).
    pub model_yield: f64,
}

impl ApproachComparison {
    /// Speed-up factor of the model-based approach.
    pub fn speedup(&self) -> f64 {
        let model = self.model_based.as_secs_f64().max(1e-9);
        self.conventional.as_secs_f64() / model
    }
}

/// Conventional approach: estimate the yield of one OTA design by
/// transistor-level Monte Carlo (the expensive inner loop of a
/// simulation-in-the-loop flow).
///
/// Returns `None` if the nominal circuit cannot be built.
pub fn conventional_ota_yield(
    params: &OtaParameters,
    spec: &OtaSpec,
    config: &FlowConfig,
    samples: usize,
    seed: u64,
) -> Option<YieldReport> {
    let circuit = build_open_loop_testbench(params, &config.testbench).ok()?;
    let sweep = config.sweep.clone();
    let mc = MonteCarloConfig::new(samples, seed);
    let run = montecarlo::run(&circuit, &config.variation, &mc, |sample| {
        measure_testbench(sample, &sweep).map(|p| (p.gain_db, p.phase_margin_deg))
    });
    let yield_fraction = yield_estimate(&run.values, |&(g, pm)| spec.is_met(g, pm))?;
    Some(YieldReport {
        yield_fraction,
        samples: run.values.len(),
        failed_samples: run.failed_samples,
    })
}

/// Model-based approach: the yield prediction is a pair of table lookups — if
/// the retargeted design exists in the model, the specification is met at the
/// process extremes and the predicted parametric yield is 100 %; if the
/// specification lies outside what the front can deliver, the prediction is
/// 0 % (the designer must relax the spec or change topology).
pub fn model_based_ota_yield(model: &CombinedOtaModel, spec: &OtaSpec) -> f64 {
    match model.design_for_spec(spec) {
        Ok(_) => 1.0,
        Err(_) => 0.0,
    }
}

/// Runs both approaches on the same specification and measures their cost.
///
/// `samples` controls the conventional Monte Carlo size (the paper uses 500
/// for verification runs). Returns `None` if the conventional path cannot
/// simulate the nominal design.
pub fn compare_approaches(
    model: &CombinedOtaModel,
    nominal: &OtaParameters,
    spec: &OtaSpec,
    config: &FlowConfig,
    samples: usize,
    seed: u64,
) -> Option<ApproachComparison> {
    let t0 = Instant::now();
    let conventional = conventional_ota_yield(nominal, spec, config, samples, seed)?;
    let conventional_time = t0.elapsed();

    let t1 = Instant::now();
    let model_yield = model_based_ota_yield(model, spec);
    let model_time = t1.elapsed();

    Some(ApproachComparison {
        conventional: conventional_time,
        model_based: model_time,
        conventional_yield: conventional.yield_fraction,
        model_yield,
    })
}

/// Per-evaluation cost probe of the report's speed-up section: one behavioural
/// filter evaluation versus one transistor-level filter evaluation of the same
/// sizing. Returns `(behavioural, transistor)` durations, or `None` when
/// either simulation fails.
pub fn filter_evaluation_cost(
    capacitors: &FilterParameters,
    ota_params: &OtaParameters,
    model_gain_db: f64,
    model_pm_deg: f64,
    model_unity_hz: f64,
    config: &FlowConfig,
) -> Option<(Duration, Duration)> {
    use ayb_behavioral::filter::{filter_sweep, simulate_macromodel_filter};
    use ayb_behavioral::OtaBehavior;

    let behavior = OtaBehavior::new(model_gain_db, model_pm_deg, model_unity_hz);
    let macro_spec = behavior.to_macro_spec(config.testbench.cload);

    let t0 = Instant::now();
    simulate_macromodel_filter(capacitors, &macro_spec, &filter_sweep()).ok()?;
    let behavioural = t0.elapsed();

    let t1 = Instant::now();
    crate::filter_design::simulate_transistor_filter(
        capacitors,
        ota_params,
        &FilterSpec::anti_aliasing_1mhz(),
        config,
        &filter_sweep(),
    )?;
    let transistor = t1.elapsed();
    Some((behavioural, transistor))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_is_ratio_of_durations() {
        let cmp = ApproachComparison {
            conventional: Duration::from_millis(400),
            model_based: Duration::from_millis(2),
            conventional_yield: 1.0,
            model_yield: 1.0,
        };
        assert!((cmp.speedup() - 200.0).abs() < 1.0);
    }

    #[test]
    fn conventional_yield_runs_on_tiny_sample_count() {
        let mut config = FlowConfig::reduced();
        config.sweep = ayb_sim::FrequencySweep::logarithmic(10.0, 1e9, 4);
        let report = conventional_ota_yield(
            &OtaParameters::nominal(),
            &OtaSpec::new(30.0, 40.0),
            &config,
            6,
            1,
        )
        .expect("yield runs");
        assert!(report.samples > 0);
        assert!(report.yield_fraction >= 0.5);
    }
}
