//! Hierarchical filter design using the behavioural OTA model (paper §5).
//!
//! The application example of the paper: a 2nd-order low-pass (anti-aliasing)
//! filter is designed around the modelled OTA. The OTA is *selected* through
//! the combined model (specification → retargeted performance → design
//! parameters), the filter capacitors C1–C3 are then optimised with the same
//! WBGA machinery (30 individuals × 40 generations in the paper) against the
//! behavioural filter — never touching the transistor level — and the final
//! design is verified with a transistor-level Monte Carlo analysis.

use crate::config::FlowConfig;
use crate::flow::FlowError;
use ayb_behavioral::filter::{filter_sweep, simulate_macromodel_filter, FilterResponse};
use ayb_behavioral::{CombinedOtaModel, FilterSpec, ModelDesign, OtaBehavior, OtaSpec};
use ayb_circuit::filter::{
    build_filter_with_transistor_otas, FilterParameters, OtaMacroSpec, FILTER_OUTPUT,
};
use ayb_circuit::ota::OtaParameters;
use ayb_moo::{FnProblem, GaConfig, ObjectiveSpec, OptimizerConfig};
use ayb_process::{montecarlo, yield_estimate, MonteCarloConfig};
use ayb_sim::{ac_analysis, dc_operating_point, DcOptions, FrequencySweep};
use serde::{Deserialize, Serialize};

/// Outcome of the behavioural filter design flow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FilterDesignResult {
    /// The OTA operating point selected from the combined model.
    pub ota_design: ModelDesign,
    /// The small-signal macromodel used for the OTAs inside the filter.
    pub ota_macro: OtaMacroSpec,
    /// Optimised capacitor values.
    pub capacitors: FilterParameters,
    /// Behavioural-filter response of the final design.
    pub response: FilterResponse,
    /// Specification margin of the final design in dB (positive = met).
    pub margin_db: f64,
    /// Number of behavioural filter evaluations spent by the optimiser.
    pub evaluations: usize,
}

impl FilterDesignResult {
    /// Returns `true` when the final behavioural design meets the template.
    pub fn meets_spec(&self, spec: &FilterSpec) -> bool {
        self.response.check(spec).all_met()
    }
}

/// Designs the filter capacitors against a [`FilterSpec`] using the
/// behavioural OTA selected from `model` for `ota_spec`.
///
/// `ga` controls the capacitor optimisation (the paper uses 30 × 40);
/// `c_load` is the load capacitance assumed when converting the OTA behaviour
/// into a macromodel.
///
/// # Errors
///
/// Returns an error if the OTA specification cannot be met by the model or no
/// feasible capacitor sizing is found.
pub fn design_filter(
    model: &CombinedOtaModel,
    ota_spec: &OtaSpec,
    filter_spec: &FilterSpec,
    ga: GaConfig,
    c_load: f64,
) -> Result<FilterDesignResult, FlowError> {
    // Step 1: select the OTA through the combined model (§5: "the performance
    // and variation model was used to select OTAs that met these
    // specifications taking into account their variations").
    let ota_design = model.design_for_spec(ota_spec).map_err(FlowError::Model)?;
    let behavior = OtaBehavior::new(
        ota_design.retarget.new_gain_db,
        ota_design.nominal_pm_deg,
        ota_design.predicted_unity_gain_hz,
    );
    let ota_macro = behavior.to_macro_spec(c_load);

    // Step 2: optimise C1–C3 against the behavioural filter.
    let parameter_set = FilterParameters::parameter_set();
    let sweep = filter_sweep();
    let spec = *filter_spec;
    let macro_spec = ota_macro;
    let problem = FnProblem::new(
        parameter_set.len(),
        vec![
            ObjectiveSpec::maximize("spec_margin_db"),
            ObjectiveSpec::minimize("total_capacitance"),
        ],
        move |genes: &[f64]| {
            let point = parameter_set.denormalize(genes).ok()?;
            let params = FilterParameters::from_design_point(&point);
            let response = simulate_macromodel_filter(&params, &macro_spec, &sweep).ok()?;
            let report = response.check(&spec);
            let total_c = params.c1 + params.c2 + params.c3;
            Some(vec![report.margin_db(&spec), total_c])
        },
    );
    // The capacitor sizing runs through the same `OptimizerConfig` entry
    // point as the OTA flow, so the two optimisation stages share one code
    // path.
    let result = OptimizerConfig::Wbga(ga).run(&problem);

    // Candidate pool: every GA evaluation plus a family of analytically sized
    // Butterworth-style seeds (ideal design equations, §5). The analytic seeds
    // guarantee a sensible design even with very small GA budgets; the GA
    // refines beyond them when given a real budget.
    let mut candidates: Vec<(FilterParameters, f64, f64)> = Vec::new();
    let parameter_set = FilterParameters::parameter_set();
    for evaluation in &result.archive {
        if let Ok(point) = parameter_set.denormalize(&evaluation.parameters) {
            candidates.push((
                FilterParameters::from_design_point(&point),
                evaluation.objectives[0],
                evaluation.objectives[1],
            ));
        }
    }
    let f0_candidates = [
        1.2 * filter_spec.passband_edge_hz,
        1.5 * filter_spec.passband_edge_hz,
        1.8 * filter_spec.passband_edge_hz,
        2.2 * filter_spec.passband_edge_hz,
        2.8 * filter_spec.passband_edge_hz,
    ];
    for f0 in f0_candidates {
        let params = ayb_behavioral::filter::size_capacitors_for(
            f0,
            std::f64::consts::FRAC_1_SQRT_2,
            ota_macro.gm,
        );
        if let Ok(response) = simulate_macromodel_filter(&params, &ota_macro, &filter_sweep()) {
            let report = response.check(filter_spec);
            candidates.push((
                params,
                report.margin_db(filter_spec),
                params.c1 + params.c2 + params.c3,
            ));
        }
    }
    if candidates.is_empty() {
        return Err(FlowError::NoFeasibleCandidates);
    }

    // Step 3: pick the candidate — smallest total capacitance among those that
    // meet the template with margin; fall back to the largest margin.
    let best = candidates
        .iter()
        .filter(|c| c.1 > 0.0)
        .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
        .or_else(|| {
            candidates
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
        })
        .expect("candidate pool is non-empty");

    let capacitors = best.0;
    let response = simulate_macromodel_filter(&capacitors, &ota_macro, &filter_sweep())
        .map_err(|e| FlowError::Circuit(e.to_string()))?;
    let margin_db = response.check(filter_spec).margin_db(filter_spec);

    Ok(FilterDesignResult {
        ota_design,
        ota_macro,
        capacitors,
        response,
        margin_db,
        evaluations: result.evaluations,
    })
}

/// Transistor-level Monte Carlo yield of the completed filter design
/// (the paper's final 500-sample verification in §5).
///
/// Every OTA in the filter is expanded to its ten-transistor implementation
/// using the design parameters the model selected; each Monte Carlo sample
/// perturbs the process and mismatch and re-checks the filter template.
///
/// Returns `None` when the nominal filter cannot be simulated.
pub fn verify_filter_yield(
    design: &FilterDesignResult,
    filter_spec: &FilterSpec,
    config: &FlowConfig,
    samples: usize,
    seed: u64,
) -> Option<crate::verify::YieldReport> {
    let ota_params = OtaParameters::from_design_point(&design.ota_design.parameters);
    let circuit = build_filter_with_transistor_otas(
        &design.capacitors,
        &ota_params,
        config.testbench.vdd,
        config.testbench.vcm,
    )
    .ok()?;
    let sweep = filter_sweep();
    let spec = *filter_spec;
    let mc = MonteCarloConfig::new(samples, seed);
    let run = montecarlo::run_parallel(
        &circuit,
        &config.variation,
        &mc,
        config.threads,
        move |sample| {
            let op = dc_operating_point(sample, &DcOptions::new()).ok()?;
            let ac = ac_analysis(sample, &op, &sweep).ok()?;
            let response = ac.response_by_name(sample, FILTER_OUTPUT)?;
            let report = spec.evaluate(ac.frequencies(), &response);
            Some(report.all_met())
        },
    );
    let yield_fraction = yield_estimate(&run.values, |&met| met)?;
    Some(crate::verify::YieldReport {
        yield_fraction,
        samples: run.values.len(),
        failed_samples: run.failed_samples,
    })
}

/// Characterises the transistor-level filter once (no Monte Carlo); used by
/// the conventional-approach comparison and the report's Figure 11.
///
/// Returns the frequencies, response and spec report.
pub fn simulate_transistor_filter(
    capacitors: &FilterParameters,
    ota_params: &OtaParameters,
    filter_spec: &FilterSpec,
    config: &FlowConfig,
    sweep: &FrequencySweep,
) -> Option<(FilterResponse, ayb_behavioral::FilterSpecReport)> {
    let circuit = build_filter_with_transistor_otas(
        capacitors,
        ota_params,
        config.testbench.vdd,
        config.testbench.vcm,
    )
    .ok()?;
    let op = dc_operating_point(&circuit, &DcOptions::new()).ok()?;
    let ac = ac_analysis(&circuit, &op, sweep).ok()?;
    let response = ac.response_by_name(&circuit, FILTER_OUTPUT)?;
    let report = filter_spec.evaluate(ac.frequencies(), &response);
    Some((
        FilterResponse {
            frequencies: ac.frequencies().to_vec(),
            response,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayb_behavioral::ParetoPointData;
    use ayb_circuit::DesignPoint;

    /// A synthetic combined model good enough to drive the filter design.
    fn synthetic_model() -> CombinedOtaModel {
        let points: Vec<ParetoPointData> = (0..15)
            .map(|i| ParetoPointData {
                gain_db: 48.5 + i as f64 * 0.3,
                phase_margin_deg: 78.0 - i as f64 * 0.5,
                gain_delta_percent: 0.6 - i as f64 * 0.01,
                pm_delta_percent: 1.4 + i as f64 * 0.02,
                unity_gain_hz: 8e6 + i as f64 * 3e5,
                parameters: DesignPoint::new()
                    .with("w1", 20e-6 + i as f64 * 2e-6)
                    .with("l1", 1.1e-6)
                    .with("w2", 25e-6)
                    .with("l2", 1.0e-6)
                    .with("w3", 20e-6)
                    .with("l3", 1.0e-6)
                    .with("w4", 14e-6)
                    .with("l4", 1.0e-6),
            })
            .collect();
        CombinedOtaModel::from_pareto_data(points, 3.0).unwrap()
    }

    #[test]
    fn filter_design_meets_template_with_behavioural_ota() {
        let model = synthetic_model();
        let mut ga = GaConfig::small_test();
        ga.population_size = 14;
        ga.generations = 10;
        let result = design_filter(
            &model,
            &OtaSpec::paper_filter_application(),
            &FilterSpec::anti_aliasing_1mhz(),
            ga,
            5e-12,
        )
        .expect("filter design succeeds");
        assert!(result.margin_db > 0.0, "margin {}", result.margin_db);
        assert!(result.meets_spec(&FilterSpec::anti_aliasing_1mhz()));
        assert!(result.capacitors.c1 > 0.0 && result.capacitors.c2 > 0.0);
        assert!(result.evaluations > 0);
        // The selected OTA was retargeted above the raw 50 dB requirement.
        assert!(result.ota_design.retarget.new_gain_db > 50.0);
    }

    #[test]
    fn impossible_ota_spec_is_propagated() {
        let model = synthetic_model();
        let err = design_filter(
            &model,
            &OtaSpec::new(70.0, 85.0),
            &FilterSpec::anti_aliasing_1mhz(),
            GaConfig::small_test(),
            5e-12,
        )
        .unwrap_err();
        assert!(matches!(err, FlowError::Model(_)));
    }
}
