//! Integration test of the paper's §5 application: designing the 2nd-order
//! anti-aliasing filter hierarchically from the behavioural OTA model and
//! verifying it at transistor level.

use ayb_behavioral::{FilterSpec, OtaSpec};
use ayb_core::{design_filter, filter_design, FlowBuilder, FlowConfig};
use ayb_moo::GaConfig;

fn reduced_config() -> FlowConfig {
    let mut config = FlowConfig::reduced();
    config.sweep = ayb_sim::FrequencySweep::logarithmic(10.0, 1e9, 4);
    config.monte_carlo.samples = 8;
    config.max_pareto_points = 8;
    config
}

#[test]
fn hierarchical_filter_design_from_generated_model() {
    let config = reduced_config();
    let flow = FlowBuilder::new(config.clone())
        .run()
        .expect("model generation succeeds");
    let model = &flow.model;

    // Choose an OTA spec the reduced model can serve (§5 uses 50 dB / 60°;
    // the reduced-scale front may sit elsewhere, so anchor to its range).
    let (gain_lo, gain_hi) = model.gain_range_db();
    let spec_gain = gain_lo + 0.25 * (gain_hi - gain_lo);
    let pm_at = model.pm_at_gain(spec_gain).expect("pm available");
    let ota_spec = OtaSpec::new(spec_gain, (pm_at - 10.0).max(1.0));
    let filter_spec = FilterSpec::anti_aliasing_1mhz();

    let mut ga = GaConfig::paper_filter();
    ga.population_size = 12;
    ga.generations = 8;
    let design = design_filter(model, &ota_spec, &filter_spec, ga, config.testbench.cload)
        .expect("filter design succeeds");

    // Figure 11: the behavioural response meets the template.
    assert!(design.margin_db > -0.5, "margin {}", design.margin_db);
    assert!(design.capacitors.c1 > 0.5e-12 && design.capacitors.c1 < 250e-12);
    let report = design.response.check(&filter_spec);
    assert!(
        report.stopband_worst_db < -15.0,
        "stopband {}",
        report.stopband_worst_db
    );

    // Transistor-level verification of the same sizing: the filter built from
    // forty transistors still behaves as a low-pass in the right region.
    let transistor = filter_design::simulate_transistor_filter(
        &design.capacitors,
        &ayb_circuit::ota::OtaParameters::from_design_point(&design.ota_design.parameters),
        &filter_spec,
        &config,
        &ayb_behavioral::filter::filter_sweep(),
    );
    let (response, _report) = transistor.expect("transistor filter simulates");
    let gains = response.gain_db();
    let dc = gains[0];
    let hf = *gains.last().unwrap();
    assert!(
        hf < dc - 15.0,
        "transistor filter should attenuate high frequencies (dc {dc} dB, hf {hf} dB)"
    );

    // Small-sample Monte Carlo yield of the filter against the template.
    let yield_report = filter_design::verify_filter_yield(&design, &filter_spec, &config, 6, 11);
    if let Some(report) = yield_report {
        assert!(report.samples > 0);
        assert!(report.yield_fraction >= 0.0 && report.yield_fraction <= 1.0);
    }
}
