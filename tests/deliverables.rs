//! Integration tests for the secondary deliverables of the flow: the exported
//! `.tbl` / Verilog-A package and the SPICE netlist round trip of the
//! generated circuits.

use ayb_behavioral::{generate_module, CombinedOtaModel, ParetoPointData};
use ayb_circuit::ota::{build_open_loop_testbench, OtaParameters, OtaTestbenchConfig};
use ayb_circuit::{spice, DesignPoint};
use ayb_core::measure_testbench;
use ayb_sim::FrequencySweep;
use ayb_table::{TableFile, TableModel};

fn synthetic_model() -> CombinedOtaModel {
    let points: Vec<ParetoPointData> = (0..12)
        .map(|i| ParetoPointData {
            gain_db: 49.0 + i as f64 * 0.25,
            phase_margin_deg: 77.0 - i as f64 * 0.35,
            gain_delta_percent: 0.6 - i as f64 * 0.01,
            pm_delta_percent: 1.4 + i as f64 * 0.02,
            unity_gain_hz: 8e6 + i as f64 * 2e5,
            parameters: DesignPoint::new()
                .with("w1", (20.0 + i as f64) * 1e-6)
                .with("l1", 1.0e-6),
        })
        .collect();
    CombinedOtaModel::from_pareto_data(points, 3.0).expect("model builds")
}

#[test]
fn exported_tbl_files_reload_as_table_models_with_consistent_lookups() {
    let model = synthetic_model();
    let files = model.export_table_files();

    // The gain_delta table reloaded through the $table_model machinery agrees
    // with the model's own lookup at interior points.
    let gain_delta_file = &files["gain_delta.tbl"];
    let text = gain_delta_file.to_text();
    let reparsed = TableFile::from_text(&text, 1).expect("tbl text parses");
    let table = TableModel::from_file_with_control(&reparsed, "3E").expect("table builds");
    for gain in [49.5, 50.0, 51.0] {
        let via_file = table.lookup(&[gain]).expect("in range");
        let via_model = model.gain_variation_percent(gain).expect("in range");
        assert!(
            (via_file - via_model).abs() < 1e-6,
            "gain {gain}: file {via_file} vs model {via_model}"
        );
    }

    // Two-input parameter tables reload as well.
    let w1_file = &files["w1_data.tbl"];
    let reparsed = TableFile::from_text(&w1_file.to_text(), 2).expect("parses");
    let table = TableModel::from_file_with_control(&reparsed, "3E,3E").expect("builds");
    let value = table.lookup(&[50.0, 75.6]).expect("in range");
    assert!(value > 10e-6 && value < 40e-6, "w1 = {value}");
}

#[test]
fn verilog_a_package_is_self_consistent() {
    let model = synthetic_model();
    let package = generate_module(&model, "ota_yield_model");
    // Every table file referenced in the source ships with the package and
    // parses back with the declared number of inputs.
    for (name, file) in &package.table_files {
        assert!(package.module_source.contains(name.as_str()));
        let inputs = file.inputs;
        let reparsed = TableFile::from_text(&file.to_text(), inputs).expect("tbl parses");
        assert_eq!(reparsed.len(), file.len());
    }
    assert!(package.module_source.contains("analog begin"));
}

#[test]
fn generated_ota_testbench_survives_spice_roundtrip_and_resimulates() {
    let params = OtaParameters::nominal();
    let tb = build_open_loop_testbench(&params, &OtaTestbenchConfig::new()).expect("builds");
    let sweep = FrequencySweep::logarithmic(10.0, 1e9, 4);
    let original = measure_testbench(&tb, &sweep).expect("original simulates");

    let text = spice::to_spice(&tb);
    let reparsed = spice::from_spice(&text).expect("netlist parses");
    let roundtrip = measure_testbench(&reparsed, &sweep).expect("reparsed simulates");

    assert!(
        (original.gain_db - roundtrip.gain_db).abs() < 0.05,
        "gain changed across netlist round trip: {} vs {}",
        original.gain_db,
        roundtrip.gain_db
    );
    assert!((original.phase_margin_deg - roundtrip.phase_margin_deg).abs() < 0.5);
}
