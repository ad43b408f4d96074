//! The OTA sizing problem (paper §3.1 / §4.1–4.2).
//!
//! Maps the eight normalised designable parameters of Table 1 onto the
//! symmetrical OTA test bench, runs a DC operating point plus AC sweep, and
//! returns the two objective functions of the paper: open-loop gain and phase
//! margin, both maximised.

use ayb_circuit::ota::{build_open_loop_testbench, OtaParameters, OtaTestbenchConfig};
use ayb_circuit::{Circuit, DesignPoint, ParameterSet};
use ayb_moo::{evaluate_batch_parallel, Evaluation, ObjectiveSpec, SizingProblem};
use ayb_sim::{
    ac_analysis_with, dc_operating_point_with, measure, DcOptions, FrequencySweep, MnaLayout,
    SolverKind,
};
use serde::{Deserialize, Serialize};

/// Measured figures of merit of one OTA candidate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OtaPerformance {
    /// Open-loop gain in dB.
    pub gain_db: f64,
    /// Phase margin in degrees.
    pub phase_margin_deg: f64,
    /// Unity-gain frequency in hertz.
    pub unity_gain_hz: f64,
    /// −3 dB bandwidth in hertz.
    pub bandwidth_hz: f64,
}

/// Simulates one already-built OTA test-bench circuit and extracts the
/// performance figures.
///
/// Returns `None` when the bias point does not converge or the gain never
/// crosses 0 dB inside the sweep (no phase margin defined) — the optimisers
/// treat such candidates as infeasible.
pub fn measure_testbench(circuit: &Circuit, sweep: &FrequencySweep) -> Option<OtaPerformance> {
    measure_testbench_with(circuit, sweep, SolverKind::Dense)
}

/// As [`measure_testbench`], with an explicit solver kernel.
///
/// The MNA layout is derived once and shared between the DC operating point
/// and the AC sweep.
pub fn measure_testbench_with(
    circuit: &Circuit,
    sweep: &FrequencySweep,
    solver: SolverKind,
) -> Option<OtaPerformance> {
    let layout = MnaLayout::new(circuit);
    let op = dc_operating_point_with(circuit, &layout, &DcOptions::new(), solver).ok()?;
    let ac = ac_analysis_with(circuit, &layout, &op, sweep, solver).ok()?;
    let response = ac.response_by_name(circuit, ayb_circuit::ota::OPEN_LOOP_OUTPUT)?;
    let m = measure::measure(ac.frequencies(), &response).ok()?;
    Some(OtaPerformance {
        gain_db: m.dc_gain_db,
        phase_margin_deg: m.phase_margin_deg?,
        unity_gain_hz: m.unity_gain_hz?,
        bandwidth_hz: m.bandwidth_hz.unwrap_or(f64::NAN),
    })
}

/// Builds the test bench for a set of sized parameters and measures it.
pub fn evaluate_ota(
    params: &OtaParameters,
    testbench: &OtaTestbenchConfig,
    sweep: &FrequencySweep,
) -> Option<OtaPerformance> {
    let circuit = build_open_loop_testbench(params, testbench).ok()?;
    measure_testbench(&circuit, sweep)
}

/// The paper's two-objective OTA sizing problem over the Table 1 parameter space.
pub struct OtaSizingProblem {
    parameter_set: ParameterSet,
    objectives: Vec<ObjectiveSpec>,
    testbench: OtaTestbenchConfig,
    sweep: FrequencySweep,
    threads: usize,
}

impl OtaSizingProblem {
    /// Creates the problem with the given test-bench conditions and AC sweep.
    pub fn new(testbench: OtaTestbenchConfig, sweep: FrequencySweep) -> Self {
        OtaSizingProblem {
            parameter_set: OtaParameters::parameter_set(),
            objectives: vec![
                ObjectiveSpec::maximize("gain_db"),
                ObjectiveSpec::maximize("phase_margin_deg"),
            ],
            testbench,
            sweep,
            threads: 1,
        }
    }

    /// Names the linear-solver kernel candidate simulations run on; the
    /// dense LU is the only one, so the problem is returned unchanged.
    #[must_use]
    pub fn with_solver(self, solver: SolverKind) -> Self {
        let SolverKind::Dense = solver;
        self
    }

    /// Sets the number of worker threads batch evaluations may use.
    ///
    /// The optimisers evaluate whole populations through
    /// [`SizingProblem::evaluate_batch`], so this is what spreads GA circuit
    /// simulations — not just Monte Carlo samples — across cores.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The number of worker threads batch evaluations may use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The designable parameter space (Table 1).
    pub fn parameter_set(&self) -> &ParameterSet {
        &self.parameter_set
    }

    /// Converts a normalised gene vector into named physical parameters.
    pub fn design_point(&self, genes: &[f64]) -> Option<DesignPoint> {
        self.parameter_set.denormalize(genes).ok()
    }

    /// Converts a normalised gene vector into sized OTA parameters.
    pub fn ota_parameters(&self, genes: &[f64]) -> Option<OtaParameters> {
        self.design_point(genes)
            .map(|point| OtaParameters::from_design_point(&point))
    }

    /// Evaluates the full performance record (not just the raw objectives).
    pub fn performance(&self, genes: &[f64]) -> Option<OtaPerformance> {
        let params = self.ota_parameters(genes)?;
        evaluate_ota(&params, &self.testbench, &self.sweep)
    }
}

impl SizingProblem for OtaSizingProblem {
    fn parameter_count(&self) -> usize {
        self.parameter_set.len()
    }

    fn objectives(&self) -> &[ObjectiveSpec] {
        &self.objectives
    }

    fn evaluate(&self, parameters: &[f64]) -> Option<Vec<f64>> {
        let perf = self.performance(parameters)?;
        Some(vec![perf.gain_db, perf.phase_margin_deg])
    }

    fn evaluate_batch(&self, batch: &[Vec<f64>]) -> Vec<Option<Evaluation>> {
        evaluate_batch_parallel(self, batch, self.threads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn problem() -> OtaSizingProblem {
        OtaSizingProblem::new(
            OtaTestbenchConfig::new(),
            FrequencySweep::logarithmic(10.0, 1e9, 5),
        )
    }

    #[test]
    fn problem_has_eight_parameters_and_two_maximised_objectives() {
        let p = problem();
        assert_eq!(p.parameter_count(), 8);
        assert_eq!(p.objective_count(), 2);
        assert!(p
            .objectives()
            .iter()
            .all(|o| o.sense == ayb_moo::Sense::Maximize));
    }

    #[test]
    fn midpoint_genes_evaluate_to_paper_range_performance() {
        let p = problem();
        let genes = vec![0.5; 8];
        let objectives = p.evaluate(&genes).expect("midpoint candidate simulates");
        let (gain, pm) = (objectives[0], objectives[1]);
        assert!((30.0..80.0).contains(&gain), "gain = {gain}");
        assert!((20.0..120.0).contains(&pm), "pm = {pm}");
        let perf = p.performance(&genes).unwrap();
        assert!(perf.unity_gain_hz > 1e5);
    }

    #[test]
    fn gene_mapping_respects_table1_bounds() {
        let p = problem();
        let params = p.ota_parameters(&[0.0; 8]).unwrap();
        assert!((params.w1 - 10e-6).abs() < 1e-12);
        assert!((params.l1 - 0.35e-6).abs() < 1e-15);
        let params = p.ota_parameters(&[1.0; 8]).unwrap();
        assert!((params.w1 - 60e-6).abs() < 1e-12);
        assert!((params.l1 - 4e-6).abs() < 1e-15);
    }

    #[test]
    fn parallel_batch_evaluation_matches_sequential() {
        let sequential = problem();
        let parallel = problem().with_threads(4);
        assert_eq!(parallel.threads(), 4);
        let batch: Vec<Vec<f64>> = (0..6)
            .map(|i| vec![0.2 + 0.1 * (i % 4) as f64; 8])
            .collect();
        let a = sequential.evaluate_batch(&batch);
        let b = parallel.evaluate_batch(&batch);
        assert_eq!(a, b, "thread count must not change results");
        assert_eq!(a.len(), batch.len());
        assert!(a.iter().any(|r| r.is_some()));
    }

    #[test]
    fn evaluate_ota_and_measure_testbench_agree() {
        let params = OtaParameters::nominal();
        let sweep = FrequencySweep::logarithmic(10.0, 1e9, 5);
        let direct = evaluate_ota(&params, &OtaTestbenchConfig::new(), &sweep).unwrap();
        let circuit = build_open_loop_testbench(&params, &OtaTestbenchConfig::new()).unwrap();
        let via_circuit = measure_testbench(&circuit, &sweep).unwrap();
        assert!((direct.gain_db - via_circuit.gain_db).abs() < 1e-9);
        assert!((direct.phase_margin_deg - via_circuit.phase_margin_deg).abs() < 1e-9);
    }
}
