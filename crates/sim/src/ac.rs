//! Small-signal AC analysis.
//!
//! The circuit is linearised around a previously computed DC operating point
//! ([`DcSolution`]); the complex MNA system `(G + jωC)·x = b` is then solved
//! at every frequency of a sweep.
//!
//! The real conductance matrix `G`, the capacitance matrix `C` and the
//! right-hand side are each stamped **once**, into dense row-major arrays;
//! every frequency point is then an `O(n²)` merge `G + jωC` into the reused
//! complex matrix followed by one LU solve — no per-frequency re-stamping or
//! allocation.

use crate::dc::{cell, CondQuad, DcSolution};
use crate::error::{Result, SimError};
use crate::linalg::{solve_in_place, Complex, DenseMatrix, SolverKind};
use crate::mna::MnaLayout;
use crate::sweep::FrequencySweep;
use ayb_circuit::{Circuit, Device, NodeId};
use serde::{Deserialize, Serialize};

/// Result of an AC sweep: node phasors at every analysed frequency.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AcSolution {
    frequencies: Vec<f64>,
    /// Number of circuit nodes, ground included as index 0.
    nodes: usize,
    /// `phasors[f * nodes + node_index]` — node phasors, frequency-major.
    phasors: Vec<Complex>,
}

impl AcSolution {
    /// Frequencies of the sweep in hertz.
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// Number of frequency points.
    pub fn len(&self) -> usize {
        self.frequencies.len()
    }

    /// Returns `true` if the sweep contains no points.
    pub fn is_empty(&self) -> bool {
        self.frequencies.is_empty()
    }

    /// Phasor of `node` across the sweep.
    pub fn node_response(&self, node: NodeId) -> Vec<Complex> {
        self.phasors
            .chunks_exact(self.nodes)
            .map(|row| row[node.index()])
            .collect()
    }

    /// Phasor of a named node across the sweep.
    pub fn response_by_name(&self, circuit: &Circuit, name: &str) -> Option<Vec<Complex>> {
        circuit.find_node(name).map(|id| self.node_response(id))
    }

    /// Phasor of `node` at sweep index `idx`.
    pub fn phasor_at(&self, idx: usize, node: NodeId) -> Complex {
        self.phasors[idx * self.nodes + node.index()]
    }
}

/// Runs an AC analysis over the given frequency sweep, deriving the MNA
/// layout internally.
///
/// # Errors
///
/// Returns an error for an empty sweep, a singular linearised matrix, or an
/// inconsistent operating point.
pub fn ac_analysis(
    circuit: &Circuit,
    operating_point: &DcSolution,
    sweep: &FrequencySweep,
) -> Result<AcSolution> {
    let layout = MnaLayout::new(circuit);
    ac_analysis_with(circuit, &layout, operating_point, sweep, SolverKind::Dense)
}

/// Runs an AC analysis over a caller-supplied [`MnaLayout`].
///
/// Passing the layout lets callers reuse the one already built for the DC
/// operating point instead of re-deriving it per analysis. `solver` names
/// the kernel a run manifest records; [`SolverKind::Dense`] is the only one.
///
/// # Errors
///
/// As [`ac_analysis`]. A singular matrix is reported naming the offending
/// MNA unknown.
pub fn ac_analysis_with(
    circuit: &Circuit,
    layout: &MnaLayout,
    operating_point: &DcSolution,
    sweep: &FrequencySweep,
    solver: SolverKind,
) -> Result<AcSolution> {
    let SolverKind::Dense = solver;
    let frequencies = sweep.frequencies();
    if frequencies.is_empty() {
        return Err(SimError::InvalidAnalysis(
            "AC sweep contains no frequency points".into(),
        ));
    }
    let mut system = AcSystem::new(circuit, layout, operating_point)?;
    let n = layout.size();
    let nodes = circuit.nodes().len();
    let mut solution = vec![Complex::ZERO; n];
    let mut phasors = vec![Complex::ZERO; frequencies.len() * nodes];

    for (&freq, row) in frequencies.iter().zip(phasors.chunks_exact_mut(nodes)) {
        let omega = 2.0 * std::f64::consts::PI * freq;
        system.merge(omega);
        solution.copy_from_slice(&system.rhs);
        solve_in_place(&mut system.matrix, &mut solution)
            .map_err(|e| layout.describe_singular(e))?;
        for node in circuit.nodes().iter() {
            if let Some(idx) = layout.node_row(node) {
                row[node.index()] = solution[idx];
            }
        }
    }
    Ok(AcSolution {
        frequencies,
        nodes,
        phasors,
    })
}

/// The AC MNA system: the conductance part `g` and capacitance part `c`
/// (both row-major `n × n`), the merged complex matrix the LU factors, and
/// the (frequency-independent) right-hand side.
struct AcSystem {
    matrix: DenseMatrix<Complex>,
    /// Real part per cell: conductances plus source/branch incidence.
    g: Vec<f64>,
    /// Capacitance per cell: the merged imaginary part is `ω·c`.
    c: Vec<f64>,
    rhs: Vec<Complex>,
}

/// Adds `value` to cell `at` of a row-major value array; a ground cell
/// (`None`) takes nothing.
fn add_at(values: &mut [f64], at: Option<usize>, value: f64) {
    if let Some(i) = at {
        values[i] += value;
    }
}

impl AcSystem {
    /// Stamps both value arrays and the right-hand side once.
    fn new(circuit: &Circuit, layout: &MnaLayout, op: &DcSolution) -> Result<AcSystem> {
        let n = layout.size();
        let node_row = |node: NodeId| layout.node_row(node);
        let mut g = vec![0.0; n * n];
        let mut c = vec![0.0; n * n];
        let mut rhs = vec![Complex::ZERO; n];
        // Small conductance to ground keeps purely capacitive nodes well
        // conditioned.
        for row in 0..layout.node_count() {
            g[row * n + row] += 1e-12;
        }
        for inst in circuit.instances() {
            match &inst.device {
                Device::Resistor(r) => CondQuad::new(n, node_row(r.plus), node_row(r.minus))
                    .add(&mut g, 1.0 / r.resistance),
                Device::Capacitor(cap) => CondQuad::new(n, node_row(cap.plus), node_row(cap.minus))
                    .add(&mut c, cap.capacitance),
                Device::VoltageSource(v) => {
                    let br = layout
                        .branch_row(&inst.name)
                        .expect("voltage source has a branch row");
                    let (p, m) = (node_row(v.plus), node_row(v.minus));
                    add_at(&mut g, cell(n, p, Some(br)), 1.0);
                    add_at(&mut g, cell(n, Some(br), p), 1.0);
                    add_at(&mut g, cell(n, m, Some(br)), -1.0);
                    add_at(&mut g, cell(n, Some(br), m), -1.0);
                    rhs[br] += Complex::from_polar(v.ac.magnitude, v.ac.phase_deg.to_radians());
                }
                Device::CurrentSource(i) => {
                    let value = Complex::from_polar(i.ac.magnitude, i.ac.phase_deg.to_radians());
                    if let Some(p) = node_row(i.plus) {
                        rhs[p] -= value;
                    }
                    if let Some(m) = node_row(i.minus) {
                        rhs[m] += value;
                    }
                }
                Device::Vccs(gsrc) => {
                    let (op_, om) = (node_row(gsrc.out_plus), node_row(gsrc.out_minus));
                    let (cp, cm) = (node_row(gsrc.ctrl_plus), node_row(gsrc.ctrl_minus));
                    add_at(&mut g, cell(n, op_, cp), gsrc.gm);
                    add_at(&mut g, cell(n, op_, cm), -gsrc.gm);
                    add_at(&mut g, cell(n, om, cp), -gsrc.gm);
                    add_at(&mut g, cell(n, om, cm), gsrc.gm);
                }
                Device::Vcvs(e) => {
                    let br = layout
                        .branch_row(&inst.name)
                        .expect("vcvs has a branch row");
                    let (p, m) = (node_row(e.out_plus), node_row(e.out_minus));
                    add_at(&mut g, cell(n, p, Some(br)), 1.0);
                    add_at(&mut g, cell(n, Some(br), p), 1.0);
                    add_at(&mut g, cell(n, m, Some(br)), -1.0);
                    add_at(&mut g, cell(n, Some(br), m), -1.0);
                    add_at(&mut g, cell(n, Some(br), node_row(e.ctrl_plus)), -e.gain);
                    add_at(&mut g, cell(n, Some(br), node_row(e.ctrl_minus)), e.gain);
                }
                Device::Mosfet(m) => {
                    let eval = op.mosfet_op(&inst.name).ok_or_else(|| {
                        SimError::InvalidAnalysis(format!(
                            "operating point is missing MOSFET `{}` (was it computed on the same circuit?)",
                            inst.name
                        ))
                    })?;
                    // Conductive small-signal model: stamp the exact Jacobian
                    // of the drain current (same values the final DC
                    // iteration used).
                    let derivs = [
                        (m.drain, eval.did_dvd),
                        (m.gate, eval.did_dvg),
                        (m.source, eval.did_dvs),
                        (m.bulk, eval.did_dvb),
                    ];
                    for (node, gd) in derivs {
                        add_at(&mut g, cell(n, node_row(m.drain), node_row(node)), gd);
                    }
                    for (node, gd) in derivs {
                        add_at(&mut g, cell(n, node_row(m.source), node_row(node)), -gd);
                    }
                    // Capacitive elements.
                    for ((a, b), cap) in [
                        ((m.gate, m.source), eval.cgs),
                        ((m.gate, m.drain), eval.cgd),
                        ((m.gate, m.bulk), eval.cgb),
                        ((m.drain, m.bulk), eval.cdb),
                        ((m.source, m.bulk), eval.csb),
                    ] {
                        CondQuad::new(n, node_row(a), node_row(b)).add(&mut c, cap);
                    }
                }
                Device::BehavioralOta(o) => {
                    let out = node_row(o.out);
                    add_at(&mut g, cell(n, out, node_row(o.in_plus)), -o.gm);
                    add_at(&mut g, cell(n, out, node_row(o.in_minus)), o.gm);
                    let load = CondQuad::new(n, out, None);
                    load.add(&mut g, 1.0 / o.rout);
                    load.add(&mut c, o.cout);
                }
            }
        }

        Ok(AcSystem {
            matrix: DenseMatrix::zeros(n, n),
            g,
            c,
            rhs,
        })
    }

    /// Refills the complex matrix for one frequency: `G + jωC`, cell by cell.
    fn merge(&mut self, omega: f64) {
        for ((value, &g), &c) in self
            .matrix
            .as_mut_slice()
            .iter_mut()
            .zip(&self.g)
            .zip(&self.c)
        {
            *value = Complex::new(g, omega * c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dc::{dc_operating_point, DcOptions};
    use crate::sweep::FrequencySweep;
    use ayb_circuit::{AcSpec, Circuit};

    fn rc_lowpass(r: f64, c: f64) -> Circuit {
        let mut ckt = Circuit::new("rc");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.gnd();
        ckt.add_vsource_ac("v1", vin, gnd, 0.0, AcSpec::unit())
            .unwrap();
        ckt.add_resistor("r1", vin, out, r).unwrap();
        ckt.add_capacitor("c1", out, gnd, c).unwrap();
        ckt
    }

    #[test]
    fn rc_lowpass_has_minus_three_db_at_corner() {
        let r = 1e3;
        let c = 1e-9;
        let f_corner = 1.0 / (2.0 * std::f64::consts::PI * r * c);
        let ckt = rc_lowpass(r, c);
        let op = dc_operating_point(&ckt, &DcOptions::new()).unwrap();
        let sweep = FrequencySweep::single(f_corner);
        let ac = ac_analysis(&ckt, &op, &sweep).unwrap();
        let out = ac.response_by_name(&ckt, "out").unwrap();
        assert!((out[0].abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
        assert!((out[0].arg_deg() + 45.0).abs() < 0.5);
    }

    #[test]
    fn rc_lowpass_passes_dc_and_attenuates_high_frequencies() {
        let ckt = rc_lowpass(1e3, 1e-9);
        let op = dc_operating_point(&ckt, &DcOptions::new()).unwrap();
        let sweep = FrequencySweep::logarithmic(1.0, 1e9, 10);
        let ac = ac_analysis(&ckt, &op, &sweep).unwrap();
        let out = ac.response_by_name(&ckt, "out").unwrap();
        assert!((out.first().unwrap().abs() - 1.0).abs() < 1e-6);
        assert!(out.last().unwrap().abs() < 1e-2);
        assert_eq!(ac.len(), ac.frequencies().len());
    }

    #[test]
    fn vccs_with_load_resistor_gives_expected_gain() {
        let mut ckt = Circuit::new("gmr");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.gnd();
        ckt.add_vsource_ac("v1", vin, gnd, 0.0, AcSpec::unit())
            .unwrap();
        // i(out -> gnd) = gm * v(in); with the SPICE convention the output
        // current is pulled out of `out`, so the small-signal gain is −gm·R.
        ckt.add_vccs("g1", out, gnd, vin, gnd, 1e-3).unwrap();
        ckt.add_resistor("rl", out, gnd, 10e3).unwrap();
        let op = dc_operating_point(&ckt, &DcOptions::new()).unwrap();
        let ac = ac_analysis(&ckt, &op, &FrequencySweep::single(1e3)).unwrap();
        let out_ph = ac.response_by_name(&ckt, "out").unwrap()[0];
        assert!((out_ph.abs() - 10.0).abs() < 1e-6);
        assert!((out_ph.arg_deg().abs() - 180.0).abs() < 1e-6);
    }

    #[test]
    fn empty_sweep_is_rejected() {
        let ckt = rc_lowpass(1e3, 1e-9);
        let op = dc_operating_point(&ckt, &DcOptions::new()).unwrap();
        let sweep = FrequencySweep::list(Vec::new());
        assert!(ac_analysis(&ckt, &op, &sweep).is_err());
    }
}
