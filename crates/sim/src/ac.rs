//! Small-signal AC analysis.
//!
//! The circuit is linearised around a previously computed DC operating point
//! ([`DcSolution`]); the complex MNA system `(G + jωC)·x = b` is then solved
//! at every frequency of a sweep.
//!
//! Assembly is split into a symbolic phase and a numeric one: the real
//! conductance matrix `G`, the capacitance matrix `C` and the right-hand side
//! are each stamped **once** over a shared sparsity pattern, and every
//! frequency point is then an `O(nnz)` value merge `G + jωC` followed by one
//! backend solve over reused workspaces — no per-frequency re-stamping or
//! allocation.

use crate::dc::DcSolution;
use crate::error::{Result, SimError};
use crate::linalg::{backend_of, Complex, CsrMatrix, PatternBuilder, SolverKind, SparsityPattern};
use crate::mna::MnaLayout;
use crate::sweep::FrequencySweep;
use ayb_circuit::{Circuit, Device, NodeId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

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

/// Runs an AC analysis over the given frequency sweep with the default dense
/// solver backend, deriving the MNA layout internally.
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

/// Runs an AC analysis over a caller-supplied [`MnaLayout`] and solver
/// backend.
///
/// Passing the layout lets callers reuse the one already built for the DC
/// operating point instead of re-deriving it per analysis.
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
    let frequencies = sweep.frequencies();
    if frequencies.is_empty() {
        return Err(SimError::InvalidAnalysis(
            "AC sweep contains no frequency points".into(),
        ));
    }
    let mut system = AcSystem::new(circuit, layout, operating_point)?;
    let mut backend = backend_of::<Complex>(solver);
    backend.prepare(system.pattern());
    let n = layout.size();
    let nodes = circuit.nodes().len();
    let mut solution = vec![Complex::ZERO; n];
    let mut phasors = vec![Complex::ZERO; frequencies.len() * nodes];

    for (&freq, row) in frequencies.iter().zip(phasors.chunks_exact_mut(nodes)) {
        let omega = 2.0 * std::f64::consts::PI * freq;
        system.merge(omega);
        solution.copy_from_slice(&system.rhs);
        backend
            .solve(&system.matrix, &mut solution)
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

/// The AC MNA system after the symbolic phase: one sparsity pattern shared by
/// the conductance part `g`, the capacitance part `c`, the merged complex
/// value matrix and the (frequency-independent) right-hand side.
struct AcSystem {
    matrix: CsrMatrix<Complex>,
    /// Real part per slot: conductances plus source/branch incidence.
    g: Vec<f64>,
    /// Capacitance per slot: the merged imaginary part is `ω·c`.
    c: Vec<f64>,
    rhs: Vec<Complex>,
}

/// Marks a two-terminal admittance quad in the pattern.
fn mark_quad(builder: &mut PatternBuilder, p: Option<usize>, m: Option<usize>) {
    if let Some(p) = p {
        builder.entry(p, p);
    }
    if let Some(m) = m {
        builder.entry(m, m);
    }
    if let (Some(p), Some(m)) = (p, m) {
        builder.entry(p, m);
        builder.entry(m, p);
    }
}

/// Adds a two-terminal admittance contribution (`g` or `ω`-free `c`) into a
/// per-slot value array.
fn add_quad(
    pattern: &SparsityPattern,
    values: &mut [f64],
    p: Option<usize>,
    m: Option<usize>,
    y: f64,
) {
    let slot = |r: usize, c: usize| pattern.position(r, c).expect("marked in pattern");
    if let Some(p) = p {
        values[slot(p, p)] += y;
    }
    if let Some(m) = m {
        values[slot(m, m)] += y;
    }
    if let (Some(p), Some(m)) = (p, m) {
        values[slot(p, m)] -= y;
        values[slot(m, p)] -= y;
    }
}

impl AcSystem {
    /// Symbolic + one-time numeric phase: derive the union pattern of `G`
    /// and `C`, then stamp both value arrays and the right-hand side once.
    fn new(circuit: &Circuit, layout: &MnaLayout, op: &DcSolution) -> Result<AcSystem> {
        let n = layout.size();
        let node_row = |node: NodeId| layout.node_row(node);
        let mut builder = PatternBuilder::new(n);
        // Small conductance to ground keeps purely capacitive nodes well
        // conditioned.
        for row in 0..layout.node_count() {
            builder.entry(row, row);
        }
        for inst in circuit.instances() {
            match &inst.device {
                Device::Resistor(r) => mark_quad(&mut builder, node_row(r.plus), node_row(r.minus)),
                Device::Capacitor(c) => {
                    mark_quad(&mut builder, node_row(c.plus), node_row(c.minus))
                }
                Device::VoltageSource(v) => {
                    let br = layout
                        .branch_row(&inst.name)
                        .expect("voltage source has a branch row");
                    for node in [v.plus, v.minus] {
                        if let Some(p) = node_row(node) {
                            builder.entry(p, br);
                            builder.entry(br, p);
                        }
                    }
                }
                Device::CurrentSource(_) => {}
                Device::Vccs(g) => {
                    for out in [node_row(g.out_plus), node_row(g.out_minus)] {
                        for ctrl in [node_row(g.ctrl_plus), node_row(g.ctrl_minus)] {
                            if let (Some(out), Some(ctrl)) = (out, ctrl) {
                                builder.entry(out, ctrl);
                            }
                        }
                    }
                }
                Device::Vcvs(e) => {
                    let br = layout
                        .branch_row(&inst.name)
                        .expect("vcvs has a branch row");
                    for node in [e.out_plus, e.out_minus] {
                        if let Some(p) = node_row(node) {
                            builder.entry(p, br);
                            builder.entry(br, p);
                        }
                    }
                    for node in [e.ctrl_plus, e.ctrl_minus] {
                        if let Some(c) = node_row(node) {
                            builder.entry(br, c);
                        }
                    }
                }
                Device::Mosfet(m) => {
                    let terminals = [m.drain, m.gate, m.source, m.bulk];
                    for row in [node_row(m.drain), node_row(m.source)]
                        .into_iter()
                        .flatten()
                    {
                        for node in terminals {
                            if let Some(col) = node_row(node) {
                                builder.entry(row, col);
                            }
                        }
                    }
                    for (a, b) in [
                        (m.gate, m.source),
                        (m.gate, m.drain),
                        (m.gate, m.bulk),
                        (m.drain, m.bulk),
                        (m.source, m.bulk),
                    ] {
                        mark_quad(&mut builder, node_row(a), node_row(b));
                    }
                }
                Device::BehavioralOta(o) => {
                    if let Some(out) = node_row(o.out) {
                        for node in [o.in_plus, o.in_minus] {
                            if let Some(c) = node_row(node) {
                                builder.entry(out, c);
                            }
                        }
                    }
                    mark_quad(&mut builder, node_row(o.out), None);
                }
            }
        }
        let pattern = builder.build();

        let mut g = vec![0.0; pattern.nnz()];
        let mut c = vec![0.0; pattern.nnz()];
        let mut rhs = vec![Complex::ZERO; n];
        let slot = |r: usize, col: usize| pattern.position(r, col).expect("marked in pattern");
        for row in 0..layout.node_count() {
            g[slot(row, row)] += 1e-12;
        }
        for inst in circuit.instances() {
            match &inst.device {
                Device::Resistor(r) => add_quad(
                    &pattern,
                    &mut g,
                    node_row(r.plus),
                    node_row(r.minus),
                    1.0 / r.resistance,
                ),
                Device::Capacitor(cap) => add_quad(
                    &pattern,
                    &mut c,
                    node_row(cap.plus),
                    node_row(cap.minus),
                    cap.capacitance,
                ),
                Device::VoltageSource(v) => {
                    let br = layout
                        .branch_row(&inst.name)
                        .expect("voltage source has a branch row");
                    if let Some(p) = node_row(v.plus) {
                        g[slot(p, br)] += 1.0;
                        g[slot(br, p)] += 1.0;
                    }
                    if let Some(m) = node_row(v.minus) {
                        g[slot(m, br)] -= 1.0;
                        g[slot(br, m)] -= 1.0;
                    }
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
                    if let Some(op_) = op_ {
                        if let Some(cp) = cp {
                            g[slot(op_, cp)] += gsrc.gm;
                        }
                        if let Some(cm) = cm {
                            g[slot(op_, cm)] -= gsrc.gm;
                        }
                    }
                    if let Some(om) = om {
                        if let Some(cp) = cp {
                            g[slot(om, cp)] -= gsrc.gm;
                        }
                        if let Some(cm) = cm {
                            g[slot(om, cm)] += gsrc.gm;
                        }
                    }
                }
                Device::Vcvs(e) => {
                    let br = layout
                        .branch_row(&inst.name)
                        .expect("vcvs has a branch row");
                    if let Some(p) = node_row(e.out_plus) {
                        g[slot(p, br)] += 1.0;
                        g[slot(br, p)] += 1.0;
                    }
                    if let Some(m) = node_row(e.out_minus) {
                        g[slot(m, br)] -= 1.0;
                        g[slot(br, m)] -= 1.0;
                    }
                    if let Some(cp) = node_row(e.ctrl_plus) {
                        g[slot(br, cp)] -= e.gain;
                    }
                    if let Some(cm) = node_row(e.ctrl_minus) {
                        g[slot(br, cm)] += e.gain;
                    }
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
                    if let Some(d) = node_row(m.drain) {
                        for (node, gd) in derivs {
                            if let Some(col) = node_row(node) {
                                g[slot(d, col)] += gd;
                            }
                        }
                    }
                    if let Some(s) = node_row(m.source) {
                        for (node, gd) in derivs {
                            if let Some(col) = node_row(node) {
                                g[slot(s, col)] -= gd;
                            }
                        }
                    }
                    // Capacitive elements.
                    for ((a, b), cap) in [
                        ((m.gate, m.source), eval.cgs),
                        ((m.gate, m.drain), eval.cgd),
                        ((m.gate, m.bulk), eval.cgb),
                        ((m.drain, m.bulk), eval.cdb),
                        ((m.source, m.bulk), eval.csb),
                    ] {
                        add_quad(&pattern, &mut c, node_row(a), node_row(b), cap);
                    }
                }
                Device::BehavioralOta(o) => {
                    if let Some(out) = node_row(o.out) {
                        if let Some(p) = node_row(o.in_plus) {
                            g[slot(out, p)] -= o.gm;
                        }
                        if let Some(m) = node_row(o.in_minus) {
                            g[slot(out, m)] += o.gm;
                        }
                    }
                    add_quad(&pattern, &mut g, node_row(o.out), None, 1.0 / o.rout);
                    add_quad(&pattern, &mut c, node_row(o.out), None, o.cout);
                }
            }
        }

        Ok(AcSystem {
            matrix: CsrMatrix::new(Arc::clone(&pattern)),
            g,
            c,
            rhs,
        })
    }

    fn pattern(&self) -> &Arc<SparsityPattern> {
        self.matrix.pattern()
    }

    /// Numeric phase per frequency: `O(nnz)` value merge `G + jωC`.
    fn merge(&mut self, omega: f64) {
        for ((value, &g), &c) in self
            .matrix
            .values_mut()
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
    use ayb_circuit::{AcSpec, Circuit, Mosfet};

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

    #[test]
    fn sparse_backend_matches_dense_across_a_mosfet_sweep() {
        let mut ckt = Circuit::new("cs-ac");
        ckt.add_default_models();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let d = ckt.node("d");
        let gnd = ckt.gnd();
        ckt.add_vsource("vdd", vdd, gnd, 3.3).unwrap();
        ckt.add_vsource_ac("vg", g, gnd, 0.9, AcSpec::unit())
            .unwrap();
        ckt.add_resistor("rd", vdd, d, 10e3).unwrap();
        ckt.add_capacitor("cl", d, gnd, 1e-12).unwrap();
        ckt.add_mosfet("m1", Mosfet::new(d, g, gnd, gnd, "nmos", 20e-6, 1e-6))
            .unwrap();
        let layout = MnaLayout::new(&ckt);
        let op = dc_operating_point(&ckt, &DcOptions::new()).unwrap();
        let sweep = FrequencySweep::logarithmic(10.0, 1e9, 5);
        let dense = ac_analysis_with(&ckt, &layout, &op, &sweep, SolverKind::Dense).unwrap();
        let sparse = ac_analysis_with(&ckt, &layout, &op, &sweep, SolverKind::Sparse).unwrap();
        let out = ckt.find_node("d").unwrap();
        for idx in 0..dense.len() {
            let a = dense.phasor_at(idx, out);
            let b = sparse.phasor_at(idx, out);
            assert!(
                (a - b).abs() < 1e-9,
                "point {idx}: dense {a:?} vs sparse {b:?}"
            );
        }
    }
}
