//! DC operating-point analysis.
//!
//! Nonlinear circuits are solved with damped Newton–Raphson iteration. Two
//! classic continuation strategies are applied automatically when a plain
//! Newton run fails to converge: *gmin stepping* (a conductance from every
//! node to ground is swept from a large value down to the target) and *source
//! stepping* (all independent sources are ramped from a small fraction to
//! 100 %).

use crate::error::{Result, SimError};
use crate::linalg::{solve_in_place, DenseMatrix, SolverKind};
use crate::mna::MnaLayout;
use crate::mosfet::{evaluate, MosfetEval};
use ayb_circuit::{Circuit, Device, Mosfet as MosfetInstance, MosfetModelCard, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Options controlling the DC operating-point solver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DcOptions {
    /// Maximum Newton iterations per continuation rung.
    pub max_iterations: usize,
    /// Absolute voltage convergence tolerance in volts.
    pub voltage_tolerance: f64,
    /// Maximum per-iteration voltage step in volts (Newton damping).
    pub max_step: f64,
    /// Final (target) gmin conductance from every node to ground, in siemens.
    pub gmin: f64,
}

impl DcOptions {
    /// Default solver options suitable for the circuits in this workspace.
    pub fn new() -> Self {
        DcOptions {
            max_iterations: 150,
            voltage_tolerance: 1e-6,
            max_step: 0.5,
            gmin: 1e-12,
        }
    }
}

impl Default for DcOptions {
    fn default() -> Self {
        DcOptions::new()
    }
}

/// Result of a DC operating-point analysis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DcSolution {
    node_voltages: Vec<f64>,
    branch_currents: BTreeMap<String, f64>,
    mosfet_ops: BTreeMap<String, MosfetEval>,
    /// Total Newton iterations spent (across all continuation rungs).
    pub iterations: usize,
}

impl DcSolution {
    /// Voltage of a node (0.0 for ground).
    pub fn voltage(&self, node: NodeId) -> f64 {
        self.node_voltages[node.index()]
    }

    /// Voltage of a node looked up by name.
    pub fn voltage_by_name(&self, circuit: &Circuit, name: &str) -> Option<f64> {
        circuit.find_node(name).map(|id| self.voltage(id))
    }

    /// Branch current through a named voltage source / VCVS, if present.
    pub fn branch_current(&self, instance: &str) -> Option<f64> {
        self.branch_currents.get(instance).copied()
    }

    /// Small-signal operating point of a named MOSFET.
    pub fn mosfet_op(&self, instance: &str) -> Option<&MosfetEval> {
        self.mosfet_ops.get(instance)
    }

    /// All MOSFET operating points, keyed by instance name.
    pub fn mosfet_ops(&self) -> &BTreeMap<String, MosfetEval> {
        &self.mosfet_ops
    }

    /// All node voltages indexed by node id (entry 0 is ground).
    pub fn node_voltages(&self) -> &[f64] {
        &self.node_voltages
    }
}

/// Computes the DC operating point of a circuit, deriving the MNA layout
/// internally.
///
/// # Errors
///
/// Returns an error if the circuit fails validation, the MNA matrix is
/// singular, or Newton iteration fails to converge even with gmin and source
/// stepping.
pub fn dc_operating_point(circuit: &Circuit, options: &DcOptions) -> Result<DcSolution> {
    let layout = MnaLayout::new(circuit);
    dc_operating_point_with(circuit, &layout, options, SolverKind::Dense)
}

/// Computes the DC operating point over a caller-supplied [`MnaLayout`].
///
/// Every device stamp is resolved to its matrix cells once; every Newton
/// iteration — across all continuation rungs — is then a value-fill of the
/// reused dense matrix plus one LU solve. `solver` names the kernel a run
/// manifest records; [`SolverKind::Dense`] is the only one.
///
/// # Errors
///
/// As [`dc_operating_point`]. A structurally singular matrix is reported as
/// [`SimError::SingularMatrix`] naming the offending unknown rather than
/// being ground through the continuation ladder.
pub fn dc_operating_point_with(
    circuit: &Circuit,
    layout: &MnaLayout,
    options: &DcOptions,
    solver: SolverKind,
) -> Result<DcSolution> {
    let SolverKind::Dense = solver;
    circuit.validate()?;
    let mut system = DcSystem::new(circuit, layout);
    let mut x = vec![0.0; layout.size()];
    let mut total_iterations = 0usize;

    // 1. Plain Newton from a zero initial guess.
    let direct = newton(&mut system, layout, &mut x, options.gmin, 1.0, options, 60);
    match direct {
        Ok(iters) => total_iterations += iters,
        Err(_) => {
            // 2. gmin stepping.
            x.iter_mut().for_each(|v| *v = 0.0);
            let mut ladder_ok = true;
            for &gmin in &[1e-2, 1e-3, 1e-4, 1e-6, 1e-8, 1e-10] {
                match newton(
                    &mut system,
                    layout,
                    &mut x,
                    gmin,
                    1.0,
                    options,
                    options.max_iterations,
                ) {
                    Ok(iters) => total_iterations += iters,
                    // A singular pivot with the heavy ladder gmin on the
                    // diagonal is structural — continuation cannot fix it,
                    // so surface the named unknown instead of grinding on.
                    Err(error @ SimError::SingularMatrix { .. }) => return Err(error),
                    Err(_) => {
                        ladder_ok = false;
                        break;
                    }
                }
            }
            if ladder_ok {
                total_iterations += newton(
                    &mut system,
                    layout,
                    &mut x,
                    options.gmin,
                    1.0,
                    options,
                    options.max_iterations,
                )?;
            } else {
                // 3. Source stepping.
                x.iter_mut().for_each(|v| *v = 0.0);
                for step in 1..=20 {
                    let scale = step as f64 / 20.0;
                    total_iterations += newton(
                        &mut system,
                        layout,
                        &mut x,
                        1e-9,
                        scale,
                        options,
                        options.max_iterations,
                    )
                    .map_err(|_| SimError::NoConvergence {
                        analysis: format!("dc operating point (source stepping at {scale:.2})"),
                        iterations: total_iterations,
                        residual: f64::NAN,
                    })?;
                }
                total_iterations += newton(
                    &mut system,
                    layout,
                    &mut x,
                    options.gmin,
                    1.0,
                    options,
                    options.max_iterations,
                )?;
            }
        }
    }

    Ok(assemble_solution(circuit, layout, &x, total_iterations))
}

/// Row-major index of cell `(row, col)` of an `n × n` matrix, or `None` when
/// either side is ground.
pub(crate) fn cell(n: usize, row: Option<usize>, col: Option<usize>) -> Option<usize> {
    Some(row? * n + col?)
}

/// Resolved cells of a two-terminal conductance stamp (the classic
/// `(p,p) (m,m) (p,m) (m,p)` quad; entries involving ground are absent).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CondQuad {
    pp: Option<usize>,
    mm: Option<usize>,
    pm: Option<usize>,
    mp: Option<usize>,
}

impl CondQuad {
    pub(crate) fn new(n: usize, p: Option<usize>, m: Option<usize>) -> CondQuad {
        CondQuad {
            pp: cell(n, p, p),
            mm: cell(n, m, m),
            pm: cell(n, p, m),
            mp: cell(n, m, p),
        }
    }

    #[inline]
    pub(crate) fn add(&self, a: &mut [f64], g: f64) {
        if let Some(pp) = self.pp {
            a[pp] += g;
        }
        if let Some(mm) = self.mm {
            a[mm] += g;
        }
        if let Some(pm) = self.pm {
            a[pm] += -g;
        }
        if let Some(mp) = self.mp {
            a[mp] += -g;
        }
    }
}

/// One device's planned stamp: every matrix cell and right-hand side row is
/// resolved when the system is built, so the per-iteration fill touches no
/// names, hashes or allocations.
#[derive(Debug)]
enum DcOp {
    /// Resistor (value pre-inverted to a conductance).
    Conductance { quad: CondQuad, conductance: f64 },
    /// Independent voltage source: `(node→branch, branch→node)` cell pairs.
    VoltageSource {
        plus: Option<(usize, usize)>,
        minus: Option<(usize, usize)>,
        branch: usize,
        dc: f64,
    },
    /// Independent current source (right-hand side only).
    CurrentSource {
        plus: Option<usize>,
        minus: Option<usize>,
        dc: f64,
    },
    /// Voltage-controlled current source.
    Vccs {
        op_cp: Option<usize>,
        op_cm: Option<usize>,
        om_cp: Option<usize>,
        om_cm: Option<usize>,
        gm: f64,
    },
    /// Voltage-controlled voltage source.
    Vcvs {
        plus: Option<(usize, usize)>,
        minus: Option<(usize, usize)>,
        ctrl_plus: Option<usize>,
        ctrl_minus: Option<usize>,
        gain: f64,
    },
    /// Nonlinear MOSFET: re-evaluated at `x` every fill.
    Mosfet(Box<MosfetOp>),
    /// Behavioural OTA.
    Ota {
        out_plus: Option<usize>,
        out_minus: Option<usize>,
        load: CondQuad,
        gm: f64,
        gout: f64,
    },
}

/// Planned MOSFET stamp: cloned model card + instance for evaluation, node
/// rows for voltage reads, and resolved Jacobian / leak cells.
#[derive(Debug)]
struct MosfetOp {
    card: MosfetModelCard,
    device: MosfetInstance,
    /// Node rows of (drain, gate, source, bulk); `None` for ground.
    rows: [Option<usize>; 4],
    /// Drain-row Jacobian cells versus (drain, gate, source, bulk).
    drain_cells: [Option<usize>; 4],
    /// Source-row Jacobian cells versus (drain, gate, source, bulk).
    source_cells: [Option<usize>; 4],
    /// Weak drain–source leakage quad.
    leak: CondQuad,
}

/// The linearised DC MNA system `A·x = b`: the per-device stamp plan and the
/// dense matrix and right-hand side it refills.
struct DcSystem {
    node_count: usize,
    ops: Vec<DcOp>,
    matrix: DenseMatrix<f64>,
    rhs: Vec<f64>,
}

impl DcSystem {
    /// Resolves every device stamp to its matrix cells and right-hand side
    /// rows.
    fn new(circuit: &Circuit, layout: &MnaLayout) -> Self {
        let n = layout.size();
        let node_row = |node: NodeId| layout.node_row(node);
        let pair = |node: Option<usize>, br: usize| node.map(|p| (p * n + br, br * n + p));
        let mut ops = Vec::with_capacity(circuit.instances().len());
        for inst in circuit.instances() {
            match &inst.device {
                Device::Resistor(r) => ops.push(DcOp::Conductance {
                    quad: CondQuad::new(n, node_row(r.plus), node_row(r.minus)),
                    conductance: 1.0 / r.resistance,
                }),
                // Open circuit at DC.
                Device::Capacitor(_) => {}
                Device::VoltageSource(v) => {
                    let br = layout
                        .branch_row(&inst.name)
                        .expect("voltage source has a branch row");
                    ops.push(DcOp::VoltageSource {
                        plus: pair(node_row(v.plus), br),
                        minus: pair(node_row(v.minus), br),
                        branch: br,
                        dc: v.dc,
                    });
                }
                Device::CurrentSource(i) => ops.push(DcOp::CurrentSource {
                    plus: node_row(i.plus),
                    minus: node_row(i.minus),
                    dc: i.dc,
                }),
                Device::Vccs(g) => {
                    let (op_, om) = (node_row(g.out_plus), node_row(g.out_minus));
                    let (cp, cm) = (node_row(g.ctrl_plus), node_row(g.ctrl_minus));
                    ops.push(DcOp::Vccs {
                        op_cp: cell(n, op_, cp),
                        op_cm: cell(n, op_, cm),
                        om_cp: cell(n, om, cp),
                        om_cm: cell(n, om, cm),
                        gm: g.gm,
                    });
                }
                Device::Vcvs(e) => {
                    let br = layout
                        .branch_row(&inst.name)
                        .expect("vcvs has a branch row");
                    ops.push(DcOp::Vcvs {
                        plus: pair(node_row(e.out_plus), br),
                        minus: pair(node_row(e.out_minus), br),
                        ctrl_plus: cell(n, Some(br), node_row(e.ctrl_plus)),
                        ctrl_minus: cell(n, Some(br), node_row(e.ctrl_minus)),
                        gain: e.gain,
                    });
                }
                Device::Mosfet(m) => {
                    let rows = [
                        node_row(m.drain),
                        node_row(m.gate),
                        node_row(m.source),
                        node_row(m.bulk),
                    ];
                    let cells_for = |row: Option<usize>| rows.map(|col| cell(n, row, col));
                    ops.push(DcOp::Mosfet(Box::new(MosfetOp {
                        card: circuit.models()[&m.model].clone(),
                        device: m.clone(),
                        rows,
                        drain_cells: cells_for(rows[0]),
                        source_cells: cells_for(rows[2]),
                        leak: CondQuad::new(n, rows[0], rows[2]),
                    })));
                }
                Device::BehavioralOta(o) => ops.push(DcOp::Ota {
                    out_plus: cell(n, node_row(o.out), node_row(o.in_plus)),
                    out_minus: cell(n, node_row(o.out), node_row(o.in_minus)),
                    load: CondQuad::new(n, node_row(o.out), None),
                    gm: o.gm,
                    gout: 1.0 / o.rout,
                }),
            }
        }
        DcSystem {
            node_count: layout.node_count(),
            ops,
            matrix: DenseMatrix::zeros(n, n),
            rhs: vec![0.0; n],
        }
    }

    /// Refills the linearised system `A·x = b` at the operating point `x`,
    /// adding each cell's contributions in device order.
    fn fill(&mut self, x: &[f64], gmin: f64, source_scale: f64) {
        self.matrix.clear();
        self.rhs.iter_mut().for_each(|v| *v = 0.0);
        let n = self.matrix.rows();
        let a = self.matrix.as_mut_slice();
        let rhs = &mut self.rhs;
        // gmin from every node to ground keeps the matrix non-singular while
        // devices are cut off.
        for row in 0..self.node_count {
            a[row * n + row] += gmin;
        }
        for op in &self.ops {
            match op {
                DcOp::Conductance { quad, conductance } => quad.add(a, *conductance),
                DcOp::VoltageSource {
                    plus,
                    minus,
                    branch,
                    dc,
                } => {
                    if let Some((pb, bp)) = plus {
                        a[*pb] += 1.0;
                        a[*bp] += 1.0;
                    }
                    if let Some((mb, bm)) = minus {
                        a[*mb] += -1.0;
                        a[*bm] += -1.0;
                    }
                    rhs[*branch] += dc * source_scale;
                }
                DcOp::CurrentSource { plus, minus, dc } => {
                    let value = dc * source_scale;
                    if let Some(p) = plus {
                        rhs[*p] -= value;
                    }
                    if let Some(m) = minus {
                        rhs[*m] += value;
                    }
                }
                DcOp::Vccs {
                    op_cp,
                    op_cm,
                    om_cp,
                    om_cm,
                    gm,
                } => {
                    if let Some(i) = op_cp {
                        a[*i] += *gm;
                    }
                    if let Some(i) = op_cm {
                        a[*i] += -gm;
                    }
                    if let Some(i) = om_cp {
                        a[*i] += -gm;
                    }
                    if let Some(i) = om_cm {
                        a[*i] += *gm;
                    }
                }
                DcOp::Vcvs {
                    plus,
                    minus,
                    ctrl_plus,
                    ctrl_minus,
                    gain,
                } => {
                    if let Some((pb, bp)) = plus {
                        a[*pb] += 1.0;
                        a[*bp] += 1.0;
                    }
                    if let Some((mb, bm)) = minus {
                        a[*mb] += -1.0;
                        a[*bm] += -1.0;
                    }
                    if let Some(i) = ctrl_plus {
                        a[*i] += -gain;
                    }
                    if let Some(i) = ctrl_minus {
                        a[*i] += *gain;
                    }
                }
                DcOp::Mosfet(m) => {
                    let read = |row: Option<usize>| row.map_or(0.0, |r| x[r]);
                    let (vd, vg, vs, vb) = (
                        read(m.rows[0]),
                        read(m.rows[1]),
                        read(m.rows[2]),
                        read(m.rows[3]),
                    );
                    let eval = evaluate(&m.card, &m.device, vd, vg, vs, vb);
                    let derivs = [eval.did_dvd, eval.did_dvg, eval.did_dvs, eval.did_dvb];
                    let ieq = eval.id
                        - (eval.did_dvd * vd
                            + eval.did_dvg * vg
                            + eval.did_dvs * vs
                            + eval.did_dvb * vb);
                    if let Some(d) = m.rows[0] {
                        for (i, g) in m.drain_cells.iter().zip(derivs) {
                            if let Some(i) = i {
                                a[*i] += g;
                            }
                        }
                        rhs[d] -= ieq;
                    }
                    if let Some(s) = m.rows[2] {
                        for (i, g) in m.source_cells.iter().zip(derivs) {
                            if let Some(i) = i {
                                a[*i] += -g;
                            }
                        }
                        rhs[s] += ieq;
                    }
                    // Weak drain-source leakage aids convergence deep in cutoff.
                    m.leak.add(a, gmin);
                }
                DcOp::Ota {
                    out_plus,
                    out_minus,
                    load,
                    gm,
                    gout,
                } => {
                    // Current *into* the output node is gm·(v+ − v−); in the
                    // "currents leaving the node" formulation this contributes
                    // −gm·(v+ − v−) to the output row.
                    if let Some(i) = out_plus {
                        a[*i] += -gm;
                    }
                    if let Some(i) = out_minus {
                        a[*i] += *gm;
                    }
                    load.add(a, *gout);
                }
            }
        }
    }
}

fn assemble_solution(
    circuit: &Circuit,
    layout: &MnaLayout,
    x: &[f64],
    iterations: usize,
) -> DcSolution {
    let mut node_voltages = vec![0.0; circuit.nodes().len()];
    for node in circuit.nodes().iter() {
        node_voltages[node.index()] = layout.voltage_of(x, node);
    }
    let mut branch_currents = BTreeMap::new();
    let mut mosfet_ops = BTreeMap::new();
    for inst in circuit.instances() {
        if let Some(row) = layout.branch_row(&inst.name) {
            branch_currents.insert(inst.name.clone(), x[row]);
        }
        if let Device::Mosfet(m) = &inst.device {
            let card = &circuit.models()[&m.model];
            let eval = evaluate(
                card,
                m,
                layout.voltage_of(x, m.drain),
                layout.voltage_of(x, m.gate),
                layout.voltage_of(x, m.source),
                layout.voltage_of(x, m.bulk),
            );
            mosfet_ops.insert(inst.name.clone(), eval);
        }
    }
    DcSolution {
        node_voltages,
        branch_currents,
        mosfet_ops,
        iterations,
    }
}

/// Runs damped Newton iteration at fixed `gmin` and source scaling,
/// updating `x` in place. Returns the number of iterations used.
///
/// Every iteration is a value-fill of `system` followed by one LU solve; the
/// solution vector is the only per-call allocation.
fn newton(
    system: &mut DcSystem,
    layout: &MnaLayout,
    x: &mut [f64],
    gmin: f64,
    source_scale: f64,
    options: &DcOptions,
    max_iterations: usize,
) -> Result<usize> {
    let n = layout.size();
    let mut solution = vec![0.0; n];
    let mut last_delta = f64::INFINITY;

    for iteration in 1..=max_iterations {
        system.fill(x, gmin, source_scale);
        solution.copy_from_slice(&system.rhs);
        solve_in_place(&mut system.matrix, &mut solution)
            .map_err(|e| layout.describe_singular(e))?;
        if solution.iter().any(|v| !v.is_finite()) {
            return Err(SimError::NoConvergence {
                analysis: "dc operating point (non-finite update)".into(),
                iterations: iteration,
                residual: f64::NAN,
            });
        }

        let mut max_delta = 0.0f64;
        for i in 0..n {
            let delta = solution[i] - x[i];
            max_delta = max_delta.max(delta.abs());
            let limited = if i < layout.node_count() {
                delta.clamp(-options.max_step, options.max_step)
            } else {
                delta
            };
            x[i] += limited;
        }
        last_delta = max_delta;
        if max_delta < options.voltage_tolerance {
            return Ok(iteration);
        }
    }
    Err(SimError::NoConvergence {
        analysis: "dc operating point".into(),
        iterations: max_iterations,
        residual: last_delta,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayb_circuit::{Circuit, Mosfet};

    #[test]
    fn resistive_divider_hits_half_supply() {
        let mut ckt = Circuit::new("divider");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.gnd();
        ckt.add_vsource("v1", vin, gnd, 2.0).unwrap();
        ckt.add_resistor("r1", vin, out, 1e3).unwrap();
        ckt.add_resistor("r2", out, gnd, 1e3).unwrap();
        let sol = dc_operating_point(&ckt, &DcOptions::new()).unwrap();
        assert!((sol.voltage_by_name(&ckt, "out").unwrap() - 1.0).abs() < 1e-6);
        assert!((sol.voltage_by_name(&ckt, "in").unwrap() - 2.0).abs() < 1e-9);
        // Branch current through the source: 2 V across 2 kΩ = 1 mA (sign per MNA convention).
        let i = sol.branch_current("v1").unwrap();
        assert!((i.abs() - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut ckt = Circuit::new("ir");
        let a = ckt.node("a");
        let gnd = ckt.gnd();
        // 1 mA pushed into node a through the source (plus = gnd, minus = a).
        ckt.add_isource("i1", gnd, a, 1e-3).unwrap();
        ckt.add_resistor("r1", a, gnd, 2e3).unwrap();
        let sol = dc_operating_point(&ckt, &DcOptions::new()).unwrap();
        assert!((sol.voltage_by_name(&ckt, "a").unwrap() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn vcvs_amplifies_dc() {
        let mut ckt = Circuit::new("vcvs");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.gnd();
        ckt.add_vsource("v1", inp, gnd, 0.1).unwrap();
        ckt.add_vcvs("e1", out, gnd, inp, gnd, 10.0).unwrap();
        ckt.add_resistor("rl", out, gnd, 1e3).unwrap();
        let sol = dc_operating_point(&ckt, &DcOptions::new()).unwrap();
        assert!((sol.voltage_by_name(&ckt, "out").unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn diode_connected_nmos_settles_above_threshold() {
        let mut ckt = Circuit::new("diode");
        ckt.add_default_models();
        let d = ckt.node("d");
        let vdd = ckt.node("vdd");
        let gnd = ckt.gnd();
        ckt.add_vsource("vdd", vdd, gnd, 3.3).unwrap();
        ckt.add_resistor("r1", vdd, d, 100e3).unwrap();
        ckt.add_mosfet("m1", Mosfet::new(d, d, gnd, gnd, "nmos", 10e-6, 1e-6))
            .unwrap();
        let sol = dc_operating_point(&ckt, &DcOptions::new()).unwrap();
        let vgs = sol.voltage_by_name(&ckt, "d").unwrap();
        // The gate-source voltage must sit above threshold but well below VDD.
        assert!(vgs > 0.5 && vgs < 1.5, "vgs = {vgs}");
        let op = sol.mosfet_op("m1").unwrap();
        assert_eq!(op.region, crate::mosfet::Region::Saturation);
        // KCL: drain current equals resistor current.
        let ir = (3.3 - vgs) / 100e3;
        assert!((op.id - ir).abs() / ir < 1e-3);
    }

    #[test]
    fn nmos_common_source_amplifier_bias() {
        let mut ckt = Circuit::new("cs");
        ckt.add_default_models();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let d = ckt.node("d");
        let gnd = ckt.gnd();
        ckt.add_vsource("vdd", vdd, gnd, 3.3).unwrap();
        ckt.add_vsource("vg", g, gnd, 0.9).unwrap();
        ckt.add_resistor("rd", vdd, d, 10e3).unwrap();
        ckt.add_mosfet("m1", Mosfet::new(d, g, gnd, gnd, "nmos", 20e-6, 1e-6))
            .unwrap();
        let sol = dc_operating_point(&ckt, &DcOptions::new()).unwrap();
        let vd = sol.voltage_by_name(&ckt, "d").unwrap();
        // Device should be conducting, dropping some voltage across RD.
        assert!(vd < 3.3 && vd > 0.0, "vd = {vd}");
        let op = sol.mosfet_op("m1").unwrap();
        assert!(op.id > 0.0);
    }

    #[test]
    fn behavioral_ota_unity_follower() {
        // OTA with feedback from output to inverting input approximates a follower.
        let mut ckt = Circuit::new("follower");
        let inp = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.gnd();
        ckt.add_vsource("vin", inp, gnd, 0.5).unwrap();
        ckt.add_behavioral_ota(
            "ota1",
            ayb_circuit::BehavioralOta::from_gm_rout(inp, out, out, 1e-3, 1e7, 1e-12),
        )
        .unwrap();
        ckt.add_resistor("rl", out, gnd, 1e6).unwrap();
        let sol = dc_operating_point(&ckt, &DcOptions::new()).unwrap();
        let vout = sol.voltage_by_name(&ckt, "out").unwrap();
        // Gain of 1e4 -> follower error ~ 1e-4 relative.
        assert!((vout - 0.5).abs() < 1e-3, "vout = {vout}");
    }

    #[test]
    fn unconnected_circuit_is_rejected() {
        let ckt = Circuit::new("empty");
        assert!(dc_operating_point(&ckt, &DcOptions::new()).is_err());
    }

    #[test]
    fn dense_wrapper_matches_dense_backend_exactly() {
        // The default entry point must be bit-identical to the explicit
        // `_with` path over a caller-built layout (same stamps, same LU).
        let mut ckt = Circuit::new("divider");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.gnd();
        ckt.add_vsource("v1", vin, gnd, 2.0).unwrap();
        ckt.add_resistor("r1", vin, out, 1e3).unwrap();
        ckt.add_resistor("r2", out, gnd, 1e3).unwrap();
        let layout = MnaLayout::new(&ckt);
        let a = dc_operating_point(&ckt, &DcOptions::new()).unwrap();
        let b =
            dc_operating_point_with(&ckt, &layout, &DcOptions::new(), SolverKind::Dense).unwrap();
        assert_eq!(a.node_voltages(), b.node_voltages());
    }

    #[test]
    fn singular_system_names_the_offending_unknown() {
        // Two ideal voltage sources in parallel with conflicting values give
        // a structurally singular MNA system.
        let mut ckt = Circuit::new("conflict");
        let a = ckt.node("a");
        let gnd = ckt.gnd();
        ckt.add_vsource("v1", a, gnd, 1.0).unwrap();
        ckt.add_vsource("v2", a, gnd, 2.0).unwrap();
        ckt.add_resistor("r1", a, gnd, 1e3).unwrap();
        let err = dc_operating_point(&ckt, &DcOptions::new()).unwrap_err();
        match err {
            SimError::SingularMatrix { unknown, .. } => {
                let unknown = unknown.expect("singular error is annotated with the unknown");
                assert!(
                    unknown.contains("branch current"),
                    "expected a branch-current label, got {unknown}"
                );
            }
            other => panic!("expected SingularMatrix, got {other}"),
        }
    }
}
