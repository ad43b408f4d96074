//! Transient analysis (fixed-step backward-Euler integration).
//!
//! Transient simulation is not required by the paper's flow but is provided
//! for completeness (step responses of the behavioural filter, settling
//! checks). Capacitors are replaced by their backward-Euler companion model
//! `i = C/h·(v − v_prev)` each time step and the resulting (possibly
//! nonlinear) system is solved by the same Newton machinery as the DC
//! operating point.

use crate::dc::{dc_operating_point, CondQuad, DcOptions, DcSolution, DcSystem};
use crate::error::{Result, SimError};
use crate::linalg::solve_in_place;
use crate::mna::MnaLayout;
use ayb_circuit::{Circuit, Device, NodeId};
use serde::{Deserialize, Serialize};

/// Options for transient analysis.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransientOptions {
    /// Simulation stop time in seconds.
    pub stop_time: f64,
    /// Fixed integration step in seconds.
    pub time_step: f64,
    /// Newton options used at each time point.
    pub dc: DcOptions,
}

impl TransientOptions {
    /// Creates options for the given stop time and step.
    pub fn new(stop_time: f64, time_step: f64) -> Self {
        TransientOptions {
            stop_time,
            time_step,
            dc: DcOptions::new(),
        }
    }
}

/// Time-domain waveform set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TransientSolution {
    times: Vec<f64>,
    /// `voltages[t][node_index]`.
    voltages: Vec<Vec<f64>>,
}

impl TransientSolution {
    /// Sampled time points in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Waveform of a node by id.
    pub fn node_waveform(&self, node: NodeId) -> Vec<f64> {
        self.voltages.iter().map(|row| row[node.index()]).collect()
    }

    /// Waveform of a named node.
    pub fn waveform_by_name(&self, circuit: &Circuit, name: &str) -> Option<Vec<f64>> {
        circuit.find_node(name).map(|id| self.node_waveform(id))
    }

    /// Final value of a named node.
    pub fn final_value(&self, circuit: &Circuit, name: &str) -> Option<f64> {
        self.waveform_by_name(circuit, name)
            .and_then(|w| w.last().copied())
    }
}

/// Runs a fixed-step transient analysis starting from the DC operating point.
///
/// # Errors
///
/// Returns an error for invalid options, DC convergence failure, or Newton
/// failure at any time point.
pub fn transient_analysis(
    circuit: &Circuit,
    options: &TransientOptions,
) -> Result<TransientSolution> {
    if options.time_step <= 0.0 || options.stop_time <= options.time_step {
        return Err(SimError::InvalidAnalysis(
            "transient requires 0 < time_step < stop_time".into(),
        ));
    }
    let initial: DcSolution = dc_operating_point(circuit, &options.dc)?;
    let layout = MnaLayout::new(circuit);
    let n = layout.size();

    // State vector: node voltages followed by branch currents.
    let mut x = vec![0.0; n];
    for node in circuit.nodes().iter() {
        if let Some(row) = layout.node_row(node) {
            x[row] = initial.voltage(node);
        }
    }

    let steps = (options.stop_time / options.time_step).ceil() as usize;
    let mut times = Vec::with_capacity(steps + 1);
    let mut voltages = Vec::with_capacity(steps + 1);
    let record = |x: &[f64], out: &mut Vec<Vec<f64>>| {
        let mut row = vec![0.0; circuit.nodes().len()];
        for node in circuit.nodes().iter() {
            if let Some(r) = layout.node_row(node) {
                row[node.index()] = x[r];
            }
        }
        out.push(row);
    };
    times.push(0.0);
    record(&x, &mut voltages);

    let h = options.time_step;
    let mut system = DcSystem::new(circuit, &layout);

    for step in 1..=steps {
        let prev = x.clone();
        // Newton at this time point.
        let mut converged = false;
        for _ in 0..options.dc.max_iterations {
            system.fill(&x, options.dc.gmin, 1.0);
            let DcSystem { matrix, rhs, .. } = &mut system;
            // Replace every capacitor's open circuit with its BE companion model.
            for inst in circuit.instances() {
                if let Device::Capacitor(c) = &inst.device {
                    let g = c.capacitance / h;
                    let v_prev =
                        layout.voltage_of(&prev, c.plus) - layout.voltage_of(&prev, c.minus);
                    let ieq = g * v_prev;
                    let (p, m) = (layout.node_row(c.plus), layout.node_row(c.minus));
                    CondQuad::new(n, p, m).add(matrix.as_mut_slice(), g);
                    if let Some(p) = p {
                        rhs[p] += ieq;
                    }
                    if let Some(m) = m {
                        rhs[m] -= ieq;
                    }
                }
            }
            let mut solution = rhs.clone();
            solve_in_place(matrix, &mut solution)?;
            let max_delta = solution
                .iter()
                .zip(x.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            x.copy_from_slice(&solution);
            if max_delta < options.dc.voltage_tolerance {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(SimError::NoConvergence {
                analysis: format!("transient time point {}", step as f64 * h),
                iterations: options.dc.max_iterations,
                residual: f64::NAN,
            });
        }
        times.push(step as f64 * h);
        record(&x, &mut voltages);
    }
    Ok(TransientSolution { times, voltages })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ayb_circuit::{Circuit, Mosfet};

    #[test]
    fn rc_charge_approaches_supply() {
        let mut ckt = Circuit::new("rc_step");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        let gnd = ckt.gnd();
        ckt.add_vsource("v1", vin, gnd, 1.0).unwrap();
        ckt.add_resistor("r1", vin, out, 1e3).unwrap();
        ckt.add_capacitor("c1", out, gnd, 1e-6).unwrap();
        // τ = 1 ms; simulate 5 τ. The DC operating point already has the
        // capacitor charged, so instead verify the steady value is held.
        let opts = TransientOptions::new(5e-3, 50e-6);
        let tran = transient_analysis(&ckt, &opts).unwrap();
        let v_end = tran.final_value(&ckt, "out").unwrap();
        assert!((v_end - 1.0).abs() < 1e-3, "v_end = {v_end}");
        assert_eq!(tran.times().len(), tran.node_waveform(out).len());
    }

    #[test]
    fn invalid_step_is_rejected() {
        let mut ckt = Circuit::new("x");
        let a = ckt.node("a");
        let gnd = ckt.gnd();
        ckt.add_vsource("v1", a, gnd, 1.0).unwrap();
        ckt.add_resistor("r1", a, gnd, 1.0).unwrap();
        assert!(transient_analysis(&ckt, &TransientOptions::new(1.0, 2.0)).is_err());
        assert!(transient_analysis(&ckt, &TransientOptions::new(1.0, 0.0)).is_err());
    }

    #[test]
    fn rc_discharge_through_behavioral_states() {
        // Current source charging a capacitor through a resistor: the waveform
        // should rise monotonically towards I·R.
        let mut ckt = Circuit::new("ir_c");
        let a = ckt.node("a");
        let gnd = ckt.gnd();
        ckt.add_isource("i1", gnd, a, 1e-3).unwrap();
        ckt.add_resistor("r1", a, gnd, 1e3).unwrap();
        ckt.add_capacitor("c1", a, gnd, 1e-6).unwrap();
        let tran = transient_analysis(&ckt, &TransientOptions::new(5e-3, 25e-6)).unwrap();
        let w = tran.waveform_by_name(&ckt, "a").unwrap();
        assert!((w.last().unwrap() - 1.0).abs() < 1e-3);
        // Monotone non-decreasing within numerical noise.
        assert!(w.windows(2).all(|p| p[1] >= p[0] - 1e-9));
    }

    /// Pins the bits of a nonlinear transient: FNV-1a 64 over the
    /// little-endian bits of six node waveforms, node by node. The circuit
    /// exercises the DC fill's voltage-source, current-source, resistor,
    /// MOSFET, VCCS and VCVS stamps, plus a capacitor companion to ground and
    /// one between two non-ground nodes. The only libm function on the path
    /// is `sqrt`, which IEEE 754 rounds exactly, so unlike the golden flow
    /// digests the pin is not limited to Linux x86_64.
    #[test]
    fn nonlinear_transient_waveforms_are_bit_pinned() {
        let mut ckt = Circuit::new("tran");
        ckt.add_default_models();
        let vdd = ckt.node("vdd");
        let g = ckt.node("g");
        let d = ckt.node("d");
        let x = ckt.node("x");
        let y = ckt.node("y");
        let z = ckt.node("z");
        let gnd = ckt.gnd();
        ckt.add_vsource("vdd", vdd, gnd, 3.3).unwrap();
        ckt.add_vsource("vg", g, gnd, 0.9).unwrap();
        ckt.add_resistor("rd", vdd, d, 10e3).unwrap();
        ckt.add_capacitor("cd", d, gnd, 1e-12).unwrap();
        ckt.add_mosfet("m1", Mosfet::new(d, g, gnd, gnd, "nmos", 20e-6, 1e-6))
            .unwrap();
        ckt.add_isource("ix", gnd, x, 1e-3).unwrap();
        ckt.add_resistor("rx", x, gnd, 1e3).unwrap();
        ckt.add_capacitor("cx", x, d, 1e-9).unwrap();
        ckt.add_vccs("gy", y, gnd, x, d, 1e-4).unwrap();
        ckt.add_resistor("ry", y, gnd, 5e3).unwrap();
        ckt.add_vcvs("ez", z, gnd, y, gnd, 2.0).unwrap();
        ckt.add_resistor("rz", z, gnd, 1e3).unwrap();

        let tran = transient_analysis(&ckt, &TransientOptions::new(2e-6, 1e-8)).unwrap();
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut samples = 0;
        for node in ["vdd", "g", "d", "x", "y", "z"] {
            for value in tran.waveform_by_name(&ckt, node).unwrap() {
                for byte in value.to_bits().to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
                }
                samples += 1;
            }
        }
        assert_eq!(samples, 1206);
        assert_eq!(format!("{hash:016x}"), "1f838fb45dad154e");
    }
}
