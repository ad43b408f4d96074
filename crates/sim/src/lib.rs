//! # ayb-sim — an MNA-based analogue circuit simulator
//!
//! This crate is the simulation substrate of the AYB workspace. It replaces
//! the commercial Spectre™ simulator used in the original paper with a
//! from-scratch implementation providing exactly the analyses the flow needs:
//!
//! * [`dc::dc_operating_point`] — damped Newton–Raphson operating point with
//!   gmin and source stepping,
//! * [`ac::ac_analysis`] — small-signal frequency sweeps over the linearised
//!   circuit, assembled once and re-merged as `G + jωC` per frequency,
//! * [`measure`] — open-loop gain, phase margin, unity-gain frequency and
//!   bandwidth extraction,
//! * [`mosfet`] — a Level-1 (square-law) MOSFET model with body effect,
//!   channel-length modulation and bias-dependent capacitances.
//!
//! Every analysis resolves each device stamp once to a cell of a dense,
//! row-major MNA matrix, refills that matrix per Newton iteration or
//! frequency point, and solves it with the one partial-pivot LU
//! ([`linalg::solve_in_place`]). Use [`dc::dc_operating_point_with`] /
//! [`ac::ac_analysis_with`] to share one [`mna::MnaLayout`] across analyses.
//!
//! # Examples
//!
//! Measuring the corner frequency of an RC low-pass filter:
//!
//! ```
//! use ayb_circuit::{AcSpec, Circuit};
//! use ayb_sim::{ac_analysis, dc_operating_point, measure, DcOptions, FrequencySweep};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ckt = Circuit::new("rc");
//! let vin = ckt.node("in");
//! let out = ckt.node("out");
//! let gnd = ckt.gnd();
//! ckt.add_vsource_ac("v1", vin, gnd, 0.0, AcSpec::unit())?;
//! ckt.add_resistor("r1", vin, out, 1e3)?;
//! ckt.add_capacitor("c1", out, gnd, 159.2e-9)?;
//!
//! let op = dc_operating_point(&ckt, &DcOptions::new())?;
//! let ac = ac_analysis(&ckt, &op, &FrequencySweep::logarithmic(1.0, 1e6, 20))?;
//! let response = ac.response_by_name(&ckt, "out").expect("node exists");
//! let m = measure::measure(ac.frequencies(), &response)?;
//! let bw = m.bandwidth_hz.expect("corner inside sweep");
//! assert!((bw - 1000.0).abs() / 1000.0 < 0.05);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ac;
pub mod dc;
pub mod error;
pub mod linalg;
pub mod measure;
pub mod mna;
pub mod mosfet;
pub mod sweep;

pub use ac::{ac_analysis, ac_analysis_with, AcSolution};
pub use dc::{dc_operating_point, dc_operating_point_with, DcOptions, DcSolution};
pub use error::{Result, SimError};
pub use linalg::{Complex, SolverKind};
pub use measure::AcMeasurements;
pub use mna::MnaLayout;
pub use mosfet::{MosfetEval, Region};
pub use sweep::FrequencySweep;
