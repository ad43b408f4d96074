//! # ayb-process — process technology, statistical variation and Monte Carlo
//!
//! This crate models the statistical behaviour of the fabrication process that
//! the paper's flow samples with foundry Monte Carlo decks:
//!
//! * [`ProcessVariation`] — global (die-to-die) spreads and Pelgrom-law local
//!   mismatch coefficients for a generic 0.35 µm CMOS process,
//! * [`montecarlo`] — a seeded Monte Carlo engine that perturbs model cards
//!   and per-instance mismatch and evaluates arbitrary user metrics,
//! * [`statistics`] — summary statistics, quantiles, histograms and
//!   parametric-yield estimation.
//!
//! # Examples
//!
//! Estimating the threshold-voltage spread seen by a circuit:
//!
//! ```
//! use ayb_circuit::{Circuit, Mosfet};
//! use ayb_process::{montecarlo, MonteCarloConfig, ProcessVariation};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ckt = Circuit::new("mc-demo");
//! ckt.add_default_models();
//! let d = ckt.node("d");
//! let g = ckt.node("g");
//! let gnd = ckt.gnd();
//! ckt.add_vsource("vd", d, gnd, 1.5)?;
//! ckt.add_vsource("vg", g, gnd, 1.0)?;
//! ckt.add_mosfet("m1", Mosfet::new(d, g, gnd, gnd, "nmos", 10e-6, 1e-6))?;
//!
//! let run = montecarlo::run(
//!     &ckt,
//!     &ProcessVariation::generic_035um(),
//!     &MonteCarloConfig::new(64, 1),
//!     |sample| Some(sample.models()["nmos"].vto),
//! );
//! let stats = run.summary().expect("samples collected");
//! assert!(stats.std_dev > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod montecarlo;
pub mod sampling;
pub mod statistics;
pub mod variation;

pub use montecarlo::{perturb_circuit, MonteCarloConfig, MonteCarloRun};
pub use statistics::{quantile, yield_estimate, Histogram, Summary};
pub use variation::{GlobalSpread, MismatchCoefficients, ProcessVariation};
