//! Measurement extraction from AC responses.
//!
//! These routines turn a swept complex transfer function into the figures of
//! merit the paper's flow optimises: low-frequency (open-loop) gain, phase
//! margin, unity-gain frequency and −3 dB bandwidth.

use crate::error::{Result, SimError};
use crate::linalg::Complex;
use serde::{Deserialize, Serialize};

/// Summary of an AC transfer-function measurement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AcMeasurements {
    /// Low-frequency gain in dB.
    pub dc_gain_db: f64,
    /// Unity-gain (0 dB crossing) frequency in hertz, if the gain crosses 0 dB
    /// inside the sweep.
    pub unity_gain_hz: Option<f64>,
    /// Phase margin in degrees at the unity-gain frequency, if defined.
    pub phase_margin_deg: Option<f64>,
    /// −3 dB bandwidth in hertz, if the gain falls 3 dB below its
    /// low-frequency value inside the sweep.
    pub bandwidth_hz: Option<f64>,
}

/// Computes the magnitude of the response in dB at every sweep point.
pub fn magnitude_db(response: &[Complex]) -> Vec<f64> {
    response.iter().map(|z| z.abs_db()).collect()
}

/// Computes the unwrapped phase of the response in degrees at every sweep point.
///
/// Phase unwrapping removes the ±360° jumps that `atan2` introduces so that
/// phase-margin interpolation is well behaved.
pub fn unwrapped_phase_deg(response: &[Complex]) -> Vec<f64> {
    let mut phases = Vec::with_capacity(response.len());
    let mut offset = 0.0;
    let mut previous: Option<f64> = None;
    for z in response {
        let raw = z.arg_deg();
        if let Some(prev) = previous {
            let mut adjusted = raw + offset;
            while adjusted - prev > 180.0 {
                offset -= 360.0;
                adjusted -= 360.0;
            }
            while adjusted - prev < -180.0 {
                offset += 360.0;
                adjusted += 360.0;
            }
            phases.push(adjusted);
            previous = Some(adjusted);
        } else {
            phases.push(raw);
            previous = Some(raw);
        }
    }
    phases
}

/// Linear interpolation of `x` at the point where `y` crosses `target`
/// between samples `i` and `i + 1` (log-x interpolation for frequencies).
fn interpolate_crossing(x: &[f64], y: &[f64], i: usize, target: f64) -> f64 {
    let (x0, x1) = (x[i], x[i + 1]);
    let (y0, y1) = (y[i], y[i + 1]);
    if (y1 - y0).abs() < 1e-30 {
        return x0;
    }
    let t = (target - y0) / (y1 - y0);
    // Interpolate in log-frequency when both points are positive (decade sweeps).
    if x0 > 0.0 && x1 > 0.0 {
        10f64.powf(x0.log10() + t * (x1.log10() - x0.log10()))
    } else {
        x0 + t * (x1 - x0)
    }
}

/// Interpolates `y` (linear) at frequency `f` given swept `x`/`y` samples.
fn interpolate_value_at(x: &[f64], y: &[f64], f: f64) -> f64 {
    if f <= x[0] {
        return y[0];
    }
    if f >= *x.last().unwrap() {
        return *y.last().unwrap();
    }
    for i in 0..x.len() - 1 {
        if x[i] <= f && f <= x[i + 1] {
            let t = if x[i] > 0.0 && x[i + 1] > 0.0 {
                (f.log10() - x[i].log10()) / (x[i + 1].log10() - x[i].log10())
            } else {
                (f - x[i]) / (x[i + 1] - x[i])
            };
            return y[i] + t * (y[i + 1] - y[i]);
        }
    }
    *y.last().unwrap()
}

/// Frequency at which the gain crosses 0 dB (unity gain), if any.
pub fn unity_gain_frequency(frequencies: &[f64], response: &[Complex]) -> Option<f64> {
    unity_crossing(frequencies, &magnitude_db(response))
}

/// [`unity_gain_frequency`] over the response's [`magnitude_db`].
fn unity_crossing(frequencies: &[f64], mags: &[f64]) -> Option<f64> {
    for i in 0..mags.len().saturating_sub(1) {
        if mags[i] >= 0.0 && mags[i + 1] < 0.0 {
            return Some(interpolate_crossing(frequencies, mags, i, 0.0));
        }
    }
    None
}

/// Phase margin in degrees: `180° + ∠H(f_unity)`.
pub fn phase_margin(frequencies: &[f64], response: &[Complex]) -> Option<f64> {
    let f_unity = unity_gain_frequency(frequencies, response)?;
    Some(phase_margin_at(frequencies, response, f_unity))
}

/// [`phase_margin`] at an already-found unity-gain frequency.
fn phase_margin_at(frequencies: &[f64], response: &[Complex], f_unity: f64) -> f64 {
    let phases = unwrapped_phase_deg(response);
    let phase_at_unity = interpolate_value_at(frequencies, &phases, f_unity);
    180.0 + phase_at_unity
}

/// −3 dB bandwidth relative to the low-frequency gain.
pub fn bandwidth_3db(frequencies: &[f64], response: &[Complex]) -> Option<f64> {
    bandwidth_crossing(frequencies, &magnitude_db(response))
}

/// [`bandwidth_3db`] over the response's [`magnitude_db`].
fn bandwidth_crossing(frequencies: &[f64], mags: &[f64]) -> Option<f64> {
    let reference = mags[0];
    let target = reference - 3.0;
    for i in 0..mags.len().saturating_sub(1) {
        if mags[i] >= target && mags[i + 1] < target {
            return Some(interpolate_crossing(frequencies, mags, i, target));
        }
    }
    None
}

/// Gain in dB at the lowest swept frequency (the open-loop / DC gain for the
/// OTA test bench).
pub fn dc_gain_db(response: &[Complex]) -> f64 {
    response
        .first()
        .map(|z| z.abs_db())
        .unwrap_or(f64::NEG_INFINITY)
}

/// Magnitude of the response (in dB) interpolated at an arbitrary frequency.
pub fn gain_db_at(frequencies: &[f64], response: &[Complex], frequency: f64) -> f64 {
    let mags = magnitude_db(response);
    interpolate_value_at(frequencies, &mags, frequency)
}

/// Extracts the full measurement summary from a swept response.
///
/// Computes the response's [`magnitude_db`] once and derives every figure
/// from it; each field equals what its standalone function returns.
///
/// # Errors
///
/// Returns an error if the sweep and response lengths differ or are empty.
pub fn measure(frequencies: &[f64], response: &[Complex]) -> Result<AcMeasurements> {
    if frequencies.is_empty() || frequencies.len() != response.len() {
        return Err(SimError::Measurement(format!(
            "sweep ({}) and response ({}) lengths must match and be non-empty",
            frequencies.len(),
            response.len()
        )));
    }
    let mags = magnitude_db(response);
    let unity_gain_hz = unity_crossing(frequencies, &mags);
    Ok(AcMeasurements {
        dc_gain_db: mags[0],
        unity_gain_hz,
        phase_margin_deg: unity_gain_hz.map(|f| phase_margin_at(frequencies, response, f)),
        bandwidth_hz: bandwidth_crossing(frequencies, &mags),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single-pole system: H(s) = A / (1 + s/ω_p).
    fn single_pole(a: f64, f_pole: f64, freqs: &[f64]) -> Vec<Complex> {
        freqs
            .iter()
            .map(|&f| {
                let jw = Complex::new(0.0, f / f_pole);
                Complex::from_real(a) / (Complex::ONE + jw)
            })
            .collect()
    }

    /// Two-pole system: H(s) = A / ((1 + s/ω1)(1 + s/ω2)).
    fn two_pole(a: f64, f1: f64, f2: f64, freqs: &[f64]) -> Vec<Complex> {
        freqs
            .iter()
            .map(|&f| {
                let d1 = Complex::ONE + Complex::new(0.0, f / f1);
                let d2 = Complex::ONE + Complex::new(0.0, f / f2);
                Complex::from_real(a) / (d1 * d2)
            })
            .collect()
    }

    fn log_freqs(start: f64, stop: f64, per_decade: usize) -> Vec<f64> {
        crate::sweep::FrequencySweep::logarithmic(start, stop, per_decade).frequencies()
    }

    #[test]
    fn single_pole_measurements_match_theory() {
        let freqs = log_freqs(1.0, 1e9, 40);
        let a = 1000.0; // 60 dB
        let f_pole = 1e3;
        let resp = single_pole(a, f_pole, &freqs);
        let m = measure(&freqs, &resp).unwrap();
        assert!((m.dc_gain_db - 60.0).abs() < 0.01);
        // Unity-gain frequency of a single-pole system is A·f_pole.
        let fu = m.unity_gain_hz.unwrap();
        assert!((fu - a * f_pole).abs() / (a * f_pole) < 0.01);
        // Phase margin approaches 90 degrees.
        let pm = m.phase_margin_deg.unwrap();
        assert!((pm - 90.0).abs() < 1.0, "pm = {pm}");
        // Bandwidth equals the pole frequency.
        let bw = m.bandwidth_hz.unwrap();
        assert!((bw - f_pole).abs() / f_pole < 0.02);
    }

    #[test]
    fn two_pole_system_has_reduced_phase_margin() {
        let freqs = log_freqs(1.0, 1e9, 40);
        // 60 dB with the second pole at the extrapolated unity-gain frequency.
        // Solving |H(jω)| = 1 exactly puts the crossover at 0.786·f2 where the
        // phase is −128.1°, i.e. a phase margin of 51.9°.
        let a = 1000.0;
        let f1 = 1e3;
        let f2 = 1e6;
        let resp = two_pole(a, f1, f2, &freqs);
        let pm = phase_margin(&freqs, &resp).unwrap();
        assert!((pm - 51.9).abs() < 2.0, "pm = {pm}");
    }

    #[test]
    fn gain_below_unity_reports_no_crossing() {
        let freqs = log_freqs(1.0, 1e6, 10);
        let resp = single_pole(0.5, 1e3, &freqs);
        assert!(unity_gain_frequency(&freqs, &resp).is_none());
        assert!(phase_margin(&freqs, &resp).is_none());
    }

    #[test]
    fn unwrapping_removes_jumps() {
        // Construct a response whose raw phase wraps around −180°.
        let freqs = log_freqs(1.0, 1e6, 20);
        let resp = two_pole(1000.0, 10.0, 100.0, &freqs);
        let phases = unwrapped_phase_deg(&resp);
        for w in phases.windows(2) {
            assert!(
                (w[1] - w[0]).abs() < 90.0,
                "phase jump detected: {} -> {}",
                w[0],
                w[1]
            );
        }
        // Final phase approaches −180° for a two-pole system.
        assert!((phases.last().unwrap() + 180.0).abs() < 5.0);
    }

    #[test]
    fn mismatched_lengths_are_rejected() {
        let freqs = vec![1.0, 2.0];
        let resp = vec![Complex::ONE];
        assert!(measure(&freqs, &resp).is_err());
        assert!(measure(&[], &[]).is_err());
    }

    #[test]
    fn gain_at_arbitrary_frequency_interpolates() {
        let freqs = log_freqs(1.0, 1e6, 10);
        let resp = single_pole(100.0, 1e3, &freqs);
        let g = gain_db_at(&freqs, &resp, 1e3);
        assert!((g - (40.0 - 3.01)).abs() < 0.2);
    }
}
