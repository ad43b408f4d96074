//! MOSFET model cards.
//!
//! A [`MosfetModelCard`] holds the Level-1 (square-law) parameters used by the
//! simulator in `ayb-sim`. Statistical variation in `ayb-process` works by
//! producing perturbed copies of these cards (global process spread) and by
//! setting per-instance mismatch offsets on [`Mosfet`](crate::device::Mosfet)
//! instances (local variation).

use serde::{Deserialize, Serialize};

/// Channel polarity of a MOSFET.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MosfetPolarity {
    /// N-channel device.
    Nmos,
    /// P-channel device.
    Pmos,
}

impl MosfetPolarity {
    /// Sign convention: +1 for NMOS, -1 for PMOS.
    ///
    /// The simulator evaluates PMOS devices with source/drain voltages negated
    /// so a single square-law expression covers both polarities.
    pub fn sign(self) -> f64 {
        match self {
            MosfetPolarity::Nmos => 1.0,
            MosfetPolarity::Pmos => -1.0,
        }
    }
}

impl std::fmt::Display for MosfetPolarity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MosfetPolarity::Nmos => write!(f, "nmos"),
            MosfetPolarity::Pmos => write!(f, "pmos"),
        }
    }
}

/// Level-1 (square-law) MOSFET model card.
///
/// All values are in SI units. The defaults in [`MosfetModelCard::nmos_035um`]
/// and [`MosfetModelCard::pmos_035um`] approximate a generic 0.35 µm CMOS
/// process (the paper uses the AMS C35B4 process); they are not foundry data
/// but produce gain / phase-margin magnitudes in the same range as the paper.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MosfetModelCard {
    /// Model name referenced by device instances.
    pub name: String,
    /// Channel polarity.
    pub polarity: MosfetPolarity,
    /// Zero-bias threshold voltage `VTO` in volts (positive for NMOS, negative for PMOS).
    pub vto: f64,
    /// Transconductance parameter `KP = µ·Cox` in A/V².
    pub kp: f64,
    /// Channel-length modulation `LAMBDA` in 1/V, referenced to a 1 µm channel.
    ///
    /// The effective lambda used by the simulator scales as `lambda * 1e-6 / l`
    /// so that longer channels exhibit higher output resistance, matching the
    /// qualitative trend of real processes.
    pub lambda: f64,
    /// Body-effect coefficient `GAMMA` in V^0.5.
    pub gamma: f64,
    /// Surface potential `2·Φ_F` in volts.
    pub phi: f64,
    /// Gate-oxide capacitance per unit area `Cox` in F/m².
    pub cox: f64,
    /// Gate-drain overlap capacitance per metre of width in F/m.
    pub cgdo: f64,
    /// Gate-source overlap capacitance per metre of width in F/m.
    pub cgso: f64,
    /// Zero-bias drain/source junction capacitance per unit area in F/m².
    pub cj: f64,
    /// Lateral diffusion length in metres (used for junction area estimates).
    pub ld: f64,
}

impl MosfetModelCard {
    /// Generic 0.35 µm NMOS model card.
    pub fn nmos_035um() -> Self {
        MosfetModelCard {
            name: "nmos".to_string(),
            polarity: MosfetPolarity::Nmos,
            vto: 0.50,
            kp: 170e-6,
            lambda: 0.06,
            gamma: 0.58,
            phi: 0.84,
            cox: 4.54e-3,
            cgdo: 1.2e-10,
            cgso: 1.2e-10,
            cj: 9.4e-4,
            ld: 0.05e-6,
        }
    }

    /// Generic 0.35 µm PMOS model card.
    pub fn pmos_035um() -> Self {
        MosfetModelCard {
            name: "pmos".to_string(),
            polarity: MosfetPolarity::Pmos,
            vto: -0.65,
            kp: 58e-6,
            lambda: 0.08,
            gamma: 0.40,
            phi: 0.81,
            cox: 4.54e-3,
            cgdo: 0.9e-10,
            cgso: 0.9e-10,
            cj: 1.36e-3,
            ld: 0.05e-6,
        }
    }

    /// Returns a copy with threshold voltage shifted by `delta_vto` volts and
    /// transconductance scaled by `kp_mult`.
    ///
    /// This is the hook the Monte Carlo engine uses to apply each sample's
    /// global (die-to-die) shift.
    pub fn perturbed(&self, delta_vto: f64, kp_mult: f64) -> Self {
        let mut card = self.clone();
        // Callers pass signed deltas that already account for polarity.
        card.vto += delta_vto;
        card.kp *= kp_mult;
        card
    }

    /// Magnitude of the threshold voltage in volts.
    pub fn vth_magnitude(&self) -> f64 {
        self.vto.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_cards_have_expected_polarity_and_signs() {
        let n = MosfetModelCard::nmos_035um();
        let p = MosfetModelCard::pmos_035um();
        assert_eq!(n.polarity, MosfetPolarity::Nmos);
        assert_eq!(p.polarity, MosfetPolarity::Pmos);
        assert!(n.vto > 0.0);
        assert!(p.vto < 0.0);
        assert!(n.kp > p.kp, "electron mobility exceeds hole mobility");
        assert_eq!(n.polarity.sign(), 1.0);
        assert_eq!(p.polarity.sign(), -1.0);
    }

    #[test]
    fn perturbed_shifts_vto_and_scales_kp() {
        let n = MosfetModelCard::nmos_035um();
        let p = n.perturbed(0.02, 1.05);
        assert!((p.vto - (n.vto + 0.02)).abs() < 1e-12);
        assert!((p.kp - n.kp * 1.05).abs() < 1e-12);
        // Other fields untouched.
        assert_eq!(p.cox, n.cox);
        assert_eq!(p.name, n.name);
    }

    #[test]
    fn vth_magnitude_is_positive_for_both_polarities() {
        assert!(MosfetModelCard::nmos_035um().vth_magnitude() > 0.0);
        assert!(MosfetModelCard::pmos_035um().vth_magnitude() > 0.0);
    }

    #[test]
    fn model_cards_serialize_roundtrip() {
        let n = MosfetModelCard::nmos_035um();
        let json = serde_json::to_string(&n).expect("serialize");
        let back: MosfetModelCard = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, n);
    }
}
