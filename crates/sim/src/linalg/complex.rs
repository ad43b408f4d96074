//! A minimal complex number type for AC analysis.
//!
//! Only the operations needed by the MNA solver and measurement code are
//! implemented; this keeps the workspace free of extra numeric dependencies.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Relative gap between two squared magnitudes beyond which
/// [`Complex::abs_exceeds`] trusts their order without calling `hypot`.
const SQUARE_TIE_GAP: f64 = 1e-13;

/// A double-precision complex number.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    pub fn from_real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Creates a complex number from polar coordinates (magnitude, phase in radians).
    pub fn from_polar(magnitude: f64, phase: f64) -> Self {
        Complex {
            re: magnitude * phase.cos(),
            im: magnitude * phase.sin(),
        }
    }

    /// Magnitude (modulus).
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase angle in radians in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Phase angle in degrees.
    pub fn arg_deg(self) -> f64 {
        self.arg().to_degrees()
    }

    /// Magnitude in decibels (`20·log10(|z|)`).
    pub fn abs_db(self) -> f64 {
        20.0 * self.abs().log10()
    }

    /// Complex conjugate.
    pub fn conj(self) -> Self {
        Complex {
            re: self.re,
            im: -self.im,
        }
    }

    /// Squared magnitude.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Multiplicative inverse.
    pub fn recip(self) -> Self {
        let d = self.norm_sqr();
        Complex {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Whether `self.abs() > other.abs()`, given `self.norm_sqr()` and
    /// `other.norm_sqr()`; the answer is always the one the two `hypot`
    /// calls would give.
    ///
    /// When both squares are normal numbers more than a relative 1e-13
    /// apart, their order decides without a square root: a normal
    /// `norm_sqr` is within ~2 ulp of the true |z|² (a component square that
    /// underflowed adds at most 2⁻¹⁰⁷⁵ against a sum of at least 2⁻¹⁰²²) and
    /// `hypot` within 1 ulp of |z|, so a gap of 1e-13 leaves a margin of over
    /// a hundred ulps. Exact zeros are decided directly, since
    /// `hypot(±0, ±0)` is `+0`. Everything else — near-ties, squares that
    /// overflowed or underflowed to a non-normal value, NaN and infinite
    /// components — is left to `hypot`.
    pub fn abs_exceeds(self, self_sqr: f64, other: Complex, other_sqr: f64) -> bool {
        if self_sqr.is_normal() && other_sqr.is_normal() {
            if self_sqr > other_sqr * (1.0 + SQUARE_TIE_GAP) {
                return true;
            }
            if other_sqr > self_sqr * (1.0 + SQUARE_TIE_GAP) {
                return false;
            }
        } else if self.re == 0.0 && self.im == 0.0 {
            // +0 exceeds nothing, NaN included.
            return false;
        } else if other.re == 0.0 && other.im == 0.0 && self_sqr.is_normal() {
            // A finite non-zero magnitude against +0.
            return true;
        }
        self.abs() > other.abs()
    }

    /// Returns `true` if either component is NaN.
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::from_real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division via the reciprocal is the standard numerically-stable form.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + b, Complex::new(-2.0, 2.5));
        assert_eq!(a - b, Complex::new(4.0, 1.5));
        let prod = a * b;
        assert!((prod.re - (1.0 * -3.0 - 2.0 * 0.5)).abs() < 1e-12);
        assert!((prod.im - (1.0 * 0.5 + 2.0 * -3.0)).abs() < 1e-12);
        let div = prod / b;
        assert!((div.re - a.re).abs() < 1e-12 && (div.im - a.im).abs() < 1e-12);
    }

    #[test]
    fn polar_roundtrip() {
        let z = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_4);
        assert!((z.abs() - 2.0).abs() < 1e-12);
        assert!((z.arg() - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        assert!((z.arg_deg() - 45.0).abs() < 1e-9);
    }

    #[test]
    fn db_conversion() {
        let z = Complex::from_real(100.0);
        assert!((z.abs_db() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn recip_and_conj() {
        let z = Complex::new(3.0, -4.0);
        assert!((z.abs() - 5.0).abs() < 1e-12);
        let inv = z.recip();
        let one = z * inv;
        assert!((one.re - 1.0).abs() < 1e-12 && one.im.abs() < 1e-12);
        assert_eq!(z.conj(), Complex::new(3.0, 4.0));
        assert!(!z.is_nan());
        assert!(Complex::new(f64::NAN, 0.0).is_nan());
    }
}
