//! Linear algebra used by the MNA solver.
//!
//! Every MNA system, real (DC, transient) or complex (AC), is assembled
//! straight into a row-major [`DenseMatrix`] and solved by the one
//! partial-pivot LU, [`solve_in_place`].

pub mod complex;
pub mod lu;
pub mod matrix;

pub use complex::Complex;
pub use lu::solve_in_place;
pub use matrix::DenseMatrix;

use serde::{Deserialize, Serialize};

/// The linear-solver kernel a flow's MNA systems run on, as recorded in
/// every run manifest and hashed into submission digests.
///
/// There is one kernel, the dense LU. A manifest that names any other
/// kernel fails to load (``unknown variant `Sparse` for SolverKind``)
/// rather than resuming on a kernel it was not computed with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverKind {
    /// Dense assembly and the partial-pivot LU of [`solve_in_place`].
    Dense,
}

/// Scalar field abstraction letting the one LU routine factor real (DC) and
/// complex (AC) MNA systems.
///
/// The LU ranks pivots and skips zero multipliers through this trait rather
/// than through [`norm`](Scalar::norm), so a complex solve does not pay a
/// `hypot` per candidate. The contract that keeps every solve
/// bit-identical to a `hypot`-ranked one:
///
/// * [`norm_exceeds`](Scalar::norm_exceeds) answers exactly what
///   `a.norm() > b.norm()` answers, for every input including ties, zeros,
///   subnormals, overflowing squares, NaN and infinities;
/// * [`is_zero`](Scalar::is_zero) answers exactly what `x.norm() == 0.0`
///   answers;
/// * `x.div_by(p.divisor())` has the bits of `x / p`.
pub trait Scalar:
    Copy
    + PartialEq
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
    + std::ops::Neg<Output = Self>
    + std::fmt::Debug
{
    /// Additive identity.
    fn zero() -> Self;
    /// Multiplicative identity.
    fn one() -> Self;
    /// Magnitude used for the singular-pivot floor and convergence checks.
    fn norm(self) -> f64;
    /// A cheap key that ranks magnitudes: `|x|` for `f64`, `|z|²` for
    /// [`Complex`]. Pass it back to [`norm_exceeds`](Scalar::norm_exceeds).
    fn magnitude_key(self) -> f64;
    /// Whether `self.norm() > other.norm()`, given both values' magnitude
    /// keys; bit-exact with the `norm` comparison.
    fn norm_exceeds(self, key: f64, other: Self, other_key: f64) -> bool;
    /// Whether `self.norm() == 0.0`, without computing the norm.
    fn is_zero(self) -> bool;
    /// `self` prepared as a divisor for repeated [`div_by`](Scalar::div_by)
    /// calls: the reciprocal for [`Complex`] (whose division already
    /// multiplies by it), the value itself for `f64` (where multiplying by a
    /// reciprocal would change the last bit).
    fn divisor(self) -> Self;
    /// `self / p`, given `p.divisor()`.
    fn div_by(self, divisor: Self) -> Self;
}

impl Scalar for f64 {
    fn zero() -> Self {
        0.0
    }
    fn one() -> Self {
        1.0
    }
    fn norm(self) -> f64 {
        self.abs()
    }
    fn magnitude_key(self) -> f64 {
        self.abs()
    }
    fn norm_exceeds(self, key: f64, _other: Self, other_key: f64) -> bool {
        key > other_key
    }
    fn is_zero(self) -> bool {
        self == 0.0
    }
    fn divisor(self) -> Self {
        self
    }
    fn div_by(self, divisor: Self) -> Self {
        self / divisor
    }
}

impl Scalar for Complex {
    fn zero() -> Self {
        Complex::ZERO
    }
    fn one() -> Self {
        Complex::ONE
    }
    fn norm(self) -> f64 {
        self.abs()
    }
    fn magnitude_key(self) -> f64 {
        self.norm_sqr()
    }
    fn norm_exceeds(self, key: f64, other: Self, other_key: f64) -> bool {
        self.abs_exceeds(key, other, other_key)
    }
    fn is_zero(self) -> bool {
        self.re == 0.0 && self.im == 0.0
    }
    fn divisor(self) -> Self {
        self.recip()
    }
    fn div_by(self, divisor: Self) -> Self {
        self * divisor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_impls_agree_with_arithmetic() {
        assert_eq!(<f64 as Scalar>::zero(), 0.0);
        assert_eq!(<f64 as Scalar>::one(), 1.0);
        assert_eq!((-3.0f64).norm(), 3.0);
        assert_eq!(Complex::zero(), Complex::ZERO);
        assert!((Complex::new(3.0, 4.0).norm() - 5.0).abs() < 1e-12);
    }
}
