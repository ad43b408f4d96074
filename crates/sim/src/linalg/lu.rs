//! LU factorisation with partial pivoting and in-place solve.

use super::{DenseMatrix, Scalar};
use crate::error::{Result, SimError};

/// Pivots whose norm falls below this (or is not finite) make the matrix
/// singular.
const PIVOT_FLOOR: f64 = 1e-300;

/// Whether `pivot`, with magnitude key `key`, fails the singularity floor:
/// exactly `pivot.norm() < PIVOT_FLOOR || !pivot.norm().is_finite()`.
///
/// A finite key above 1e-280 means a finite norm above 1e-280 for `f64`
/// (key `|x|`) or 1e-140 for `Complex` (key `|z|²`), either far above the
/// floor, so only the rare other keys pay for the norm.
fn pivot_is_singular<T: Scalar>(pivot: T, key: f64) -> bool {
    if key > 1e-280 && key.is_finite() {
        return false;
    }
    let norm = pivot.norm();
    norm < PIVOT_FLOOR || !norm.is_finite()
}

/// Solves `A·x = b` in place: `a` is overwritten with its LU factors and `b`
/// with the solution vector.
///
/// Pivots are the largest-magnitude candidates as [`Scalar::norm`] ranks
/// them (ranked through [`Scalar::norm_exceeds`], which agrees bit for bit);
/// the first of equal candidates wins.
///
/// # Errors
///
/// Returns [`SimError::SingularMatrix`] if a pivot smaller than `1e-300` in
/// magnitude is encountered.
///
/// # Panics
///
/// Panics if `a` is not square or `b.len() != a.rows()`.
pub fn solve_in_place<T: Scalar>(a: &mut DenseMatrix<T>, b: &mut [T]) -> Result<()> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "matrix must be square");
    assert_eq!(b.len(), n, "rhs length must match matrix size");

    for k in 0..n {
        // Partial pivoting: find the row with the largest magnitude in column k.
        let mut pivot_row = k;
        let mut pivot = a[(k, k)];
        let mut pivot_key = pivot.magnitude_key();
        for i in (k + 1)..n {
            let candidate = a[(i, k)];
            let key = candidate.magnitude_key();
            if candidate.norm_exceeds(key, pivot, pivot_key) {
                pivot_row = i;
                pivot = candidate;
                pivot_key = key;
            }
        }
        if pivot_is_singular(pivot, pivot_key) {
            return Err(SimError::SingularMatrix {
                pivot: k,
                unknown: None,
            });
        }
        if pivot_row != k {
            a.swap_rows(k, pivot_row);
            b.swap(k, pivot_row);
        }
        let divisor = pivot.divisor();
        let (upper, lower) = a.as_mut_slice().split_at_mut((k + 1) * n);
        let pivot_tail = &upper[k * n + k + 1..];
        let (b_upper, b_lower) = b.split_at_mut(k + 1);
        let bk = b_upper[k];
        for (row, bi) in lower.chunks_exact_mut(n).zip(b_lower) {
            let factor = row[k].div_by(divisor);
            if factor.is_zero() {
                continue;
            }
            row[k] = factor;
            for (aij, &akj) in row[k + 1..].iter_mut().zip(pivot_tail) {
                *aij = *aij - factor * akj;
            }
            *bi = *bi - factor * bk;
        }
    }
    // Back substitution.
    let lu: &[T] = a.as_mut_slice();
    for i in (0..n).rev() {
        let row = &lu[i * n..(i + 1) * n];
        let mut acc = b[i];
        for (&aij, &bj) in row[i + 1..].iter().zip(&b[i + 1..]) {
            acc = acc - aij * bj;
        }
        b[i] = acc / row[i];
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Complex;

    #[test]
    fn solves_small_real_system() {
        // 2x + y = 5 ; x + 3y = 10  ->  x = 1, y = 3
        let mut a = DenseMatrix::from_rows(vec![vec![2.0, 1.0], vec![1.0, 3.0]]);
        let mut b = vec![5.0, 10.0];
        solve_in_place(&mut a, &mut b).unwrap();
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solves_system_requiring_pivoting() {
        // Zero on the first diagonal entry forces a row swap.
        let mut a = DenseMatrix::from_rows(vec![
            vec![0.0, 2.0, 1.0],
            vec![1.0, 1.0, 1.0],
            vec![2.0, 0.0, -1.0],
        ]);
        let original = a.clone();
        let x_expected = [1.0, -2.0, 3.0];
        let mut b = original.mul_vec(&x_expected);
        solve_in_place(&mut a, &mut b).unwrap();
        for (got, want) in b.iter().zip(x_expected.iter()) {
            assert!((got - want).abs() < 1e-10, "got {got}, want {want}");
        }
    }

    #[test]
    fn detects_singular_matrix() {
        let mut a = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![2.0, 4.0]]);
        let mut b = vec![1.0, 2.0];
        let err = solve_in_place(&mut a, &mut b).unwrap_err();
        assert!(matches!(err, SimError::SingularMatrix { .. }));
    }

    #[test]
    fn solves_complex_system() {
        // (1+j)·x = 2j  ->  x = 1 + j
        let mut a: DenseMatrix<Complex> = DenseMatrix::zeros(1, 1);
        a[(0, 0)] = Complex::new(1.0, 1.0);
        let mut b = vec![Complex::new(0.0, 2.0)];
        solve_in_place(&mut a, &mut b).unwrap();
        assert!((b[0].re - 1.0).abs() < 1e-12);
        assert!((b[0].im - 1.0).abs() < 1e-12);
    }

    #[test]
    fn random_system_residual_is_small() {
        // Deterministic pseudo-random fill (no RNG dependency needed here).
        let n = 12;
        let mut a: DenseMatrix<f64> = DenseMatrix::zeros(n, n);
        let mut seed = 1u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = next();
            }
            a[(i, i)] += 4.0; // diagonally dominant -> well conditioned
        }
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 3.5).collect();
        let b = a.mul_vec(&x_true);
        let mut lu = a.clone();
        let mut x = b.clone();
        solve_in_place(&mut lu, &mut x).unwrap();
        for (got, want) in x.iter().zip(x_true.iter()) {
            assert!((got - want).abs() < 1e-9);
        }
    }
}
