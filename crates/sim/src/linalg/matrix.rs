//! Dense, row-major matrix storage.

use super::Scalar;

/// A dense, row-major `n × n` (or `rows × cols`) matrix over a [`Scalar`] field.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        DenseMatrix {
            rows,
            cols,
            data: vec![T::zero(); rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Creates a matrix from a nested vector (each inner vector is a row).
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: Vec<Vec<T>>) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        assert!(
            rows.iter().all(|r| r.len() == ncols),
            "all rows must have the same length"
        );
        DenseMatrix {
            rows: nrows,
            cols: ncols,
            data: rows.into_iter().flatten().collect(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Resets every entry to zero without reallocating.
    pub fn clear(&mut self) {
        for entry in &mut self.data {
            *entry = T::zero();
        }
    }

    /// Adds `value` to entry `(row, col)` — the fundamental MNA "stamp" operation.
    pub fn add(&mut self, row: usize, col: usize, value: T) {
        let idx = self.index(row, col);
        self.data[idx] = self.data[idx] + value;
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.cols()`.
    pub fn mul_vec(&self, x: &[T]) -> Vec<T> {
        assert_eq!(x.len(), self.cols, "dimension mismatch in mul_vec");
        (0..self.rows)
            .map(|i| {
                let mut acc = T::zero();
                for j in 0..self.cols {
                    acc = acc + self[(i, j)] * x[j];
                }
                acc
            })
            .collect()
    }

    /// Swaps two rows in place.
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            let ia = self.index(a, j);
            let ib = self.index(b, j);
            self.data.swap(ia, ib);
        }
    }

    /// The entries in row-major order.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Maximum absolute value of any entry (infinity norm of the flattened matrix).
    pub fn max_norm(&self) -> f64 {
        self.data.iter().map(|v| v.norm()).fold(0.0, f64::max)
    }

    #[inline]
    fn index(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.rows && col < self.cols, "index out of bounds");
        row * self.cols + col
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for DenseMatrix<T> {
    type Output = T;
    fn index(&self, (row, col): (usize, usize)) -> &T {
        &self.data[row * self.cols + col]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for DenseMatrix<T> {
    fn index_mut(&mut self, (row, col): (usize, usize)) -> &mut T {
        &mut self.data[row * self.cols + col]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Complex;

    #[test]
    fn zeros_identity_and_indexing() {
        let mut m: DenseMatrix<f64> = DenseMatrix::zeros(3, 3);
        assert_eq!(m[(1, 2)], 0.0);
        m[(1, 2)] = 5.0;
        m.add(1, 2, 2.5);
        assert_eq!(m[(1, 2)], 7.5);
        let id: DenseMatrix<f64> = DenseMatrix::identity(2);
        assert_eq!(id[(0, 0)], 1.0);
        assert_eq!(id[(0, 1)], 0.0);
    }

    #[test]
    fn mul_vec_matches_hand_computation() {
        let m = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        let y = m.mul_vec(&[1.0, 1.0]);
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn swap_rows_and_clear() {
        let mut m = DenseMatrix::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0]]);
        m.swap_rows(0, 1);
        assert_eq!(m[(0, 0)], 3.0);
        assert_eq!(m[(1, 1)], 2.0);
        m.clear();
        assert_eq!(m.max_norm(), 0.0);
    }

    #[test]
    fn complex_matrices_work() {
        let mut m: DenseMatrix<Complex> = DenseMatrix::zeros(2, 2);
        m[(0, 0)] = Complex::new(1.0, 1.0);
        m[(1, 1)] = Complex::new(0.0, -2.0);
        let y = m.mul_vec(&[Complex::ONE, Complex::ONE]);
        assert_eq!(y[0], Complex::new(1.0, 1.0));
        assert_eq!(y[1], Complex::new(0.0, -2.0));
        assert!((m.max_norm() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn from_rows_rejects_ragged_input() {
        let _ = DenseMatrix::from_rows(vec![vec![1.0], vec![1.0, 2.0]]);
    }
}
