//! Pluggable linear-solver backends behind the [`SolverBackend`] trait.
//!
//! Both DC (real) and AC (complex) analyses hand the backend the same CSR
//! value matrix; the backend owns whatever scratch space its factorisation
//! needs and reuses it across solves. [`DenseLuBackend`] reproduces the
//! historical dense path bit-for-bit (scatter + partial-pivot LU);
//! [`SparseLuBackend`] is a left-looking (Gilbert–Peierls style) sparse LU
//! with partial pivoting that never forms the dense matrix.

use super::lu::pivot_is_singular;
use super::sparse::{CsrMatrix, SparsityPattern};
use super::{solve_in_place, DenseMatrix, Scalar};
use crate::error::{Result, SimError};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which linear-solver backend a flow uses for its MNA systems.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SolverKind {
    /// Scatter into a dense matrix and LU-factor it (the historical path).
    #[default]
    Dense,
    /// Sparse left-looking LU with partial pivoting over the CSR pattern.
    Sparse,
}

impl SolverKind {
    /// Stable lowercase name (used by the CLI and manifests).
    pub fn as_str(self) -> &'static str {
        match self {
            SolverKind::Dense => "dense",
            SolverKind::Sparse => "sparse",
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl std::str::FromStr for SolverKind {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "dense" => Ok(SolverKind::Dense),
            "sparse" => Ok(SolverKind::Sparse),
            other => Err(format!("unknown solver `{other}` (expected dense|sparse)")),
        }
    }
}

/// A linear solver over the shared CSR representation.
///
/// [`prepare`](SolverBackend::prepare) runs once per sparsity pattern (the
/// symbolic phase); [`solve`](SolverBackend::solve) may then be called any
/// number of times with different values over the same pattern, reusing the
/// backend's internal workspaces.
pub trait SolverBackend<T: Scalar> {
    /// Stable backend name for diagnostics.
    fn name(&self) -> &'static str;

    /// Performs the symbolic phase: size workspaces to `pattern`.
    fn prepare(&mut self, pattern: &Arc<SparsityPattern>);

    /// Solves `A·x = b` in place (`rhs` becomes the solution).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::SingularMatrix`] when elimination hits a pivot
    /// smaller than `1e-300` in magnitude (or a non-finite one).
    fn solve(&mut self, matrix: &CsrMatrix<T>, rhs: &mut [T]) -> Result<()>;
}

/// Builds the backend for `kind` over scalar field `T`.
pub fn backend_of<T: Scalar + 'static>(kind: SolverKind) -> Box<dyn SolverBackend<T>> {
    match kind {
        SolverKind::Dense => Box::new(DenseLuBackend::new()),
        SolverKind::Sparse => Box::new(SparseLuBackend::new()),
    }
}

/// The historical dense path: scatter the CSR values into a dense matrix and
/// run the in-place partial-pivot LU. Numerically bit-identical to the
/// pre-backend code (same scatter order, same factorisation).
#[derive(Debug)]
pub struct DenseLuBackend<T> {
    dense: DenseMatrix<T>,
}

impl<T: Scalar> DenseLuBackend<T> {
    /// Creates an unprepared backend.
    pub fn new() -> Self {
        DenseLuBackend {
            dense: DenseMatrix::zeros(0, 0),
        }
    }
}

impl<T: Scalar> Default for DenseLuBackend<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> SolverBackend<T> for DenseLuBackend<T> {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn prepare(&mut self, pattern: &Arc<SparsityPattern>) {
        self.dense = DenseMatrix::zeros(pattern.n(), pattern.n());
    }

    fn solve(&mut self, matrix: &CsrMatrix<T>, rhs: &mut [T]) -> Result<()> {
        matrix.scatter_into(&mut self.dense);
        solve_in_place(&mut self.dense, rhs)
    }
}

const UNPIVOTED: usize = usize::MAX;

/// Left-looking sparse LU with partial pivoting.
///
/// Columns are eliminated against the already-factored columns through a
/// dense accumulator with generation marks, so work per column is
/// proportional to the fill actually touched. L and U columns keep their
/// allocations across solves; only the values are rebuilt. Pivots are
/// ranked, multipliers tested for zero and divisions done through the same
/// [`Scalar`] helpers as [`solve_in_place`], so every decision is the one a
/// `hypot` ranking makes, bit for bit.
#[derive(Debug)]
pub struct SparseLuBackend<T> {
    n: usize,
    // Column-compressed view of the (row-compressed) pattern: for column j,
    // the rows that hold it and the CSR slot of each value.
    csc_ptr: Vec<usize>,
    csc_row: Vec<usize>,
    csc_slot: Vec<usize>,
    // Factors: L is unit-lower (pivot rows excluded), U strictly-upper by
    // pivot order plus a separate diagonal, kept as `Scalar::divisor`s.
    l_cols: Vec<Vec<(usize, T)>>,
    u_cols: Vec<Vec<(usize, T)>>,
    u_diag: Vec<T>,
    // p[k] = original row pivotal at elimination step k; pinv is its inverse.
    p: Vec<usize>,
    pinv: Vec<usize>,
    // Dense accumulator with generation marks and the touched-row list.
    x: Vec<T>,
    stamp: Vec<u64>,
    pass: u64,
    touched: Vec<usize>,
    y: Vec<T>,
}

impl<T: Scalar> SparseLuBackend<T> {
    /// Creates an unprepared backend.
    pub fn new() -> Self {
        SparseLuBackend {
            n: 0,
            csc_ptr: Vec::new(),
            csc_row: Vec::new(),
            csc_slot: Vec::new(),
            l_cols: Vec::new(),
            u_cols: Vec::new(),
            u_diag: Vec::new(),
            p: Vec::new(),
            pinv: Vec::new(),
            x: Vec::new(),
            stamp: Vec::new(),
            pass: 0,
            touched: Vec::new(),
            y: Vec::new(),
        }
    }

    fn factor(&mut self, matrix: &CsrMatrix<T>) -> Result<()> {
        let n = self.n;
        let values = matrix.values();
        self.pinv.iter_mut().for_each(|v| *v = UNPIVOTED);
        for j in 0..n {
            self.pass += 1;
            let pass = self.pass;
            self.touched.clear();
            // Scatter A(:,j) into the accumulator.
            for t in self.csc_ptr[j]..self.csc_ptr[j + 1] {
                let row = self.csc_row[t];
                self.x[row] = values[self.csc_slot[t]];
                self.stamp[row] = pass;
                self.touched.push(row);
            }
            // Eliminate against the already-pivoted columns, in pivot order.
            let u_col = &mut self.u_cols[j];
            u_col.clear();
            for k in 0..j {
                let pivot_row = self.p[k];
                if self.stamp[pivot_row] != pass {
                    continue;
                }
                let ukj = self.x[pivot_row];
                if ukj.is_zero() {
                    continue;
                }
                u_col.push((k, ukj));
                for &(row, lval) in &self.l_cols[k] {
                    if self.stamp[row] == pass {
                        self.x[row] = self.x[row] - lval * ukj;
                    } else {
                        self.x[row] = T::zero() - lval * ukj;
                        self.stamp[row] = pass;
                        self.touched.push(row);
                    }
                }
            }
            // Partial pivot: largest magnitude among not-yet-pivotal rows.
            let mut pivot_row = UNPIVOTED;
            let mut pivot = T::zero();
            let mut pivot_key = 0.0f64;
            for &row in &self.touched {
                if self.pinv[row] != UNPIVOTED {
                    continue;
                }
                let value = self.x[row];
                let key = value.magnitude_key();
                if pivot_row == UNPIVOTED || value.norm_exceeds(key, pivot, pivot_key) {
                    pivot_row = row;
                    pivot = value;
                    pivot_key = key;
                }
            }
            if pivot_row == UNPIVOTED || pivot_is_singular(pivot, pivot_key) {
                return Err(SimError::SingularMatrix {
                    pivot: j,
                    unknown: None,
                });
            }
            self.p[j] = pivot_row;
            self.pinv[pivot_row] = j;
            let divisor = pivot.divisor();
            self.u_diag[j] = divisor;
            let l_col = &mut self.l_cols[j];
            l_col.clear();
            for &row in &self.touched {
                if self.pinv[row] != UNPIVOTED {
                    continue;
                }
                let value = self.x[row];
                if !value.is_zero() {
                    l_col.push((row, value.div_by(divisor)));
                }
            }
        }
        Ok(())
    }
}

impl<T: Scalar> Default for SparseLuBackend<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Scalar> SolverBackend<T> for SparseLuBackend<T> {
    fn name(&self) -> &'static str {
        "sparse"
    }

    fn prepare(&mut self, pattern: &Arc<SparsityPattern>) {
        let n = pattern.n();
        self.n = n;
        // Transpose the CSR structure into CSC once; rows come out ascending
        // per column because the scan is row-major.
        let mut cols: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for row in 0..n {
            let range = pattern.row_range(row);
            for (offset, &col) in pattern.row_cols(row).iter().enumerate() {
                cols[col].push((row, range.start + offset));
            }
        }
        self.csc_ptr.clear();
        self.csc_row.clear();
        self.csc_slot.clear();
        self.csc_ptr.push(0);
        for col in &cols {
            for &(row, slot) in col {
                self.csc_row.push(row);
                self.csc_slot.push(slot);
            }
            self.csc_ptr.push(self.csc_row.len());
        }
        self.l_cols = vec![Vec::new(); n];
        self.u_cols = vec![Vec::new(); n];
        self.u_diag = vec![T::zero(); n];
        self.p = vec![UNPIVOTED; n];
        self.pinv = vec![UNPIVOTED; n];
        self.x = vec![T::zero(); n];
        self.stamp = vec![0; n];
        self.pass = 0;
        self.touched = Vec::with_capacity(n);
        self.y = vec![T::zero(); n];
    }

    fn solve(&mut self, matrix: &CsrMatrix<T>, rhs: &mut [T]) -> Result<()> {
        assert_eq!(matrix.n(), self.n, "backend prepared for a different size");
        assert_eq!(rhs.len(), self.n, "rhs length must match matrix size");
        self.factor(matrix)?;
        let n = self.n;
        // Forward substitution in pivot order: L·y = P·b.
        for (row, &b) in rhs.iter().enumerate() {
            self.y[self.pinv[row]] = b;
        }
        for k in 0..n {
            let yk = self.y[k];
            if yk.is_zero() {
                continue;
            }
            for &(row, lval) in &self.l_cols[k] {
                let target = self.pinv[row];
                self.y[target] = self.y[target] - lval * yk;
            }
        }
        // Backward substitution: U·x = y. No column pivoting, so x is in
        // natural order.
        for j in (0..n).rev() {
            let xj = self.y[j].div_by(self.u_diag[j]);
            rhs[j] = xj;
            if xj.is_zero() {
                continue;
            }
            for &(k, uval) in &self.u_cols[j] {
                self.y[k] = self.y[k] - uval * xj;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::sparse::PatternBuilder;
    use crate::linalg::Complex;

    /// Builds a banded, diagonally dominant sparse system with a
    /// deterministic pseudo-random fill and returns (pattern, matrix).
    fn random_system(n: usize, seed: u64) -> CsrMatrix<f64> {
        let mut builder = PatternBuilder::new(n);
        for i in 0..n {
            builder.entry(i, i);
            if i + 1 < n {
                builder.entry(i, i + 1);
                builder.entry(i + 1, i);
            }
            if i + 4 < n {
                builder.entry(i, i + 4);
                builder.entry(i + 4, i);
            }
        }
        let pattern = builder.build();
        let mut m = CsrMatrix::new(pattern);
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        let mut next = move || {
            state = state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for row in 0..n {
            for &col in &m.pattern().row_cols(row).to_vec() {
                let v = if row == col {
                    next() + n as f64
                } else {
                    next()
                };
                m.add(row, col, v);
            }
        }
        m
    }

    #[test]
    fn sparse_matches_dense_on_random_systems() {
        for seed in 0..20u64 {
            let n = 3 + (seed as usize % 40);
            let m = random_system(n, seed + 1);
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64) - 2.5).collect();
            let b = m.mul_vec(&x_true);

            let mut dense = DenseLuBackend::new();
            dense.prepare(m.pattern());
            let mut xd = b.clone();
            dense.solve(&m, &mut xd).unwrap();

            let mut sparse = SparseLuBackend::new();
            sparse.prepare(m.pattern());
            let mut xs = b.clone();
            sparse.solve(&m, &mut xs).unwrap();

            for ((d, s), want) in xd.iter().zip(xs.iter()).zip(x_true.iter()) {
                assert!((d - want).abs() < 1e-8, "dense: {d} vs {want}");
                assert!((s - want).abs() < 1e-8, "sparse: {s} vs {want}");
                assert!((d - s).abs() < 1e-9, "backends disagree: {d} vs {s}");
            }
        }
    }

    #[test]
    fn sparse_backend_is_reusable_across_solves() {
        let m1 = random_system(24, 7);
        let m2 = random_system(24, 8);
        let mut sparse = SparseLuBackend::new();
        sparse.prepare(m1.pattern());
        for m in [&m1, &m2, &m1] {
            let x_true: Vec<f64> = (0..24).map(|i| (i as f64).sin() + 2.0).collect();
            let mut x = m.mul_vec(&x_true);
            sparse.solve(m, &mut x).unwrap();
            for (got, want) in x.iter().zip(x_true.iter()) {
                assert!((got - want).abs() < 1e-8);
            }
        }
    }

    #[test]
    fn sparse_handles_systems_that_require_pivoting() {
        // Zero diagonal head forces row exchanges.
        let mut builder = PatternBuilder::new(3);
        for i in 0..3 {
            for j in 0..3 {
                builder.entry(i, j);
            }
        }
        let pattern = builder.build();
        let mut m: CsrMatrix<f64> = CsrMatrix::new(pattern);
        let entries = [
            (0, 0, 0.0),
            (0, 1, 2.0),
            (0, 2, 1.0),
            (1, 0, 1.0),
            (1, 1, 1.0),
            (1, 2, 1.0),
            (2, 0, 2.0),
            (2, 1, 0.0),
            (2, 2, -1.0),
        ];
        for (r, c, v) in entries {
            m.add(r, c, v);
        }
        let x_true = [1.0, -2.0, 3.0];
        let mut b = m.mul_vec(&x_true);
        let mut sparse = SparseLuBackend::new();
        sparse.prepare(m.pattern());
        sparse.solve(&m, &mut b).unwrap();
        for (got, want) in b.iter().zip(x_true.iter()) {
            assert!((got - want).abs() < 1e-10, "got {got}, want {want}");
        }
    }

    #[test]
    fn sparse_detects_singular_matrices() {
        let mut builder = PatternBuilder::new(2);
        builder.entry(0, 0);
        builder.entry(0, 1);
        builder.entry(1, 0);
        builder.entry(1, 1);
        let pattern = builder.build();
        let mut m: CsrMatrix<f64> = CsrMatrix::new(pattern);
        m.add(0, 0, 1.0);
        m.add(0, 1, 2.0);
        m.add(1, 0, 2.0);
        m.add(1, 1, 4.0);
        let mut sparse = SparseLuBackend::new();
        sparse.prepare(m.pattern());
        let mut b = vec![1.0, 2.0];
        let err = sparse.solve(&m, &mut b).unwrap_err();
        assert!(matches!(err, SimError::SingularMatrix { .. }));
    }

    #[test]
    fn sparse_solves_complex_systems() {
        let mut builder = PatternBuilder::new(2);
        builder.entry(0, 0);
        builder.entry(0, 1);
        builder.entry(1, 0);
        builder.entry(1, 1);
        let pattern = builder.build();
        let mut m: CsrMatrix<Complex> = CsrMatrix::new(pattern);
        m.add(0, 0, Complex::new(1.0, 1.0));
        m.add(0, 1, Complex::new(0.5, 0.0));
        m.add(1, 0, Complex::new(0.0, -0.5));
        m.add(1, 1, Complex::new(2.0, -1.0));
        let x_true = [Complex::new(1.0, -1.0), Complex::new(2.0, 0.5)];
        let mut b = m.mul_vec(&x_true);
        let mut sparse = SparseLuBackend::new();
        sparse.prepare(m.pattern());
        sparse.solve(&m, &mut b).unwrap();
        for (got, want) in b.iter().zip(x_true.iter()) {
            assert!((*got - *want).abs() < 1e-10);
        }
    }

    #[test]
    fn backend_of_builds_both_kinds() {
        let dense: Box<dyn SolverBackend<f64>> = backend_of(SolverKind::Dense);
        let sparse: Box<dyn SolverBackend<f64>> = backend_of(SolverKind::Sparse);
        assert_eq!(dense.name(), "dense");
        assert_eq!(sparse.name(), "sparse");
    }

    #[test]
    fn solver_kind_parses_and_displays() {
        assert_eq!("dense".parse::<SolverKind>().unwrap(), SolverKind::Dense);
        assert_eq!("SPARSE".parse::<SolverKind>().unwrap(), SolverKind::Sparse);
        assert!("cholesky".parse::<SolverKind>().is_err());
        assert_eq!(SolverKind::Sparse.to_string(), "sparse");
        assert_eq!(SolverKind::default(), SolverKind::Dense);
    }
}
