//! Dense column-major matrix, the fundamental data object exchanged between
//! NetSolve clients and servers.
//!
//! Column-major layout matches the Fortran convention of the numerical
//! libraries NetSolve wrapped (LAPACK), so the solver substrate in
//! `netsolve-solvers` can iterate columns contiguously.

use crate::error::{NetSolveError, Result};
use crate::rng::Rng64;

/// Dense `rows x cols` matrix of `f64`, column-major storage.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    /// `data[c * rows + r]` is element `(r, c)`.
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a generator called as `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for c in 0..cols {
            for r in 0..rows {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Construct from row-major data (the natural literal order in source
    /// code). Errors if the element count does not match the shape.
    pub fn from_rows(rows: usize, cols: usize, row_major: &[f64]) -> Result<Self> {
        if row_major.len() != rows * cols {
            return Err(NetSolveError::BadArguments(format!(
                "matrix literal has {} elements, expected {}x{}={}",
                row_major.len(),
                rows,
                cols,
                rows * cols
            )));
        }
        Ok(Matrix::from_fn(rows, cols, |r, c| row_major[r * cols + c]))
    }

    /// Construct directly from column-major storage. Errors on length
    /// mismatch.
    pub fn from_col_major(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(NetSolveError::BadArguments(format!(
                "column-major data has {} elements, expected {}",
                data.len(),
                rows * cols
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Random matrix with entries uniform in `[-1, 1)`, seeded.
    pub fn random(rows: usize, cols: usize, rng: &mut Rng64) -> Self {
        Matrix::from_fn(rows, cols, |_, _| rng.uniform(-1.0, 1.0))
    }

    /// Random diagonally-dominant matrix: well-conditioned, so every dense
    /// solver in the test-suite succeeds on it.
    pub fn random_diag_dominant(n: usize, rng: &mut Rng64) -> Self {
        let mut m = Matrix::random(n, n, rng);
        for i in 0..n {
            let off: f64 = (0..n).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
            m[(i, i)] = off + 1.0 + rng.next_f64();
        }
        m
    }

    /// Random symmetric positive-definite matrix (`A = B^T B + n·I`).
    pub fn random_spd(n: usize, rng: &mut Rng64) -> Self {
        let b = Matrix::random(n, n, rng);
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut s = 0.0;
                for k in 0..n {
                    s += b[(k, i)] * b[(k, j)];
                }
                a[(i, j)] = s;
            }
            a[(i, i)] += n as f64;
        }
        a
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True for `n x n` matrices.
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the matrix has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrow the column-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the column-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrow column `c` as a contiguous slice.
    pub fn col(&self, c: usize) -> &[f64] {
        assert!(c < self.cols, "column {c} out of range");
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Mutably borrow column `c`.
    pub fn col_mut(&mut self, c: usize) -> &mut [f64] {
        assert!(c < self.cols, "column {c} out of range");
        &mut self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Copy row `r` into a new vector (rows are strided in column-major).
    pub fn row(&self, r: usize) -> Vec<f64> {
        assert!(r < self.rows, "row {r} out of range");
        (0..self.cols).map(|c| self[(r, c)]).collect()
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Swap rows `a` and `b` in place (used by partial pivoting).
    pub fn swap_rows(&mut self, a: usize, b: usize) {
        assert!(a < self.rows && b < self.rows, "row index out of range");
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(c * self.rows + a, c * self.rows + b);
        }
    }

    /// Matrix–vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(NetSolveError::BadArguments(format!(
                "matvec: vector length {} does not match cols {}",
                x.len(),
                self.cols
            )));
        }
        let mut y = vec![0.0; self.rows];
        for (c, &xc) in x.iter().enumerate() {
            let col = self.col(c);
            for (yr, cr) in y.iter_mut().zip(col) {
                *yr += cr * xc;
            }
        }
        Ok(y)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Max-abs elementwise difference; +inf on shape mismatch.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        if self.rows != other.rows || self.cols != other.cols {
            return f64::INFINITY;
        }
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Elementwise approximate equality within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.max_abs_diff(other) <= tol
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        &self.data[c * self.rows + r]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index ({r},{c}) out of range");
        &mut self.data[c * self.rows + r]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "[{}x{}]", self.rows, self.cols)?;
        let max_show = 8;
        for r in 0..self.rows.min(max_show) {
            for c in 0..self.cols.min(max_show) {
                write!(f, "{:>12.5} ", self[(r, c)])?;
            }
            if self.cols > max_show {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if self.rows > max_show {
            writeln!(f, "...")?;
        }
        Ok(())
    }
}

/// Euclidean norm of a vector.
pub fn vec_norm2(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum::<f64>().sqrt()
}

/// Max-abs elementwise difference of two equal-length vectors; +inf on
/// length mismatch.
pub fn vec_max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() {
        return f64::INFINITY;
    }
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_identity_shapes() {
        let z = Matrix::zeros(2, 3);
        assert_eq!((z.rows(), z.cols(), z.len()), (2, 3, 6));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Matrix::identity(3);
        assert!(i.is_square());
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
    }

    #[test]
    fn from_rows_orders_elements_row_major() {
        let m = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m[(1, 0)], 4.0);
        assert_eq!(m[(1, 2)], 6.0);
        // column-major storage: col 0 is [1,4]
        assert_eq!(m.col(0), &[1.0, 4.0]);
        assert_eq!(m.row(1), vec![4.0, 5.0, 6.0]);
    }

    #[test]
    fn from_rows_rejects_bad_length() {
        assert!(Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_col_major(2, 2, vec![0.0; 3]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let mut rng = Rng64::new(3);
        let m = Matrix::random(4, 7, &mut rng);
        let t = m.transpose();
        assert_eq!((t.rows(), t.cols()), (7, 4));
        assert_eq!(t[(2, 3)], m[(3, 2)]);
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn swap_rows_swaps_every_column() {
        let mut m = Matrix::from_rows(3, 2, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        m.swap_rows(0, 2);
        assert_eq!(m.row(0), vec![5.0, 6.0]);
        assert_eq!(m.row(2), vec![1.0, 2.0]);
        m.swap_rows(1, 1); // no-op
        assert_eq!(m.row(1), vec![3.0, 4.0]);
    }

    #[test]
    fn matvec_identity_is_noop() {
        let i = Matrix::identity(4);
        let x = vec![1.0, -2.0, 3.0, 0.5];
        assert_eq!(i.matvec(&x).unwrap(), x);
    }

    #[test]
    fn matvec_rejects_mismatched_length() {
        let m = Matrix::zeros(2, 3);
        assert!(m.matvec(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn matvec_known_product() {
        let m = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = m.matvec(&[1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 7.0]);
    }

    #[test]
    fn diag_dominant_really_dominant() {
        let mut rng = Rng64::new(11);
        let m = Matrix::random_diag_dominant(20, &mut rng);
        for i in 0..20 {
            let off: f64 = (0..20).filter(|&j| j != i).map(|j| m[(i, j)].abs()).sum();
            assert!(m[(i, i)].abs() > off);
        }
    }

    #[test]
    fn spd_is_symmetric_with_positive_diagonal() {
        let mut rng = Rng64::new(13);
        let a = Matrix::random_spd(12, &mut rng);
        for i in 0..12 {
            assert!(a[(i, i)] > 0.0);
            for j in 0..12 {
                assert!((a[(i, j)] - a[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn norms_and_diffs() {
        let m = Matrix::from_rows(2, 2, &[3.0, 0.0, 0.0, 4.0]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-12);
        assert!((vec_norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        let n = Matrix::from_rows(2, 2, &[3.0, 0.0, 1.0, 4.0]).unwrap();
        assert!((m.max_abs_diff(&n) - 1.0).abs() < 1e-12);
        assert_eq!(m.max_abs_diff(&Matrix::zeros(1, 1)), f64::INFINITY);
        assert_eq!(vec_max_abs_diff(&[1.0], &[1.0, 2.0]), f64::INFINITY);
    }

    #[test]
    fn display_does_not_panic_on_large() {
        let m = Matrix::zeros(20, 20);
        let s = format!("{m}");
        assert!(s.contains("[20x20]"));
    }
}
