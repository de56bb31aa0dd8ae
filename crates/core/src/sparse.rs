//! Compressed-sparse-row matrices, standing in for the ITPACK-style sparse
//! problems NetSolve servers exposed (iterative solvers on large sparse
//! systems).

use crate::error::{NetSolveError, Result};
use crate::matrix::Matrix;
use crate::rng::Rng64;

/// Sparse matrix in CSR (compressed sparse row) format.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[r]..row_ptr[r+1]` indexes this row's entries.
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Build from COO triplets `(row, col, value)`. Duplicate coordinates are
    /// summed; explicit zeros are kept (callers may prune). Errors on
    /// out-of-range coordinates.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f64)],
    ) -> Result<Self> {
        for &(r, c, _) in triplets {
            if r >= rows || c >= cols {
                return Err(NetSolveError::BadArguments(format!(
                    "triplet ({r},{c}) outside {rows}x{cols}"
                )));
            }
        }
        let mut sorted: Vec<(usize, usize, f64)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        // merge duplicates
        let mut merged: Vec<(usize, usize, f64)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            if let Some(last) = merged.last_mut() {
                if last.0 == r && last.1 == c {
                    last.2 += v;
                    continue;
                }
            }
            merged.push((r, c, v));
        }
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _, _) in &merged {
            row_ptr[r + 1] += 1;
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        let col_idx = merged.iter().map(|&(_, c, _)| c).collect();
        let values = merged.iter().map(|&(_, _, v)| v).collect();
        Ok(CsrMatrix { rows, cols, row_ptr, col_idx, values })
    }

    /// Sparse identity.
    pub fn identity(n: usize) -> Self {
        let triplets: Vec<_> = (0..n).map(|i| (i, i, 1.0)).collect();
        CsrMatrix::from_triplets(n, n, &triplets).expect("identity triplets valid")
    }

    /// Standard 2-D Laplacian (5-point stencil) on an `nx x ny` grid: the
    /// canonical SPD test problem for iterative solvers.
    pub fn laplacian_2d(nx: usize, ny: usize) -> Self {
        let n = nx * ny;
        let idx = |i: usize, j: usize| i * ny + j;
        let mut t = Vec::with_capacity(5 * n);
        for i in 0..nx {
            for j in 0..ny {
                let k = idx(i, j);
                t.push((k, k, 4.0));
                if i > 0 {
                    t.push((k, idx(i - 1, j), -1.0));
                }
                if i + 1 < nx {
                    t.push((k, idx(i + 1, j), -1.0));
                }
                if j > 0 {
                    t.push((k, idx(i, j - 1), -1.0));
                }
                if j + 1 < ny {
                    t.push((k, idx(i, j + 1), -1.0));
                }
            }
        }
        CsrMatrix::from_triplets(n, n, &t).expect("laplacian triplets valid")
    }

    /// Random sparse matrix with ~`density` fraction of nonzeros, made
    /// diagonally dominant so iterative methods converge.
    pub fn random_diag_dominant(n: usize, density: f64, rng: &mut Rng64) -> Self {
        let mut t = Vec::new();
        let mut row_sums = vec![0.0f64; n];
        for (r, sum) in row_sums.iter_mut().enumerate() {
            for c in 0..n {
                if r != c && rng.chance(density) {
                    let v = rng.uniform(-1.0, 1.0);
                    t.push((r, c, v));
                    *sum += v.abs();
                }
            }
        }
        for (r, s) in row_sums.iter().enumerate() {
            t.push((r, r, s + 1.0 + rng.next_f64()));
        }
        CsrMatrix::from_triplets(n, n, &t).expect("random triplets valid")
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Value at `(r, c)` (0.0 where no entry is stored).
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of range");
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        match self.col_idx[lo..hi].binary_search(&c) {
            Ok(pos) => self.values[lo + pos],
            Err(_) => 0.0,
        }
    }

    /// Row `r` as `(col, value)` pairs.
    pub fn row_entries(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[r];
        let hi = self.row_ptr[r + 1];
        self.col_idx[lo..hi]
            .iter()
            .copied()
            .zip(self.values[lo..hi].iter().copied())
    }

    /// Sparse matrix–vector product `y = A x`.
    pub fn spmv(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(NetSolveError::BadArguments(format!(
                "spmv: vector length {} does not match cols {}",
                x.len(),
                self.cols
            )));
        }
        let mut y = vec![0.0; self.rows];
        for (r, yr) in y.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (c, v) in self.row_entries(r) {
                acc += v * x[c];
            }
            *yr = acc;
        }
        Ok(y)
    }

    /// Diagonal as a vector (0 where absent); errors on non-square.
    pub fn diagonal(&self) -> Result<Vec<f64>> {
        if self.rows != self.cols {
            return Err(NetSolveError::BadArguments(
                "diagonal of non-square matrix".into(),
            ));
        }
        Ok((0..self.rows).map(|i| self.get(i, i)).collect())
    }

    /// Densify (tests and small problems only).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for (c, v) in self.row_entries(r) {
                m[(r, c)] = v;
            }
        }
        m
    }

    /// Raw CSR parts `(row_ptr, col_idx, values)` for marshaling.
    pub fn parts(&self) -> (&[usize], &[usize], &[f64]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Rebuild from raw CSR parts, validating the invariants a wire peer
    /// could violate (monotone row_ptr, in-range columns, matching lengths).
    pub fn from_parts(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        if row_ptr.len() != rows + 1 {
            return Err(NetSolveError::BadArguments("row_ptr length".into()));
        }
        if row_ptr[0] != 0 || *row_ptr.last().unwrap() != values.len() {
            return Err(NetSolveError::BadArguments("row_ptr endpoints".into()));
        }
        if col_idx.len() != values.len() {
            return Err(NetSolveError::BadArguments("col_idx/values length".into()));
        }
        if row_ptr.windows(2).any(|w| w[0] > w[1]) {
            return Err(NetSolveError::BadArguments("row_ptr not monotone".into()));
        }
        if col_idx.iter().any(|&c| c >= cols) {
            return Err(NetSolveError::BadArguments("column index out of range".into()));
        }
        Ok(CsrMatrix { rows, cols, row_ptr, col_idx, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_triplets_sums_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0)]).unwrap();
        assert_eq!(m.values.len(), 2);
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 1), 5.0);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn from_triplets_rejects_out_of_range() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn identity_spmv_is_noop() {
        let i = CsrMatrix::identity(5);
        let x = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(i.spmv(&x).unwrap(), x);
        assert_eq!(i.values.len(), 5);
    }

    #[test]
    fn spmv_matches_dense_matvec() {
        let mut rng = Rng64::new(21);
        let a = CsrMatrix::random_diag_dominant(30, 0.2, &mut rng);
        let x: Vec<f64> = (0..30).map(|i| (i as f64).cos()).collect();
        let sparse_y = a.spmv(&x).unwrap();
        let dense_y = a.to_dense().matvec(&x).unwrap();
        for (s, d) in sparse_y.iter().zip(&dense_y) {
            assert!((s - d).abs() < 1e-10);
        }
    }

    #[test]
    fn spmv_rejects_bad_length() {
        let i = CsrMatrix::identity(3);
        assert!(i.spmv(&[1.0]).is_err());
    }

    #[test]
    fn laplacian_structure() {
        let l = CsrMatrix::laplacian_2d(3, 3);
        assert_eq!(l.rows(), 9);
        assert_eq!(l.get(4, 4), 4.0); // center node
        assert_eq!(l.get(4, 1), -1.0);
        assert_eq!(l.get(4, 3), -1.0);
        assert_eq!(l.get(4, 5), -1.0);
        assert_eq!(l.get(4, 7), -1.0);
        assert_eq!(l.get(0, 8), 0.0);
        // symmetric
        for r in 0..9 {
            for c in 0..9 {
                assert_eq!(l.get(r, c), l.get(c, r));
            }
        }
    }

    #[test]
    fn diagonal_and_errors() {
        let l = CsrMatrix::laplacian_2d(2, 2);
        assert_eq!(l.diagonal().unwrap(), vec![4.0; 4]);
        let rect = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(rect.diagonal().is_err());
    }

    #[test]
    fn parts_roundtrip() {
        let mut rng = Rng64::new(2);
        let a = CsrMatrix::random_diag_dominant(15, 0.3, &mut rng);
        let (rp, ci, v) = a.parts();
        let b = CsrMatrix::from_parts(15, 15, rp.to_vec(), ci.to_vec(), v.to_vec()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn from_parts_validates() {
        // bad row_ptr length
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1], vec![0], vec![1.0]).is_err());
        // non-monotone row_ptr
        assert!(CsrMatrix::from_parts(2, 2, vec![0, 1, 0], vec![0], vec![1.0]).is_err());
        // col out of range
        assert!(CsrMatrix::from_parts(1, 1, vec![0, 1], vec![3], vec![1.0]).is_err());
        // mismatched col/value lengths
        assert!(CsrMatrix::from_parts(1, 1, vec![0, 1], vec![0, 0], vec![1.0]).is_err());
        // endpoint mismatch
        assert!(CsrMatrix::from_parts(1, 1, vec![0, 2], vec![0], vec![1.0]).is_err());
    }

    #[test]
    fn random_sparse_is_diag_dominant() {
        let mut rng = Rng64::new(8);
        let a = CsrMatrix::random_diag_dominant(25, 0.15, &mut rng);
        for r in 0..25 {
            let off: f64 = a
                .row_entries(r)
                .filter(|&(c, _)| c != r)
                .map(|(_, v)| v.abs())
                .sum();
            assert!(a.get(r, r) > off);
        }
    }
}
