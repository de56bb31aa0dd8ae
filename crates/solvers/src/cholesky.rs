//! Cholesky factorization and SPD solve (`dposv`).

use netsolve_core::error::{NetSolveError, Result};
use netsolve_core::matrix::Matrix;

use crate::blas::{gemm_update, max_abs, pack_columns, NB};

/// Lower-triangular Cholesky factor `L` with `A = L L^T`.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    l: Matrix,
}

/// Factor a symmetric positive-definite matrix. Errors on non-square,
/// non-symmetric, or non-positive-definite input.
pub fn cholesky_factor(a: &Matrix) -> Result<CholeskyFactor> {
    if !a.is_square() {
        return Err(NetSolveError::BadArguments(format!(
            "cholesky: matrix is {}x{}, must be square",
            a.rows(),
            a.cols()
        )));
    }
    let n = a.rows();
    // Symmetry check with a tolerance scaled to the matrix magnitude.
    let scale = max_abs(a.as_slice()).max(1.0);
    for i in 0..n {
        for j in (i + 1)..n {
            if (a[(i, j)] - a[(j, i)]).abs() > 1e-10 * scale {
                return Err(NetSolveError::BadArguments(format!(
                    "cholesky: matrix not symmetric at ({i},{j})"
                )));
            }
        }
    }
    // Blocked right-looking factorisation in place on a copy of `a`, of
    // which only the lower triangle is read: per panel of `NB` columns,
    // factor the tall panel column by column, then update the trailing
    // lower triangle `A22 -= L21 L21^T` one block column at a time through
    // `gemm_update`, against a transposed copy of `L21` (NB x n at most)
    // and reading `L21` itself from a packed copy.
    let mut l = a.clone();
    let data = l.as_mut_slice();
    let mut l21t = Vec::with_capacity(NB.min(n) * n);
    let mut packed = Vec::new();
    for k0 in (0..n).step_by(NB) {
        let k1 = (k0 + NB).min(n);
        let kb = k1 - k0;
        let (panel, right) = data[k0 * n..].split_at_mut(kb * n);
        for j in 0..kb {
            let (done, rest) = panel.split_at_mut(j * n);
            let colj = &mut rest[k0 + j..n];
            for colk in done.chunks_exact(n) {
                let lk = &colk[k0 + j..];
                for (s, v) in colj.iter_mut().zip(lk) {
                    *s -= v * lk[0];
                }
            }
            let diag = colj[0];
            // Written so that a NaN pivot fails the test too.
            if !(diag > 0.0 && diag.is_finite()) {
                return Err(NetSolveError::Numerical(format!(
                    "matrix not positive definite (pivot {diag:.3e} at step {})",
                    k0 + j
                )));
            }
            let ljj = diag.sqrt();
            colj[0] = ljj;
            colj[1..].iter_mut().for_each(|v| *v /= ljj);
        }
        l21t.clear();
        for i in k1..n {
            l21t.extend(panel.chunks_exact(n).map(|col| col[i]));
        }
        let ld = pack_columns(&mut packed, &panel[k1..], n, n - k1, kb);
        for j0 in (k1..n).step_by(NB) {
            let (rows, cols) = (n - j0, NB.min(n - j0));
            let c = &mut right[(j0 - k1) * n + j0..];
            let (l21, l21t) = (&packed[j0 - k1..], &l21t[(j0 - k1) * kb..]);
            gemm_update(c, n, l21, ld, l21t, kb, rows, cols, kb, -1.0);
        }
    }
    // The strict upper triangle still holds `a` (and block-diagonal update
    // spill); the factor is lower-triangular.
    for j in 1..n {
        data[j * n..j * n + j].fill(0.0);
    }
    Ok(CholeskyFactor { l })
}

impl CholeskyFactor {
    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.l.rows()
    }

    /// Borrow the lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solve `A x = b` via forward then backward substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.order();
        if b.len() != n {
            return Err(NetSolveError::BadArguments(format!(
                "solve: rhs has {} entries, matrix order is {n}",
                b.len()
            )));
        }
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut x = b.to_vec();
        let cols = || self.l.as_slice().chunks_exact(n).enumerate();
        // L y = b, sweeping columns of L.
        for (k, col) in cols() {
            let (yk, below) = x[k..].split_first_mut().expect("k < n");
            *yk /= col[k];
            for (yi, l) in below.iter_mut().zip(&col[k + 1..]) {
                *yi -= l * *yk;
            }
        }
        // L^T x = y: row k of L^T is column k of L.
        for (k, col) in cols().rev() {
            let (xk, below) = x[k..].split_first_mut().expect("k < n");
            let dot: f64 = below.iter().zip(&col[k + 1..]).map(|(xi, l)| xi * l).sum();
            *xk = (*xk - dot) / col[k];
        }
        Ok(x)
    }

    /// log-determinant of `A` (numerically stable for large well-
    /// conditioned matrices: `2 Σ log L_ii`).
    pub fn log_det(&self) -> f64 {
        (0..self.order())
            .map(|i| self.l[(i, i)].ln())
            .sum::<f64>()
            * 2.0
    }
}

/// One-shot SPD solve (`dposv`).
pub fn dposv(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    cholesky_factor(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::dgemm_naive;
    use netsolve_core::matrix::vec_max_abs_diff;
    use netsolve_core::rng::Rng64;

    #[test]
    fn factor_reconstructs_matrix() {
        let mut rng = Rng64::new(31);
        // On, beside and past the panel boundaries of the blocked routine.
        for n in [1, 10, NB - 1, NB, NB + 1, 2 * NB + 3, 100] {
            let a = Matrix::random_spd(n, &mut rng);
            let f = cholesky_factor(&a).unwrap();
            let lt = f.l().transpose();
            let recon = dgemm_naive(f.l(), &lt).unwrap();
            assert!(
                recon.approx_eq(&a, 1e-13 * n as f64 * a.frobenius_norm()),
                "n={n}"
            );
            for j in 1..n {
                assert!(
                    f.l().col(j)[..j].iter().all(|&v| v == 0.0),
                    "n={n}: upper triangle not zero"
                );
            }
        }
    }

    #[test]
    fn non_finite_entries_are_a_numerical_error() {
        let n = NB + 4;
        let base = Matrix::random_spd(n, &mut Rng64::new(37));
        for (r, c) in [(0, 0), (n - 1, n - 1), (n - 1, 1)] {
            for bad in [f64::NAN, f64::INFINITY] {
                let mut a = base.clone();
                a[(r, c)] = bad;
                a[(c, r)] = bad;
                match dposv(&a, &vec![1.0; n]) {
                    Err(NetSolveError::Numerical(_)) => {}
                    other => panic!("{bad} at ({r},{c}): expected Numerical error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn solves_spd_system() {
        let mut rng = Rng64::new(33);
        for n in [1, 3, 15, 50] {
            let a = Matrix::random_spd(n, &mut rng);
            let x_true: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).recip()).collect();
            let b = a.matvec(&x_true).unwrap();
            let x = dposv(&a, &b).unwrap();
            assert!(vec_max_abs_diff(&x, &x_true) < 1e-7, "n={n}");
        }
    }

    #[test]
    fn agrees_with_lu_on_spd() {
        let mut rng = Rng64::new(35);
        let a = Matrix::random_spd(12, &mut rng);
        let b: Vec<f64> = (0..12).map(|i| (i as f64).cos()).collect();
        let x_chol = dposv(&a, &b).unwrap();
        let x_lu = crate::lu::dgesv(&a, &b).unwrap();
        assert!(vec_max_abs_diff(&x_chol, &x_lu) < 1e-8);
    }

    #[test]
    fn rejects_non_symmetric() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 3.0, 1.0]).unwrap();
        match cholesky_factor(&a) {
            Err(NetSolveError::BadArguments(_)) => {}
            other => panic!("expected BadArguments, got {other:?}"),
        }
    }

    #[test]
    fn rejects_indefinite() {
        // Symmetric but with a negative eigenvalue.
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 1.0]).unwrap();
        match cholesky_factor(&a) {
            Err(NetSolveError::Numerical(_)) => {}
            other => panic!("expected Numerical, got {other:?}"),
        }
    }

    #[test]
    fn rejects_non_square_and_bad_rhs() {
        assert!(cholesky_factor(&Matrix::zeros(2, 3)).is_err());
        let f = cholesky_factor(&Matrix::identity(3)).unwrap();
        assert!(f.solve(&[1.0]).is_err());
    }

    #[test]
    fn log_det_of_identity_is_zero() {
        let f = cholesky_factor(&Matrix::identity(6)).unwrap();
        assert!(f.log_det().abs() < 1e-14);
        // diag(4,4) -> det 16, log_det = ln 16
        let d = Matrix::from_rows(2, 2, &[4.0, 0.0, 0.0, 4.0]).unwrap();
        let f = cholesky_factor(&d).unwrap();
        assert!((f.log_det() - 16f64.ln()).abs() < 1e-12);
    }
}
