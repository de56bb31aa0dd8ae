//! Householder QR factorization and least-squares solve (`dgels`).

use netsolve_core::error::{NetSolveError, Result};
use netsolve_core::matrix::Matrix;

/// Compact Householder QR of an `m x n` matrix with `m >= n`: reflectors
/// are stored below the diagonal of `qr`, `R` in the upper triangle, and
/// the reflector scaling factors in `tau`.
#[derive(Debug, Clone)]
pub struct QrFactors {
    qr: Matrix,
    tau: Vec<f64>,
}

/// Factor `A = Q R` by Householder reflections. Errors when `m < n`
/// (underdetermined systems are out of scope, as in LAPACK's basic driver).
pub fn qr_factor(a: &Matrix) -> Result<QrFactors> {
    let (m, n) = (a.rows(), a.cols());
    if m < n {
        return Err(NetSolveError::BadArguments(format!(
            "qr_factor: need m >= n, got {m}x{n}"
        )));
    }
    let mut qr = a.clone();
    let mut tau = vec![0.0; n];

    for k in 0..n {
        // Build the Householder vector for column k.
        let col = qr.col(k);
        let alpha = {
            let norm = col[k..].iter().map(|v| v * v).sum::<f64>().sqrt();
            if norm == 0.0 {
                0.0
            } else if col[k] >= 0.0 {
                -norm
            } else {
                norm
            }
        };
        if alpha == 0.0 {
            tau[k] = 0.0;
            continue;
        }
        let beta = {
            let akk = qr[(k, k)];
            let v0 = akk - alpha;
            // Normalize so v[k] = 1 implicitly; store v below diagonal.
            for r in (k + 1)..m {
                qr[(r, k)] /= v0;
            }
            qr[(k, k)] = alpha; // R's diagonal entry
            // tau = (alpha - akk)/alpha form: standard beta = -v0/alpha
            -v0 / alpha
        };
        tau[k] = beta;
        // Apply the reflector H = I - beta * v v^T to the trailing columns.
        for c in (k + 1)..n {
            // w = v^T * A[:, c]
            let mut w = qr[(k, c)];
            for r in (k + 1)..m {
                w += qr[(r, k)] * qr[(r, c)];
            }
            let w = w * beta;
            qr[(k, c)] -= w;
            for r in (k + 1)..m {
                let v_r = qr[(r, k)];
                qr[(r, c)] -= v_r * w;
            }
        }
    }
    Ok(QrFactors { qr, tau })
}

impl QrFactors {
    /// Shape of the factored matrix `(m, n)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.qr.rows(), self.qr.cols())
    }

    /// Apply `Q^T` to a vector of length `m` in place.
    fn apply_qt(&self, x: &mut [f64]) {
        let (m, n) = self.shape();
        for k in 0..n {
            let beta = self.tau[k];
            if beta == 0.0 {
                continue;
            }
            let mut w = x[k];
            for (r, &xr) in x.iter().enumerate().take(m).skip(k + 1) {
                w += self.qr[(r, k)] * xr;
            }
            let w = w * beta;
            x[k] -= w;
            for (r, xr) in x.iter_mut().enumerate().take(m).skip(k + 1) {
                *xr -= self.qr[(r, k)] * w;
            }
        }
    }

    /// Least-squares solve `min ||A x - b||_2`. Errors on length mismatch
    /// or a rank-deficient `R`.
    pub fn solve_ls(&self, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = self.shape();
        if b.len() != m {
            return Err(NetSolveError::BadArguments(format!(
                "solve_ls: rhs has {} entries, expected {m}",
                b.len()
            )));
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        // Back-substitute R x = y[0..n].
        let mut x = vec![0.0; n];
        for k in (0..n).rev() {
            let rkk = self.qr[(k, k)];
            if rkk.abs() < 1e-13 {
                return Err(NetSolveError::Numerical(format!(
                    "rank-deficient least-squares system (R[{k},{k}] ~ 0)"
                )));
            }
            let mut s = y[k];
            for (c, &xc) in x.iter().enumerate().skip(k + 1) {
                s -= self.qr[(k, c)] * xc;
            }
            x[k] = s / rkk;
        }
        Ok(x)
    }

    /// The residual norm `||A x - b||` achievable, i.e. the norm of the
    /// bottom `m - n` entries of `Q^T b`.
    pub fn residual_norm(&self, b: &[f64]) -> Result<f64> {
        let (m, n) = self.shape();
        if b.len() != m {
            return Err(NetSolveError::BadArguments("rhs length".into()));
        }
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        Ok(y[n..].iter().map(|v| v * v).sum::<f64>().sqrt())
    }
}

/// One-shot least squares (`dgels`).
pub fn dgels(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    qr_factor(a)?.solve_ls(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas;
    use crate::lu::tests::{inf_norm, mat_inf_norm, ORDERS};
    use netsolve_core::matrix::vec_max_abs_diff;
    use netsolve_core::rng::Rng64;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(28))]

        /// On square, full-rank random systems `dgels` is a linear solve and
        /// meets LU's normwise backward-error bound, at LU's orders.
        #[test]
        fn square_backward_error_meets_lu_bound(seed in any::<u64>(), which in 0usize..ORDERS.len()) {
            let n = ORDERS[which];
            let mut rng = Rng64::new(seed);
            let a = Matrix::random(n, n, &mut rng);
            let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let x = dgels(&a, &b).unwrap();
            let ax = a.matvec(&x).unwrap();
            let resid: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
            let eta = inf_norm(&resid) / (mat_inf_norm(&a) * inf_norm(&x) + inf_norm(&b));
            prop_assert!(eta <= 4.0 * n as f64 * f64::EPSILON, "n={n}: backward error {eta:e}");
        }
    }

    #[test]
    fn square_system_exact() {
        let a = Matrix::from_rows(2, 2, &[2.0, 1.0, 1.0, 3.0]).unwrap();
        let x = dgels(&a, &[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn overdetermined_line_fit() {
        // Fit y = 1 + 2 t through exact samples: residual must be ~0 and
        // coefficients recovered.
        let ts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let a = Matrix::from_fn(5, 2, |r, c| if c == 0 { 1.0 } else { ts[r] });
        let b: Vec<f64> = ts.iter().map(|t| 1.0 + 2.0 * t).collect();
        let x = dgels(&a, &b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
        let f = qr_factor(&a).unwrap();
        assert!(f.residual_norm(&b).unwrap() < 1e-12);
    }

    #[test]
    fn least_squares_minimizes_residual() {
        // Noisy overdetermined system: the LS solution's residual must be
        // no worse than nearby perturbations of it.
        let mut rng = Rng64::new(5);
        let a = Matrix::random(20, 4, &mut rng);
        let b: Vec<f64> = (0..20).map(|i| (i as f64).cos()).collect();
        let x = dgels(&a, &b).unwrap();

        let resid = |x: &[f64]| {
            let ax = a.matvec(x).unwrap();
            ax.iter()
                .zip(&b)
                .map(|(p, q)| (p - q) * (p - q))
                .sum::<f64>()
                .sqrt()
        };
        let base = resid(&x);
        for k in 0..4 {
            for delta in [-1e-3, 1e-3] {
                let mut xp = x.clone();
                xp[k] += delta;
                assert!(resid(&xp) >= base - 1e-12, "perturbation improved LS residual");
            }
        }
    }

    #[test]
    fn normal_equations_hold() {
        // At the LS optimum, A^T (A x - b) = 0.
        let mut rng = Rng64::new(15);
        let a = Matrix::random(12, 5, &mut rng);
        let b: Vec<f64> = (0..12).map(|i| (i as f64) * 0.1 - 0.5).collect();
        let x = dgels(&a, &b).unwrap();
        let ax = a.matvec(&x).unwrap();
        let r: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
        let at = a.transpose();
        let grad = at.matvec(&r).unwrap();
        assert!(blas::dnrm2(&grad) < 1e-10, "normal equations violated: {grad:?}");
    }

    #[test]
    fn qr_reconstructs_matrix() {
        // Verify Q R == A by applying Q to R's columns via solve paths:
        // instead check A x == Q R x for random x using solve_ls on square A.
        let mut rng = Rng64::new(25);
        let a = Matrix::random_diag_dominant(10, &mut rng);
        let x_true: Vec<f64> = (0..10).map(|i| (i as f64).sin()).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = dgels(&a, &b).unwrap();
        assert!(vec_max_abs_diff(&x, &x_true) < 1e-9);
    }

    #[test]
    fn underdetermined_rejected() {
        let a = Matrix::zeros(2, 5);
        assert!(qr_factor(&a).is_err());
    }

    #[test]
    fn rank_deficient_detected() {
        // Two identical columns.
        let a = Matrix::from_fn(6, 2, |r, _| r as f64 + 1.0);
        match dgels(&a, &[1.0; 6]) {
            Err(NetSolveError::Numerical(_)) => {}
            other => panic!("expected Numerical error, got {other:?}"),
        }
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::identity(3);
        let f = qr_factor(&a).unwrap();
        assert!(f.solve_ls(&[1.0]).is_err());
        assert!(f.residual_norm(&[1.0]).is_err());
    }
}
