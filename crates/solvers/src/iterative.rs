//! Iterative sparse solvers (the ITPACK stand-in): conjugate gradient,
//! Jacobi, Gauss–Seidel and SOR on CSR matrices.

use netsolve_core::error::{NetSolveError, Result};
use netsolve_core::sparse::CsrMatrix;

use crate::blas::{daxpy, ddot, dnrm2};

/// Outcome of an iterative solve.
#[derive(Debug, Clone)]
pub struct IterResult {
    /// Approximate solution.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iters: u32,
    /// Final residual norm `||b - A x||`.
    pub residual: f64,
}

fn check_system(a: &CsrMatrix, b: &[f64]) -> Result<usize> {
    if a.rows() != a.cols() {
        return Err(NetSolveError::BadArguments(format!(
            "iterative solve: matrix is {}x{}, must be square",
            a.rows(),
            a.cols()
        )));
    }
    if b.len() != a.rows() {
        return Err(NetSolveError::BadArguments(format!(
            "iterative solve: rhs has {} entries, matrix order is {}",
            b.len(),
            a.rows()
        )));
    }
    if a.rows() == 0 {
        return Err(NetSolveError::BadArguments("empty system".into()));
    }
    Ok(a.rows())
}

fn check_tol(tol: f64) -> Result<()> {
    // NaN falls to the is_finite arm.
    if tol <= 0.0 || !tol.is_finite() {
        return Err(NetSolveError::BadArguments(format!(
            "tolerance {tol} must be positive and finite"
        )));
    }
    Ok(())
}

/// Conjugate gradient for symmetric positive-definite systems.
///
/// Converges when `||b - A x|| <= tol * ||b||`; errors if `maxit` is
/// exhausted. The recurred residual drifts from the true one below the
/// attainable accuracy, so when it says converged one `spmv` confirms it,
/// and a miss restarts from the true residual.
pub fn cg(a: &CsrMatrix, b: &[f64], tol: f64, maxit: u32) -> Result<IterResult> {
    let n = check_system(a, b)?;
    check_tol(tol)?;
    let b_norm = dnrm2(b).max(1e-300);

    let mut x = vec![0.0; n];
    let mut r = b.to_vec(); // r = b - A*0
    let mut p = r.clone();
    let mut rs_old = ddot(&r, &r)?;

    for it in 0..=maxit {
        if rs_old.sqrt() <= tol * b_norm {
            let ax = a.spmv(&x)?;
            let resid = residual_norm(b, &ax);
            if resid <= tol * b_norm {
                return Ok(IterResult { x, iters: it, residual: resid });
            }
            for ((ri, bi), axi) in r.iter_mut().zip(b).zip(&ax) {
                *ri = bi - axi;
            }
            p.copy_from_slice(&r);
            rs_old = ddot(&r, &r)?;
        }
        if it == maxit {
            break;
        }
        let ap = a.spmv(&p)?;
        let p_ap = ddot(&p, &ap)?;
        if p_ap <= 0.0 {
            return Err(NetSolveError::Numerical(format!(
                "CG breakdown: p^T A p = {p_ap:.3e} (matrix not SPD?)"
            )));
        }
        let alpha = rs_old / p_ap;
        daxpy(alpha, &p, &mut x)?;
        daxpy(-alpha, &ap, &mut r)?;
        let rs_new = ddot(&r, &r)?;
        let beta = rs_new / rs_old;
        for (pi, ri) in p.iter_mut().zip(&r) {
            *pi = ri + beta * *pi;
        }
        rs_old = rs_new;
    }
    let ax = a.spmv(&x)?;
    Err(NetSolveError::Numerical(format!(
        "CG did not converge in {maxit} iterations (residual {:.3e})",
        residual_norm(b, &ax)
    )))
}

/// Jacobi iteration. Requires a nonzero diagonal; converges for strictly
/// diagonally dominant systems.
pub fn jacobi(a: &CsrMatrix, b: &[f64], tol: f64, maxit: u32) -> Result<IterResult> {
    let n = check_system(a, b)?;
    check_tol(tol)?;
    let diag = a.diagonal()?;
    if let Some(i) = diag.iter().position(|&d| d == 0.0) {
        return Err(NetSolveError::Numerical(format!("zero diagonal at row {i}")));
    }
    let b_norm = dnrm2(b).max(1e-300);
    let mut x = vec![0.0; n];
    let mut x_next = vec![0.0; n];

    for it in 1..=maxit {
        for i in 0..n {
            let mut s = b[i];
            for (c, v) in a.row_entries(i) {
                if c != i {
                    s -= v * x[c];
                }
            }
            x_next[i] = s / diag[i];
        }
        std::mem::swap(&mut x, &mut x_next);
        // residual check (every iteration: systems here are modest)
        let ax = a.spmv(&x)?;
        let resid = residual_norm(b, &ax);
        if resid <= tol * b_norm {
            return Ok(IterResult { x, iters: it, residual: resid });
        }
    }
    let ax = a.spmv(&x)?;
    Err(NetSolveError::Numerical(format!(
        "Jacobi did not converge in {maxit} iterations (residual {:.3e})",
        residual_norm(b, &ax)
    )))
}

/// Successive over-relaxation; `omega = 1` gives Gauss–Seidel. Requires
/// `0 < omega < 2` and a nonzero diagonal.
pub fn sor(a: &CsrMatrix, b: &[f64], omega: f64, tol: f64, maxit: u32) -> Result<IterResult> {
    let n = check_system(a, b)?;
    check_tol(tol)?;
    if !(omega > 0.0 && omega < 2.0) {
        return Err(NetSolveError::BadArguments(format!(
            "SOR relaxation factor {omega} outside (0, 2)"
        )));
    }
    let diag = a.diagonal()?;
    if let Some(i) = diag.iter().position(|&d| d == 0.0) {
        return Err(NetSolveError::Numerical(format!("zero diagonal at row {i}")));
    }
    let b_norm = dnrm2(b).max(1e-300);
    let mut x = vec![0.0; n];

    for it in 1..=maxit {
        for i in 0..n {
            let mut s = b[i];
            for (c, v) in a.row_entries(i) {
                if c != i {
                    s -= v * x[c];
                }
            }
            let gs = s / diag[i];
            x[i] = (1.0 - omega) * x[i] + omega * gs;
        }
        let ax = a.spmv(&x)?;
        let resid = residual_norm(b, &ax);
        if resid <= tol * b_norm {
            return Ok(IterResult { x, iters: it, residual: resid });
        }
    }
    let ax = a.spmv(&x)?;
    Err(NetSolveError::Numerical(format!(
        "SOR did not converge in {maxit} iterations (residual {:.3e})",
        residual_norm(b, &ax)
    )))
}

/// Gauss–Seidel = SOR with `omega = 1`.
pub fn gauss_seidel(a: &CsrMatrix, b: &[f64], tol: f64, maxit: u32) -> Result<IterResult> {
    sor(a, b, 1.0, tol, maxit)
}

fn residual_norm(b: &[f64], ax: &[f64]) -> f64 {
    b.iter()
        .zip(ax)
        .map(|(bi, axi)| (bi - axi) * (bi - axi))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsolve_core::matrix::vec_max_abs_diff;
    use netsolve_core::rng::Rng64;
    use proptest::prelude::*;

    fn laplace_system(nx: usize, ny: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = CsrMatrix::laplacian_2d(nx, ny);
        let n = nx * ny;
        let x_true: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
        let b = a.spmv(&x_true).unwrap();
        (a, b, x_true)
    }

    #[test]
    fn cg_solves_laplacian() {
        let (a, b, x_true) = laplace_system(10, 10);
        let r = cg(&a, &b, 1e-10, 1000).unwrap();
        assert!(vec_max_abs_diff(&r.x, &x_true) < 1e-7);
        assert!(r.iters > 0 && r.iters < 400);
        assert!(r.residual <= 1e-10 * dnrm2(&b) * 1.01);
    }

    #[test]
    fn cg_zero_rhs_converges_immediately() {
        let a = CsrMatrix::identity(5);
        let r = cg(&a, &[0.0; 5], 1e-12, 10).unwrap();
        assert_eq!(r.iters, 0);
        assert_eq!(r.x, vec![0.0; 5]);
    }

    #[test]
    fn cg_detects_non_spd() {
        // -I is symmetric negative definite.
        let t: Vec<(usize, usize, f64)> = (0..4).map(|i| (i, i, -1.0)).collect();
        let a = CsrMatrix::from_triplets(4, 4, &t).unwrap();
        match cg(&a, &[1.0; 4], 1e-10, 100) {
            Err(NetSolveError::Numerical(m)) => assert!(m.contains("SPD"), "{m}"),
            other => panic!("expected breakdown, got {other:?}"),
        }
    }

    #[test]
    fn cg_iteration_limit_reported() {
        let (a, b, _) = laplace_system(12, 12);
        match cg(&a, &b, 1e-14, 2) {
            Err(NetSolveError::Numerical(m)) => assert!(m.contains("converge")),
            other => panic!("expected non-convergence, got {other:?}"),
        }
    }

    #[test]
    fn jacobi_solves_dominant_system() {
        let mut rng = Rng64::new(61);
        let a = CsrMatrix::random_diag_dominant(40, 0.1, &mut rng);
        let x_true: Vec<f64> = (0..40).map(|i| (i as f64 * 0.21).cos()).collect();
        let b = a.spmv(&x_true).unwrap();
        let r = jacobi(&a, &b, 1e-10, 2000).unwrap();
        assert!(vec_max_abs_diff(&r.x, &x_true) < 1e-7);
    }

    #[test]
    fn gauss_seidel_faster_than_jacobi() {
        let mut rng = Rng64::new(63);
        let a = CsrMatrix::random_diag_dominant(50, 0.1, &mut rng);
        let x_true: Vec<f64> = (0..50).map(|i| (i as f64 * 0.5).sin()).collect();
        let b = a.spmv(&x_true).unwrap();
        let rj = jacobi(&a, &b, 1e-9, 5000).unwrap();
        let rg = gauss_seidel(&a, &b, 1e-9, 5000).unwrap();
        assert!(
            rg.iters <= rj.iters,
            "GS took {} iters, Jacobi {}",
            rg.iters,
            rj.iters
        );
    }

    #[test]
    fn sor_converges_on_laplacian() {
        let (a, b, x_true) = laplace_system(8, 8);
        let r = sor(&a, &b, 1.5, 1e-9, 5000).unwrap();
        assert!(vec_max_abs_diff(&r.x, &x_true) < 1e-6);
    }

    #[test]
    fn sor_validates_omega() {
        let a = CsrMatrix::identity(3);
        assert!(sor(&a, &[1.0; 3], 0.0, 1e-8, 10).is_err());
        assert!(sor(&a, &[1.0; 3], 2.0, 1e-8, 10).is_err());
        assert!(sor(&a, &[1.0; 3], -0.5, 1e-8, 10).is_err());
    }

    #[test]
    fn zero_diagonal_detected() {
        let a = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(jacobi(&a, &[1.0, 1.0], 1e-8, 10).is_err());
        assert!(sor(&a, &[1.0, 1.0], 1.0, 1e-8, 10).is_err());
    }

    #[test]
    fn shape_and_tol_validation() {
        let a = CsrMatrix::identity(3);
        assert!(cg(&a, &[1.0, 2.0], 1e-8, 10).is_err());
        assert!(cg(&a, &[1.0; 3], -1e-8, 10).is_err());
        assert!(cg(&a, &[1.0; 3], f64::NAN, 10).is_err());
        let rect = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(jacobi(&rect, &[1.0, 1.0], 1e-8, 10).is_err());
    }

    #[test]
    fn all_methods_agree() {
        let (a, b, _) = laplace_system(6, 6);
        let xc = cg(&a, &b, 1e-11, 2000).unwrap().x;
        let xj = jacobi(&a, &b, 1e-11, 20000).unwrap().x;
        let xs = sor(&a, &b, 1.2, 1e-11, 20000).unwrap().x;
        assert!(vec_max_abs_diff(&xc, &xj) < 1e-6);
        assert!(vec_max_abs_diff(&xc, &xs) < 1e-6);
    }

    /// Below CG's attainable accuracy the recurred residual passes `tol`
    /// while `b - A x` does not: the answer must not be labelled converged.
    #[test]
    fn cg_reports_the_true_residual_below_attainable_accuracy() {
        for (side, tol) in [(48, 1e-15), (96, 1e-16)] {
            let a = CsrMatrix::laplacian_2d(side, side);
            let mut rng = Rng64::new(11);
            let b: Vec<f64> = (0..side * side).map(|_| rng.uniform(-1.0, 1.0)).collect();
            match cg(&a, &b, tol, 2000) {
                Ok(r) => {
                    let true_resid = residual_norm(&b, &a.spmv(&r.x).unwrap());
                    assert!(true_resid <= tol * dnrm2(&b), "{side}: {true_resid:e}");
                    assert_eq!(r.residual, true_resid);
                }
                Err(NetSolveError::Numerical(m)) => assert!(m.contains("converge"), "{m}"),
                Err(other) => panic!("{side}: {other:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Whatever each method returns as `residual` is `||b - A x||` of
        /// the `x` it returns.
        #[test]
        fn returned_residual_is_the_true_residual(seed in any::<u64>(), side in 2usize..12, tight in any::<bool>()) {
            let mut rng = Rng64::new(seed);
            let tol = if tight { 1e-15 } else { 1e-9 };
            let lap = CsrMatrix::laplacian_2d(side, side);
            let dom = CsrMatrix::random_diag_dominant(side * side, 0.1, &mut rng);
            let b: Vec<f64> = (0..side * side).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let runs = [
                (&lap, cg(&lap, &b, tol, 1000)),
                (&dom, jacobi(&dom, &b, tol, 5000)),
                (&dom, sor(&dom, &b, 1.2, tol, 5000)),
            ];
            for (a, run) in runs {
                if let Ok(r) = run {
                    prop_assert_eq!(r.residual, residual_norm(&b, &a.spmv(&r.x).unwrap()));
                    prop_assert!(r.residual <= tol * dnrm2(&b));
                }
            }
        }
    }
}
