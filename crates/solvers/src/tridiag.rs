//! Tridiagonal solve by the Thomas algorithm (`dgtsv`).

use netsolve_core::error::{NetSolveError, Result};

/// Solve a tridiagonal system.
///
/// * `dl` — sub-diagonal, length `n - 1`;
/// * `d`  — main diagonal, length `n`;
/// * `du` — super-diagonal, length `n - 1`;
/// * `b`  — right-hand side, length `n`.
///
/// Uses the Thomas algorithm (no pivoting), which is stable for the
/// diagonally dominant systems it is documented for; a vanishing pivot is
/// reported as a numerical error.
pub fn dgtsv(dl: &[f64], d: &[f64], du: &[f64], b: &[f64]) -> Result<Vec<f64>> {
    let n = d.len();
    if n == 0 {
        return Err(NetSolveError::BadArguments("empty diagonal".into()));
    }
    if dl.len() != n - 1 || du.len() != n - 1 || b.len() != n {
        return Err(NetSolveError::BadArguments(format!(
            "dgtsv: inconsistent lengths dl={} d={} du={} b={}",
            dl.len(),
            d.len(),
            du.len(),
            b.len()
        )));
    }
    let scale = d.iter().chain(dl).chain(du).fold(0.0f64, |a, &v| a.max(v.abs())).max(1.0);
    let tiny = 1e-14 * scale;

    // Forward sweep.
    let mut c_prime = vec![0.0; n];
    let mut d_prime = vec![0.0; n];
    if d[0].abs() < tiny {
        return Err(NetSolveError::Numerical("zero pivot at row 0".into()));
    }
    c_prime[0] = if n > 1 { du[0] / d[0] } else { 0.0 };
    d_prime[0] = b[0] / d[0];
    for i in 1..n {
        let denom = d[i] - dl[i - 1] * c_prime[i - 1];
        if denom.abs() < tiny {
            return Err(NetSolveError::Numerical(format!("zero pivot at row {i}")));
        }
        if i < n - 1 {
            c_prime[i] = du[i] / denom;
        }
        d_prime[i] = (b[i] - dl[i - 1] * d_prime[i - 1]) / denom;
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    x[n - 1] = d_prime[n - 1];
    for i in (0..n - 1).rev() {
        x[i] = d_prime[i] - c_prime[i] * x[i + 1];
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsolve_core::matrix::vec_max_abs_diff;
    use netsolve_core::rng::Rng64;

    /// Multiply a tridiagonal matrix by a vector (for residual checks).
    fn tridiag_matvec(dl: &[f64], d: &[f64], du: &[f64], x: &[f64]) -> Vec<f64> {
        (0..d.len())
            .map(|i| {
                let mut s = d[i] * x[i];
                if i > 0 {
                    s += dl[i - 1] * x[i - 1];
                }
                if i + 1 < d.len() {
                    s += du[i] * x[i + 1];
                }
                s
            })
            .collect()
    }

    #[test]
    fn solves_small_known_system() {
        // [[2,1,0],[1,2,1],[0,1,2]] x = [4,8,8] -> x = [1,2,3]
        let x = dgtsv(&[1.0, 1.0], &[2.0, 2.0, 2.0], &[1.0, 1.0], &[4.0, 8.0, 8.0]).unwrap();
        assert!(vec_max_abs_diff(&x, &[1.0, 2.0, 3.0]) < 1e-13);
    }

    #[test]
    fn random_dominant_systems() {
        let mut rng = Rng64::new(41);
        for n in [1usize, 2, 10, 500] {
            let dl: Vec<f64> = (0..n.saturating_sub(1)).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let du: Vec<f64> = (0..n.saturating_sub(1)).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let d: Vec<f64> = (0..n).map(|i| {
                let mut s = 2.5;
                if i > 0 { s += dl[i - 1].abs(); }
                if i < n - 1 { s += du[i].abs(); }
                s
            }).collect();
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
            let b = tridiag_matvec(&dl, &d, &du, &x_true);
            let x = dgtsv(&dl, &d, &du, &b).unwrap();
            assert!(vec_max_abs_diff(&x, &x_true) < 1e-10, "n={n}");
        }
    }

    #[test]
    fn laplacian_1d_solution() {
        // -u'' = 1 on a grid, u(0)=u(n+1)=0: tridiag(-1, 2, -1) x = h^2 * 1.
        let n = 100;
        let dl = vec![-1.0; n - 1];
        let du = vec![-1.0; n - 1];
        let d = vec![2.0; n];
        let b = vec![1.0; n];
        let x = dgtsv(&dl, &d, &du, &b).unwrap();
        // Solution is a downward parabola: symmetric, peak in the middle.
        assert!((x[0] - x[n - 1]).abs() < 1e-9);
        let mid = n / 2;
        assert!(x[mid] > x[0]);
        // residual check
        let r = tridiag_matvec(&dl, &d, &du, &x);
        assert!(vec_max_abs_diff(&r, &b) < 1e-9);
    }

    #[test]
    fn zero_pivot_detected() {
        assert!(dgtsv(&[1.0], &[0.0, 1.0], &[1.0], &[1.0, 1.0]).is_err());
        // pivot vanishes in the sweep: d1 - dl0*du0/d0 = 1 - 1 = 0
        assert!(dgtsv(&[1.0], &[1.0, 1.0], &[1.0], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn length_validation() {
        assert!(dgtsv(&[], &[], &[], &[]).is_err());
        assert!(dgtsv(&[1.0], &[1.0, 1.0, 1.0], &[1.0], &[1.0, 1.0, 1.0]).is_err());
        assert!(dgtsv(&[1.0, 2.0], &[1.0, 1.0], &[1.0], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn single_element_system() {
        assert_eq!(dgtsv(&[], &[5.0], &[], &[10.0]).unwrap(), vec![2.0]);
    }
}
