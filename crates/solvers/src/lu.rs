//! LU factorization with partial pivoting — the engine behind the `dgesv`
//! problem, NetSolve's flagship demo ("solve my linear system somewhere on
//! the network").

use netsolve_core::error::{NetSolveError, Result};
use netsolve_core::matrix::Matrix;

use crate::blas::{gemm_update, NB};

/// A computed factorization `P A = L U`, stored compactly: `L` (unit
/// diagonal) in the strict lower triangle of `lu`, `U` in the upper.
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: Matrix,
    /// Row permutation: `pivots[k]` is the row swapped into position `k`
    /// at step `k`.
    pivots: Vec<usize>,
    /// Sign of the permutation (for the determinant).
    perm_sign: f64,
}

/// Threshold below which a pivot is considered numerically zero, scaled by
/// the matrix magnitude.
const SINGULARITY_RTOL: f64 = 1e-13;

/// Largest absolute entry, floored at 1: the scale pivots are judged against.
fn pivot_scale(a: &Matrix) -> f64 {
    a.as_slice()
        .iter()
        .fold(0.0f64, |acc, &v| acc.max(v.abs()))
        .max(1.0)
}

/// A pivot must be finite (`NaN < tol` is false, so test it by name) and
/// clear of zero at the matrix's scale; an infinite entry shows as an
/// infinite `tol` before it shows as a pivot.
fn check_pivot(best: f64, tol: f64, step: usize) -> Result<()> {
    if !(best.is_finite() && tol.is_finite()) {
        return Err(NetSolveError::Numerical(format!(
            "matrix has non-finite entries (pivot {best} at step {step})"
        )));
    }
    if best < tol {
        return Err(NetSolveError::Numerical(format!(
            "matrix is singular to working precision (pivot {best:.3e} at step {step})"
        )));
    }
    Ok(())
}

/// Factor a square matrix. Errors on non-square, (numerically) singular or
/// non-finite input.
///
/// Blocked right-looking LU with partial pivoting, in place on the
/// column-major storage (leading dimension `n`). Per panel of `NB` columns:
/// factor the tall panel unblocked, apply its row swaps to the columns on
/// either side, solve the unit-lower triangle for `U12`, and update the
/// trailing block `A22 -= L21 U12` — where nearly all the flops are —
/// through [`gemm_update`].
pub fn lu_factor(a: &Matrix) -> Result<LuFactors> {
    if !a.is_square() {
        return Err(NetSolveError::BadArguments(format!(
            "lu_factor: matrix is {}x{}, must be square",
            a.rows(),
            a.cols()
        )));
    }
    let n = a.rows();
    let tol = SINGULARITY_RTOL * pivot_scale(a);
    let mut lu = a.clone();
    let mut pivots = vec![0usize; n];
    let mut perm_sign = 1.0;
    // U12 copied out of the buffer the update writes to: NB x n at most.
    let mut u12 = Vec::with_capacity(NB.min(n) * n);

    for k0 in (0..n).step_by(NB) {
        let k1 = (k0 + NB).min(n);
        let (left, rest) = lu.as_mut_slice().split_at_mut(k0 * n);
        let (panel, right) = rest.split_at_mut((k1 - k0) * n);
        factor_panel(panel, n, k0, &mut pivots[k0..k1], tol, &mut perm_sign)?;
        // The panel's row swaps, one column at a time (dlaswp order).
        for col in left.chunks_exact_mut(n).chain(right.chunks_exact_mut(n)) {
            for (k, &p) in (k0..k1).zip(&pivots[k0..k1]) {
                col.swap(k, p);
            }
        }
        // U12 = L11^-1 A12, column by column.
        u12.clear();
        for col in right.chunks_exact_mut(n) {
            let u = &mut col[k0..k1];
            for (j, lcol) in panel.chunks_exact(n).enumerate() {
                let (ujs, below) = u[j..].split_first_mut().expect("j < panel width");
                for (x, l) in below.iter_mut().zip(&lcol[k0 + j + 1..k1]) {
                    *x -= l * *ujs;
                }
            }
            u12.extend_from_slice(u);
        }
        // A22 -= L21 U12.
        if k1 < n {
            let (kb, rest, l21) = (k1 - k0, n - k1, &panel[k1..]);
            gemm_update(&mut right[k1..], n, l21, n, &u12, kb, rest, rest, kb, -1.0);
        }
    }
    Ok(LuFactors {
        lu,
        pivots,
        perm_sign,
    })
}

/// Unblocked partial-pivot factorisation of the tall panel whose first
/// diagonal entry is `(k0, k0)`: `panel` holds `pivots.len()` whole columns
/// of leading dimension `n`. Row swaps are applied inside the panel only.
fn factor_panel(
    panel: &mut [f64],
    n: usize,
    k0: usize,
    pivots: &mut [usize],
    tol: f64,
    perm_sign: &mut f64,
) -> Result<()> {
    for (j, pivot_row) in pivots.iter_mut().enumerate() {
        let k = k0 + j;
        // Largest |entry| in column k at or below row k.
        let colk = &panel[j * n..(j + 1) * n];
        let (mut p, mut best) = (k, colk[k].abs());
        for (r, v) in colk.iter().enumerate().skip(k + 1) {
            if v.abs() > best {
                best = v.abs();
                p = r;
            }
        }
        check_pivot(best, tol, k)?;
        *pivot_row = p;
        if p != k {
            panel.chunks_exact_mut(n).for_each(|col| col.swap(k, p));
            *perm_sign = -*perm_sign;
        }
        // Multipliers, then the rank-one update of the panel's later columns.
        let (head, later) = panel.split_at_mut((j + 1) * n);
        let colk = &mut head[j * n..];
        let pivot = colk[k];
        colk[k + 1..].iter_mut().for_each(|v| *v /= pivot);
        for col in later.chunks_exact_mut(n) {
            let ukc = col[k];
            for (x, l) in col[k + 1..].iter_mut().zip(&colk[k + 1..]) {
                *x -= l * ukc;
            }
        }
    }
    Ok(())
}

impl LuFactors {
    /// Order of the factored matrix.
    pub fn order(&self) -> usize {
        self.lu.rows()
    }

    /// Solve `A x = b` for one right-hand side.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.order() {
            return Err(NetSolveError::BadArguments(format!(
                "solve: rhs has {} entries, matrix order is {}",
                b.len(),
                self.order()
            )));
        }
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        Ok(x)
    }

    /// Overwrite a right-hand side of the right length with the solution,
    /// sweeping the factors column by column.
    fn solve_in_place(&self, x: &mut [f64]) {
        let n = self.order();
        if n == 0 {
            return;
        }
        // Apply the row permutation.
        for (k, &p) in self.pivots.iter().enumerate() {
            x.swap(k, p);
        }
        // Forward substitution with unit-diagonal L.
        for (k, col) in self.lu.as_slice().chunks_exact(n).enumerate() {
            let (xk, below) = x[k..].split_first_mut().expect("k < n");
            for (xr, l) in below.iter_mut().zip(&col[k + 1..]) {
                *xr -= l * *xk;
            }
        }
        // Back substitution with U.
        for (k, col) in self.lu.as_slice().chunks_exact(n).enumerate().rev() {
            let (above, xk) = x[..=k].split_at_mut(k);
            xk[0] /= col[k];
            for (xr, u) in above.iter_mut().zip(col) {
                *xr -= u * xk[0];
            }
        }
    }

    /// Solve with a matrix of right-hand sides (columns solved
    /// independently).
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        if b.rows() != self.order() {
            return Err(NetSolveError::BadArguments(format!(
                "solve_matrix: rhs has {} rows, matrix order is {}",
                b.rows(),
                self.order()
            )));
        }
        let mut x = b.clone();
        if !x.is_empty() {
            x.as_mut_slice()
                .chunks_exact_mut(b.rows())
                .for_each(|col| self.solve_in_place(col));
        }
        Ok(x)
    }

    /// Determinant of the original matrix (product of U's diagonal times
    /// the permutation sign).
    pub fn det(&self) -> f64 {
        let n = self.order();
        let mut d = self.perm_sign;
        for k in 0..n {
            d *= self.lu[(k, k)];
        }
        d
    }

    /// Inverse of the original matrix (solves against the identity; for
    /// tests and small systems).
    pub fn inverse(&self) -> Result<Matrix> {
        self.solve_matrix(&Matrix::identity(self.order()))
    }
}

/// One-shot dense solve `A x = b` (LAPACK's `dgesv`).
pub fn dgesv(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    lu_factor(a)?.solve(b)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use netsolve_core::matrix::vec_max_abs_diff;
    use netsolve_core::rng::Rng64;
    use proptest::prelude::*;

    /// The unblocked, element-indexed elimination `lu_factor` used to be:
    /// kept as the reference the blocked routine is compared against.
    fn lu_factor_unblocked(a: &Matrix) -> Result<LuFactors> {
        let n = a.rows();
        let tol = SINGULARITY_RTOL * pivot_scale(a);
        let mut lu = a.clone();
        let mut pivots = vec![0usize; n];
        let mut perm_sign = 1.0;
        for k in 0..n {
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for r in (k + 1)..n {
                let v = lu[(r, k)].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            check_pivot(best, tol, k)?;
            pivots[k] = p;
            if p != k {
                lu.swap_rows(k, p);
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for r in (k + 1)..n {
                lu[(r, k)] /= pivot;
            }
            for c in (k + 1)..n {
                let ukc = lu[(k, c)];
                for r in (k + 1)..n {
                    let l_rk = lu[(r, k)];
                    lu[(r, c)] -= l_rk * ukc;
                }
            }
        }
        Ok(LuFactors {
            lu,
            pivots,
            perm_sign,
        })
    }

    /// Orders that sit on, beside and well past the panel boundaries.
    pub(crate) const ORDERS: [usize; 7] = [1, 2, NB - 1, NB, NB + 1, 2 * NB + 3, 200];

    pub(crate) fn inf_norm(v: &[f64]) -> f64 {
        v.iter().fold(0.0, |acc, x| acc.max(x.abs()))
    }

    pub(crate) fn mat_inf_norm(a: &Matrix) -> f64 {
        (0..a.rows())
            .map(|r| a.row(r).iter().map(|v| v.abs()).sum())
            .fold(0.0, f64::max)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(28))]

        /// Normwise backward error of `dgesv` on general random matrices
        /// (not diagonally dominant, so pivot rows come from other panels).
        #[test]
        fn backward_error_across_block_boundaries(seed in any::<u64>(), which in 0usize..ORDERS.len()) {
            let n = ORDERS[which];
            let mut rng = Rng64::new(seed);
            let a = Matrix::random(n, n, &mut rng);
            let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let x = dgesv(&a, &b).unwrap();
            let ax = a.matvec(&x).unwrap();
            let resid: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
            let eta = inf_norm(&resid) / (mat_inf_norm(&a) * inf_norm(&x) + inf_norm(&b));
            prop_assert!(eta <= 4.0 * n as f64 * f64::EPSILON, "n={n}: backward error {eta:e}");
        }

        /// Same pivots, same determinant and the same inverse as the
        /// unblocked reference.
        #[test]
        fn agrees_with_unblocked_reference(seed in any::<u64>(), which in 0usize..ORDERS.len()) {
            let n = ORDERS[which];
            let a = Matrix::random(n, n, &mut Rng64::new(seed));
            let (f, r) = (lu_factor(&a).unwrap(), lu_factor_unblocked(&a).unwrap());
            prop_assert_eq!(&f.pivots, &r.pivots);
            prop_assert_eq!(f.perm_sign, r.perm_sign);
            prop_assert!(f.det() * r.det() > 0.0, "det sign: {} vs {}", f.det(), r.det());
            prop_assert!((f.det() - r.det()).abs() <= 1e-9 * r.det().abs());
            let (fi, ri) = (f.inverse().unwrap(), r.inverse().unwrap());
            prop_assert!(fi.approx_eq(&ri, 1e-7 * inf_norm(ri.as_slice())), "n={n}: {:e}", fi.max_abs_diff(&ri));
        }
    }

    #[test]
    fn rank_deficiency_inside_a_later_panel_is_singular() {
        let n = 2 * NB + 3;
        let mut rng = Rng64::new(5);
        // Column NB+5 a combination of two first-panel columns, then an
        // all-zero column in the last panel.
        let mut dependent = Matrix::random(n, n, &mut rng);
        let combo: Vec<f64> = dependent
            .col(3)
            .iter()
            .zip(dependent.col(7))
            .map(|(p, q)| p - 2.0 * q)
            .collect();
        dependent.col_mut(NB + 5).copy_from_slice(&combo);
        let mut zero_col = Matrix::random(n, n, &mut rng);
        zero_col.col_mut(2 * NB + 1).fill(0.0);
        for a in [dependent, zero_col] {
            for factor in [lu_factor, lu_factor_unblocked] {
                match factor(&a) {
                    Err(NetSolveError::Numerical(msg)) => {
                        assert!(msg.contains("singular"), "{msg}")
                    }
                    other => panic!("expected Numerical error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn non_finite_entries_are_a_numerical_error() {
        let n = NB + 4;
        let base = Matrix::random_diag_dominant(n, &mut Rng64::new(9));
        // On the diagonal, below it, above it, and where only the last
        // elimination step reads it.
        for (r, c) in [(0, 0), (n - 1, 1), (1, n - 2), (0, n - 1), (n - 1, n - 1)] {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut a = base.clone();
                a[(r, c)] = bad;
                match dgesv(&a, &vec![1.0; n]) {
                    Err(NetSolveError::Numerical(_)) => {}
                    other => panic!("{bad} at ({r},{c}): expected Numerical error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn solves_known_system() {
        // A = [[2,1],[1,3]], b = [3,5] -> x = [4/5, 7/5]
        let a = Matrix::from_rows(2, 2, &[2.0, 1.0, 1.0, 3.0]).unwrap();
        let x = dgesv(&a, &[3.0, 5.0]).unwrap();
        assert!((x[0] - 0.8).abs() < 1e-14);
        assert!((x[1] - 1.4).abs() < 1e-14);
    }

    #[test]
    fn residual_small_on_random_systems() {
        let mut rng = Rng64::new(42);
        for n in [1, 2, 5, 20, 80] {
            let a = Matrix::random_diag_dominant(n, &mut rng);
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin()).collect();
            let b = a.matvec(&x_true).unwrap();
            let x = dgesv(&a, &b).unwrap();
            assert!(
                vec_max_abs_diff(&x, &x_true) < 1e-9,
                "n={n} error too large"
            );
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Without pivoting this matrix fails immediately (a11 = 0).
        let a = Matrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = dgesv(&a, &[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-14);
        assert!((x[1] - 2.0).abs() < 1e-14);
    }

    #[test]
    fn singular_matrix_detected() {
        let a = Matrix::from_rows(2, 2, &[1.0, 2.0, 2.0, 4.0]).unwrap();
        match dgesv(&a, &[1.0, 2.0]) {
            Err(NetSolveError::Numerical(_)) => {}
            other => panic!("expected Numerical error, got {other:?}"),
        }
        let zero = Matrix::zeros(3, 3);
        assert!(lu_factor(&zero).is_err());
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(lu_factor(&a).is_err());
    }

    #[test]
    fn rhs_length_checked() {
        let a = Matrix::identity(3);
        let f = lu_factor(&a).unwrap();
        assert!(f.solve(&[1.0]).is_err());
        assert!(f.solve_matrix(&Matrix::zeros(2, 2)).is_err());
    }

    #[test]
    fn determinant_matches_known_values() {
        let a = Matrix::from_rows(2, 2, &[3.0, 8.0, 4.0, 6.0]).unwrap();
        let f = lu_factor(&a).unwrap();
        assert!((f.det() - (-14.0)).abs() < 1e-12);

        let i = Matrix::identity(5);
        assert!((lu_factor(&i).unwrap().det() - 1.0).abs() < 1e-14);

        // Permutation matrix has det -1
        let p = Matrix::from_rows(2, 2, &[0.0, 1.0, 1.0, 0.0]).unwrap();
        assert!((lu_factor(&p).unwrap().det() + 1.0).abs() < 1e-14);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let mut rng = Rng64::new(17);
        let a = Matrix::random_diag_dominant(10, &mut rng);
        let inv = lu_factor(&a).unwrap().inverse().unwrap();
        let prod = crate::blas::dgemm_naive(&a, &inv).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(10), 1e-9));
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let mut rng = Rng64::new(23);
        let a = Matrix::random_diag_dominant(8, &mut rng);
        let xs = Matrix::random(8, 3, &mut rng);
        let b = crate::blas::dgemm_naive(&a, &xs).unwrap();
        let solved = lu_factor(&a).unwrap().solve_matrix(&b).unwrap();
        assert!(solved.approx_eq(&xs, 1e-9));
    }

    #[test]
    fn order_one_system() {
        let a = Matrix::from_rows(1, 1, &[4.0]).unwrap();
        assert_eq!(dgesv(&a, &[8.0]).unwrap(), vec![2.0]);
    }
}
