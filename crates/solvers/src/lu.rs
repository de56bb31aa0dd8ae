//! LU factorization with partial pivoting — the engine behind the `dgesv`
//! problem, NetSolve's flagship demo ("solve my linear system somewhere on
//! the network").

use netsolve_core::error::{NetSolveError, Result};
use netsolve_core::matrix::Matrix;

use crate::blas::{gemm_update, max_abs, pack_columns, NB};

/// A computed factorization `P A = L U`, stored compactly: `L` (unit
/// diagonal) in the strict lower triangle of `lu`, `U` in the upper.
#[derive(Debug, Clone)]
pub struct LuFactors {
    lu: Matrix,
    /// Row permutation: `pivots[k]` is the row swapped into position `k`
    /// at step `k`.
    pivots: Vec<usize>,
}

/// Threshold below which a pivot is considered numerically zero, scaled by
/// the matrix magnitude.
const SINGULARITY_RTOL: f64 = 1e-13;

/// Panel width at or below which the panel recursion stops halving and
/// runs the column loop.
const PANEL_LEAF: usize = 8;

/// Rows of `U12` a triangular solve eliminates by row axpys before it
/// updates the rows below them through [`gemm_update`].
const TRSM_BLOCK: usize = 8;

/// Largest absolute entry, floored at 1: the scale pivots are judged against.
fn pivot_scale(a: &Matrix) -> f64 {
    max_abs(a.as_slice()).max(1.0)
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

/// What a factorisation carries besides the matrix and its pivots, reused
/// by every panel and every level of the panel recursion.
struct Work {
    tol: f64,
    /// The last `U12` solved, copied out of the columns the next update
    /// writes to: `NB x n` at most.
    u12: Vec<f64>,
    /// One packed panel: `U12ᵀ` while it is solved, then `L21`.
    packed: Vec<f64>,
}

/// Factor a square matrix. Errors on non-square, (numerically) singular or
/// non-finite input.
///
/// Blocked right-looking LU with partial pivoting, in place on the
/// column-major storage (leading dimension `n`). Per panel of `NB` columns:
/// factor the tall panel recursively, apply its row swaps to the columns on
/// its right, solve the unit-lower triangle for `U12`, and update the
/// trailing block `A22 -= L21 U12` — where nearly all the flops are —
/// through [`gemm_update`], reading `L21` from a packed copy. The columns
/// of `L` take the later panels' swaps at the end, one column at a time.
pub fn lu_factor(a: &Matrix) -> Result<LuFactors> {
    if !a.is_square() {
        return Err(NetSolveError::BadArguments(format!(
            "lu_factor: matrix is {}x{}, must be square",
            a.rows(),
            a.cols()
        )));
    }
    let n = a.rows();
    let mut lu = a.clone();
    let mut pivots = vec![0usize; n];
    let mut w = Work {
        tol: SINGULARITY_RTOL * pivot_scale(a),
        u12: Vec::with_capacity(NB.min(n) * n),
        packed: Vec::new(),
    };
    for k0 in (0..n).step_by(NB) {
        let k1 = (k0 + NB).min(n);
        let (panel, right) = lu.as_mut_slice()[k0 * n..].split_at_mut((k1 - k0) * n);
        factor_panel(panel, n, k0, &mut pivots[k0..k1], &mut w)?;
        solve_u12(panel, n, k0, &pivots[k0..k1], right, &mut w);
        if k1 < n {
            let (kb, rest) = (k1 - k0, n - k1);
            let ld = pack_columns(&mut w.packed, &panel[k1..], n, rest, kb);
            let (a22, l21, u12) = (&mut right[k1..], &w.packed, &w.u12);
            gemm_update(a22, n, l21, ld, u12, kb, rest, rest, kb, -1.0);
        }
    }
    // Each column took its own panel's swaps; those of every later panel
    // come now, in one visit to the column instead of one per panel.
    for (j, col) in lu.as_mut_slice().chunks_mut(n.max(1)).enumerate() {
        let k1 = (j / NB + 1) * NB;
        apply_swaps(col, n, k1, pivots.get(k1..).unwrap_or_default());
    }
    Ok(LuFactors { lu, pivots })
}

/// The row swaps of steps `k0..`, applied to each column in turn (`dlaswp`
/// order).
fn apply_swaps(cols: &mut [f64], n: usize, k0: usize, pivots: &[usize]) {
    for col in cols.chunks_exact_mut(n) {
        for (k, &p) in (k0..).zip(pivots) {
            col.swap(k, p);
        }
    }
}

/// Partial-pivot factorisation of the tall panel whose first diagonal
/// entry is `(k0, k0)`: `panel` holds `pivots.len()` whole columns of
/// leading dimension `n`. Row swaps are applied inside the panel only.
///
/// Recursive, as LAPACK's `dgetrf2`: factor the left half, swap and solve
/// the right half's top rows, update the rest of it through
/// [`gemm_update`], factor it, and swap the left half to match. Steps are
/// still taken, and pivots checked, in order.
fn factor_panel(
    panel: &mut [f64],
    n: usize,
    k0: usize,
    pivots: &mut [usize],
    w: &mut Work,
) -> Result<()> {
    let width = pivots.len();
    if width <= PANEL_LEAF {
        return factor_leaf(panel, n, k0, pivots, w);
    }
    let half = width / 2;
    let (left, right) = panel.split_at_mut(half * n);
    let (head, tail) = pivots.split_at_mut(half);
    factor_panel(left, n, k0, head, w)?;
    solve_u12(left, n, k0, head, right, w);
    let (k1, rows) = (k0 + half, n - k0 - half);
    let (a22, l21, cols) = (&mut right[k1..], &left[k1..], width - half);
    gemm_update(a22, n, l21, n, &w.u12, half, rows, cols, half, -1.0);
    factor_panel(right, n, k1, tail, w)?;
    apply_swaps(left, n, k1, tail);
    Ok(())
}

/// [`factor_panel`]'s leaf: the unblocked column loop.
fn factor_leaf(
    panel: &mut [f64],
    n: usize,
    k0: usize,
    pivots: &mut [usize],
    w: &mut Work,
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
        check_pivot(best, w.tol, k)?;
        *pivot_row = p;
        if p != k {
            panel.chunks_exact_mut(n).for_each(|col| col.swap(k, p));
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

/// `U12 = L11⁻¹ A12` in place, for the columns `right` beside the factored
/// columns `l`, whose unit-lower `L11` sits in rows `k0..k0 + kb` (`kb` =
/// `pivots.len()`); `w.u12` receives a `kb x cols` copy of the result.
///
/// One pass swaps each column by `pivots` and gathers its rows `k0..k0 +
/// kb` into `Xt = U12ᵀ` (row `r` of `U12` contiguous). Per diagonal block
/// of `TRSM_BLOCK` rows: eliminate inside it by whole-row axpys, then
/// `Xt[:, r1..] -= Xt[:, r0..r1] · L[r1.., r0..r1]ᵀ` through
/// [`gemm_update`], the two sides disjoint column ranges of one buffer.
fn solve_u12(l: &[f64], n: usize, k0: usize, pivots: &[usize], right: &mut [f64], w: &mut Work) {
    let (kb, cols) = (pivots.len(), right.len() / n);
    if cols == 0 {
        return;
    }
    // L11 row-major (L11ᵀ column-major): the update's `B` operand.
    let mut lt = [0.0f64; NB * NB];
    for (j, lcol) in l.chunks_exact(n).enumerate() {
        for (i, &v) in lcol[k0..k0 + kb].iter().enumerate().skip(j + 1) {
            lt[i * kb + j] = v;
        }
    }
    if w.packed.len() < kb * cols {
        w.packed.resize(kb * cols, 0.0);
    }
    let xt = &mut w.packed[..kb * cols];
    for (j, col) in right.chunks_exact_mut(n).enumerate() {
        apply_swaps(col, n, k0, pivots);
        for (r, &v) in col[k0..k0 + kb].iter().enumerate() {
            xt[r * cols + j] = v;
        }
    }
    for r0 in (0..kb).step_by(TRSM_BLOCK) {
        let r1 = (r0 + TRSM_BLOCK).min(kb);
        let (done, below) = xt.split_at_mut(r1 * cols);
        for r in r0..r1 {
            let (src, rest) = done[r * cols..].split_at_mut(cols);
            for (i, dst) in (r + 1..).zip(rest.chunks_exact_mut(cols)) {
                let lir = lt[i * kb + r];
                for (d, s) in dst.iter_mut().zip(&*src) {
                    *d -= lir * s;
                }
            }
        }
        if r1 < kb {
            let (a, b) = (&done[r0 * cols..], &lt[r1 * kb + r0..]);
            gemm_update(below, cols, a, cols, b, kb, cols, kb - r1, r1 - r0, -1.0);
        }
    }
    w.u12.clear();
    for (j, col) in right.chunks_exact_mut(n).enumerate() {
        let u = &mut col[k0..k0 + kb];
        for (r, x) in u.iter_mut().enumerate() {
            *x = xt[r * cols + j];
        }
        w.u12.extend_from_slice(u);
    }
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
    use netsolve_core::rng::{cases, Rng64};

    /// The unblocked, element-indexed elimination `lu_factor` used to be:
    /// kept as the reference the blocked routine is compared against.
    fn lu_factor_unblocked(a: &Matrix) -> Result<LuFactors> {
        let n = a.rows();
        let tol = SINGULARITY_RTOL * pivot_scale(a);
        let mut lu = a.clone();
        let mut pivots = vec![0usize; n];
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
                for c in 0..n {
                    (lu[(k, c)], lu[(p, c)]) = (lu[(p, c)], lu[(k, c)]);
                }
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
        Ok(LuFactors { lu, pivots })
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

    /// Normwise backward error of `dgesv` on general random matrices
    /// (not diagonally dominant, so pivot rows come from other panels).
    #[test]
    fn backward_error_across_block_boundaries() {
        cases("backward_error_across_block_boundaries", 28, |rng| {
            let n = *rng.choose(&ORDERS).unwrap();
            let a = Matrix::random(n, n, rng);
            let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let x = dgesv(&a, &b).unwrap();
            let ax = a.matvec(&x).unwrap();
            let resid: Vec<f64> = ax.iter().zip(&b).map(|(p, q)| p - q).collect();
            let eta = inf_norm(&resid) / (mat_inf_norm(&a) * inf_norm(&x) + inf_norm(&b));
            assert!(eta <= 4.0 * n as f64 * f64::EPSILON, "n={n}: backward error {eta:e}");
        });
    }

    /// Same pivots and the same inverse as the unblocked reference.
    #[test]
    fn agrees_with_unblocked_reference() {
        cases("agrees_with_unblocked_reference", 28, |rng| {
            let n = *rng.choose(&ORDERS).unwrap();
            let a = Matrix::random(n, n, rng);
            let (f, r) = (lu_factor(&a).unwrap(), lu_factor_unblocked(&a).unwrap());
            assert_eq!(f.pivots, r.pivots);
            let (fi, ri) = (f.inverse().unwrap(), r.inverse().unwrap());
            assert!(fi.approx_eq(&ri, 1e-7 * inf_norm(ri.as_slice())), "n={n}: {:e}", fi.max_abs_diff(&ri));
        });
    }

    /// The `Numerical` error a factorisation failed with, and the step it
    /// names.
    fn failure(r: Result<LuFactors>) -> (String, usize) {
        match r {
            Err(NetSolveError::Numerical(msg)) => {
                let step = msg.rsplit_once("at step ").expect("names a step").1;
                let step = step.trim_end_matches(')').parse().expect("step number");
                (msg, step)
            }
            other => panic!("expected Numerical error, got {other:?}"),
        }
    }

    #[test]
    fn rank_deficiency_inside_a_later_panel_is_singular() {
        let n = 2 * NB + 3;
        let mut rng = Rng64::new(5);
        let base = Matrix::random(n, n, &mut rng);
        // Column NB+c of the second panel a combination of two first-panel
        // columns, at each boundary of the panel recursion and its last
        // column; then an all-zero column in the last panel.
        let mut cases = Vec::new();
        for c in [1, 2, 4, 5, 8, 16, 24, 31] {
            let mut a = base.clone();
            let combo: Vec<f64> = a
                .col(3)
                .iter()
                .zip(a.col(7))
                .map(|(p, q)| p - 2.0 * q)
                .collect();
            a.col_mut(NB + c).copy_from_slice(&combo);
            cases.push((a, NB + c));
        }
        let mut zero_col = Matrix::random(n, n, &mut rng);
        zero_col.col_mut(2 * NB + 1).fill(0.0);
        cases.push((zero_col, 2 * NB + 1));
        for (a, dependent) in cases {
            let (msg, step) = failure(lu_factor(&a));
            assert!(msg.contains("singular"), "{msg}");
            assert_eq!(step, dependent, "{msg}");
            assert_eq!(step, failure(lu_factor_unblocked(&a)).1, "{msg}");
        }
    }

    #[test]
    fn non_finite_entries_are_a_numerical_error() {
        let n = NB + 4;
        let base = Matrix::random_diag_dominant(n, &mut Rng64::new(9));
        // On the diagonal, below it, above it, where only the last
        // elimination step reads it, and inside leaves of the panel
        // recursion past the first.
        let spots = [
            (0, 0),
            (n - 1, 1),
            (1, n - 2),
            (0, n - 1),
            (n - 1, n - 1),
            (12, 12),
            (n - 1, 20),
            (3, 27),
        ];
        for (r, c) in spots {
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut a = base.clone();
                a[(r, c)] = bad;
                match dgesv(&a, &vec![1.0; n]) {
                    Err(NetSolveError::Numerical(_)) => {}
                    other => panic!("{bad} at ({r},{c}): expected Numerical error, got {other:?}"),
                }
                let (msg, step) = failure(lu_factor(&a));
                assert_eq!(
                    step,
                    failure(lu_factor_unblocked(&a)).1,
                    "{bad} at ({r},{c}): {msg}"
                );
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
