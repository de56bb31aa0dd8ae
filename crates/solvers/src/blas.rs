//! BLAS-lite: the vector and matrix kernels everything else builds on.
//!
//! Level 1 (vector-vector), level 2 (matrix-vector) and level 3
//! (matrix-matrix) routines in the LAPACK naming tradition. All level-3
//! work runs on one register-tiled in-place kernel, [`gemm_update`]: the
//! single-threaded and column-panel-threaded `dgemm` flavours and the LU and
//! Cholesky trailing updates. `dgemm_naive` is the triple loop the tests use
//! as the oracle and `solver_bench` as the ablation baseline.

use crossbeam::thread;
use netsolve_core::error::{NetSolveError, Result};
use netsolve_core::matrix::Matrix;

// ---------------------------------------------------------------- level 1

/// Independent partial sums `ddot` keeps: enough that no add waits on the
/// one before it, and a whole number of two-lane vector registers.
const DOT_LANES: usize = 8;

/// Dot product `x · y`. Errors on length mismatch.
///
/// Element `i` is summed into lane `i mod 8` and the lanes (plus the
/// tail past the last whole group of eight) are added at the end: eight
/// independent add chains instead of one. A reordering of the same sum,
/// so the error bound is the usual (n+1)·ε·Σ|xᵢyᵢ|.
pub fn ddot(x: &[f64], y: &[f64]) -> Result<f64> {
    check_len(x, y)?;
    let (xs, x_tail) = x.as_chunks::<DOT_LANES>();
    let (ys, y_tail) = y.as_chunks::<DOT_LANES>();
    let mut lanes = [0.0f64; DOT_LANES];
    for (a, b) in xs.iter().zip(ys) {
        for ((lane, &ai), &bi) in lanes.iter_mut().zip(a).zip(b) {
            *lane += ai * bi;
        }
    }
    let tail: f64 = x_tail.iter().zip(y_tail).map(|(a, b)| a * b).sum();
    Ok(lanes.iter().sum::<f64>() + tail)
}

/// `y += alpha * x`. Errors on length mismatch.
pub fn daxpy(alpha: f64, x: &[f64], y: &mut [f64]) -> Result<()> {
    check_len(x, y)?;
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
    Ok(())
}

/// Scale `x *= alpha`.
pub fn dscal(alpha: f64, x: &mut [f64]) {
    for xi in x {
        *xi *= alpha;
    }
}

/// Euclidean norm with scaling to avoid overflow on extreme values.
pub fn dnrm2(x: &[f64]) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for &v in x {
        if v != 0.0 {
            let a = v.abs();
            if scale < a {
                ssq = 1.0 + ssq * (scale / a).powi(2);
                scale = a;
            } else {
                ssq += (a / scale).powi(2);
            }
        }
    }
    scale * ssq.sqrt()
}

/// Sum of absolute values.
pub fn dasum(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// Largest absolute value, 0 on empty: eight lanes, like [`ddot`]. A max
/// is exact in any order and `f64::max` passes over a `NaN` in every
/// lane, so the value is the one-chain fold's.
pub(crate) fn max_abs(x: &[f64]) -> f64 {
    let (groups, tail) = x.as_chunks::<DOT_LANES>();
    let mut lanes = [0.0f64; DOT_LANES];
    for group in groups {
        for (lane, v) in lanes.iter_mut().zip(group) {
            *lane = lane.max(v.abs());
        }
    }
    let tail = tail.iter().fold(0.0f64, |acc, v| acc.max(v.abs()));
    lanes.iter().fold(tail, |acc, &v| acc.max(v))
}

/// Index of the element with the largest absolute value; `None` on empty.
/// Reference BLAS's strict `>` scan, as the LU's pivot search: the first
/// of tied maxima wins, and a `NaN` never compares greater, so it is passed
/// over unless it is the first element, where the scan starts.
pub fn idamax(x: &[f64]) -> Option<usize> {
    let (mut best_i, mut best) = (0, x.first()?.abs());
    for (i, v) in x.iter().enumerate().skip(1) {
        if v.abs() > best {
            (best_i, best) = (i, v.abs());
        }
    }
    Some(best_i)
}

fn check_len(x: &[f64], y: &[f64]) -> Result<()> {
    if x.len() != y.len() {
        Err(NetSolveError::BadArguments(format!(
            "vector length mismatch: {} vs {}",
            x.len(),
            y.len()
        )))
    } else {
        Ok(())
    }
}

// ---------------------------------------------------------------- level 2

/// General matrix-vector product `y = alpha * A x + beta * y`.
pub fn dgemv(alpha: f64, a: &Matrix, x: &[f64], beta: f64, y: &mut [f64]) -> Result<()> {
    if x.len() != a.cols() || y.len() != a.rows() {
        return Err(NetSolveError::BadArguments(format!(
            "dgemv: A is {}x{}, x has {}, y has {}",
            a.rows(),
            a.cols(),
            x.len(),
            y.len()
        )));
    }
    dscal(beta, y);
    for (c, &xc) in x.iter().enumerate() {
        let col = a.col(c);
        let axc = alpha * xc;
        for (yi, &aic) in y.iter_mut().zip(col) {
            *yi += aic * axc;
        }
    }
    Ok(())
}

/// Rank-1 update `A += alpha * x y^T`.
pub fn dger(alpha: f64, x: &[f64], y: &[f64], a: &mut Matrix) -> Result<()> {
    if x.len() != a.rows() || y.len() != a.cols() {
        return Err(NetSolveError::BadArguments(format!(
            "dger: A is {}x{}, x has {}, y has {}",
            a.rows(),
            a.cols(),
            x.len(),
            y.len()
        )));
    }
    for (c, &yc) in y.iter().enumerate() {
        let ayc = alpha * yc;
        let col = a.col_mut(c);
        for (aic, &xi) in col.iter_mut().zip(x) {
            *aic += xi * ayc;
        }
    }
    Ok(())
}

// ---------------------------------------------------------------- level 3

fn check_gemm(a: &Matrix, b: &Matrix) -> Result<()> {
    if a.cols() != b.rows() {
        return Err(NetSolveError::BadArguments(format!(
            "gemm: inner dimensions differ ({}x{} * {}x{})",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    Ok(())
}

/// Naive triple-loop GEMM (the baseline of the GEMM ablation).
pub fn dgemm_naive(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    check_gemm(a, b)?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for j in 0..n {
        for l in 0..k {
            let blj = b[(l, j)];
            if blj == 0.0 {
                continue;
            }
            let acol = a.col(l);
            let ccol = c.col_mut(j);
            for i in 0..m {
                ccol[i] += acol[i] * blj;
            }
        }
    }
    Ok(c)
}

/// Depth of one k-block: the accumulators are added into `C` once per
/// `GEMM_BLOCK` rank-one terms, so the `m x GEMM_BLOCK` block of `A` every
/// column tile re-reads stays cache-resident however large `k` is (at
/// 512^3, no k-blocking is 1.9x slower; 32..256 measure the same).
const GEMM_BLOCK: usize = 64;

/// Panel width of the blocked LU and Cholesky factorisations: `NB` columns
/// are factored unblocked, then the rest of the matrix is updated through
/// [`gemm_update`] with `k = NB`. 16..64 measure within noise of each other
/// at n = 192..1024 (DESIGN.md), on the AVX-512 kernel too, where 32 led
/// at n = 192 and `dposv` 512; 32 keeps the U12 scratch at `32 n` doubles.
pub(crate) const NB: usize = 32;

/// Copy the `m x k` column-major block `a` (leading dimension `lda`) into
/// `buf`, grown if need be, and return the copy's leading dimension: an
/// odd number of 64-byte lines. Columns a power of two apart (4 KiB at
/// n = 512) all map to one L1 set, so the 32 columns of a k-block of `A`
/// evict each other between the tiles that re-read them; at an odd stride
/// they spread over every set. A copy changes no arithmetic.
pub(crate) fn pack_columns(buf: &mut Vec<f64>, a: &[f64], lda: usize, m: usize, k: usize) -> usize {
    let ld = (m.div_ceil(8) | 1) * 8;
    if buf.len() < ld * k {
        buf.resize(ld * k, 0.0);
    }
    for (dst, src) in buf.chunks_exact_mut(ld).zip(a.chunks(lda)).take(k) {
        dst[..m].copy_from_slice(&src[..m]);
    }
    ld
}

/// In-place strided GEMM update `C += sign * A B` on column-major slices:
/// `C` is `m x n` with leading dimension `ldc`, `A` is `m x k` (`lda`), `B`
/// is `k x n` (`ldb`). The one GEMM inner loop of the crate: `dgemm_*`, the
/// LU and Cholesky trailing updates all run on it.
///
/// Every element of `C` receives its k-blocks in order, each summed in
/// order from zero, whatever tile it falls in — so results do not depend on
/// how a caller splits `C` into panels, nor on which of the three instances
/// of the loop nest the CPU runs: on AVX-512F, 24x8 tiles in 512-bit lanes
/// with the ragged strips on 8x4 tiles ([`gemm_avx512`]); else on AVX2, 8x4
/// tiles in 256-bit lanes; else the portable 4x4 tiles built for baseline
/// x86-64. None fuses a multiply into an add, so all do the same IEEE
/// operations per element in the same order and agree bit for bit.
#[allow(clippy::too_many_arguments)]
pub fn gemm_update(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    m: usize,
    n: usize,
    k: usize,
    sign: f64,
) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    assert!(
        ldc >= m && lda >= m && ldb >= k,
        "gemm_update: leading dimension too small"
    );
    assert!(
        c.len() >= (n - 1) * ldc + m
            && a.len() >= (k - 1) * lda + m
            && b.len() >= (n - 1) * ldb + k,
        "gemm_update: operand slice too short"
    );
    #[cfg(target_arch = "x86_64")]
    if !portable_pinned() {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: `gemm_avx512` needs only AVX-512F, which this CPU was
            // just found to have.
            return unsafe { gemm_avx512(c, ldc, a, lda, b, ldb, m, n, k, sign) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: `gemm_avx2` needs only AVX2, which this CPU was just
            // found to have.
            return unsafe { gemm_avx2(c, ldc, a, lda, b, ldb, m, n, k, sign) };
        }
    }
    gemm_tiles::<4, 4>(c, ldc, a, lda, b, ldb, m, n, k, sign)
}

/// Whether a test has pinned this thread's [`gemm_update`] calls to the
/// portable instance: never, outside tests.
#[cfg(all(target_arch = "x86_64", not(test)))]
fn portable_pinned() -> bool {
    false
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
fn gemm_avx2(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    m: usize,
    n: usize,
    k: usize,
    sign: f64,
) {
    gemm_tiles::<8, 4>(c, ldc, a, lda, b, ldb, m, n, k, sign)
}

/// Whole 24x8 tiles cover `C[..m24, ..n8]`; the bottom `m % 24` rows (every
/// column) and the right `n % 8` columns of the rows above them run 8x4
/// tiles, so a ragged order stays vectorised instead of falling to the
/// scalar edge loop. Each strip is a whole `gemm_tiles` over its own block
/// of `C`, so every element still takes its k-blocks in order.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
fn gemm_avx512(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    m: usize,
    n: usize,
    k: usize,
    sign: f64,
) {
    let (m24, n8) = (m - m % 24, n - n % 8);
    gemm_tiles::<24, 8>(c, ldc, a, lda, b, ldb, m24, n8, k, sign);
    if m24 < m {
        gemm_tiles::<8, 4>(&mut c[m24..], ldc, &a[m24..], lda, b, ldb, m - m24, n, k, sign);
    }
    if n8 < n {
        let (cr, br) = (&mut c[n8 * ldc..], &b[n8 * ldb..]);
        gemm_tiles::<8, 4>(cr, ldc, a, lda, br, ldb, m24, n - n8, k, sign);
    }
}

/// [`gemm_update`]'s loop nest over `MR x NR` register tiles, whose
/// accumulators live in registers for a whole k-block: 4x4 is eight
/// two-lane accumulators and 8x4 eight four-lane ones, which with the
/// operands fill the sixteen `xmm`/`ymm` registers without spilling; 24x8
/// is twenty-four eight-lane ones, of AVX-512's thirty-two `zmm`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn gemm_tiles<const MR: usize, const NR: usize>(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    m: usize,
    n: usize,
    k: usize,
    sign: f64,
) {
    for l0 in (0..k).step_by(GEMM_BLOCK) {
        let kc = GEMM_BLOCK.min(k - l0);
        for j in (0..n).step_by(NR) {
            let nr = NR.min(n - j);
            let bt = &b[j * ldb + l0..];
            for i in (0..m).step_by(MR) {
                let mr = MR.min(m - i);
                let at = &a[l0 * lda + i..];
                let ct = &mut c[j * ldc + i..];
                if mr == MR && nr == NR {
                    tile_full::<MR, NR>(ct, ldc, at, lda, bt, ldb, kc, sign);
                    continue;
                }
                // Ragged right or bottom edge: scalar, in the micro-kernel's
                // summation order.
                for jj in 0..nr {
                    for ii in 0..mr {
                        let mut acc = 0.0;
                        for l in 0..kc {
                            acc += at[l * lda + ii] * bt[jj * ldb + l];
                        }
                        ct[jj * ldc + ii] += sign * acc;
                    }
                }
            }
        }
    }
}

/// The micro-kernel: one full `MR x NR` tile over `kc` rank-one terms.
/// Slices start at the tile's origin in each operand.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_full<const MR: usize, const NR: usize>(
    c: &mut [f64],
    ldc: usize,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    kc: usize,
    sign: f64,
) {
    let bcols: [&[f64]; NR] = std::array::from_fn(|j| &b[j * ldb..j * ldb + kc]);
    let mut acc = [[0.0f64; MR]; NR];
    for l in 0..kc {
        let av: &[f64; MR] = a[l * lda..l * lda + MR].try_into().expect("MR-long slice");
        for (accj, bj) in acc.iter_mut().zip(&bcols) {
            let blj = bj[l];
            for (x, &ai) in accj.iter_mut().zip(av) {
                *x += ai * blj;
            }
        }
    }
    for (j, accj) in acc.iter().enumerate() {
        for (x, &v) in c[j * ldc..j * ldc + MR].iter_mut().zip(accj) {
            *x += sign * v;
        }
    }
}

/// Cache-blocked, register-tiled GEMM on one thread.
pub fn dgemm_blocked(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    dgemm_threaded(a, b, 1)
}

/// Multithreaded blocked GEMM: column panels of `C` are distributed over
/// `threads` workers with crossbeam's scoped threads (no `'static` bound,
/// safe code only), each running [`gemm_update`] on its own panel. `threads == 0`
/// means "number of logical CPUs".
pub fn dgemm_threaded(a: &Matrix, b: &Matrix, threads: usize) -> Result<Matrix> {
    check_gemm(a, b)?;
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let mut c = Matrix::zeros(m, n);
    let av = a.as_slice();
    let panel = |cp: &mut [f64], bp: &[f64]| {
        let cols = bp.len() / k.max(1);
        gemm_update(cp, m, av, m, bp, k, m, cols, k, 1.0)
    };
    if threads <= 1 || n < GEMM_BLOCK || m * k == 0 {
        panel(c.as_mut_slice(), b.as_slice());
        return Ok(c);
    }
    // Split C (and with it B) into contiguous column panels, one per worker.
    let cols_per = n.div_ceil(threads);
    thread::scope(|s| {
        let cpanels = c.as_mut_slice().chunks_mut(cols_per * m);
        for (cp, bp) in cpanels.zip(b.as_slice().chunks(cols_per * k)) {
            s.spawn(move |_| panel(cp, bp));
        }
    })
    .expect("gemm worker panicked");
    Ok(c)
}

/// Multiply-adds (`m·k·n`) from which [`dgemm`] spreads a product over
/// threads. Blocked against threaded on the AVX2 kernel at 64, 128, 192,
/// 256 and 512³, twelve interleaved rounds on the 2-vCPU reference box:
/// threaded ahead in 12 of 12 at 256³ = 2^24 (1.22x median) and at
/// 512³ (1.34x), level at 192³ (1.03x) and 128³ (0.98x), and 2.9x behind
/// at 64³, where the spawns cost more than the product. On the AVX-512
/// kernel, four runs of the same timer at 128..512³: threaded led 12 of 12
/// from 192³ up only in the run with the second vCPU free, and trailed at
/// every size to 384³ in the other three, so no smaller size earns it.
const THREADED_GEMM_MIN_WORK: usize = 1 << 24;

/// Whether [`dgemm`] threads an `m×k` by `k×n` product: by its work, not
/// by its longest side — 512×2 by 2×512 is 2^19 multiply-adds, too little
/// to pay for two thread spawns however long its sides.
fn threads_pay(m: usize, k: usize, n: usize) -> bool {
    m.saturating_mul(k).saturating_mul(n) >= THREADED_GEMM_MIN_WORK
}

/// Default GEMM used by the `dgemm` problem executor: threaded for large
/// products ([`THREADED_GEMM_MIN_WORK`]), blocked otherwise.
pub fn dgemm(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if threads_pay(a.rows(), a.cols(), b.cols()) {
        dgemm_threaded(a, b, 0)
    } else {
        dgemm_blocked(a, b)
    }
}

#[cfg(test)]
thread_local! {
    /// Set while [`on_portable_kernel`] runs.
    static PORTABLE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// In tests, [`gemm_update`] on this thread takes the portable instance
/// while [`on_portable_kernel`] runs.
#[cfg(all(target_arch = "x86_64", test))]
fn portable_pinned() -> bool {
    PORTABLE.get()
}

/// `f()` with every [`gemm_update`] on this thread on the portable instance:
/// how the differential tests reach it through `lu`, `cholesky` and
/// `execute`. Threads `f` spawns still dispatch.
#[cfg(test)]
pub(crate) fn on_portable_kernel<R>(f: impl FnOnce() -> R) -> R {
    PORTABLE.set(true);
    let out = f();
    PORTABLE.set(false);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsolve_core::rng::Rng64;

    #[test]
    fn level1_basics() {
        assert_eq!(ddot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]).unwrap(), 32.0);
        assert!(ddot(&[1.0], &[1.0, 2.0]).is_err());

        let mut y = vec![1.0, 1.0];
        daxpy(2.0, &[3.0, 4.0], &mut y).unwrap();
        assert_eq!(y, vec![7.0, 9.0]);
        assert!(daxpy(1.0, &[1.0], &mut y).is_err());

        let mut x = vec![1.0, -2.0];
        dscal(-3.0, &mut x);
        assert_eq!(x, vec![-3.0, 6.0]);

        assert!((dnrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(dasum(&[1.0, -2.0, 3.0]), 6.0);
        assert_eq!(idamax(&[1.0, -5.0, 3.0]), Some(1));
        assert_eq!(idamax(&[]), None);
    }

    /// `idamax` is reference BLAS's scan: the first of tied maxima, and a
    /// `NaN` passed over rather than a panic.
    #[test]
    fn idamax_takes_the_first_maximum_and_passes_over_nan() {
        assert_eq!(idamax(&[5.0, -5.0]), Some(0));
        assert_eq!(idamax(&[1.0, -7.0, 2.0, 7.0, -7.0]), Some(1));
        assert_eq!(idamax(&[1.0, f64::NAN, 3.0]), Some(2));
        assert_eq!(idamax(&[f64::NAN, 1.0]), Some(0));
        assert_eq!(idamax(&[-0.0]), Some(0));
    }

    /// `ddot` against a compensated sum (products split exactly by
    /// `mul_add`, sums by two-sum), at every length 0..=67 — each number of
    /// whole lane groups with each tail length — and 128 Ki, the
    /// `bulk_request` operand: within the (n+1)·ε·Σ|xᵢyᵢ| bound, which a
    /// dropped or doubled element breaks by orders of magnitude.
    #[test]
    fn ddot_lanes_stay_within_the_summation_bound() {
        fn compensated(x: &[f64], y: &[f64]) -> f64 {
            let (mut sum, mut err) = (0.0f64, 0.0f64);
            for (&a, &b) in x.iter().zip(y) {
                let p = a * b;
                let t = sum + p;
                let z = t - sum;
                err += (sum - (t - z)) + (p - z) + a.mul_add(b, -p);
                sum = t;
            }
            sum + err
        }
        let mut rng = Rng64::new(21);
        for n in (0..=67).chain([128 * 1024]) {
            let x: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let y: Vec<f64> = (0..n).map(|_| rng.uniform(-1e3, 1e3)).collect();
            let magnitude: f64 = x.iter().zip(&y).map(|(a, b)| (a * b).abs()).sum();
            let bound = (n + 1) as f64 * f64::EPSILON * magnitude;
            let (got, want) = (ddot(&x, &y).unwrap(), compensated(&x, &y));
            assert!(
                (got - want).abs() <= bound,
                "n={n}: {got} vs {want}, bound {bound}"
            );
        }
    }

    #[test]
    fn dgemm_threads_by_work_not_by_dimension() {
        assert!(!threads_pay(512, 2, 512), "bulk_reply's outer product");
        assert!(!threads_pay(64, 64, 64));
        assert!(!threads_pay(192, 192, 192), "level on either kernel");
        assert!(threads_pay(256, 256, 256));
        assert!(threads_pay(512, 512, 512));
        assert!(threads_pay(4096, 1, 4096));
        assert!(!threads_pay(1 << 40, 0, 1 << 40));
        assert!(threads_pay(usize::MAX, 2, 3), "work saturates, never wraps");
    }

    #[test]
    fn dnrm2_avoids_overflow() {
        let huge = vec![1e300, 1e300];
        let norm = dnrm2(&huge);
        assert!(norm.is_finite());
        assert!((norm - 1e300 * 2f64.sqrt()).abs() / norm < 1e-12);
        assert_eq!(dnrm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn dgemv_matches_matvec() {
        let mut rng = Rng64::new(4);
        let a = Matrix::random(5, 7, &mut rng);
        let x: Vec<f64> = (0..7).map(|i| i as f64 * 0.3 - 1.0).collect();
        let mut y = vec![2.0; 5];
        let expect: Vec<f64> = a
            .matvec(&x)
            .unwrap()
            .iter()
            .zip(&y)
            .map(|(ax, yi)| 1.5 * ax + 0.5 * yi)
            .collect();
        dgemv(1.5, &a, &x, 0.5, &mut y).unwrap();
        for (got, want) in y.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-12);
        }
        assert!(dgemv(1.0, &a, &x[..3], 0.0, &mut y).is_err());
    }

    #[test]
    fn dger_rank1() {
        let mut a = Matrix::zeros(2, 3);
        dger(2.0, &[1.0, 2.0], &[3.0, 4.0, 5.0], &mut a).unwrap();
        assert_eq!(a[(0, 0)], 6.0);
        assert_eq!(a[(1, 2)], 20.0);
        assert!(dger(1.0, &[1.0], &[1.0, 2.0, 3.0], &mut a).is_err());
    }

    #[test]
    fn gemm_identity() {
        let mut rng = Rng64::new(6);
        let a = Matrix::random(9, 9, &mut rng);
        let i = Matrix::identity(9);
        assert!(dgemm_naive(&a, &i).unwrap().approx_eq(&a, 1e-14));
        assert!(dgemm_blocked(&i, &a).unwrap().approx_eq(&a, 1e-14));
        assert!(dgemm_threaded(&a, &i, 3).unwrap().approx_eq(&a, 1e-14));
    }

    #[test]
    fn gemm_flavours_agree() {
        let mut rng = Rng64::new(7);
        for (m, k, n) in [(3, 4, 5), (65, 70, 67), (128, 40, 130), (1, 1, 1)] {
            let a = Matrix::random(m, k, &mut rng);
            let b = Matrix::random(k, n, &mut rng);
            let naive = dgemm_naive(&a, &b).unwrap();
            let blocked = dgemm_blocked(&a, &b).unwrap();
            let threaded = dgemm_threaded(&a, &b, 4).unwrap();
            assert!(naive.approx_eq(&blocked, 1e-11), "blocked differs at {m}x{k}x{n}");
            assert!(naive.approx_eq(&threaded, 1e-11), "threaded differs at {m}x{k}x{n}");
        }
    }

    /// `C += sign * A B` against the naive oracle, with every operand
    /// embedded in a taller buffer (leading dimensions above the shape) whose
    /// padding rows must come back untouched.
    fn check_gemm_update(m: usize, n: usize, k: usize, sign: f64, pad: usize, rng: &mut Rng64) {
        let (a, b, c0) = (
            Matrix::random(m, k, rng),
            Matrix::random(k, n, rng),
            Matrix::random(m, n, rng),
        );
        let embed = |x: &Matrix, ld: usize| {
            let mut buf = vec![7.0; ld * x.cols()];
            for c in 0..x.cols() {
                buf[c * ld..c * ld + x.rows()].copy_from_slice(x.col(c));
            }
            buf
        };
        let (lda, ldb, ldc) = ((m + pad).max(1), (k + pad).max(1), (m + 2 * pad).max(1));
        let mut c = embed(&c0, ldc);
        gemm_update(
            &mut c,
            ldc,
            &embed(&a, lda),
            lda,
            &embed(&b, ldb),
            ldb,
            m,
            n,
            k,
            sign,
        );
        let ab = dgemm_naive(&a, &b).unwrap();
        for (j, col) in c.chunks_exact(ldc).enumerate() {
            for (i, &got) in col.iter().enumerate() {
                let want = if i < m {
                    c0[(i, j)] + sign * ab[(i, j)]
                } else {
                    7.0
                };
                assert!(
                    (got - want).abs() <= 1e-12 * k as f64,
                    "{m}x{n}x{k} pad {pad} at ({i},{j}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn gemm_update_ragged_shapes_match_naive() {
        let mut rng = Rng64::new(11);
        // Each side of the 4-wide, 8-wide and 24-tall tile edges.
        let edges = [0, 1, 3, 4, 5, 7, 8, 9, 11, 23, 24, 25, 33];
        for &m in &edges {
            for &n in &edges {
                for k in [0, 1, 2, 5] {
                    check_gemm_update(m, n, k, 1.0, 0, &mut rng);
                    check_gemm_update(m, n, k, -1.0, 3, &mut rng);
                }
            }
        }
        // Past one k-block, ragged in every dimension.
        check_gemm_update(17, 6, GEMM_BLOCK + 7, -1.0, 1, &mut rng);
    }

    /// One instance of the loop nest, called directly.
    type Instance =
        unsafe fn(&mut [f64], usize, &[f64], usize, &[f64], usize, usize, usize, usize, f64);

    /// Each vector instance this CPU can run, whichever one dispatch picks.
    fn vector_instances() -> Vec<(&'static str, Instance)> {
        let mut out: Vec<(&'static str, Instance)> = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                out.push(("avx512", gemm_avx512));
            }
            if is_x86_feature_detected!("avx2") {
                out.push(("avx2", gemm_avx2));
            }
        }
        out
    }

    /// Every instance this CPU can run agrees with the portable one bit for
    /// bit: every `m` and `n` in 0..=33 (whole 24x8 tiles with both 8x4
    /// strips beside them, each side of every tile edge), `k` on each side
    /// of one and two k-blocks, leading dimensions past the shape, both
    /// signs.
    #[test]
    fn every_instance_matches_the_portable_kernel() {
        let instances = vector_instances();
        let mut rng = Rng64::new(26);
        let mut random =
            |len: usize| -> Vec<f64> { (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect() };
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for k in [1, 2, 63, 64, 65, 129] {
            let (lda, ldb, ldc) = (36, k + 2, 34);
            let (a, b, c0) = (random(lda * k), random(ldb * 33), random(ldc * 33));
            for m in 0..=33 {
                for n in 0..=33 {
                    for sign in [1.0, -1.0] {
                        let mut want = c0.clone();
                        gemm_tiles::<4, 4>(&mut want, ldc, &a, lda, &b, ldb, m, n, k, sign);
                        for (name, instance) in &instances {
                            let mut got = c0.clone();
                            // SAFETY: `vector_instances` lists only the
                            // instances whose feature this CPU has.
                            unsafe { instance(&mut got, ldc, &a, lda, &b, ldb, m, n, k, sign) };
                            assert_eq!(bits(&got), bits(&want), "{name} {m}x{n}x{k}, sign {sign}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn gemm_result_does_not_depend_on_the_panel_split() {
        let mut rng = Rng64::new(12);
        let a = Matrix::random(37, 2 * GEMM_BLOCK + 5, &mut rng);
        let b = Matrix::random(2 * GEMM_BLOCK + 5, 131, &mut rng);
        let one = dgemm_blocked(&a, &b).unwrap();
        for threads in [2, 3, 7] {
            assert_eq!(
                dgemm_threaded(&a, &b, threads).unwrap(),
                one,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn gemm_rejects_mismatched_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        assert!(dgemm_naive(&a, &b).is_err());
        assert!(dgemm_blocked(&a, &b).is_err());
        assert!(dgemm_threaded(&a, &b, 2).is_err());
        assert!(dgemm(&a, &b).is_err());
    }

    #[test]
    fn gemm_rectangular_known_product() {
        let a = Matrix::from_rows(2, 3, &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Matrix::from_rows(3, 2, &[7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = dgemm(&a, &b).unwrap();
        let expect = Matrix::from_rows(2, 2, &[58.0, 64.0, 139.0, 154.0]).unwrap();
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn threaded_gemm_more_threads_than_cols() {
        let mut rng = Rng64::new(8);
        let a = Matrix::random(70, 70, &mut rng);
        let b = Matrix::random(70, 2, &mut rng);
        let c = dgemm_threaded(&a, &b, 16).unwrap();
        assert!(c.approx_eq(&dgemm_naive(&a, &b).unwrap(), 1e-11));
    }
}
