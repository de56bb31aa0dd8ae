//! # netsolve-solvers
//!
//! The pure-Rust numerical substrate standing in for the scientific
//! packages the original NetSolve servers wrapped (LAPACK, ITPACK,
//! FFTPACK, QUADPACK):
//!
//! * [`blas`] — BLAS-lite levels 1–3, including naive / cache-blocked /
//!   multithreaded GEMM (the ablation benchmarked in `solver_bench`);
//! * [`lu`] — LU with partial pivoting (`dgesv`), determinant, inverse;
//! * [`qr`] — Householder QR and least squares (`dgels`);
//! * [`cholesky`] — SPD factorization and solve (`dposv`);
//! * [`tridiag`] — Thomas algorithm (`dgtsv`);
//! * [`eigen`] — dominant eigenpair by power iteration;
//! * [`iterative`] — CG, Jacobi, Gauss–Seidel, SOR on CSR matrices;
//! * [`fft`] — radix-2 complex FFT with an O(n²) reference oracle;
//! * [`quadrature`] — adaptive Simpson over named integrands;
//! * [`montecarlo`] — seeded Monte Carlo quadrature;
//! * [`ode`] — RK4 integration of named ODE systems;
//! * [`signal`] — FFT-based convolution and power spectra;
//! * [`polyfit`] — Vandermonde least-squares fitting;
//! * [`executor`] — the mnemonic → routine dispatch table a computational
//!   server runs.

#![warn(missing_docs)]

pub mod blas;
pub mod cholesky;
pub mod eigen;
pub mod executor;
pub mod fft;
pub mod iterative;
pub mod lu;
pub mod montecarlo;
pub mod ode;
pub mod polyfit;
pub mod qr;
pub mod quadrature;
pub mod signal;
pub mod tridiag;

pub use executor::execute;

#[cfg(test)]
mod properties {
    use netsolve_core::matrix::{vec_max_abs_diff, Matrix};
    use netsolve_core::rng::cases;
    use netsolve_core::sparse::CsrMatrix;

    /// dgesv: solving A x = A x_true recovers x_true on well-conditioned
    /// systems of any size and seed.
    #[test]
    fn lu_solve_recovers_solution() {
        cases("lu_solve_recovers_solution", 64, |rng| {
            let n = rng.range(1..40);
            let a = Matrix::random_diag_dominant(n, rng);
            let x_true: Vec<f64> = (0..n).map(|_| rng.uniform(-10.0, 10.0)).collect();
            let b = a.matvec(&x_true).unwrap();
            let x = crate::lu::dgesv(&a, &b).unwrap();
            assert!(vec_max_abs_diff(&x, &x_true) < 1e-8);
        });
    }

    /// GEMM flavours agree on arbitrary shapes.
    #[test]
    fn gemm_flavours_agree() {
        cases("gemm_flavours_agree", 64, |rng| {
            let (m, k, n) = (rng.range(1..48), rng.range(1..48), rng.range(1..48));
            let a = Matrix::random(m, k, rng);
            let b = Matrix::random(k, n, rng);
            let naive = crate::blas::dgemm_naive(&a, &b).unwrap();
            let blocked = crate::blas::dgemm_blocked(&a, &b).unwrap();
            let threaded = crate::blas::dgemm_threaded(&a, &b, 3).unwrap();
            assert!(naive.approx_eq(&blocked, 1e-10));
            assert!(naive.approx_eq(&threaded, 1e-10));
        });
    }

    /// FFT then inverse FFT is the identity for any power-of-two length.
    #[test]
    fn fft_roundtrip() {
        cases("fft_roundtrip", 64, |rng| {
            let n = 1usize << rng.range(0..10);
            let re: Vec<f64> = (0..n).map(|_| rng.uniform(-100.0, 100.0)).collect();
            let im: Vec<f64> = (0..n).map(|_| rng.uniform(-100.0, 100.0)).collect();
            let (fr, fi) = crate::fft::fft(&re, &im).unwrap();
            let (br, bi) = crate::fft::ifft(&fr, &fi).unwrap();
            assert!(vec_max_abs_diff(&br, &re) < 1e-8);
            assert!(vec_max_abs_diff(&bi, &im) < 1e-8);
        });
    }

    /// FFT is linear: fft(a x + b y) = a fft(x) + b fft(y).
    #[test]
    fn fft_linearity() {
        cases("fft_linearity", 64, |rng| {
            let (alpha, beta) = (rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0));
            let n = 64usize;
            let x: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let y: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let zeros = vec![0.0; n];
            let combo: Vec<f64> = x.iter().zip(&y).map(|(a, b)| alpha * a + beta * b).collect();
            let (fc, _) = crate::fft::fft(&combo, &zeros).unwrap();
            let (fx, _) = crate::fft::fft(&x, &zeros).unwrap();
            let (fy, _) = crate::fft::fft(&y, &zeros).unwrap();
            let expect: Vec<f64> = fx.iter().zip(&fy).map(|(a, b)| alpha * a + beta * b).collect();
            assert!(vec_max_abs_diff(&fc, &expect) < 1e-8);
        });
    }

    /// CG solution satisfies the residual tolerance it promises.
    #[test]
    fn cg_residual_bound() {
        cases("cg_residual_bound", 64, |rng| {
            let (nx, ny) = (rng.range(2..8), rng.range(2..8));
            let a = CsrMatrix::laplacian_2d(nx, ny);
            let b: Vec<f64> = (0..nx * ny).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let tol = 1e-9;
            let r = crate::iterative::cg(&a, &b, tol, 10_000).unwrap();
            let ax = a.spmv(&r.x).unwrap();
            let resid: f64 = b.iter().zip(&ax).map(|(p, q)| (p - q) * (p - q)).sum::<f64>().sqrt();
            let b_norm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(resid <= tol * b_norm.max(1e-300) * 1.001);
        });
    }

    /// Sorting is an ordered permutation of its input.
    #[test]
    fn vsort_is_sorted_permutation() {
        cases("vsort_is_sorted_permutation", 64, |rng| {
            let mut xs: Vec<f64> = (0..rng.range(0..200)).map(|_| rng.uniform(-1e9, 1e9)).collect();
            let out = crate::executor::execute("vsort", &[xs.clone().into()]).unwrap();
            let sorted = out[0].as_vector().unwrap().to_vec();
            assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(sorted, xs);
        });
    }

    /// Quadrature of sin over [0, t] matches 1 - cos(t).
    #[test]
    fn quad_sin_antiderivative() {
        cases("quad_sin_antiderivative", 64, |rng| {
            let t = rng.uniform(0.01, 6.0);
            let r = crate::quadrature::quad_named("sin", 0.0, t, 1e-10).unwrap();
            assert!((r.integral - (1.0 - t.cos())).abs() < 1e-7);
        });
    }

    /// Cholesky and LU agree on SPD systems.
    #[test]
    fn cholesky_lu_agree() {
        cases("cholesky_lu_agree", 64, |rng| {
            let n = rng.range(1..20);
            let a = Matrix::random_spd(n, rng);
            let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let x1 = crate::cholesky::dposv(&a, &b).unwrap();
            let x2 = crate::lu::dgesv(&a, &b).unwrap();
            assert!(vec_max_abs_diff(&x1, &x2) < 1e-6);
        });
    }

    /// Tridiagonal solve agrees with dense LU on the same system.
    #[test]
    fn tridiag_matches_dense() {
        cases("tridiag_matches_dense", 64, |rng| {
            let n = rng.range(2..30);
            let dl: Vec<f64> = (0..n - 1).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let du: Vec<f64> = (0..n - 1).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let d: Vec<f64> = (0..n).map(|i| {
                let mut s = 3.0;
                if i > 0 { s += dl[i - 1].abs(); }
                if i < n - 1 { s += du[i].abs(); }
                s
            }).collect();
            let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let x_fast = crate::tridiag::dgtsv(&dl, &d, &du, &b).unwrap();
            let dense = Matrix::from_fn(n, n, |r, c| {
                if r == c { d[r] }
                else if r == c + 1 { dl[c] }
                else if c == r + 1 { du[r] }
                else { 0.0 }
            });
            let x_dense = crate::lu::dgesv(&dense, &b).unwrap();
            assert!(vec_max_abs_diff(&x_fast, &x_dense) < 1e-8);
        });
    }
}
