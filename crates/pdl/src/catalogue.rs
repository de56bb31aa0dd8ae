//! The standard problem catalogue shipped with every netsolve-rs server —
//! the analogue of the LAPACK/ITPACK/FFTPACK/QUADPACK problem set the
//! original NetSolve servers advertised.
//!
//! The catalogue is defined *in PDL source* (not just programmatically) so
//! the description-language path is exercised end-to-end: servers parse
//! this text at startup exactly as they would parse a user's problem file.

use netsolve_core::error::Result;
use netsolve_core::problem::ProblemSpec;

use crate::parser::parse;

/// PDL source of the standard catalogue.
///
/// Complexity constants are flop-count models used by the agent's
/// completion-time predictor:
/// * LU solve: `(2/3)n^3`; QR least squares: `2n^3`; Cholesky: `(1/3)n^3`;
/// * tridiagonal: `8n`; GEMM: `2n^3`;
/// * iterative sparse solvers: per-iteration cost ~ `c·n`, times a nominal
///   iteration count folded into `a` (the predictor only needs relative
///   magnitudes to rank servers);
/// * FFT: `5·n·log2(n)` approximated as a power law `a·n^b` with `b = 1.15`
///   over the experiment's size range.
pub const STANDARD_PDL: &str = r#"
# ------------------------------------------------------------------
# Dense linear algebra (LAPACK-style)
# ------------------------------------------------------------------

@PROBLEM dgesv
@DESCRIPTION "Solve a dense linear system A x = b by LU factorization with partial pivoting"
@INPUT a : matrix "coefficient matrix (n x n)"
@INPUT b : vector "right-hand side (n)"
@OUTPUT x : vector "solution vector (n)"
@COMPLEXITY 0.6667 3
@MAJOR a
@END

@PROBLEM dgels
@DESCRIPTION "Solve an overdetermined least-squares problem min ||A x - b|| by Householder QR"
@INPUT a : matrix "coefficient matrix (m x n, m >= n)"
@INPUT b : vector "right-hand side (m)"
@OUTPUT x : vector "least-squares solution (n)"
@COMPLEXITY 2 3
@MAJOR a
@END

@PROBLEM dposv
@DESCRIPTION "Solve a symmetric positive-definite system A x = b by Cholesky factorization"
@INPUT a : matrix "SPD coefficient matrix (n x n)"
@INPUT b : vector "right-hand side (n)"
@OUTPUT x : vector "solution vector (n)"
@COMPLEXITY 0.3333 3
@MAJOR a
@END

@PROBLEM dgtsv
@DESCRIPTION "Solve a tridiagonal system by the Thomas algorithm"
@INPUT dl : vector "sub-diagonal (n-1)"
@INPUT d : vector "diagonal (n)"
@INPUT du : vector "super-diagonal (n-1)"
@INPUT b : vector "right-hand side (n)"
@OUTPUT x : vector "solution vector (n)"
@COMPLEXITY 8 1
@MAJOR d
@END

@PROBLEM dgemm
@DESCRIPTION "Dense matrix-matrix product C = A B (cache-blocked, multithreaded)"
@INPUT a : matrix "left factor (m x k)"
@INPUT b : matrix "right factor (k x n)"
@OUTPUT c : matrix "product (m x n)"
@COMPLEXITY 2 3
@MAJOR a
@END

@PROBLEM dgetri
@DESCRIPTION "Invert a dense matrix by LU factorization"
@INPUT a : matrix "matrix to invert (n x n)"
@OUTPUT ainv : matrix "inverse (n x n)"
@COMPLEXITY 2 3
@MAJOR a
@END

@PROBLEM eig_power
@DESCRIPTION "Dominant eigenvalue and eigenvector by power iteration"
@INPUT a : matrix "square matrix (n x n)"
@INPUT tol : double "convergence tolerance"
@INPUT maxit : int "maximum iterations"
@OUTPUT lambda : double "dominant eigenvalue"
@OUTPUT v : vector "dominant eigenvector (n)"
@COMPLEXITY 40 2
@MAJOR a
@END

# ------------------------------------------------------------------
# Sparse iterative solvers (ITPACK-style)
# ------------------------------------------------------------------

@PROBLEM cg
@DESCRIPTION "Conjugate gradient on a symmetric positive-definite sparse system"
@INPUT a : sparse "SPD sparse matrix (n x n)"
@INPUT b : vector "right-hand side (n)"
@INPUT tol : double "residual tolerance"
@INPUT maxit : int "maximum iterations"
@OUTPUT x : vector "solution vector (n)"
@OUTPUT iters : int "iterations used"
@COMPLEXITY 600 1
@MAJOR a
@END

@PROBLEM jacobi
@DESCRIPTION "Jacobi iteration on a diagonally dominant sparse system"
@INPUT a : sparse "sparse matrix (n x n)"
@INPUT b : vector "right-hand side (n)"
@INPUT tol : double "residual tolerance"
@INPUT maxit : int "maximum iterations"
@OUTPUT x : vector "solution vector (n)"
@OUTPUT iters : int "iterations used"
@COMPLEXITY 800 1
@MAJOR a
@END

@PROBLEM sor
@DESCRIPTION "Successive over-relaxation on a sparse system"
@INPUT a : sparse "sparse matrix (n x n)"
@INPUT b : vector "right-hand side (n)"
@INPUT omega : double "relaxation factor in (0, 2)"
@INPUT tol : double "residual tolerance"
@INPUT maxit : int "maximum iterations"
@OUTPUT x : vector "solution vector (n)"
@OUTPUT iters : int "iterations used"
@COMPLEXITY 700 1
@MAJOR a
@END

@PROBLEM spmv
@DESCRIPTION "Sparse matrix-vector product y = A x"
@INPUT a : sparse "sparse matrix (m x n)"
@INPUT x : vector "input vector (n)"
@OUTPUT y : vector "result vector (m)"
@COMPLEXITY 10 1
@MAJOR a
@END

# ------------------------------------------------------------------
# Signal processing and approximation (FFTPACK / general)
# ------------------------------------------------------------------

@PROBLEM fft
@DESCRIPTION "Radix-2 complex FFT; input length must be a power of two"
@INPUT x_re : vector "real parts (n, power of two)"
@INPUT x_im : vector "imaginary parts (n)"
@OUTPUT y_re : vector "transformed real parts (n)"
@OUTPUT y_im : vector "transformed imaginary parts (n)"
@COMPLEXITY 5 1.15
@MAJOR x_re
@END

@PROBLEM ifft
@DESCRIPTION "Inverse radix-2 complex FFT"
@INPUT x_re : vector "real parts (n, power of two)"
@INPUT x_im : vector "imaginary parts (n)"
@OUTPUT y_re : vector "real parts of inverse transform (n)"
@OUTPUT y_im : vector "imaginary parts of inverse transform (n)"
@COMPLEXITY 5 1.15
@MAJOR x_re
@END

@PROBLEM conv
@DESCRIPTION "Linear convolution of two signals via zero-padded FFTs"
@INPUT x : vector "first signal (n)"
@INPUT h : vector "second signal / kernel (m)"
@OUTPUT y : vector "convolution (n + m - 1)"
@COMPLEXITY 40 1.15
@MAJOR x
@END

@PROBLEM polyfit
@DESCRIPTION "Least-squares polynomial fit of given degree through (x, y) samples"
@INPUT x : vector "sample abscissae (m)"
@INPUT y : vector "sample ordinates (m)"
@INPUT degree : int "polynomial degree (< m)"
@OUTPUT coeffs : vector "coefficients, constant term first (degree+1)"
@COMPLEXITY 30 2
@MAJOR x
@END

# ------------------------------------------------------------------
# Quadrature (QUADPACK-style) and utility kernels
# ------------------------------------------------------------------

@PROBLEM quad
@DESCRIPTION "Adaptive Simpson quadrature of a named integrand over [a, b]"
@INPUT fname : string "integrand name (sin, runge, gauss, poly3, osc)"
@INPUT a : double "lower limit"
@INPUT b : double "upper limit"
@INPUT tol : double "absolute tolerance"
@OUTPUT integral : double "integral estimate"
@OUTPUT evals : int "function evaluations used"
@COMPLEXITY 1000 0
@MAJOR fname
@END

@PROBLEM quad_mc
@DESCRIPTION "Seeded Monte Carlo quadrature of a named integrand over [a, b]"
@INPUT fname : string "integrand name (sin, runge, gauss, poly3, osc)"
@INPUT a : double "lower limit"
@INPUT b : double "upper limit"
@INPUT samples : int "number of uniform samples"
@INPUT seed : int "RNG seed (0 = fresh server entropy, nonzero = reproducible)"
@OUTPUT integral : double "integral estimate"
@OUTPUT stderr : double "standard error of the estimate"
@COMPLEXITY 80 1
@MAJOR samples
@END

@PROBLEM ode_rk4
@DESCRIPTION "Integrate a named ODE system with classical RK4 from t0 to t1"
@INPUT system : string "system name (decay, oscillator, logistic, vanderpol, lotka)"
@INPUT y0 : vector "initial state (system dimension)"
@INPUT t0 : double "start time"
@INPUT t1 : double "end time"
@INPUT steps : int "number of RK4 steps"
@OUTPUT y1 : vector "final state"
@COMPLEXITY 60 1
@MAJOR steps
@END

@PROBLEM vsort
@DESCRIPTION "Sort a vector ascending"
@INPUT x : vector "values to sort (n)"
@OUTPUT sorted : vector "sorted values (n)"
@COMPLEXITY 20 1
@MAJOR x
@END

@PROBLEM ddot
@DESCRIPTION "Dot product of two vectors"
@INPUT x : vector "first vector (n)"
@INPUT y : vector "second vector (n)"
@OUTPUT dot : double "x . y"
@COMPLEXITY 2 1
@MAJOR x
@END

@PROBLEM dnrm2
@DESCRIPTION "Euclidean norm of a vector"
@INPUT x : vector "input vector (n)"
@OUTPUT norm : double "||x||_2"
@COMPLEXITY 2 1
@MAJOR x
@END
"#;

/// Parse the standard catalogue. Always succeeds for the shipped source;
/// returns `Result` so callers treat it like any other PDL input.
pub fn standard_catalogue() -> Result<Vec<ProblemSpec>> {
    parse(STANDARD_PDL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsolve_core::data::ObjectKind;

    #[test]
    fn catalogue_parses_and_validates() {
        let specs = standard_catalogue().unwrap();
        assert!(specs.len() >= 21, "expected a rich catalogue, got {}", specs.len());
        for spec in &specs {
            spec.validate().unwrap();
        }
    }

    #[test]
    fn expected_problems_present() {
        let specs = standard_catalogue().unwrap();
        let names: Vec<&str> = specs.iter().map(|p| p.name.as_str()).collect();
        for expected in [
            "dgesv", "dgels", "dposv", "dgtsv", "dgemm", "dgetri", "eig_power", "cg", "jacobi",
            "sor", "spmv", "fft", "ifft", "conv", "polyfit", "quad", "quad_mc", "ode_rk4",
            "vsort", "ddot", "dnrm2",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn dgesv_signature_is_canonical() {
        let specs = standard_catalogue().unwrap();
        let dgesv = specs.iter().find(|p| p.name == "dgesv").unwrap();
        assert_eq!(dgesv.inputs.len(), 2);
        assert_eq!(dgesv.inputs[0].kind, ObjectKind::Matrix);
        assert_eq!(dgesv.inputs[1].kind, ObjectKind::Vector);
        assert_eq!(dgesv.outputs.len(), 1);
        assert_eq!(dgesv.major_input, 0);
        assert_eq!(dgesv.complexity.b, 3.0);
    }

    #[test]
    fn cubic_problems_cost_more_than_linear() {
        let specs = standard_catalogue().unwrap();
        let dgesv = specs.iter().find(|p| p.name == "dgesv").unwrap();
        let dgtsv = specs.iter().find(|p| p.name == "dgtsv").unwrap();
        assert!(dgesv.complexity.flops(1000) > dgtsv.complexity.flops(1000) * 100.0);
    }

    #[test]
    fn catalogue_roundtrips_through_render() {
        let specs = standard_catalogue().unwrap();
        for spec in &specs {
            let rendered = crate::parser::render(spec);
            let back = crate::parser::parse_one(&rendered).unwrap();
            assert_eq!(&back, spec);
        }
    }
}
