//! The dispatch table from problem mnemonics to numerical routines — what a
//! NetSolve computational server actually runs when a request arrives.
//!
//! Argument lists follow the signatures declared in the PDL standard
//! catalogue (`netsolve-pdl`); the server validates against the parsed
//! specs, and this module re-validates structurally so it is safe to call
//! directly (the simulator and benches do).

use netsolve_core::data::DataObject;
use netsolve_core::error::{NetSolveError, Result};
use netsolve_core::rng::splitmix64;

use crate::blas;
use crate::cholesky::dposv;
use crate::eigen::eig_power;
use crate::fft::{fft, ifft};
use crate::iterative::{cg, jacobi, sor};
use crate::lu::{dgesv, lu_factor};
use crate::montecarlo::quad_mc;
use crate::ode::rk4_named;
use crate::polyfit::polyfit;
use crate::signal::convolve;
use crate::qr::dgels;
use crate::quadrature::quad_named;
use crate::tridiag::dgtsv;

/// Names of every problem this executor can run (matches the standard
/// PDL catalogue).
pub fn supported_problems() -> &'static [&'static str] {
    &[
        "dgesv", "dgels", "dposv", "dgtsv", "dgemm", "dgetri", "eig_power", "cg", "jacobi",
        "sor", "spmv", "fft", "ifft", "conv", "polyfit", "quad", "quad_mc", "ode_rk4", "vsort",
        "ddot", "dnrm2",
    ]
}

/// A fresh, never-repeating 64-bit seed for non-reproducible Monte Carlo
/// runs (`quad_mc` seed 0): wall-clock nanos XORed with a process-wide
/// draw counter, whitened through [`splitmix64`]. The counter
/// guarantees distinct seeds even for back-to-back draws within one
/// clock tick.
fn fresh_entropy() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static DRAWS: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5eed_5eed_5eed_5eed);
    splitmix64(nanos ^ DRAWS.fetch_add(1, Ordering::Relaxed).rotate_left(32)).max(1)
}

fn arg_count(args: &[DataObject], want: usize, problem: &str) -> Result<()> {
    if args.len() != want {
        return Err(NetSolveError::BadArguments(format!(
            "{problem}: expected {want} inputs, got {}",
            args.len()
        )));
    }
    Ok(())
}

/// Execute a problem by mnemonic. Returns the output objects in the order
/// the catalogue declares them.
pub fn execute(problem: &str, args: &[DataObject]) -> Result<Vec<DataObject>> {
    match problem {
        "dgesv" => {
            arg_count(args, 2, problem)?;
            let a = args[0].as_matrix()?;
            let b = args[1].as_vector()?;
            let x = dgesv(a, b)?;
            Ok(vec![DataObject::Vector(x)])
        }
        "dgels" => {
            arg_count(args, 2, problem)?;
            let a = args[0].as_matrix()?;
            let b = args[1].as_vector()?;
            let x = dgels(a, b)?;
            Ok(vec![DataObject::Vector(x)])
        }
        "dposv" => {
            arg_count(args, 2, problem)?;
            let a = args[0].as_matrix()?;
            let b = args[1].as_vector()?;
            let x = dposv(a, b)?;
            Ok(vec![DataObject::Vector(x)])
        }
        "dgtsv" => {
            arg_count(args, 4, problem)?;
            let dl = args[0].as_vector()?;
            let d = args[1].as_vector()?;
            let du = args[2].as_vector()?;
            let b = args[3].as_vector()?;
            let x = dgtsv(dl, d, du, b)?;
            Ok(vec![DataObject::Vector(x)])
        }
        "dgemm" => {
            arg_count(args, 2, problem)?;
            let a = args[0].as_matrix()?;
            let b = args[1].as_matrix()?;
            let c = blas::dgemm(a, b)?;
            Ok(vec![DataObject::Matrix(c)])
        }
        "eig_power" => {
            arg_count(args, 3, problem)?;
            let a = args[0].as_matrix()?;
            let tol = args[1].as_double()?;
            let maxit = u32::try_from(args[2].as_int()?)
                .map_err(|_| NetSolveError::BadArguments("maxit out of range".into()))?;
            let r = eig_power(a, tol, maxit)?;
            Ok(vec![DataObject::Double(r.lambda), DataObject::Vector(r.vector)])
        }
        "cg" => {
            arg_count(args, 4, problem)?;
            let a = args[0].as_sparse()?;
            let b = args[1].as_vector()?;
            let tol = args[2].as_double()?;
            let maxit = u32::try_from(args[3].as_int()?)
                .map_err(|_| NetSolveError::BadArguments("maxit out of range".into()))?;
            let r = cg(a, b, tol, maxit)?;
            Ok(vec![DataObject::Vector(r.x), DataObject::Int(r.iters as i64)])
        }
        "jacobi" => {
            arg_count(args, 4, problem)?;
            let a = args[0].as_sparse()?;
            let b = args[1].as_vector()?;
            let tol = args[2].as_double()?;
            let maxit = u32::try_from(args[3].as_int()?)
                .map_err(|_| NetSolveError::BadArguments("maxit out of range".into()))?;
            let r = jacobi(a, b, tol, maxit)?;
            Ok(vec![DataObject::Vector(r.x), DataObject::Int(r.iters as i64)])
        }
        "sor" => {
            arg_count(args, 5, problem)?;
            let a = args[0].as_sparse()?;
            let b = args[1].as_vector()?;
            let omega = args[2].as_double()?;
            let tol = args[3].as_double()?;
            let maxit = u32::try_from(args[4].as_int()?)
                .map_err(|_| NetSolveError::BadArguments("maxit out of range".into()))?;
            let r = sor(a, b, omega, tol, maxit)?;
            Ok(vec![DataObject::Vector(r.x), DataObject::Int(r.iters as i64)])
        }
        "spmv" => {
            arg_count(args, 2, problem)?;
            let a = args[0].as_sparse()?;
            let x = args[1].as_vector()?;
            let y = a.spmv(x)?;
            Ok(vec![DataObject::Vector(y)])
        }
        "fft" | "ifft" => {
            arg_count(args, 2, problem)?;
            let re = args[0].as_vector()?;
            let im = args[1].as_vector()?;
            let (yr, yi) = if problem == "fft" { fft(re, im)? } else { ifft(re, im)? };
            Ok(vec![DataObject::Vector(yr), DataObject::Vector(yi)])
        }
        "polyfit" => {
            arg_count(args, 3, problem)?;
            let x = args[0].as_vector()?;
            let y = args[1].as_vector()?;
            let degree = usize::try_from(args[2].as_int()?)
                .map_err(|_| NetSolveError::BadArguments("degree out of range".into()))?;
            let coeffs = polyfit(x, y, degree)?;
            Ok(vec![DataObject::Vector(coeffs)])
        }
        "dgetri" => {
            arg_count(args, 1, problem)?;
            let a = args[0].as_matrix()?;
            let inv = lu_factor(a)?.inverse()?;
            Ok(vec![DataObject::Matrix(inv)])
        }
        "conv" => {
            arg_count(args, 2, problem)?;
            let x = args[0].as_vector()?;
            let h = args[1].as_vector()?;
            Ok(vec![DataObject::Vector(convolve(x, h)?)])
        }
        "ode_rk4" => {
            arg_count(args, 5, problem)?;
            let system = args[0].as_text()?;
            let y0 = args[1].as_vector()?;
            let t0 = args[2].as_double()?;
            let t1 = args[3].as_double()?;
            let steps = u32::try_from(args[4].as_int()?)
                .map_err(|_| NetSolveError::BadArguments("steps out of range".into()))?;
            Ok(vec![DataObject::Vector(rk4_named(system, y0, t0, t1, steps)?)])
        }
        "quad_mc" => {
            arg_count(args, 5, problem)?;
            let fname = args[0].as_text()?;
            let a = args[1].as_double()?;
            let b = args[2].as_double()?;
            let samples = u64::try_from(args[3].as_int()?)
                .map_err(|_| NetSolveError::BadArguments("samples out of range".into()))?;
            // Seed 0 requests a non-reproducible run: draw fresh
            // server-side entropy so repeated identical submissions
            // yield independent Monte Carlo estimates (the cache layer
            // bypasses `quad_mc` for the same reason).
            let seed = match args[4].as_int()? as u64 {
                0 => fresh_entropy(),
                s => s,
            };
            let r = quad_mc(fname, a, b, samples, seed)?;
            Ok(vec![
                DataObject::Double(r.integral),
                DataObject::Double(r.std_error),
            ])
        }
        "quad" => {
            arg_count(args, 4, problem)?;
            let fname = args[0].as_text()?;
            let a = args[1].as_double()?;
            let b = args[2].as_double()?;
            let tol = args[3].as_double()?;
            let r = quad_named(fname, a, b, tol)?;
            Ok(vec![
                DataObject::Double(r.integral),
                DataObject::Int(r.evals as i64),
            ])
        }
        "vsort" => {
            arg_count(args, 1, problem)?;
            let mut x = args[0].as_vector()?.to_vec();
            if x.iter().any(|v| v.is_nan()) {
                return Err(NetSolveError::BadArguments("cannot sort NaN values".into()));
            }
            x.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered"));
            Ok(vec![DataObject::Vector(x)])
        }
        "ddot" => {
            arg_count(args, 2, problem)?;
            let x = args[0].as_vector()?;
            let y = args[1].as_vector()?;
            Ok(vec![DataObject::Double(blas::ddot(x, y)?)])
        }
        "dnrm2" => {
            arg_count(args, 1, problem)?;
            let x = args[0].as_vector()?;
            Ok(vec![DataObject::Double(blas::dnrm2(x))])
        }
        other => Err(NetSolveError::ProblemNotFound(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsolve_core::matrix::{vec_max_abs_diff, Matrix};
    use netsolve_core::rng::Rng64;
    use netsolve_core::sparse::CsrMatrix;

    #[test]
    fn dgesv_via_executor() {
        let mut rng = Rng64::new(91);
        let a = Matrix::random_diag_dominant(10, &mut rng);
        let x_true: Vec<f64> = (0..10).map(|i| i as f64 / 3.0).collect();
        let b = a.matvec(&x_true).unwrap();
        let out = execute("dgesv", &[a.into(), b.into()]).unwrap();
        assert_eq!(out.len(), 1);
        assert!(vec_max_abs_diff(out[0].as_vector().unwrap(), &x_true) < 1e-9);
    }

    /// `dgesv`, `dposv` and `dgemm` answer bit for bit the same on either
    /// instance of the GEMM kernel, at orders on and off the tile and panel
    /// edges and at `bulk_reply`'s 512×2 · 2×512 product (all unthreaded,
    /// so every kernel call runs on this thread).
    #[test]
    fn dense_problems_agree_bit_for_bit_on_either_kernel() {
        let mut rng = Rng64::new(96);
        let mut cases: Vec<(&str, Vec<DataObject>)> = Vec::new();
        for n in [1, 9, 31, 33, 47, 65, 67, 130, 161, 257] {
            let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            let (a, spd) = (Matrix::random(n, n, &mut rng), Matrix::random_spd(n, &mut rng));
            cases.push(("dgesv", vec![a.clone().into(), b.clone().into()]));
            cases.push(("dposv", vec![spd.clone().into(), b.into()]));
            cases.push(("dgemm", vec![a.into(), spd.into()]));
        }
        let (tall, wide) = (Matrix::random(512, 2, &mut rng), Matrix::random(2, 512, &mut rng));
        cases.push(("dgemm", vec![tall.into(), wide.into()]));
        let bits = |out: &[DataObject]| -> Vec<u64> {
            let values = match &out[0] {
                DataObject::Vector(v) => v.as_slice(),
                DataObject::Matrix(m) => m.as_slice(),
                other => panic!("unexpected output {other:?}"),
            };
            values.iter().map(|v| v.to_bits()).collect()
        };
        for (i, (problem, args)) in cases.iter().enumerate() {
            let dispatched = execute(problem, args).unwrap();
            let portable = blas::on_portable_kernel(|| execute(problem, args)).unwrap();
            assert_eq!(bits(&dispatched), bits(&portable), "case {i}, {problem}");
        }
    }

    #[test]
    fn cg_via_executor_returns_iters() {
        let a = CsrMatrix::laplacian_2d(6, 6);
        let x_true: Vec<f64> = (0..36).map(|i| (i as f64).sin()).collect();
        let b = a.spmv(&x_true).unwrap();
        let out = execute(
            "cg",
            &[a.into(), b.into(), DataObject::Double(1e-10), DataObject::Int(1000)],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out[1].as_int().unwrap() > 0);
        assert!(vec_max_abs_diff(out[0].as_vector().unwrap(), &x_true) < 1e-6);
    }

    #[test]
    fn fft_roundtrip_via_executor() {
        let re: Vec<f64> = (0..16).map(|i| (i as f64).cos()).collect();
        let im = vec![0.0; 16];
        let f = execute("fft", &[re.clone().into(), im.clone().into()]).unwrap();
        let b = execute("ifft", &[f[0].clone(), f[1].clone()]).unwrap();
        assert!(vec_max_abs_diff(b[0].as_vector().unwrap(), &re) < 1e-10);
        assert!(vec_max_abs_diff(b[1].as_vector().unwrap(), &im) < 1e-10);
    }

    #[test]
    fn quad_via_executor() {
        let out = execute(
            "quad",
            &[
                "sin".into(),
                DataObject::Double(0.0),
                DataObject::Double(std::f64::consts::PI),
                DataObject::Double(1e-9),
            ],
        )
        .unwrap();
        assert!((out[0].as_double().unwrap() - 2.0).abs() < 1e-8);
        assert!(out[1].as_int().unwrap() > 0);
    }

    #[test]
    fn utility_kernels() {
        let out = execute("vsort", &[vec![3.0, 1.0, 2.0].into()]).unwrap();
        assert_eq!(out[0].as_vector().unwrap(), &[1.0, 2.0, 3.0]);

        let out = execute("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()]).unwrap();
        assert_eq!(out[0].as_double().unwrap(), 11.0);

        let out = execute("dnrm2", &[vec![3.0, 4.0].into()]).unwrap();
        assert!((out[0].as_double().unwrap() - 5.0).abs() < 1e-14);
    }

    #[test]
    fn unknown_problem_rejected() {
        match execute("frobnicate", &[]) {
            Err(NetSolveError::ProblemNotFound(p)) => assert_eq!(p, "frobnicate"),
            other => panic!("expected ProblemNotFound, got {other:?}"),
        }
    }

    #[test]
    fn wrong_arity_and_kinds_rejected() {
        assert!(execute("dgesv", &[]).is_err());
        assert!(execute("dgesv", &[DataObject::Int(1), DataObject::Int(2)]).is_err());
        assert!(execute("vsort", &[vec![f64::NAN].into()]).is_err());
        assert!(execute("eig_power", &[
            Matrix::identity(2).into(),
            DataObject::Double(1e-8),
            DataObject::Int(-5),
        ]).is_err());
    }

    #[test]
    fn every_supported_problem_dispatches() {
        // Run a minimal valid call for each catalogue problem; every one
        // must produce outputs, proving the dispatch table is complete.
        let mut rng = Rng64::new(95);
        let a = Matrix::random_diag_dominant(8, &mut rng);
        let spd = Matrix::random_spd(8, &mut rng);
        let sp = CsrMatrix::laplacian_2d(3, 3);
        let v8 = vec![1.0f64; 8];
        let v9 = vec![1.0f64; 9];
        let v16 = vec![0.5f64; 16];

        let calls: Vec<(&str, Vec<DataObject>)> = vec![
            ("dgesv", vec![a.clone().into(), v8.clone().into()]),
            ("dgels", vec![a.clone().into(), v8.clone().into()]),
            ("dposv", vec![spd.clone().into(), v8.clone().into()]),
            (
                "dgtsv",
                vec![
                    vec![-1.0; 7].into(),
                    vec![4.0; 8].into(),
                    vec![-1.0; 7].into(),
                    v8.clone().into(),
                ],
            ),
            ("dgemm", vec![a.clone().into(), a.clone().into()]),
            (
                "eig_power",
                vec![spd.clone().into(), DataObject::Double(1e-8), DataObject::Int(10_000)],
            ),
            (
                "cg",
                vec![sp.clone().into(), v9.clone().into(), DataObject::Double(1e-8), DataObject::Int(1000)],
            ),
            (
                "jacobi",
                vec![sp.clone().into(), v9.clone().into(), DataObject::Double(1e-8), DataObject::Int(10_000)],
            ),
            (
                "sor",
                vec![
                    sp.clone().into(),
                    v9.clone().into(),
                    DataObject::Double(1.2),
                    DataObject::Double(1e-8),
                    DataObject::Int(10_000),
                ],
            ),
            ("spmv", vec![sp.clone().into(), v9.clone().into()]),
            ("fft", vec![v16.clone().into(), vec![0.0; 16].into()]),
            ("ifft", vec![v16.clone().into(), vec![0.0; 16].into()]),
            (
                "polyfit",
                vec![
                    vec![0.0, 1.0, 2.0, 3.0].into(),
                    vec![1.0, 3.0, 5.0, 7.0].into(),
                    DataObject::Int(1),
                ],
            ),
            (
                "quad",
                vec![
                    "gauss".into(),
                    DataObject::Double(0.0),
                    DataObject::Double(1.0),
                    DataObject::Double(1e-8),
                ],
            ),
            ("dgetri", vec![a.clone().into()]),
            ("conv", vec![vec![1.0, 2.0].into(), vec![1.0, 1.0].into()]),
            (
                "ode_rk4",
                vec![
                    "decay".into(),
                    vec![1.0].into(),
                    DataObject::Double(0.0),
                    DataObject::Double(1.0),
                    DataObject::Int(100),
                ],
            ),
            (
                "quad_mc",
                vec![
                    "sin".into(),
                    DataObject::Double(0.0),
                    DataObject::Double(1.0),
                    DataObject::Int(10_000),
                    DataObject::Int(42),
                ],
            ),
            ("vsort", vec![vec![2.0, 1.0].into()]),
            ("ddot", vec![v8.clone().into(), v8.clone().into()]),
            ("dnrm2", vec![v8.clone().into()]),
        ];
        assert_eq!(calls.len(), supported_problems().len());
        for (name, args) in calls {
            let out = execute(name, &args)
                .unwrap_or_else(|e| panic!("{name} failed: {e}"));
            assert!(!out.is_empty(), "{name} produced no outputs");
        }
    }
}
