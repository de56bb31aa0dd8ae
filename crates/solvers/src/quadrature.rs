//! Adaptive Simpson quadrature (the QUADPACK stand-in) over a registry of
//! *named* integrands.
//!
//! NetSolve requests are data-only — a client cannot ship a closure across
//! the network — so the `quad` problem takes the integrand's *name*. The
//! same convention the original system used for its Fortran kernels.

use netsolve_core::error::{NetSolveError, Result};

/// Result of an adaptive quadrature run.
#[derive(Debug, Clone, Copy)]
pub struct QuadResult {
    /// Integral estimate.
    pub integral: f64,
    /// Number of integrand evaluations.
    pub evals: u64,
}

/// Look up a named integrand. The catalogue mirrors classic test functions:
///
/// * `sin` — `sin(x)`;
/// * `runge` — `1 / (1 + 25 x²)` (Runge's function);
/// * `gauss` — `exp(-x²)`;
/// * `poly3` — `x³ - 2x + 1`;
/// * `osc` — `cos(40 x) · exp(-x)` (oscillatory, stresses adaptivity).
pub fn integrand(name: &str) -> Result<fn(f64) -> f64> {
    Ok(match name {
        "sin" => |x: f64| x.sin(),
        "runge" => |x: f64| 1.0 / (1.0 + 25.0 * x * x),
        "gauss" => |x: f64| (-x * x).exp(),
        "poly3" => |x: f64| x * x * x - 2.0 * x + 1.0,
        "osc" => |x: f64| (40.0 * x).cos() * (-x).exp(),
        other => {
            return Err(NetSolveError::BadArguments(format!(
                "unknown integrand '{other}' (known: sin, runge, gauss, poly3, osc)"
            )))
        }
    })
}

/// Adaptive Simpson quadrature of `f` over `[a, b]` to absolute tolerance
/// `tol`. Handles `a > b` by sign flip. Errors on invalid tolerance or if
/// the recursion budget is exhausted (non-integrable behaviour).
pub fn adaptive_simpson(f: fn(f64) -> f64, a: f64, b: f64, tol: f64) -> Result<QuadResult> {
    // NaN falls to the is_finite arm.
    if tol <= 0.0 || !tol.is_finite() {
        return Err(NetSolveError::BadArguments(format!(
            "tolerance {tol} must be positive and finite"
        )));
    }
    if !a.is_finite() || !b.is_finite() {
        return Err(NetSolveError::BadArguments(
            "integration limits must be finite".into(),
        ));
    }
    if a == b {
        return Ok(QuadResult { integral: 0.0, evals: 0 });
    }
    let (lo, hi, sign) = if a < b { (a, b, 1.0) } else { (b, a, -1.0) };

    let mut evals: u64 = 0;
    let mut eval = |x: f64| {
        evals += 1;
        f(x)
    };
    let flo = eval(lo);
    let fhi = eval(hi);
    let mid = 0.5 * (lo + hi);
    let fmid = eval(mid);
    let whole = simpson(lo, hi, flo, fmid, fhi);

    const MAX_DEPTH: u32 = 40;
    let integral = simpson_rec(
        &mut eval, lo, hi, flo, fmid, fhi, whole, tol, MAX_DEPTH,
    )?;
    Ok(QuadResult { integral: sign * integral, evals })
}

/// Convenience: adaptive Simpson of a *named* integrand.
pub fn quad_named(name: &str, a: f64, b: f64, tol: f64) -> Result<QuadResult> {
    adaptive_simpson(integrand(name)?, a, b, tol)
}

fn simpson(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[allow(clippy::too_many_arguments)]
fn simpson_rec(
    eval: &mut impl FnMut(f64) -> f64,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> Result<f64> {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = eval(lm);
    let frm = eval(rm);
    let left = simpson(a, m, fa, flm, fm);
    let right = simpson(m, b, fm, frm, fb);
    let delta = left + right - whole;
    if delta.abs() <= 15.0 * tol {
        // Richardson extrapolation term.
        return Ok(left + right + delta / 15.0);
    }
    if depth == 0 {
        return Err(NetSolveError::Numerical(format!(
            "quadrature recursion limit reached on [{a}, {b}]"
        )));
    }
    let l = simpson_rec(eval, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)?;
    let r = simpson_rec(eval, m, b, fm, frm, fb, right, tol / 2.0, depth - 1)?;
    Ok(l + r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integrates_sine_over_half_period() {
        // ∫0^π sin = 2
        let r = quad_named("sin", 0.0, std::f64::consts::PI, 1e-10).unwrap();
        assert!((r.integral - 2.0).abs() < 1e-9, "{}", r.integral);
        assert!(r.evals > 4);
    }

    #[test]
    fn integrates_polynomial_exactly() {
        // ∫0^2 (x³ - 2x + 1) dx = 4 - 4 + 2 = 2; Simpson is exact on cubics.
        let r = quad_named("poly3", 0.0, 2.0, 1e-12).unwrap();
        assert!((r.integral - 2.0).abs() < 1e-11);
    }

    #[test]
    fn runge_function_known_value() {
        // ∫-1^1 1/(1+25x²) dx = (2/5) atan(5)
        let expect = 2.0 / 5.0 * 5.0f64.atan();
        let r = quad_named("runge", -1.0, 1.0, 1e-11).unwrap();
        assert!((r.integral - expect).abs() < 1e-9);
    }

    #[test]
    fn gaussian_matches_erf() {
        // ∫-3^3 exp(-x²) dx ≈ sqrt(pi) * erf(3) ≈ 1.77241469...
        let r = quad_named("gauss", -3.0, 3.0, 1e-11).unwrap();
        assert!((r.integral - 1.772_414_712_058_543).abs() < 1e-7);
    }

    #[test]
    fn oscillatory_integrand_uses_more_evals() {
        let smooth = quad_named("sin", 0.0, 1.0, 1e-9).unwrap();
        let wild = quad_named("osc", 0.0, 1.0, 1e-9).unwrap();
        assert!(
            wild.evals > smooth.evals,
            "oscillatory {} vs smooth {}",
            wild.evals,
            smooth.evals
        );
    }

    #[test]
    fn reversed_limits_flip_sign() {
        let fwd = quad_named("sin", 0.0, 1.0, 1e-10).unwrap();
        let rev = quad_named("sin", 1.0, 0.0, 1e-10).unwrap();
        assert!((fwd.integral + rev.integral).abs() < 1e-12);
    }

    #[test]
    fn degenerate_interval_is_zero() {
        let r = quad_named("sin", 2.0, 2.0, 1e-10).unwrap();
        assert_eq!(r.integral, 0.0);
        assert_eq!(r.evals, 0);
    }

    #[test]
    fn tighter_tolerance_costs_more() {
        let loose = quad_named("runge", -1.0, 1.0, 1e-4).unwrap();
        let tight = quad_named("runge", -1.0, 1.0, 1e-12).unwrap();
        assert!(tight.evals > loose.evals);
    }

    #[test]
    fn input_validation() {
        assert!(quad_named("nope", 0.0, 1.0, 1e-8).is_err());
        assert!(quad_named("sin", 0.0, 1.0, 0.0).is_err());
        assert!(quad_named("sin", 0.0, 1.0, -1.0).is_err());
        assert!(quad_named("sin", 0.0, f64::INFINITY, 1e-8).is_err());
        assert!(quad_named("sin", f64::NAN, 1.0, 1e-8).is_err());
    }

    #[test]
    fn integrand_registry_complete() {
        for name in ["sin", "runge", "gauss", "poly3", "osc"] {
            assert!(integrand(name).is_ok(), "{name} missing");
        }
    }
}
