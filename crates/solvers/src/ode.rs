//! Fixed-step Runge–Kutta 4 integration of named ODE systems — the
//! ODEPACK-style member of the catalogue.
//!
//! Like quadrature, requests are data-only, so the right-hand side is
//! chosen by *name* from a registry of classic systems.

use netsolve_core::error::{NetSolveError, Result};

/// Right-hand side function type: `dy/dt = f(t, y)` writing into `out`.
pub type OdeRhs = fn(t: f64, y: &[f64], out: &mut [f64]);

/// Look up a named ODE system and its state dimension.
///
/// * `decay` (dim 1) — `y' = -y`;
/// * `oscillator` (dim 2) — harmonic oscillator `x'' = -x` as a system;
/// * `logistic` (dim 1) — `y' = y (1 - y)`;
/// * `vanderpol` (dim 2) — Van der Pol with μ = 1;
/// * `lotka` (dim 2) — Lotka–Volterra with α=β=γ=δ=1.
pub fn system(name: &str) -> Result<(OdeRhs, usize)> {
    Ok(match name {
        "decay" => (
            (|_t, y, out| out[0] = -y[0]) as OdeRhs,
            1,
        ),
        "oscillator" => (
            (|_t, y, out| {
                out[0] = y[1];
                out[1] = -y[0];
            }) as OdeRhs,
            2,
        ),
        "logistic" => (
            (|_t, y, out| out[0] = y[0] * (1.0 - y[0])) as OdeRhs,
            1,
        ),
        "vanderpol" => (
            (|_t, y, out| {
                out[0] = y[1];
                out[1] = (1.0 - y[0] * y[0]) * y[1] - y[0];
            }) as OdeRhs,
            2,
        ),
        "lotka" => (
            (|_t, y, out| {
                out[0] = y[0] - y[0] * y[1];
                out[1] = y[0] * y[1] - y[1];
            }) as OdeRhs,
            2,
        ),
        other => {
            return Err(NetSolveError::BadArguments(format!(
                "unknown ODE system '{other}' (known: decay, oscillator, logistic, vanderpol, lotka)"
            )))
        }
    })
}

/// Integrate `y' = f(t, y)` from `t0` to `t1` with `steps` classical RK4
/// steps, returning the final state.
pub fn rk4(f: OdeRhs, y0: &[f64], t0: f64, t1: f64, steps: u32) -> Result<Vec<f64>> {
    if steps == 0 {
        return Err(NetSolveError::BadArguments("rk4 needs at least one step".into()));
    }
    if !t0.is_finite() || !t1.is_finite() {
        return Err(NetSolveError::BadArguments("integration limits must be finite".into()));
    }
    if y0.is_empty() {
        return Err(NetSolveError::BadArguments("empty initial state".into()));
    }
    let n = y0.len();
    let h = (t1 - t0) / steps as f64;
    let mut y = y0.to_vec();
    let mut k1 = vec![0.0; n];
    let mut k2 = vec![0.0; n];
    let mut k3 = vec![0.0; n];
    let mut k4 = vec![0.0; n];
    let mut tmp = vec![0.0; n];

    let mut t = t0;
    for _ in 0..steps {
        f(t, &y, &mut k1);
        for i in 0..n {
            tmp[i] = y[i] + 0.5 * h * k1[i];
        }
        f(t + 0.5 * h, &tmp, &mut k2);
        for i in 0..n {
            tmp[i] = y[i] + 0.5 * h * k2[i];
        }
        f(t + 0.5 * h, &tmp, &mut k3);
        for i in 0..n {
            tmp[i] = y[i] + h * k3[i];
        }
        f(t + h, &tmp, &mut k4);
        for i in 0..n {
            y[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
        }
        t += h;
    }
    if y.iter().any(|v| !v.is_finite()) {
        return Err(NetSolveError::Numerical(
            "RK4 trajectory diverged (non-finite state)".into(),
        ));
    }
    Ok(y)
}

/// Integrate a *named* system, validating the initial-state dimension.
pub fn rk4_named(name: &str, y0: &[f64], t0: f64, t1: f64, steps: u32) -> Result<Vec<f64>> {
    let (f, dim) = system(name)?;
    if y0.len() != dim {
        return Err(NetSolveError::BadArguments(format!(
            "system '{name}' has dimension {dim}, initial state has {}",
            y0.len()
        )));
    }
    rk4(f, y0, t0, t1, steps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_matches_exponential() {
        let y = rk4_named("decay", &[1.0], 0.0, 2.0, 200).unwrap();
        assert!((y[0] - (-2.0f64).exp()).abs() < 1e-8, "{}", y[0]);
    }

    #[test]
    fn oscillator_conserves_energy_and_phase() {
        // x(0)=1, x'(0)=0: x(t)=cos t, x'(t)=-sin t.
        let t = 5.0;
        let y = rk4_named("oscillator", &[1.0, 0.0], 0.0, t, 2000).unwrap();
        assert!((y[0] - t.cos()).abs() < 1e-8);
        assert!((y[1] + t.sin()).abs() < 1e-8);
        let energy = y[0] * y[0] + y[1] * y[1];
        assert!((energy - 1.0).abs() < 1e-8);
    }

    #[test]
    fn logistic_approaches_carrying_capacity() {
        let y = rk4_named("logistic", &[0.01], 0.0, 20.0, 2000).unwrap();
        assert!((y[0] - 1.0).abs() < 1e-6, "{}", y[0]);
    }

    #[test]
    fn rk4_fourth_order_convergence() {
        // Halving the step size must cut the error by ~16x for a smooth
        // problem (fourth order).
        let exact = (-3.0f64).exp();
        let err = |steps| (rk4_named("decay", &[1.0], 0.0, 3.0, steps).unwrap()[0] - exact).abs();
        let e1 = err(20);
        let e2 = err(40);
        let order = (e1 / e2).log2();
        assert!(order > 3.7 && order < 4.3, "observed order {order}");
    }

    #[test]
    fn vanderpol_and_lotka_stay_bounded() {
        let y = rk4_named("vanderpol", &[2.0, 0.0], 0.0, 20.0, 4000).unwrap();
        assert!(y.iter().all(|v| v.abs() < 10.0), "{y:?}");
        let y = rk4_named("lotka", &[1.5, 0.7], 0.0, 10.0, 4000).unwrap();
        assert!(y.iter().all(|v| *v > 0.0 && *v < 10.0), "{y:?}");
    }

    #[test]
    fn reverse_time_integration() {
        // Integrate forward then back: should recover the start.
        let fwd = rk4_named("oscillator", &[1.0, 0.0], 0.0, 2.0, 1000).unwrap();
        let back = rk4_named("oscillator", &fwd, 2.0, 0.0, 1000).unwrap();
        assert!((back[0] - 1.0).abs() < 1e-8);
        assert!(back[1].abs() < 1e-8);
    }

    #[test]
    fn validation_errors() {
        assert!(rk4_named("nope", &[1.0], 0.0, 1.0, 10).is_err());
        assert!(rk4_named("decay", &[1.0, 2.0], 0.0, 1.0, 10).is_err(), "dim mismatch");
        assert!(rk4_named("decay", &[1.0], 0.0, 1.0, 0).is_err(), "zero steps");
        assert!(rk4_named("decay", &[1.0], 0.0, f64::INFINITY, 10).is_err());
        let (f, _) = system("decay").unwrap();
        assert!(rk4(f, &[], 0.0, 1.0, 10).is_err(), "empty state");
    }

    #[test]
    fn divergence_detected() {
        // y' = y(1-y) from y0 far below 0 blows up toward -inf quickly.
        let r = rk4_named("logistic", &[-50.0], 0.0, 10.0, 50);
        assert!(matches!(r, Err(NetSolveError::Numerical(_))), "{r:?}");
    }

    #[test]
    fn registry_complete() {
        for name in ["decay", "oscillator", "logistic", "vanderpol", "lotka"] {
            assert!(system(name).is_ok());
        }
    }
}
