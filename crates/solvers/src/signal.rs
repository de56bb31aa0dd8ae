//! Signal-processing kernels built on the FFT: linear convolution and
//! power-spectrum estimation.

use netsolve_core::error::{NetSolveError, Result};

use crate::fft::{fft, ifft};

/// Linear convolution `y[k] = Σ x[i] h[k-i]`, length `x.len()+h.len()-1`,
/// computed via zero-padded FFTs (O(n log n)).
pub fn convolve(x: &[f64], h: &[f64]) -> Result<Vec<f64>> {
    if x.is_empty() || h.is_empty() {
        return Err(NetSolveError::BadArguments(
            "convolution operands must be non-empty".into(),
        ));
    }
    let out_len = x.len() + h.len() - 1;
    let n = out_len.next_power_of_two();
    let mut xr = vec![0.0; n];
    let mut hr = vec![0.0; n];
    xr[..x.len()].copy_from_slice(x);
    hr[..h.len()].copy_from_slice(h);
    let zeros = vec![0.0; n];
    let (fx_r, fx_i) = fft(&xr, &zeros)?;
    let (fh_r, fh_i) = fft(&hr, &zeros)?;
    // pointwise complex product
    let mut pr = vec![0.0; n];
    let mut pi = vec![0.0; n];
    for k in 0..n {
        pr[k] = fx_r[k] * fh_r[k] - fx_i[k] * fh_i[k];
        pi[k] = fx_r[k] * fh_i[k] + fx_i[k] * fh_r[k];
    }
    let (yr, _yi) = ifft(&pr, &pi)?;
    Ok(yr[..out_len].to_vec())
}

/// Direct O(n·m) convolution, the test oracle.
pub fn convolve_reference(x: &[f64], h: &[f64]) -> Result<Vec<f64>> {
    if x.is_empty() || h.is_empty() {
        return Err(NetSolveError::BadArguments("empty operands".into()));
    }
    let mut y = vec![0.0; x.len() + h.len() - 1];
    for (i, &xi) in x.iter().enumerate() {
        for (j, &hj) in h.iter().enumerate() {
            y[i + j] += xi * hj;
        }
    }
    Ok(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsolve_core::matrix::vec_max_abs_diff;
    use netsolve_core::rng::Rng64;

    #[test]
    fn small_known_convolution() {
        // [1,2,3] * [1,1] = [1,3,5,3]
        let y = convolve(&[1.0, 2.0, 3.0], &[1.0, 1.0]).unwrap();
        assert!(vec_max_abs_diff(&y, &[1.0, 3.0, 5.0, 3.0]) < 1e-12);
    }

    #[test]
    fn matches_reference_on_random_inputs() {
        let mut rng = Rng64::new(31);
        for (nx, nh) in [(1usize, 1usize), (5, 3), (64, 17), (100, 100), (257, 33)] {
            let x: Vec<f64> = (0..nx).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let h: Vec<f64> = (0..nh).map(|_| rng.uniform(-2.0, 2.0)).collect();
            let fast = convolve(&x, &h).unwrap();
            let slow = convolve_reference(&x, &h).unwrap();
            assert_eq!(fast.len(), nx + nh - 1);
            assert!(
                vec_max_abs_diff(&fast, &slow) < 1e-9 * (nx + nh) as f64,
                "sizes {nx},{nh}"
            );
        }
    }

    #[test]
    fn identity_kernel_is_noop() {
        let x = vec![3.0, -1.0, 4.0, 1.0, -5.0];
        let y = convolve(&x, &[1.0]).unwrap();
        assert!(vec_max_abs_diff(&y, &x) < 1e-12);
    }

    #[test]
    fn convolution_commutes() {
        let mut rng = Rng64::new(33);
        let x: Vec<f64> = (0..40).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let h: Vec<f64> = (0..13).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let a = convolve(&x, &h).unwrap();
        let b = convolve(&h, &x).unwrap();
        assert!(vec_max_abs_diff(&a, &b) < 1e-10);
    }

    #[test]
    fn empty_rejected() {
        assert!(convolve(&[], &[1.0]).is_err());
        assert!(convolve(&[1.0], &[]).is_err());
        assert!(convolve_reference(&[], &[]).is_err());
    }
}
