//! Lightweight statistics used by the agent (EWMA network estimates) and by
//! the experiment harness (latency summaries).

/// Exact percentile summary over a stored sample (fine for experiment sizes).
#[derive(Debug, Clone, Default)]
pub struct Sample {
    values: Vec<f64>,
    sorted: bool,
}

impl Sample {
    /// An empty sample.
    pub fn new() -> Self {
        Sample { values: Vec::new(), sorted: true }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no observations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values
                .sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
            self.sorted = true;
        }
    }

    /// Percentile in `[0, 100]` by linear interpolation; 0 if empty.
    pub fn percentile(&mut self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let p = p.clamp(0.0, 100.0);
        let rank = p / 100.0 * (self.values.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        if lo == hi {
            self.values[lo]
        } else {
            let frac = rank - lo as f64;
            self.values[lo] * (1.0 - frac) + self.values[hi] * frac
        }
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Arithmetic mean; 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// Largest observation; 0 if empty.
    pub fn max(&mut self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.ensure_sorted();
            *self.values.last().unwrap()
        }
    }

    /// Smallest observation; 0 if empty.
    pub fn min(&mut self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.ensure_sorted();
            self.values[0]
        }
    }

    /// Immutable view of the raw observations (unspecified order).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// Exponentially-weighted moving average, used for the agent's latency and
/// bandwidth estimates: new measurements dominate gradually so a single
/// outlier does not flip server rankings.
#[derive(Debug, Clone, Copy)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// `alpha` in `(0, 1]` is the weight of the newest observation.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Ewma { alpha, value: None }
    }

    /// Incorporate one observation.
    pub fn update(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        });
    }

    /// Current estimate, or `None` before any observation.
    pub fn get(&self) -> Option<f64> {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sample_is_safe() {
        let mut sample = Sample::new();
        assert_eq!(sample.median(), 0.0);
        assert_eq!(sample.mean(), 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let mut s = Sample::new();
        for x in [1.0, 2.0, 3.0, 4.0] {
            s.push(x);
        }
        assert!((s.percentile(0.0) - 1.0).abs() < 1e-12);
        assert!((s.percentile(100.0) - 4.0).abs() < 1e-12);
        assert!((s.median() - 2.5).abs() < 1e-12);
        assert!((s.percentile(25.0) - 1.75).abs() < 1e-12);
        assert!((s.min() - 1.0).abs() < 1e-12);
        assert!((s.max() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_converges_toward_constant_input() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.get(), None);
        e.update(10.0);
        assert_eq!(e.get(), Some(10.0));
        for _ in 0..50 {
            e.update(2.0);
        }
        assert!((e.get().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }
}
