//! Deterministic randomness helpers.
//!
//! Every stochastic component (workload generators, failure injection, link
//! jitter) takes an explicit seeded RNG so experiments are exactly
//! reproducible run-to-run. We standardize on a small xorshift-based
//! generator implemented here (no reliance on `rand`'s unspecified StdRng
//! algorithm, which may change across versions) plus the distribution
//! samplers the simulator needs.

/// Weyl increment of SplitMix64 (the golden ratio in 64 bits).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 step as a pure function: advance `x` by the Weyl
/// increment, then the 64-bit avalanche finalizer. [`Rng64`] is this walked
/// along a counter; hashing and id-whitening code calls it directly.
pub const fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64: tiny, fast, and excellent for seeding/streaming use.
///
/// Passes BigCrush when used as a 64-bit generator; we use it both directly
/// and to derive independent child streams.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Create a generator from a seed. Equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        Rng64 {
            state: seed.wrapping_add(GAMMA),
        }
    }

    /// Derive an independent child stream; children with different `stream`
    /// values are decorrelated from each other and the parent.
    pub fn fork(&mut self, stream: u64) -> Rng64 {
        let mix = self.next_u64() ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        Rng64::new(mix)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = self.state.wrapping_add(GAMMA);
        out
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits -> uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "below(0)");
        // Rejection-free multiply-shift; bias is negligible for our n << 2^64.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli trial with success probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Exponentially distributed value with the given `rate` (mean `1/rate`).
    /// Used for Poisson-process inter-arrival times.
    pub fn exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "rate must be positive");
        // Avoid ln(0): 1 - U is in (0, 1].
        -(1.0 - self.next_f64()).ln() / rate
    }

    /// Standard normal via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = 1.0 - self.next_f64(); // (0,1]
        let u2 = self.next_f64();
        let mag = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * mag * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Log-normal: exp of a normal with the given *underlying* parameters.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Pick a uniformly random element; `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, xs: &'a [T]) -> Option<&'a T> {
        if xs.is_empty() {
            None
        } else {
            Some(&xs[self.below(xs.len())])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng64::new(1);
        let mut b = Rng64::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng64::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng64::new(9);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.below(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut r = Rng64::new(123);
        let rate = 4.0;
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.exponential(rate)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng64::new(321);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean={mean}");
        assert!((var - 4.0).abs() < 0.15, "var={var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng64::new(5);
        let mut xs: Vec<u32> = (0..100).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn choose_handles_empty() {
        let mut r = Rng64::new(5);
        let empty: [u8; 0] = [];
        assert!(r.choose(&empty).is_none());
        assert_eq!(r.choose(&[7]), Some(&7));
    }

    #[test]
    fn fork_streams_decorrelated() {
        let mut parent = Rng64::new(10);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let matches = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(matches, 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng64::new(77);
        assert!((0..100).all(|_| !r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0 + 1e-9)));
    }
}
