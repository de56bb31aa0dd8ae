//! Deterministic randomness helpers.
//!
//! Every stochastic component (workload generators, failure injection, link
//! jitter) takes an explicit seeded RNG so experiments are exactly
//! reproducible run-to-run. We standardize on a small xorshift-based
//! generator implemented here (no reliance on `rand`'s unspecified StdRng
//! algorithm, which may change across versions) plus the distribution
//! samplers the simulator needs. Randomised tests run on the same generator
//! through [`cases`], which seeds each case from the test's name and prints
//! a failing case's seed for [`replay`].

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

    /// Uniform integer in `r`. Panics if `r` is empty.
    pub fn range(&mut self, r: std::ops::Range<usize>) -> usize {
        r.start + self.below(r.end - r.start)
    }

    /// A string whose length is uniform in `len`, each char uniform over
    /// `alphabet`, which lists chars and `a-z` ranges like a regex class.
    pub fn string(&mut self, alphabet: &str, len: std::ops::RangeInclusive<usize>) -> String {
        let mut pool = Vec::new();
        let mut chars = alphabet.chars();
        while let Some(c) = chars.next() {
            let mut ahead = chars.clone();
            if let (Some('-'), Some(hi)) = (ahead.next(), ahead.next()) {
                pool.extend(c..=hi);
                chars = ahead;
            } else {
                pool.push(c);
            }
        }
        let n = self.range(*len.start()..len.end() + 1);
        (0..n).map(|_| pool[self.below(pool.len())]).collect()
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

/// The seed of case `index` of the seeded-case test `name`: FNV-1a of the
/// name, mixed with the index. A pure function, so every run of a test draws
/// the same inputs.
fn case_seed(name: &str, index: u32) -> u64 {
    let base = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    splitmix64(base ^ splitmix64(u64::from(index)))
}

/// Run `n` seeded cases of the test `name`: case `i` gets its own
/// [`Rng64`], seeded from a hash of `name` mixed with `i`. There is no
/// shrinking and no rejection; a case that panics prints the one line that
/// reruns it alone, `rng::replay(0x…, body)`, as the panic unwinds.
pub fn cases(name: &str, n: u32, mut body: impl FnMut(&mut Rng64)) {
    for index in 0..n {
        let seed = case_seed(name, index);
        let _replay = ReplayLine { name, index, seed };
        body(&mut Rng64::new(seed));
    }
}

/// Rerun the one case with this `seed`, as printed by a failing [`cases`].
pub fn replay(seed: u64, mut body: impl FnMut(&mut Rng64)) {
    body(&mut Rng64::new(seed))
}

/// Prints a case's replay line if the case unwinds past it.
struct ReplayLine<'a> {
    name: &'a str,
    index: u32,
    seed: u64,
}

impl Drop for ReplayLine<'_> {
    fn drop(&mut self) {
        // `eprintln!` puts the line in the test harness's capture beside the
        // panic message. It panics only if stderr itself fails to write (std
        // ignores a closed stderr), which would abort a test already failing.
        if std::thread::panicking() {
            let (name, index, seed) = (self.name, self.index, self.seed);
            eprintln!("case {index} of `{name}` failed; replay: rng::replay({seed:#018x}, body)");
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

    fn draws(name: &str) -> Vec<u64> {
        let mut drawn = Vec::new();
        cases(name, 16, |rng| drawn.push(rng.next_u64()));
        drawn
    }

    #[test]
    fn a_case_seed_is_a_function_of_name_and_index() {
        assert_eq!(draws("lu_solve"), draws("lu_solve"));
        assert_eq!(draws("lu_solve")[3], Rng64::new(case_seed("lu_solve", 3)).next_u64());
    }

    #[test]
    fn different_names_draw_different_streams() {
        let (a, b) = (draws("lu_solve"), draws("lu_solvf"));
        assert!(a.iter().all(|x| !b.contains(x)));
    }

    /// Runs itself as a child test process whose cases fail, then replays
    /// the seed the child printed and checks it redraws the failing input.
    #[test]
    fn a_failing_case_prints_a_line_that_replays_it() {
        let body = |rng: &mut Rng64| {
            let x = rng.next_u64();
            eprintln!("drew {x:#018x}");
            assert!(!x.is_multiple_of(5), "deliberate failure");
        };
        if std::env::var_os("NETSOLVE_FAILING_CASE_CHILD").is_some() {
            return cases("deliberately_failing", 64, body);
        }
        let test = "rng::tests::a_failing_case_prints_a_line_that_replays_it";
        let out = std::process::Command::new(std::env::current_exe().unwrap())
            .args(["--exact", test, "--nocapture"])
            .env("NETSOLVE_FAILING_CASE_CHILD", "1")
            .output()
            .unwrap();
        assert!(!out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        let hex_after = |tag: &str| {
            let mut found = stderr.lines().filter_map(|l| Some(l.split_once(tag)?.1));
            let hex = found.next_back().expect(tag);
            u64::from_str_radix(&hex[..16], 16).unwrap()
        };
        assert_eq!(stderr.matches("rng::replay(").count(), 1, "{stderr}");
        let (drawn, seed) = (hex_after("drew 0x"), hex_after("rng::replay(0x"));
        let mut redrawn = 0;
        replay(seed, |rng| redrawn = rng.next_u64());
        assert_eq!(redrawn, drawn);
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng64::new(77);
        assert!((0..100).all(|_| !r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0 + 1e-9)));
    }
}
