//! Order statistics for the benchmark's timings.

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer and the figure is one or two outliers, not a tail.
pub const TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    percentile_with_failures(sorted, 0, q, 0.0)
}

/// Median of an unsorted sample (sorts it in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Mean of an unsorted sample without its lowest and highest quarter
/// (sorts it in place): of five values, the middle three. Where a
/// quantity has two speeds within one process (set-up has, see
/// `README.md`), the median jumps from one to the other with a single
/// sample and this moves by a third of the gap.
pub fn middle_mean(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let cut = values.len() / 4;
    let middle = &values[cut..values.len() - cut];
    middle.iter().sum::<f64>() / middle.len().max(1) as f64
}

/// Whether `n` samples leave at least [`TAIL_SAMPLES`] beyond percentile `q`.
pub fn tail_supported(n: usize, q: f64) -> bool {
    (n as f64 * (1.0 - q)).floor() as usize >= TAIL_SAMPLES
}

/// Percentile over every call attempted, where a failed call counts as
/// slower than any completed one: if the rank falls among the failures
/// the result is `penalty` (the length of the run).
pub fn percentile_with_failures(ok_sorted: &[f64], failed: usize, q: f64, penalty: f64) -> f64 {
    let attempted = ok_sorted.len() + failed;
    if attempted == 0 {
        return 0.0;
    }
    let rank = ((q * attempted as f64).ceil() as usize).clamp(1, attempted);
    if rank > ok_sorted.len() {
        penalty
    } else {
        ok_sorted[rank - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn middle_mean_drops_the_outer_quarters() {
        assert_eq!(middle_mean(&mut [9.0, 1.0, 2.0, 3.0, 100.0]), 14.0 / 3.0);
        assert_eq!(middle_mean(&mut [4.0, 2.0]), 3.0);
        assert_eq!(middle_mean(&mut [5.0]), 5.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert!(tail_supported(200, 0.95));
        assert!(!tail_supported(199, 0.95));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(20, 0.5));
    }

    #[test]
    fn failures_rank_beyond_every_completed_call() {
        let ok = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(percentile_with_failures(&ok, 0, 0.5, 99.0), 4.0);
        // 8 ok + 2 failed: p50 is still a completed call, p95 is not.
        assert_eq!(percentile_with_failures(&ok, 2, 0.5, 99.0), 5.0);
        assert_eq!(percentile_with_failures(&ok, 2, 0.95, 99.0), 99.0);
        assert_eq!(percentile_with_failures(&[], 3, 0.5, 99.0), 99.0);
    }
}
