//! Human-readable formatting of the quantities the experiment harness
//! prints, and the decimal megabytes its link bandwidths are given in.

/// Format a duration given in seconds, choosing µs/ms/s/min for readability.
pub fn fmt_secs(secs: f64) -> String {
    let abs = secs.abs();
    if abs < 1e-3 {
        format!("{:.1} µs", secs * 1e6)
    } else if abs < 1.0 {
        format!("{:.2} ms", secs * 1e3)
    } else if abs < 120.0 {
        format!("{secs:.3} s")
    } else {
        format!("{:.1} min", secs / 60.0)
    }
}

/// Megabytes (decimal) to bytes — network bandwidths in the experiments are
/// specified in MB/s like the paper's 1996-era links.
pub fn mb(megabytes: f64) -> f64 {
    megabytes * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secs_formatting_picks_unit() {
        assert!(fmt_secs(0.0000005).contains("µs"));
        assert!(fmt_secs(0.005).contains("ms"));
        assert!(fmt_secs(2.5).contains("s"));
        assert!(fmt_secs(300.0).contains("min"));
    }

    #[test]
    fn mb_helper() {
        assert_eq!(mb(1.0), 1e6);
        assert_eq!(mb(12.5), 12_500_000.0);
    }
}
