//! The link model: analytic network behaviour for the chaos layer's live
//! links and the discrete-event simulator.
//!
//! NetSolve's evaluation ran on 1996-era department networks (10 Mbit
//! Ethernet to early ATM). We cannot requisition that testbed, so
//! experiments that depend on network characteristics parameterize this
//! model instead: a message of `b` bytes takes
//! `latency + b / bandwidth + jitter` seconds. Loss is not the link's
//! business: [`crate::chaos::ChaosPolicy`] injects it as resets.

use netsolve_core::rng::Rng64;

/// Parameters of one directed network link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkModel {
    /// One-way latency in seconds.
    pub latency_secs: f64,
    /// Bandwidth in bytes/second.
    pub bandwidth_bps: f64,
    /// Standard deviation of Gaussian jitter added to each delivery
    /// (clamped at zero), in seconds.
    pub jitter_secs: f64,
}

impl LinkModel {
    /// An ideal link: zero latency, infinite bandwidth, no jitter.
    pub fn ideal() -> Self {
        LinkModel {
            latency_secs: 0.0,
            bandwidth_bps: f64::INFINITY,
            jitter_secs: 0.0,
        }
    }

    /// 1996-era department LAN: 10 Mbit/s Ethernet, ~1 ms latency.
    pub fn lan_1996() -> Self {
        LinkModel {
            latency_secs: 1e-3,
            bandwidth_bps: 1.25e6,
            jitter_secs: 0.0,
        }
    }

    /// 1996-era campus ATM (the paper's era had 155 Mbit/s ATM testbeds):
    /// ~0.5 ms latency, ~17 MB/s effective.
    pub fn atm_1996() -> Self {
        LinkModel {
            latency_secs: 5e-4,
            bandwidth_bps: 17e6,
            jitter_secs: 0.0,
        }
    }

    /// Wide-area 1996 internet: 60 ms latency, ~100 KB/s.
    pub fn wan_1996() -> Self {
        LinkModel {
            latency_secs: 60e-3,
            bandwidth_bps: 1e5,
            jitter_secs: 5e-3,
        }
    }

    /// A copy with the given bandwidth (bytes/second).
    pub fn with_bandwidth(mut self, bps: f64) -> Self {
        self.bandwidth_bps = bps;
        self
    }

    /// A copy with the given latency (seconds).
    pub fn with_latency(mut self, secs: f64) -> Self {
        self.latency_secs = secs;
        self
    }

    /// Deterministic transfer time for `bytes` (no jitter).
    pub fn transfer_secs(&self, bytes: u64) -> f64 {
        if self.bandwidth_bps.is_infinite() {
            self.latency_secs
        } else {
            self.latency_secs + bytes as f64 / self.bandwidth_bps
        }
    }

    /// Sampled transfer time including jitter (never below zero). Draws
    /// from `rng` only when the link has jitter.
    pub fn sample_transfer_secs(&self, bytes: u64, rng: &mut Rng64) -> f64 {
        let base = self.transfer_secs(bytes);
        if self.jitter_secs > 0.0 {
            (base + rng.normal(0.0, self.jitter_secs)).max(0.0)
        } else {
            base
        }
    }
}

impl Default for LinkModel {
    fn default() -> Self {
        Self::ideal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_link_is_instant() {
        let l = LinkModel::ideal();
        assert_eq!(l.transfer_secs(1_000_000_000), 0.0);
        let mut rng = Rng64::new(1);
        assert_eq!(l.sample_transfer_secs(1_000_000_000, &mut rng), 0.0);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let l = LinkModel::lan_1996();
        let t1 = l.transfer_secs(1_250_000); // 1 second of payload + 1ms
        assert!((t1 - 1.001).abs() < 1e-9);
        assert!(l.transfer_secs(2_500_000) > t1);
    }

    #[test]
    fn latency_dominates_small_messages() {
        let l = LinkModel::wan_1996();
        let small = l.transfer_secs(100);
        assert!((small - 0.061).abs() < 1e-6);
    }

    #[test]
    fn builder_methods() {
        let l = LinkModel::ideal().with_bandwidth(1e6).with_latency(0.5);
        assert_eq!(l.bandwidth_bps, 1e6);
        assert_eq!(l.latency_secs, 0.5);
        assert!((l.transfer_secs(1_000_000) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn jitter_never_negative() {
        let l = LinkModel::ideal().with_latency(1e-6);
        let mut jittery = l;
        jittery.jitter_secs = 0.1;
        let mut rng = Rng64::new(5);
        for _ in 0..1000 {
            assert!(jittery.sample_transfer_secs(10, &mut rng) >= 0.0);
        }
    }

    #[test]
    fn era_presets_ordered_by_speed() {
        let big = 10_000_000u64;
        assert!(LinkModel::atm_1996().transfer_secs(big) < LinkModel::lan_1996().transfer_secs(big));
        assert!(LinkModel::lan_1996().transfer_secs(big) < LinkModel::wan_1996().transfer_secs(big));
    }
}
