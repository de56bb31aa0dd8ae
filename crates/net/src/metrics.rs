//! The agent's view of network characteristics between hosts.
//!
//! NetSolve's agent kept per-host-pair latency/bandwidth estimates and used
//! them in the completion-time prediction `T_net = latency + bytes /
//! bandwidth`. Estimates are updated from measurements (clients report the
//! observed transfer performance of completed requests) through an EWMA so
//! one slow transfer does not flip rankings.

use std::collections::HashMap;

use netsolve_core::ids::HostId;
use netsolve_core::stats::Ewma;

use crate::link::LinkModel;

/// EWMA weight for new network measurements.
const MEASUREMENT_ALPHA: f64 = 0.3;

/// Estimated characteristics of one directed host pair.
#[derive(Debug, Clone)]
struct LinkEstimate {
    latency: Ewma,
    bandwidth: Ewma,
}

impl LinkEstimate {
    fn new() -> Self {
        LinkEstimate {
            latency: Ewma::new(MEASUREMENT_ALPHA),
            bandwidth: Ewma::new(MEASUREMENT_ALPHA),
        }
    }
}

/// The network-metrics table: defaults for unknown pairs plus learned
/// estimates for observed ones.
#[derive(Debug, Clone)]
pub struct NetworkView {
    default_latency_secs: f64,
    default_bandwidth_bps: f64,
    links: HashMap<(HostId, HostId), LinkEstimate>,
}

impl NetworkView {
    /// A view whose unknown pairs are assumed to have the given
    /// characteristics.
    pub fn new(default_latency_secs: f64, default_bandwidth_bps: f64) -> Self {
        assert!(default_bandwidth_bps > 0.0, "bandwidth must be positive");
        assert!(default_latency_secs >= 0.0, "latency must be non-negative");
        NetworkView {
            default_latency_secs,
            default_bandwidth_bps,
            links: HashMap::new(),
        }
    }

    /// Unknown pairs assumed to be [`LinkModel::lan_1996`] links.
    pub fn lan_defaults() -> Self {
        let lan = LinkModel::lan_1996();
        NetworkView::new(lan.latency_secs, lan.bandwidth_bps)
    }

    /// Record a measurement for the `from → to` pair.
    pub fn observe(&mut self, from: HostId, to: HostId, latency_secs: f64, bandwidth_bps: f64) {
        let est = self
            .links
            .entry((from, to))
            .or_insert_with(LinkEstimate::new);
        if latency_secs.is_finite() && latency_secs >= 0.0 {
            est.latency.update(latency_secs);
        }
        if bandwidth_bps.is_finite() && bandwidth_bps > 0.0 {
            est.bandwidth.update(bandwidth_bps);
        }
    }

    /// Current latency estimate for a pair (default if never observed).
    pub fn latency_secs(&self, from: HostId, to: HostId) -> f64 {
        self.links
            .get(&(from, to))
            .and_then(|e| e.latency.get())
            .unwrap_or(self.default_latency_secs)
    }

    /// Current bandwidth estimate for a pair (default if never observed).
    pub fn bandwidth_bps(&self, from: HostId, to: HostId) -> f64 {
        self.links
            .get(&(from, to))
            .and_then(|e| e.bandwidth.get())
            .unwrap_or(self.default_bandwidth_bps)
    }

    /// Predicted seconds to move `bytes` from `from` to `to`:
    /// `latency + bytes / bandwidth`. This is the `T_net` term of the
    /// agent's completion-time formula.
    pub fn transfer_secs(&self, from: HostId, to: HostId, bytes: u64) -> f64 {
        self.latency_secs(from, to) + bytes as f64 / self.bandwidth_bps(from, to)
    }
}

impl Default for NetworkView {
    fn default() -> Self {
        Self::lan_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_used_for_unknown_pairs() {
        let v = NetworkView::new(0.01, 1e6);
        let (a, b) = (HostId(1), HostId(2));
        assert_eq!(v.latency_secs(a, b), 0.01);
        assert_eq!(v.bandwidth_bps(a, b), 1e6);
        // 1 MB at 1 MB/s + 10ms
        assert!((v.transfer_secs(a, b, 1_000_000) - 1.01).abs() < 1e-12);
    }

    #[test]
    fn observations_override_defaults() {
        let mut v = NetworkView::new(0.01, 1e6);
        let (a, b) = (HostId(1), HostId(2));
        v.observe(a, b, 0.002, 10e6);
        assert!((v.latency_secs(a, b) - 0.002).abs() < 1e-12);
        assert!((v.bandwidth_bps(a, b) - 10e6).abs() < 1e-6);
        assert_eq!(v.links.len(), 1);
    }

    #[test]
    fn estimates_are_directional() {
        let mut v = NetworkView::new(0.01, 1e6);
        let (a, b) = (HostId(1), HostId(2));
        v.observe(a, b, 0.001, 50e6);
        // reverse direction still uses defaults
        assert_eq!(v.latency_secs(b, a), 0.01);
    }

    #[test]
    fn ewma_smooths_toward_new_measurements() {
        let mut v = NetworkView::new(0.01, 1e6);
        let (a, b) = (HostId(3), HostId(4));
        v.observe(a, b, 0.1, 1e6);
        for _ in 0..60 {
            v.observe(a, b, 0.001, 8e6);
        }
        assert!((v.latency_secs(a, b) - 0.001).abs() < 1e-6);
        assert!((v.bandwidth_bps(a, b) - 8e6).abs() < 1e3);
    }

    #[test]
    fn bogus_measurements_ignored() {
        let mut v = NetworkView::new(0.01, 1e6);
        let (a, b) = (HostId(5), HostId(6));
        v.observe(a, b, f64::NAN, -5.0);
        v.observe(a, b, -1.0, f64::INFINITY);
        // nothing valid recorded → defaults still in force
        assert_eq!(v.latency_secs(a, b), 0.01);
        assert_eq!(v.bandwidth_bps(a, b), 1e6);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_default_bandwidth_rejected() {
        let _ = NetworkView::new(0.0, 0.0);
    }
}
