//! # netsolve-net
//!
//! Transports and network modelling for netsolve-rs.
//!
//! * [`transport`] — the [`transport::Connection`] / [`transport::Listener`]
//!   / [`transport::Transport`] trait surface every component is written
//!   against;
//! * [`tcp`] — real sockets for running a distributed domain;
//! * [`channel`] — the in-process transport: instant, lossless and
//!   fault-free, like loopback TCP, so a whole domain runs in one process;
//! * [`chaos`] — the one seeded layer that perturbs live traffic, over
//!   either transport: a modelled [`link::LinkModel`] (latency,
//!   bandwidth, jitter — the paper's 1996 testbed network), refused
//!   dials, resets (loss), CRC-detectable corruption, black holes and
//!   killed hosts;
//! * [`link`] — the analytic link model the chaos layer and the
//!   simulator share;
//! * [`metrics`] — the agent's per-host-pair latency/bandwidth estimates
//!   feeding the `T_net` term of the completion-time predictor;
//! * [`daemon`] — the accept/shed/worker/stop skeleton both long-running
//!   daemons (agent, computational server) are built on.

#![warn(missing_docs)]

pub mod channel;
pub mod chaos;
pub mod daemon;
pub mod link;
pub mod metrics;
pub mod tcp;
pub mod transport;

pub use channel::ChannelNetwork;
pub use chaos::{ChaosPolicy, ChaosStats, ChaosTransport};
pub use daemon::{AcceptCounters, Daemon, StopSignal, KEEP_ALIVE};
pub use link::LinkModel;
pub use metrics::NetworkView;
pub use tcp::TcpTransport;
pub use transport::{answered_before_reading, call, call_once, Connection, Listener, Transport};

#[cfg(test)]
mod properties {
    use super::*;
    use netsolve_core::ids::HostId;
    use netsolve_core::rng::{cases, Rng64};

    /// Transfer time is non-negative, finite for finite inputs, and
    /// monotone in byte count.
    #[test]
    fn link_transfer_monotone() {
        cases("link_transfer_monotone", 64, |rng| {
            let (lat, bw) = (rng.uniform(0.0, 1.0), rng.uniform(1.0, 1e9));
            let (a, extra) = (rng.below(1_000_000) as u64, rng.below(1_000_000) as u64);
            let link = LinkModel::ideal().with_latency(lat).with_bandwidth(bw);
            let t1 = link.transfer_secs(a);
            let t2 = link.transfer_secs(a + extra);
            assert!(t1.is_finite() && t1 >= lat);
            assert!(t2 >= t1);
        });
    }

    /// Jittered samples are never negative and — when the jitter is
    /// small relative to the base time, so zero-clamping cannot bias
    /// the mean — average near the deterministic value.
    #[test]
    fn link_jitter_unbiased() {
        cases("link_jitter_unbiased", 64, |rng| {
            let mut link = LinkModel::lan_1996();
            link.jitter_secs = rng.uniform(0.0, 0.001);
            let mut rng = Rng64::new(rng.next_u64());
            let base = link.transfer_secs(10_000);
            let n = 2_000;
            let mean: f64 = (0..n)
                .map(|_| link.sample_transfer_secs(10_000, &mut rng))
                .sum::<f64>() / n as f64;
            assert!(mean >= 0.0);
            // 6-sigma band on the sample mean (base ≈ 9 ms >> 6σ ≈ 6 ms,
            // so the max(0) clamp is never hit and the estimator is
            // unbiased)
            assert!((mean - base).abs() < 6.0 * link.jitter_secs / (n as f64).sqrt() + 1e-9);
        });
    }

    /// The network view's estimate always lies within the range of the
    /// observations it has seen (EWMA is a convex combination).
    #[test]
    fn network_view_estimate_bounded() {
        cases("network_view_estimate_bounded", 64, |rng| {
            let obs: Vec<f64> = (0..rng.range(1..20)).map(|_| rng.uniform(1e3, 1e9)).collect();
            let mut v = NetworkView::new(1e-3, 1e6);
            let (a, b) = (HostId(1), HostId(2));
            for &bw in &obs {
                v.observe(a, b, 1e-3, bw);
            }
            let est = v.bandwidth_bps(a, b);
            let lo = obs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = obs.iter().cloned().fold(0.0f64, f64::max);
            assert!(est >= lo - 1e-6 && est <= hi + 1e-6, "est {est} outside [{lo}, {hi}]");
        });
    }

    /// transfer_secs is consistent with its parts.
    #[test]
    fn network_view_transfer_decomposes() {
        cases("network_view_transfer_decomposes", 64, |rng| {
            let bytes = rng.below(10_000_000) as u64;
            let mut v = NetworkView::new(0.002, 2e6);
            let (a, b) = (HostId(3), HostId(4));
            v.observe(a, b, 0.004, 4e6);
            let t = v.transfer_secs(a, b, bytes);
            let expect = v.latency_secs(a, b) + bytes as f64 / v.bandwidth_bps(a, b);
            assert!((t - expect).abs() < 1e-12);
        });
    }
}
