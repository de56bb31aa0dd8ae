//! System-wide tunables, mirroring the knobs the original NetSolve exposed
//! for workload management and fault tolerance.

use std::time::Duration;

/// How servers report workload and how long the agent trusts those reports.
///
/// NetSolve servers broadcast their workload periodically, but only when the
/// change since the last broadcast exceeds a threshold (to keep agent
/// traffic low); the agent then *ages* each report with a time-to-live so a
/// silent (possibly overloaded or dead) server does not keep a stale rosy
/// number forever. Experiment R4 sweeps these knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadPolicy {
    /// Seconds between a server's workload self-measurements.
    pub report_interval_secs: f64,
    /// Minimum workload change (percentage points) that triggers a report.
    pub report_threshold: f64,
    /// Seconds after which an unrefreshed report is considered stale.
    pub ttl_secs: f64,
}

impl WorkloadPolicy {
    /// Server-side reporting decision — the threshold half of the lazy
    /// policy (the periodic half is the report interval): given the last
    /// *sent* value and the freshly measured one, should the server bother
    /// the agent?
    pub fn should_report(&self, last_sent: Option<f64>, measured: f64) -> bool {
        last_sent.is_none_or(|prev| (measured - prev).abs() >= self.report_threshold)
    }
}

impl Default for WorkloadPolicy {
    fn default() -> Self {
        // NetSolve's documented defaults were on the order of minutes; we
        // default to tens of seconds so live demos react visibly.
        WorkloadPolicy {
            report_interval_secs: 30.0,
            report_threshold: 10.0,
            ttl_secs: 120.0,
        }
    }
}

/// Delay schedule applied between failover attempts.
///
/// Retrying instantly after a failure tends to re-hit the same transient
/// fault (and, fleet-wide, synchronizes retries into load spikes); an
/// exponential schedule with full jitter is the standard cure. The R5
/// fault-tolerance experiment sweeps these variants.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Backoff {
    /// Retry immediately.
    None,
    /// Constant delay before every retry.
    Fixed {
        /// Seconds to wait before each retry.
        delay_secs: f64,
    },
    /// Exponential backoff with full jitter: retry `k` waits a uniform
    /// random time in `[0, min(cap, base * 2^k))`.
    ExponentialJitter {
        /// Upper bound of the first retry's wait, seconds.
        base_secs: f64,
        /// Ceiling on the exponential growth, seconds.
        cap_secs: f64,
    },
}

impl Backoff {
    /// Seconds to wait before retry number `retry` (0 = the wait preceding
    /// the second attempt). `jitter` must be a uniform sample in `[0, 1)`;
    /// deterministic schedules ignore it.
    pub fn delay_secs(&self, retry: u32, jitter: f64) -> f64 {
        match self {
            Backoff::None => 0.0,
            Backoff::Fixed { delay_secs } => *delay_secs,
            Backoff::ExponentialJitter { base_secs, cap_secs } => {
                // Clamp the exponent so huge retry counts cannot overflow
                // to infinity before the cap applies.
                let ceiling = (base_secs * 2f64.powi(retry.min(62) as i32)).min(*cap_secs);
                ceiling * jitter
            }
        }
    }
}

/// Client-side fault-tolerance knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum servers to try for one request (1 = no failover).
    pub max_attempts: usize,
    /// Per-attempt timeout in seconds.
    pub attempt_timeout_secs: f64,
    /// Delay schedule between failover attempts.
    pub backoff: Backoff,
    /// End-to-end budget for one `netsl` call in seconds, spanning every
    /// attempt and backoff wait; `0.0` means unlimited. The remaining
    /// budget travels with the request so servers can shed work whose
    /// deadline already passed.
    pub deadline_secs: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            attempt_timeout_secs: 30.0,
            backoff: Backoff::ExponentialJitter { base_secs: 0.05, cap_secs: 2.0 },
            deadline_secs: 0.0,
        }
    }
}

/// Agent-side fault-tracking knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPolicy {
    /// Consecutive failures before a server is marked down.
    pub failures_to_mark_down: u32,
    /// Seconds a down server stays excluded before being probed again.
    pub down_cooldown_secs: f64,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            failures_to_mark_down: 2,
            down_cooldown_secs: 60.0,
        }
    }
}

/// Agent-side liveness probing (heartbeat) knobs.
///
/// The agent daemon periodically dials each registered server with a
/// `Ping` and expects a `Pong` within `probe_timeout_secs`. A server
/// that misses `miss_threshold` consecutive probes is force-marked down
/// in the fault tracker; a successful probe (including the half-open
/// probe after cooldown) re-admits it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeartbeatPolicy {
    /// Seconds between probe rounds.
    pub probe_interval_secs: f64,
    /// Consecutive missed probes before the server is marked down.
    pub miss_threshold: u32,
    /// Seconds to wait for a `Pong` before counting the probe as missed.
    pub probe_timeout_secs: f64,
}

impl Default for HeartbeatPolicy {
    fn default() -> Self {
        HeartbeatPolicy {
            probe_interval_secs: 15.0,
            miss_threshold: 2,
            probe_timeout_secs: 2.0,
        }
    }
}

/// Agent federation (gossip replication) knobs.
///
/// Federated agents push their full registration view to each peer every
/// `interval_secs` (anti-entropy). Entries learned from gossip carry a
/// freshness timestamp; one that has not been re-confirmed within
/// `entry_ttl_secs` is expired, so a dead peer's servers age out of every
/// surviving agent's registry instead of lingering as ghosts. A peer that
/// misses `peer_miss_threshold` consecutive rounds is marked down (gauge
/// `agent.peers_up` drops) and keeps being re-probed each round, so a
/// restarted peer rejoins on its first answered sync.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GossipPolicy {
    /// Seconds between gossip rounds.
    pub interval_secs: f64,
    /// Seconds a gossip-learned registration stays valid without being
    /// re-confirmed by another round mentioning it fresher.
    pub entry_ttl_secs: f64,
    /// Consecutive unanswered rounds before a peer is marked down.
    pub peer_miss_threshold: u32,
    /// Seconds to wait for a peer's `GossipAck`.
    pub round_timeout_secs: f64,
}

impl Default for GossipPolicy {
    fn default() -> Self {
        GossipPolicy {
            interval_secs: 10.0,
            entry_ttl_secs: 60.0,
            peer_miss_threshold: 2,
            round_timeout_secs: 2.0,
        }
    }
}

/// Daemon-side telemetry sampling knobs.
///
/// Every daemon runs a sampler thread that snapshots its metrics
/// registry each `tick_secs` into a windowed series (the last
/// `netsolve_obs::WINDOW_SLOTS` samples), from which rates and rolling
/// percentiles are answered. Agents additionally fold the fleet's
/// windowed digests into their gossip rounds, so one scrape of any agent
/// returns every peer's recent history. The longest tick, 60 s, is as
/// near to no sampling as a run of a few seconds gets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryPolicy {
    /// Seconds between registry samples.
    pub tick_secs: f64,
}

impl Default for TelemetryPolicy {
    /// One sample a second: two minutes of per-second history.
    fn default() -> Self {
        TelemetryPolicy { tick_secs: 1.0 }
    }
}

impl TelemetryPolicy {
    /// The sampler's period: `tick_secs`, held to 5 ms – 60 s.
    pub fn tick(&self) -> Duration {
        Duration::from_secs_f64(self.tick_secs.clamp(0.005, 60.0))
    }
}

/// Everything configurable about one agent.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// Workload reporting/aging policy.
    pub workload: WorkloadPolicy,
    /// Fault tracking policy.
    pub fault: FaultPolicy,
    /// Liveness probing policy.
    pub heartbeat: HeartbeatPolicy,
    /// Federation gossip policy.
    pub gossip: GossipPolicy,
    /// Whether the agent counts its own unconfirmed assignments against a
    /// server's workload (the herd-effect defence). Disabling reproduces
    /// the naive report-only broker for the R4 ablation.
    pub pending_tracking: bool,
    /// Telemetry sampling and digest replication policy.
    pub telemetry: TelemetryPolicy,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            workload: WorkloadPolicy::default(),
            fault: FaultPolicy::default(),
            heartbeat: HeartbeatPolicy::default(),
            gossip: GossipPolicy::default(),
            pending_tracking: true,
            telemetry: TelemetryPolicy::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let w = WorkloadPolicy::default();
        assert!(w.report_interval_secs > 0.0);
        assert!(w.ttl_secs >= w.report_interval_secs);

        let r = RetryPolicy::default();
        assert!(r.max_attempts >= 1);
        assert!(r.attempt_timeout_secs > 0.0);
        assert_eq!(r.deadline_secs, 0.0, "no deadline unless asked");
        assert!(matches!(r.backoff, Backoff::ExponentialJitter { .. }));

        let f = FaultPolicy::default();
        assert!(f.failures_to_mark_down >= 1);

        let h = HeartbeatPolicy::default();
        assert!(h.probe_interval_secs > 0.0);
        assert!(h.miss_threshold >= 1);
        assert!(h.probe_timeout_secs > 0.0);

        let g = GossipPolicy::default();
        assert!(g.interval_secs > 0.0);
        assert!(
            g.entry_ttl_secs > g.interval_secs,
            "a live peer must be able to refresh entries before they expire"
        );
        assert!(g.peer_miss_threshold >= 1);
        assert!(g.round_timeout_secs > 0.0);

        let a = AgentConfig::default();
        assert!(a.pending_tracking, "pending tracking on by default");
    }

    #[test]
    fn threshold_reporting() {
        let p = WorkloadPolicy { report_threshold: 10.0, ..WorkloadPolicy::default() };
        assert!(p.should_report(None, 0.0), "first report always sent");
        assert!(!p.should_report(Some(50.0), 55.0), "small change suppressed");
        assert!(p.should_report(Some(50.0), 60.0), "threshold change sent");
        assert!(p.should_report(Some(50.0), 35.0), "drops also reported");
    }

    #[test]
    fn backoff_schedules() {
        assert_eq!(Backoff::None.delay_secs(0, 0.5), 0.0);
        assert_eq!(Backoff::None.delay_secs(9, 0.5), 0.0);

        let fixed = Backoff::Fixed { delay_secs: 0.25 };
        assert_eq!(fixed.delay_secs(0, 0.0), 0.25);
        assert_eq!(fixed.delay_secs(5, 0.9), 0.25);

        let exp = Backoff::ExponentialJitter { base_secs: 0.1, cap_secs: 1.0 };
        // Full jitter: the sample scales the growing ceiling.
        assert_eq!(exp.delay_secs(0, 0.5), 0.05);
        assert_eq!(exp.delay_secs(1, 0.5), 0.1);
        assert_eq!(exp.delay_secs(2, 0.5), 0.2);
        // Ceiling saturates at the cap and never overflows.
        assert_eq!(exp.delay_secs(10, 1.0), 1.0);
        let huge = exp.delay_secs(u32::MAX, 0.999);
        assert!(huge.is_finite() && huge <= 1.0);
    }
}
