//! Unified admission control: queue-depth shed with hysteresis plus
//! deadline-aware early reject.
//!
//! One [`AdmissionPolicy`] object makes every shed/admit decision for a
//! server — and the *same type* runs inside the discrete-event simulator
//! (`netsolve-sim`) and the live `ServerDaemon`, so a policy tuned in a
//! million-client simulation is bit-for-bit the policy production runs.
//! To make that possible the policy is a pure function of its inputs: it
//! never reads a clock (callers pass remaining deadline budget in
//! milliseconds) and never sleeps, so virtual time and wall time drive it
//! identically.
//!
//! Three shed triggers, in decision order:
//!
//! 1. **Expired budget** — the request's deadline was consumed before a
//!    solve slot could be reserved ([`ShedReason::DeadlineExpired`]).
//!    Counted separately from execution-time sheds so operators can tell
//!    "died waiting" from "died computing".
//! 2. **Queue depth with hysteresis** — shedding latches on at
//!    `max_queue_depth` and only releases once the queue drains to
//!    `resume_queue_depth`, so a server hovering at the boundary sheds in
//!    bursts instead of flapping per-request
//!    ([`ShedReason::QueueFull`]).
//! 3. **Unmeetable deadline** — the expected wait (queue depth × an
//!    observed per-problem service-time quantile, tracked in
//!    `netsolve-obs` histograms) already exceeds the remaining budget, so
//!    admitting the request would only waste a slot
//!    ([`ShedReason::DeadlineUnmeetable`]).
//!
//! Every shed carries a `retry_after_ms` hint sized from the same service
//! estimate; the live server folds it into the retryable Busy error
//! detail (see [`format_busy_detail`]) and the client uses it as a floor
//! for its next backoff wait ([`parse_retry_after_ms`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use netsolve_obs::{Counter, Histogram};
use parking_lot::Mutex;

/// Service-time quantile used for wait estimation (0.9 = plan for
/// slow-ish solves; lower would admit more aggressively).
const SERVICE_QUANTILE: f64 = 0.9;
/// Observations of a problem required before its histogram is trusted
/// for deadline estimates.
const MIN_OBSERVATIONS: u64 = 8;
/// Service-seconds guess used for retry hints before any observations
/// accrue.
const FALLBACK_SERVICE_SECS: f64 = 0.05;
/// Ceiling on the `retry_after_ms` hint handed to shed clients.
const MAX_RETRY_HINT_MS: u64 = 5_000;

/// The one knob of a server's [`AdmissionPolicy`]: its queue bound.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    max_queue_depth: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self::with_max_queue(16)
    }
}

impl AdmissionConfig {
    /// A config shedding at `depth` (at least 1).
    pub fn with_max_queue(depth: usize) -> Self {
        AdmissionConfig {
            max_queue_depth: depth.max(1),
        }
    }

    /// Shed once the solve queue (waiting + in service) reaches this
    /// depth.
    pub fn max_queue_depth(&self) -> usize {
        self.max_queue_depth
    }

    /// Hysteresis low watermark: once shedding, keep shedding until the
    /// queue drains to this depth — 3/4 of the bound, with a gap of at
    /// least one so the latch always has room to release.
    pub fn resume_queue_depth(&self) -> usize {
        (self.max_queue_depth * 3 / 4).min(self.max_queue_depth - 1)
    }
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The solve queue is at (or hysteresis keeps it treated as at) its
    /// bound.
    QueueFull,
    /// The request's deadline budget was already consumed before a slot
    /// could be reserved.
    DeadlineExpired,
    /// The remaining budget cannot cover the estimated wait + service.
    DeadlineUnmeetable,
}

impl ShedReason {
    /// Stable lowercase name (metrics labels, trace details).
    pub fn name(&self) -> &'static str {
        match self {
            ShedReason::QueueFull => "queue_full",
            ShedReason::DeadlineExpired => "deadline_expired",
            ShedReason::DeadlineUnmeetable => "deadline_unmeetable",
        }
    }
}

/// Outcome of one [`AdmissionPolicy::admit`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionDecision {
    /// Take the request.
    Admit,
    /// Refuse the request.
    Shed {
        /// Which trigger fired.
        reason: ShedReason,
        /// How long the client should wait before retrying, in
        /// milliseconds (0 = no point retrying here, the budget is gone).
        retry_after_ms: u64,
    },
}

fn hint_ms(secs: f64) -> u64 {
    ((secs * 1e3).ceil() as u64).clamp(1, MAX_RETRY_HINT_MS)
}

/// The admission decision engine. See the module docs for the design.
///
/// Thread-safe and cheap: one atomic for the hysteresis latch, a short
/// mutex for the per-problem histogram map (instrument `Arc`s are cached
/// by callers on hot paths via [`AdmissionPolicy::observe_service`]'s
/// internal map), counters for every decision outcome.
pub struct AdmissionPolicy {
    config: AdmissionConfig,
    shedding: AtomicBool,
    service: Mutex<HashMap<String, Arc<Histogram>>>,
    decisions: Counter,
    shed_queue_full: Counter,
    shed_deadline_expired: Counter,
    shed_deadline_unmeetable: Counter,
}

impl AdmissionPolicy {
    /// A policy with fresh (empty) service-time history.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionPolicy {
            config,
            shedding: AtomicBool::new(false),
            service: Mutex::new(HashMap::new()),
            decisions: Counter::default(),
            shed_queue_full: Counter::default(),
            shed_deadline_expired: Counter::default(),
            shed_deadline_unmeetable: Counter::default(),
        }
    }

    /// Record an observed service time for `problem` (seconds). Both the
    /// simulator (virtual service draws) and the live server (measured
    /// solve seconds) feed this after every completed solve.
    pub fn observe_service(&self, problem: &str, secs: f64) {
        let hist = {
            let mut map = self.service.lock();
            Arc::clone(map.entry(problem.to_string()).or_default())
        };
        hist.record_secs(secs);
    }

    /// The service-time estimate ([`SERVICE_QUANTILE`]) for `problem`, or
    /// `None` until [`MIN_OBSERVATIONS`] samples accrued. Log-bucket
    /// quantiles are within 2x of the true sample — good enough for
    /// shed/admit decisions, and identical in sim and live by
    /// construction.
    pub fn service_estimate_secs(&self, problem: &str) -> Option<f64> {
        let hist = {
            let map = self.service.lock();
            Arc::clone(map.get(problem)?)
        };
        if hist.count() < MIN_OBSERVATIONS {
            return None;
        }
        Some(hist.snapshot(problem).quantile_secs(SERVICE_QUANTILE))
    }

    /// Decide one request. `queue_depth` is the solve queue (waiting +
    /// in service) the request would join; `remaining_budget_ms` is what
    /// is left of the client's deadline (`None` = no deadline). Pure in
    /// time: the caller supplies all clock-derived inputs.
    pub fn admit(
        &self,
        problem: &str,
        queue_depth: usize,
        remaining_budget_ms: Option<u64>,
    ) -> AdmissionDecision {
        self.decisions.inc();
        // 1. Budget already gone: nobody is waiting for this result.
        if remaining_budget_ms == Some(0) {
            self.shed_deadline_expired.inc();
            return AdmissionDecision::Shed {
                reason: ShedReason::DeadlineExpired,
                retry_after_ms: 0,
            };
        }
        let est = self
            .service_estimate_secs(problem)
            .unwrap_or(FALLBACK_SERVICE_SECS)
            .max(1e-6);
        // 2. Queue-depth shed with hysteresis.
        let latched = self.shedding.load(Ordering::Acquire);
        let shed_on_depth = if latched {
            if queue_depth <= self.config.resume_queue_depth() {
                self.shedding.store(false, Ordering::Release);
                false
            } else {
                true
            }
        } else if queue_depth >= self.config.max_queue_depth() {
            self.shedding.store(true, Ordering::Release);
            true
        } else {
            false
        };
        if shed_on_depth {
            self.shed_queue_full.inc();
            // Hint: roughly how long until the queue drains back to the
            // resume watermark at one service time per slot.
            let excess = queue_depth
                .saturating_sub(self.config.resume_queue_depth())
                .max(1);
            return AdmissionDecision::Shed {
                reason: ShedReason::QueueFull,
                retry_after_ms: hint_ms(excess as f64 * est),
            };
        }
        // 3. Deadline-aware early reject: estimated wait + service vs
        // the remaining budget. Only with real observations — guessing
        // here would shed healthy traffic on cold start.
        if let Some(budget_ms) = remaining_budget_ms {
            if self.service_estimate_secs(problem).is_some() {
                let expected_ms = (queue_depth as f64 + 1.0) * est * 1e3;
                if expected_ms > budget_ms as f64 {
                    self.shed_deadline_unmeetable.inc();
                    return AdmissionDecision::Shed {
                        reason: ShedReason::DeadlineUnmeetable,
                        retry_after_ms: hint_ms(expected_ms / 1e3),
                    };
                }
            }
        }
        AdmissionDecision::Admit
    }

    /// Whether the hysteresis latch is currently shedding.
    pub fn is_shedding(&self) -> bool {
        self.shedding.load(Ordering::Acquire)
    }

    /// Total admit/shed decisions made.
    pub fn decisions(&self) -> u64 {
        self.decisions.get()
    }

    /// Total sheds, all reasons.
    pub fn sheds(&self) -> u64 {
        self.sheds_queue_full() + self.sheds_deadline_expired() + self.sheds_deadline_unmeetable()
    }

    /// Sheds due to queue depth (incl. hysteresis holds).
    pub fn sheds_queue_full(&self) -> u64 {
        self.shed_queue_full.get()
    }

    /// Sheds of requests whose budget expired before a slot was free.
    pub fn sheds_deadline_expired(&self) -> u64 {
        self.shed_deadline_expired.get()
    }

    /// Early rejects of deadlines the queue could not meet.
    pub fn sheds_deadline_unmeetable(&self) -> u64 {
        self.shed_deadline_unmeetable.get()
    }

    /// Fraction of decisions that shed (0 when no decisions yet).
    pub fn shed_rate(&self) -> f64 {
        let d = self.decisions();
        if d == 0 {
            0.0
        } else {
            self.sheds() as f64 / d as f64
        }
    }
}

/// The detail string a shedding server puts in its retryable Busy error.
/// Keep in sync with [`parse_retry_after_ms`]: the `retry_after_ms=N`
/// token is the wire contract the client backoff path keys on.
pub fn format_busy_detail(reason: ShedReason, queue_depth: usize, retry_after_ms: u64) -> String {
    format!(
        "server overloaded ({}, queue depth {queue_depth}): retry_after_ms={retry_after_ms}",
        reason.name()
    )
}

/// Extract the `retry_after_ms=N` hint from an error detail, if present.
pub fn parse_retry_after_ms(detail: &str) -> Option<u64> {
    let idx = detail.find("retry_after_ms=")?;
    let rest = &detail[idx + "retry_after_ms=".len()..];
    let digits: String = rest.chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_under_the_bound() {
        let p = AdmissionPolicy::new(AdmissionConfig::with_max_queue(4));
        for depth in 0..4 {
            assert_eq!(p.admit("dgesv", depth, None), AdmissionDecision::Admit);
        }
        assert_eq!(p.sheds(), 0);
        assert_eq!(p.decisions(), 4);
    }

    #[test]
    fn sheds_at_bound_with_hysteresis() {
        let p = AdmissionPolicy::new(AdmissionConfig::with_max_queue(4)); // resume at 3
        assert!(matches!(
            p.admit("dgesv", 4, None),
            AdmissionDecision::Shed { reason: ShedReason::QueueFull, .. }
        ));
        assert!(p.is_shedding());
        // Latched: depth back under max but above resume still sheds.
        assert!(matches!(p.admit("dgesv", 4, None), AdmissionDecision::Shed { .. }));
        // Wait: resume is 3; depth 4 > 3, keeps shedding. Drain to 3 releases.
        assert_eq!(p.admit("dgesv", 3, None), AdmissionDecision::Admit);
        assert!(!p.is_shedding());
        assert_eq!(p.sheds_queue_full(), 2);
    }

    #[test]
    fn hysteresis_window_sheds_between_watermarks() {
        // max 8, resume 6: depth 7 admits on the way up, sheds on the way
        // down (after the latch set at 8).
        let p = AdmissionPolicy::new(AdmissionConfig::with_max_queue(8));
        assert_eq!(p.admit("x", 7, None), AdmissionDecision::Admit);
        assert!(matches!(p.admit("x", 8, None), AdmissionDecision::Shed { .. }));
        assert!(matches!(p.admit("x", 7, None), AdmissionDecision::Shed { .. }));
        assert_eq!(p.admit("x", 6, None), AdmissionDecision::Admit);
    }

    #[test]
    fn expired_budget_sheds_distinctly() {
        let p = AdmissionPolicy::new(AdmissionConfig::default());
        match p.admit("dgesv", 0, Some(0)) {
            AdmissionDecision::Shed { reason, retry_after_ms } => {
                assert_eq!(reason, ShedReason::DeadlineExpired);
                assert_eq!(retry_after_ms, 0);
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(p.sheds_deadline_expired(), 1);
        assert_eq!(p.sheds_queue_full(), 0);
    }

    #[test]
    fn deadline_early_reject_uses_observed_service_times() {
        let p = AdmissionPolicy::new(AdmissionConfig::with_max_queue(64));
        // Too little history: a tight deadline is still admitted (no
        // guessing), up to the last observation short of the bar.
        for _ in 0..MIN_OBSERVATIONS {
            assert_eq!(p.admit("dgesv", 10, Some(5)), AdmissionDecision::Admit);
            p.observe_service("dgesv", 0.100); // ~100 ms solves
        }
        // 10 queued × ~100 ms each >> 5 ms budget: early reject.
        match p.admit("dgesv", 10, Some(5)) {
            AdmissionDecision::Shed { reason, retry_after_ms } => {
                assert_eq!(reason, ShedReason::DeadlineUnmeetable);
                assert!(retry_after_ms >= 100, "hint {retry_after_ms}");
            }
            other => panic!("expected shed, got {other:?}"),
        }
        // A roomy budget at the same depth is admitted.
        assert_eq!(p.admit("dgesv", 10, Some(60_000)), AdmissionDecision::Admit);
        // Other problems have their own histograms.
        assert!(p.service_estimate_secs("fft").is_none());
        assert_eq!(p.sheds_deadline_unmeetable(), 1);
    }

    #[test]
    fn retry_hint_scales_with_excess_depth() {
        let p = AdmissionPolicy::new(AdmissionConfig::with_max_queue(4));
        for _ in 0..MIN_OBSERVATIONS {
            p.observe_service("x", 0.050);
        }
        let shallow = match p.admit("x", 4, None) {
            AdmissionDecision::Shed { retry_after_ms, .. } => retry_after_ms,
            _ => panic!(),
        };
        let deep = match p.admit("x", 40, None) {
            AdmissionDecision::Shed { retry_after_ms, .. } => retry_after_ms,
            _ => panic!(),
        };
        assert!(deep > shallow, "deep {deep} vs shallow {shallow}");
        assert!(deep <= MAX_RETRY_HINT_MS);
    }

    #[test]
    fn busy_detail_roundtrips_the_hint() {
        let detail = format_busy_detail(ShedReason::QueueFull, 9, 230);
        assert!(detail.contains("queue depth 9"), "{detail}");
        assert_eq!(parse_retry_after_ms(&detail), Some(230));
        assert_eq!(parse_retry_after_ms("no hint here"), None);
        assert_eq!(parse_retry_after_ms("retry_after_ms="), None);
        assert_eq!(parse_retry_after_ms("x retry_after_ms=12y"), Some(12));
    }

    #[test]
    fn shed_rate_closes() {
        let p = AdmissionPolicy::new(AdmissionConfig::with_max_queue(1));
        assert_eq!(p.shed_rate(), 0.0);
        let _ = p.admit("x", 0, None); // admit
        let _ = p.admit("x", 5, None); // shed
        assert!((p.shed_rate() - 0.5).abs() < 1e-12);
        assert_eq!(p.decisions(), 2);
        assert_eq!(p.sheds(), 1);
    }
}
