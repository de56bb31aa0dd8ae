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
//! 3. **Unmeetable deadline** — the expected wait and service,
//!    `(queue depth + 1) × flops(args) / p_eff`, already exceeds the
//!    remaining budget, so admitting the request would only waste a slot
//!    ([`ShedReason::DeadlineUnmeetable`]). `flops(args)` is the
//!    problem's complexity model at this request's size, and `p_eff` is
//!    learned per problem from observed solves (seconds per predicted
//!    flop): the same `T_compute = complexity(n) / p'` the agent ranks
//!    with, so a small request behind big ones of the same name is priced
//!    small. No problem is early-rejected before one solve of it has been
//!    observed.
//!
//! Every shed carries a `retry_after_ms` hint sized from the same service
//! estimate; the live server folds it into the retryable Busy error
//! detail (see [`format_busy_detail`]) and the client uses it as a floor
//! for its next backoff wait ([`parse_retry_after_ms`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use netsolve_obs::Counter;
use parking_lot::Mutex;

use crate::stats::Ewma;

/// Weight of the newest solve in a problem's learned seconds per flop:
/// one outlier moves the estimate a fifth of the way, and a real change
/// of speed is mostly learned within ten solves.
const RATE_WEIGHT: f64 = 0.2;
/// Service-seconds guess used for retry hints before a problem has an
/// observed solve.
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

/// Admission-control outcomes: one policy's counters, or a fleet's summed
/// (`policies.iter().map(AdmissionPolicy::stats).sum()`). The live server
/// and the simulator read the same fields, so their shed rates are
/// computed identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Total admit/shed decisions made.
    pub decisions: u64,
    /// Sheds due to queue depth (incl. hysteresis holds).
    pub sheds_queue_full: u64,
    /// Sheds of requests whose budget expired before a slot was free.
    pub sheds_deadline_expired: u64,
    /// Early rejects of deadlines the queue could not meet.
    pub sheds_deadline_unmeetable: u64,
}

impl AdmissionStats {
    /// Total sheds, all reasons.
    pub fn sheds(&self) -> u64 {
        self.sheds_queue_full + self.sheds_deadline_expired + self.sheds_deadline_unmeetable
    }

    /// Fraction of decisions that shed (0 when no decisions yet).
    pub fn shed_rate(&self) -> f64 {
        if self.decisions == 0 {
            0.0
        } else {
            self.sheds() as f64 / self.decisions as f64
        }
    }
}

impl std::iter::Sum for AdmissionStats {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| AdmissionStats {
            decisions: a.decisions + b.decisions,
            sheds_queue_full: a.sheds_queue_full + b.sheds_queue_full,
            sheds_deadline_expired: a.sheds_deadline_expired + b.sheds_deadline_expired,
            sheds_deadline_unmeetable: a.sheds_deadline_unmeetable + b.sheds_deadline_unmeetable,
        })
    }
}

/// The admission decision engine. See the module docs for the design.
///
/// Thread-safe and cheap: one atomic for the hysteresis latch, a short
/// mutex over one learned rate per problem, counters for every decision
/// outcome. A problem's first observed solve is its only allocation.
pub struct AdmissionPolicy {
    config: AdmissionConfig,
    shedding: AtomicBool,
    /// Seconds per predicted flop (`1 / p_eff`), per problem.
    secs_per_flop: Mutex<HashMap<String, Ewma>>,
    decisions: Counter,
    shed_queue_full: Counter,
    shed_deadline_expired: Counter,
    shed_deadline_unmeetable: Counter,
}

impl AdmissionPolicy {
    /// A policy with no learned rates yet.
    pub fn new(config: AdmissionConfig) -> Self {
        AdmissionPolicy {
            config,
            shedding: AtomicBool::new(false),
            secs_per_flop: Mutex::new(HashMap::new()),
            decisions: Counter::default(),
            shed_queue_full: Counter::default(),
            shed_deadline_expired: Counter::default(),
            shed_deadline_unmeetable: Counter::default(),
        }
    }

    /// Record one completed solve of `problem`: `flops` predicted by its
    /// complexity model, `secs` observed. Both the simulator (virtual
    /// service draws) and the live server (measured solve seconds) feed
    /// this after every solve. A solve with no usable rate — 0 flops (an
    /// unknown problem, or n = 0), or a non-finite or negative time — is
    /// skipped.
    pub fn observe_service(&self, problem: &str, flops: f64, secs: f64) {
        let rate = secs / flops;
        if !(rate.is_finite() && rate >= 0.0) {
            return;
        }
        let mut rates = self.secs_per_flop.lock();
        if let Some(learned) = rates.get_mut(problem) {
            learned.update(rate);
        } else {
            let mut learned = Ewma::new(RATE_WEIGHT);
            learned.update(rate);
            rates.insert(problem.to_string(), learned);
        }
    }

    /// Estimated service seconds of a `flops`-flop request of `problem`,
    /// or `None` until one solve of it has been observed.
    pub fn service_estimate_secs(&self, problem: &str, flops: f64) -> Option<f64> {
        Some(flops * self.secs_per_flop.lock().get(problem)?.get()?)
    }

    /// Decide one request of `flops` predicted flops. `queue_depth` is the
    /// solve queue (waiting + in service) the request would join;
    /// `remaining_budget_ms` is what is left of the client's deadline
    /// (`None` = no deadline). Pure in time: the caller supplies all
    /// clock-derived inputs.
    pub fn admit(
        &self,
        problem: &str,
        flops: f64,
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
        let learned = self.service_estimate_secs(problem, flops);
        let est = learned.unwrap_or(FALLBACK_SERVICE_SECS).max(1e-6);
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
        // the remaining budget. Only with a learned rate — guessing here
        // would shed healthy traffic on cold start.
        if let (Some(budget_ms), Some(_)) = (remaining_budget_ms, learned) {
            let expected_ms = (queue_depth as f64 + 1.0) * est * 1e3;
            if expected_ms > budget_ms as f64 {
                self.shed_deadline_unmeetable.inc();
                return AdmissionDecision::Shed {
                    reason: ShedReason::DeadlineUnmeetable,
                    retry_after_ms: hint_ms(expected_ms / 1e3),
                };
            }
        }
        AdmissionDecision::Admit
    }

    /// Whether the hysteresis latch is currently shedding.
    pub fn is_shedding(&self) -> bool {
        self.shedding.load(Ordering::Acquire)
    }

    /// Every decision this policy has made, by outcome.
    pub fn stats(&self) -> AdmissionStats {
        AdmissionStats {
            decisions: self.decisions.get(),
            sheds_queue_full: self.shed_queue_full.get(),
            sheds_deadline_expired: self.shed_deadline_expired.get(),
            sheds_deadline_unmeetable: self.shed_deadline_unmeetable.get(),
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
            assert_eq!(p.admit("dgesv", 1e6, depth, None), AdmissionDecision::Admit);
        }
        assert_eq!(p.stats().sheds(), 0);
        assert_eq!(p.stats().decisions, 4);
    }

    #[test]
    fn sheds_at_bound_with_hysteresis() {
        let p = AdmissionPolicy::new(AdmissionConfig::with_max_queue(4)); // resume at 3
        assert!(matches!(
            p.admit("dgesv", 1e6, 4, None),
            AdmissionDecision::Shed { reason: ShedReason::QueueFull, .. }
        ));
        assert!(p.is_shedding());
        // Latched: depth back under max but above resume still sheds.
        assert!(matches!(p.admit("dgesv", 1e6, 4, None), AdmissionDecision::Shed { .. }));
        // Wait: resume is 3; depth 4 > 3, keeps shedding. Drain to 3 releases.
        assert_eq!(p.admit("dgesv", 1e6, 3, None), AdmissionDecision::Admit);
        assert!(!p.is_shedding());
        assert_eq!(
            p.stats(),
            AdmissionStats { decisions: 3, sheds_queue_full: 2, ..AdmissionStats::default() }
        );
    }

    #[test]
    fn hysteresis_window_sheds_between_watermarks() {
        // max 8, resume 6: depth 7 admits on the way up, sheds on the way
        // down (after the latch set at 8).
        let p = AdmissionPolicy::new(AdmissionConfig::with_max_queue(8));
        assert_eq!(p.admit("x", 1e6, 7, None), AdmissionDecision::Admit);
        assert!(matches!(p.admit("x", 1e6, 8, None), AdmissionDecision::Shed { .. }));
        assert!(matches!(p.admit("x", 1e6, 7, None), AdmissionDecision::Shed { .. }));
        assert_eq!(p.admit("x", 1e6, 6, None), AdmissionDecision::Admit);
        assert_eq!(
            p.stats(),
            AdmissionStats { decisions: 4, sheds_queue_full: 2, ..AdmissionStats::default() }
        );
    }

    #[test]
    fn expired_budget_sheds_distinctly() {
        let p = AdmissionPolicy::new(AdmissionConfig::default());
        match p.admit("dgesv", 1e6, 0, Some(0)) {
            AdmissionDecision::Shed { reason, retry_after_ms } => {
                assert_eq!(reason, ShedReason::DeadlineExpired);
                assert_eq!(retry_after_ms, 0);
            }
            other => panic!("expected shed, got {other:?}"),
        }
        assert_eq!(
            p.stats(),
            AdmissionStats { decisions: 1, sheds_deadline_expired: 1, ..AdmissionStats::default() }
        );
    }

    #[test]
    fn deadline_early_reject_uses_observed_service_times() {
        let p = AdmissionPolicy::new(AdmissionConfig::with_max_queue(64));
        // Cold start: a tight deadline is still admitted (no guessing).
        assert_eq!(p.admit("dgesv", 1e6, 10, Some(5)), AdmissionDecision::Admit);
        p.observe_service("dgesv", 1e6, 0.100); // 100 ns per flop
        assert_eq!(p.service_estimate_secs("dgesv", 1e6), Some(0.100));
        // 11 × 100 ms >> 5 ms budget: early reject.
        match p.admit("dgesv", 1e6, 10, Some(5)) {
            AdmissionDecision::Shed { reason, retry_after_ms } => {
                assert_eq!(reason, ShedReason::DeadlineUnmeetable);
                assert!(retry_after_ms >= 100, "hint {retry_after_ms}");
            }
            other => panic!("expected shed, got {other:?}"),
        }
        // A thousandth of the work at the same depth fits: 11 × 100 µs.
        assert_eq!(p.admit("dgesv", 1e3, 10, Some(5)), AdmissionDecision::Admit);
        // A roomy budget at the same depth is admitted.
        assert_eq!(p.admit("dgesv", 1e6, 10, Some(60_000)), AdmissionDecision::Admit);
        // Other problems learn their own rates.
        assert!(p.service_estimate_secs("fft", 1e6).is_none());
        assert_eq!(p.stats().sheds_deadline_unmeetable, 1);
    }

    #[test]
    fn observations_without_a_rate_are_skipped() {
        let p = AdmissionPolicy::new(AdmissionConfig::default());
        p.observe_service("x", 1e6, 0.1);
        // 0 flops (an unknown problem, or n = 0), and times that are not
        // a finite non-negative number, leave the estimate as it was.
        for (flops, secs) in [(0.0, 5.0), (0.0, 0.0), (1e6, f64::NAN), (1e6, -1.0), (1e6, f64::INFINITY)] {
            p.observe_service("x", flops, secs);
            assert_eq!(p.service_estimate_secs("x", 1e6), Some(0.1), "{flops} flops, {secs} s");
        }
        p.observe_service("unknown", 0.0, 1.0);
        assert_eq!(p.service_estimate_secs("unknown", 1e6), None);
        // A solve that took no measurable time is a rate of zero.
        p.observe_service("instant", 1e6, 0.0);
        assert_eq!(p.service_estimate_secs("instant", 1e9), Some(0.0));
    }

    #[test]
    fn retry_hint_scales_with_excess_depth() {
        let p = AdmissionPolicy::new(AdmissionConfig::with_max_queue(4));
        p.observe_service("x", 1e6, 0.050);
        let shallow = match p.admit("x", 1e6, 4, None) {
            AdmissionDecision::Shed { retry_after_ms, .. } => retry_after_ms,
            _ => panic!(),
        };
        let deep = match p.admit("x", 1e6, 40, None) {
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
        assert_eq!(p.stats().shed_rate(), 0.0);
        let _ = p.admit("x", 1e6, 0, None); // admit
        let _ = p.admit("x", 1e6, 5, None); // shed
        let stats = p.stats();
        assert!((stats.shed_rate() - 0.5).abs() < 1e-12);
        assert_eq!(
            stats,
            AdmissionStats { decisions: 2, sheds_queue_full: 1, ..AdmissionStats::default() }
        );
        assert_eq!(stats.sheds(), 1);
        // A fleet's tally is the sum of its policies'.
        let fleet: AdmissionStats = [stats, stats].into_iter().sum();
        assert_eq!((fleet.decisions, fleet.sheds()), (4, 2));
    }
}
