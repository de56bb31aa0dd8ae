//! Aggregation of simulation outcomes into the statistics the experiment
//! tables print.

use std::collections::HashMap;

use netsolve_agent::Policy;
use netsolve_core::admission::AdmissionStats;
use netsolve_core::ids::ServerId;
use netsolve_core::stats::Sample;

/// One request's lifecycle as recorded by the engine.
#[derive(Debug, Clone)]
pub struct CompletedRequest {
    /// Request index in arrival order.
    pub idx: usize,
    /// Problem mnemonic.
    pub problem: String,
    /// Dominant dimension.
    pub n: u64,
    /// Arrival time (seconds).
    pub arrival_secs: f64,
    /// Completion (or abandonment) time.
    pub finish_secs: f64,
    /// Server that completed it (`None` if it failed everywhere).
    pub server: Option<ServerId>,
    /// The agent's predicted completion seconds for the first-choice
    /// server.
    pub predicted_secs: f64,
    /// Dispatch attempts consumed.
    pub attempts: u32,
    /// Whether the request completed successfully.
    pub ok: bool,
}

impl CompletedRequest {
    /// Turnaround: arrival to finish.
    pub fn turnaround_secs(&self) -> f64 {
        self.finish_secs - self.arrival_secs
    }

    /// Relative prediction error |actual - predicted| / actual, for
    /// successful first-attempt requests (retries invalidate the original
    /// prediction).
    pub fn relative_prediction_error(&self) -> Option<f64> {
        if !self.ok || self.attempts != 1 {
            return None;
        }
        let actual = self.turnaround_secs();
        if actual <= 0.0 {
            return None;
        }
        Some((actual - self.predicted_secs).abs() / actual)
    }
}

/// Everything a simulation run produced.
#[derive(Debug, Clone)]
pub struct SimReport {
    policy: Policy,
    requests: Vec<CompletedRequest>,
    server_count: usize,
    admission: Option<AdmissionStats>,
}

impl SimReport {
    /// Wrap raw request records.
    pub fn new(policy: Policy, requests: Vec<CompletedRequest>, server_count: usize) -> Self {
        SimReport { policy, requests, server_count, admission: None }
    }

    /// Attach admission-control outcomes (engine use).
    pub fn with_admission_stats(mut self, stats: AdmissionStats) -> Self {
        self.admission = Some(stats);
        self
    }

    /// Admission-control outcomes summed over every server's policy, when
    /// the scenario enabled admission.
    pub fn admission(&self) -> Option<&AdmissionStats> {
        self.admission.as_ref()
    }

    /// The policy this run used.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Raw per-request records.
    pub fn requests(&self) -> &[CompletedRequest] {
        &self.requests
    }

    /// Total requests issued.
    pub fn total(&self) -> usize {
        self.requests.len()
    }

    /// Requests that completed successfully.
    pub fn succeeded(&self) -> usize {
        self.requests.iter().filter(|r| r.ok).count()
    }

    /// Fraction of requests that succeeded.
    pub fn success_rate(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.succeeded() as f64 / self.total() as f64
    }

    /// Time of the last completion (the batch makespan).
    pub fn makespan_secs(&self) -> f64 {
        self.requests
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.finish_secs)
            .fold(0.0, f64::max)
    }

    /// Mean turnaround of successful requests.
    pub fn mean_turnaround_secs(&self) -> f64 {
        let ok: Vec<f64> = self
            .requests
            .iter()
            .filter(|r| r.ok)
            .map(|r| r.turnaround_secs())
            .collect();
        if ok.is_empty() {
            0.0
        } else {
            ok.iter().sum::<f64>() / ok.len() as f64
        }
    }

    /// A percentile of successful-request turnaround.
    pub fn turnaround_percentile(&self, p: f64) -> f64 {
        let mut sample = Sample::new();
        for r in self.requests.iter().filter(|r| r.ok) {
            sample.push(r.turnaround_secs());
        }
        sample.percentile(p)
    }

    /// Mean dispatch attempts per request (successful or not).
    pub fn mean_attempts(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests.iter().map(|r| r.attempts as f64).sum::<f64>() / self.total() as f64
    }

    /// Requests completed per server, indexed by registration order.
    pub fn per_server_counts(&self) -> Vec<usize> {
        let mut by_id: HashMap<ServerId, usize> = HashMap::new();
        for r in &self.requests {
            if let Some(id) = r.server {
                *by_id.entry(id).or_insert(0) += 1;
            }
        }
        // ServerIds are assigned 1..=count in registration order.
        (1..=self.server_count)
            .map(|i| by_id.get(&ServerId(i as u64)).copied().unwrap_or(0))
            .collect()
    }

    /// Median relative prediction error over eligible requests.
    pub fn median_relative_prediction_error(&self) -> f64 {
        let mut sample = Sample::new();
        for r in &self.requests {
            if let Some(e) = r.relative_prediction_error() {
                sample.push(e);
            }
        }
        sample.median()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(idx: usize, arrival: f64, finish: f64, server: Option<u64>, predicted: f64, attempts: u32, ok: bool) -> CompletedRequest {
        CompletedRequest {
            idx,
            problem: "dgesv".into(),
            n: 100,
            arrival_secs: arrival,
            finish_secs: finish,
            server: server.map(ServerId),
            predicted_secs: predicted,
            attempts,
            ok,
        }
    }

    #[test]
    fn aggregates_basic_statistics() {
        let reqs = vec![
            req(0, 0.0, 2.0, Some(1), 2.0, 1, true),
            req(1, 1.0, 5.0, Some(2), 3.0, 1, true),
            req(2, 2.0, 3.0, None, 1.0, 3, false),
        ];
        let r = SimReport::new(Policy::MinimumCompletionTime, reqs, 2);
        assert_eq!(r.total(), 3);
        assert_eq!(r.succeeded(), 2);
        assert!((r.success_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.makespan_secs(), 5.0);
        assert!((r.mean_turnaround_secs() - 3.0).abs() < 1e-12);
        assert_eq!(r.per_server_counts(), vec![1, 1]);
        assert!((r.mean_attempts() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn prediction_error_excludes_retries_and_failures() {
        let reqs = vec![
            req(0, 0.0, 2.0, Some(1), 1.0, 1, true), // error |2-1|/2 = 0.5
            req(1, 0.0, 4.0, Some(1), 1.0, 2, true), // excluded: retried
            req(2, 0.0, 9.0, None, 1.0, 3, false),   // excluded: failed
        ];
        let r = SimReport::new(Policy::MinimumCompletionTime, reqs, 1);
        assert!((r.median_relative_prediction_error() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = SimReport::new(Policy::Random, vec![], 0);
        assert_eq!(r.success_rate(), 0.0);
        assert_eq!(r.makespan_secs(), 0.0);
        assert_eq!(r.mean_turnaround_secs(), 0.0);
        assert_eq!(r.mean_attempts(), 0.0);
        assert!(r.per_server_counts().is_empty());
    }

    #[test]
    fn percentiles_ordered() {
        let reqs: Vec<CompletedRequest> = (0..100)
            .map(|i| req(i, 0.0, (i + 1) as f64, Some(1), 1.0, 1, true))
            .collect();
        let r = SimReport::new(Policy::MinimumCompletionTime, reqs, 1);
        assert!(r.turnaround_percentile(50.0) < r.turnaround_percentile(95.0));
    }
}
