//! Scenario descriptions for the discrete-event simulator.
//!
//! A scenario is everything the paper's testbed provided: a pool of
//! heterogeneous servers, a client population, network characteristics, a
//! request workload, and the knobs under study (scheduling policy,
//! workload-information policy, failure injection).

use netsolve_core::admission::AdmissionConfig;
use netsolve_core::config::WorkloadPolicy;
use netsolve_agent::Policy;
use netsolve_net::LinkModel;

/// One simulated computational server.
#[derive(Debug, Clone)]
pub struct SimServer {
    /// True machine speed, Mflop/s.
    pub mflops: f64,
    /// Multiplicative log-normal noise sigma on service times (0 = exact).
    pub service_noise_sigma: f64,
    /// Draw service times from an exponential distribution whose mean is
    /// the load-adjusted deterministic time. Turns a server into the M/M/c
    /// service process queueing theory analyses, so simulator output can be
    /// cross-checked against Erlang-C formulas. Mutually exclusive with
    /// `service_noise_sigma` (exponential wins when both are set).
    pub service_exponential: bool,
    /// Probability that any dispatched attempt fails (fault injection).
    pub fail_prob: f64,
    /// If set, the server crashes permanently at this time (seconds).
    pub crash_at: Option<f64>,
    /// External background-load windows `(start_secs, end_secs, workload%)`:
    /// load from other users of the machine, invisible to the agent except
    /// through workload reports. While active it slows service by
    /// `(100 + workload) / 100` — the same model the predictor uses.
    pub background: Vec<(f64, f64, f64)>,
}

impl SimServer {
    /// A reliable server of the given speed.
    pub fn new(mflops: f64) -> Self {
        SimServer {
            mflops,
            service_noise_sigma: 0.0,
            service_exponential: false,
            fail_prob: 0.0,
            crash_at: None,
            background: Vec::new(),
        }
    }

    /// Builder: set service-time noise.
    pub fn with_noise(mut self, sigma: f64) -> Self {
        self.service_noise_sigma = sigma;
        self
    }

    /// Builder: make service times exponentially distributed (M/M/c).
    pub fn with_exponential_service(mut self) -> Self {
        self.service_exponential = true;
        self
    }

    /// Builder: set per-attempt failure probability.
    pub fn with_fail_prob(mut self, p: f64) -> Self {
        self.fail_prob = p;
        self
    }

    /// Builder: schedule a permanent crash.
    pub fn with_crash_at(mut self, t: f64) -> Self {
        self.crash_at = Some(t);
        self
    }

    /// Builder: add an external background-load window.
    pub fn with_background(mut self, start: f64, end: f64, workload: f64) -> Self {
        assert!(end > start && workload >= 0.0, "invalid background window");
        self.background.push((start, end, workload));
        self
    }

    /// External workload percentage active at time `t`.
    pub fn external_load(&self, t: f64) -> f64 {
        self.background
            .iter()
            .filter(|(s, e, _)| *s <= t && t < *e)
            .map(|(_, _, w)| w)
            .sum()
    }
}

/// One component of a workload mix.
#[derive(Debug, Clone)]
pub struct MixEntry {
    /// Problem mnemonic (must exist in the standard catalogue).
    pub problem: String,
    /// Candidate dominant dimensions, sampled uniformly.
    pub sizes: Vec<u64>,
    /// Relative weight of this entry in the mix (must be positive).
    pub weight: f64,
}

/// The problem mix simulated clients issue: one or more weighted entries,
/// each with its own size distribution — real NetSolve domains served a
/// blend of cheap kernels and heavy solves simultaneously.
#[derive(Debug, Clone)]
pub struct RequestMix {
    /// Weighted components.
    pub entries: Vec<MixEntry>,
}

impl RequestMix {
    /// A single-problem mix.
    pub fn single(problem: &str, sizes: &[u64]) -> Self {
        RequestMix {
            entries: vec![MixEntry {
                problem: problem.to_string(),
                sizes: sizes.to_vec(),
                weight: 1.0,
            }],
        }
    }

    /// A mix of `dgesv` calls at the given sizes.
    pub fn dgesv(sizes: &[u64]) -> Self {
        Self::single("dgesv", sizes)
    }

    /// A weighted multi-problem mix from `(problem, sizes, weight)` tuples.
    pub fn mixed(entries: &[(&str, &[u64], f64)]) -> Self {
        RequestMix {
            entries: entries
                .iter()
                .map(|(p, sizes, w)| MixEntry {
                    problem: p.to_string(),
                    sizes: sizes.to_vec(),
                    weight: *w,
                })
                .collect(),
        }
    }
}

/// Arrival process for client requests.
#[derive(Debug, Clone)]
pub enum Arrivals {
    /// Poisson process with the given mean rate (requests/second) shared
    /// across all clients.
    Poisson {
        /// Mean arrival rate, requests/second.
        rate: f64,
    },
    /// Replay absolute arrival times from a recorded trace (seconds,
    /// ascending). If the trace is shorter than `Scenario::requests`, it
    /// wraps with an offset of the trace's span; if longer, it is
    /// truncated. A batch is `Trace(vec![0.0; requests])`, a fixed gap a
    /// trace of its multiples.
    Trace(Vec<f64>),
    /// Closed-loop load: `Scenario::clients` clients each keep exactly
    /// one request in flight, issuing the next one `think_secs` (mean,
    /// exponential) after the previous completes or fails. Arrivals are
    /// chained from completions, so they cannot be pre-drawn — this is
    /// the load model where admission control changes offered load
    /// instead of just dropping it.
    Closed {
        /// Mean think time between a client's completion and its next
        /// request (exponential; 0 = immediate re-issue).
        think_secs: f64,
    },
}

/// Network truth for the simulation. The agent's view starts identical
/// (NetSolve measured its networks); `bandwidth_bps`/`latency_secs` define
/// both unless per-server overrides are installed via
/// [`Scenario::server_link_override`].
#[derive(Debug, Clone)]
pub struct SimNetwork {
    /// Default one-way latency between any client and any server.
    pub latency_secs: f64,
    /// Default bandwidth, bytes/second.
    pub bandwidth_bps: f64,
    /// Per-server `(latency, bandwidth)` overrides, indexed by server
    /// position in `Scenario::servers`.
    pub overrides: Vec<Option<(f64, f64)>>,
}

impl SimNetwork {
    /// Uniform network.
    pub fn uniform(latency_secs: f64, bandwidth_bps: f64) -> Self {
        SimNetwork { latency_secs, bandwidth_bps, overrides: Vec::new() }
    }

    /// Every server behind a [`LinkModel::lan_1996`] link.
    pub fn lan_1996() -> Self {
        let lan = LinkModel::lan_1996();
        Self::uniform(lan.latency_secs, lan.bandwidth_bps)
    }

    /// Link characteristics for server index `i`.
    pub fn link_for(&self, i: usize) -> (f64, f64) {
        self.overrides
            .get(i)
            .copied()
            .flatten()
            .unwrap_or((self.latency_secs, self.bandwidth_bps))
    }
}

/// A complete simulation scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Server pool.
    pub servers: Vec<SimServer>,
    /// Number of client hosts issuing requests (round-robin attribution).
    pub clients: usize,
    /// Network truth.
    pub network: SimNetwork,
    /// Request mix.
    pub mix: RequestMix,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Total requests to issue.
    pub requests: usize,
    /// Scheduling policy under test.
    pub policy: Policy,
    /// Workload information policy (report interval/threshold, TTL).
    pub workload: WorkloadPolicy,
    /// Client-side failover budget: total tries per request, at least 1.
    pub max_attempts: usize,
    /// Seconds a client burns detecting a failed attempt before retrying.
    pub failure_detect_secs: f64,
    /// Whether the agent tracks its own pending assignments (on = the full
    /// system; off = the naive report-only broker, the R4 ablation).
    pub pending_tracking: bool,
    /// Per-server admission control. When set, every server runs its own
    /// [`AdmissionPolicy`](netsolve_core::admission::AdmissionPolicy) —
    /// the *identical type* the live `ServerDaemon` gates with — at
    /// dispatch time, and shed attempts consume client retry budget
    /// exactly as live Busy replies do.
    pub admission: Option<AdmissionConfig>,
    /// Per-request deadline budget in seconds from arrival (0 = none).
    /// With admission enabled, requests whose budget expires while queued
    /// are shed before service begins, mirroring the live solve-slot
    /// gate.
    pub deadline_secs: f64,
    /// RNG seed — equal seeds give bit-identical runs.
    pub seed: u64,
}

impl Scenario {
    /// A small sane default scenario (override fields as needed).
    pub fn default_with(servers: Vec<SimServer>, requests: usize) -> Self {
        Scenario {
            servers,
            clients: 4,
            network: SimNetwork::lan_1996(),
            mix: RequestMix::dgesv(&[200, 400, 600]),
            arrivals: Arrivals::Poisson { rate: 2.0 },
            requests,
            policy: Policy::MinimumCompletionTime,
            workload: WorkloadPolicy {
                report_interval_secs: 5.0,
                report_threshold: 10.0,
                ttl_secs: 60.0,
            },
            max_attempts: 3,
            failure_detect_secs: 1.0,
            pending_tracking: true,
            admission: None,
            deadline_secs: 0.0,
            seed: 42,
        }
    }

    /// Install a per-server network override.
    pub fn server_link_override(mut self, server_idx: usize, latency: f64, bandwidth: f64) -> Self {
        if self.network.overrides.len() <= server_idx {
            self.network.overrides.resize(server_idx + 1, None);
        }
        self.network.overrides[server_idx] = Some((latency, bandwidth));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let s = SimServer::new(100.0)
            .with_noise(0.1)
            .with_fail_prob(0.05)
            .with_crash_at(30.0);
        assert_eq!(s.mflops, 100.0);
        assert_eq!(s.service_noise_sigma, 0.1);
        assert_eq!(s.fail_prob, 0.05);
        assert_eq!(s.crash_at, Some(30.0));
    }

    #[test]
    fn network_overrides() {
        let sc = Scenario::default_with(vec![SimServer::new(10.0), SimServer::new(20.0)], 10)
            .server_link_override(1, 0.5, 1e4);
        assert_eq!(sc.network.link_for(0), (1e-3, 1.25e6));
        assert_eq!(sc.network.link_for(1), (0.5, 1e4));
        // out-of-range index falls back to defaults
        assert_eq!(sc.network.link_for(5), (1e-3, 1.25e6));
    }

    #[test]
    fn default_scenario_is_sane() {
        let sc = Scenario::default_with(vec![SimServer::new(100.0)], 50);
        assert_eq!(sc.requests, 50);
        assert!(sc.clients > 0);
        assert!(sc.max_attempts >= 1);
        assert_eq!(sc.mix.entries.len(), 1);
        assert_eq!(sc.mix.entries[0].problem, "dgesv");
    }
}
