//! The discrete-event simulation engine.
//!
//! Drives the *production* agent code ([`netsolve_agent::AgentCore`]) on a
//! virtual clock against modelled servers and network links. Each request
//! lives through: arrival → agent ranking → (possibly failed) dispatch
//! attempts → FCFS service on the chosen server → completion.
//!
//! Modelling choices (documented in DESIGN.md):
//!
//! * Servers are FCFS single-processor queues. A request's service time is
//!   `complexity(n) / mflops`, optionally perturbed by log-normal noise.
//! * A server's *true workload* is `100 · jobs_in_system`, matching the
//!   `p' = p·100/(100+w)` predictor: with `w = 100·q` the predicted
//!   compute time `c/p · (1+q)` equals queue wait plus service for
//!   equal-sized jobs — exactly the approximation NetSolve's formula makes.
//! * Workload reports follow the configured interval/threshold policy and
//!   age out at the agent per its TTL (the agent's actual server-table
//!   code).
//! * A failed attempt costs the client `failure_detect_secs` to notice;
//!   a shed (Busy) is noticed at once, then the client waits out its
//!   `retry_after_ms` hint. The next try is its own event at that later
//!   instant, on the next candidate down the list; every failure feeds
//!   the same table's fault records.

use std::collections::VecDeque;

use netsolve_agent::{standard_descriptor, AgentCore, Policy};
use netsolve_core::admission::{AdmissionDecision, AdmissionPolicy};
use netsolve_core::clock::SimTime;
use netsolve_core::config::AgentConfig;
use netsolve_core::error::{NetSolveError, Result};
use netsolve_core::ids::{HostId, ServerId};
use netsolve_core::problem::{estimated_wire_bytes, RequestShape};
use netsolve_core::rng::Rng64;
use netsolve_net::NetworkView;

use crate::calendar::EventCalendar;
use crate::metrics::{CompletedRequest, SimReport};
use crate::scenario::{Arrivals, Scenario};

/// Distinct client `HostId`s the agent's network view is seeded with.
/// Million-client scenarios attribute requests round-robin to this many
/// hosts — link quality is uniform per scenario anyway, and seeding
/// `clients × servers` observations is what made huge populations
/// intractable.
const MAX_CLIENT_HOSTS: usize = 512;

/// Event kinds, ordered by time through the queue.
#[derive(Debug)]
enum Event {
    /// A client issues request `idx`.
    Arrival { idx: usize },
    /// Request currently being serviced on `server` finishes. `epoch`
    /// guards against stale events after a crash invalidated the service.
    ServiceDone { server: usize, epoch: u64 },
    /// Periodic workload self-measurement on `server`.
    WorkloadTick { server: usize },
    /// Permanent crash of `server`.
    Crash { server: usize },
    /// A client tries `job` again after a failed attempt.
    Retry { job: Box<QueuedJob> },
}

#[derive(Debug)]
struct QueuedJob {
    idx: usize,
    arrival: SimTime,
    predicted: f64,
    transfer_secs: f64,
    attempts: u32,
    candidates: Vec<(ServerId, f64)>,
    next_candidate: usize,
    shape: RequestShape,
    complexity: netsolve_core::Complexity,
}

struct ServerState {
    id: ServerId,
    mflops: f64,
    queue: VecDeque<QueuedJob>,
    busy: bool,
    crashed: bool,
    last_reported: Option<f64>,
    /// Incremented whenever in-flight service is invalidated (crash), so
    /// stale `ServiceDone` events can be recognized and dropped.
    epoch: u64,
    /// Virtual time the in-flight service began (feeds the admission
    /// policy's learned per-problem rates).
    service_started: f64,
}

/// Run a scenario to completion and return the report.
pub fn run(scenario: &Scenario) -> Result<SimReport> {
    let mut rng = Rng64::new(scenario.seed);
    let catalogue = netsolve_pdl::standard_catalogue()?;
    if scenario.mix.entries.is_empty() {
        return Err(NetSolveError::BadArguments("empty request mix".into()));
    }
    if scenario.max_attempts == 0 {
        return Err(NetSolveError::BadArguments("max_attempts must be at least 1".into()));
    }
    // Resolve each mix entry to its spec up front.
    let entry_specs: Vec<netsolve_core::ProblemSpec> = scenario
        .mix
        .entries
        .iter()
        .map(|e| {
            if e.weight <= 0.0 || e.weight.is_nan() {
                return Err(NetSolveError::BadArguments(format!(
                    "mix entry '{}' has non-positive weight",
                    e.problem
                )));
            }
            catalogue
                .iter()
                .find(|p| p.name == e.problem)
                .cloned()
                .ok_or_else(|| NetSolveError::ProblemNotFound(e.problem.clone()))
        })
        .collect::<Result<_>>()?;
    let total_weight: f64 = scenario.mix.entries.iter().map(|e| e.weight).sum();

    // --- Build the agent and register every simulated server. ---
    let agent_config = AgentConfig {
        workload: scenario.workload,
        pending_tracking: scenario.pending_tracking,
        fault: scenario.fault,
        ..AgentConfig::default()
    };
    let net_view = NetworkView::new(scenario.network.latency_secs, scenario.network.bandwidth_bps);
    let mut agent = AgentCore::new(agent_config, scenario.policy, net_view);

    let mut servers: Vec<ServerState> = Vec::with_capacity(scenario.servers.len());
    for (i, s) in scenario.servers.iter().enumerate() {
        let desc = standard_descriptor(&format!("simhost{i}"), &format!("sim{i}"), s.mflops);
        let id = agent.register_server(&desc, SimTime::ZERO)?;
        // Seed the agent's network view with this server's true link (the
        // original system measured links; we grant the agent that data).
        let (lat, bw) = scenario.network.link_for(i);
        let host = agent.registry().get(id).expect("just registered").host;
        for c in 0..scenario.clients.clamp(1, MAX_CLIENT_HOSTS) {
            let client_host = HostId(1_000_000 + c as u64);
            agent.observe_network(client_host, host, lat, bw);
            agent.observe_network(host, client_host, lat, bw);
        }
        servers.push(ServerState {
            id,
            mflops: s.mflops,
            queue: VecDeque::new(),
            busy: false,
            crashed: false,
            last_reported: None,
            epoch: 0,
            service_started: 0.0,
        });
    }

    // One AdmissionPolicy per server — the identical decision object the
    // live ServerDaemon gates with, here driven on virtual time.
    let policies: Option<Vec<AdmissionPolicy>> = scenario
        .admission
        .as_ref()
        .map(|cfg| (0..servers.len()).map(|_| AdmissionPolicy::new(cfg.clone())).collect());

    // --- Pre-draw request arrival times, mix entries and sizes. ---
    // Closed-loop arrivals cannot be pre-drawn (each chains from a
    // completion); their times here are placeholders and the mix/size
    // draws are consumed in issue order.
    let mut arrivals: Vec<(SimTime, usize, u64)> = Vec::with_capacity(scenario.requests);
    let mut t = 0.0f64;
    for i in 0..scenario.requests {
        let at = match &scenario.arrivals {
            Arrivals::Poisson { rate } => {
                t += rng.exponential(*rate);
                t
            }
            Arrivals::Batch => 0.0,
            Arrivals::Closed { .. } => 0.0,
            Arrivals::Uniform { gap } => {
                t += gap;
                t
            }
            Arrivals::Diurnal { base_rate, peak_rate, period_secs } => {
                if !(*base_rate >= 0.0 && *peak_rate >= *base_rate && *peak_rate > 0.0)
                    || *period_secs <= 0.0
                {
                    return Err(NetSolveError::BadArguments(
                        "diurnal arrivals need 0 <= base_rate <= peak_rate (peak > 0) and a positive period".into(),
                    ));
                }
                // Nonhomogeneous Poisson by thinning against the peak
                // rate: candidate gaps at the peak, accepted with
                // probability rate(t)/peak.
                loop {
                    t += rng.exponential(*peak_rate);
                    let phase = t / period_secs * std::f64::consts::TAU;
                    let rate = base_rate + (peak_rate - base_rate) * 0.5 * (1.0 - phase.cos());
                    if rng.chance(rate / peak_rate) {
                        break;
                    }
                }
                t
            }
            Arrivals::Trace(times) => {
                if times.is_empty() {
                    return Err(NetSolveError::BadArguments("empty arrival trace".into()));
                }
                if times.windows(2).any(|w| w[0] > w[1]) || times[0] < 0.0 {
                    return Err(NetSolveError::BadArguments(
                        "arrival trace must be ascending and non-negative".into(),
                    ));
                }
                // Wrap shorter traces by repeating with the trace span.
                let span = (times[times.len() - 1] - times[0]).max(1e-9);
                let lap = i / times.len();
                times[i % times.len()] + lap as f64 * span
            }
        };
        // Weighted entry choice, then a uniform size from that entry.
        let mut pick = rng.uniform(0.0, total_weight);
        let mut entry_idx = 0;
        for (i, e) in scenario.mix.entries.iter().enumerate() {
            if pick < e.weight {
                entry_idx = i;
                break;
            }
            pick -= e.weight;
            entry_idx = i;
        }
        let size = *rng
            .choose(&scenario.mix.entries[entry_idx].sizes)
            .ok_or_else(|| NetSolveError::BadArguments("mix entry has no sizes".into()))?;
        arrivals.push((SimTime::from_secs(at), entry_idx, size));
    }

    // --- Event queue: pops in (time, push-order) sequence. ---
    let mut queue: EventCalendar<Event> = EventCalendar::new();

    // Open-loop arrivals all enter the queue up front. Closed-loop
    // load seeds one request per client; every later arrival chains from
    // a completion in the main loop.
    let initial_wave = match &scenario.arrivals {
        Arrivals::Closed { .. } => scenario.clients.max(1).min(scenario.requests),
        _ => scenario.requests,
    };
    for (idx, (at, _, _)) in arrivals.iter().enumerate().take(initial_wave) {
        queue.push(at.as_secs(), Event::Arrival { idx });
    }
    let mut next_issue = initial_wave;
    // Finished requests already credited with a chained arrival, by
    // outcome (cursors into `completed` / `failed`).
    let (mut chained_ok, mut chained_err) = (0usize, 0usize);
    for (i, s) in scenario.servers.iter().enumerate() {
        queue.push(scenario.workload.report_interval_secs, Event::WorkloadTick { server: i });
        if let Some(at) = s.crash_at {
            queue.push(at, Event::Crash { server: i });
        }
    }

    let mut completed: Vec<CompletedRequest> = Vec::with_capacity(scenario.requests);
    let mut failed: Vec<CompletedRequest> = Vec::new();
    let mut pending_jobs = scenario.requests;

    let index_of = |servers: &[ServerState], id: ServerId| -> usize {
        servers.iter().position(|s| s.id == id).expect("known server")
    };

    // Remaining deadline budget (ms) for a job, `None` when the scenario
    // runs without deadlines — the exact argument shape the live daemon
    // passes `AdmissionPolicy::admit`.
    fn remaining_budget_ms(scenario: &Scenario, job: &QueuedJob, now: SimTime) -> Option<u64> {
        (scenario.deadline_secs > 0.0).then(|| {
            let left = job.arrival.as_secs() + scenario.deadline_secs - now.as_secs();
            (left.max(0.0) * 1e3) as u64
        })
    }

    // How a request that ends unanswered is recorded.
    fn failure(job: &QueuedJob, at: SimTime) -> CompletedRequest {
        CompletedRequest {
            idx: job.idx,
            problem: job.shape.problem.clone(),
            n: job.shape.n,
            arrival_secs: job.arrival.as_secs(),
            finish_secs: at.as_secs(),
            server: None,
            predicted_secs: job.predicted,
            attempts: job.attempts,
            ok: false,
        }
    }

    // After a failed try the client notices at `noticed`: it gives up
    // there if its budget is spent, or tries again `wait` seconds later.
    fn retry_or_fail(
        job: QueuedJob,
        noticed: SimTime,
        wait: f64,
        scenario: &Scenario,
        failed: &mut Vec<CompletedRequest>,
        pending: &mut usize,
        queue: &mut EventCalendar<Event>,
    ) {
        if job.attempts as usize >= scenario.max_attempts {
            failed.push(failure(&job, noticed));
            *pending -= 1;
        } else {
            queue.push(noticed.plus(wait).as_secs(), Event::Retry { job: Box::new(job) });
        }
    }

    // One try of `job` at `now` on its next candidate: it joins that
    // server's queue (starting service on an idle server), or the try
    // fails and the client retries or gives up later.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        mut job: QueuedJob,
        now: SimTime,
        scenario: &Scenario,
        agent: &mut AgentCore,
        servers: &mut [ServerState],
        policies: Option<&[AdmissionPolicy]>,
        rng: &mut Rng64,
        failed: &mut Vec<CompletedRequest>,
        pending: &mut usize,
        queue: &mut EventCalendar<Event>,
    ) {
        // Retries cycle the ranked list — matching the live client's
        // `live[retry % live.len()]` rotation, so `max_attempts` means
        // the same total-tries budget in sim and live.
        let (sid, predicted) = job.candidates[job.next_candidate % job.candidates.len()];
        job.next_candidate += 1;
        job.attempts += 1;
        let s_idx = servers.iter().position(|s| s.id == sid).expect("candidate exists");
        let sstate = &mut servers[s_idx];
        let detect = scenario.failure_detect_secs;
        // A failed try: (seconds until the client notices, seconds it then
        // waits before the next). The admission gate judges the queue
        // this request would join, exactly as the live daemon's
        // accept-time gate does; a shed is a Busy reply, noticed at once,
        // whose retry hint the client waits out.
        let failed_try = if sstate.crashed {
            Some((detect, 0.0))
        } else if let Some(AdmissionDecision::Shed { retry_after_ms, .. }) = policies.map(|p| {
            let depth = sstate.queue.len() + sstate.busy as usize;
            let flops = job.complexity.flops(job.shape.n);
            p[s_idx].admit(&job.shape.problem, flops, depth, remaining_budget_ms(scenario, &job, now))
        }) {
            Some((0.0, retry_after_ms as f64 / 1e3))
        } else if rng.chance(scenario.servers[s_idx].fail_prob) {
            Some((detect, 0.0))
        } else {
            None
        };
        if let Some((notice, wait)) = failed_try {
            agent.failure_report(sid, now);
            retry_or_fail(job, now.plus(notice), wait, scenario, failed, pending, queue);
            return;
        }
        // Success: enqueue on this server. (The agent hears about the
        // completion — clearing its pending assignment and fault state —
        // when service finishes, like a live CompletionReport.)
        if job.attempts == 1 {
            job.predicted = predicted;
        }
        sstate.queue.push_back(job);
        if !sstate.busy {
            begin_service(s_idx, now, scenario, servers, policies, rng, failed, pending, queue);
        }
    }

    // Begin servicing the head of a server's queue, scheduling its
    // completion.
    #[allow(clippy::too_many_arguments)]
    fn begin_service(
        s_idx: usize,
        now: SimTime,
        scenario: &Scenario,
        servers: &mut [ServerState],
        policies: Option<&[AdmissionPolicy]>,
        rng: &mut Rng64,
        failed: &mut Vec<CompletedRequest>,
        pending: &mut usize,
        queue: &mut EventCalendar<Event>,
    ) {
        let sstate = &mut servers[s_idx];
        if sstate.busy || sstate.crashed {
            return;
        }
        // Budgets that expired *while queued* fail before any service
        // slot is consumed — the mirror of the live gate's in-queue
        // deadline check, which makes no second admission decision.
        if policies.is_some() && scenario.deadline_secs > 0.0 {
            while let Some(head) = sstate.queue.front() {
                if now.as_secs() < head.arrival.as_secs() + scenario.deadline_secs {
                    break;
                }
                let job = sstate.queue.pop_front().expect("non-empty head");
                failed.push(failure(&job, now));
                *pending -= 1;
            }
        }
        if sstate.queue.is_empty() {
            return;
        }
        sstate.busy = true;
        sstate.service_started = now.as_secs();
        let job = sstate.queue.front().expect("non-empty");
        let base = job.complexity.seconds_at(job.shape.n, sstate.mflops);
        // External background load steals cycles exactly as the predictor's
        // p' = p·100/(100+w) model assumes.
        let external = scenario.servers[s_idx].external_load(now.as_secs());
        let loaded = base * (100.0 + external) / 100.0;
        let noise = scenario.servers[s_idx].service_noise_sigma;
        let service = if scenario.servers[s_idx].service_exponential {
            // Exponential with mean `loaded`: the M/M/c service process,
            // so runs with Poisson arrivals can be checked against
            // Erlang-C closed forms.
            rng.exponential(1.0 / loaded.max(1e-12))
        } else if noise > 0.0 {
            loaded * rng.log_normal(0.0, noise)
        } else {
            loaded
        };
        let epoch = sstate.epoch;
        queue.push(now.plus(service.max(0.0)).as_secs(), Event::ServiceDone { server: s_idx, epoch });
    }

    while let Some((at, event)) = queue.pop() {
        let now = SimTime::from_secs(at);
        match event {
            Event::Arrival { idx } => {
                // `now` IS the arrival time: for open-loop modes it is the
                // pre-drawn instant, for closed-loop the chained issue time.
                let (_, entry_idx, n) = arrivals[idx];
                let spec = &entry_specs[entry_idx];
                let client_host = HostId(
                    1_000_000 + (idx % scenario.clients.max(1) % MAX_CLIENT_HOSTS) as u64,
                );
                let shape = RequestShape {
                    problem: spec.name.clone(),
                    n,
                    bytes_in: estimated_wire_bytes(&spec.inputs, n),
                    bytes_out: estimated_wire_bytes(&spec.outputs, n),
                };
                let ranked = match agent.rank_request(&shape, client_host, now) {
                    Ok(r) => r,
                    Err(_) => {
                        failed.push(CompletedRequest {
                            idx,
                            problem: shape.problem.clone(),
                            n,
                            arrival_secs: now.as_secs(),
                            finish_secs: now.as_secs(),
                            server: None,
                            predicted_secs: 0.0,
                            attempts: 0,
                            ok: false,
                        });
                        pending_jobs -= 1;
                        continue;
                    }
                };
                let candidates: Vec<(ServerId, f64)> = ranked
                    .iter()
                    .map(|r| (r.server.server_id, r.predicted_secs))
                    .collect();
                // Transfer time from the true network for the first
                // candidate's link (refined per attempt would be more
                // precise; first-candidate is what the prediction used).
                let first_idx = index_of(&servers, candidates[0].0);
                let (lat, bw) = scenario.network.link_for(first_idx);
                let transfer = 2.0 * lat + (shape.bytes_in + shape.bytes_out) as f64 / bw;
                let job = QueuedJob {
                    idx,
                    arrival: now,
                    predicted: candidates[0].1,
                    transfer_secs: transfer,
                    attempts: 0,
                    candidates,
                    next_candidate: 0,
                    shape,
                    complexity: spec.complexity,
                };
                dispatch(
                    job,
                    now,
                    scenario,
                    &mut agent,
                    &mut servers,
                    policies.as_deref(),
                    &mut rng,
                    &mut failed,
                    &mut pending_jobs,
                    &mut queue,
                );
            }
            Event::Retry { job } => dispatch(
                *job,
                now,
                scenario,
                &mut agent,
                &mut servers,
                policies.as_deref(),
                &mut rng,
                &mut failed,
                &mut pending_jobs,
                &mut queue,
            ),
            Event::ServiceDone { server, epoch } => {
                if servers[server].epoch != epoch || servers[server].crashed {
                    continue; // stale event from before a crash
                }
                let job = {
                    let sstate = &mut servers[server];
                    sstate.busy = false;
                    sstate.queue.pop_front().expect("job was being serviced")
                };
                agent.success_report(servers[server].id);
                // Observed service time feeds the policy's learned
                // per-problem rate, like the live core after every solve.
                if let Some(policies) = &policies {
                    policies[server].observe_service(
                        &job.shape.problem,
                        job.complexity.flops(job.shape.n),
                        now.as_secs() - servers[server].service_started,
                    );
                }
                completed.push(CompletedRequest {
                    idx: job.idx,
                    problem: job.shape.problem.clone(),
                    n: job.shape.n,
                    arrival_secs: job.arrival.as_secs(),
                    finish_secs: now.as_secs() + job.transfer_secs,
                    server: Some(servers[server].id),
                    predicted_secs: job.predicted,
                    attempts: job.attempts,
                    ok: true,
                });
                pending_jobs -= 1;
                begin_service(
                    server,
                    now,
                    scenario,
                    &mut servers,
                    policies.as_deref(),
                    &mut rng,
                    &mut failed,
                    &mut pending_jobs,
                    &mut queue,
                );
            }
            Event::WorkloadTick { server } => {
                if pending_jobs > 0 {
                    // Servers report their *external* load (the uptime-style
                    // sensor); the agent already knows about the jobs it
                    // routed itself via pending-assignment tracking.
                    let (should, workload, sid, crashed) = {
                        let sstate = &servers[server];
                        let w = scenario.servers[server].external_load(now.as_secs());
                        (
                            scenario.workload.should_report(sstate.last_reported, w),
                            w,
                            sstate.id,
                            sstate.crashed,
                        )
                    };
                    if should && !crashed {
                        agent.workload_report(sid, workload, now);
                        servers[server].last_reported = Some(workload);
                    }
                    queue.push(
                        now.plus(scenario.workload.report_interval_secs).as_secs(),
                        Event::WorkloadTick { server },
                    );
                }
            }
            Event::Crash { server } => {
                servers[server].crashed = true;
                servers[server].busy = false;
                servers[server].epoch += 1; // invalidate in-flight ServiceDone
                // Jobs stranded in its queue failed their try: their
                // clients notice after the detection time.
                let stranded: Vec<QueuedJob> = servers[server].queue.drain(..).collect();
                for job in stranded {
                    agent.failure_report(servers[server].id, now);
                    let noticed = now.plus(scenario.failure_detect_secs);
                    retry_or_fail(
                        job,
                        noticed,
                        0.0,
                        scenario,
                        &mut failed,
                        &mut pending_jobs,
                        &mut queue,
                    );
                }
            }
        }
        // Closed-loop chaining: every finished request (success or
        // failure) frees its client, which thinks and then issues the
        // next request.
        if let Arrivals::Closed { think_secs } = &scenario.arrivals {
            while (chained_ok < completed.len() || chained_err < failed.len())
                && next_issue < scenario.requests
            {
                // The client is only freed once the answer (or final
                // error) reaches it — `finish_secs`, not the server-side
                // completion instant.
                let freed_at = if chained_ok < completed.len() {
                    chained_ok += 1;
                    completed[chained_ok - 1].finish_secs
                } else {
                    chained_err += 1;
                    failed[chained_err - 1].finish_secs
                };
                let think = if *think_secs > 0.0 {
                    rng.exponential(1.0 / *think_secs)
                } else {
                    0.0
                };
                queue.push(
                    freed_at.max(now.as_secs()) + think,
                    Event::Arrival { idx: next_issue },
                );
                next_issue += 1;
            }
        }
        if pending_jobs == 0 {
            // Drain remaining ticks without work: simulation is over.
            break;
        }
    }

    completed.extend(failed);
    completed.sort_by_key(|r| r.idx);
    let mut report = SimReport::new(scenario.policy, completed, servers.len());
    if let Some(policies) = &policies {
        report = report.with_admission_stats(policies.iter().map(AdmissionPolicy::stats).sum());
    }
    Ok(report)
}

/// Convenience: run the same scenario under several policies.
pub fn run_policies(scenario: &Scenario, policies: &[Policy]) -> Result<Vec<SimReport>> {
    policies
        .iter()
        .map(|&p| {
            let mut sc = scenario.clone();
            sc.policy = p;
            run(&sc)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{RequestMix, SimServer};

    fn base(servers: Vec<SimServer>, requests: usize) -> Scenario {
        Scenario::default_with(servers, requests)
    }

    #[test]
    fn all_requests_complete_on_reliable_pool() {
        let report = run(&base(vec![SimServer::new(100.0), SimServer::new(200.0)], 100)).unwrap();
        assert_eq!(report.total(), 100);
        assert_eq!(report.succeeded(), 100);
        assert!(report.makespan_secs() > 0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let sc = base(vec![SimServer::new(100.0), SimServer::new(50.0)], 80);
        let a = run(&sc).unwrap();
        let b = run(&sc).unwrap();
        assert_eq!(a.makespan_secs(), b.makespan_secs());
        assert_eq!(a.per_server_counts(), b.per_server_counts());
    }

    #[test]
    fn different_seeds_differ() {
        let sc1 = base(vec![SimServer::new(100.0), SimServer::new(50.0)], 80);
        let mut sc2 = sc1.clone();
        sc2.seed = 777;
        let a = run(&sc1).unwrap();
        let b = run(&sc2).unwrap();
        // arrival draws differ, so makespans almost surely differ
        assert_ne!(a.makespan_secs(), b.makespan_secs());
    }

    #[test]
    fn mct_beats_random_on_heterogeneous_pool() {
        let servers = vec![
            SimServer::new(400.0),
            SimServer::new(200.0),
            SimServer::new(50.0),
            SimServer::new(20.0),
        ];
        let mut sc = base(servers, 200);
        sc.arrivals = Arrivals::Poisson { rate: 4.0 };
        let reports = run_policies(&sc, &[Policy::MinimumCompletionTime, Policy::Random]).unwrap();
        let mct = &reports[0];
        let random = &reports[1];
        assert!(
            mct.mean_turnaround_secs() < random.mean_turnaround_secs(),
            "MCT {} vs random {}",
            mct.mean_turnaround_secs(),
            random.mean_turnaround_secs()
        );
    }

    #[test]
    fn mct_sends_more_work_to_faster_servers() {
        let servers = vec![SimServer::new(500.0), SimServer::new(50.0)];
        let mut sc = base(servers, 150);
        sc.arrivals = Arrivals::Poisson { rate: 3.0 };
        let report = run(&sc).unwrap();
        let counts = report.per_server_counts();
        assert!(
            counts[0] > counts[1] * 2,
            "fast server got {} vs slow {}",
            counts[0],
            counts[1]
        );
    }

    #[test]
    fn failure_injection_with_failover_still_succeeds() {
        let servers = vec![
            SimServer::new(100.0).with_fail_prob(0.4),
            SimServer::new(100.0),
            SimServer::new(100.0),
        ];
        let report = run(&base(servers, 100)).unwrap();
        assert_eq!(report.succeeded(), 100, "failover should rescue everything");
        assert!(report.mean_attempts() > 1.0, "some retries must have happened");
    }

    #[test]
    fn a_failed_try_costs_the_detection_time() {
        // The fast first choice always fails; the second candidate serves.
        let turnaround = |detect: f64| {
            let servers = vec![SimServer::new(1000.0).with_fail_prob(1.0), SimServer::new(100.0)];
            let mut sc = base(servers, 1);
            sc.failure_detect_secs = detect;
            let report = run(&sc).unwrap();
            let r = &report.requests()[0];
            assert!(r.ok && r.attempts == 2, "{r:?}");
            r.turnaround_secs()
        };
        let free = turnaround(0.0);
        for detect in [1.0, 10.0] {
            let grown = turnaround(detect) - free;
            assert!((grown - detect).abs() < 1e-9, "detect {detect} s grew turnaround {grown} s");
        }
    }

    #[test]
    fn max_attempts_must_allow_a_try() {
        let mut sc = base(vec![SimServer::new(100.0)], 1);
        sc.max_attempts = 0;
        assert!(run(&sc).is_err());
    }

    #[test]
    fn no_failover_loses_requests_under_failures() {
        let servers = vec![
            SimServer::new(100.0).with_fail_prob(0.5),
            SimServer::new(100.0).with_fail_prob(0.5),
        ];
        let mut sc = base(servers, 200);
        sc.max_attempts = 1;
        let report = run(&sc).unwrap();
        assert!(report.succeeded() < 200, "with one attempt some must fail");
        assert!(report.succeeded() > 0, "but not everything (downed servers recover)");
    }

    #[test]
    fn crashed_server_stops_taking_work() {
        let servers = vec![
            SimServer::new(1000.0).with_crash_at(0.5),
            SimServer::new(10.0),
        ];
        let mut sc = base(servers, 120);
        sc.arrivals = Arrivals::Poisson { rate: 1.0 };
        let report = run(&sc).unwrap();
        let counts = report.per_server_counts();
        // After the crash everything lands on server 1.
        assert!(counts[1] > 0);
        assert_eq!(report.succeeded(), report.total());
    }

    #[test]
    fn prediction_error_small_with_fresh_workload_and_no_noise() {
        let servers = vec![SimServer::new(100.0), SimServer::new(100.0)];
        let mut sc = base(servers, 60);
        sc.workload.report_interval_secs = 0.5; // very fresh info
        sc.arrivals = Arrivals::Poisson { rate: 0.2 }; // light load: no queueing surprises
        let report = run(&sc).unwrap();
        let err = report.median_relative_prediction_error();
        assert!(err < 0.30, "median relative error {err}");
    }

    #[test]
    fn batch_arrivals_spread_over_pool() {
        let servers = vec![SimServer::new(100.0); 4];
        let mut sc = base(servers, 40);
        sc.arrivals = Arrivals::Batch;
        let report = run(&sc).unwrap();
        let counts = report.per_server_counts();
        assert!(counts.iter().all(|&c| c > 0), "batch must spread: {counts:?}");
    }

    #[test]
    fn background_load_slows_service_and_reports_reveal_it() {
        // One server is hammered by outside users the whole run; with fresh
        // reports the scheduler avoids it.
        let loaded = SimServer::new(100.0).with_background(0.0, 1e9, 400.0);
        let idle = SimServer::new(100.0);
        let mut sc = base(vec![loaded, idle], 80);
        sc.workload.report_interval_secs = 0.5;
        sc.workload.report_threshold = 0.0;
        sc.arrivals = Arrivals::Poisson { rate: 1.0 };
        sc.network = crate::scenario::SimNetwork::uniform(1e-4, 100e6);
        let report = run(&sc).unwrap();
        let counts = report.per_server_counts();
        assert!(
            counts[1] > counts[0] * 3,
            "idle server should dominate: {counts:?}"
        );
    }

    #[test]
    fn blind_agent_cannot_avoid_background_load() {
        // Same pool, but reports effectively never arrive: the agent sees
        // two equal machines and splits work, paying the 5x slowdown half
        // the time.
        let loaded = SimServer::new(100.0).with_background(0.0, 1e9, 400.0);
        let idle = SimServer::new(100.0);
        let mk = |interval: f64| {
            let mut sc = base(vec![loaded.clone(), idle.clone()], 80);
            sc.workload.report_interval_secs = interval;
            sc.workload.ttl_secs = interval * 10.0;
            sc.arrivals = Arrivals::Poisson { rate: 1.0 };
            // Fast network so compute (and thus scheduling quality)
            // dominates turnaround.
            sc.network = crate::scenario::SimNetwork::uniform(1e-4, 100e6);
            sc
        };
        let fresh = run(&mk(0.5)).unwrap();
        // With pending tracking the agent self-corrects even without
        // reports (queues surface as slow completions), so to reproduce
        // the naive report-only broker we disable it for the blind run.
        let mut blind_sc = mk(1e6);
        blind_sc.workload.ttl_secs = 1e7;
        blind_sc.pending_tracking = false;
        let blind = run(&blind_sc).unwrap();
        assert!(
            fresh.mean_turnaround_secs() < blind.mean_turnaround_secs() * 0.8,
            "fresh {} vs naive blind {}",
            fresh.mean_turnaround_secs(),
            blind.mean_turnaround_secs()
        );
    }

    #[test]
    fn crash_while_busy_does_not_panic() {
        // Regression: a ServiceDone event scheduled before a crash must be
        // recognized as stale, not pop an empty queue.
        let servers = vec![
            SimServer::new(50.0).with_crash_at(5.0),
            SimServer::new(50.0),
        ];
        let mut sc = base(servers, 100);
        sc.arrivals = Arrivals::Poisson { rate: 5.0 }; // deep queues at crash time
        sc.mix = RequestMix::dgesv(&[400, 500]);
        let report = run(&sc).unwrap();
        assert_eq!(report.total(), 100);
        assert_eq!(report.succeeded(), 100, "failover rescues the stranded jobs");
    }

    #[test]
    fn external_load_windows_compose() {
        let s = SimServer::new(10.0)
            .with_background(0.0, 10.0, 100.0)
            .with_background(5.0, 15.0, 50.0);
        assert_eq!(s.external_load(2.0), 100.0);
        assert_eq!(s.external_load(7.0), 150.0);
        assert_eq!(s.external_load(12.0), 50.0);
        assert_eq!(s.external_load(20.0), 0.0);
    }

    #[test]
    fn mixed_workloads_blend_problems() {
        let mut sc = base(vec![SimServer::new(200.0), SimServer::new(200.0)], 300);
        sc.mix = RequestMix::mixed(&[
            ("dgesv", &[200], 1.0),
            ("fft", &[4096], 3.0),
        ]);
        let report = run(&sc).unwrap();
        assert_eq!(report.succeeded(), 300);
        let dgesv = report.requests().iter().filter(|r| r.problem == "dgesv").count();
        let fft = report.requests().iter().filter(|r| r.problem == "fft").count();
        assert_eq!(dgesv + fft, 300);
        // 1:3 weighting within loose tolerance
        assert!(fft > dgesv, "fft {fft} vs dgesv {dgesv}");
        assert!(dgesv > 30, "dgesv share too small: {dgesv}");
    }

    #[test]
    fn mix_validation() {
        let mut sc = base(vec![SimServer::new(100.0)], 5);
        sc.mix = RequestMix { entries: vec![] };
        assert!(run(&sc).is_err());
        let mut sc = base(vec![SimServer::new(100.0)], 5);
        sc.mix = RequestMix::mixed(&[("dgesv", &[100], 0.0)]);
        assert!(run(&sc).is_err());
    }

    #[test]
    fn trace_arrivals_replayed_and_validated() {
        let mut sc = base(vec![SimServer::new(200.0)], 4);
        sc.arrivals = Arrivals::Trace(vec![0.0, 1.0, 2.5, 10.0]);
        let report = run(&sc).unwrap();
        let mut arrivals: Vec<f64> = report.requests().iter().map(|r| r.arrival_secs).collect();
        arrivals.sort_by(f64::total_cmp);
        assert_eq!(arrivals, vec![0.0, 1.0, 2.5, 10.0]);

        // Wrapping: 6 requests from a 3-point trace spanning 2 s.
        let mut sc = base(vec![SimServer::new(200.0)], 6);
        sc.arrivals = Arrivals::Trace(vec![0.0, 1.0, 2.0]);
        let report = run(&sc).unwrap();
        assert_eq!(report.total(), 6);
        let max_arrival = report
            .requests()
            .iter()
            .map(|r| r.arrival_secs)
            .fold(0.0f64, f64::max);
        assert!((max_arrival - 4.0).abs() < 1e-9, "{max_arrival}");

        // Validation.
        let mut sc = base(vec![SimServer::new(200.0)], 2);
        sc.arrivals = Arrivals::Trace(vec![]);
        assert!(run(&sc).is_err());
        let mut sc = base(vec![SimServer::new(200.0)], 2);
        sc.arrivals = Arrivals::Trace(vec![2.0, 1.0]);
        assert!(run(&sc).is_err());
    }

    #[test]
    fn unknown_problem_rejected() {
        let mut sc = base(vec![SimServer::new(10.0)], 5);
        sc.mix = RequestMix::single("nope", &[10]);
        assert!(run(&sc).is_err());
    }

    #[test]
    fn admission_sheds_under_overload_and_protects_latency() {
        use netsolve_core::admission::AdmissionConfig;
        // One slow server driven at ~8x its capacity. Without admission
        // the queue grows without bound and p99 turnaround explodes;
        // with a depth-4 bound most requests shed (failing, since
        // max_attempts = 1) but the admitted ones stay fast.
        let mut sc = base(vec![SimServer::new(50.0)], 400);
        sc.arrivals = Arrivals::Poisson { rate: 20.0 };
        sc.mix = RequestMix::dgesv(&[300]);
        sc.max_attempts = 1;
        let baseline = run(&sc).unwrap();
        assert!(baseline.admission().is_none());
        let mut guarded_sc = sc.clone();
        guarded_sc.admission = Some(AdmissionConfig::with_max_queue(4));
        let guarded = run(&guarded_sc).unwrap();
        let stats = guarded.admission().expect("admission stats present");
        assert!(stats.sheds_queue_full > 0, "overload must shed: {stats:?}");
        assert!(stats.decisions >= stats.sheds(), "{stats:?}");
        assert!(stats.shed_rate() > 0.2 && stats.shed_rate() < 1.0, "{stats:?}");
        assert_eq!(guarded.total(), 400, "every request accounted for");
        assert!(guarded.succeeded() < guarded.total(), "sheds fail at max_attempts=1");
        assert!(guarded.succeeded() > 0, "admitted requests still complete");
        let (gp99, bp99) = (guarded.turnaround_percentile(99.0), baseline.turnaround_percentile(99.0));
        assert!(gp99 * 2.0 < bp99, "admission must protect p99: {gp99} vs {bp99}");
    }

    #[test]
    fn closed_loop_never_exceeds_client_population_in_flight() {
        let mut sc = base(vec![SimServer::new(200.0)], 60);
        sc.clients = 3;
        sc.arrivals = Arrivals::Closed { think_secs: 0.05 };
        let report = run(&sc).unwrap();
        assert_eq!(report.succeeded(), 60);
        // Sweep: completions free clients before (strictly later) chained
        // arrivals, so concurrency never exceeds the population.
        let mut edges: Vec<(f64, i32)> = report
            .requests()
            .iter()
            .flat_map(|r| [(r.arrival_secs, 1), (r.finish_secs, -1)])
            .collect();
        edges.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut in_flight = 0;
        for (_, d) in edges {
            in_flight += d;
            assert!(in_flight <= 3, "closed loop exceeded client population");
        }
        // Arrivals actually spread out (not a batch): last arrival well
        // after the first finish.
        let first_finish = report.requests().iter().map(|r| r.finish_secs).fold(f64::INFINITY, f64::min);
        let last_arrival = report.requests().iter().map(|r| r.arrival_secs).fold(0.0, f64::max);
        assert!(last_arrival > first_finish, "arrivals must chain from completions");
    }

    #[test]
    fn diurnal_arrivals_cluster_at_the_peak() {
        let mut sc = base(vec![SimServer::new(500.0)], 400);
        sc.arrivals = Arrivals::Diurnal { base_rate: 0.5, peak_rate: 10.0, period_secs: 100.0 };
        let report = run(&sc).unwrap();
        assert_eq!(report.total(), 400);
        // rate(t) troughs at phase 0 and peaks at phase 0.5: the middle
        // half of each cycle should hold the bulk of arrivals.
        let (mut peak, mut trough) = (0, 0);
        for r in report.requests() {
            let phase = (r.arrival_secs / 100.0).fract();
            if (0.25..0.75).contains(&phase) {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        assert!(peak > trough * 2, "peak {peak} vs trough {trough}");

        // Validation.
        let mut bad = base(vec![SimServer::new(100.0)], 5);
        bad.arrivals = Arrivals::Diurnal { base_rate: 5.0, peak_rate: 1.0, period_secs: 10.0 };
        assert!(run(&bad).is_err());
        bad.arrivals = Arrivals::Diurnal { base_rate: 0.0, peak_rate: 1.0, period_secs: 0.0 };
        assert!(run(&bad).is_err());
    }

    #[test]
    fn heavy_tail_mix_is_mostly_small_with_a_real_tail() {
        let mut sc = base(vec![SimServer::new(2000.0)], 300);
        sc.mix = RequestMix::heavy_tail("dgesv", &[100, 200, 400, 800], 2.0);
        let report = run(&sc).unwrap();
        let count = |n: u64| report.requests().iter().filter(|r| r.n == n).count();
        assert!(count(100) > count(800) * 5, "small {} vs huge {}", count(100), count(800));
        assert!(count(800) > 0, "the tail must actually occur");
        assert_eq!(count(100) + count(200) + count(400) + count(800), 300);
    }

    #[test]
    fn correlated_crash_takes_out_the_fraction_and_failover_rescues() {
        let mut sc = base(vec![SimServer::new(100.0); 4], 120).correlated_crash(2.0, 0.5);
        assert_eq!(sc.servers[0].crash_at, Some(2.0));
        assert_eq!(sc.servers[1].crash_at, Some(2.0));
        assert_eq!(sc.servers[2].crash_at, None);
        sc.arrivals = Arrivals::Poisson { rate: 3.0 };
        let report = run(&sc).unwrap();
        assert_eq!(report.succeeded(), 120, "survivors absorb the dead half's load");
        let counts = report.per_server_counts();
        assert!(counts[2] + counts[3] > counts[0] + counts[1], "{counts:?}");
    }

    #[test]
    fn budgets_expired_in_queue_shed_before_service() {
        use netsolve_core::admission::AdmissionConfig;
        // A batch slams one slow server; with a 1 s budget only the
        // requests served early can finish — everyone else's budget dies
        // in the queue and must fail there, not burn a service slot.
        let mut sc = base(vec![SimServer::new(50.0)], 20);
        sc.arrivals = Arrivals::Batch;
        sc.mix = RequestMix::dgesv(&[300]);
        sc.max_attempts = 1;
        sc.deadline_secs = 1.0;
        sc.admission = Some(AdmissionConfig::with_max_queue(1_000)); // depth never sheds
        let report = run(&sc).unwrap();
        let stats = report.admission().expect("stats");
        // One decision per try, as live: a budget that dies in the queue
        // is not a second decision or a shed, the job just fails.
        assert_eq!((stats.decisions, stats.sheds()), (20, 0), "{stats:?}");
        assert!(report.succeeded() >= 1, "head of the queue meets its budget");
        assert!(report.succeeded() < 20, "the tail cannot");
        assert_eq!(report.total(), 20);
    }

    /// Erlang-C: probability an arrival waits in an M/M/c queue offered
    /// `a = λ·s` erlangs. Standard closed form, stable for small `c`.
    fn erlang_c(c: usize, a: f64) -> f64 {
        assert!(a < c as f64, "unstable queue: a={a} c={c}");
        let mut term = 1.0; // a^k / k!, starting at k = 0
        let mut sum = 0.0;
        for k in 0..c {
            sum += term;
            term *= a / (k as f64 + 1.0);
        }
        // term is now a^c / c!
        let wait_term = term * c as f64 / (c as f64 - a);
        wait_term / (sum + wait_term)
    }

    /// Mean queue wait `Wq` for M/M/c: Erlang-C × s / (c·(1−ρ)).
    fn mmc_wait_secs(c: usize, lambda: f64, service_secs: f64) -> f64 {
        let a = lambda * service_secs;
        erlang_c(c, a) * service_secs / (c as f64 * (1.0 - a / c as f64))
    }

    /// A queueing-theory scenario: `c` equal servers with exponential
    /// service, Poisson arrivals at utilization `rho`, one fixed problem
    /// size so the mean service time is a single known constant, and an
    /// effectively-free network so turnaround = wait + service. Returns
    /// `(scenario, service_secs, lambda)`.
    fn mm_scenario(c: usize, rho: f64, requests: usize) -> (Scenario, f64, f64) {
        let mflops = 100.0;
        let n = 400u64;
        let catalogue = netsolve_pdl::standard_catalogue().expect("catalogue");
        let spec = catalogue.iter().find(|p| p.name == "dgesv").expect("dgesv");
        let service_secs = spec.complexity.seconds_at(n, mflops);
        let lambda = rho * c as f64 / service_secs;
        let servers =
            (0..c).map(|_| SimServer::new(mflops).with_exponential_service()).collect();
        let mut sc = base(servers, requests);
        sc.mix = RequestMix::dgesv(&[n]);
        sc.arrivals = Arrivals::Poisson { rate: lambda };
        sc.network = crate::scenario::SimNetwork::uniform(1e-9, 1e15);
        sc.max_attempts = 1;
        (sc, service_secs, lambda)
    }

    /// ROADMAP §5: cross-check the simulator against queueing theory.
    /// One server, Poisson arrivals, exponential service at ρ = 0.6 is
    /// exactly M/M/1, where Wq = ρ·s/(1−ρ) in closed form — the
    /// simulator's measured mean wait and (via Little's law on measured
    /// throughput) mean queue depth must land on it.
    #[test]
    fn mm1_wait_and_depth_match_analytic() {
        let (sc, s, lambda) = mm_scenario(1, 0.6, 20_000);
        let report = run(&sc).unwrap();
        assert_eq!(report.succeeded(), 20_000);
        let wq_expected = mmc_wait_secs(1, lambda, s);
        // Closed forms agree: ρ·s/(1−ρ) for c = 1.
        assert!((wq_expected - 0.6 * s / 0.4).abs() < 1e-9);
        let wq_measured = report.mean_turnaround_secs() - s;
        let err = (wq_measured - wq_expected).abs() / wq_expected;
        assert!(
            err < 0.15,
            "M/M/1 wait off: measured {wq_measured:.4}s vs Erlang {wq_expected:.4}s ({err:.1}%)"
        );
        // Mean queue depth via Little's law on *measured* throughput.
        let throughput = report.succeeded() as f64 / report.makespan_secs();
        let lq_measured = throughput * wq_measured;
        let lq_expected = lambda * wq_expected;
        let lq_err = (lq_measured - lq_expected).abs() / lq_expected;
        assert!(
            lq_err < 0.20,
            "M/M/1 depth off: measured {lq_measured:.3} vs analytic {lq_expected:.3}"
        );
    }

    /// The multi-server cross-check: three equal servers at ρ = 0.7 with
    /// the agent's MCT dispatch approximates join-the-shortest-queue,
    /// which sits close to the M/M/c shared queue (it cannot reassign
    /// already-queued work, so it waits a little longer). Assert the
    /// measured wait brackets Erlang-C: no worse than 60% above it and
    /// never below it by more than the sampling noise floor.
    #[test]
    fn mmc_wait_tracks_erlang_c() {
        let c = 3;
        let (sc, s, lambda) = mm_scenario(c, 0.7, 20_000);
        let report = run(&sc).unwrap();
        assert_eq!(report.succeeded(), 20_000);
        let wq_erlang = mmc_wait_secs(c, lambda, s);
        let wq_measured = report.mean_turnaround_secs() - s;
        assert!(
            wq_measured > wq_erlang * 0.85,
            "JSQ-like dispatch cannot beat the shared queue: \
             measured {wq_measured:.4}s vs Erlang {wq_erlang:.4}s"
        );
        assert!(
            wq_measured < wq_erlang * 1.6,
            "dispatch should stay near M/M/c: \
             measured {wq_measured:.4}s vs Erlang {wq_erlang:.4}s"
        );
    }

    #[test]
    fn warm_history_early_rejects_unmeetable_deadlines() {
        use netsolve_core::admission::AdmissionConfig;
        let cfg = AdmissionConfig::with_max_queue(1_000);
        // Service ~0.36 s; a 0.5 s budget is unmeetable whenever anyone
        // is already queued, but only once the policy has seen a solve.
        let mut sc = base(vec![SimServer::new(50.0)], 120);
        sc.arrivals = Arrivals::Poisson { rate: 6.0 };
        sc.mix = RequestMix::dgesv(&[300]);
        sc.max_attempts = 1;
        sc.deadline_secs = 0.5;
        sc.admission = Some(cfg);
        let report = run(&sc).unwrap();
        let stats = report.admission().expect("stats");
        assert!(
            stats.sheds_deadline_unmeetable > 0,
            "warm history must early-reject: {stats:?}"
        );
    }
}
