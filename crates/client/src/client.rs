//! The NetSolve client library: `netsl`-style calls routed through an
//! agent, with automatic failover down the ranked candidate list.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use netsolve_core::config::RetryPolicy;
use netsolve_core::data::DataObject;
use netsolve_core::error::{NetSolveError, Result};
use netsolve_core::problem::{ProblemSpec, RequestShape};
use netsolve_core::rng::{splitmix64, Rng64};
use netsolve_net::{call, Connection, Transport};
use netsolve_obs::{MetricsRegistry, SpanContext, Tracer};
use netsolve_proto::{Candidate, Message, QueryShape};
use parking_lot::Mutex;

/// Everything measured about one completed call, for experiments and
/// diagnostics (the paper's predictor-accuracy analysis needs
/// predicted-vs-actual).
#[derive(Debug, Clone)]
pub struct CallReport {
    /// The request id this call travelled under (correlates with trace
    /// events and server-side logs).
    pub request_id: u64,
    /// The 128-bit trace identity the call's spans were recorded under
    /// (propagated to agent and servers; feed it to `netsl-trace`).
    pub trace_id: u128,
    /// The server that finally satisfied the request.
    pub server_id: u64,
    /// Its address.
    pub server_address: String,
    /// The agent's predicted completion seconds for that server.
    pub predicted_secs: f64,
    /// Observed end-to-end seconds (marshal + transfer + compute).
    pub total_secs: f64,
    /// Server-reported compute seconds.
    pub compute_secs: f64,
    /// How many servers were tried (1 = first choice worked).
    pub attempts: u32,
}

/// A NetSolve client bound to one or more agents.
///
/// With several agents configured the client ranks them once (by `Ping`
/// round-trip, unreachable last) and sticks to the best one; any agent
/// request that fails at the transport level (refused, timeout, reset)
/// retries once against the same agent and then fails over to the next,
/// under the same backoff schedule used for server failover. The agent
/// that answers becomes the preferred one for subsequent requests, so a
/// mid-session agent crash costs at most one retried request.
pub struct NetSolveClient {
    transport: Arc<dyn Transport>,
    agents: Mutex<AgentRoster>,
    client_host: u64,
    retry: RetryPolicy,
    agent_conn: Mutex<Option<Box<dyn Connection>>>,
    specs: Mutex<HashMap<String, ProblemSpec>>,
    next_request: AtomicU64,
    jitter: Mutex<Rng64>,
    metrics: Arc<MetricsRegistry>,
    tracer: Arc<Tracer>,
}

/// The client's view of its agents: the address list in preference order
/// (after the lazy rank pass) and which entry is currently preferred.
struct AgentRoster {
    addresses: Vec<String>,
    ranked: bool,
    current: usize,
}

/// Seed for a client's request-id counter: a unique 32-bit lane in the
/// high bits, call counter in the low bits. The lane XORs a process-wide
/// instance counter with per-process startup entropy — XOR with a fixed
/// value is a bijection, so two clients in one process can never share a
/// lane, and the entropy decorrelates lanes across processes. (The
/// client-host id is deliberately *not* folded in per client: a
/// host-dependent XOR would break the in-process uniqueness guarantee.)
fn request_id_seed() -> u64 {
    static INSTANCES: AtomicU64 = AtomicU64::new(0);
    static PROCESS_ENTROPY: OnceLock<u64> = OnceLock::new();
    let entropy = *PROCESS_ENTROPY.get_or_init(|| {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        splitmix64(nanos ^ (u64::from(std::process::id()) << 32))
    });
    let instance = INSTANCES.fetch_add(1, Ordering::Relaxed);
    let lane = (instance as u32) ^ (entropy as u32);
    (u64::from(lane) << 32) | 1
}

impl NetSolveClient {
    /// Connect a client to the agent at `agent_address`.
    pub fn new(transport: Arc<dyn Transport>, agent_address: &str) -> Self {
        Self::new_multi(transport, &[agent_address.to_string()])
    }

    /// Connect a client to a federated domain: any of the `agents` can
    /// answer queries, and the client fails over between them. Panics on
    /// an empty list — a client needs at least one agent.
    pub fn new_multi(transport: Arc<dyn Transport>, agents: &[String]) -> Self {
        assert!(!agents.is_empty(), "a client needs at least one agent address");
        NetSolveClient {
            transport,
            agents: Mutex::new(AgentRoster {
                addresses: agents.to_vec(),
                ranked: false,
                current: 0,
            }),
            client_host: 0,
            retry: RetryPolicy::default(),
            agent_conn: Mutex::new(None),
            specs: Mutex::new(HashMap::new()),
            next_request: AtomicU64::new(request_id_seed()),
            jitter: Mutex::new(Rng64::new(0x6A17_7E12)),
            metrics: Arc::new(MetricsRegistry::new()),
            tracer: Arc::new(Tracer::new()),
        }
    }

    /// Reseed the backoff-jitter stream (reproducible experiments).
    pub fn with_jitter_seed(self, seed: u64) -> Self {
        *self.jitter.lock() = Rng64::new(seed);
        self
    }

    /// Set the client's host identity (used by the agent for per-pair
    /// network predictions).
    pub fn with_client_host(mut self, host: u64) -> Self {
        self.client_host = host;
        self
    }

    /// Override the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Share a metrics registry and tracer with this client (tests and
    /// experiments aggregate several clients into one registry; a shared
    /// tracer also cross-checks request-id uniqueness *across* clients).
    pub fn with_observability(mut self, metrics: Arc<MetricsRegistry>, tracer: Arc<Tracer>) -> Self {
        self.metrics = metrics;
        self.tracer = tracer;
        self
    }

    /// This client's metrics registry (`client.*` instruments).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// This client's tracer.
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.tracer)
    }

    fn agent_timeout(&self) -> Duration {
        Duration::from_secs_f64(self.retry.attempt_timeout_secs)
    }

    /// The agent currently preferred by this client (the last one that
    /// answered; the rank winner before any request has gone out).
    pub fn current_agent(&self) -> String {
        let roster = self.agents.lock();
        roster.addresses[roster.current].clone()
    }

    /// Rank the agent list once, by `Ping` round-trip time with
    /// unreachable agents last, so the first request already prefers the
    /// closest live agent. Single-agent rosters skip the probe.
    fn ensure_ranked(&self, roster: &mut AgentRoster) {
        if roster.ranked {
            return;
        }
        roster.ranked = true;
        if roster.addresses.len() <= 1 {
            return;
        }
        let probe_timeout = self.agent_timeout().min(Duration::from_secs(2));
        let mut scored: Vec<(f64, String)> = roster
            .addresses
            .iter()
            .map(|address| {
                let start = Instant::now();
                let rtt = match self.transport.connect(address) {
                    Ok(mut conn) => {
                        match call(conn.as_mut(), &Message::Ping, probe_timeout) {
                            Ok(Message::Pong) => start.elapsed().as_secs_f64(),
                            _ => f64::INFINITY,
                        }
                    }
                    Err(_) => f64::INFINITY,
                };
                (rtt, address.clone())
            })
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        let order: Vec<String> = scored.iter().map(|(_, a)| a.clone()).collect();
        self.tracer.point(
            SpanContext::NONE,
            "client",
            "agent_rank",
            format!("order={}", order.join(",")),
        );
        roster.addresses = order;
        roster.current = 0;
    }

    /// Send a message to the (preferred) agent and await the reply,
    /// transparently reconnecting once if the cached connection died.
    fn agent_call(&self, msg: &Message) -> Result<Message> {
        self.agent_call_ctx(msg, SpanContext::NONE)
    }

    /// [`NetSolveClient::agent_call`] with a trace context, so agent
    /// failovers that happen under a live request show up in its stitched
    /// timeline. After two transport-level failures against one agent the
    /// call moves to the next agent in ranked order (with the same
    /// backoff schedule the server-failover path uses) until the roster
    /// is exhausted; the agent that answers becomes the preferred one.
    fn agent_call_ctx(&self, msg: &Message, ctx: SpanContext) -> Result<Message> {
        let mut guard = self.agent_conn.lock();
        let (order, start_idx) = {
            let mut roster = self.agents.lock();
            self.ensure_ranked(&mut roster);
            (roster.addresses.clone(), roster.current)
        };
        let mut last_err: Option<NetSolveError> = None;
        for hop in 0..order.len() {
            let idx = (start_idx + hop) % order.len();
            let address = &order[idx];
            if hop > 0 {
                // Moving on means abandoning the cached connection; the
                // hop is counted, traced, and backoff-paced exactly like
                // a server failover attempt.
                *guard = None;
                self.metrics.counter("client.agent_failovers").inc();
                let err_detail = last_err
                    .as_ref()
                    .map(|e| e.to_string())
                    .unwrap_or_default();
                self.tracer.point(
                    ctx,
                    "client",
                    "agent_failover",
                    format!("to={address} after err={err_detail}"),
                );
                let jitter = self.jitter.lock().next_f64();
                let wait = self.retry.backoff.delay_secs(hop as u32 - 1, jitter);
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
            }
            for attempt in 0..2 {
                if guard.is_none() {
                    match self.transport.connect(address) {
                        Ok(c) => *guard = Some(c),
                        Err(e) => {
                            last_err = Some(e);
                            break;
                        }
                    }
                }
                let conn = guard.as_mut().expect("connection present");
                match call(conn.as_mut(), msg, self.agent_timeout()) {
                    Ok(reply) => {
                        self.agents.lock().current = idx;
                        return Ok(reply);
                    }
                    Err(e) => {
                        *guard = None;
                        last_err = Some(e);
                        if attempt == 1 {
                            break;
                        }
                    }
                }
            }
        }
        Err(last_err.expect("roster is never empty"))
    }

    /// Names of every problem the domain offers.
    pub fn list_problems(&self) -> Result<Vec<String>> {
        match self.agent_call(&Message::ListProblems)? {
            Message::ProblemCatalogue { names } => Ok(names),
            Message::Error { code, detail } => Err(NetSolveError::from_code(code, detail)),
            other => Err(unexpected(&other)),
        }
    }

    /// The agent's live server roster (operator tooling).
    pub fn list_servers(&self) -> Result<Vec<netsolve_proto::ServerInfo>> {
        match self.agent_call(&Message::ListServers)? {
            Message::ServerInfoList { servers } => Ok(servers),
            Message::Error { code, detail } => Err(NetSolveError::from_code(code, detail)),
            other => Err(unexpected(&other)),
        }
    }

    /// Fetch (and cache) a problem's specification from the agent.
    pub fn describe(&self, problem: &str) -> Result<ProblemSpec> {
        if let Some(spec) = self.specs.lock().get(problem) {
            return Ok(spec.clone());
        }
        let reply = self.agent_call(&Message::DescribeProblem { problem: problem.to_string() })?;
        match reply {
            Message::ProblemDescription { pdl } => {
                let spec = netsolve_pdl::parse_one(&pdl)?;
                self.specs.lock().insert(problem.to_string(), spec.clone());
                Ok(spec)
            }
            Message::Error { code, detail } => Err(NetSolveError::from_code(code, detail)),
            other => Err(unexpected(&other)),
        }
    }

    /// Ask the agent for the ranked candidate list for a call.
    pub fn query_servers(&self, spec: &ProblemSpec, inputs: &[DataObject]) -> Result<Vec<Candidate>> {
        self.query_servers_with(spec, inputs, SpanContext::NONE)
    }

    /// [`NetSolveClient::query_servers`] with a trace context: the trace
    /// id and the client-side span the agent's `score` span nests under
    /// ride along in the query.
    fn query_servers_with(
        &self,
        spec: &ProblemSpec,
        inputs: &[DataObject],
        ctx: SpanContext,
    ) -> Result<Vec<Candidate>> {
        let shape = RequestShape::from_call(spec, inputs);
        let reply = self.agent_call_ctx(&Message::ServerQuery(QueryShape {
            client_host: self.client_host,
            problem: shape.problem.clone(),
            n: shape.n,
            bytes_in: shape.bytes_in,
            bytes_out: shape.bytes_out,
            trace_id: ctx.trace_id,
            parent_span: ctx.parent_span,
        }), ctx)?;
        match reply {
            Message::ServerList { candidates } => Ok(candidates),
            Message::Error { code, detail } => Err(NetSolveError::from_code(code, detail)),
            other => Err(unexpected(&other)),
        }
    }

    /// Run `f` inside a fresh span: record it under `ctx` with the given
    /// phase name, attaching the error as detail when `f` fails.
    fn traced<T>(
        &self,
        ctx: SpanContext,
        phase: &'static str,
        f: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let timer = self.tracer.start();
        let result = f();
        let detail = match &result {
            Ok(_) => String::new(),
            Err(e) => format!("err={e}"),
        };
        self.tracer.record(ctx, timer, "client", phase, detail);
        result
    }

    /// Report a failed server back to the agent (best effort). Carries
    /// the request's trace context so an agent failover triggered by the
    /// report RPC itself still stitches into the request's timeline.
    fn report_failure(
        &self,
        candidate: &Candidate,
        problem: &str,
        err: &NetSolveError,
        ctx: SpanContext,
    ) {
        if !self.retry.report_failures {
            return;
        }
        let _ = self.agent_call_ctx(&Message::FailureReport {
            server_id: candidate.server_id,
            // The address is what the agent actually resolves: ids are
            // per-agent, so after a failover the id alone would credit
            // the wrong server's fault state on the new agent.
            server_address: candidate.address.clone(),
            problem: problem.to_string(),
            code: err.code(),
            detail: err.detail().to_string(),
        }, ctx);
    }

    /// Blocking call: solve `problem` on the best available server.
    /// This is NetSolve's `netsl()`.
    pub fn netsl(&self, problem: &str, inputs: &[DataObject]) -> Result<Vec<DataObject>> {
        self.netsl_timed(problem, inputs).map(|(outputs, _)| outputs)
    }

    /// Blocking call returning the measured [`CallReport`] alongside the
    /// outputs.
    pub fn netsl_timed(
        &self,
        problem: &str,
        inputs: &[DataObject],
    ) -> Result<(Vec<DataObject>, CallReport)> {
        // Account every call here, including ones that die before the
        // retry loop (bad arguments, agent unreachable), so
        // calls == calls_ok + calls_failed always closes.
        self.metrics.counter("client.calls").inc();
        let started = Instant::now();
        let result = self.netsl_inner(problem, inputs);
        match &result {
            Ok((_, report)) => {
                self.metrics.counter("client.calls_ok").inc();
                self.metrics
                    .histogram("client.call_secs")
                    .record_secs_traced(started.elapsed().as_secs_f64(), report.trace_id);
            }
            Err(_) => {
                self.metrics.counter("client.calls_failed").inc();
            }
        }
        result
    }

    fn netsl_inner(
        &self,
        problem: &str,
        inputs: &[DataObject],
    ) -> Result<(Vec<DataObject>, CallReport)> {
        let spec = self.describe(problem)?;
        spec.check_inputs(inputs)?;
        // Mint the request identity and the trace before ranking, so the
        // rank span (and the agent's score span it nests) join the trace.
        let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
        if !self.tracer.register_request(request_id) {
            self.metrics.counter("client.request_id_collisions").inc();
        }
        let trace_id = self.tracer.mint_trace_id();
        let root_ctx = SpanContext { trace_id, parent_span: 0, request_id };
        let root_timer = self.tracer.start();
        let ctx = root_ctx.child_of(root_timer.span_id());
        let result = self.netsl_attempts(problem, inputs, &spec, request_id, ctx);
        let detail = match &result {
            Ok(_) => format!("problem={problem} ok"),
            Err(e) => format!("problem={problem} err={e}"),
        };
        self.tracer.record(root_ctx, root_timer, "client", "call", detail);
        result
    }

    /// The ranked-failover retry loop: everything between trace mint and
    /// the root `call` span closing. `ctx` is the per-call trace context
    /// whose parent is the root span.
    fn netsl_attempts(
        &self,
        problem: &str,
        inputs: &[DataObject],
        spec: &ProblemSpec,
        request_id: u64,
        ctx: SpanContext,
    ) -> Result<(Vec<DataObject>, CallReport)> {
        let spec = spec.clone();
        let shape = RequestShape::from_call(&spec, inputs);
        let rank_timer = self.tracer.start();
        let ranked = self.query_servers_with(
            &spec,
            inputs,
            SpanContext { trace_id: ctx.trace_id, parent_span: rank_timer.span_id(), request_id },
        );
        let rank_detail = match &ranked {
            Ok(c) => format!("candidates={}", c.len()),
            Err(e) => format!("err={e}"),
        };
        self.tracer.record(ctx, rank_timer, "client", "rank", rank_detail);
        let candidates = ranked?;
        if candidates.is_empty() {
            return Err(NetSolveError::NoServerAvailable(problem.to_string()));
        }
        let call_start = Instant::now();
        // The per-call deadline spans every attempt and backoff wait; its
        // remaining budget rides along in each RequestSubmit so servers
        // can shed work whose client has already given up.
        let deadline = (self.retry.deadline_secs > 0.0)
            .then(|| call_start + Duration::from_secs_f64(self.retry.deadline_secs));

        let mut last_err = NetSolveError::NoServerAvailable(problem.to_string());
        // Servers whose failure is tied to the host rather than the path
        // (ExecutionFailed) drop out of the rotation; transient failures
        // (unreachable, timeout, corruption) keep the candidate in play.
        // Keyed by address: a server id is only unique within the agent
        // that issued it, and a federated list mixes several agents' ids.
        let mut spent: Vec<&str> = Vec::new();
        // A shedding server's Busy reply carries a `retry_after_ms` hint
        // sized from its queue state; it floors the next backoff wait so
        // a hinted client never hammers a server that just told it when
        // capacity frees up.
        let mut busy_hint_ms: Option<u64> = None;
        let max_attempts = self.retry.max_attempts.max(1);
        for retry in 0..max_attempts {
            let live: Vec<&Candidate> = candidates
                .iter()
                .filter(|c| !spent.contains(&c.address.as_str()))
                .collect();
            if live.is_empty() {
                break;
            }
            // Cycle the ranked list rather than zipping it against the
            // attempt budget: with fewer candidates than attempts the
            // rotation wraps, so a single-server domain still gets its
            // full retry budget instead of silently capping at one try.
            let candidate = live[retry % live.len()];
            if retry > 0 {
                let jitter = self.jitter.lock().next_f64();
                let mut wait = self.retry.backoff.delay_secs(retry as u32 - 1, jitter);
                if let Some(hint) = busy_hint_ms.take() {
                    wait = wait.max(hint as f64 / 1e3);
                }
                if wait > 0.0 {
                    let mut pause = Duration::from_secs_f64(wait);
                    if let Some(d) = deadline {
                        pause = pause.min(d.saturating_duration_since(Instant::now()));
                    }
                    self.metrics
                        .histogram("client.backoff_wait_secs")
                        .record_secs_traced(pause.as_secs_f64(), ctx.trace_id);
                    let backoff_timer = self.tracer.start();
                    std::thread::sleep(pause);
                    self.tracer.record(ctx, backoff_timer, "client", "backoff", String::new());
                }
            }
            if let Some(d) = deadline {
                if Instant::now() >= d {
                    self.metrics.counter("client.deadline_exhausted").inc();
                    self.tracer.point(
                        ctx,
                        "client",
                        "deadline_exhausted",
                        format!("after {retry} attempt(s): {last_err}"),
                    );
                    return Err(NetSolveError::Timeout(format!(
                        "deadline of {:.3}s exhausted after {retry} attempt(s): {last_err}",
                        self.retry.deadline_secs
                    )));
                }
            }
            let attempts = retry as u32 + 1;
            self.metrics.counter("client.attempts").inc();
            // Each attempt is its own span; its id rides in the
            // RequestSubmit as the server-side spans' parent, so retries
            // stay distinct children of one trace.
            let attempt_timer = self.tracer.start();
            let attempt_ctx = ctx.child_of(attempt_timer.span_id());
            let start = Instant::now();
            let outcome = self.try_one(candidate, problem, inputs, &spec, deadline, attempt_ctx);
            let attempt_detail = match &outcome {
                Ok(_) => format!("server={} address={}", candidate.server_id, candidate.address),
                Err(e) => format!(
                    "server={} address={} err={e}",
                    candidate.server_id, candidate.address
                ),
            };
            self.tracer.record(ctx, attempt_timer, "client", "attempt", attempt_detail);
            match outcome {
                Ok((outputs, compute_secs)) => {
                    let total_secs = start.elapsed().as_secs_f64();
                    self.tracer.point(
                        ctx,
                        "client",
                        "call_ok",
                        format!("server={} attempts={attempts}", candidate.server_id),
                    );
                    // Best-effort completion report: clears the agent's
                    // pending-assignment and fault state for this server.
                    // Carries the trace context so a failover provoked by
                    // the report leg still lands in this request's trace.
                    let _ = self.agent_call_ctx(&Message::CompletionReport {
                        server_id: candidate.server_id,
                        server_address: candidate.address.clone(),
                        client_host: self.client_host,
                        problem: problem.to_string(),
                        total_secs,
                        compute_secs,
                        bytes: shape.total_bytes(),
                    }, ctx);
                    return Ok((
                        outputs,
                        CallReport {
                            request_id,
                            trace_id: ctx.trace_id,
                            server_id: candidate.server_id,
                            server_address: candidate.address.clone(),
                            predicted_secs: candidate.predicted_secs,
                            total_secs,
                            compute_secs,
                            attempts,
                        },
                    ));
                }
                Err(e) if e.is_retryable() => {
                    if let Some(hint) =
                        netsolve_core::admission::parse_retry_after_ms(e.detail())
                    {
                        self.metrics.counter("client.busy_hints").inc();
                        busy_hint_ms = Some(hint);
                    }
                    self.metrics.counter("client.attempt_failures").inc();
                    self.tracer.point(
                        ctx,
                        "client",
                        "attempt_failed",
                        format!("server={} err={e}", candidate.server_id),
                    );
                    self.report_failure(candidate, problem, &e, ctx);
                    if matches!(e, NetSolveError::ExecutionFailed(_)) {
                        spent.push(&candidate.address);
                    }
                    last_err = e;
                }
                Err(e) => {
                    // The request itself is bad; retrying elsewhere is futile.
                    self.tracer.point(ctx, "client", "call_failed", format!("non-retryable: {e}"));
                    return Err(e);
                }
            }
        }
        self.tracer.point(
            ctx,
            "client",
            "call_failed",
            format!("retry budget exhausted: {last_err}"),
        );
        Err(last_err)
    }

    fn try_one(
        &self,
        candidate: &Candidate,
        problem: &str,
        inputs: &[DataObject],
        spec: &ProblemSpec,
        deadline: Option<Instant>,
        ctx: SpanContext,
    ) -> Result<(Vec<DataObject>, f64)> {
        // The span context carries the protocol request id too.
        let request_id = ctx.request_id;
        let mut attempt_timeout = Duration::from_secs_f64(self.retry.attempt_timeout_secs);
        let mut deadline_ms = 0u64;
        if let Some(d) = deadline {
            let remaining = d.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(NetSolveError::Timeout("request deadline exhausted".into()));
            }
            attempt_timeout = attempt_timeout.min(remaining);
            deadline_ms = (remaining.as_millis() as u64).max(1);
        }
        let mut conn =
            self.traced(ctx, "connect", || self.transport.connect(&candidate.address))?;
        // `ctx.parent_span` is this attempt's span id; the server adopts
        // it as the parent of its own queue/solve spans.
        let msg = Message::RequestSubmit {
            request_id,
            deadline_ms,
            problem: problem.to_string(),
            inputs: inputs.to_vec(),
            trace_id: ctx.trace_id,
            parent_span: ctx.parent_span,
        };
        self.traced(ctx, "marshal", || conn.send(&msg))?;
        let reply = self.traced(ctx, "wait", || conn.recv_timeout(attempt_timeout))?;
        match reply {
            Message::RequestReply { request_id: echoed, outputs, compute_secs, cached } => {
                if echoed != request_id {
                    return Err(NetSolveError::Protocol(format!(
                        "reply for request {echoed}, expected {request_id}"
                    )));
                }
                if cached {
                    self.metrics.counter("client.cached_replies").inc();
                    self.tracer.point(ctx, "client", "cached_reply", String::new());
                }
                spec.check_outputs(&outputs)?;
                Ok((outputs, compute_secs))
            }
            Message::Error { code, detail } => Err(NetSolveError::from_code(code, detail)),
            other => Err(unexpected(&other)),
        }
    }
}

fn unexpected(msg: &Message) -> NetSolveError {
    NetSolveError::Protocol(format!("unexpected reply {}", msg.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsolve_agent::{AgentCore, AgentDaemon};
    use netsolve_core::matrix::{vec_max_abs_diff, Matrix};
    use netsolve_core::rng::Rng64;
    use netsolve_net::ChannelNetwork;
    use netsolve_server::{ServerConfig, ServerCore, ServerDaemon};

    struct Domain {
        net: ChannelNetwork,
        agent: AgentDaemon,
        servers: Vec<ServerDaemon>,
    }

    fn bring_up(server_specs: &[(&str, f64)]) -> Domain {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let agent =
            AgentDaemon::start(Arc::clone(&transport), "agent", AgentCore::with_defaults())
                .unwrap();
        let servers = server_specs
            .iter()
            .enumerate()
            .map(|(i, (host, mflops))| {
                ServerDaemon::start(
                    Arc::clone(&transport),
                    "agent",
                    ServerCore::with_standard_catalogue(),
                    ServerConfig::quick(host, &format!("srv{i}"), *mflops),
                )
                .unwrap()
            })
            .collect();
        Domain { net, agent, servers }
    }

    impl Domain {
        fn client(&self) -> NetSolveClient {
            NetSolveClient::new(Arc::new(self.net.clone()), "agent")
        }
        fn shutdown(mut self) {
            for s in &mut self.servers {
                s.stop();
            }
            self.agent.stop();
        }
    }

    #[test]
    fn netsl_solves_linear_system_end_to_end() {
        let domain = bring_up(&[("hostA", 100.0)]);
        let client = domain.client();

        let mut rng = Rng64::new(3);
        let a = Matrix::random_diag_dominant(16, &mut rng);
        let x_true: Vec<f64> = (0..16).map(|i| (i as f64).sin()).collect();
        let b = a.matvec(&x_true).unwrap();

        let outputs = client.netsl("dgesv", &[a.into(), b.into()]).unwrap();
        assert_eq!(outputs.len(), 1);
        assert!(vec_max_abs_diff(outputs[0].as_vector().unwrap(), &x_true) < 1e-9);
        domain.shutdown();
    }

    #[test]
    fn netsl_timed_reports_prediction_and_actual() {
        let domain = bring_up(&[("hostA", 100.0)]);
        let client = domain.client();
        let (outputs, report) = client
            .netsl_timed("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()])
            .unwrap();
        assert_eq!(outputs[0].as_double().unwrap(), 11.0);
        assert_eq!(report.attempts, 1);
        assert!(report.total_secs > 0.0);
        assert!(report.predicted_secs > 0.0);
        assert_eq!(report.server_address, "srv0");
        domain.shutdown();
    }

    #[test]
    fn catalogue_and_describe() {
        let domain = bring_up(&[("hostA", 100.0)]);
        let client = domain.client();
        let names = client.list_problems().unwrap();
        assert!(names.iter().any(|n| n == "fft"));
        let spec = client.describe("dgesv").unwrap();
        assert_eq!(spec.inputs.len(), 2);
        // second describe hits the cache (no way to observe directly, but
        // it must still be correct)
        assert_eq!(client.describe("dgesv").unwrap(), spec);
        domain.shutdown();
    }

    #[test]
    fn unknown_problem_fails_cleanly() {
        let domain = bring_up(&[("hostA", 100.0)]);
        let client = domain.client();
        assert!(matches!(
            client.netsl("not_a_problem", &[]),
            Err(NetSolveError::ProblemNotFound(_))
        ));
        domain.shutdown();
    }

    #[test]
    fn bad_arguments_fail_before_any_network_request() {
        let domain = bring_up(&[("hostA", 100.0)]);
        let client = domain.client();
        assert!(matches!(
            client.netsl("dgesv", &[DataObject::Int(3)]),
            Err(NetSolveError::BadArguments(_))
        ));
        domain.shutdown();
    }

    #[test]
    fn failover_to_second_server_when_first_is_down() {
        let domain = bring_up(&[("fast", 1000.0), ("slow", 10.0)]);
        let client = domain.client();
        // The fast server ranks first; kill its address before the call.
        domain.net.set_down("srv0");
        let (outputs, report) = client
            .netsl_timed("ddot", &[vec![1.0, 1.0].into(), vec![2.0, 2.0].into()])
            .unwrap();
        assert_eq!(outputs[0].as_double().unwrap(), 4.0);
        assert_eq!(report.attempts, 2, "first candidate failed, second succeeded");
        assert_eq!(report.server_address, "srv1");
        domain.shutdown();
    }

    #[test]
    fn repeated_failures_mark_server_down_at_agent() {
        let domain = bring_up(&[("fast", 1000.0), ("slow", 10.0)]);
        let client = domain.client();
        domain.net.set_down("srv0");
        // Two failing calls: agent's default fault policy marks srv0 down.
        for _ in 0..2 {
            let _ = client.netsl("ddot", &[vec![1.0].into(), vec![1.0].into()]);
        }
        // Now the agent should rank only srv1 — calls succeed on attempt 1.
        let (_, report) = client
            .netsl_timed("ddot", &[vec![1.0].into(), vec![1.0].into()])
            .unwrap();
        assert_eq!(report.attempts, 1);
        assert_eq!(report.server_address, "srv1");
        domain.shutdown();
    }

    #[test]
    fn all_servers_down_returns_retryable_error() {
        let domain = bring_up(&[("a", 100.0)]);
        let client = domain.client();
        domain.net.set_down("srv0");
        let err = client
            .netsl("ddot", &[vec![1.0].into(), vec![1.0].into()])
            .unwrap_err();
        assert!(err.is_retryable(), "got {err}");
        domain.shutdown();
    }

    #[test]
    fn deadline_bounds_total_retry_time() {
        use netsolve_core::config::{Backoff, RetryPolicy};
        let domain = bring_up(&[
            ("a", 100.0),
            ("b", 100.0),
            ("c", 100.0),
            ("d", 100.0),
            ("e", 100.0),
        ]);
        // All five servers down: every attempt fails, and with a fixed
        // 100 ms backoff the 150 ms deadline expires before the candidate
        // list runs dry.
        for i in 0..5 {
            domain.net.set_down(&format!("srv{i}"));
        }
        let client = domain.client().with_retry(RetryPolicy {
            max_attempts: 5,
            attempt_timeout_secs: 5.0,
            backoff: Backoff::Fixed { delay_secs: 0.1 },
            deadline_secs: 0.15,
            report_failures: true,
        });
        let start = Instant::now();
        let err = client
            .netsl("ddot", &[vec![1.0].into(), vec![1.0].into()])
            .unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, NetSolveError::Timeout(_)), "got {err}");
        assert!(
            elapsed < Duration::from_secs(2),
            "deadline did not bound the call: {elapsed:?}"
        );
        domain.shutdown();
    }

    #[test]
    fn backoff_waits_between_failover_attempts() {
        use netsolve_core::config::{Backoff, RetryPolicy};
        let domain = bring_up(&[("fast", 1000.0), ("slow", 10.0)]);
        domain.net.set_down("srv0");
        let client = domain.client().with_retry(RetryPolicy {
            max_attempts: 3,
            attempt_timeout_secs: 5.0,
            backoff: Backoff::Fixed { delay_secs: 0.08 },
            deadline_secs: 0.0,
            report_failures: true,
        });
        let start = Instant::now();
        let (_, report) = client
            .netsl_timed("ddot", &[vec![2.0].into(), vec![3.0].into()])
            .unwrap();
        let elapsed = start.elapsed();
        assert_eq!(report.attempts, 2);
        assert!(
            elapsed >= Duration::from_millis(70),
            "no backoff pause observed: {elapsed:?}"
        );
        domain.shutdown();
    }

    /// A Busy reply carrying `retry_after_ms` must floor the next
    /// backoff wait: with a zero configured backoff, the pause before
    /// the retry is the server's hint.
    #[test]
    fn busy_hint_floors_the_backoff_wait() {
        use netsolve_core::admission::{format_busy_detail, ShedReason};
        use netsolve_core::config::{Backoff, RetryPolicy};

        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let agent =
            AgentDaemon::start(Arc::clone(&transport), "agent", AgentCore::with_defaults())
                .unwrap();
        // A hand-rolled server that sheds its first request with a
        // 300 ms retry hint and answers the second for real.
        let listener = net.listen("shedder").unwrap();
        let registry = netsolve_pdl::ProblemRegistry::with_standard_catalogue();
        let ddot_pdl = netsolve_pdl::render(registry.get("ddot").unwrap());
        {
            let mut conn = net.connect("agent").unwrap();
            let reply = netsolve_net::call(
                conn.as_mut(),
                &Message::RegisterServer(netsolve_proto::ServerDescriptor {
                    server_id: 0,
                    host: "shedhost".into(),
                    address: "shedder".into(),
                    mflops: 100.0,
                    problems: vec!["ddot".into()],
                    pdl_source: ddot_pdl,
                }),
                Duration::from_secs(5),
            )
            .unwrap();
            assert!(matches!(reply, Message::RegisterAck { accepted: true, .. }));
        }
        let server = std::thread::spawn(move || {
            let mut sheds = 0u32;
            loop {
                let mut conn = match listener.accept() {
                    Ok(c) => c,
                    Err(_) => return sheds,
                };
                let msg = match conn.recv() {
                    Ok(m) => m,
                    Err(_) => continue,
                };
                if let Message::RequestSubmit { request_id, .. } = msg {
                    let reply = if sheds == 0 {
                        sheds += 1;
                        Message::from_error(&NetSolveError::Resource(format_busy_detail(
                            ShedReason::QueueFull,
                            3,
                            300,
                        )))
                    } else {
                        Message::RequestReply {
                            request_id,
                            outputs: vec![DataObject::Double(11.0)],
                            compute_secs: 0.0,
                            cached: false,
                        }
                    };
                    let _ = conn.send(&reply);
                    if sheds != 1 || reply_is_ok(&reply) {
                        return sheds;
                    }
                }
            }
        });

        let client = NetSolveClient::new(Arc::new(net.clone()), "agent").with_retry(RetryPolicy {
            max_attempts: 3,
            attempt_timeout_secs: 5.0,
            backoff: Backoff::Fixed { delay_secs: 0.0 }, // the hint is the only wait
            deadline_secs: 0.0,
            report_failures: true,
        });
        let start = Instant::now();
        let (outputs, report) = client
            .netsl_timed("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()])
            .unwrap();
        let elapsed = start.elapsed();
        assert_eq!(outputs[0].as_double().unwrap(), 11.0);
        assert_eq!(report.attempts, 2);
        assert!(
            elapsed >= Duration::from_millis(250),
            "hint did not floor the backoff: {elapsed:?}"
        );
        assert_eq!(client.metrics().counter("client.busy_hints").get(), 1);
        let sheds = server.join().unwrap();
        assert_eq!(sheds, 1);
        drop(agent);
    }

    fn reply_is_ok(reply: &Message) -> bool {
        matches!(reply, Message::RequestReply { .. })
    }

    #[test]
    fn call_with_deadline_still_succeeds_normally() {
        use netsolve_core::config::RetryPolicy;
        let domain = bring_up(&[("hostA", 100.0)]);
        let client = domain.client().with_retry(RetryPolicy {
            deadline_secs: 30.0,
            ..RetryPolicy::default()
        });
        // The deadline budget propagates in the request; a healthy server
        // answers well inside it.
        let outputs = client
            .netsl("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()])
            .unwrap();
        assert_eq!(outputs[0].as_double().unwrap(), 11.0);
        domain.shutdown();
    }

    /// Two federated agents with fast gossip, one server registered with
    /// the first; returns once both agents can answer dgesv/ddot queries.
    fn bring_up_federated() -> (ChannelNetwork, AgentDaemon, AgentDaemon, ServerDaemon) {
        use netsolve_core::config::{AgentConfig, GossipPolicy};
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let config = AgentConfig {
            gossip: GossipPolicy {
                interval_secs: 0.03,
                entry_ttl_secs: 60.0,
                peer_miss_threshold: 2,
                round_timeout_secs: 0.5,
            },
            ..AgentConfig::default()
        };
        let core = |cfg: &AgentConfig| {
            netsolve_agent::AgentCore::new(
                cfg.clone(),
                netsolve_agent::Policy::MinimumCompletionTime,
                netsolve_net::NetworkView::lan_defaults(),
            )
        };
        let agent1 = AgentDaemon::start(Arc::clone(&transport), "agent-1", core(&config)).unwrap();
        agent1.set_peers(vec!["agent-2".into()]);
        let agent2 = AgentDaemon::start(Arc::clone(&transport), "agent-2", core(&config)).unwrap();
        agent2.set_peers(vec!["agent-1".into()]);
        let server = ServerDaemon::start(
            Arc::clone(&transport),
            "agent-1",
            ServerCore::with_standard_catalogue(),
            ServerConfig::quick("hostA", "srv0", 200.0),
        )
        .unwrap();
        // Wait for gossip to replicate the registration to agent-2.
        let deadline = Instant::now() + Duration::from_secs(10);
        while agent2.core().lock().registry().all_servers().is_empty() {
            assert!(Instant::now() < deadline, "gossip never replicated to agent-2");
            std::thread::sleep(Duration::from_millis(5));
        }
        (net, agent1, agent2, server)
    }

    /// Regression: a candidate list widened through two peer agents carries
    /// each peer's own "server 1". Dropping a host-failed server from the
    /// rotation by id also dropped the healthy one, and the call failed
    /// with a good server never tried.
    #[test]
    fn a_failed_server_leaves_the_rotation_by_address_not_by_id() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let start_agent = |address: &str| {
            AgentDaemon::start(Arc::clone(&transport), address, AgentCore::with_defaults()).unwrap()
        };
        let (mut agent_a, mut agent_b, mut agent_c) = (
            start_agent("agent-a"),
            start_agent("agent-b"),
            start_agent("agent-c"),
        );
        agent_a.set_peers(vec!["agent-b".into(), "agent-c".into()]);
        // agent-b's server 1 ranks first and fails every solve on its host.
        let listener = net.listen("broken").unwrap();
        let mut conn = net.connect("agent-b").unwrap();
        let register =
            Message::RegisterServer(netsolve_agent::standard_descriptor("hb", "broken", 900.0));
        netsolve_net::call(conn.as_mut(), &register, Duration::from_secs(5)).unwrap();
        let broken = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            conn.recv().unwrap();
            let failed = NetSolveError::ExecutionFailed("disk full".into());
            conn.send(&Message::from_error(&failed)).unwrap();
        });
        // agent-c's server 1 is healthy.
        let mut healthy = ServerDaemon::start(
            Arc::clone(&transport),
            "agent-c",
            ServerCore::with_standard_catalogue(),
            ServerConfig::quick("hc", "healthy", 100.0),
        )
        .unwrap();

        let client = NetSolveClient::new(Arc::new(net.clone()), "agent-a");
        let (outputs, report) = client
            .netsl_timed("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()])
            .unwrap();
        assert_eq!(outputs[0].as_double().unwrap(), 11.0);
        assert_eq!(
            report.attempts, 2,
            "the broken server is tried first, then the healthy one"
        );
        broken.join().unwrap();
        healthy.stop();
        for agent in [&mut agent_a, &mut agent_b, &mut agent_c] {
            agent.stop();
        }
    }

    /// An agent at its connection cap sheds newcomers with a retryable
    /// Busy instead of growing threads without bound, and a client whose
    /// roster lists a second agent still gets its answer: the shed agent
    /// ranks last and the call goes to the one that has room.
    #[test]
    fn agent_at_its_connection_cap_sheds_busy_and_the_client_fails_over() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let start = |name| {
            AgentDaemon::start(Arc::clone(&transport), name, AgentCore::with_defaults()).unwrap()
        };
        let (mut full, mut roomy) = (start("agent-full"), start("agent-roomy"));
        let mut server = ServerDaemon::start(
            Arc::clone(&transport),
            "agent-roomy",
            ServerCore::with_standard_catalogue(),
            ServerConfig::quick("hostA", "srv0", 200.0),
        )
        .unwrap();

        // Occupy every slot of agent-full; the Pong proves each is served.
        let timeout = Duration::from_secs(5);
        let held: Vec<_> = (0..AgentDaemon::MAX_CONNECTIONS)
            .map(|_| {
                let mut conn = net.connect("agent-full").unwrap();
                let reply = netsolve_net::call(conn.as_mut(), &Message::Ping, timeout).unwrap();
                assert_eq!(reply, Message::Pong);
                conn
            })
            .collect();
        let mut rejected = net.connect("agent-full").unwrap();
        match rejected.recv_timeout(timeout).unwrap() {
            Message::Error { code, detail } => {
                let e = NetSolveError::from_code(code, detail);
                assert!(matches!(e, NetSolveError::Resource(_)) && e.is_retryable(), "got {e}");
            }
            other => panic!("expected Busy from the full agent, got {other:?}"),
        }

        let client = NetSolveClient::new_multi(
            Arc::new(net.clone()),
            &["agent-full".into(), "agent-roomy".into()],
        );
        let out = client.netsl("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()]).unwrap();
        assert_eq!(out[0].as_double().unwrap(), 11.0);
        assert_eq!(client.current_agent(), "agent-roomy");
        let shed = full.core().lock().metrics().snapshot("agent").counter("agent.busy_rejected");
        assert!(shed >= 2, "the probe and the client's dial must both be shed, saw {shed}");

        drop(held);
        server.stop();
        full.stop();
        roomy.stop();
    }

    #[test]
    fn client_fails_over_to_surviving_agent() {
        let (net, mut agent1, mut agent2, mut server) = bring_up_federated();
        let client = NetSolveClient::new_multi(
            Arc::new(net.clone()),
            &["agent-1".into(), "agent-2".into()],
        );
        // Warm call: ranks the agents and pins the winner.
        let (out, _) = client
            .netsl_timed("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()])
            .unwrap();
        assert_eq!(out[0].as_double().unwrap(), 11.0);
        let first = client.current_agent();

        // Kill whichever agent the client is talking to. Both agents know
        // the server (gossip), so the next call must fail over and solve.
        net.set_down(&first);
        let (out, report) = client
            .netsl_timed("ddot", &[vec![1.0, 1.0].into(), vec![2.0, 2.0].into()])
            .unwrap();
        assert_eq!(out[0].as_double().unwrap(), 4.0);
        let snap = client.metrics().snapshot("client");
        assert!(
            snap.counter("client.agent_failovers") >= 1,
            "no agent failover counted"
        );
        assert_ne!(client.current_agent(), first, "client still pinned to dead agent");
        assert_eq!(snap.counter("client.calls_failed"), 0);
        // The failover hop is visible in the request's stitched trace.
        let spans = client.tracer().snapshot_trace(report.trace_id);
        assert!(
            spans.iter().any(|s| s.phase == "agent_failover"),
            "agent_failover point missing from trace"
        );

        // And the client sticks with the survivor: the next call costs no
        // further failover.
        let before = snap.counter("client.agent_failovers");
        client
            .netsl("ddot", &[vec![1.0].into(), vec![1.0].into()])
            .unwrap();
        let snap = client.metrics().snapshot("client");
        assert_eq!(snap.counter("client.agent_failovers"), before);

        net.set_up(&first);
        server.stop();
        agent1.stop();
        agent2.stop();
    }

    #[test]
    fn agent_ranking_puts_unreachable_agents_last() {
        let domain = bring_up(&[("hostA", 100.0)]);
        // "agent-ghost" never listens: ranking must demote it so the
        // first call goes straight to the live agent, no failover burned.
        let client = NetSolveClient::new_multi(
            Arc::new(domain.net.clone()),
            &["agent-ghost".into(), "agent".into()],
        );
        let out = client
            .netsl("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()])
            .unwrap();
        assert_eq!(out[0].as_double().unwrap(), 11.0);
        assert_eq!(client.current_agent(), "agent");
        let snap = client.metrics().snapshot("client");
        assert_eq!(snap.counter("client.agent_failovers"), 0);
        domain.shutdown();
    }

    #[test]
    fn numerical_error_not_retried() {
        // A singular system fails identically everywhere; the client must
        // not waste attempts (Numerical is non-retryable... but note the
        // wire maps it to ExecutionFailed? No: code roundtrips exactly).
        let domain = bring_up(&[("a", 100.0), ("b", 100.0)]);
        let client = domain.client();
        let singular = Matrix::zeros(3, 3);
        let err = client
            .netsl("dgesv", &[singular.into(), vec![1.0, 2.0, 3.0].into()])
            .unwrap_err();
        assert!(matches!(err, NetSolveError::Numerical(_)));
        domain.shutdown();
    }
}
