//! The NetSolve client library: `netsl`-style calls routed through an
//! agent, with automatic failover down the ranked candidate list.
//!
//! A call is one straight line, [`NetSolveClient::netsl_timed`]: describe
//! → rank → per try (pace → attempt) → report, each stage a method reading
//! the one per-call `Call` value (DESIGN.md §4p). The client keeps its
//! connections between calls — one to the preferred agent, a few idle
//! ones to the servers it has used — so a steady caller dials nothing,
//! and a call's completion report rides ahead of the next agent request
//! in the same write, so a steady caller makes one agent exchange a call.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, OnceLock, PoisonError, Weak};
use std::time::{Duration, Instant};

use netsolve_core::clock::Clock;
use netsolve_core::config::RetryPolicy;
use netsolve_core::data::DataObject;
use netsolve_core::error::{ErrorClass, NetSolveError, Result};
use netsolve_core::problem::{ProblemSpec, RequestShape};
use netsolve_core::rng::{splitmix64, Rng64};
use netsolve_net::{answered_before_reading, call, call_once, Connection, Transport};
use netsolve_obs::{MetricsRegistry, SpanContext, Tracer};
use netsolve_proto::{Candidate, Message, QueryShape, RequestView};
use parking_lot::{Mutex, MutexGuard};

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
    /// The agent roster and what reaching an agent needs, shared with the
    /// report flusher.
    link: Arc<AgentLink>,
    /// Idle server connections by address, least recently used first.
    idle: Mutex<Vec<(String, Box<dyn Connection>)>>,
    specs: Mutex<HashMap<String, ProblemSpec>>,
    next_request: AtomicU64,
    jitter: Mutex<Rng64>,
    metrics: Arc<MetricsRegistry>,
}

netsolve_obs::instruments! {
    /// Every `client.*` instrument.
    pub(crate) struct ClientInstruments {
        calls: counter = "client.calls",
        calls_ok: counter = "client.calls_ok",
        calls_failed: counter = "client.calls_failed",
        call_secs: histogram = "client.call_secs",
        attempts: counter = "client.attempts",
        attempt_failures: counter = "client.attempt_failures",
        busy_hints: counter = "client.busy_hints",
        backoff_wait_secs: histogram = "client.backoff_wait_secs",
        deadline_exhausted: counter = "client.deadline_exhausted",
        agent_failovers: counter = "client.agent_failovers",
        dials: counter = "client.dials",
        conn_reused: counter = "client.conn_reused",
        conn_redials: counter = "client.conn_redials",
        cached_replies: counter = "client.cached_replies",
        reports_dropped: counter = "client.reports_dropped",
    }
}

/// How long a completion report waits for an agent request to ride on
/// before the flusher sends it on its own: the most the agent's view of
/// an idle client's pending assignments lags.
const REPORT_FLUSH: Duration = Duration::from_millis(50);

/// Most completion reports a client owes at once: the report that fills
/// the list sends it, so a batch holds at most this many and a request.
const MAX_OWED: usize = 16;

/// The client's view of its agents — the address list in preference order
/// (after the lazy rank pass) and which entry is currently preferred —
/// the connection kept open to that entry, and the completion reports
/// owed to whichever agent is asked next. One lock holds them all: an
/// agent request owns the roster for as long as it owns the connection.
#[derive(Default)]
struct AgentRoster {
    addresses: Vec<String>,
    ranked: bool,
    current: usize,
    conn: Option<Box<dyn Connection>>,
    /// Oldest first, fewer than [`MAX_OWED`] whenever the lock is free;
    /// each leaves once, delivered or dropped.
    owed: Vec<Owed>,
}

/// What the client and the flusher share: the roster, and the one copy of
/// everything a request to an agent needs.
struct AgentLink {
    roster: Mutex<AgentRoster>,
    transport: Arc<dyn Transport>,
    /// The transport's clock: every budget, pause and timer of a call.
    clock: Arc<dyn Clock>,
    retry: RetryPolicy,
    m: ClientInstruments,
    tracer: Arc<Tracer>,
    /// Whether the flusher has been told of this link.
    registered: AtomicBool,
}

impl AgentLink {
    /// Write what `roster` owes on its own, in a traceless `report` span,
    /// and read nothing: the reply to the next request on the connection
    /// confirms it. The roster is held only to take the reports and the
    /// kept connection and to give the connection back, so a request made
    /// meanwhile (while a dial waits, say) dials its own and keeps its
    /// deadline. One try at the preferred agent — no redial and no
    /// failover, which only the agent ring makes: a batch that cannot be
    /// written is dropped and counted, since a report is best effort.
    fn flush(&self, mut roster: MutexGuard<'_, AgentRoster>) {
        if roster.owed.is_empty() {
            return;
        }
        let owed = std::mem::replace(&mut roster.owed, Vec::with_capacity(MAX_OWED));
        let address = roster.addresses[roster.current].clone();
        let kept = roster.conn.take();
        drop(roster);
        let timer = self.tracer.start();
        let sent = kept.map_or_else(|| self.transport.connect(&address), Ok).and_then(|mut conn| {
            Ok((deliver(conn.as_mut(), &owed, None)?, conn))
        });
        let detail = match sent {
            Ok((delivered, conn)) => {
                let mut roster = self.roster.lock();
                let unused = if roster.conn.is_none() && roster.addresses[roster.current] == address {
                    roster.conn = Some(conn);
                    None
                } else {
                    Some(conn)
                };
                drop(roster);
                drop(unused);
                format!("completions={delivered}")
            }
            Err(e) => {
                self.m.reports_dropped.add(owed.len() as u64);
                format!("err={e}")
            }
        };
        self.tracer.record(SpanContext::NONE, timer, "client", "report", detail);
    }
}

/// The process's one report flusher: a thread that sends what a client
/// has owed for [`REPORT_FLUSH`] with no agent request to carry it. It
/// looks once a report is due, never once a call, and waits untimed while
/// no client owes anything. One thread serves every client: a thread per
/// client held a malloc arena of its own, which raised `bulk_reply`'s
/// peak RSS by a third (EXPERIMENTS "One agent exchange per call").
struct Flusher {
    /// Every client that has owed a report; a dropped one goes at the
    /// next pass.
    clients: std::sync::Mutex<Vec<Weak<AgentLink>>>,
    /// The thread waits for a report to be owed, not for one to fall due.
    /// Set under `clients`' lock.
    parked: AtomicBool,
    wake: Condvar,
}

impl Flusher {
    /// The flusher, its thread started on first use. Without a thread
    /// (the spawn failed) reports still ride requests and the drop.
    fn get() -> &'static Flusher {
        static FLUSHER: OnceLock<Flusher> = OnceLock::new();
        FLUSHER.get_or_init(|| {
            let _ = std::thread::Builder::new()
                .name("netsl-reports".into())
                .spawn(|| Flusher::get().run());
            Flusher { clients: Default::default(), parked: AtomicBool::new(false), wake: Condvar::new() }
        })
    }

    /// A report has been owed to a client with none before, or to one the
    /// flusher does not know yet (`client`): wake a parked flusher. Cheap
    /// unless it is parked.
    fn owed(&self, client: Option<Weak<AgentLink>>) {
        if client.is_none() && !self.parked.load(Ordering::SeqCst) {
            return;
        }
        let mut clients = self.clients.lock().unwrap_or_else(PoisonError::into_inner);
        clients.extend(client);
        if self.parked.swap(false, Ordering::SeqCst) {
            self.wake.notify_one();
        }
    }

    /// Flush what is due, then wait until the next report falls due, or,
    /// with none owed, until one is. `parked` is set before each pass, so
    /// a client that owes a report behind the pass finds it set and wakes
    /// the thread. A client whose roster is busy — a request, which
    /// carries what it owes — is looked at again a period later. A flush
    /// writes and reads nothing, so an agent that never answers holds the
    /// thread no longer than a write, and no other client's flush waits
    /// on it.
    fn run(&self) {
        let mut clients = self.clients.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            self.parked.store(true, Ordering::SeqCst);
            clients.retain(|client| client.strong_count() > 0);
            let links: Vec<Arc<AgentLink>> = clients.iter().filter_map(Weak::upgrade).collect();
            drop(clients);
            let mut due = None::<Duration>;
            for link in links {
                let left = match link.roster.try_lock() {
                    None => REPORT_FLUSH,
                    Some(roster) => {
                        let Some(oldest) = roster.owed.first().map(|o| o.since) else { continue };
                        match REPORT_FLUSH.checked_sub(link.clock.since(oldest)) {
                            Some(left) if !left.is_zero() => left,
                            _ => {
                                link.flush(roster);
                                continue;
                            }
                        }
                    }
                };
                due = Some(due.map_or(left, |d| d.min(left)));
            }
            clients = self.clients.lock().unwrap_or_else(PoisonError::into_inner);
            clients = match due {
                Some(left) => {
                    self.parked.store(false, Ordering::SeqCst);
                    self.wake.wait_timeout(clients, left).unwrap_or_else(PoisonError::into_inner).0
                }
                None if self.parked.load(Ordering::SeqCst) => {
                    self.wake.wait(clients).unwrap_or_else(PoisonError::into_inner)
                }
                None => clients,
            };
        }
    }
}

/// A completion report not yet sent, and when it became owed.
struct Owed {
    report: Message,
    since: Instant,
}

/// Write the owed reports, and `request` behind them, in one batch on
/// `conn`, and read nothing: no report is answered, and the reply to the
/// next request on `conn` confirms every report written ahead of it, since
/// the agent handles a connection's frames in order. `owed` holds at most
/// [`MAX_OWED`]. Returns how many reports were written.
fn deliver(conn: &mut dyn Connection, owed: &[Owed], request: Option<&Message>) -> Result<usize> {
    let Some(first) = owed.first().map(|o| &o.report).or(request) else {
        return Ok(0);
    };
    let mut batch = [first; MAX_OWED + 1];
    let mut len = 0;
    for (slot, msg) in batch.iter_mut().zip(owed.iter().map(|o| &o.report).chain(request)) {
        *slot = msg;
        len += 1;
    }
    conn.send_batch(&batch[..len])?;
    Ok(owed.len())
}

/// Whether `e`, met on a kept connection before any reply arrived, means
/// the peer had closed it (idle expiry, restart): a send that failed, an
/// end of stream or a reset. A timeout is not — the server may be slow.
fn hung_up(e: &NetSolveError) -> bool {
    matches!(e, NetSolveError::Transport(_) | NetSolveError::ServerUnreachable(_))
}

/// The end-to-end budget of one call (`RetryPolicy::deadline_secs`),
/// started when `netsl_timed` is entered: the instant it runs out on the
/// client's clock, or `None` for no limit. Every timeout and pause inside
/// the call — agent legs included — is clamped to what is left of it.
#[derive(Clone, Copy)]
struct Budget<'c> {
    clock: &'c dyn Clock,
    end: Option<Instant>,
}

impl<'c> Budget<'c> {
    fn start(clock: &'c dyn Clock, started: Instant, limit_secs: f64) -> Self {
        let end = (limit_secs > 0.0).then(|| started + Duration::from_secs_f64(limit_secs));
        Budget { clock, end }
    }

    fn remaining(&self) -> Option<Duration> {
        self.end.map(|end| end.saturating_duration_since(self.clock.now()))
    }

    fn spent(&self) -> bool {
        self.remaining().is_some_and(|left| left.is_zero())
    }

    /// `wait`, or what is left of the budget when that is less.
    fn clamp(&self, wait: Duration) -> Duration {
        self.remaining().map_or(wait, |left| wait.min(left))
    }

    /// The `deadline_ms` a `RequestSubmit` carries so the server can shed
    /// work whose client has already given up (0 = no deadline).
    fn wire_ms(&self) -> u64 {
        self.remaining().map_or(0, |left| (left.as_millis() as u64).max(1))
    }
}

/// What a piece of client work runs under: the trace context its spans
/// are recorded in and the budget its waits are clamped to.
#[derive(Clone, Copy)]
struct Scope<'c> {
    ctx: SpanContext,
    budget: Budget<'c>,
}

/// One `netsl` call: what is fixed for its whole life, built once in
/// `netsl_timed` and read by every stage after it. `scope.ctx` carries
/// the request id and parents the stages' spans under the root `call`.
struct Call<'a> {
    problem: &'a str,
    inputs: &'a [DataObject],
    spec: ProblemSpec,
    shape: RequestShape,
    scope: Scope<'a>,
}

/// The one reply classifier, for both rings: evaluates to `Ok` of the
/// wanted variant's fields, to the typed error a peer's `Error` encodes,
/// or to `Protocol` for any other tag — so a caller names only the
/// variant it asked for.
macro_rules! expect_reply {
    ($reply:expr, $wanted:pat => $fields:expr) => {
        match $reply {
            $wanted => Ok($fields),
            Message::Error { code, detail } => Err(NetSolveError::from_code(code, detail)),
            other => Err(NetSolveError::Protocol(format!("unexpected reply {}", other.name()))),
        }
    };
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

/// Success detail of a span that has nothing to add.
fn no_detail<T>(_: &T) -> String {
    String::new()
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
        let metrics = Arc::new(MetricsRegistry::new());
        NetSolveClient {
            link: Arc::new(AgentLink {
                roster: Mutex::new(AgentRoster {
                    addresses: agents.to_vec(),
                    owed: Vec::with_capacity(MAX_OWED),
                    ..AgentRoster::default()
                }),
                clock: transport.clock(),
                transport,
                retry: RetryPolicy::default(),
                m: ClientInstruments::new(&metrics),
                tracer: Arc::new(Tracer::new()),
                registered: AtomicBool::new(false),
            }),
            idle: Mutex::new(Vec::new()),
            specs: Mutex::new(HashMap::new()),
            next_request: AtomicU64::new(request_id_seed()),
            jitter: Mutex::new(Rng64::new(0x6A17_7E12)),
            metrics,
        }
    }

    /// Reseed the backoff-jitter stream (reproducible experiments).
    pub fn with_jitter_seed(self, seed: u64) -> Self {
        *self.jitter.lock() = Rng64::new(seed);
        self
    }

    /// Override the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.link_mut().retry = retry;
        self
    }

    /// Share a metrics registry and tracer with this client (tests and
    /// experiments aggregate several clients into one registry; a shared
    /// tracer also cross-checks request-id uniqueness *across* clients).
    /// The client's instruments are resolved again on `metrics`.
    pub fn with_observability(mut self, metrics: Arc<MetricsRegistry>, tracer: Arc<Tracer>) -> Self {
        let link = self.link_mut();
        link.m = ClientInstruments::new(&metrics);
        link.tracer = tracer;
        self.metrics = metrics;
        self
    }

    /// The link, to configure. A client that has owed a report shares it
    /// with the flusher, and moves to a copy: its roster, kept connection
    /// and owed reports go along.
    fn link_mut(&mut self) -> &mut AgentLink {
        if Arc::get_mut(&mut self.link).is_none() {
            let link = &self.link;
            let roster = std::mem::take(&mut *link.roster.lock());
            self.link = Arc::new(AgentLink {
                roster: Mutex::new(roster),
                transport: Arc::clone(&link.transport),
                clock: Arc::clone(&link.clock),
                retry: link.retry,
                m: ClientInstruments::new(&self.metrics),
                tracer: Arc::clone(&link.tracer),
                registered: AtomicBool::new(false),
            });
        }
        Arc::get_mut(&mut self.link).expect("a link of the client's own")
    }

    /// This client's metrics registry (`client.*` instruments).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// This client's tracer.
    pub fn tracer(&self) -> Arc<Tracer> {
        Arc::clone(&self.link.tracer)
    }

    /// Traceless and unlimited: requests made outside a `netsl` call.
    fn unscoped(&self) -> Scope<'_> {
        Scope { ctx: SpanContext::NONE, budget: Budget { clock: self.link.clock.as_ref(), end: None } }
    }

    fn attempt_timeout(&self) -> Duration {
        Duration::from_secs_f64(self.link.retry.attempt_timeout_secs)
    }

    /// The agent currently preferred by this client (the last one that
    /// answered; the rank winner before any request has gone out).
    pub fn current_agent(&self) -> String {
        let roster = self.link.roster.lock();
        roster.addresses[roster.current].clone()
    }

    /// Most idle server connections a client keeps, over all addresses …
    pub const MAX_IDLE: usize = 16;
    /// … and to any one address: what a farm's burst leaves warm, and the
    /// most of one server's connection slots a resting client holds.
    pub const MAX_IDLE_PER_ADDRESS: usize = 4;

    /// Server connections this client is keeping for its next calls.
    pub fn idle_connections(&self) -> usize {
        self.idle.lock().len()
    }

    /// The most recently used idle connection to `address`, if one is kept.
    fn take_idle(&self, address: &str) -> Option<Box<dyn Connection>> {
        let mut idle = self.idle.lock();
        let at = idle.iter().rposition(|(kept, _)| kept == address)?;
        Some(idle.remove(at).1)
    }

    /// Keep `conn` for the next request to `address`. Past either bound
    /// the least recently used connection — of that address, or of all —
    /// is closed instead, after the lock is released.
    fn keep_idle(&self, address: &str, conn: Box<dyn Connection>) {
        let evicted = {
            let mut idle = self.idle.lock();
            idle.push((address.to_string(), conn));
            let to_address = idle.iter().filter(|(kept, _)| kept == address).count();
            if to_address > Self::MAX_IDLE_PER_ADDRESS {
                idle.iter().position(|(kept, _)| kept == address).map(|at| idle.remove(at))
            } else if idle.len() > Self::MAX_IDLE {
                Some(idle.remove(0))
            } else {
                None
            }
        };
        drop(evicted);
    }

    /// Close every idle connection kept to `address`, after the lock is
    /// released.
    fn forget_idle(&self, address: &str) {
        let closed: Vec<_> = {
            let mut idle = self.idle.lock();
            let (closed, kept) =
                std::mem::take(&mut *idle).into_iter().partition(|(to, _)| to == address);
            *idle = kept;
            closed
        };
        drop(closed);
    }

    /// Run `work` inside a fresh `client` × `phase` span recorded under
    /// `scope`; `work` gets the scope its own children nest under. The
    /// span's detail is what `detail` says about the result, or `err=…`.
    fn span<'c, T>(
        &self,
        scope: Scope<'c>,
        phase: &'static str,
        work: impl FnOnce(Scope<'c>) -> Result<T>,
        detail: impl FnOnce(&T) -> String,
    ) -> Result<T> {
        let timer = self.link.tracer.start();
        let result = work(Scope { ctx: scope.ctx.child_of(timer.span_id()), ..scope });
        let detail = match &result {
            Ok(value) => detail(value),
            Err(e) => format!("err={e}"),
        };
        self.link.tracer.record(scope.ctx, timer, "client", phase, detail);
        result
    }

    /// The pause before try number `retry` (≥ 1) of either ring: the
    /// backoff schedule's delay on a fresh jitter draw, floored by a
    /// shedding server's `retry_after_ms` hint so a hinted client never
    /// hammers a server that just said when capacity frees up, and
    /// clamped to what the budget has left.
    fn pace(&self, scope: Scope<'_>, retry: u32, floor_ms: u64) {
        let jitter = self.jitter.lock().next_f64();
        let wait = self.link.retry.backoff.delay_secs(retry - 1, jitter).max(floor_ms as f64 / 1e3);
        if wait <= 0.0 {
            return;
        }
        let pause = scope.budget.clamp(Duration::from_secs_f64(wait));
        self.link.m.backoff_wait_secs.record_secs_traced(pause.as_secs_f64(), scope.ctx.trace_id);
        let sleep = |_| {
            self.link.clock.sleep(pause);
            Ok(())
        };
        let _ = self.span(scope, "backoff", sleep, no_detail);
    }

    /// The one way a call stops on a spent budget, in either ring.
    fn exhausted(&self, scope: Scope<'_>, progress: String) -> NetSolveError {
        self.link.m.deadline_exhausted.inc();
        self.link.tracer.point(scope.ctx, "client", "deadline_exhausted", progress.clone());
        NetSolveError::Timeout(format!(
            "deadline of {:.3}s exhausted {progress}",
            self.link.retry.deadline_secs
        ))
    }

    /// Rank the agent list once, by `Ping` round-trip time with
    /// unreachable agents last, so the first request already prefers the
    /// closest live agent. Single-agent rosters skip the probe.
    fn ensure_ranked(&self, roster: &mut AgentRoster, budget: Budget<'_>) {
        if roster.ranked {
            return;
        }
        roster.ranked = true;
        if roster.addresses.len() <= 1 {
            return;
        }
        let mut scored: Vec<(f64, String)> = std::mem::take(&mut roster.addresses)
            .into_iter()
            .map(|address| {
                let timeout = budget.clamp(self.attempt_timeout().min(Duration::from_secs(2)));
                let start = self.link.clock.now();
                let probe = call_once(self.link.transport.as_ref(), &address, &Message::Ping, timeout);
                let rtt = match probe {
                    Ok(Message::Pong) => self.link.clock.since(start).as_secs_f64(),
                    _ => f64::INFINITY,
                };
                (rtt, address)
            })
            .collect();
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        roster.addresses = scored.into_iter().map(|(_, address)| address).collect();
        roster.current = 0;
        let order = format!("order={}", roster.addresses.join(","));
        self.link.tracer.point(SpanContext::NONE, "client", "agent_rank", order);
    }

    /// The agent ring: send `msg` to the preferred agent and return its
    /// reply. The kept connection is redialled once if it died; after two
    /// transport-level failures against one agent the request moves to
    /// the next in ranked order — counted, traced under `scope` so a hop
    /// made for a live call shows in its stitched timeline, and paced like
    /// a server failover — until the roster is exhausted or the budget is
    /// spent. The agent that answers becomes the preferred one.
    ///
    /// A spent budget ends the call, counted through [`Self::exhausted`],
    /// only when the request is one of the call's own stages (`stage`);
    /// the best-effort report leg just gives up with the last error.
    ///
    /// What the roster owes rides ahead of `msg` on the first exchange
    /// made ([`Self::carry`]), so a dial that fails leaves it for the
    /// agent that answers.
    fn agent_call(&self, msg: &Message, scope: Scope<'_>, stage: bool) -> Result<Message> {
        let mut roster = self.link.roster.lock();
        self.ensure_ranked(&mut roster, scope.budget);
        let (agents, first) = (roster.addresses.len(), roster.current);
        let mut last_err = NetSolveError::ServerUnreachable("no agent tried yet".into());
        for hop in 0..agents {
            let idx = (first + hop) % agents;
            if hop > 0 {
                // Moving on means abandoning the kept connection.
                roster.conn = None;
                self.link.m.agent_failovers.inc();
                let hop_detail = format!("to={} after err={last_err}", roster.addresses[idx]);
                self.link.tracer.point(scope.ctx, "client", "agent_failover", hop_detail);
                self.pace(scope, hop as u32, 0);
            }
            for _try in 0..2 {
                if scope.budget.spent() {
                    if !stage {
                        return Err(last_err);
                    }
                    let progress = format!("at agent {}: {last_err}", roster.addresses[idx]);
                    return Err(self.exhausted(scope, progress));
                }
                if roster.conn.is_none() {
                    match self.link.transport.connect(&roster.addresses[idx]) {
                        Ok(conn) => roster.conn = Some(conn),
                        Err(e) => {
                            last_err = e;
                            break;
                        }
                    }
                }
                let AgentRoster { conn, owed, .. } = &mut *roster;
                let conn = conn.as_mut().expect("dialled just above").as_mut();
                let timeout = scope.budget.clamp(self.attempt_timeout());
                let reply = if owed.is_empty() {
                    call(conn, msg, timeout)
                } else {
                    self.carry(conn, owed, msg, timeout, scope)
                };
                match reply {
                    Ok(reply) => {
                        roster.current = idx;
                        return Ok(reply);
                    }
                    Err(e) => {
                        roster.conn = None;
                        last_err = e;
                    }
                }
            }
        }
        Err(last_err)
    }

    /// The combined exchange: the `owed` reports ahead of `msg` in one
    /// write, inside a `report` span under `scope`, then `msg`'s reply,
    /// which confirms them. A batch whose write failed reached no agent,
    /// and its reports stay owed for the ring's next try — after an agent
    /// failover, the agent that answers. Once written they are spent: an
    /// exchange that fails after the write drops them, counted, since the
    /// agent may have applied them, and the ring's next try sends `msg`
    /// alone, so a report can never fail the request it rode with.
    fn carry(
        &self,
        conn: &mut dyn Connection,
        owed: &mut Vec<Owed>,
        msg: &Message,
        timeout: Duration,
        scope: Scope<'_>,
    ) -> Result<Message> {
        let send = |_| deliver(&mut *conn, owed, Some(msg));
        let written = self.span(scope, "report", send, |n| format!("completions={n}"))?;
        owed.clear();
        conn.recv_timeout(timeout).inspect_err(|_| self.link.m.reports_dropped.add(written as u64))
    }

    /// Owe the agent a completion report: it rides ahead of this client's
    /// next agent request, and leaves on its own once it has waited
    /// [`REPORT_FLUSH`] for one ([`Flusher`]) or when the client is
    /// dropped. The report that fills the list to [`MAX_OWED`] takes every
    /// owed report off it under the same lock and writes them at once.
    fn owe(&self, report: Message) {
        let mut roster = self.link.roster.lock();
        roster.owed.push(Owed { report, since: self.link.clock.now() });
        if roster.owed.len() >= MAX_OWED {
            return self.link.flush(roster);
        }
        let first = roster.owed.len() == 1;
        drop(roster);
        let new = !self.link.registered.load(Ordering::Relaxed)
            && !self.link.registered.swap(true, Ordering::Relaxed);
        if first || new {
            Flusher::get().owed(new.then(|| Arc::downgrade(&self.link)));
        }
    }

    /// Names of every problem the domain offers.
    pub fn list_problems(&self) -> Result<Vec<String>> {
        let reply = self.agent_call(&Message::ListProblems, self.unscoped(), true)?;
        expect_reply!(reply, Message::ProblemCatalogue { names } => names)
    }

    /// The agent's live server roster (operator tooling).
    pub fn list_servers(&self) -> Result<Vec<netsolve_proto::ServerInfo>> {
        let reply = self.agent_call(&Message::ListServers, self.unscoped(), true)?;
        expect_reply!(reply, Message::ServerInfoList { servers } => servers)
    }

    /// Fetch (and cache) a problem's specification from the agent.
    pub fn describe(&self, problem: &str) -> Result<ProblemSpec> {
        self.describe_under(problem, self.unscoped())
    }

    fn describe_under(&self, problem: &str, scope: Scope<'_>) -> Result<ProblemSpec> {
        if let Some(spec) = self.specs.lock().get(problem) {
            return Ok(spec.clone());
        }
        let query = Message::DescribeProblem { problem: problem.to_string() };
        let pdl = expect_reply!(
            self.agent_call(&query, scope, true)?,
            Message::ProblemDescription { pdl } => pdl
        )?;
        let spec = netsolve_pdl::parse_one(&pdl)?;
        self.specs.lock().insert(problem.to_string(), spec.clone());
        Ok(spec)
    }

    /// Ask the agent for the ranked candidate list for a call.
    pub fn query_servers(&self, spec: &ProblemSpec, inputs: &[DataObject]) -> Result<Vec<Candidate>> {
        self.candidates(&RequestShape::from_call(spec, inputs), self.unscoped())
    }

    /// The `ServerQuery` exchange. Under a call, `scope.ctx` is the rank
    /// span: its trace id and span id ride in the query, and the agent's
    /// `score` span nests under it.
    fn candidates(&self, shape: &RequestShape, scope: Scope<'_>) -> Result<Vec<Candidate>> {
        let query = Message::ServerQuery(QueryShape {
            client_host: 0,
            problem: shape.problem.clone(),
            n: shape.n,
            bytes_in: shape.bytes_in,
            bytes_out: shape.bytes_out,
            trace_id: scope.ctx.trace_id,
            parent_span: scope.ctx.parent_span,
        });
        expect_reply!(
            self.agent_call(&query, scope, true)?,
            Message::ServerList { candidates } => candidates
        )
    }

    /// Blocking call: solve `problem` on the best available server.
    /// This is NetSolve's `netsl()`.
    pub fn netsl(&self, problem: &str, inputs: &[DataObject]) -> Result<Vec<DataObject>> {
        self.netsl_timed(problem, inputs).map(|(outputs, _)| outputs)
    }

    /// Blocking call returning the measured [`CallReport`] alongside the
    /// outputs. This is the whole call path, in order (DESIGN.md §4p):
    /// describe the problem and check the arguments, mint the request and
    /// trace ids, rank, then per try pace → budget check → attempt →
    /// classify → report.
    pub fn netsl_timed(
        &self,
        problem: &str,
        inputs: &[DataObject],
    ) -> Result<(Vec<DataObject>, CallReport)> {
        // Account every call here, including ones that die before any
        // server traffic (bad arguments, agent unreachable), so
        // calls == calls_ok + calls_failed always closes.
        self.link.m.calls.inc();
        let started = self.link.clock.now();
        let budget = Budget::start(self.link.clock.as_ref(), started, self.link.retry.deadline_secs);
        let result = self
            .describe_under(problem, Scope { ctx: SpanContext::NONE, budget })
            .and_then(|spec| spec.check_inputs(inputs).map(|()| spec))
            .and_then(|spec| {
                // Mint the request identity and the trace before ranking,
                // so the rank span (and the agent's score span it nests)
                // join the trace.
                let request_id = self.next_request.fetch_add(1, Ordering::Relaxed);
                let trace_id = self.link.tracer.mint_trace_id();
                let ctx = SpanContext { trace_id, parent_span: 0, request_id };
                let root = Scope { ctx, budget };
                let tries = |scope| {
                    let shape = RequestShape::from_call(&spec, inputs);
                    let call = Call { problem, inputs, spec, shape, scope };
                    let candidates = self.rank(&call)?;
                    // A server whose failure is tied to its host rather
                    // than the path (a `Fault`) leaves the rotation; a
                    // `Link` or `Load` failure keeps the candidate in
                    // play. Keyed by address: a server id is only unique
                    // within the agent that issued it, and a federated
                    // list mixes several agents' ids.
                    let mut spent: Vec<&str> = Vec::new();
                    let mut busy_hint_ms = 0;
                    let mut last_err = NetSolveError::NoServerAvailable(problem.to_string());
                    for retry in 0..self.link.retry.max_attempts.max(1) {
                        let live: Vec<&Candidate> = candidates
                            .iter()
                            .filter(|c| !spent.contains(&c.address.as_str()))
                            .collect();
                        if live.is_empty() {
                            break;
                        }
                        // Cycle the ranked list rather than zipping it
                        // against the attempt budget: with fewer candidates
                        // than attempts the rotation wraps, so a
                        // single-server domain still gets its full retry
                        // budget instead of silently capping at one try.
                        let candidate = live[retry % live.len()];
                        if retry > 0 {
                            self.pace(scope, retry as u32, std::mem::take(&mut busy_hint_ms));
                        }
                        if budget.spent() {
                            let progress = format!("after {retry} attempt(s): {last_err}");
                            return Err(self.exhausted(scope, progress));
                        }
                        match self.attempt(&call, candidate, retry as u32 + 1) {
                            Ok((outputs, done)) => {
                                let detail =
                                    format!("server={} attempts={}", done.server_id, done.attempts);
                                self.link.tracer.point(scope.ctx, "client", "call_ok", detail);
                                self.report(&call, candidate, Ok(&done));
                                return Ok((outputs, done));
                            }
                            Err(e) => {
                                match e.class() {
                                    // The request itself is bad; retrying
                                    // elsewhere is futile.
                                    ErrorClass::Request => {
                                        return Err(self.call_failed(&call, "non-retryable", e))
                                    }
                                    ErrorClass::Fault => spent.push(&candidate.address),
                                    ErrorClass::Link | ErrorClass::Load { retry_after_ms: 0 } => {}
                                    ErrorClass::Load { retry_after_ms } => {
                                        self.link.m.busy_hints.inc();
                                        busy_hint_ms = retry_after_ms;
                                    }
                                }
                                self.link.m.attempt_failures.inc();
                                let detail = format!(
                                    "server={} address={} err={e}",
                                    candidate.server_id, candidate.address
                                );
                                self.link.tracer.point(scope.ctx, "client", "attempt_failed", detail);
                                self.report(&call, candidate, Err(&e));
                                last_err = e;
                            }
                        }
                    }
                    Err(self.call_failed(&call, "retry budget exhausted", last_err))
                };
                self.span(root, "call", tries, |_| format!("problem={problem} ok"))
            });
        match &result {
            Ok((_, report)) => {
                self.link.m.calls_ok.inc();
                let secs = self.link.clock.since(started).as_secs_f64();
                self.link.m.call_secs.record_secs_traced(secs, report.trace_id);
            }
            Err(_) => self.link.m.calls_failed.inc(),
        }
        result
    }

    /// How a call that reached the server ring ends in failure.
    fn call_failed(&self, call: &Call<'_>, why: &str, e: NetSolveError) -> NetSolveError {
        self.link.tracer.point(call.scope.ctx, "client", "call_failed", format!("{why}: {e}"));
        e
    }

    /// Stage: ask the agent for the ranked candidates, inside the `rank`
    /// span the agent's `score` span nests under. An empty list ends the
    /// call here.
    fn rank(&self, call: &Call<'_>) -> Result<Vec<Candidate>> {
        let query = |scope| {
            let candidates = self.candidates(&call.shape, scope)?;
            if candidates.is_empty() {
                return Err(NetSolveError::NoServerAvailable(call.problem.to_string()));
            }
            Ok(candidates)
        };
        self.span(call.scope, "rank", query, |c| format!("candidates={}", c.len()))
    }

    /// A connection to `address` inside the `connect` span: the kept one
    /// used last when there is any and `fresh` does not rule it out, else
    /// a new dial. The flag says which it was.
    fn connection(
        &self,
        scope: Scope<'_>,
        address: &str,
        fresh: bool,
    ) -> Result<(Box<dyn Connection>, bool)> {
        let get = |_| {
            let kept = if fresh { None } else { self.take_idle(address) };
            if let Some(conn) = kept {
                self.link.m.conn_reused.inc();
                return Ok((conn, true));
            }
            self.link.m.dials.inc();
            Ok((self.link.transport.connect(address)?, false))
        };
        let which = |got: &(_, bool)| if got.1 { "reused" } else { "dialled" }.to_string();
        self.span(scope, "connect", get, which)
    }

    /// Stage: one try against one server — connect, marshal, wait, check
    /// the reply. Each try is its own span, whose id rides in the
    /// `RequestSubmit` as the parent of the server-side spans, so retries
    /// stay distinct children of one trace.
    fn attempt(
        &self,
        call: &Call<'_>,
        candidate: &Candidate,
        attempts: u32,
    ) -> Result<(Vec<DataObject>, CallReport)> {
        self.link.m.attempts.inc();
        let start = self.link.clock.now();
        let exchange = |scope: Scope<'_>| {
            let ctx = scope.ctx;
            // What is left of this try and of the call: a kept connection
            // may fail late (its server died mid-solve), and the redial
            // gets the rest, not a second full timeout. In whole
            // milliseconds, rounded down: without a deadline the wait then
            // reads the same from call to call, and the socket's receive
            // timeout is left as it was.
            let left = || {
                let left = self.attempt_timeout().saturating_sub(self.link.clock.since(start));
                Duration::from_millis(scope.budget.clamp(left).as_millis() as u64)
            };
            let mut fresh = false;
            let (conn, reply) = loop {
                let timeout = left();
                // Framed straight from the caller's operands: no copy.
                let request = RequestView {
                    request_id: ctx.request_id,
                    deadline_ms: scope.budget.wire_ms(),
                    trace_id: ctx.trace_id,
                    parent_span: ctx.parent_span,
                    problem: call.problem,
                    inputs: call.inputs,
                };
                let (mut conn, reused) = self.connection(scope, &candidate.address, fresh)?;
                let reply =
                    match self.span(scope, "marshal", |_| conn.send_request(&request), no_detail) {
                        Ok(()) => self.span(scope, "wait", |_| conn.recv_timeout(timeout), no_detail),
                        Err(e) => answered_before_reading(conn.as_mut(), e),
                    };
                match reply {
                    Ok(reply) => break (conn, reply),
                    // A kept connection the server had closed says nothing
                    // about the server: this try goes on over a fresh dial,
                    // and whatever else was kept to that address — closed
                    // by the same restart or the same silence — goes too.
                    Err(e) if reused && hung_up(&e) && !left().is_zero() => {
                        self.link.m.conn_redials.inc();
                        self.forget_idle(&candidate.address);
                        fresh = true;
                    }
                    Err(e) => return Err(e),
                }
            };
            let (echoed, outputs, compute_secs, cached) = expect_reply!(
                reply,
                Message::RequestReply { request_id, outputs, compute_secs, cached } =>
                    (request_id, outputs, compute_secs, cached)
            )?;
            if echoed != ctx.request_id {
                return Err(NetSolveError::Protocol(format!(
                    "reply for request {echoed}, expected {}",
                    ctx.request_id
                )));
            }
            // Only here is the connection known to owe nothing: every
            // other way out of this try drops it, so a reply that comes
            // late can never be read as a later request's.
            self.keep_idle(&candidate.address, conn);
            if cached {
                self.link.m.cached_replies.inc();
                self.link.tracer.point(ctx, "client", "cached_reply", String::new());
            }
            call.spec.check_outputs(&outputs)?;
            let report = CallReport {
                request_id: ctx.request_id,
                trace_id: ctx.trace_id,
                server_id: candidate.server_id,
                server_address: candidate.address.clone(),
                predicted_secs: candidate.predicted_secs,
                total_secs: self.link.clock.since(start).as_secs_f64(),
                compute_secs,
                attempts,
            };
            Ok((outputs, report))
        };
        let served_by =
            |_: &_| format!("server={} address={}", candidate.server_id, candidate.address);
        self.span(call.scope, "attempt", exchange, served_by)
    }

    /// Stage: tell the agent how the try went, best effort. A completion
    /// clears the agent's pending-assignment and fault state for the
    /// server, and is owed ([`Self::owe`]): the call returns without
    /// waiting for it. A failure feeds the agent's fault record, and is
    /// sent at once inside the `report` span, with any owed completions
    /// ahead of it. A failure report that cannot be sent within the budget
    /// is skipped.
    fn report(
        &self,
        call: &Call<'_>,
        candidate: &Candidate,
        outcome: std::result::Result<&CallReport, &NetSolveError>,
    ) {
        let e = match outcome {
            Ok(done) => {
                let report = Message::CompletionReport {
                    server_id: candidate.server_id,
                    server_address: candidate.address.clone(),
                    client_host: 0,
                    problem: call.problem.to_string(),
                    total_secs: done.total_secs,
                    compute_secs: done.compute_secs,
                    bytes: call.shape.total_bytes(),
                };
                return self.owe(report);
            }
            Err(e) => e,
        };
        if call.scope.budget.spent() {
            return;
        }
        let msg = Message::FailureReport {
            server_id: candidate.server_id,
            // The address is what the agent actually resolves: ids are
            // per-agent, so after a failover the id alone would credit the
            // wrong server's fault state on the new agent.
            server_address: candidate.address.clone(),
            problem: call.problem.to_string(),
            code: e.code(),
            detail: e.detail().to_string(),
        };
        // Under the call's scope, so an agent failover provoked by the
        // report leg itself still lands in this request's trace.
        let send = |scope| self.agent_call(&msg, scope, false);
        let _ = self.span(call.scope, "report", send, |_| "failure".to_string());
    }
}

impl Drop for NetSolveClient {
    /// Write what is owed, and wait for nothing. Reports the flusher has
    /// already taken are its to send.
    fn drop(&mut self) {
        self.link.flush(self.link.roster.lock());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsolve_agent::{AgentCore, AgentDaemon};
    use netsolve_core::matrix::{vec_max_abs_diff, Matrix};
    use netsolve_core::rng::Rng64;
    use netsolve_net::{ChannelNetwork, ChaosPolicy, ChaosTransport};
    use netsolve_server::{ServerConfig, ServerCore, ServerDaemon};

    /// A fault-free chaos layer over a fresh channel network: everyone who
    /// dials through it sees a `kill` of an address.
    fn killable() -> Arc<ChaosTransport> {
        Arc::new(ChaosTransport::new(Arc::new(ChannelNetwork::new()), ChaosPolicy::calm(), 0))
    }

    struct Domain {
        net: Arc<ChaosTransport>,
        agent: AgentDaemon,
        servers: Vec<ServerDaemon>,
    }

    fn bring_up(server_specs: &[(&str, f64)]) -> Domain {
        bring_up_on(killable(), server_specs)
    }

    fn bring_up_on(net: Arc<ChaosTransport>, server_specs: &[(&str, f64)]) -> Domain {
        let transport: Arc<dyn Transport> = net.clone();
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
            NetSolveClient::new(self.net.clone(), "agent")
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

    /// A transport whose connections refuse to `send` a `RequestSubmit`,
    /// so a request can only leave through `send_request`, framed from the
    /// caller's borrowed operands.
    struct BorrowOnly(Arc<dyn Transport>);

    struct BorrowOnlyConnection(Box<dyn Connection>);

    impl Transport for BorrowOnly {
        fn listen(&self, hint: &str) -> Result<Box<dyn netsolve_net::Listener>> {
            self.0.listen(hint)
        }
        fn connect(&self, address: &str) -> Result<Box<dyn Connection>> {
            Ok(Box::new(BorrowOnlyConnection(self.0.connect(address)?)))
        }
    }

    impl Connection for BorrowOnlyConnection {
        fn send(&mut self, msg: &Message) -> Result<()> {
            assert!(
                !matches!(msg, Message::RequestSubmit { .. }),
                "the request's operands were copied into an owned message"
            );
            self.0.send(msg)
        }
        fn send_request(&mut self, req: &RequestView<'_>) -> Result<()> {
            self.0.send_request(req)
        }
        fn recv(&mut self) -> Result<Message> {
            self.0.recv()
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Result<Message> {
            self.0.recv_timeout(timeout)
        }
        fn peer(&self) -> String {
            self.0.peer()
        }
    }

    #[test]
    fn a_call_frames_its_request_from_the_callers_operands() {
        let domain = bring_up(&[("hostA", 100.0)]);
        let client = NetSolveClient::new(Arc::new(BorrowOnly(domain.net.clone())), "agent");
        let out = client
            .netsl("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()])
            .unwrap();
        assert_eq!(out[0].as_double().unwrap(), 11.0);
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
        domain.net.kill("srv0");
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
        domain.net.kill("srv0");
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
        domain.net.kill("srv0");
        let err = client
            .netsl("ddot", &[vec![1.0].into(), vec![1.0].into()])
            .unwrap_err();
        assert_ne!(err.class(), ErrorClass::Request, "got {err}");
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
            domain.net.kill(&format!("srv{i}"));
        }
        let client = domain.client().with_retry(RetryPolicy {
            max_attempts: 5,
            attempt_timeout_secs: 5.0,
            backoff: Backoff::Fixed { delay_secs: 0.1 },
            deadline_secs: 0.15,
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

    /// The clock seam, end to end: agent, servers and client all read the
    /// virtual clock their transport carries. The first try meets a
    /// refused dial, the client backs off on that clock, and the 10 s
    /// budget runs out during the pause — clamped from the minute the
    /// backoff asked for — without a second of wall time.
    #[test]
    fn a_virtual_clock_spends_the_budget_in_the_backoff_pause() {
        use netsolve_core::clock::VirtualClock;
        use netsolve_core::config::{Backoff, RetryPolicy};
        let wall = Instant::now();
        let clock = VirtualClock::new();
        let net = ChannelNetwork::new().with_clock(Arc::new(clock.clone()));
        let chaos = Arc::new(ChaosTransport::new(Arc::new(net), ChaosPolicy::calm(), 0));
        let domain = bring_up_on(chaos, &[("fast", 1000.0), ("slow", 10.0)]);
        domain.net.kill("srv0");
        let client = domain.client().with_retry(RetryPolicy {
            max_attempts: 3,
            attempt_timeout_secs: 5.0,
            backoff: Backoff::Fixed { delay_secs: 60.0 },
            deadline_secs: 10.0,
        });
        let started = clock.now();
        let err = client.netsl_timed("ddot", &[vec![2.0].into(), vec![3.0].into()]).unwrap_err();
        let exhausted = "deadline of 10.000s exhausted after 1 attempt(s)";
        assert!(matches!(&err, NetSolveError::Timeout(m) if m.contains(exhausted)), "{err}");
        let pauses = client.metrics().histogram("client.backoff_wait_secs");
        assert_eq!((pauses.count(), pauses.sum_secs()), (1, 10.0));
        assert_eq!(clock.since(started), Duration::from_secs(10));
        domain.shutdown();
        assert!(wall.elapsed() < Duration::from_secs(1), "took {:?}", wall.elapsed());
    }

    #[test]
    fn backoff_waits_between_failover_attempts() {
        use netsolve_core::config::{Backoff, RetryPolicy};
        let domain = bring_up(&[("fast", 1000.0), ("slow", 10.0)]);
        domain.net.kill("srv0");
        let client = domain.client().with_retry(RetryPolicy {
            max_attempts: 3,
            attempt_timeout_secs: 5.0,
            backoff: Backoff::Fixed { delay_secs: 0.08 },
            deadline_secs: 0.0,
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
    fn bring_up_federated() -> (Arc<ChaosTransport>, AgentDaemon, AgentDaemon, ServerDaemon) {
        use netsolve_core::config::{AgentConfig, GossipPolicy};
        let net = killable();
        let transport: Arc<dyn Transport> = net.clone();
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
                assert!(matches!(e.class(), ErrorClass::Load { .. }), "got {e}");
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

    /// A server at its connection cap sends Busy and hangs up before it
    /// reads, so the client's send can fail after the answer arrived.
    /// Every attempt must still read that answer: a Load-class error, a
    /// shed, never a Link failure that would count toward marking the
    /// server down.
    #[test]
    fn a_dial_to_a_server_at_its_connection_cap_is_shed_not_a_link_failure() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let mut agent =
            AgentDaemon::start(Arc::clone(&transport), "agent", AgentCore::with_defaults()).unwrap();
        let config = ServerConfig { max_connections: 1, ..ServerConfig::quick("hostA", "srv0", 200.0) };
        let mut server = ServerDaemon::start(
            Arc::clone(&transport),
            "agent",
            ServerCore::with_standard_catalogue(),
            config,
        )
        .unwrap();
        // Hold the server's one connection; the Pong proves it is served.
        let mut held = net.connect("srv0").unwrap();
        let pong = netsolve_net::call(held.as_mut(), &Message::Ping, Duration::from_secs(5));
        assert_eq!(pong.unwrap(), Message::Pong);

        let client = NetSolveClient::new(Arc::clone(&transport), "agent")
            .with_retry(RetryPolicy { max_attempts: 1, ..RetryPolicy::default() });
        for call in 0..20 {
            let e = client.netsl("ddot", &[vec![1.0].into(), vec![2.0].into()]).unwrap_err();
            assert!(matches!(e.class(), ErrorClass::Load { .. }), "call {call}: {e}");
        }
        let snap = agent.core().lock().metrics().snapshot("agent");
        assert_eq!(snap.counter("agent.failure_reports"), 20, "each shed was reported");
        assert_eq!(snap.counter("agent.fault_down_marks"), 0, "a shed counted as a fault");

        drop(held);
        server.stop();
        agent.stop();
    }

    #[test]
    fn client_fails_over_to_surviving_agent() {
        let (net, mut agent1, mut agent2, mut server) = bring_up_federated();
        let client =
            NetSolveClient::new_multi(net.clone(), &["agent-1".into(), "agent-2".into()]);
        // Warm call: ranks the agents and pins the winner.
        let (out, _) = client
            .netsl_timed("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()])
            .unwrap();
        assert_eq!(out[0].as_double().unwrap(), 11.0);
        let first = client.current_agent();

        // Kill whichever agent the client is talking to. Both agents know
        // the server (gossip), so the next call must fail over and solve.
        net.kill(&first);
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
        // ... and it is paced like a server failover: the wait is in the
        // histogram and a `backoff` span sits in the same trace.
        assert!(
            client.metrics().histogram("client.backoff_wait_secs").count() >= 1,
            "agent-failover wait missing from client.backoff_wait_secs"
        );
        assert!(
            spans.iter().any(|s| s.phase == "backoff"),
            "backoff span missing from the failover's trace"
        );

        // And the client sticks with the survivor: the next call costs no
        // further failover.
        let before = snap.counter("client.agent_failovers");
        client
            .netsl("ddot", &[vec![1.0].into(), vec![1.0].into()])
            .unwrap();
        let snap = client.metrics().snapshot("client");
        assert_eq!(snap.counter("client.agent_failovers"), before);

        net.revive(&first);
        server.stop();
        agent1.stop();
        agent2.stop();
    }

    #[test]
    fn agent_ranking_puts_unreachable_agents_last() {
        let domain = bring_up(&[("hostA", 100.0)]);
        // "agent-ghost" never listens: ranking must demote it so the
        // first call goes straight to the live agent, no failover burned.
        let client =
            NetSolveClient::new_multi(domain.net.clone(), &["agent-ghost".into(), "agent".into()]);
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

    /// A scripted peer: every frame on every connection is answered with
    /// `script(frame)`; `None` reads on without replying (a mute peer).
    /// Returns the count of connections it has accepted.
    fn stub(
        net: &ChannelNetwork,
        address: &str,
        script: impl Fn(Message) -> Option<Message> + Send + Sync + 'static,
    ) -> Arc<AtomicU64> {
        let listener = net.listen(address).unwrap();
        let script = Arc::new(script);
        let accepts = Arc::new(AtomicU64::new(0));
        let accepted = Arc::clone(&accepts);
        std::thread::spawn(move || {
            while let Ok(mut conn) = listener.accept() {
                accepted.fetch_add(1, Ordering::Relaxed);
                let script = Arc::clone(&script);
                std::thread::spawn(move || {
                    while let Ok(msg) = conn.recv() {
                        if script(msg).is_some_and(|reply| conn.send(&reply).is_err()) {
                            return;
                        }
                    }
                });
            }
        });
        accepts
    }

    /// A stub agent that knows `ddot` and ranks `servers` in the order
    /// given; returns its accept count. Like the real agent it answers
    /// every message but a completion report. One whose address starts
    /// with `stalling` also leaves unanswered the request that follows a
    /// report, once.
    fn stub_agent(net: &ChannelNetwork, address: &str, servers: &[&str]) -> Arc<AtomicU64> {
        let stalls = address.starts_with("stalling");
        let stalled = AtomicBool::new(false);
        let registry = netsolve_pdl::ProblemRegistry::with_standard_catalogue();
        let pdl = netsolve_pdl::render(registry.get("ddot").unwrap());
        let candidates: Vec<Candidate> = servers
            .iter()
            .zip(1..)
            .map(|(address, server_id)| Candidate {
                server_id,
                address: address.to_string(),
                predicted_secs: 0.01,
            })
            .collect();
        stub(net, address, move |msg| {
            if matches!(msg, Message::CompletionReport { .. }) {
                stalled.store(stalls, Ordering::Relaxed);
                return None;
            }
            if stalled.swap(false, Ordering::Relaxed) {
                return None;
            }
            Some(match msg {
                Message::DescribeProblem { problem } if problem == "ddot" => {
                    Message::ProblemDescription { pdl: pdl.clone() }
                }
                Message::DescribeProblem { problem } => {
                    Message::from_error(&NetSolveError::ProblemNotFound(problem))
                }
                Message::ServerQuery(_) => Message::ServerList { candidates: candidates.clone() },
                _ => Message::Pong,
            })
        })
    }

    /// A stub server that answers every `RequestSubmit` with
    /// `reply(request_id)`; returns its accept count.
    fn stub_server(
        net: &ChannelNetwork,
        address: &str,
        reply: impl Fn(u64) -> Message + Send + Sync + 'static,
    ) -> Arc<AtomicU64> {
        stub(net, address, move |msg| match msg {
            Message::RequestSubmit { request_id, .. } => Some(reply(request_id)),
            _ => None,
        })
    }

    fn answer(request_id: u64, cached: bool) -> Message {
        Message::RequestReply {
            request_id,
            outputs: vec![DataObject::Double(11.0)],
            compute_secs: 0.001,
            cached,
        }
    }

    fn policy(
        max_attempts: usize,
        backoff: netsolve_core::config::Backoff,
        deadline_secs: f64,
    ) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            attempt_timeout_secs: 1.0,
            backoff,
            deadline_secs,
        }
    }

    /// Regression: the deadline clock used to start after `describe` and
    /// `rank`, and agent legs waited the full attempt timeout — an agent
    /// that accepts and never answers held this call for 2.0 s.
    #[test]
    fn deadline_bounds_a_call_whose_only_agent_never_answers() {
        use netsolve_core::config::Backoff;
        let net = ChannelNetwork::new();
        stub(&net, "agent", |_| None);
        let client = NetSolveClient::new(Arc::new(net.clone()), "agent")
            .with_retry(policy(3, Backoff::None, 0.2));
        let start = Instant::now();
        let err = client.netsl("ddot", &[vec![1.0].into(), vec![1.0].into()]).unwrap_err();
        let elapsed = start.elapsed();
        assert!(matches!(err, NetSolveError::Timeout(_)), "got {err}");
        assert!(err.to_string().contains("deadline of 0.200s exhausted"), "got {err}");
        assert!(
            elapsed < Duration::from_millis(600),
            "deadline did not bound the agent leg: {elapsed:?}"
        );
        let snap = client.metrics().snapshot("client");
        assert_eq!(snap.counter("client.deadline_exhausted"), 1);
        assert_eq!(snap.counter("client.calls_failed"), 1);
    }

    /// The budget clamps the agent legs without breaking agent failover: a
    /// preferred agent gone mute costs its two (clamped) tries, then the
    /// next agent answers and the call completes inside the deadline.
    #[test]
    fn a_mute_preferred_agent_is_failed_over_inside_the_deadline() {
        use netsolve_core::config::Backoff;
        let net = ChannelNetwork::new();
        stub(&net, "agent-mute", |msg| matches!(msg, Message::Ping).then_some(Message::Pong));
        let client = NetSolveClient::new_multi(
            Arc::new(net.clone()),
            &["agent-mute".into(), "agent-live".into()],
        )
        .with_retry(RetryPolicy { attempt_timeout_secs: 0.1, ..policy(3, Backoff::None, 2.0) });
        // Rank while only the mute agent listens (it answers the probe),
        // so it is deterministically the preferred one.
        assert!(client.list_problems().is_err());
        assert_eq!(client.current_agent(), "agent-mute");
        stub_agent(&net, "agent-live", &["srv"]);
        stub_server(&net, "srv", |id| answer(id, false));

        let start = Instant::now();
        let out = client.netsl("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()]).unwrap();
        let elapsed = start.elapsed();
        assert_eq!(out[0].as_double().unwrap(), 11.0);
        assert!(
            elapsed >= Duration::from_millis(200),
            "two 0.1 s tries on the mute agent: {elapsed:?}"
        );
        assert!(elapsed < Duration::from_secs(2), "finished outside the budget: {elapsed:?}");
        assert_eq!(client.current_agent(), "agent-live");
        let snap = client.metrics().snapshot("client");
        assert_eq!(
            snap.counter("client.agent_failovers"),
            2,
            "one per request that met the mute agent"
        );
        assert_eq!(snap.counter("client.deadline_exhausted"), 0);
    }

    /// Writes and receives per dialled address.
    type Tally = Arc<Mutex<HashMap<String, (u64, u64)>>>;

    /// A transport that counts each connection's writes — a `send`, a
    /// `send_request` or a `send_batch` is one — and its receives by the
    /// address it dialled, and hands its clients `clock`.
    struct Counting {
        inner: Arc<dyn Transport>,
        clock: Arc<dyn Clock>,
        tally: Tally,
    }

    struct CountingConnection {
        inner: Box<dyn Connection>,
        address: String,
        tally: Tally,
    }

    impl CountingConnection {
        fn write(&self) {
            self.tally.lock().entry(self.address.clone()).or_default().0 += 1;
        }
        fn receive(&self) {
            self.tally.lock().entry(self.address.clone()).or_default().1 += 1;
        }
    }

    impl Transport for Counting {
        fn listen(&self, hint: &str) -> Result<Box<dyn netsolve_net::Listener>> {
            self.inner.listen(hint)
        }
        fn connect(&self, address: &str) -> Result<Box<dyn Connection>> {
            let (inner, tally) = (self.inner.connect(address)?, Arc::clone(&self.tally));
            Ok(Box::new(CountingConnection { inner, address: address.to_string(), tally }))
        }
        fn clock(&self) -> Arc<dyn Clock> {
            Arc::clone(&self.clock)
        }
    }

    impl Connection for CountingConnection {
        fn send(&mut self, msg: &Message) -> Result<()> {
            self.write();
            self.inner.send(msg)
        }
        fn send_request(&mut self, req: &RequestView<'_>) -> Result<()> {
            self.write();
            self.inner.send_request(req)
        }
        fn send_batch(&mut self, msgs: &[&Message]) -> Result<()> {
            self.write();
            self.inner.send_batch(msgs)
        }
        fn recv(&mut self) -> Result<Message> {
            self.receive();
            self.inner.recv()
        }
        fn recv_timeout(&mut self, timeout: Duration) -> Result<Message> {
            self.receive();
            self.inner.recv_timeout(timeout)
        }
        fn peer(&self) -> String {
            self.inner.peer()
        }
    }

    /// Poll `cond` every millisecond until it holds, failing once `bound`
    /// has passed; returns how long it took.
    fn within(bound: Duration, what: &str, cond: impl Fn() -> bool) -> Duration {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < bound, "{what}: not within {bound:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
        start.elapsed()
    }

    /// Over loopback TCP, a warm tiny call writes once to the agent — its
    /// query, with the last call's completion report ahead of it — and
    /// receives once from it: nothing answers the report, and the query's
    /// reply confirms it. It writes and receives once on the server
    /// connection too. The client's clock is held still, so no report ever
    /// waits long enough for the flusher to send it alone.
    #[test]
    fn a_warm_tiny_call_makes_one_agent_write_and_one_server_write() {
        use netsolve_core::clock::VirtualClock;
        use netsolve_net::TcpTransport;
        let tcp: Arc<dyn Transport> = Arc::new(TcpTransport::new());
        let mut agent =
            AgentDaemon::start(Arc::clone(&tcp), "127.0.0.1:0", AgentCore::with_defaults()).unwrap();
        let mut server = ServerDaemon::start(
            Arc::clone(&tcp),
            agent.address(),
            ServerCore::with_standard_catalogue(),
            ServerConfig::quick("tcp-host", "127.0.0.1:0", 100.0),
        )
        .unwrap();
        let tally = Tally::default();
        let clock = Arc::new(VirtualClock::new());
        let counting = Counting { inner: tcp, clock, tally: Arc::clone(&tally) };
        let client = NetSolveClient::new(Arc::new(counting), agent.address());
        let inputs = [vec![0.5f64; 8].into(), vec![2.0f64; 8].into()];
        for _ in 0..3 {
            client.netsl("ddot", &inputs).unwrap();
        }
        tally.lock().clear();
        let calls = 50;
        for _ in 0..calls {
            assert_eq!(client.netsl("ddot", &inputs).unwrap()[0].as_double().unwrap(), 8.0);
        }
        let counted = |address: &str| tally.lock().get(address).copied().unwrap_or_default();
        assert_eq!(counted(agent.address()), (calls, calls), "agent writes and receives");
        assert_eq!(counted(server.address()), (calls, calls), "server writes and receives");
        let success_reports = || {
            agent.core().lock().metrics().snapshot("agent").counter("agent.success_reports")
        };
        assert_eq!(success_reports(), 3 + calls - 1, "every report but the last has ridden");
        drop(client);
        // The drop writes the last report and waits for nothing.
        let last = || success_reports() == 3 + calls;
        within(Duration::from_secs(1), "the report the drop wrote", last);
        server.stop();
        agent.stop();
    }

    /// A client that makes one call and then goes quiet leaves no phantom
    /// assignment at the agent: the flusher sends the owed report once it
    /// has waited `REPORT_FLUSH`, well inside twice that.
    #[test]
    fn an_idle_clients_report_reaches_the_agent_within_two_flush_periods() {
        let domain = bring_up(&[("hostA", 100.0)]);
        let client = domain.client();
        let agent = domain.agent.core();
        let pending = || agent.lock().metrics().snapshot("agent").gauge("agent.pending_assignments");
        client.netsl("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()]).unwrap();
        let took = within(2 * REPORT_FLUSH, "the idle client's report", || pending() == 0);
        assert!(took >= REPORT_FLUSH / 2, "sent before it was due: {took:?}");
        let snap = agent.lock().metrics().snapshot("agent");
        assert_eq!(snap.counter("agent.success_reports"), 1);
        assert_eq!(client.metrics().snapshot("client").counter("client.reports_dropped"), 0);
        domain.shutdown();
    }

    /// A stub agent at `address` that answers a `ddot` call's requests
    /// (describe and query, ranking `srv` alone) and nothing else, and
    /// counts the completion reports it reads.
    fn mute_agent(net: &ChannelNetwork, address: &str) -> (Arc<AtomicU64>, Arc<AtomicU64>) {
        let registry = netsolve_pdl::ProblemRegistry::with_standard_catalogue();
        let pdl = netsolve_pdl::render(registry.get("ddot").unwrap());
        let srv = Candidate { server_id: 1, address: "srv".into(), predicted_secs: 0.01 };
        let reports = Arc::new(AtomicU64::new(0));
        let read = Arc::clone(&reports);
        let accepts = stub(net, address, move |msg| match msg {
            Message::DescribeProblem { .. } => {
                Some(Message::ProblemDescription { pdl: pdl.clone() })
            }
            Message::ServerQuery(_) => Some(Message::ServerList { candidates: vec![srv.clone()] }),
            Message::CompletionReport { .. } => {
                read.fetch_add(1, Ordering::Relaxed);
                None
            }
            _ => None,
        });
        (accepts, reports)
    }

    /// The flusher never waits on an agent. Two clients in one process each
    /// make one call and go idle, the first against an agent that answers
    /// a call's requests and nothing else: the second client's report
    /// still reaches its own agent within two flush periods, though the
    /// first client's fell due before it. (A flush that waited for a reply
    /// would hold the one flusher for the first client's 30 s attempt
    /// timeout.)
    #[test]
    fn a_mute_agent_holds_back_no_other_clients_idle_flush() {
        let net = ChannelNetwork::new();
        let (_, reports) = mute_agent(&net, "mute");
        stub_server(&net, "srv", |id| answer(id, false));
        let inputs = [vec![1.0, 2.0].into(), vec![3.0, 4.0].into()];
        let muted = NetSolveClient::new(Arc::new(net), "mute");
        muted.netsl("ddot", &inputs).unwrap();

        let domain = bring_up(&[("hostA", 100.0)]);
        let agent = domain.agent.core();
        let pending = || agent.lock().metrics().snapshot("agent").gauge("agent.pending_assignments");
        let client = domain.client();
        client.netsl("ddot", &inputs).unwrap();
        within(2 * REPORT_FLUSH, "the second client's report", || pending() == 0);
        assert_eq!(reports.load(Ordering::Relaxed), 1, "the first client's report was written");
        for client in [&muted, &client] {
            assert_eq!(client.metrics().snapshot("client").counter("client.reports_dropped"), 0);
        }
        drop(client);
        domain.shutdown();
    }

    /// A flush to an agent that answers no report leaves nothing to wait
    /// for and holds no lock a call needs: a call made after the flusher
    /// has written ends well inside its 0.5 s deadline on the connection
    /// the flush gave back, and no report is dropped.
    #[test]
    fn a_call_made_after_a_flush_to_a_mute_agent_keeps_its_deadline() {
        let net = ChannelNetwork::new();
        let (accepts, reports) = mute_agent(&net, "mute");
        stub_server(&net, "srv", |id| answer(id, false));
        let retry = RetryPolicy {
            max_attempts: 1,
            attempt_timeout_secs: 1.5,
            backoff: netsolve_core::config::Backoff::None,
            deadline_secs: 0.5,
        };
        let client = NetSolveClient::new(Arc::new(net), "mute").with_retry(retry);
        let inputs = [vec![1.0, 2.0].into(), vec![3.0, 4.0].into()];
        client.netsl("ddot", &inputs).unwrap();
        within(Duration::from_secs(1), "the flushed report", || {
            reports.load(Ordering::Relaxed) == 1
        });
        let start = Instant::now();
        assert_eq!(client.netsl("ddot", &inputs).unwrap()[0].as_double().unwrap(), 11.0);
        assert!(start.elapsed() < Duration::from_millis(250), "took {:?}", start.elapsed());
        assert_eq!(accepts.load(Ordering::Relaxed), 1, "the flush gave the connection back");
        assert_eq!(client.metrics().snapshot("client").counter("client.reports_dropped"), 0);
        drop(client);
        within(Duration::from_secs(1), "the dropped client's report", || {
            reports.load(Ordering::Relaxed) == 2
        });
    }

    /// A client dropped right after a call has written its report when
    /// `drop` returns, and has waited for nothing: the agent applies it
    /// just after. On a held virtual clock the flusher never sends it, so
    /// the drop is what does.
    #[test]
    fn a_dropped_client_writes_what_it_owes_without_waiting() {
        use netsolve_core::clock::VirtualClock;
        let net = ChannelNetwork::new().with_clock(Arc::new(VirtualClock::new()));
        let domain =
            bring_up_on(Arc::new(ChaosTransport::new(Arc::new(net), ChaosPolicy::calm(), 0)), &[
                ("hostA", 100.0),
            ]);
        let agent = domain.agent.core();
        let reports = || agent.lock().metrics().snapshot("agent").counter("agent.success_reports");
        let client = domain.client();
        client.netsl("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()]).unwrap();
        std::thread::sleep(2 * REPORT_FLUSH);
        assert_eq!(reports(), 0, "owed, and never due on a held clock");
        drop(client);
        within(Duration::from_secs(1), "the report the drop wrote", || reports() == 1);
        let snap = agent.lock().metrics().snapshot("agent");
        assert_eq!(snap.gauge("agent.pending_assignments"), 0);
        domain.shutdown();
    }

    /// A completion report for `srv0`, the first server of a domain.
    fn srv0_report() -> Message {
        Message::CompletionReport {
            server_id: 1,
            server_address: "srv0".into(),
            client_host: 0,
            problem: "ddot".into(),
            total_secs: 0.001,
            compute_secs: 0.0001,
            bytes: 32,
        }
    }

    /// A domain over a calm chaos layer on a held virtual clock, on which
    /// no owed report ever falls due for the flusher.
    fn held_clock_domain() -> Domain {
        use netsolve_core::clock::VirtualClock;
        let net = ChannelNetwork::new().with_clock(Arc::new(VirtualClock::new()));
        bring_up_on(Arc::new(ChaosTransport::new(Arc::new(net), ChaosPolicy::calm(), 0)), &[(
            "hostA", 100.0,
        )])
    }

    /// A client shared by threads may owe several reports, up to
    /// `MAX_OWED`: the report that fills the list writes them all at once.
    #[test]
    fn the_report_that_fills_the_owed_list_sends_it() {
        let domain = held_clock_domain();
        let agent = domain.agent.core();
        let reports = || agent.lock().metrics().snapshot("agent").counter("agent.success_reports");
        let client = domain.client();
        client.netsl("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()]).unwrap();
        for _ in 1..MAX_OWED - 1 {
            client.owe(srv0_report());
        }
        assert_eq!(client.link.roster.lock().owed.len(), MAX_OWED - 1);
        assert_eq!(reports(), 0, "owed, on a held clock");
        client.owe(srv0_report());
        assert!(client.link.roster.lock().owed.is_empty());
        let all = || reports() == MAX_OWED as u64;
        within(Duration::from_secs(1), "the call's own report and every other", all);
        drop(client);
        domain.shutdown();
    }

    /// A client configured again after it has owed a report moves to a
    /// copy of its link, and what it owes goes along: the next call
    /// carries it.
    #[test]
    fn a_client_configured_after_a_call_keeps_what_it_owes() {
        let domain = held_clock_domain();
        let agent = domain.agent.core();
        let reports = || agent.lock().metrics().snapshot("agent").counter("agent.success_reports");
        let inputs = [vec![1.0, 2.0].into(), vec![3.0, 4.0].into()];
        let client = domain.client();
        client.netsl("ddot", &inputs).unwrap();
        let retry = RetryPolicy { attempt_timeout_secs: 5.0, ..RetryPolicy::default() };
        let client = client.with_retry(retry);
        assert_eq!(client.link.retry.attempt_timeout_secs, 5.0);
        assert_eq!(client.link.roster.lock().owed.len(), 1);
        client.netsl("ddot", &inputs).unwrap();
        assert_eq!(reports(), 1, "the first call's report rode the second call's query");
        drop(client);
        within(Duration::from_secs(1), "the report the drop wrote", || reports() == 2);
        domain.shutdown();
    }

    /// Threads owing at once on a client that has made no call yet never
    /// take the list past its bound, and the request made after them
    /// carries what is left: every report reaches the agent once. (Full-
    /// list flushes racing for the one kept connection may dial their
    /// own, which nothing later confirms, so the count is polled.)
    #[test]
    fn threads_owing_at_once_keep_the_owed_list_within_its_bound() {
        let domain = held_clock_domain();
        let agent = domain.agent.core();
        let reports = || agent.lock().metrics().snapshot("agent").counter("agent.success_reports");
        let client = domain.client();
        let (threads, each) = (4, MAX_OWED + 1);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    for _ in 0..each {
                        client.owe(srv0_report());
                        assert!(client.link.roster.lock().owed.len() < MAX_OWED);
                    }
                });
            }
        });
        assert!(client.list_problems().unwrap().contains(&"ddot".to_string()));
        assert!(client.link.roster.lock().owed.is_empty());
        let all = (threads * each) as u64;
        within(Duration::from_secs(1), "every report", || reports() >= all);
        assert_eq!(reports(), all, "each report once");
        assert_eq!(client.metrics().snapshot("client").counter("client.reports_dropped"), 0);
        drop(client);
        domain.shutdown();
    }

    /// What one call left behind.
    struct Seen {
        result: Result<(Vec<DataObject>, CallReport)>,
        elapsed: Duration,
        stats: netsolve_obs::StatsSnapshot,
        /// `client` span and point names, in recording order.
        phases: Vec<&'static str>,
        /// Names of the spans that ended in an error (`err=…`).
        failed: Vec<&'static str>,
        /// Server connections the client kept when the call was over.
        idle: usize,
        /// Connections the row's server stubs have accepted (rows that
        /// read this have their stubs to themselves).
        accepts: u64,
    }

    impl Seen {
        fn count(&self, phase: &str) -> usize {
            self.phases.iter().filter(|p| **p == phase).count()
        }
    }

    /// Drive one call down every row of DESIGN.md §4p's table — each way a
    /// call can end — against scripted peers, a fresh client per row.
    fn drive_every_row() -> Vec<(&'static str, Seen)> {
        use netsolve_core::admission::{format_busy_detail, ShedReason};
        use netsolve_core::config::Backoff;

        let net = ChannelNetwork::new();
        // Clients dial through a calm chaos layer, so a row can kill a peer.
        let chaos = Arc::new(ChaosTransport::new(Arc::new(net.clone()), ChaosPolicy::calm(), 0));
        let mut accepts = HashMap::new();
        let mut serve = |address: &'static str, reply: fn(u64) -> Message| {
            accepts.insert(address, stub_server(&net, address, reply));
        };
        serve("ok", |id| answer(id, false));
        serve("kept", |id| answer(id, false));
        serve("cache", |id| answer(id, true));
        serve("liar", |id| answer(id ^ 1, false));
        serve("busy", |_| {
            let detail = format_busy_detail(ShedReason::QueueFull, 3, 60);
            Message::from_error(&NetSolveError::Resource(detail))
        });
        serve("broken", |_| {
            Message::from_error(&NetSolveError::ExecutionFailed("disk full".into()))
        });
        serve("singular", |_| {
            Message::from_error(&NetSolveError::Numerical("singular matrix".into()))
        });
        // Answers its first request later than the row's attempt timeout,
        // on whichever connection that came in, and the rest at once.
        let first = std::sync::atomic::AtomicBool::new(true);
        let slow = stub_server(&net, "slow", move |id| {
            if first.swap(false, Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(150));
            }
            answer(id, false)
        });
        accepts.insert("slow", slow);
        // Answers one request per connection and hangs up — `closer` right
        // after the reply, `swallower` once it has read a second request,
        // which is lost the way a frame that fails its CRC is. `laggard`
        // takes 300 ms over hanging up, and over every reply but its first.
        for (address, swallows, lag_ms) in
            [("closer", false, 0), ("swallower", true, 0), ("laggard", true, 300)]
        {
            let accepted = Arc::new(AtomicU64::new(0));
            accepts.insert(address, Arc::clone(&accepted));
            let listener = net.listen(address).unwrap();
            std::thread::spawn(move || {
                while let Ok(mut conn) = listener.accept() {
                    let lag = Duration::from_millis(lag_ms);
                    let first = accepted.fetch_add(1, Ordering::Relaxed) == 0;
                    std::thread::spawn(move || {
                        if let Ok(Message::RequestSubmit { request_id, .. }) = conn.recv() {
                            std::thread::sleep(if first { Duration::ZERO } else { lag });
                            let _ = conn.send(&answer(request_id, false));
                        }
                        if swallows && conn.recv().is_ok() {
                            std::thread::sleep(lag);
                        }
                    });
                }
            });
        }

        let good = [vec![1.0, 2.0].into(), vec![3.0, 4.0].into()];
        let bad = [DataObject::Int(3)];
        let plain = policy(3, Backoff::None, 0.0);
        let paced = policy(3, Backoff::Fixed { delay_secs: 0.01 }, 0.0);
        let mut rows = Vec::new();
        let mut row = |name: &'static str,
                       agents: &[&str],
                       servers: &[&str],
                       retry: RetryPolicy,
                       problem: &str,
                       inputs: &[DataObject],
                       prepare: &dyn Fn(&NetSolveClient)| {
            let agents: Vec<String> = agents.iter().map(|a| format!("{a}:{name}")).collect();
            for agent in agents.iter().filter(|a| !a.starts_with("ghost")) {
                stub_agent(&net, agent, servers);
            }
            let client =
                NetSolveClient::new_multi(chaos.clone(), &agents).with_retry(retry);
            prepare(&client);
            let start = Instant::now();
            let result = client.netsl_timed(problem, inputs);
            let spans = client.tracer().spans();
            let seen = Seen {
                result,
                elapsed: start.elapsed(),
                stats: client.metrics().snapshot("client"),
                phases: spans.iter().map(|s| s.phase).collect(),
                failed: spans
                    .iter()
                    .filter(|s| s.detail.starts_with("err="))
                    .map(|s| s.phase)
                    .collect(),
                idle: client.idle_connections(),
                accepts: servers
                    .iter()
                    .filter_map(|address| accepts.get(address))
                    .map(|count| count.load(Ordering::Relaxed))
                    .sum(),
            };
            rows.push((name, seen));
        };
        let nothing = |_: &NetSolveClient| {};
        let warm = |client: &NetSolveClient| {
            client.netsl("ddot", &good).unwrap();
        };

        row("unknown problem", &["agent"], &["ok"], plain, "no_such_problem", &good, &nothing);
        row("bad arguments", &["agent"], &["ok"], plain, "ddot", &bad, &nothing);
        row("agent unreachable", &["ghost"], &[], plain, "ddot", &good, &nothing);
        row("no candidates", &["agent"], &[], plain, "ddot", &good, &nothing);
        row("first try", &["agent"], &["ok"], plain, "ddot", &good, &nothing);
        row("failover", &["agent"], &["nowhere", "ok"], paced, "ddot", &good, &nothing);
        row("busy hint", &["agent"], &["busy", "ok"], plain, "ddot", &good, &nothing);
        row("host failure", &["agent"], &["broken"], plain, "ddot", &good, &nothing);
        row("wrong request id", &["agent"], &["liar", "ok"], plain, "ddot", &good, &nothing);
        row("non-retryable", &["agent"], &["singular", "ok"], plain, "ddot", &good, &nothing);
        row("attempts exhausted", &["agent"], &["nowhere"], plain, "ddot", &good, &nothing);
        let tight = policy(100, Backoff::Fixed { delay_secs: 0.05 }, 0.12);
        row("deadline exhausted", &["agent"], &["nowhere"], tight, "ddot", &good, &nothing);
        // The stub reads the warm call's report and never answers the
        // query behind it on that connection.
        let brief = RetryPolicy { attempt_timeout_secs: 0.2, ..plain };
        row("owed report dropped", &["stalling"], &["ok"], brief, "ddot", &good, &warm);
        row("cached reply", &["agent"], &["cache"], plain, "ddot", &good, &nothing);
        // The connection store (DESIGN.md §4p "connection lifecycle"):
        // each row's call is the second on a client whose first kept one.
        row("kept connection", &["agent"], &["kept"], plain, "ddot", &good, &warm);
        row("kept connection closed", &["agent"], &["closer"], plain, "ddot", &good, &warm);
        row("request lost", &["agent"], &["swallower"], plain, "ddot", &good, &|client| {
            // Two more kept connections beside the one the warm call uses.
            for _ in 0..2 {
                client.keep_idle("swallower", client.link.transport.connect("swallower").unwrap());
            }
            warm(client);
        });
        let once = RetryPolicy { attempt_timeout_secs: 0.4, ..policy(1, Backoff::None, 0.0) };
        row("kept connection lost late", &["agent"], &["laggard"], once, "ddot", &good, &warm);
        let hasty = RetryPolicy { attempt_timeout_secs: 0.05, ..plain };
        row("late reply", &["agent"], &["slow"], hasty, "ddot", &good, &nothing);
        row("agent failover", &["agent-a", "agent-b"], &["ok"], paced, "ddot", &good, &|client| {
            // Warm call ranks and pins an agent; that agent then dies.
            client.netsl("ddot", &good).unwrap();
            chaos.kill(&client.current_agent());
        });
        rows
    }

    /// One call down every row of DESIGN.md §4p: how it ends, and the
    /// counter and span the table names for that row.
    #[test]
    fn one_call_down_every_row_of_the_call_path() {
        use NetSolveError::*;
        let rows = drive_every_row();
        for (name, seen) in &rows {
            let count = |metric: &str| seen.stats.counter(metric);
            assert_eq!(
                count("client.calls"),
                count("client.calls_ok") + count("client.calls_failed"),
                "{name}: calls == calls_ok + calls_failed"
            );
            assert_eq!(seen.result.is_ok(), count("client.calls_failed") == 0, "{name}");
            assert_eq!(count("client.attempts") as usize, seen.count("attempt"), "{name}");
        }
        let row = |name: &str| {
            let found = rows.iter().find(|(row, _)| *row == name);
            &found.unwrap_or_else(|| panic!("no row named {name}")).1
        };
        let attempts_of =
            |seen: &Seen| seen.result.as_ref().map(|(_, report)| report.attempts).ok();
        let waits = |seen: &Seen| {
            seen.stats.histogram("client.backoff_wait_secs").map_or(0, |h| h.count)
        };

        // Ends before the ids are minted: counted, but no span and no try.
        let seen = row("unknown problem");
        assert!(matches!(seen.result, Err(ProblemNotFound(_))));
        assert!(seen.phases.is_empty());
        let seen = row("bad arguments");
        assert!(matches!(seen.result, Err(BadArguments(_))));
        assert!(seen.phases.is_empty(), "no server traffic: {:?}", seen.phases);
        let seen = row("agent unreachable");
        assert!(matches!(seen.result, Err(ServerUnreachable(_))));
        assert!(seen.phases.is_empty());

        // Ends in `rank`.
        let seen = row("no candidates");
        assert!(matches!(seen.result, Err(NoServerAvailable(_))));
        assert_eq!(seen.phases, ["rank", "call"]);

        // Answered: the parent's spans, and the completion report owed to
        // the next agent request (or the flusher, or the drop).
        let seen = row("first try");
        assert_eq!(attempts_of(seen), Some(1));
        assert_eq!(seen.phases, ["rank", "connect", "marshal", "wait", "attempt", "call_ok", "call"]);
        assert_eq!(seen.stats.counter("client.attempt_failures"), 0);
        assert_eq!(seen.stats.histogram("client.call_secs").map(|h| h.count), Some(1));
        assert_eq!((seen.stats.counter("client.dials"), seen.idle), (1, 1), "dialled and kept");

        let seen = row("failover");
        assert_eq!(attempts_of(seen), Some(2));
        assert_eq!(seen.stats.counter("client.attempt_failures"), 1);
        assert_eq!(seen.count("attempt_failed"), 1);
        assert_eq!(seen.count("report"), 1, "one failure report; the completion is owed");
        assert_eq!((seen.count("backoff"), waits(seen)), (1, 1));

        let seen = row("busy hint");
        assert_eq!(attempts_of(seen), Some(2));
        assert_eq!(seen.stats.counter("client.busy_hints"), 1);
        assert_eq!((seen.count("backoff"), waits(seen)), (1, 1));
        assert!(
            seen.elapsed >= Duration::from_millis(55),
            "the 60 ms hint floors the wait: {:?}",
            seen.elapsed
        );

        // Retryable, but the candidate is spent by address: one try, not three.
        let seen = row("host failure");
        assert!(matches!(seen.result, Err(ExecutionFailed(_))));
        assert_eq!(seen.stats.counter("client.attempts"), 1);
        assert_eq!((seen.count("attempt_failed"), seen.count("call_failed")), (1, 1));

        // Fatal: no second try, no failure report.
        for (name, is_expected) in [
            ("wrong request id", (|e| matches!(e, Protocol(_))) as fn(&NetSolveError) -> bool),
            ("non-retryable", |e| matches!(e, Numerical(_))),
        ] {
            let seen = row(name);
            assert!(seen.result.as_ref().is_err_and(is_expected), "{name}");
            assert_eq!(seen.stats.counter("client.attempts"), 1, "{name}");
            assert_eq!(seen.stats.counter("client.attempt_failures"), 0, "{name}");
            assert_eq!((seen.count("call_failed"), seen.count("report")), (1, 0), "{name}");
            // Neither a wrong echoed id nor an `Error` frame is kept.
            assert_eq!(seen.idle, 0, "{name}");
        }

        let seen = row("attempts exhausted");
        assert!(matches!(seen.result, Err(ServerUnreachable(_))));
        assert_eq!(seen.stats.counter("client.attempts"), 3);
        assert_eq!(seen.stats.counter("client.attempt_failures"), 3);
        assert_eq!((seen.count("call_failed"), seen.count("report")), (1, 3));

        let seen = row("deadline exhausted");
        assert!(matches!(seen.result, Err(Timeout(_))));
        assert_eq!(seen.stats.counter("client.deadline_exhausted"), 1);
        assert_eq!((seen.count("deadline_exhausted"), seen.count("call_failed")), (1, 0));
        assert!(seen.elapsed < Duration::from_secs(1), "{:?}", seen.elapsed);

        // The warm call's report rides this call's query and is written,
        // and the agent never answers the query: the report is
        // unconfirmed, so it is dropped and counted, and the query alone,
        // on a fresh dial, still ranks the call.
        let seen = row("owed report dropped");
        assert_eq!(attempts_of(seen), Some(1));
        assert_eq!(seen.stats.counter("client.reports_dropped"), 1);
        assert_eq!(seen.count("report"), 1);
        assert!(seen.failed.is_empty(), "the report's write went out: {:?}", seen.failed);
        assert_eq!(seen.stats.counter("client.agent_failovers"), 0);
        assert!(seen.elapsed >= Duration::from_millis(200), "{:?}", seen.elapsed);

        let seen = row("cached reply");
        assert_eq!(attempts_of(seen), Some(1));
        assert_eq!(seen.stats.counter("client.cached_replies"), 1);
        assert_eq!(seen.count("cached_reply"), 1);

        // The second call rides the first one's connection: nothing new
        // reaches the stub's listener. The first call's report rode its
        // query.
        let seen = row("kept connection");
        assert_eq!(attempts_of(seen), Some(1));
        assert_eq!((seen.count("report"), seen.failed.len()), (1, 0));
        assert_eq!(seen.stats.counter("client.reports_dropped"), 0);
        assert_eq!(seen.stats.counter("client.dials"), 1);
        assert_eq!(seen.stats.counter("client.conn_reused"), 1);
        assert_eq!((seen.accepts, seen.idle), (1, 1));

        // The peer closed the kept connection: the same try dials again,
        // and the server is not blamed.
        let seen = row("kept connection closed");
        assert_eq!(attempts_of(seen), Some(1));
        assert_eq!(seen.stats.counter("client.conn_redials"), 1);
        assert_eq!(seen.stats.counter("client.attempt_failures"), 0);
        assert_eq!((seen.stats.counter("client.dials"), seen.accepts), (2, 2));
        assert_eq!(seen.count("attempt_failed"), 0);

        // The kept connection took the request and hung up without a
        // reply: still one try and no failure report, and the other
        // connections kept to that server go with it.
        let seen = row("request lost");
        assert_eq!(attempts_of(seen), Some(1));
        assert_eq!(seen.stats.counter("client.attempts"), 2, "the warm call's and this one's");
        assert_eq!(seen.stats.counter("client.conn_redials"), 1);
        assert_eq!(seen.stats.counter("client.attempt_failures"), 0);
        assert_eq!((seen.count("attempt_failed"), seen.count("report")), (0, 1));
        assert_eq!((seen.stats.counter("client.dials"), seen.accepts, seen.idle), (1, 3, 1));

        // The kept connection hung up 300 ms into a 400 ms try: the redial
        // waits for what is left of the try, not for a second 400 ms, so
        // the reply that would have come at 600 ms is not waited for.
        let seen = row("kept connection lost late");
        assert!(matches!(seen.result, Err(Timeout(_))), "{:?}", seen.result);
        assert_eq!(seen.stats.counter("client.conn_redials"), 1);
        assert_eq!(seen.stats.counter("client.attempt_failures"), 1);
        assert!(seen.elapsed < Duration::from_millis(550), "{:?}", seen.elapsed);

        // A try that timed out drops its connection, so the reply that
        // comes 100 ms late is never read: the second try dials, and gets
        // the reply to its own request.
        let seen = row("late reply");
        assert_eq!(attempts_of(seen), Some(2));
        assert_eq!(seen.stats.counter("client.attempt_failures"), 1);
        assert_eq!(seen.stats.counter("client.conn_reused"), 0);
        assert_eq!((seen.stats.counter("client.dials"), seen.accepts), (2, 2));

        // The warm call's report was owed to the agent that died; its batch
        // never left, so it went to the agent that answered.
        let seen = row("agent failover");
        assert!(seen.result.is_ok());
        assert_eq!(seen.stats.counter("client.reports_dropped"), 0);
        assert_eq!((seen.count("report"), seen.failed.as_slice()), (2, ["report"].as_slice()));
        assert_eq!(seen.stats.counter("client.agent_failovers"), 1);
        assert_eq!((seen.count("agent_rank"), seen.count("agent_failover")), (1, 1));
        assert_eq!((seen.count("backoff"), waits(seen)), (1, 1));
    }

    /// `docs/OBSERVABILITY.md` is the catalogue dashboards rely on: every
    /// `client.*` instrument the declaration names and every `client` span
    /// phase the code emits must be listed there, and nothing listed there
    /// may have stopped being declared or emitted.
    #[test]
    fn observability_doc_lists_exactly_the_names_the_client_emits() {
        use std::collections::BTreeSet;
        let declared: BTreeSet<String> =
            ClientInstruments::NAMES.iter().map(|n| n.to_string()).collect();
        let mut emitted_phases = BTreeSet::new();
        for (_, seen) in drive_every_row() {
            emitted_phases.extend(seen.phases);
        }

        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        // Backticked tokens are the odd segments of a split on '`'.
        let ticked = |text: &'static str| text.split('`').skip(1).step_by(2);
        let doc_metrics: BTreeSet<String> = ticked(doc)
            .filter(|t| {
                t.strip_prefix("client.")
                    .is_some_and(|rest| rest.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'))
            })
            .map(str::to_string)
            .collect();
        let span_names = doc.split("## Span names").nth(1).expect("doc has a span section");
        let client_set = span_names
            .split("`client` ×")
            .nth(1)
            .and_then(|rest| rest.split('}').next())
            .expect("span section lists the client's phases in braces");
        let doc_phases: BTreeSet<&str> = ticked(client_set).collect();

        assert_eq!(declared, doc_metrics, "client.* instruments: declared vs documented");
        assert_eq!(emitted_phases, doc_phases, "client span phases: emitted vs documented");
        // What the benchmark's attribution reads must survive any rename.
        for phase in ["call", "rank", "connect", "marshal", "wait"] {
            assert!(emitted_phases.contains(phase), "attribution reads client/{phase}");
        }
    }
}
