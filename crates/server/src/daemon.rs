//! The live computational-server daemon: registers with an agent, serves
//! client requests, and reports workload on NetSolve's lazy policy. Its
//! accept loop, periodic workers and stop/join are the
//! [`netsolve_net::Daemon`] skeleton's.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use netsolve_core::admission::{
    format_busy_detail, AdmissionConfig, AdmissionDecision, AdmissionPolicy, ShedReason,
};
use netsolve_core::config::{TelemetryPolicy, WorkloadPolicy};
use netsolve_core::error::{NetSolveError, Result};
use netsolve_net::{call, call_once, Connection, Daemon, Transport};
use netsolve_proto::{Message, ServerDescriptor};
use parking_lot::Mutex;
// The parking_lot shim's MutexGuard *is* `std::sync::MutexGuard`, so std's
// Condvar pairs with it directly (same pattern as the solve cache).
use std::sync::Condvar;
use std::time::Instant;

use crate::core::ServerCore;

/// Static description of a server being brought up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Host name reported to the agent.
    pub host: String,
    /// Listen hint (transport-specific).
    pub listen_hint: String,
    /// Benchmarked (or emulated) performance, Mflop/s.
    pub mflops: f64,
    /// Workload reporting policy.
    pub workload: WorkloadPolicy,
    /// Concurrent requests considered "100% workload".
    pub capacity: u32,
    /// Hard cap on concurrent connection-service threads. Connections
    /// arriving past the cap are answered with a retryable Busy error and
    /// dropped, so a connection flood degrades into shed load instead of
    /// unbounded thread growth.
    pub max_connections: u32,
    /// Admission control. When set, requests pass an [`AdmissionPolicy`]
    /// gate *before* reserving one of `capacity` solve slots: queue-depth
    /// shed with hysteresis, deadline-aware early reject, and a distinct
    /// shed for budgets that expire while queued. `None` (the default)
    /// keeps the pre-admission behavior: every accepted connection solves
    /// immediately on its own thread.
    pub admission: Option<AdmissionConfig>,
    /// Telemetry sampling: how often the daemon snapshots its metrics
    /// into the windowed series that answers `FleetStatsQuery`.
    pub telemetry: TelemetryPolicy,
}

impl ServerConfig {
    /// Reasonable defaults for in-process experiments: a faster
    /// telemetry tick than the live default so short-lived test trios
    /// accumulate windowed history promptly.
    pub fn quick(host: &str, listen_hint: &str, mflops: f64) -> Self {
        ServerConfig {
            host: host.to_string(),
            listen_hint: listen_hint.to_string(),
            mflops,
            workload: WorkloadPolicy::default(),
            capacity: 1,
            max_connections: 64,
            admission: None,
            telemetry: TelemetryPolicy { tick_secs: 0.25, ..TelemetryPolicy::default() },
        }
    }
}

/// Bounded solve-slot gate guarding the cores behind the thread-per-
/// connection accept loop. `capacity` slots solve concurrently; everyone
/// else waits here — which is what makes queue-depth admission (and
/// "budget expired while queued") physically real on the live server.
struct AdmissionGate {
    policy: Arc<AdmissionPolicy>,
    slots: u32,
    in_service: Mutex<u32>,
    cond: Condvar,
    waiting: AtomicU32,
}

enum SlotOutcome {
    /// A solve slot is held; the caller must `release()` when done.
    Acquired,
    /// The request's deadline budget ran out while it waited; no slot
    /// was ever reserved.
    ExpiredInQueue,
}

impl AdmissionGate {
    fn new(policy: Arc<AdmissionPolicy>, slots: u32) -> Self {
        AdmissionGate {
            policy,
            slots: slots.max(1),
            in_service: Mutex::new(0),
            cond: Condvar::new(),
            waiting: AtomicU32::new(0),
        }
    }

    /// The solve queue a new arrival would join: requests waiting for a
    /// slot plus requests currently solving.
    fn depth(&self) -> usize {
        let in_service = *self.in_service.lock();
        self.waiting.load(Ordering::Acquire) as usize + in_service as usize
    }

    /// Wait for a solve slot, giving up (without ever reserving one) if
    /// the deadline budget expires first. `deadline_ms == 0` waits
    /// indefinitely.
    fn acquire(&self, received_at: Instant, deadline_ms: u64) -> SlotOutcome {
        let budget = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
        self.waiting.fetch_add(1, Ordering::AcqRel);
        let mut in_service = self.in_service.lock();
        loop {
            // Budget check *before* reserving: an expired request must
            // never consume a slot.
            if let Some(b) = budget {
                if received_at.elapsed() >= b {
                    self.waiting.fetch_sub(1, Ordering::AcqRel);
                    return SlotOutcome::ExpiredInQueue;
                }
            }
            if *in_service < self.slots {
                *in_service += 1;
                self.waiting.fetch_sub(1, Ordering::AcqRel);
                return SlotOutcome::Acquired;
            }
            in_service = match budget {
                Some(b) => {
                    let remaining = b.saturating_sub(received_at.elapsed());
                    self.cond
                        .wait_timeout(in_service, remaining)
                        .unwrap_or_else(|poisoned| poisoned.into_inner())
                        .0
                }
                None => self
                    .cond
                    .wait(in_service)
                    .unwrap_or_else(|poisoned| poisoned.into_inner()),
            };
        }
    }

    fn release(&self) {
        {
            let mut in_service = self.in_service.lock();
            *in_service = in_service.saturating_sub(1);
        }
        self.cond.notify_one();
    }
}

/// The daemon's windowed-stats surface, shared between the sampler
/// thread feeding it and the connection threads answering
/// `FleetStatsQuery` from it.
pub(crate) struct ServerTelemetry {
    /// This daemon's listen address — the digest `origin` key.
    pub address: String,
    /// The ring of per-tick snapshot deltas.
    pub series: netsolve_obs::WindowedSeries,
    /// Whether `FleetStatsQuery` is answered (off = unsupported Error,
    /// matching a pre-v6 daemon, for compat tests and overhead ablation).
    pub enabled: bool,
}

impl ServerTelemetry {
    /// This daemon's digest over its full retained window.
    pub fn digest(&self) -> netsolve_obs::StatsDigest {
        let cfg = self.series.config();
        self.series.digest(&self.address, "server", cfg.tick_secs * cfg.slots as f64)
    }
}

/// Handle to a running server daemon.
pub struct ServerDaemon {
    address: String,
    server_id: u64,
    active: Arc<AtomicU32>,
    requests_served: Arc<AtomicU64>,
    telemetry: Arc<ServerTelemetry>,
    daemon: Daemon,
}

impl ServerDaemon {
    /// Start a server: bind a listener, register with the agent at
    /// `agent_address`, then serve until stopped.
    pub fn start(
        transport: Arc<dyn Transport>,
        agent_address: &str,
        core: ServerCore,
        config: ServerConfig,
    ) -> Result<ServerDaemon> {
        let listener = transport.listen(&config.listen_hint)?;
        let address = listener.address();

        // Register with the agent.
        let descriptor = ServerDescriptor {
            server_id: 0,
            host: config.host.clone(),
            address: address.clone(),
            mflops: config.mflops,
            problems: core.problems().names(),
            pdl_source: core
                .problems()
                .list()
                .iter()
                .map(|spec| netsolve_pdl::render(spec))
                .collect::<Vec<_>>()
                .join("\n"),
        };
        let reply = call_once(
            transport.as_ref(),
            agent_address,
            &Message::RegisterServer(descriptor),
            Duration::from_secs(10),
        )?;
        let server_id = match reply {
            Message::RegisterAck { accepted: true, detail } => {
                detail.parse::<u64>().map_err(|_| {
                    NetSolveError::Registration(format!("agent returned bad id '{detail}'"))
                })?
            }
            Message::RegisterAck { accepted: false, detail } => {
                return Err(NetSolveError::Registration(detail))
            }
            other => {
                return Err(NetSolveError::Protocol(format!(
                    "unexpected registration reply {}",
                    other.name()
                )))
            }
        };

        // Admission: install the policy into the core (unless the caller
        // pre-wired one via `ServerCore::with_admission` — benches and
        // tests do, to share the policy object with a simulation), then
        // build the solve-slot gate around it.
        let mut core = core;
        if core.admission().is_none() {
            if let Some(cfg) = &config.admission {
                core = core.with_admission(Arc::new(AdmissionPolicy::new(cfg.clone())));
            }
        }
        let gate = core
            .admission()
            .map(|policy| Arc::new(AdmissionGate::new(Arc::clone(policy), config.capacity)));

        let core = Arc::new(core);
        let metrics = core.metrics();
        let active = Arc::new(AtomicU32::new(0));
        let requests_served = Arc::new(AtomicU64::new(0));
        let telemetry = Arc::new(ServerTelemetry {
            address: address.clone(),
            series: netsolve_obs::WindowedSeries::new(netsolve_obs::SeriesConfig {
                tick_secs: config.telemetry.tick_secs,
                slots: config.telemetry.window_slots,
            }),
            enabled: config.telemetry.digests,
        });
        let mut daemon = Daemon::new(Arc::clone(&transport));

        {
            let active = Arc::clone(&active);
            let served = Arc::clone(&requests_served);
            let telemetry = Arc::clone(&telemetry);
            daemon.serve(
                listener,
                config.max_connections,
                &metrics,
                "server",
                move |conn| {
                    serve_connection(conn, &core, &active, &served, gate.as_deref(), &telemetry)
                },
            )?;
        }

        // Workload reporter: threshold-suppressed. It measures at a tenth
        // of the report interval, so once a report is due a threshold
        // crossing goes out promptly.
        {
            let active = Arc::clone(&active);
            let policy = config.workload;
            let capacity = config.capacity.max(1);
            let agent_address = agent_address.to_string();
            let tick =
                Duration::from_secs_f64((policy.report_interval_secs / 10.0).clamp(0.005, 1.0));
            let mut last_sent: Option<f64> = None;
            let mut conn: Option<Box<dyn Connection>> = None;
            let mut since_report = Duration::ZERO;
            daemon.every("server-workload", tick, move || {
                since_report += tick;
                let workload = active.load(Ordering::Acquire) as f64 * 100.0 / capacity as f64;
                let due = since_report.as_secs_f64() >= policy.report_interval_secs;
                if !(due && policy.should_report(last_sent, workload)) {
                    return;
                }
                if conn.is_none() {
                    conn = transport.connect(&agent_address).ok();
                }
                if let Some(c) = conn.as_mut() {
                    let msg = Message::WorkloadReport {
                        server_id,
                        workload,
                    };
                    if call(c.as_mut(), &msg, Duration::from_secs(5)).is_ok() {
                        last_sent = Some(workload);
                    } else {
                        conn = None; // reconnect next time
                    }
                }
                since_report = Duration::ZERO;
            })?;
        }

        // Telemetry sampler: one registry snapshot per tick into the
        // windowed series. Off the request path entirely — connection
        // threads only read the series when asked via `FleetStatsQuery`.
        // The baseline is seeded now so events that land before the first
        // tick show up in the first delta slot instead of vanishing into it.
        {
            let telemetry = Arc::clone(&telemetry);
            let sample = move || {
                telemetry
                    .series
                    .record(metrics.snapshot("server"), netsolve_obs::unix_now_secs())
            };
            sample();
            let tick = Duration::from_secs_f64(config.telemetry.tick_secs.clamp(0.005, 60.0));
            daemon.every("server-sampler", tick, sample)?;
        }

        Ok(ServerDaemon {
            address,
            server_id,
            active,
            requests_served,
            telemetry,
            daemon,
        })
    }

    /// Address clients dial.
    pub fn address(&self) -> &str {
        &self.address
    }

    /// The agent-assigned server id.
    pub fn server_id(&self) -> u64 {
        self.server_id
    }

    /// Requests currently executing.
    pub fn active_requests(&self) -> u32 {
        self.active.load(Ordering::Acquire)
    }

    /// Requests completed over the daemon's lifetime.
    pub fn requests_served(&self) -> u64 {
        self.requests_served.load(Ordering::Acquire)
    }

    /// The daemon's windowed time series (fed by its sampler thread).
    pub fn series(&self) -> &netsolve_obs::WindowedSeries {
        &self.telemetry.series
    }

    /// The daemon's current stats digest over its full retained window.
    pub fn stats_digest(&self) -> netsolve_obs::StatsDigest {
        self.telemetry.digest()
    }

    /// Stop all daemon threads (also done on drop).
    pub fn stop(&mut self) {
        self.daemon.stop();
    }
}

/// Run one request through the admission gate. Returns the shed reply to
/// send, or `None` when the request was admitted and now holds a solve
/// slot (which the caller must release).
fn gate_admit(
    gate: &AdmissionGate,
    metrics: &netsolve_obs::MetricsRegistry,
    tracer: &netsolve_obs::Tracer,
    ctx: netsolve_obs::SpanContext,
    msg: &Message,
    received_at: Instant,
) -> Option<Message> {
    let (request_id, problem, deadline_ms) = match msg {
        Message::RequestSubmit { request_id, problem, deadline_ms, .. } => {
            (*request_id, problem.as_str(), *deadline_ms)
        }
        _ => return None, // only solves are gated; queries always answer
    };
    let depth = gate.depth();
    let remaining =
        (deadline_ms > 0).then(|| deadline_ms.saturating_sub(received_at.elapsed().as_millis() as u64));
    match gate.policy.admit(problem, depth, remaining) {
        AdmissionDecision::Admit => match gate.acquire(received_at, deadline_ms) {
            SlotOutcome::Acquired => None,
            SlotOutcome::ExpiredInQueue => {
                // Counted distinctly from the core's execution-time
                // `server.deadline_shed`: this budget died *waiting*,
                // before any solve slot was reserved.
                metrics.counter("server.queue_deadline_shed").inc();
                tracer.point(ctx, "server", "queue_deadline_shed", format!("budget={deadline_ms}ms"));
                Some(Message::from_error(&NetSolveError::Timeout(format!(
                    "request {request_id} deadline ({deadline_ms} ms) expired while queued"
                ))))
            }
        },
        AdmissionDecision::Shed { reason, retry_after_ms } => {
            metrics.counter("server.admission_shed").inc();
            tracer.point(
                ctx,
                "server",
                "admission_shed",
                format!("reason={} depth={depth} hint={retry_after_ms}ms", reason.name()),
            );
            let err = match reason {
                // Budget already gone: a retry hint is meaningless, the
                // client's deadline path owns what happens next.
                ShedReason::DeadlineExpired => NetSolveError::Timeout(format!(
                    "request {request_id} deadline ({deadline_ms} ms) expired at admission"
                )),
                // Retryable Busy carrying the backoff hint.
                ShedReason::QueueFull | ShedReason::DeadlineUnmeetable => {
                    NetSolveError::Resource(format_busy_detail(reason, depth, retry_after_ms))
                }
            };
            Some(Message::from_error(&err))
        }
    }
}

fn serve_connection(
    mut conn: Box<dyn Connection>,
    core: &ServerCore,
    active: &AtomicU32,
    served: &AtomicU64,
    gate: Option<&AdmissionGate>,
    telemetry: &ServerTelemetry,
) {
    let metrics = core.metrics();
    let tracer = core.tracer();
    // Traceless: no request context exists yet at accept time (stitching
    // skips trace 0).
    tracer.point(netsolve_obs::SpanContext::NONE, "server", "accept", String::new());
    loop {
        let msg = match conn.recv() {
            Ok(m) => m,
            Err(_) => return,
        };
        let received_at = Instant::now();
        // Fleet telemetry is daemon state (the windowed series lives
        // beside the sampler thread, not in the core), so the daemon
        // answers `FleetStatsQuery` itself. A server knows only its own
        // digest; agents aggregate the fleet.
        if matches!(msg, Message::FleetStatsQuery) {
            let reply = if telemetry.enabled {
                Message::FleetStatsReply { digests: vec![telemetry.digest()] }
            } else {
                Message::from_error(&NetSolveError::Protocol(
                    "fleet stats disabled on this server".into(),
                ))
            };
            if conn.send(&reply).is_err() {
                return;
            }
            continue;
        }
        // Trace context rides in the request; decode happened inside
        // `conn.recv()` (the transport owns the frame parse), so the queue
        // span the core records starts here, at wire arrival.
        let request_ctx = match &msg {
            Message::RequestSubmit { request_id, trace_id, parent_span, .. } => {
                Some(netsolve_obs::SpanContext {
                    trace_id: *trace_id,
                    parent_span: *parent_span,
                    request_id: *request_id,
                })
            }
            _ => None,
        };
        let is_request = request_ctx.is_some();
        // Admission gate: shed (with a retryable Busy + retry hint) or
        // wait for a solve slot *before* the request counts as active.
        let mut slot_held = false;
        let shed_reply = match (gate, request_ctx) {
            (Some(g), Some(ctx)) => {
                let r = gate_admit(g, &metrics, &tracer, ctx, &msg, received_at);
                slot_held = r.is_none();
                r
            }
            _ => None,
        };
        let reply = match shed_reply {
            Some(reply) => reply,
            None => {
                if is_request {
                    active.fetch_add(1, Ordering::AcqRel);
                    metrics.gauge("server.active_requests").inc();
                }
                let reply = core.handle_message_at(&msg, received_at);
                if slot_held {
                    gate.expect("slot implies gate").release();
                }
                if is_request {
                    active.fetch_sub(1, Ordering::AcqRel);
                    metrics.gauge("server.active_requests").dec();
                    served.fetch_add(1, Ordering::AcqRel);
                    metrics
                        .histogram("server.request_handle_secs")
                        .record_secs(received_at.elapsed().as_secs_f64());
                }
                reply
            }
        };
        let send_start = std::time::Instant::now();
        let encode_timer = tracer.start();
        if conn.send(&reply).is_err() {
            return;
        }
        if let Some(ctx) = request_ctx {
            tracer.record(ctx, encode_timer, "server", "encode", String::new());
            metrics
                .histogram("server.reply_marshal_secs")
                .record_secs(send_start.elapsed().as_secs_f64());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsolve_agent::{AgentCore, AgentDaemon};
    use netsolve_core::matrix::Matrix;
    use netsolve_net::ChannelNetwork;
    use netsolve_proto::QueryShape;

    fn bring_up() -> (ChannelNetwork, AgentDaemon, ServerDaemon) {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let agent = AgentDaemon::start(
            Arc::clone(&transport),
            "agent",
            AgentCore::with_defaults(),
        )
        .unwrap();
        let server = ServerDaemon::start(
            Arc::clone(&transport),
            "agent",
            ServerCore::with_standard_catalogue(),
            ServerConfig::quick("host1", "srv1", 150.0),
        )
        .unwrap();
        (net, agent, server)
    }

    #[test]
    fn server_registers_and_serves() {
        let (net, mut agent, mut server) = bring_up();
        assert_eq!(server.server_id(), 1);

        // The agent should now offer it for dgesv.
        let mut conn = net.connect("agent").unwrap();
        let reply = call(
            conn.as_mut(),
            &Message::ServerQuery(QueryShape {
                client_host: 0,
                problem: "dgesv".into(),
                n: 10,
                bytes_in: 880,
                bytes_out: 88,
                trace_id: 0,
                parent_span: 0,
            }),
            Duration::from_secs(5),
        )
        .unwrap();
        let address = match reply {
            Message::ServerList { candidates } => {
                assert_eq!(candidates.len(), 1);
                candidates[0].address.clone()
            }
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(address, server.address());

        // Submit a real request to the server.
        let mut sconn = net.connect(&address).unwrap();
        let a = Matrix::identity(4);
        let b = vec![1.0, 2.0, 3.0, 4.0];
        let reply = call(
            sconn.as_mut(),
            &Message::RequestSubmit {
                request_id: 5,
                deadline_ms: 0,
                problem: "dgesv".into(),
                inputs: vec![a.into(), b.clone().into()],
                trace_id: 0,
                parent_span: 0,
            },
            Duration::from_secs(5),
        )
        .unwrap();
        match reply {
            Message::RequestReply { request_id, outputs, compute_secs, .. } => {
                assert_eq!(request_id, 5);
                assert_eq!(outputs[0].as_vector().unwrap(), b.as_slice());
                assert!(compute_secs >= 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(server.requests_served(), 1);

        server.stop();
        agent.stop();
    }

    #[test]
    fn registration_against_dead_agent_fails() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net);
        let r = ServerDaemon::start(
            transport,
            "no-agent-here",
            ServerCore::with_standard_catalogue(),
            ServerConfig::quick("h", "srv", 100.0),
        );
        assert!(matches!(r, Err(NetSolveError::ServerUnreachable(_))));
    }

    #[test]
    fn workload_reports_reach_agent() {
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let agent = AgentDaemon::start(
            Arc::clone(&transport),
            "agent",
            AgentCore::with_defaults(),
        )
        .unwrap();
        let mut config = ServerConfig::quick("host1", "srv1", 150.0);
        config.workload.report_interval_secs = 0.05; // fast for the test
        config.workload.report_threshold = 0.0;
        let mut server = ServerDaemon::start(
            Arc::clone(&transport),
            "agent",
            ServerCore::with_standard_catalogue(),
            config,
        )
        .unwrap();

        // Wait for at least one report to land.
        let core = agent.core();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            {
                // Registration seeds a workload entry; a report refreshes
                // it. We simply verify queries keep working and the server
                // stays eligible (fresh workload), then stop.
                let mut c = core.lock();
                let q = QueryShape {
                    client_host: 0,
                    problem: "ddot".into(),
                    n: 4,
                    bytes_in: 100,
                    bytes_out: 8,
                    trace_id: 0,
                    parent_span: 0,
                };
                if c.query(&q, netsolve_core::SimTime::from_secs(1.0)).is_ok() {
                    break;
                }
            }
            assert!(std::time::Instant::now() < deadline, "no workload report arrived");
            std::thread::sleep(Duration::from_millis(20));
        }
        server.stop();
        drop(agent);
    }

    /// Driving a capacity-1 admission server past its queue bound must
    /// shed with a retryable Busy carrying a `retry_after_ms` hint,
    /// while everything admitted still solves.
    #[test]
    fn admission_gate_sheds_past_queue_bound() {
        use crate::core::ExecutionMode;
        use netsolve_pdl::ProblemRegistry;

        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let agent =
            AgentDaemon::start(Arc::clone(&transport), "agent", AgentCore::with_defaults())
                .unwrap();
        let mut config = ServerConfig::quick("host1", "srv1", 150.0);
        config.admission = Some(AdmissionConfig::with_max_queue(2));
        // ~64 ms synthetic solves (dgesv n=124 at 10 Mflop/s) so the
        // burst below genuinely overlaps in the solve queue.
        let core = ServerCore::new(
            ProblemRegistry::with_standard_catalogue(),
            ExecutionMode::Synthetic { mflops: 20.0 },
        );
        let mut server =
            ServerDaemon::start(Arc::clone(&transport), "agent", core, config).unwrap();
        let address = server.address().to_string();

        let burst = 8;
        let handles: Vec<_> = (0..burst)
            .map(|i| {
                let net = net.clone();
                let address = address.clone();
                std::thread::spawn(move || {
                    let mut conn = net.connect(&address).unwrap();
                    let a = Matrix::identity(124);
                    let b = vec![1.0; 124];
                    call(
                        conn.as_mut(),
                        &Message::RequestSubmit {
                            request_id: i,
                            deadline_ms: 0,
                            problem: "dgesv".into(),
                            inputs: vec![a.into(), b.into()],
                            trace_id: 0,
                            parent_span: 0,
                        },
                        Duration::from_secs(30),
                    )
                    .unwrap()
                })
            })
            .collect();
        let mut solved = 0;
        let mut shed = 0;
        for h in handles {
            match h.join().unwrap() {
                Message::RequestReply { .. } => solved += 1,
                Message::Error { code, detail } => {
                    assert_eq!(code, NetSolveError::Resource(String::new()).code(), "{detail}");
                    let err = NetSolveError::from_code(code, detail.clone());
                    assert!(err.is_retryable(), "shed must be retryable: {detail}");
                    assert!(
                        netsolve_core::admission::parse_retry_after_ms(&detail).is_some(),
                        "busy reply must carry a retry hint: {detail}"
                    );
                    shed += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(shed >= 1, "burst of {burst} never overflowed queue bound 2");
        assert!(solved >= 1, "admitted requests must still solve");
        assert_eq!(solved + shed, burst);
        server.stop();
        drop(agent);
    }

    /// A request whose deadline budget expires while it waits for a solve
    /// slot must be rejected *before* reserving the slot, counted under
    /// `server.queue_deadline_shed` (distinct from the core's
    /// execution-time `server.deadline_shed`).
    #[test]
    fn budget_expiring_in_queue_sheds_without_taking_a_slot() {
        use crate::core::ExecutionMode;
        use netsolve_pdl::ProblemRegistry;

        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let agent =
            AgentDaemon::start(Arc::clone(&transport), "agent", AgentCore::with_defaults())
                .unwrap();
        let mut config = ServerConfig::quick("host1", "srv1", 150.0);
        // Queue bound far above the test's two requests: only the
        // deadline path can shed here.
        config.admission = Some(AdmissionConfig::with_max_queue(64));
        let core = ServerCore::new(
            ProblemRegistry::with_standard_catalogue(),
            ExecutionMode::Synthetic { mflops: 20.0 },
        );
        let metrics = core.metrics();
        let mut server =
            ServerDaemon::start(Arc::clone(&transport), "agent", core, config).unwrap();
        let address = server.address().to_string();

        // Occupy the single solve slot with a ~250 ms solve (dgesv n=196).
        let blocker = {
            let net = net.clone();
            let address = address.clone();
            std::thread::spawn(move || {
                let mut conn = net.connect(&address).unwrap();
                let a = Matrix::identity(196);
                let b = vec![1.0; 196];
                call(
                    conn.as_mut(),
                    &Message::RequestSubmit {
                        request_id: 1,
                        deadline_ms: 0,
                        problem: "dgesv".into(),
                        inputs: vec![a.into(), b.into()],
                        trace_id: 0,
                        parent_span: 0,
                    },
                    Duration::from_secs(30),
                )
                .unwrap()
            })
        };
        // Wait until the blocker actually holds the solve slot.
        let wait_deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let snap = metrics.snapshot("server");
            let busy = snap
                .gauges
                .iter()
                .any(|(name, v)| name == "server.active_requests" && *v >= 1);
            if busy {
                break;
            }
            assert!(Instant::now() < wait_deadline, "blocker never started solving");
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut conn = net.connect(&address).unwrap();
        let reply = call(
            conn.as_mut(),
            &Message::RequestSubmit {
                request_id: 2,
                deadline_ms: 40, // much shorter than the blocker's solve
                problem: "ddot".into(),
                inputs: vec![vec![1.0].into(), vec![1.0].into()],
                trace_id: 0,
                parent_span: 0,
            },
            Duration::from_secs(30),
        )
        .unwrap();
        match reply {
            Message::Error { code, detail } => {
                assert_eq!(code, NetSolveError::Timeout(String::new()).code(), "{detail}");
                assert!(detail.contains("expired while queued"), "detail: {detail}");
            }
            other => panic!("expected queued-deadline shed, got {other:?}"),
        }
        assert!(matches!(blocker.join().unwrap(), Message::RequestReply { .. }));
        let snap = metrics.snapshot("server");
        let queue_sheds = snap
            .counters
            .iter()
            .find(|(name, _)| name == "server.queue_deadline_shed")
            .map(|(_, v)| *v)
            .unwrap_or(0);
        assert_eq!(queue_sheds, 1, "expired-in-queue shed must have its own counter");
        assert!(
            !snap.counters.iter().any(|(n, v)| n == "server.deadline_shed" && *v > 0),
            "shed must not be double-counted as an execution-time shed"
        );
        server.stop();
        drop(agent);
    }
}
