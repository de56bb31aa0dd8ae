//! The live computational-server daemon: registers with an agent, serves
//! client requests, and reports workload on NetSolve's lazy policy. Its
//! accept loop, periodic workers and stop/join are the
//! [`netsolve_net::Daemon`] skeleton's.

use std::sync::Arc;
use std::time::Duration;

use netsolve_core::config::{TelemetryPolicy, WorkloadPolicy};
use netsolve_core::error::{NetSolveError, Result};
use netsolve_net::{call_once, Daemon, Transport, KEEP_ALIVE};
use netsolve_obs::MetricsRegistry;
use netsolve_proto::{Message, ServerDescriptor};

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
    /// Concurrent requests considered "100% workload" — and, with
    /// admission control installed on the core, the number of solve slots
    /// behind its gate.
    pub capacity: u32,
    /// Hard cap on concurrent connection-service threads. Connections
    /// arriving past the cap are answered with a retryable Busy error and
    /// dropped, so a connection flood degrades into shed load instead of
    /// unbounded thread growth.
    pub max_connections: u32,
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
            telemetry: TelemetryPolicy { tick_secs: 0.25, ..TelemetryPolicy::default() },
        }
    }
}

/// The daemon's windowed-stats surface, shared between the sampler
/// thread feeding it and the connection threads answering
/// `FleetStatsQuery` from it.
pub(crate) struct ServerTelemetry {
    /// This daemon's listen address — the digest `origin` key.
    pub address: String,
    /// The ring of cumulative registry snapshots.
    pub series: netsolve_obs::WindowedSeries,
    /// Whether `FleetStatsQuery` is answered (off = unsupported Error,
    /// matching a pre-v6 daemon, for compat tests and overhead ablation).
    pub enabled: bool,
}

/// Handle to a running server daemon.
pub struct ServerDaemon {
    address: String,
    server_id: u64,
    metrics: Arc<MetricsRegistry>,
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

        let core = Arc::new(core.with_solve_slots(config.capacity).with_clock(transport.clock()));
        let metrics = core.metrics();
        let telemetry = Arc::new(ServerTelemetry {
            address: address.clone(),
            series: netsolve_obs::WindowedSeries::default(),
            enabled: config.telemetry.digests,
        });
        let mut daemon = Daemon::new(Arc::clone(&transport));

        {
            let telemetry = Arc::clone(&telemetry);
            let serve = move |msg: &Message| answer(msg, &core, &telemetry);
            daemon.serve(listener, config.max_connections, KEEP_ALIVE, &metrics, "server", serve)?;
        }

        // Workload reporter: threshold-suppressed. It measures at a tenth
        // of the report interval, so once a report is due a threshold
        // crossing goes out promptly.
        {
            let active = metrics.gauge("server.active_requests");
            let policy = config.workload;
            let capacity = config.capacity.max(1);
            let agent_address = agent_address.to_string();
            let tick =
                Duration::from_secs_f64((policy.report_interval_secs / 10.0).clamp(0.005, 1.0));
            let mut last_sent: Option<f64> = None;
            let mut since_report = Duration::ZERO;
            daemon.every("server-workload", tick, move || {
                since_report += tick;
                let workload = active.get() as f64 * 100.0 / capacity as f64;
                let due = since_report.as_secs_f64() >= policy.report_interval_secs;
                if !(due && policy.should_report(last_sent, workload)) {
                    return;
                }
                // One dial per report: reports are a report interval
                // apart at the least, and the agent closes a connection
                // that stays silent for its keep-alive time.
                let msg = Message::WorkloadReport { server_id, workload };
                let timeout = Duration::from_secs(5);
                if call_once(transport.as_ref(), &agent_address, &msg, timeout).is_ok() {
                    last_sent = Some(workload);
                }
                since_report = Duration::ZERO;
            })?;
        }

        // Telemetry sampler: one registry snapshot per tick into the
        // windowed series. Off the request path entirely — connection
        // threads only read the series when asked via `FleetStatsQuery`.
        // The baseline is seeded now so events that land before the first
        // tick show up in the first tick's change instead of vanishing into
        // it.
        {
            let (telemetry, metrics) = (Arc::clone(&telemetry), Arc::clone(&metrics));
            let sample = move || {
                telemetry
                    .series
                    .record(metrics.snapshot("server"), netsolve_obs::unix_now_secs())
            };
            sample();
            daemon.every("server-sampler", config.telemetry.tick(), sample)?;
        }

        Ok(ServerDaemon {
            address,
            server_id,
            metrics,
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

    /// Requests completed over the daemon's lifetime.
    pub fn requests_served(&self) -> u64 {
        self.metrics.histogram("server.request_handle_secs").count()
    }

    /// Stop all daemon threads (also done on drop).
    pub fn stop(&mut self) {
        self.daemon.stop();
    }
}

/// The reply to one message, and what to record once it is on the wire.
fn answer(
    msg: &Message,
    core: &ServerCore,
    telemetry: &ServerTelemetry,
) -> (Message, impl FnOnce()) {
    // Decode happened inside the connection's `recv` (the transport owns
    // the frame parse), so the queue span the core records starts here, at
    // wire arrival.
    let received_at = core.clock().now();
    // Fleet telemetry is daemon state (the windowed series lives beside
    // the sampler thread, not in the core), so the daemon answers
    // `FleetStatsQuery` itself. A server knows only its own digest; agents
    // aggregate the fleet. Everything else is the core's, which hands back
    // a span context exactly for requests. (`msg` is borrowed: a request's
    // operands are freed after its reply is on the wire, not in front of
    // it.)
    let (reply, request_ctx) = match msg {
        Message::FleetStatsQuery if telemetry.enabled => {
            let digest = telemetry.series.digest(&telemetry.address, "server");
            (Message::FleetStatsReply { digests: vec![digest] }, None)
        }
        Message::FleetStatsQuery => {
            let off = NetSolveError::Protocol("fleet stats disabled on this server".into());
            (Message::from_error(&off), None)
        }
        msg => core.handle_message_at(msg, received_at),
    };
    // The `encode` span and `server.reply_marshal_secs` cover the send.
    let encode = request_ctx.map(|ctx| {
        let (tracer, clock) = (core.tracer(), Arc::clone(core.clock()));
        (ctx, tracer.start(), tracer, core.metrics(), clock.now(), clock)
    });
    let sent = move || {
        if let Some((ctx, timer, tracer, metrics, send_start, clock)) = encode {
            tracer.record(ctx, timer, "server", "encode", String::new());
            metrics
                .histogram("server.reply_marshal_secs")
                .record_secs(clock.since(send_start).as_secs_f64());
        }
    };
    (reply, sent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsolve_agent::{AgentCore, AgentDaemon};
    use netsolve_core::admission::{AdmissionConfig, AdmissionPolicy};
    use netsolve_core::matrix::Matrix;
    use netsolve_net::{call, ChannelNetwork};
    use netsolve_proto::QueryShape;
    use std::time::Instant;

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
        let config = ServerConfig::quick("host1", "srv1", 150.0);
        // ~64 ms synthetic solves (dgesv n=124 at 10 Mflop/s) so the
        // burst below genuinely overlaps in the solve queue.
        let core = ServerCore::new(
            ProblemRegistry::with_standard_catalogue(),
            ExecutionMode::Synthetic { mflops: 20.0 },
        )
        .with_admission(Arc::new(AdmissionPolicy::new(AdmissionConfig::with_max_queue(2))));
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
        let config = ServerConfig::quick("host1", "srv1", 150.0);
        // Queue bound far above the test's two requests: only the
        // deadline path can shed here.
        let core = ServerCore::new(
            ProblemRegistry::with_standard_catalogue(),
            ExecutionMode::Synthetic { mflops: 20.0 },
        )
        .with_admission(Arc::new(AdmissionPolicy::new(AdmissionConfig::with_max_queue(64))));
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

    /// `docs/OBSERVABILITY.md` is the catalogue dashboards and the
    /// benchmark's attribution rely on: every `server.*` instrument and
    /// `server` span phase the code emits must be listed there, and
    /// nothing listed there may have stopped being emitted.
    #[test]
    fn observability_doc_lists_exactly_the_names_the_server_emits() {
        use crate::core::tests::{batch_core, run_mixed_batch, submit};
        use std::collections::BTreeSet;

        // Every way out of a gated, cached core ...
        let gated = batch_core();
        run_mixed_batch(&gated);
        // ... the dispatch backstop, which only a gate-less core reaches
        // (a gate sheds a spent budget at admission) ...
        let plain = ServerCore::with_standard_catalogue();
        let expired = submit(1, 10, "ddot", vec![vec![1.0].into(), vec![1.0].into()]);
        let reply = plain.handle_message_at(&expired, Instant::now() - Duration::from_millis(50)).0;
        assert!(matches!(reply, Message::Error { .. }));
        // ... and one connection through a daemon, for the accept loop's
        // instruments and the `accept` / `encode` spans.
        let net = ChannelNetwork::new();
        let transport: Arc<dyn Transport> = Arc::new(net.clone());
        let mut agent =
            AgentDaemon::start(Arc::clone(&transport), "agent", AgentCore::with_defaults())
                .unwrap();
        let served = ServerCore::with_standard_catalogue();
        let sources = [
            (gated.metrics(), gated.tracer()),
            (plain.metrics(), plain.tracer()),
            (served.metrics(), served.tracer()),
        ];
        let mut server = ServerDaemon::start(
            Arc::clone(&transport),
            "agent",
            served,
            ServerConfig::quick("host1", "srv1", 150.0),
        )
        .unwrap();
        let mut conn = net.connect(server.address()).unwrap();
        let fresh = submit(2, 0, "ddot", vec![vec![1.0].into(), vec![1.0].into()]);
        let reply = call(conn.as_mut(), &fresh, Duration::from_secs(5)).unwrap();
        assert!(matches!(reply, Message::RequestReply { .. }));
        // The `encode` span and `server.reply_marshal_secs` are recorded
        // after the send; a connection is served in order, so a second
        // round trip on it proves they are in.
        let pong = call(conn.as_mut(), &Message::Ping, Duration::from_secs(5)).unwrap();
        assert_eq!(pong, Message::Pong);
        drop(conn);
        server.stop();
        agent.stop();

        let mut emitted_metrics = BTreeSet::new();
        let mut emitted_phases = BTreeSet::new();
        for (metrics, tracer) in &sources {
            let snap = metrics.snapshot("server");
            let names = snap
                .counters
                .iter()
                .map(|(n, _)| n)
                .chain(snap.gauges.iter().map(|(n, _)| n))
                .chain(snap.histograms.iter().map(|h| &h.name));
            emitted_metrics.extend(names.filter(|n| n.starts_with("server.")).cloned());
            emitted_phases.extend(
                tracer.spans().iter().filter(|s| s.component == "server").map(|s| s.phase),
            );
        }

        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        // Backticked tokens are the odd segments of a split on '`'.
        let ticked = |text: &'static str| text.split('`').skip(1).step_by(2);
        let doc_metrics: BTreeSet<String> = ticked(doc)
            .filter(|t| {
                t.strip_prefix("server.")
                    .is_some_and(|rest| rest.bytes().all(|b| b.is_ascii_lowercase() || b == b'_'))
            })
            .map(str::to_string)
            .collect();
        let span_names = doc.split("## Span names").nth(1).expect("doc has a span section");
        let server_set = span_names
            .split("`server` ×")
            .nth(1)
            .and_then(|rest| rest.split('}').next())
            .expect("span section lists the server's phases in braces");
        let doc_phases: BTreeSet<&str> = ticked(server_set).collect();

        assert_eq!(emitted_metrics, doc_metrics, "server.* instruments: emitted vs documented");
        assert_eq!(emitted_phases, doc_phases, "server span phases: emitted vs documented");
        // What the benchmark's attribution reads must survive any rename.
        for phase in ["queue", "solve", "encode"] {
            assert!(emitted_phases.contains(phase), "attribution reads server/{phase}");
        }
        for metric in [
            "server.cache_hits",
            "server.cache_misses",
            "server.cache_evictions",
            "server.admission_shed",
            "server.busy_rejected",
        ] {
            assert!(emitted_metrics.contains(metric), "the ledger reads {metric}");
        }
    }
}

