//! End-to-end distributed tracing: wire-propagated span context and the
//! stitched request timeline.
//!
//! * a live trio answers `TraceQuery` and the pulled spans stitch with
//!   the client's own (dump-file round-tripped) records into one causal
//!   tree — client call at the root, agent scoring under the rank span,
//!   server queue/solve under the attempt that carried the request;
//! * under the chaos transport, every retried attempt is a distinct
//!   span of the same trace and only the surviving attempt grows a
//!   server subtree;
//! * a deadline-exhausted call ends its trace with a terminal
//!   `deadline_exhausted` span;
//! * a peer that answers `TraceQuery` with its generic error fails the
//!   pull with that error — over the channel transport and over real
//!   TCP;
//! * on a virtual clock, a server's `solve` span lasts the virtual seconds
//!   its `server.compute_secs` records.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use netsolve::agent::{AgentCore, AgentDaemon};
use netsolve::client::NetSolveClient;
use netsolve::core::clock::VirtualClock;
use netsolve::core::config::{Backoff, RetryPolicy};
use netsolve::core::error::Result;
use netsolve::core::NetSolveError;
use netsolve::net::{
    call, ChannelNetwork, ChaosPolicy, ChaosTransport, Connection, Listener, TcpTransport,
    Transport,
};
use netsolve::obs::{render, stitch, MetricsRegistry, SpanRecord, Timeline, Tracer};
use netsolve::proto::Message;
use netsolve::pdl::ProblemRegistry;
use netsolve::server::{ExecutionMode, ServerConfig, ServerCore, ServerDaemon};

fn timeout() -> Duration {
    Duration::from_secs(5)
}

/// Pull one peer's retained spans, exactly as `netsl-trace` does.
fn pull_spans(
    transport: &Arc<dyn Transport>,
    address: &str,
    trace_id: u128,
) -> Result<(String, Vec<SpanRecord>)> {
    let mut conn = transport.connect(address)?;
    let reply = call(conn.as_mut(), &Message::TraceQuery { trace_id }, timeout())?;
    match reply {
        Message::TraceReply { component, spans } => Ok((component, spans)),
        Message::Error { code, detail } => Err(NetSolveError::from_code(code, detail)),
        other => Err(NetSolveError::Protocol(format!("unexpected reply {}", other.name()))),
    }
}

/// Depth of the first entry matching `component/phase`, or None.
fn depth_of(t: &Timeline, component: &str, phase: &str) -> Option<usize> {
    t.entries
        .iter()
        .find(|e| e.span.component == component && e.span.phase == phase)
        .map(|e| e.depth)
}

/// A full netsl-trace run in miniature: TraceQuery the agent and the
/// server, round-trip the client's spans through the dump-line format,
/// stitch everything and check the causal tree plus the rendering.
#[test]
fn trace_query_stitches_live_trio_into_one_timeline() {
    let net = ChannelNetwork::new();
    let clean: Arc<dyn Transport> = Arc::new(net.clone());
    let mut agent =
        AgentDaemon::start(Arc::clone(&clean), "agent", AgentCore::with_defaults()).unwrap();
    let mut server = ServerDaemon::start(
        Arc::clone(&clean),
        "agent",
        ServerCore::with_standard_catalogue(),
        ServerConfig::quick("h", "srv0", 100.0),
    )
    .unwrap();

    let metrics = Arc::new(MetricsRegistry::new());
    let tracer = Arc::new(Tracer::new());
    let client = NetSolveClient::new(Arc::clone(&clean), "agent")
        .with_observability(Arc::clone(&metrics), Arc::clone(&tracer));
    let (outputs, report) = client
        .netsl_timed("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()])
        .unwrap();
    assert_eq!(outputs[0].as_double().unwrap(), 11.0);
    assert_ne!(report.trace_id, 0, "every call mints a trace id");

    // Client side travels as a dump file: lines out, records back.
    let mut records: Vec<SpanRecord> = tracer
        .snapshot_trace(report.trace_id)
        .iter()
        .map(|r| SpanRecord::from_line(&r.to_line()).expect("dump line parses back"))
        .collect();
    for address in ["agent", "srv0"] {
        let (component, spans) =
            pull_spans(&clean, address, report.trace_id).expect("trio answers TraceQuery");
        assert_eq!(component, if address == "agent" { "agent" } else { "server" });
        assert!(!spans.is_empty(), "{address} retained no spans for the trace");
        records.extend(spans);
    }

    let timelines = stitch(&records);
    assert_eq!(timelines.len(), 1, "one call, one timeline");
    let t = &timelines[0];
    assert_eq!(t.trace_id, report.trace_id);

    // The causal tree: call at the root; agent scoring nested under the
    // client's rank span; server work nested under the client's attempt
    // span — all stitched across three processes' records.
    assert_eq!(depth_of(t, "client", "call"), Some(0));
    assert_eq!(depth_of(t, "client", "rank"), Some(1));
    assert_eq!(depth_of(t, "agent", "score"), Some(2), "agent work nests under rank");
    assert_eq!(depth_of(t, "client", "attempt"), Some(1));
    for phase in ["connect", "marshal", "wait"] {
        assert_eq!(depth_of(t, "client", phase), Some(2), "{phase} nests under attempt");
    }
    for phase in ["queue", "solve"] {
        assert_eq!(depth_of(t, "server", phase), Some(2), "{phase} nests under attempt");
    }
    let attempt_span = t
        .entries
        .iter()
        .find(|e| e.span.phase == "attempt")
        .map(|e| e.span.span_id)
        .unwrap();
    let solve = t.entries.iter().find(|e| e.span.phase == "solve").map(|e| &e.span).unwrap();
    assert_eq!(solve.parent_span, attempt_span, "wire carried the attempt span to the server");
    assert_eq!(solve.request_id, report.request_id);

    let rendered = render(t);
    assert!(rendered.contains(&format!("trace {:032x}", report.trace_id)));
    assert!(rendered.contains("client/call"));
    assert!(rendered.contains("server/solve"));
    assert!(rendered.contains("critical path:"), "breakdown line missing:\n{rendered}");

    server.stop();
    agent.stop();
}

/// Chaos-path acceptance: with dials refused at random, a call that
/// survived on a retry shows each attempt as a distinct span of one
/// trace, and only the surviving attempt has a server subtree.
#[test]
fn retried_attempts_are_distinct_spans_under_one_trace() {
    let net = ChannelNetwork::new();
    let clean: Arc<dyn Transport> = Arc::new(net.clone());
    let mut agent =
        AgentDaemon::start(Arc::clone(&clean), "agent", AgentCore::with_defaults()).unwrap();
    let mut server = ServerDaemon::start(
        Arc::clone(&clean),
        "agent",
        ServerCore::with_standard_catalogue(),
        ServerConfig::quick("h", "srv0", 100.0),
    )
    .unwrap();

    let metrics = Arc::new(MetricsRegistry::new());
    let tracer = Arc::new(Tracer::new());
    let chaos: Arc<dyn Transport> = Arc::new(
        ChaosTransport::new(Arc::clone(&clean), ChaosPolicy::calm().with_refusals(0.5), 0x7ACE)
            .with_metrics(&metrics)
            .with_tracer(Arc::clone(&tracer)),
    );
    // A client per call: one that stays dials each address once and then
    // keeps the connection, and it is the dial that chaos refuses here.
    let fresh_client = || {
        NetSolveClient::new(Arc::clone(&chaos), "agent")
            .with_retry(RetryPolicy {
                max_attempts: 6,
                attempt_timeout_secs: 5.0,
                backoff: Backoff::Fixed { delay_secs: 0.002 },
                deadline_secs: 0.0,
                report_failures: true,
            })
            .with_observability(Arc::clone(&metrics), Arc::clone(&tracer))
    };

    // The seeded chaos stream is deterministic; hunt for the first call
    // that needed a retry and still succeeded, then freeze its trace.
    let mut survivor = None;
    for _ in 0..60 {
        if let Ok((_, report)) =
            fresh_client().netsl_timed("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()])
        {
            if report.attempts >= 2 {
                survivor = Some(report);
                break;
            }
        }
    }
    let report = survivor.expect("no call retried and succeeded under 50% refusals");

    let mut records = tracer.snapshot_trace(report.trace_id);
    let (_, server_spans) =
        pull_spans(&clean, "srv0", report.trace_id).expect("server answers TraceQuery");
    records.extend(server_spans);
    let timelines = stitch(&records);
    assert_eq!(timelines.len(), 1);
    let t = &timelines[0];

    let attempts: Vec<&SpanRecord> = t
        .entries
        .iter()
        .filter(|e| e.span.component == "client" && e.span.phase == "attempt")
        .map(|e| &e.span)
        .collect();
    assert_eq!(attempts.len() as u32, report.attempts, "every attempt is its own span");
    let mut ids: Vec<u64> = attempts.iter().map(|s| s.span_id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u32, report.attempts, "attempt span ids are distinct");
    assert!(attempts.iter().all(|s| s.trace_id == report.trace_id));
    assert!(
        t.entries.iter().any(|e| e.span.phase == "attempt_failed"),
        "the refused attempt left its failure point in the trace"
    );
    let solves: Vec<&SpanRecord> =
        t.entries.iter().filter(|e| e.span.phase == "solve").map(|e| &e.span).collect();
    assert_eq!(solves.len(), 1, "only the surviving attempt reached a server");
    assert!(
        ids.binary_search(&solves[0].parent_span).is_ok(),
        "the server subtree hangs off one of the attempt spans"
    );

    let rendered = render(t);
    assert!(rendered.matches("client/attempt").count() >= 2, "timeline shows the retry:\n{rendered}");

    // The injected faults themselves are traceless points — retained
    // for operators, never stitched into a request timeline.
    assert!(
        tracer.spans().iter().any(|s| s.component == "chaos" && s.trace_id == 0),
        "chaos faults record traceless spans"
    );

    server.stop();
    agent.stop();
}

/// Transport decorator refusing every dial to one address, so a call
/// burns its whole deadline on retries.
struct RefuseAll {
    inner: Arc<dyn Transport>,
    target: String,
    refused: AtomicU64,
}

impl Transport for RefuseAll {
    fn listen(&self, hint: &str) -> Result<Box<dyn Listener>> {
        self.inner.listen(hint)
    }

    fn connect(&self, address: &str) -> Result<Box<dyn Connection>> {
        if address == self.target {
            self.refused.fetch_add(1, Ordering::Relaxed);
            return Err(NetSolveError::ServerUnreachable(format!("refusing {address}")));
        }
        self.inner.connect(address)
    }

    fn unblock(&self, address: &str) {
        self.inner.unblock(address)
    }
}

/// A call that exhausts its deadline ends its trace with a terminal
/// `deadline_exhausted` span, so the timeline says *why* it stopped.
#[test]
fn deadline_exhaustion_leaves_terminal_span() {
    let net = ChannelNetwork::new();
    let clean: Arc<dyn Transport> = Arc::new(net.clone());
    let mut agent =
        AgentDaemon::start(Arc::clone(&clean), "agent", AgentCore::with_defaults()).unwrap();
    let mut server = ServerDaemon::start(
        Arc::clone(&clean),
        "agent",
        ServerCore::with_standard_catalogue(),
        ServerConfig::quick("h", "srv0", 100.0),
    )
    .unwrap();

    let tracer = Arc::new(Tracer::new());
    let refusing: Arc<dyn Transport> = Arc::new(RefuseAll {
        inner: Arc::clone(&clean),
        target: "srv0".into(),
        refused: AtomicU64::new(0),
    });
    let client = NetSolveClient::new(refusing, "agent")
        .with_retry(RetryPolicy {
            max_attempts: 1000,
            attempt_timeout_secs: 1.0,
            backoff: Backoff::Fixed { delay_secs: 0.02 },
            deadline_secs: 0.08,
            report_failures: false,
        })
        .with_observability(Arc::new(MetricsRegistry::new()), Arc::clone(&tracer));

    let err = client
        .netsl("ddot", &[vec![1.0].into(), vec![2.0].into()])
        .expect_err("every dial refused, the deadline must expire");
    assert!(matches!(err, NetSolveError::Timeout(_)), "got {err}");

    let spans = tracer.spans();
    let terminal = spans
        .iter()
        .find(|s| s.phase == "deadline_exhausted")
        .expect("trace records why the call stopped");
    assert_ne!(terminal.trace_id, 0);
    let same_trace: Vec<_> = spans.iter().filter(|s| s.trace_id == terminal.trace_id).collect();
    assert!(
        same_trace.iter().any(|s| s.phase == "attempt"),
        "the exhausted trace still shows the attempts that burned the budget"
    );
    assert!(
        same_trace.iter().all(|s| s.phase != "call_ok"),
        "an exhausted call cannot also report success"
    );

    server.stop();
    agent.stop();
}

/// Answer every frame with the generic "cannot handle" error — a daemon
/// that does not serve `TraceQuery`.
fn refusing_stub(listener: Box<dyn Listener>) {
    std::thread::spawn(move || {
        while let Ok(mut conn) = listener.accept() {
            std::thread::spawn(move || {
                while let Ok(msg) = conn.recv() {
                    let reply = Message::from_error(&NetSolveError::Protocol(format!(
                        "cannot handle {}",
                        msg.name()
                    )));
                    if conn.send(&reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
}

/// The error a netsl-trace pull from a refusing peer must fail with: the
/// peer's own, not an empty timeline.
fn assert_refused(pulled: Result<(String, Vec<SpanRecord>)>) {
    assert!(
        matches!(&pulled, Err(NetSolveError::Protocol(m)) if m == "cannot handle TraceQuery"),
        "a generic error must fail the pull: {pulled:?}"
    );
}

/// Over the channel transport: a peer that answers `TraceQuery` with its
/// generic error fails the netsl-trace pull with that error.
#[test]
fn trace_query_unsupported_peer_over_channel() {
    let net = ChannelNetwork::new();
    let clean: Arc<dyn Transport> = Arc::new(net.clone());
    refusing_stub(clean.listen("refusing-daemon").unwrap());

    assert_refused(pull_spans(&clean, "refusing-daemon", 0));
}

/// The same over real TCP sockets.
#[test]
fn trace_query_unsupported_peer_over_tcp() {
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let listener = transport.listen("127.0.0.1:0").unwrap();
    let address = listener.address();
    refusing_stub(listener);

    assert_refused(pull_spans(&transport, &address, 0));
}

/// A server's spans are read on the clock its transport carries: on a
/// virtual clock, a synthetic `dgesv` that takes 2 virtual seconds has a
/// `solve` span of 2 seconds, the `server.compute_secs` sample, and not the
/// few wall milliseconds the call took.
#[test]
fn a_virtual_clock_solve_span_lasts_its_compute_secs() {
    let net = ChannelNetwork::new().with_clock(Arc::new(VirtualClock::new()));
    let transport: Arc<dyn Transport> = Arc::new(net);
    let mut agent =
        AgentDaemon::start(Arc::clone(&transport), "agent", AgentCore::with_defaults()).unwrap();
    // dgesv costs 0.6667 n^3 flops: n = 100 at 0.33335 Mflop/s is 2 s.
    let tracer = Arc::new(Tracer::new());
    let core = ServerCore::new(
        ProblemRegistry::with_standard_catalogue(),
        ExecutionMode::Synthetic { mflops: 0.33335 },
    )
    .with_tracer(Arc::clone(&tracer));
    let metrics = core.metrics();
    let mut server = ServerDaemon::start(
        Arc::clone(&transport),
        "agent",
        core,
        ServerConfig::quick("virtual", "srv", 0.33335),
    )
    .unwrap();
    let client = NetSolveClient::new(Arc::clone(&transport), "agent");
    let a = netsolve::core::Matrix::identity(100);
    client.netsl("dgesv", &[a.into(), vec![1.0; 100].into()]).unwrap();

    let compute = metrics.histogram("server.compute_secs");
    assert_eq!(compute.count(), 1);
    assert!((compute.sum_secs() - 2.0).abs() < 1e-3, "compute {} s", compute.sum_secs());
    let spans = tracer.spans();
    let solve = spans.iter().find(|s| s.phase == "solve").expect("a solve span");
    let lasted = solve.duration().as_secs_f64();
    assert!((lasted - compute.sum_secs()).abs() < 1e-3, "solve span {lasted} s");
    server.stop();
    agent.stop();
}
