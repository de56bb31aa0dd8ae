//! Live-path observability and the retry/accept-loop regression suite:
//!
//! * single-candidate domains get the client's full retry budget
//!   (regression: `take(max_attempts)` silently capped attempts at the
//!   candidate count);
//! * request ids are unique across clients in one process (regression:
//!   every client used to start its counter at 1);
//! * servers shed connections past their cap with a retryable Busy reply
//!   instead of spawning threads without bound;
//! * `StatsQuery` round-trips over both the channel transport and real
//!   TCP, and a chaos-soaked live trio exposes non-zero attempt /
//!   compute / fault counters through it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsolve::agent::{AgentCore, AgentDaemon, Policy};
use netsolve::client::NetSolveClient;
use netsolve::core::config::{AgentConfig, Backoff, FaultPolicy, RetryPolicy};
use netsolve::core::error::Result;
use netsolve::core::{ErrorClass, NetSolveError};
use netsolve::net::{
    call, ChannelNetwork, ChaosPolicy, ChaosTransport, Connection, LinkModel, Listener,
    NetworkView, TcpTransport, Transport,
};
use netsolve::obs::{MetricsRegistry, StatsSnapshot, Tracer};
use netsolve::proto::Message;
use netsolve::server::{ServerConfig, ServerCore, ServerDaemon};

fn timeout() -> Duration {
    Duration::from_secs(5)
}

/// Transport decorator that refuses the first `n` dials to one address —
/// a deterministic stand-in for a server that is briefly unreachable.
struct ScriptedRefusals {
    inner: Arc<dyn Transport>,
    target: String,
    remaining: AtomicU64,
}

impl ScriptedRefusals {
    fn new(inner: Arc<dyn Transport>, target: &str, refuse_first: u64) -> Self {
        ScriptedRefusals {
            inner,
            target: target.to_string(),
            remaining: AtomicU64::new(refuse_first),
        }
    }
}

impl Transport for ScriptedRefusals {
    fn listen(&self, hint: &str) -> Result<Box<dyn Listener>> {
        self.inner.listen(hint)
    }

    fn connect(&self, address: &str) -> Result<Box<dyn Connection>> {
        if address == self.target {
            let scripted = self
                .remaining
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok();
            if scripted {
                return Err(NetSolveError::ServerUnreachable(format!(
                    "scripted refusal of {address}"
                )));
            }
        }
        self.inner.connect(address)
    }

    fn unblock(&self, address: &str) {
        self.inner.unblock(address)
    }
}

/// `HistogramSnapshot::quantile_secs` / `mean_secs` edge cases: the
/// degenerate shapes (empty, one sample, extreme `q`, all mass in the
/// overflow bucket) are exactly where a cumulative-walk estimator goes
/// wrong, and the netsl-top / fleet-digest path calls these on every
/// scraped histogram, empty or not.
#[test]
fn histogram_quantile_and_mean_edge_cases() {
    use netsolve::obs::metrics::bucket_bound_secs;
    use netsolve::obs::HISTOGRAM_BUCKETS;

    // Empty: everything reports zero rather than panicking or NaN-ing.
    let metrics = MetricsRegistry::new();
    let empty = metrics.histogram("t.empty").snapshot("t.empty");
    assert_eq!(empty.count, 0);
    assert_eq!(empty.mean_secs(), 0.0);
    assert_eq!(empty.quantile_secs(0.0), 0.0);
    assert_eq!(empty.quantile_secs(0.5), 0.0);
    assert_eq!(empty.quantile_secs(1.0), 0.0);

    // Single sample: every quantile is that sample's bucket bound, and
    // the mean is exact (it comes from the sum, not the buckets).
    let h = metrics.histogram("t.single");
    h.record_secs(3e-3);
    let single = h.snapshot("t.single");
    assert_eq!(single.count, 1);
    assert!((single.mean_secs() - 3e-3).abs() < 1e-12);
    let bound = single.quantile_secs(0.5);
    assert!((3e-3..=6e-3).contains(&bound), "log bucket promise: {bound}");
    for q in [0.0, 0.25, 0.99, 1.0] {
        assert_eq!(single.quantile_secs(q), bound, "q={q}");
    }

    // q = 0.0 and q = 1.0 on a spread histogram: the walk must clamp to
    // the first and last occupied buckets (q=0 still needs the 1st
    // sample, not the 0th).
    let h = metrics.histogram("t.spread");
    h.record_secs(1e-6);
    h.record_secs(1e-3);
    h.record_secs(1.0);
    let spread = h.snapshot("t.spread");
    assert!(spread.quantile_secs(0.0) <= 2e-6);
    assert!(spread.quantile_secs(1.0) >= 1.0);
    assert!(spread.quantile_secs(0.5) >= 1e-3 && spread.quantile_secs(0.5) < 1.0);

    // All mass beyond the last bucket bound: samples clamp into the
    // overflow bucket and quantiles report its bound instead of running
    // off the end of the array.
    let h = metrics.histogram("t.overflow");
    for _ in 0..10 {
        h.record_secs(1e9);
    }
    let overflow = h.snapshot("t.overflow");
    let last_bound = bucket_bound_secs(HISTOGRAM_BUCKETS - 1);
    assert_eq!(overflow.count, 10);
    assert_eq!(overflow.quantile_secs(0.5), last_bound);
    assert_eq!(overflow.quantile_secs(1.0), last_bound);
    assert!((overflow.mean_secs() - 1e9).abs() < 1.0);
}

fn expect_stats(reply: Message) -> StatsSnapshot {
    match reply {
        Message::StatsReply(s) => s,
        other => panic!("expected StatsReply, got {other:?}"),
    }
}

/// Regression (client retry cap): one server, `max_attempts = 3`, the
/// first two dials refused. The old loop zipped candidates against the
/// attempt budget, so a single-candidate domain got exactly one attempt;
/// the fixed loop cycles the ranked list until the budget runs out.
#[test]
fn single_candidate_gets_full_retry_budget() {
    let net = ChannelNetwork::new();
    let clean: Arc<dyn Transport> = Arc::new(net.clone());
    let mut agent =
        AgentDaemon::start(Arc::clone(&clean), "agent", AgentCore::with_defaults()).unwrap();
    let mut server = ServerDaemon::start(
        Arc::clone(&clean),
        "agent",
        ServerCore::with_standard_catalogue(),
        ServerConfig::quick("only-host", "srv0", 100.0),
    )
    .unwrap();

    let flaky: Arc<dyn Transport> = Arc::new(ScriptedRefusals::new(Arc::clone(&clean), "srv0", 2));
    let client = NetSolveClient::new(flaky, "agent").with_retry(RetryPolicy {
        max_attempts: 3,
        attempt_timeout_secs: 5.0,
        backoff: Backoff::Fixed { delay_secs: 0.005 },
        deadline_secs: 0.0,
    });

    let (outputs, report) = client
        .netsl_timed("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()])
        .unwrap();
    assert_eq!(outputs[0].as_double().unwrap(), 11.0);
    assert_eq!(
        report.attempts, 3,
        "two refusals then success must consume three attempts on the only candidate"
    );
    let m = client.metrics().snapshot("client");
    assert_eq!(m.counter("client.attempts"), 3);
    assert_eq!(m.counter("client.attempt_failures"), 2);
    assert_eq!(m.counter("client.calls_ok"), 1);

    server.stop();
    agent.stop();
}

/// Regression (request-id collisions): clients used to start their
/// counters at 1, so any two clients in one process produced colliding
/// request ids. Ids now carry a per-client lane in the high bits; the
/// `call` spans of a shared tracer cross-check uniqueness.
#[test]
fn request_ids_unique_across_clients() {
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
    let client_a = NetSolveClient::new(Arc::clone(&clean), "agent")
        .with_observability(Arc::clone(&metrics), Arc::clone(&tracer));
    let client_b = NetSolveClient::new(Arc::clone(&clean), "agent")
        .with_observability(Arc::clone(&metrics), Arc::clone(&tracer));

    let mut ids = Vec::new();
    for client in [&client_a, &client_b] {
        for _ in 0..5 {
            let (_, report) = client
                .netsl_timed("ddot", &[vec![1.0].into(), vec![2.0].into()])
                .unwrap();
            ids.push(report.request_id);
        }
    }
    let mut deduped = ids.clone();
    deduped.sort_unstable();
    deduped.dedup();
    assert_eq!(deduped.len(), ids.len(), "request ids collided: {ids:?}");
    let mut traced: Vec<u64> = tracer
        .spans()
        .iter()
        .filter(|s| s.component == "client" && s.phase == "call")
        .map(|s| s.request_id)
        .collect();
    traced.sort_unstable();
    assert_eq!(traced, deduped, "one call span per request id");
    // The two clients occupy different id lanes (distinct high bits).
    assert_ne!(ids[0] >> 32, ids[5] >> 32, "clients share an id lane");

    server.stop();
    agent.stop();
}

/// A bare agent stand-in answering registrations and reports as the agent
/// does (a completion report with nothing), so the connection-cap test
/// controls every connection its server ever sees (no agent telemetry
/// probe dialing in mid-test).
fn stub_agent(net: &ChannelNetwork, name: &str) {
    let listener = net.listen(name).unwrap();
    std::thread::spawn(move || {
        while let Ok(mut conn) = listener.accept() {
            std::thread::spawn(move || {
                while let Ok(msg) = conn.recv() {
                    let reply = match msg {
                        Message::RegisterServer(_) => {
                            Message::RegisterAck { accepted: true, detail: "7".into() }
                        }
                        Message::CompletionReport { .. } => continue,
                        _ => Message::Pong,
                    };
                    if conn.send(&reply).is_err() {
                        return;
                    }
                }
            });
        }
    });
}

/// Regression (accept loop): past `max_connections` the server must shed
/// the connection with a retryable Busy error — visible in its metrics —
/// and recover as soon as slots free up. Before, every connection got an
/// unbounded thread and a failed spawn panicked the accept loop.
#[test]
fn connection_cap_sheds_with_retryable_busy() {
    let net = ChannelNetwork::new();
    stub_agent(&net, "agent");
    let mut config = ServerConfig::quick("h", "srv-capped", 100.0);
    config.max_connections = 2;
    let mut server = ServerDaemon::start(
        Arc::new(net.clone()),
        "agent",
        ServerCore::with_standard_catalogue(),
        config,
    )
    .unwrap();

    // Fill both slots and prove their serve threads are live.
    let mut held: Vec<Box<dyn Connection>> = Vec::new();
    for _ in 0..2 {
        let mut c = net.connect("srv-capped").unwrap();
        assert_eq!(call(c.as_mut(), &Message::Ping, timeout()).unwrap(), Message::Pong);
        held.push(c);
    }

    // The next connection is rejected with an unsolicited Busy reply.
    let mut rejected = net.connect("srv-capped").unwrap();
    match rejected.recv_timeout(timeout()).unwrap() {
        Message::Error { code, detail } => {
            let e = NetSolveError::from_code(code, detail);
            assert!(matches!(e, NetSolveError::Resource(_)), "got {e}");
            assert_eq!(e.class(), ErrorClass::Load { retry_after_ms: 0 }, "Busy is load: {e}");
        }
        other => panic!("expected Busy error, got {other:?}"),
    }

    // Free the slots: service resumes (retry until the closed connections'
    // threads have drained).
    drop(held);
    drop(rejected);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut c = net.connect("srv-capped").unwrap();
        if let Ok(Message::Pong) = call(c.as_mut(), &Message::Ping, Duration::from_millis(200)) {
            break;
        }
        assert!(Instant::now() < deadline, "server never recovered after cap shed");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The shed is visible in the metrics a live operator would scrape.
    // The recovery probe's serve thread may still be draining, so the
    // stats connection itself can catch a Busy — retry like a client would.
    let stats = loop {
        let mut c = net.connect("srv-capped").unwrap();
        match call(c.as_mut(), &Message::StatsQuery, timeout()).unwrap() {
            Message::Error { code, detail } => {
                let e = NetSolveError::from_code(code, detail);
                assert!(matches!(e, NetSolveError::Resource(_)), "unexpected error: {e}");
                assert!(Instant::now() < deadline, "stats query never got past the cap");
                std::thread::sleep(Duration::from_millis(10));
            }
            reply => break expect_stats(reply),
        }
    };
    assert_eq!(stats.component, "server");
    assert!(stats.counter("server.busy_rejected") >= 1);
    assert!(stats.counter("server.accepts") >= 3);

    server.stop();
}

/// `StatsQuery` answered by both daemons over the in-process channel
/// transport: components identify themselves and counters reflect the
/// traffic that ran.
#[test]
fn stats_query_roundtrip_over_channel_transport() {
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
    let client = NetSolveClient::new(Arc::clone(&clean), "agent");
    client.netsl("ddot", &[vec![1.0].into(), vec![2.0].into()]).unwrap();

    let mut conn = net.connect("agent").unwrap();
    let stats = expect_stats(call(conn.as_mut(), &Message::StatsQuery, timeout()).unwrap());
    assert_eq!(stats.component, "agent");
    assert_eq!(stats.counter("agent.registrations"), 1);
    assert!(stats.counter("agent.queries") >= 1);
    assert!(stats.counter("agent.rankings") >= 1);

    let mut conn = net.connect("srv0").unwrap();
    let stats = expect_stats(call(conn.as_mut(), &Message::StatsQuery, timeout()).unwrap());
    assert_eq!(stats.component, "server");
    assert_eq!(stats.counter("server.requests"), 1);
    assert_eq!(stats.counter("server.requests_ok"), 1);
    let compute = stats.histogram("server.compute_secs").expect("compute histogram");
    assert_eq!(compute.count, 1);
    assert!(compute.sum_secs >= 0.0);

    server.stop();
    agent.stop();
}

/// The same round-trip over real TCP sockets.
#[test]
fn stats_query_roundtrip_over_tcp() {
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let mut agent = AgentDaemon::start(
        Arc::clone(&transport),
        "127.0.0.1:0",
        AgentCore::with_defaults(),
    )
    .unwrap();
    let mut server = ServerDaemon::start(
        Arc::clone(&transport),
        agent.address(),
        ServerCore::with_standard_catalogue(),
        ServerConfig::quick("tcp-host", "127.0.0.1:0", 100.0),
    )
    .unwrap();

    let mut conn = transport.connect(agent.address()).unwrap();
    let stats = expect_stats(call(conn.as_mut(), &Message::StatsQuery, timeout()).unwrap());
    assert_eq!(stats.component, "agent");
    assert_eq!(stats.counter("agent.registrations"), 1);

    let mut conn = transport.connect(server.address()).unwrap();
    let stats = expect_stats(call(conn.as_mut(), &Message::StatsQuery, timeout()).unwrap());
    assert_eq!(stats.component, "server");

    server.stop();
    agent.stop();
}

/// Acceptance: a live trio — agent + two servers + one client, all over
/// real TCP, the client's dials chaos-soaked — answers `StatsQuery` with
/// non-zero attempt / compute / fault counters afterwards.
#[test]
fn live_trio_exposes_counters_after_chaos_run() {
    let clean: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    // Short down-cooldown: honestly-reported chaos failures must not
    // empty the two-server pool for the rest of the run.
    let agent_config = AgentConfig {
        fault: FaultPolicy { failures_to_mark_down: 3, down_cooldown_secs: 0.3 },
        ..AgentConfig::default()
    };
    let core =
        AgentCore::new(agent_config, Policy::MinimumCompletionTime, NetworkView::lan_defaults());
    let mut agent = AgentDaemon::start(Arc::clone(&clean), "127.0.0.1:0", core).unwrap();
    let mut servers = Vec::new();
    for i in 0..2 {
        servers.push(
            ServerDaemon::start(
                Arc::clone(&clean),
                agent.address(),
                ServerCore::with_standard_catalogue(),
                ServerConfig::quick(&format!("host{i}"), "127.0.0.1:0", 100.0 + 100.0 * i as f64),
            )
            .unwrap(),
        );
    }

    // 0.125 ms of jitter per leg: ~0.05 ms each way on average, about the
    // mean of a 10 % chance of a U(0, 1 ms) pause per send and receive.
    let policy = ChaosPolicy::calm()
        .with_link(LinkModel { jitter_secs: 1.25e-4, ..LinkModel::ideal() })
        .with_refusals(0.25);
    let metrics = Arc::new(MetricsRegistry::new());
    let tracer = Arc::new(Tracer::new());
    let chaos: Arc<dyn Transport> =
        Arc::new(ChaosTransport::new(Arc::clone(&clean), policy, 0xBEEF).with_metrics(&metrics));
    let client = NetSolveClient::new(chaos, agent.address())
        .with_retry(RetryPolicy {
            max_attempts: 5,
            attempt_timeout_secs: 5.0,
            backoff: Backoff::ExponentialJitter { base_secs: 0.002, cap_secs: 0.02 },
            deadline_secs: 0.0,
        })
        .with_observability(Arc::clone(&metrics), Arc::clone(&tracer));

    let mut ok = 0u32;
    for i in 0..40 {
        let x: Vec<f64> = (0..8).map(|k| ((i * 3 + k) % 5) as f64).collect();
        let y: Vec<f64> = (0..8).map(|k| ((i * 7 + k) % 3) as f64).collect();
        if client.netsl("ddot", &[x.into(), y.into()]).is_ok() {
            ok += 1;
        }
    }
    assert!(ok > 0, "no call survived the chaos run");

    // Scrape every daemon over a clean connection, exactly as the
    // netsl-stats bin would.
    let mut conn = clean.connect(agent.address()).unwrap();
    let agent_stats = expect_stats(call(conn.as_mut(), &Message::StatsQuery, timeout()).unwrap());
    assert_eq!(agent_stats.component, "agent");
    assert_eq!(agent_stats.counter("agent.registrations"), 2);
    assert!(agent_stats.counter("agent.queries") >= 40);
    assert!(
        agent_stats.counter("agent.failure_reports") > 0,
        "chaos-hit attempts must surface as fault traffic at the agent"
    );

    let mut compute_count = 0u64;
    for s in &servers {
        let mut conn = clean.connect(s.address()).unwrap();
        let stats = expect_stats(call(conn.as_mut(), &Message::StatsQuery, timeout()).unwrap());
        assert_eq!(stats.component, "server");
        compute_count += stats.histogram("server.compute_secs").map_or(0, |h| h.count);
    }
    assert_eq!(compute_count, u64::from(ok), "every success computed on some server");

    // Client-side view: chaos forced extra attempts, and the injected
    // refusals are mirrored into the same registry.
    let m = metrics.snapshot("client");
    assert_eq!(m.counter("client.calls"), 40);
    assert_eq!(m.counter("client.calls_ok"), u64::from(ok));
    assert!(m.counter("client.attempts") > 0);
    assert!(m.counter("client.attempt_failures") > 0);
    assert!(m.counter("chaos.refused") > 0, "chaos never bit");

    // Phase spans rode along with every call: the retained window holds
    // a successful call's terminal point and its attempt spans.
    assert!(tracer.spans_recorded() >= 40 * 2, "tracing went missing mid-soak");
    let retained = tracer.spans();
    assert!(retained.iter().any(|s| s.phase == "call_ok"));
    assert!(retained.iter().any(|s| s.phase == "attempt"));

    for s in &mut servers {
        s.stop();
    }
    agent.stop();
}
