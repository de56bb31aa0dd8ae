//! Live-TCP acceptance for the content-addressed solve cache's in-flight
//! coalescing (DESIGN.md §4h):
//!
//! * N concurrent identical requests produce exactly ONE `solve` span —
//!   one request leads the solve, the rest join it — and all N clients
//!   get the same answer;
//! * a solve that fails mid-flight propagates its error to every joined
//!   waiter (nobody hangs) and the error is NOT cached: the next
//!   identical request re-solves from scratch.
//!
//! Both run over real TCP sockets so the coalescing window includes
//! genuine connect/marshal latency, not just in-process handoff.

use std::sync::{Arc, Barrier};

use netsolve::agent::{AgentCore, AgentDaemon};
use netsolve::client::NetSolveClient;
use netsolve::core::{DataObject, Matrix, NetSolveError};
use netsolve::net::{TcpTransport, Transport};
use netsolve::obs::{MetricsRegistry, Tracer};
use netsolve::pdl::ProblemRegistry;
use netsolve::server::{ExecutionMode, ServerConfig, ServerCore, ServerDaemon};

const CLIENTS: usize = 6;

/// Count spans of one server phase in a shared tracer.
fn span_count(tracer: &Tracer, phase: &str) -> usize {
    tracer.spans().iter().filter(|s| s.component == "server" && s.phase == phase).count()
}

/// Boot an agent + one cache-enabled server over TCP, sharing the
/// server's tracer and metrics with the caller for assertions.
fn boot(
    mode: ExecutionMode,
) -> (AgentDaemon, ServerDaemon, Arc<dyn Transport>, String, Arc<Tracer>, Arc<MetricsRegistry>) {
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let agent =
        AgentDaemon::start(Arc::clone(&transport), "127.0.0.1:0", AgentCore::with_defaults())
            .unwrap();
    let agent_address = agent.address().to_string();

    let tracer = Arc::new(Tracer::new());
    let core = ServerCore::new(ProblemRegistry::with_standard_catalogue(), mode)
        .with_cache(1 << 20)
        .with_tracer(Arc::clone(&tracer));
    let metrics = core.metrics();
    let server = ServerDaemon::start(
        Arc::clone(&transport),
        &agent_address,
        core,
        ServerConfig::quick("cachehost", "127.0.0.1:0", 100.0),
    )
    .unwrap();
    (agent, server, transport, agent_address, tracer, metrics)
}

/// N clients fire the same problem through a barrier; the synthetic
/// executor sleeps ~1s per solve, so every late arrival lands while the
/// leader's solve is still in flight and must coalesce onto it.
#[test]
fn concurrent_identical_requests_coalesce_onto_one_solve() {
    // 2n flops at 0.1 Mflop/s => ~1s synthetic solve for n = 50_000.
    let (mut agent, mut server, transport, agent_address, tracer, server_metrics) =
        boot(ExecutionMode::Synthetic { mflops: 0.1 });

    let client_metrics = Arc::new(MetricsRegistry::new());
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let inputs: Vec<DataObject> =
        vec![vec![0.25f64; 50_000].into(), vec![0.5f64; 50_000].into()];

    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let transport = Arc::clone(&transport);
            let agent_address = agent_address.clone();
            let client_metrics = Arc::clone(&client_metrics);
            let barrier = Arc::clone(&barrier);
            let inputs = inputs.clone();
            std::thread::spawn(move || {
                let client = NetSolveClient::new(transport, &agent_address)
                    .with_observability(client_metrics, Arc::new(Tracer::new()));
                barrier.wait();
                client.netsl("ddot", &inputs)
            })
        })
        .collect();

    let mut answers = Vec::new();
    for h in handles {
        let outputs = h.join().unwrap().expect("coalesced request must succeed");
        answers.push(outputs[0].as_double().unwrap());
    }
    assert_eq!(answers.len(), CLIENTS, "every client got a reply");
    assert!(answers.windows(2).all(|w| w[0] == w[1]), "all replies identical: {answers:?}");

    // The core invariant: N requests, ONE solve. Everyone else either
    // joined the in-flight solve or hit the cache the leader populated.
    assert_eq!(span_count(&tracer, "solve"), 1, "exactly one solve span for {CLIENTS} requests");
    assert_eq!(span_count(&tracer, "cache_lookup"), CLIENTS, "every request probed the cache");

    let snap = server_metrics.snapshot("server");
    assert_eq!(snap.counter("server.cache_misses"), 1, "one leader");
    assert_eq!(
        snap.counter("server.cache_coalesced") + snap.counter("server.cache_hits"),
        (CLIENTS - 1) as u64,
        "everyone else joined or hit"
    );
    assert_eq!(snap.counter("server.cache_inserts"), 1);
    assert_eq!(snap.counter("server.requests_ok"), CLIENTS as u64);
    // Insert-time CRC ran once; serve-time CRC ran for every consumer of
    // the shared bytes — post-publish hits AND coalesced waiters alike.
    assert_eq!(snap.counter("server.cache_insert_crcs"), 1);
    assert_eq!(
        snap.counter("server.cache_serve_crcs"),
        snap.counter("server.cache_hits") + snap.counter("server.cache_coalesced")
    );
    assert_eq!(snap.counter("server.cache_corrupt_dropped"), 0);

    // The cached=true wire marker reached every non-leader client.
    assert_eq!(
        client_metrics.snapshot("client").counter("client.cached_replies"),
        (CLIENTS - 1) as u64,
        "all but the leader saw a cached/coalesced reply"
    );

    server.stop();
    agent.stop();
}

/// A solve that dies mid-flight (singular matrix: LU hits its zero pivot
/// at the LAST elimination step, long after the waiters have joined)
/// must hand that error to every joined waiter — no hung clients — and
/// must NOT leave the error in the cache: the next identical request
/// becomes a fresh leader and re-solves.
#[test]
fn mid_solve_failure_reaches_every_joined_waiter_and_is_not_cached() {
    let (mut agent, mut server, transport, agent_address, tracer, server_metrics) =
        boot(ExecutionMode::Real);

    // diag(1, .., 1, 0): partial pivoting only discovers the singularity
    // at step n-1, so the failure lands after O(n^3) of real work —
    // plenty of window for the barrier-released waiters to coalesce.
    let n = 220;
    let a = Matrix::from_fn(n, n, |i, j| if i == j && i < n - 1 { 1.0 } else { 0.0 });
    let b = vec![1.0f64; n];
    let inputs: Vec<DataObject> = vec![a.into(), b.into()];

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let transport = Arc::clone(&transport);
            let agent_address = agent_address.clone();
            let barrier = Arc::clone(&barrier);
            let inputs = inputs.clone();
            std::thread::spawn(move || {
                let client = NetSolveClient::new(transport, &agent_address);
                barrier.wait();
                client.netsl("dgesv", &inputs)
            })
        })
        .collect();

    for h in handles {
        // join() returning at all proves no waiter hung on the dead solve.
        let err = h.join().unwrap().expect_err("singular system must fail");
        assert!(
            matches!(err, NetSolveError::Numerical(_)),
            "waiters get the leader's real error, got: {err}"
        );
    }

    let snap = server_metrics.snapshot("server");
    assert_eq!(snap.counter("server.requests_failed"), CLIENTS as u64);
    assert_eq!(snap.counter("server.cache_inserts"), 0, "errors are never cached");
    assert_eq!(snap.gauge("server.cache_entries"), 0);
    let solves_before = span_count(&tracer, "solve");
    assert!(solves_before >= 1);

    // Nothing poisoned: the same request after the dust settles is a
    // fresh miss that re-solves (a cached error would skip the solver).
    let client = NetSolveClient::new(Arc::clone(&transport), &agent_address);
    let err = client.netsl("dgesv", &inputs).expect_err("still singular");
    assert!(matches!(err, NetSolveError::Numerical(_)), "got: {err}");
    assert_eq!(span_count(&tracer, "solve"), solves_before + 1, "the retry really re-solved");

    server.stop();
    agent.stop();
}

/// DESIGN.md §4j / ROADMAP §3 regression: non-deterministic problems
/// must never be served from the cache. Two identical seed-0 `quad_mc`
/// submissions each run a fresh solve and return *independent* Monte
/// Carlo estimates; a pinned nonzero seed reproduces bit-for-bit but
/// STILL bypasses the cache (the bypass is per-problem, not per-seed —
/// a seeded entry must not shadow a later seed-0 run); and deterministic
/// problems keep hitting the cache as before.
#[test]
fn nondeterministic_problems_bypass_the_cache() {
    let (mut agent, mut server, transport, agent_address, tracer, server_metrics) =
        boot(ExecutionMode::Real);
    let client = NetSolveClient::new(Arc::clone(&transport), &agent_address);

    // seed 0 = "use fresh server entropy each run".
    let pi = std::f64::consts::PI;
    let fresh: Vec<DataObject> = vec![
        "sin".into(),
        DataObject::Double(0.0),
        DataObject::Double(pi),
        DataObject::Int(200_000),
        DataObject::Int(0),
    ];
    let first = client.netsl("quad_mc", &fresh).unwrap()[0].as_double().unwrap();
    let second = client.netsl("quad_mc", &fresh).unwrap()[0].as_double().unwrap();
    assert_ne!(first, second, "identical seed-0 submissions must give independent estimates");
    for est in [first, second] {
        // Independent, but both still estimates of ∫sin over [0, π] = 2.
        assert!((est - 2.0).abs() < 0.05, "MC estimate off: {est}");
    }
    assert_eq!(span_count(&tracer, "solve"), 2, "both submissions really solved");

    // Pinned seed: reproducible answers, identical requests — and still
    // no cache traffic.
    let pinned: Vec<DataObject> = vec![
        "sin".into(),
        DataObject::Double(0.0),
        DataObject::Double(pi),
        DataObject::Int(50_000),
        DataObject::Int(42),
    ];
    let p1 = client.netsl("quad_mc", &pinned).unwrap()[0].as_double().unwrap();
    let p2 = client.netsl("quad_mc", &pinned).unwrap()[0].as_double().unwrap();
    assert_eq!(p1, p2, "a pinned seed is reproducible");
    assert_eq!(span_count(&tracer, "solve"), 4, "reproducible != cacheable");

    let snap = server_metrics.snapshot("server");
    assert_eq!(snap.counter("server.cache_bypass_nondet"), 4);
    assert_eq!(snap.counter("server.cache_inserts"), 0, "nondet results are never cached");
    assert_eq!(snap.counter("server.cache_hits"), 0);
    assert_eq!(snap.counter("server.cache_misses"), 0, "bypass skips the lookup entirely");

    // Determinism intact: the same dgesv twice is one solve + one hit.
    let a = Matrix::identity(16);
    let b = vec![1.0f64; 16];
    let det_inputs: Vec<DataObject> = vec![a.into(), b.clone().into()];
    let x1 = client.netsl("dgesv", &det_inputs).unwrap();
    let x2 = client.netsl("dgesv", &det_inputs).unwrap();
    assert_eq!(x1[0].as_vector().unwrap(), x2[0].as_vector().unwrap());
    let snap = server_metrics.snapshot("server");
    assert_eq!(snap.counter("server.cache_hits"), 1, "deterministic problems still hit");
    assert_eq!(snap.counter("server.cache_inserts"), 1);

    server.stop();
    agent.stop();
}

/// A `NaN` or infinite matrix entry used to slip past the pivot test
/// (`NaN < tol` is false) and come back as a *successful* all-`NaN`
/// solution, which the server encoded, cached and served to the next
/// caller. The factorisations now refuse a non-finite pivot: the client
/// sees the typed error, twice, and the cache holds nothing.
#[test]
fn non_finite_input_is_a_typed_error_and_never_cached() {
    let (mut agent, mut server, transport, agent_address, _tracer, server_metrics) =
        boot(ExecutionMode::Real);
    let client = NetSolveClient::new(Arc::clone(&transport), &agent_address);

    let n = 40;
    let mut calls = 0;
    for problem in ["dgesv", "dposv"] {
        for bad in [f64::NAN, f64::INFINITY] {
            // Symmetric, so dposv's own symmetry check passes it on.
            let mut a = Matrix::from_fn(n, n, |i, j| if i == j { 4.0 } else { 0.01 });
            a[(n - 3, 2)] = bad;
            a[(2, n - 3)] = bad;
            let inputs: Vec<DataObject> = vec![a.into(), vec![1.0f64; n].into()];
            for attempt in 0..2 {
                let err = client.netsl(problem, &inputs).expect_err("non-finite system must fail");
                assert!(
                    matches!(err, NetSolveError::Numerical(_)),
                    "{problem} with {bad}, attempt {attempt}: got {err}"
                );
                calls += 1;
            }
        }
    }

    let snap = server_metrics.snapshot("server");
    assert_eq!(snap.counter("server.cache_misses"), calls, "every call was a fresh miss");
    assert_eq!(snap.counter("server.cache_hits"), 0);
    assert_eq!(snap.counter("server.cache_inserts"), 0, "a failed solve is never cached");
    assert_eq!(snap.gauge("server.cache_entries"), 0);
    assert_eq!(snap.counter("server.requests_ok"), 0);

    server.stop();
    agent.stop();
}
