//! Integration tests of the evaluation harness: the qualitative *shapes*
//! the paper's results rest on must hold in the simulator (these are the
//! same properties EXPERIMENTS.md reports quantitatively).

use netsolve::agent::Policy;
use netsolve::sim::{run, run_policies, Arrivals, RequestMix, Scenario, SimServer};

fn heterogeneous_pool() -> Vec<SimServer> {
    vec![
        SimServer::new(400.0),
        SimServer::new(200.0),
        SimServer::new(100.0),
        SimServer::new(50.0),
        SimServer::new(25.0),
    ]
}

/// R2 shape: MCT beats every naive baseline on mean turnaround over a
/// heterogeneous pool under load.
#[test]
fn mct_dominates_baselines_on_heterogeneous_pool() {
    let mut sc = Scenario::default_with(heterogeneous_pool(), 300);
    sc.arrivals = Arrivals::Poisson { rate: 3.0 };
    sc.mix = RequestMix::dgesv(&[200, 300, 400]);
    sc.seed = 99;

    let reports = run_policies(
        &sc,
        &[
            Policy::MinimumCompletionTime,
            Policy::RoundRobin,
            Policy::Random,
            Policy::FastestCpu,
        ],
    )
    .unwrap();
    let mct = reports[0].mean_turnaround_secs();
    for r in &reports[1..] {
        assert!(
            mct <= r.mean_turnaround_secs() * 1.05,
            "MCT {:.3}s should not lose to {} {:.3}s",
            mct,
            r.policy().name(),
            r.mean_turnaround_secs()
        );
    }
    // And it must beat the worst baseline clearly, not just tie everything.
    let worst = reports[1..]
        .iter()
        .map(|r| r.mean_turnaround_secs())
        .fold(0.0f64, f64::max);
    assert!(mct < worst * 0.8, "MCT {mct} vs worst baseline {worst}");
}

/// R2 shape: under MCT, faster servers complete more requests.
#[test]
fn work_distribution_follows_speed() {
    let mut sc = Scenario::default_with(heterogeneous_pool(), 400);
    sc.arrivals = Arrivals::Poisson { rate: 4.0 };
    sc.seed = 7;
    let report = run(&sc).unwrap();
    let counts = report.per_server_counts();
    // Monotone non-increasing with speed, with real separation between
    // the fastest and slowest.
    assert!(counts[0] > counts[4], "fastest {} vs slowest {}", counts[0], counts[4]);
    assert!(counts[0] >= counts[1] && counts[1] >= counts[3].min(counts[2]));
}

/// R4 shape: staler workload information degrades scheduling quality.
#[test]
fn stale_workload_info_hurts() {
    let mut base = Scenario::default_with(
        vec![SimServer::new(100.0), SimServer::new(100.0), SimServer::new(100.0)],
        250,
    );
    base.arrivals = Arrivals::Poisson { rate: 2.5 };
    base.seed = 31;

    let mut fresh = base.clone();
    fresh.workload.report_interval_secs = 1.0;
    fresh.workload.ttl_secs = 10.0;

    let mut stale = base.clone();
    stale.workload.report_interval_secs = 300.0; // effectively never
    stale.workload.ttl_secs = 3000.0;

    let fresh_report = run(&fresh).unwrap();
    let stale_report = run(&stale).unwrap();
    assert!(
        fresh_report.mean_turnaround_secs() <= stale_report.mean_turnaround_secs() * 1.10,
        "fresh {:.3} vs stale {:.3}",
        fresh_report.mean_turnaround_secs(),
        stale_report.mean_turnaround_secs()
    );
}

/// R5 shape: failover rescues almost everything; disabling it loses
/// requests roughly in proportion to the failure rate.
#[test]
fn failover_rescues_requests() {
    let servers = vec![
        SimServer::new(100.0).with_fail_prob(0.25),
        SimServer::new(100.0).with_fail_prob(0.25),
        SimServer::new(100.0),
    ];
    let mut with_failover = Scenario::default_with(servers.clone(), 200);
    with_failover.max_attempts = 3;
    with_failover.seed = 17;
    let mut without = with_failover.clone();
    without.max_attempts = 1;

    let a = run(&with_failover).unwrap();
    let b = run(&without).unwrap();
    assert!(a.success_rate() > 0.98, "failover success {}", a.success_rate());
    assert!(b.success_rate() < a.success_rate(), "failover must help");
}

/// R7 shape: as the bandwidth to the fast-but-far server degrades, MCT
/// shifts transfer-heavy work to the slow-but-near server.
#[test]
fn bandwidth_crossover_shifts_placement() {
    let servers = vec![SimServer::new(1000.0), SimServer::new(100.0)];
    let mk = |fast_bw: f64| {
        let mut sc = Scenario::default_with(servers.clone(), 120)
            .server_link_override(0, 1e-3, fast_bw)
            .server_link_override(1, 1e-4, 100e6);
        sc.arrivals = Arrivals::Poisson { rate: 0.5 }; // light load: pure placement
        sc.mix = RequestMix::dgesv(&[300]);
        sc.seed = 5;
        sc
    };
    // Excellent link to the fast server: it gets (almost) everything.
    let good = run(&mk(50e6)).unwrap();
    // Starved link: the near server wins.
    let bad = run(&mk(5e4)).unwrap();
    let good_counts = good.per_server_counts();
    let bad_counts = bad.per_server_counts();
    assert!(
        good_counts[0] > good_counts[1],
        "good link: fast server should dominate {good_counts:?}"
    );
    assert!(
        bad_counts[1] > bad_counts[0],
        "bad link: near server should dominate {bad_counts:?}"
    );
}

/// R3 shape: predictions track reality when the model assumptions hold.
#[test]
fn predictions_track_reality() {
    let mut sc = Scenario::default_with(vec![SimServer::new(150.0), SimServer::new(150.0)], 100);
    sc.arrivals = Arrivals::Poisson { rate: 0.3 };
    sc.workload.report_interval_secs = 1.0;
    sc.seed = 3;
    let report = run(&sc).unwrap();
    assert!(
        report.median_relative_prediction_error() < 0.25,
        "median relative error {}",
        report.median_relative_prediction_error()
    );
}

/// R6 shape: the agent's ranking cost stays tiny even for big pools —
/// measured directly on the pure ranking function.
#[test]
fn ranking_scales_to_hundreds_of_servers() {
    use netsolve::agent::{rank, BalancerState, Policy, ServerSnapshot};
    use netsolve::core::{Complexity, RequestShape};
    use netsolve::core::ids::{HostId, ServerId};
    use netsolve::net::NetworkView;

    let pool: Vec<ServerSnapshot> = (0..512)
        .map(|i| ServerSnapshot {
            server_id: ServerId(i + 1),
            host: HostId(i + 1),
            address: format!("s{i}"),
            mflops: 50.0 + (i % 100) as f64 * 5.0,
            workload: (i % 7) as f64 * 20.0,
        })
        .collect();
    let shape = RequestShape { problem: "dgesv".into(), n: 500, bytes_in: 2_000_000, bytes_out: 4_000 };
    let net = NetworkView::lan_defaults();
    let mut st = BalancerState::default();
    let start = std::time::Instant::now();
    let iterations = 200;
    for _ in 0..iterations {
        let ranked = rank(
            Policy::MinimumCompletionTime,
            &pool,
            &shape,
            Complexity::new(0.6667, 3.0).unwrap(),
            &net,
            HostId(9999),
            &mut st,
        );
        assert_eq!(ranked.len(), 512);
    }
    let per_call = start.elapsed().as_secs_f64() / iterations as f64;
    assert!(per_call < 0.01, "ranking 512 servers took {per_call}s per call");
}

/// DESIGN.md §4j cross-check: `max_attempts` is a *total-tries* budget
/// with candidate cycling in BOTH the simulator and the live client.
/// Two always-failing servers and a budget of 3 must burn exactly 3
/// attempts on each side, with the third try wrapping back to an
/// already-tried candidate. (The sim used to abandon a job once the
/// ranked list was exhausted — one effective try short of live.)
#[test]
fn retry_attempt_budget_matches_live_client_cycling() {
    use std::sync::atomic::{AtomicU32, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    use netsolve::agent::{AgentCore, AgentDaemon};
    use netsolve::client::NetSolveClient;
    use netsolve::core::admission::{format_busy_detail, ShedReason};
    use netsolve::core::config::{Backoff, RetryPolicy};
    use netsolve::core::{DataObject, NetSolveError};
    use netsolve::net::{call, ChannelNetwork, Transport};
    use netsolve::proto::{Message, ServerDescriptor};

    const BUDGET: usize = 3;

    // --- Sim side: two certain-to-fail servers, budget of 3. ---
    let mut sc = Scenario::default_with(
        vec![
            SimServer::new(100.0).with_fail_prob(1.0),
            SimServer::new(100.0).with_fail_prob(1.0),
        ],
        1,
    );
    sc.max_attempts = BUDGET;
    let report = run(&sc).unwrap();
    let record = &report.requests()[0];
    assert!(!record.ok, "nothing can succeed");
    assert_eq!(record.attempts as usize, BUDGET, "sim burns the whole total-tries budget");

    // --- Live side: two hand-rolled servers that shed every request. ---
    let net = ChannelNetwork::new();
    let transport: Arc<dyn Transport> = Arc::new(net.clone());
    let agent =
        AgentDaemon::start(Arc::clone(&transport), "agent", AgentCore::with_defaults()).unwrap();
    let registry = netsolve::pdl::ProblemRegistry::with_standard_catalogue();
    let ddot_pdl = netsolve::pdl::render(registry.get("ddot").unwrap());
    let submits: Arc<[AtomicU32; 2]> = Arc::new([AtomicU32::new(0), AtomicU32::new(0)]);
    for i in 0..2usize {
        let address = format!("busy{i}");
        let mut conn = net.connect("agent").unwrap();
        let reply = call(
            conn.as_mut(),
            &Message::RegisterServer(ServerDescriptor {
                server_id: 0,
                host: format!("busyhost{i}"),
                address: address.clone(),
                mflops: 100.0,
                problems: vec!["ddot".into()],
                pdl_source: ddot_pdl.clone(),
            }),
            Duration::from_secs(5),
        )
        .unwrap();
        assert!(matches!(reply, Message::RegisterAck { accepted: true, .. }));
        let listener = net.listen(&address).unwrap();
        let submits = Arc::clone(&submits);
        // Leaked on purpose: the listener outlives the test body.
        std::thread::spawn(move || {
            while let Ok(mut conn) = listener.accept() {
                if let Ok(Message::RequestSubmit { .. }) = conn.recv() {
                    submits[i].fetch_add(1, Ordering::SeqCst);
                    let _ = conn.send(&Message::from_error(&NetSolveError::Resource(
                        format_busy_detail(ShedReason::QueueFull, 9, 1),
                    )));
                }
            }
        });
    }

    let client = NetSolveClient::new(Arc::new(net.clone()), "agent").with_retry(RetryPolicy {
        max_attempts: BUDGET,
        attempt_timeout_secs: 5.0,
        backoff: Backoff::Fixed { delay_secs: 0.0 },
        deadline_secs: 0.0,
    });
    let inputs: Vec<DataObject> = vec![vec![1.0, 2.0].into(), vec![3.0, 4.0].into()];
    let err = client.netsl("ddot", &inputs).expect_err("everything is busy");
    assert!(matches!(err, NetSolveError::Resource(_)), "got {err}");
    assert_eq!(
        client.metrics().counter("client.attempts").get() as usize,
        BUDGET,
        "live burns the whole total-tries budget"
    );
    let counts = [submits[0].load(Ordering::SeqCst), submits[1].load(Ordering::SeqCst)];
    assert_eq!((counts[0] + counts[1]) as usize, BUDGET, "{counts:?}");
    assert_eq!(
        counts[0].max(counts[1]),
        2,
        "the third try wraps back to an already-tried candidate: {counts:?}"
    );
    drop(agent);
}
