//! End-to-end integration tests: full domains (agent + servers + clients)
//! exercising every layer together — PDL catalogue, XDR marshaling,
//! protocol framing, transports, scheduling, failover, and the solvers.

use std::sync::Arc;

use netsolve::core::{CsrMatrix, DataObject, Matrix, Rng64};
use netsolve::net::ChaosPolicy;
use netsolve::server::ExecutionMode;
use netsolve::agent::Policy;
use netsolve::testbed::InProcessDomain;

/// Every problem in the standard catalogue is solvable through a live
/// domain — the dispatch table, the PDL signatures, the marshaling and the
/// numerics all agree.
#[test]
fn every_catalogue_problem_solves_end_to_end() {
    let domain = InProcessDomain::start(&[("h1", 200.0), ("h2", 100.0)]).unwrap();
    let client = domain.client();
    let mut rng = Rng64::new(1);

    let a8 = Matrix::random_diag_dominant(8, &mut rng);
    let spd8 = Matrix::random_spd(8, &mut rng);
    let lap = CsrMatrix::laplacian_2d(3, 3);
    let v8 = vec![1.0f64; 8];
    let v9 = vec![1.0f64; 9];

    let calls: Vec<(&str, Vec<DataObject>)> = vec![
        ("dgesv", vec![a8.clone().into(), v8.clone().into()]),
        ("dgels", vec![a8.clone().into(), v8.clone().into()]),
        ("dposv", vec![spd8.clone().into(), v8.clone().into()]),
        (
            "dgtsv",
            vec![
                vec![-1.0; 7].into(),
                vec![4.0; 8].into(),
                vec![-1.0; 7].into(),
                v8.clone().into(),
            ],
        ),
        ("dgemm", vec![a8.clone().into(), a8.clone().into()]),
        (
            "eig_power",
            vec![spd8.clone().into(), DataObject::Double(1e-8), DataObject::Int(20_000)],
        ),
        (
            "cg",
            vec![lap.clone().into(), v9.clone().into(), DataObject::Double(1e-9), DataObject::Int(2_000)],
        ),
        (
            "jacobi",
            vec![lap.clone().into(), v9.clone().into(), DataObject::Double(1e-9), DataObject::Int(50_000)],
        ),
        (
            "sor",
            vec![
                lap.clone().into(),
                v9.clone().into(),
                DataObject::Double(1.3),
                DataObject::Double(1e-9),
                DataObject::Int(50_000),
            ],
        ),
        ("spmv", vec![lap.clone().into(), v9.clone().into()]),
        ("fft", vec![vec![1.0; 16].into(), vec![0.0; 16].into()]),
        ("ifft", vec![vec![1.0; 16].into(), vec![0.0; 16].into()]),
        (
            "polyfit",
            vec![
                vec![0.0, 1.0, 2.0, 3.0, 4.0].into(),
                vec![1.0, 2.0, 3.0, 4.0, 5.0].into(),
                DataObject::Int(1),
            ],
        ),
        (
            "quad",
            vec![
                "poly3".into(),
                DataObject::Double(0.0),
                DataObject::Double(2.0),
                DataObject::Double(1e-10),
            ],
        ),
        ("dgetri", vec![a8.clone().into()]),
        ("conv", vec![vec![1.0, 2.0, 3.0].into(), vec![1.0, 1.0].into()]),
        (
            "ode_rk4",
            vec![
                "oscillator".into(),
                vec![1.0, 0.0].into(),
                DataObject::Double(0.0),
                DataObject::Double(1.0),
                DataObject::Int(500),
            ],
        ),
        (
            "quad_mc",
            vec![
                "gauss".into(),
                DataObject::Double(-1.0),
                DataObject::Double(1.0),
                DataObject::Int(20_000),
                DataObject::Int(7),
            ],
        ),
        ("vsort", vec![vec![3.0, 1.0, 2.0].into()]),
        ("ddot", vec![v8.clone().into(), v8.clone().into()]),
        ("dnrm2", vec![v8.clone().into()]),
    ];
    let names = client.list_problems().unwrap();
    assert_eq!(calls.len(), names.len(), "test must cover the whole catalogue");
    for (problem, inputs) in calls {
        let outputs = client
            .netsl(problem, &inputs)
            .unwrap_or_else(|e| panic!("{problem} failed end-to-end: {e}"));
        assert!(!outputs.is_empty(), "{problem} returned nothing");
        let spec = client.describe(problem).unwrap();
        spec.check_outputs(&outputs).unwrap();
    }
}

/// Remote answers equal local answers bit-for-bit for deterministic
/// problems: the wire does not perturb data.
#[test]
fn remote_equals_local_exactly() {
    let domain = InProcessDomain::start(&[("h", 100.0)]).unwrap();
    let client = domain.client();
    let mut rng = Rng64::new(5);
    let a = Matrix::random_diag_dominant(20, &mut rng);
    let b: Vec<f64> = (0..20).map(|i| (i as f64).sin()).collect();

    let remote = client
        .netsl("dgesv", &[a.clone().into(), b.clone().into()])
        .unwrap();
    let local = netsolve::solvers::lu::dgesv(&a, &b).unwrap();
    assert_eq!(remote[0].as_vector().unwrap(), local.as_slice());
}

/// A lossy network (2% of sends and receives reset) plus client retries
/// still completes a batch; failures are visible in attempt counts.
#[test]
fn lossy_network_is_survivable() {
    let mut domain = InProcessDomain::start_with(
        &[("a", 100.0), ("b", 100.0), ("c", 100.0)],
        ChaosPolicy::calm().with_resets(0.02),
        Policy::MinimumCompletionTime,
        ExecutionMode::Real,
    )
    .unwrap();
    let client = domain.client();

    let mut ok = 0;
    let total = 40;
    for i in 0..total {
        let v = vec![i as f64; 8];
        match client.netsl("dnrm2", &[v.into()]) {
            Ok(out) => {
                let expect = (8.0f64).sqrt() * i as f64;
                assert!((out[0].as_double().unwrap() - expect).abs() < 1e-9);
                ok += 1;
            }
            Err(e) => {
                // Only infrastructure errors are acceptable here.
                assert!(e.is_retryable(), "unexpected error class: {e}");
            }
        }
    }
    assert!(ok >= total * 8 / 10, "too many losses: {ok}/{total}");
    domain.shutdown();
}

/// The scheduler reacts to synthetic load: with one server emulating slow
/// execution, big work goes to the fast machine.
#[test]
fn synthetic_mode_emulates_speed_ratio() {
    // Synthetic execution: service time = complexity / advertised mflops,
    // so the advertised ratings are real. 50x speed difference.
    let mut domain = InProcessDomain::start_with(
        &[("supercomputer", 5000.0), ("workstation", 100.0)],
        ChaosPolicy::calm(),
        Policy::MinimumCompletionTime,
        ExecutionMode::Synthetic { mflops: 0.0 }, // per-server value is used
    )
    .unwrap();
    let client = domain.client();
    let spec = client.describe("dgesv").unwrap();
    let inputs: Vec<DataObject> =
        vec![Matrix::identity(100).into(), vec![0.0f64; 100].into()];
    // On the fresh domain nothing has been observed yet, so the ranking is
    // pure arithmetic over the advertised ratings: the 50x faster machine
    // must come first, and the first solve must land on it.
    let ranked = client.query_servers(&spec, &inputs).unwrap();
    assert_eq!(ranked[0].address, "srv0", "fast machine must rank first");
    let (_, report) = client.netsl_timed("dgesv", &inputs).unwrap();
    if report.attempts == 1 {
        assert_eq!(report.server_address, "srv0");
    }
    // Later solves are not pinned to srv0: each completion report teaches
    // the agent's network view real transfer times, and on a starved CPU
    // the measured slowness legitimately re-ranks the domain. The solves
    // themselves must keep succeeding.
    for _ in 0..4 {
        client.netsl_timed("dgesv", &inputs).unwrap();
    }
    domain.shutdown();
}

/// The MATLAB front end, the client library and the solver substrate agree
/// through a full domain.
#[test]
fn script_domain_and_solvers_agree() {
    let domain = InProcessDomain::start(&[("h1", 150.0)]).unwrap();
    let mut interp = netsolve::script::Interpreter::with_client(domain.client());
    interp
        .run(
            "A = [5 1 0; 1 5 1; 0 1 5]\n\
             b = [6 7 6]\n\
             x = netsolve('dgesv', A, b)\n\
             err = norm(A * x - b)",
        )
        .unwrap();
    let err = interp.get("err").unwrap().as_scalar().unwrap();
    assert!(err < 1e-12);
}

/// Concurrent clients hammering one domain stay consistent.
#[test]
fn concurrent_clients_are_isolated() {
    let domain = InProcessDomain::start(&[("h1", 300.0), ("h2", 300.0)]).unwrap();
    let domain = Arc::new(domain);
    let handles: Vec<_> = (0..6)
        .map(|t| {
            let domain = Arc::clone(&domain);
            std::thread::spawn(move || {
                let client = domain.client();
                for i in 0..15 {
                    let k = (t * 100 + i) as f64;
                    let out = client
                        .netsl("ddot", &[vec![k, 1.0].into(), vec![1.0, k].into()])
                        .unwrap();
                    assert_eq!(out[0].as_double().unwrap(), 2.0 * k);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

/// A federated pair of agents: a client of agent A transparently solves a
/// problem whose only server registered with agent B.
#[test]
fn federated_agents_share_servers() {
    use netsolve::agent::{AgentCore, AgentDaemon};
    use netsolve::client::NetSolveClient;
    use netsolve::net::{ChannelNetwork, Transport};
    use netsolve::server::{ServerConfig, ServerCore, ServerDaemon};

    let net = ChannelNetwork::new();
    let transport: Arc<dyn Transport> = Arc::new(net.clone());
    let mut agent_b =
        AgentDaemon::start(Arc::clone(&transport), "agent-b", AgentCore::with_defaults()).unwrap();
    let mut agent_a =
        AgentDaemon::start(Arc::clone(&transport), "agent-a", AgentCore::with_defaults()).unwrap();
    agent_a.set_peers(vec!["agent-b".into()]);
    let mut server = ServerDaemon::start(
        Arc::clone(&transport),
        "agent-b",
        ServerCore::with_standard_catalogue(),
        ServerConfig::quick("remote-site", "srv-b", 200.0),
    )
    .unwrap();

    // Client talks only to agent A; the work lands on agent B's server.
    let client = NetSolveClient::new(Arc::new(net), "agent-a");
    let (out, report) = client
        .netsl_timed("ddot", &[vec![1.0, 2.0, 3.0].into(), vec![4.0, 5.0, 6.0].into()])
        .unwrap();
    assert_eq!(out[0].as_double().unwrap(), 32.0);
    assert_eq!(report.server_address, "srv-b");

    server.stop();
    agent_a.stop();
    agent_b.stop();
}

/// Regression: a server restarted on its fixed address used to become a
/// second row at the agent (a new id per `RegisterServer`). The restart
/// must replace the row — the roster shows the address once, with the new
/// registration's rating — and calls keep landing on it: on the restarted
/// daemon, not on the stopped one whose connection the client still holds.
#[test]
fn restarted_server_keeps_one_row_at_the_agent() {
    use netsolve::agent::{AgentCore, AgentDaemon};
    use netsolve::client::NetSolveClient;
    use netsolve::net::{ChannelNetwork, Transport};
    use netsolve::server::{ServerConfig, ServerCore, ServerDaemon};

    let net = ChannelNetwork::new();
    let transport: Arc<dyn Transport> = Arc::new(net.clone());
    let mut agent =
        AgentDaemon::start(Arc::clone(&transport), "agent", AgentCore::with_defaults()).unwrap();
    let start_server = |mflops: f64| {
        ServerDaemon::start(
            Arc::clone(&transport),
            "agent",
            ServerCore::with_standard_catalogue(),
            ServerConfig::quick("hostA", "srv-a", mflops),
        )
        .unwrap()
    };
    let client = NetSolveClient::new(Arc::new(net.clone()), "agent");
    let ddot = [vec![1.0, 2.0, 3.0].into(), vec![4.0, 5.0, 6.0].into()];

    let mut first = start_server(200.0);
    assert_eq!(client.netsl("ddot", &ddot).unwrap()[0].as_double().unwrap(), 32.0);
    first.stop();
    let mut second = start_server(321.0);

    let roster = client.list_servers().unwrap();
    let rows: Vec<_> = roster.iter().filter(|s| s.address == "srv-a").collect();
    assert_eq!(rows.len(), 1, "one row per address: {roster:?}");
    assert_eq!(rows[0].mflops, 321.0, "the restart's registration is the row");
    assert!(!rows[0].down);
    let (out, report) = client.netsl_timed("ddot", &ddot).unwrap();
    assert_eq!(out[0].as_double().unwrap(), 32.0);
    assert_eq!((report.server_address.as_str(), report.attempts), ("srv-a", 1));
    // A stopped daemon answers nothing, kept connection or not.
    assert_eq!((first.requests_served(), second.requests_served()), (1, 1));

    second.stop();
    agent.stop();
}

/// A steady client dials a server once: 200 calls over loopback TCP reach
/// the server's listener a single time, on the connection its first call
/// opened, and every answer is right. A farm's burst opens what it needs
/// and keeps no more than the per-address bound afterwards.
#[test]
fn a_steady_client_keeps_its_server_connection() {
    use netsolve::agent::{AgentCore, AgentDaemon};
    use netsolve::client::NetSolveClient;
    use netsolve::core::config::{AgentConfig, TelemetryPolicy};
    use netsolve::net::{NetworkView, TcpTransport, Transport};
    use netsolve::server::{ServerConfig, ServerCore, ServerDaemon};

    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    // No digest scrapes: the client is the only one dialling the server.
    let quiet = AgentConfig {
        telemetry: TelemetryPolicy { digests: false, ..TelemetryPolicy::default() },
        ..AgentConfig::default()
    };
    let core = AgentCore::new(quiet, Policy::MinimumCompletionTime, NetworkView::lan_defaults());
    let mut agent = AgentDaemon::start(Arc::clone(&transport), "127.0.0.1:0", core).unwrap();
    let core = ServerCore::with_standard_catalogue();
    let server_metrics = core.metrics();
    let mut server = ServerDaemon::start(
        Arc::clone(&transport),
        agent.address(),
        core,
        ServerConfig::quick("tcp-host", "127.0.0.1:0", 100.0),
    )
    .unwrap();
    let client = Arc::new(NetSolveClient::new(Arc::clone(&transport), agent.address()));

    for i in 0..200 {
        let x = vec![i as f64, 1.0, 2.0];
        let out = client.netsl("ddot", &[x.into(), vec![1.0, 1.0, 1.0].into()]).unwrap();
        assert_eq!(out[0].as_double().unwrap(), i as f64 + 3.0);
    }
    assert_eq!(server_metrics.counter("server.accepts").get(), 1);
    assert_eq!(server.requests_served(), 200);
    let stats = client.metrics().snapshot("client");
    assert_eq!((stats.counter("client.dials"), stats.counter("client.conn_reused")), (1, 199));
    assert_eq!(client.idle_connections(), 1);

    let sets = (0..8).map(|i| vec![vec![i as f64, 4.0].into(), vec![1.0, 1.0].into()]).collect();
    for (i, out) in client.netsl_farm("ddot", sets).into_iter().enumerate() {
        assert_eq!(out.unwrap()[0].as_double().unwrap(), i as f64 + 4.0);
    }
    let kept = client.idle_connections();
    assert!((1..=NetSolveClient::MAX_IDLE_PER_ADDRESS).contains(&kept), "kept {kept}");

    server.stop();
    agent.stop();
}

/// The operator roster reflects live state (registration, workload,
/// fault marking).
#[test]
fn server_roster_reflects_domain_state() {
    let domain = InProcessDomain::start(&[("hostA", 300.0), ("hostB", 150.0)]).unwrap();
    let client = domain.client();
    let servers = client.list_servers().unwrap();
    assert_eq!(servers.len(), 2);
    assert!(servers.iter().any(|s| s.host == "hostA" && s.mflops == 300.0));
    assert!(servers.iter().all(|s| !s.down));
    assert!(servers.iter().all(|s| s.problems >= 21));

    // Kill hostA's address; after two failed calls the roster marks it down.
    domain.transport().kill("srv0");
    for _ in 0..2 {
        let _ = client.netsl("ddot", &[vec![1.0].into(), vec![1.0].into()]);
    }
    let servers = client.list_servers().unwrap();
    let a = servers.iter().find(|s| s.host == "hostA").unwrap();
    assert!(a.down, "hostA should be marked down in the roster");
}

/// TCP and channel transports produce identical results for the same
/// calls (transport neutrality of the whole stack).
#[test]
fn transport_neutrality() {
    use netsolve::agent::{AgentCore, AgentDaemon};
    use netsolve::client::NetSolveClient;
    use netsolve::net::{TcpTransport, Transport};
    use netsolve::server::{ServerConfig, ServerCore, ServerDaemon};

    // TCP domain.
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
    let tcp_client = NetSolveClient::new(Arc::clone(&transport), agent.address());

    // Channel domain.
    let chan_domain = InProcessDomain::start(&[("chan-host", 100.0)]).unwrap();
    let chan_client = chan_domain.client();

    let mut rng = Rng64::new(77);
    let a = Matrix::random_spd(12, &mut rng);
    let b: Vec<f64> = (0..12).map(|i| i as f64 * 0.25).collect();
    let args = [DataObject::Matrix(a), DataObject::Vector(b)];

    let via_tcp = tcp_client.netsl("dposv", &args).unwrap();
    let via_chan = chan_client.netsl("dposv", &args).unwrap();
    assert_eq!(via_tcp, via_chan);

    server.stop();
    agent.stop();
}
