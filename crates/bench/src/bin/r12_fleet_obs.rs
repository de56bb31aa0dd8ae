//! R12 — Fleet-telemetry experiment: what does the windowed sampler +
//! digest machinery cost on the request path, and how stale is a remote
//! daemon's digest by the time gossip has replicated it?
//!
//! Two claims under test:
//!
//! * **Overhead ≤ 5%** — a live agent+server trio over the in-process
//!   channel transport serves `netsl("ddot")` calls with telemetry
//!   *on* (agent and server samplers ticking every 50 ms, digests
//!   scraped) vs *off* (both samplers on the longest tick, 60 s, so none
//!   ticks during the run). The sampler is off the request path by
//!   design, so client-observed per-call time should move by noise only.
//!   Batches alternate R9-style (best-of-rounds, both variants
//!   interleaved) so clock drift hits both sides alike.
//!
//! * **Convergence ≤ 2 gossip intervals** — in a two-agent federation
//!   the age a scrape of agent B reports for agent A's (and A's local
//!   server's) digest *is* the replication lag: the digest was minted at
//!   `age_secs` ago on A's side of the gossip ring. Sampling that age
//!   across many scrapes bounds how far behind the fleet view runs, in
//!   units of the gossip interval.
//!
//! Run: `cargo run --release -p netsolve-bench --bin r12_fleet_obs`
//! (writes `results/BENCH_r12_fleet_obs.json`); pass `--quick` for a
//! smoke run that skips the JSON artifact.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netsolve_agent::{AgentCore, AgentDaemon, Policy};
use netsolve_bench::{write_report, Table};
use netsolve_client::NetSolveClient;
use netsolve_core::config::{AgentConfig, GossipPolicy, TelemetryPolicy};
use netsolve_core::DataObject;
use netsolve_net::{call, ChannelNetwork, NetworkView, Transport};
use netsolve_obs::StatsDigest;
use netsolve_proto::Message;
use netsolve_server::{ServerConfig, ServerCore, ServerDaemon};

/// Sampler tick used on both the agent and the server when telemetry is
/// on: fast enough that the sampler genuinely runs many times during the
/// measurement window (worst case for interference).
const TICK_SECS: f64 = 0.05;

/// Sampler tick when telemetry is off: the longest `TelemetryPolicy::tick`
/// takes, far past the length of a run, so no sample falls inside it.
const OFF_TICK_SECS: f64 = 60.0;

/// One agent + one server + one client on a private channel network.
struct Trio {
    transport: Arc<dyn Transport>,
    client: NetSolveClient,
    agent: AgentDaemon,
    server: ServerDaemon,
}

fn telemetry_policy(on: bool) -> TelemetryPolicy {
    TelemetryPolicy { tick_secs: if on { TICK_SECS } else { OFF_TICK_SECS } }
}

fn start_trio(telemetry_on: bool) -> Trio {
    let transport: Arc<dyn Transport> = Arc::new(ChannelNetwork::new());
    let config =
        AgentConfig { telemetry: telemetry_policy(telemetry_on), ..AgentConfig::default() };
    let core = AgentCore::new(config, Policy::MinimumCompletionTime, NetworkView::lan_defaults());
    let agent = AgentDaemon::start(Arc::clone(&transport), "agent", core).expect("start agent");
    let mut sconfig = ServerConfig::quick("bench-host", "srv", 500.0);
    sconfig.telemetry = telemetry_policy(telemetry_on);
    let server = ServerDaemon::start(
        Arc::clone(&transport),
        "agent",
        ServerCore::with_standard_catalogue(),
        sconfig,
    )
    .expect("start server");
    let client = NetSolveClient::new(Arc::clone(&transport), "agent");
    Trio { transport, client, agent, server }
}

fn solve_once(trio: &Trio, x: &[f64], y: &[f64]) {
    let out = trio
        .client
        .netsl("ddot", &[DataObject::Vector(x.to_vec()), DataObject::Vector(y.to_vec())])
        .expect("ddot solve");
    std::hint::black_box(out);
}

/// Client-observed per-call seconds for both trios: alternate
/// off/on batches and keep the best round of each, R9-style.
fn measure_overhead(repeats: usize, rounds: usize) -> (f64, f64) {
    let off = start_trio(false);
    let on = start_trio(true);
    let x: Vec<f64> = (0..256).map(|i| (i as f64).sin()).collect();
    let y: Vec<f64> = (0..256).map(|i| (i as f64).cos()).collect();

    // Warmup: registration settles, both paths fault in.
    for _ in 0..repeats.min(64) {
        solve_once(&off, &x, &y);
        solve_once(&on, &x, &y);
    }

    let mut best_off = f64::INFINITY;
    let mut best_on = f64::INFINITY;
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..repeats {
            solve_once(&off, &x, &y);
        }
        best_off = best_off.min(start.elapsed().as_secs_f64() / repeats as f64);
        let start = Instant::now();
        for _ in 0..repeats {
            solve_once(&on, &x, &y);
        }
        best_on = best_on.min(start.elapsed().as_secs_f64() / repeats as f64);
    }

    // The telemetry-on trio must actually have been sampling, or the
    // comparison is vacuous.
    let digests = scrape(&on, "agent");
    assert!(
        digests.iter().any(|d| d.window_secs > 0.0),
        "telemetry-on trio produced no windowed digests during the benchmark"
    );

    drop_trio(off);
    drop_trio(on);
    (best_off, best_on)
}

fn drop_trio(mut trio: Trio) {
    trio.server.stop();
    trio.agent.stop();
}

fn scrape(trio: &Trio, address: &str) -> Vec<StatsDigest> {
    scrape_transport(&trio.transport, address)
}

fn scrape_transport(transport: &Arc<dyn Transport>, address: &str) -> Vec<StatsDigest> {
    let mut conn = transport.connect(address).expect("dial agent");
    match call(conn.as_mut(), &Message::FleetStatsQuery, Duration::from_secs(5)).expect("scrape") {
        Message::FleetStatsReply { digests } => digests,
        other => panic!("expected FleetStatsReply, got {other:?}"),
    }
}

/// Two federated agents, one server each; report the worst digest age a
/// scrape of agent B sees for the A-side origins, in seconds and in
/// gossip intervals.
fn measure_convergence(
    gossip_interval_secs: f64,
    samples: usize,
) -> (f64, f64) {
    let transport: Arc<dyn Transport> = Arc::new(ChannelNetwork::new());
    let fed_config = || AgentConfig {
        gossip: GossipPolicy {
            interval_secs: gossip_interval_secs,
            entry_ttl_secs: 60.0,
            peer_miss_threshold: 3,
            round_timeout_secs: 1.0,
        },
        telemetry: telemetry_policy(true),
        ..AgentConfig::default()
    };
    let core = |_: &str| {
        AgentCore::new(fed_config(), Policy::MinimumCompletionTime, NetworkView::lan_defaults())
    };
    let mut agent_a =
        AgentDaemon::start(Arc::clone(&transport), "agent-a", core("agent-a")).expect("start agent-a");
    agent_a.set_peers(vec!["agent-b".into()]);
    let mut agent_b =
        AgentDaemon::start(Arc::clone(&transport), "agent-b", core("agent-b")).expect("start agent-b");
    agent_b.set_peers(vec!["agent-a".into()]);
    let mut sconfig = ServerConfig::quick("host-a", "srv-a", 500.0);
    sconfig.telemetry = telemetry_policy(true);
    let mut server_a = ServerDaemon::start(
        Arc::clone(&transport),
        "agent-a",
        ServerCore::with_standard_catalogue(),
        sconfig,
    )
    .expect("start srv-a");

    // Warm until agent B's fleet view carries live A-side series.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let ds = scrape_transport(&transport, "agent-b");
        let warm = ["agent-a", "srv-a"].iter().all(|o| {
            ds.iter().any(|d| d.origin == *o && d.window_secs > 0.0)
        });
        if warm {
            break;
        }
        assert!(Instant::now() < deadline, "fleet view never warmed up");
        std::thread::sleep(Duration::from_millis(10));
    }

    // The reported age of a remote origin is its replication lag; track
    // the worst case over many scrape instants spread across gossip and
    // sampler cycles.
    let mut max_age: f64 = 0.0;
    for _ in 0..samples {
        for d in scrape_transport(&transport, "agent-b") {
            if d.origin == "agent-a" || d.origin == "srv-a" {
                max_age = max_age.max(d.age_secs);
            }
        }
        std::thread::sleep(Duration::from_secs_f64(gossip_interval_secs / 3.0));
    }

    server_a.stop();
    agent_a.stop();
    agent_b.stop();
    (max_age, max_age / gossip_interval_secs)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (repeats, rounds, samples) = if quick { (300, 3, 10) } else { (1_500, 6, 40) };

    let (off_secs, on_secs) = measure_overhead(repeats, rounds);
    let overhead = (on_secs / off_secs - 1.0) * 100.0;

    let gossip_interval = 0.15;
    let (max_age, intervals) = measure_convergence(gossip_interval, samples);

    let mut table = Table::new(
        "R12: fleet telemetry — request-path cost and digest freshness",
        &["metric", "value"],
    );
    table.row(vec!["telemetry off / call".into(), format!("{:.2} us", off_secs * 1e6)]);
    table.row(vec!["telemetry on / call".into(), format!("{:.2} us", on_secs * 1e6)]);
    table.row(vec!["overhead".into(), format!("{overhead:+.2}% (target < 5%)")]);
    table.row(vec![
        "worst remote digest age".into(),
        format!("{max_age:.3} s @ {gossip_interval:.2} s gossip"),
    ]);
    table.row(vec![
        "convergence".into(),
        format!("{intervals:.2} gossip intervals (target <= 2)"),
    ]);
    table.print();

    if quick {
        println!("--quick: smoke sizes only, JSON artifact not written");
        return;
    }

    write_report(
        "r12_fleet_obs",
        "Client-observed netsl(ddot) seconds through a live agent+server trio with fleet \
         telemetry on (50 ms sampler tick) vs off (60 s tick: no sample during the run); plus \
         worst observed remote-digest age at a federated peer, in gossip intervals",
        &[
            ("telemetry_off_secs_per_call", format!("{off_secs:.9}")),
            ("telemetry_on_secs_per_call", format!("{on_secs:.9}")),
            ("overhead_percent", format!("{overhead:.3}")),
            ("within_5_percent", (overhead < 5.0).to_string()),
            ("gossip_interval_secs", format!("{gossip_interval:.3}")),
            ("max_remote_digest_age_secs", format!("{max_age:.4}")),
            ("convergence_gossip_intervals", format!("{intervals:.3}")),
            ("converged_within_2_intervals", (intervals <= 2.0).to_string()),
        ],
    );
}
