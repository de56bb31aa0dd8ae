//! Fleet telemetry end-to-end: windowed stats digests replicate over
//! gossip like registry entries do, so **one** `FleetStatsQuery` to any
//! agent returns recent rate/percentile series for every live daemon in
//! the federation — and a dead daemon's series TTL-expires from the
//! survivors' replies. The p99 exemplar carried by a server digest is a
//! real trace id: pulling it back through `TraceQuery` stitches into the
//! same causal timeline `netsl-trace` renders.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netsolve::agent::{AgentCore, AgentDaemon, Policy};
use netsolve::client::NetSolveClient;
use netsolve::core::config::{AgentConfig, GossipPolicy, TelemetryPolicy};
use netsolve::net::{call, ChannelNetwork, NetworkView, Transport};
use netsolve::obs::{stitch, MetricsRegistry, SpanRecord, StatsDigest, Tracer};
use netsolve::proto::Message;
use netsolve::server::{ServerConfig, ServerCore, ServerDaemon};

fn timeout() -> Duration {
    Duration::from_secs(5)
}

fn wait_for(what: &str, cond: &dyn Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Agent config with gossip and telemetry fast enough for tests: gossip
/// every 30 ms, telemetry sampled every 50 ms, entries/digests expiring
/// after `ttl` seconds.
fn fast_core(ttl: f64) -> AgentCore {
    let config = AgentConfig {
        gossip: GossipPolicy {
            interval_secs: 0.03,
            entry_ttl_secs: ttl,
            peer_miss_threshold: 1,
            round_timeout_secs: 0.5,
        },
        telemetry: TelemetryPolicy { tick_secs: 0.05, ..TelemetryPolicy::default() },
        ..AgentConfig::default()
    };
    AgentCore::new(config, Policy::MinimumCompletionTime, NetworkView::lan_defaults())
}

/// One `FleetStatsQuery` scrape, exactly as `netsl-top` performs it.
fn scrape_fleet(transport: &Arc<dyn Transport>, agent: &str) -> Vec<StatsDigest> {
    let mut conn = transport.connect(agent).expect("dial agent");
    match call(conn.as_mut(), &Message::FleetStatsQuery, timeout()).expect("scrape") {
        Message::FleetStatsReply { digests } => digests,
        other => panic!("expected FleetStatsReply, got {other:?}"),
    }
}

fn origins(digests: &[StatsDigest]) -> Vec<String> {
    let mut o: Vec<String> = digests.iter().map(|d| d.origin.clone()).collect();
    o.sort();
    o
}

/// Two federated agents, one server each. A single scrape of *either*
/// agent must eventually carry all four daemons' digest series: its own,
/// its local server's (scraped directly), and the remote pair's
/// (replicated by gossip piggyback).
#[test]
fn one_scrape_of_any_agent_covers_the_whole_fleet() {
    let net = ChannelNetwork::new();
    let transport: Arc<dyn Transport> = Arc::new(net.clone());
    let mut agent_a =
        AgentDaemon::start(Arc::clone(&transport), "agent-a", fast_core(60.0)).unwrap();
    agent_a.set_peers(vec!["agent-b".into()]);
    let mut agent_b =
        AgentDaemon::start(Arc::clone(&transport), "agent-b", fast_core(60.0)).unwrap();
    agent_b.set_peers(vec!["agent-a".into()]);
    let mut server_a = ServerDaemon::start(
        Arc::clone(&transport),
        "agent-a",
        ServerCore::with_standard_catalogue(),
        ServerConfig::quick("host-a", "srv-a", 100.0),
    )
    .unwrap();
    let mut server_b = ServerDaemon::start(
        Arc::clone(&transport),
        "agent-b",
        ServerCore::with_standard_catalogue(),
        ServerConfig::quick("host-b", "srv-b", 150.0),
    )
    .unwrap();

    // Drive a little traffic so the digests carry nonzero solve rates.
    let client = NetSolveClient::new(Arc::clone(&transport), "agent-a");
    for _ in 0..5 {
        client.netsl("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()]).unwrap();
    }

    let expected = vec![
        "agent-a".to_string(),
        "agent-b".to_string(),
        "srv-a".to_string(),
        "srv-b".to_string(),
    ];
    // Right after startup every origin may already be present (gossip
    // replicates digests within one interval) while the series behind
    // them are still empty — so wait until the digests carry substance:
    // positive windows everywhere and a nonzero fleet-wide solve rate.
    for scraped in ["agent-a", "agent-b"] {
        let expected = expected.clone();
        wait_for(&format!("{scraped} to hold the whole fleet's digests"), &|| {
            let ds = scrape_fleet(&transport, scraped);
            origins(&ds) == expected
                && ds.iter().all(|d| d.window_secs > 0.0)
                && ds.iter().map(|d| d.rate("server.requests")).sum::<f64>() > 0.0
        });
    }

    // The digests are real series summaries, not placeholders: the
    // servers' windows are positive and somebody recorded the solves.
    let digests = scrape_fleet(&transport, "agent-a");
    for d in &digests {
        assert!(d.window_secs > 0.0, "{}: empty window", d.origin);
        assert!(
            d.component == if d.origin.starts_with("srv") { "server" } else { "agent" },
            "{}: component {}",
            d.origin,
            d.component
        );
    }
    let total_rate: f64 =
        digests.iter().filter(|d| d.component == "server").map(|d| d.rate("server.requests")).sum();
    assert!(total_rate > 0.0, "five solves must show up as a nonzero fleet solve rate");

    server_a.stop();
    server_b.stop();
    agent_a.stop();
    agent_b.stop();
}

/// When a server and its agent die, the survivors stop refreshing their
/// digest series, and after the gossip TTL one scrape of the surviving
/// agent no longer mentions them — dead daemons age out of the fleet
/// view exactly like dead registry entries.
#[test]
fn dead_peers_series_ttl_expire_from_survivors() {
    let transport: Arc<dyn Transport> = Arc::new(ChannelNetwork::new());
    let ttl = 0.6;
    let mut agent_a =
        AgentDaemon::start(Arc::clone(&transport), "agent-a", fast_core(ttl)).unwrap();
    agent_a.set_peers(vec!["agent-b".into()]);
    let mut agent_b =
        AgentDaemon::start(Arc::clone(&transport), "agent-b", fast_core(ttl)).unwrap();
    agent_b.set_peers(vec!["agent-a".into()]);
    let mut server_b = ServerDaemon::start(
        Arc::clone(&transport),
        "agent-b",
        ServerCore::with_standard_catalogue(),
        ServerConfig::quick("host-b", "srv-b", 150.0),
    )
    .unwrap();

    wait_for("agent-a to learn srv-b and agent-b series", &|| {
        let o = origins(&scrape_fleet(&transport, "agent-a"));
        o.contains(&"srv-b".to_string()) && o.contains(&"agent-b".to_string())
    });

    // Kill the b side. agent-a keeps gossiping into the void; nothing
    // refreshes the b-series any more, so they cross the TTL.
    server_b.stop();
    agent_b.stop();

    wait_for("dead b-side series to TTL-expire at agent-a", &|| {
        let o = origins(&scrape_fleet(&transport, "agent-a"));
        !o.contains(&"srv-b".to_string()) && !o.contains(&"agent-b".to_string())
    });
    // The survivor's own series never expires — it refreshes itself.
    assert!(
        origins(&scrape_fleet(&transport, "agent-a")).contains(&"agent-a".to_string()),
        "agent-a must keep its own series"
    );

    agent_a.stop();
}

/// The p99 exemplar in a scraped server digest is a live trace id: the
/// trace it names pulls back through `TraceQuery` and stitches into a
/// full client→agent→server timeline, which is exactly the
/// netsl-top → netsl-trace workflow.
#[test]
fn digest_p99_exemplar_resolves_to_a_stitched_timeline() {
    let net = ChannelNetwork::new();
    let transport: Arc<dyn Transport> = Arc::new(net.clone());
    let mut agent =
        AgentDaemon::start(Arc::clone(&transport), "agent", fast_core(60.0)).unwrap();
    let mut server = ServerDaemon::start(
        Arc::clone(&transport),
        "agent",
        ServerCore::with_standard_catalogue(),
        ServerConfig::quick("h", "srv0", 100.0),
    )
    .unwrap();

    let metrics = Arc::new(MetricsRegistry::new());
    let tracer = Arc::new(Tracer::new());
    let client = NetSolveClient::new(Arc::clone(&transport), "agent")
        .with_observability(Arc::clone(&metrics), Arc::clone(&tracer));
    for _ in 0..8 {
        client.netsl("ddot", &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()]).unwrap();
    }

    // Wait for the agent's sampler to scrape a server digest whose
    // compute histogram carries a p99 exemplar.
    let mut exemplar = 0u128;
    wait_for("a server digest with a p99 exemplar", &|| {
        scrape_fleet(&transport, "agent").iter().any(|d| {
            d.component == "server"
                && d.quantiles("server.compute_secs").is_some_and(|q| q.p99_exemplar != 0)
        })
    });
    for d in scrape_fleet(&transport, "agent") {
        if let Some(q) = d.quantiles("server.compute_secs") {
            if q.p99_exemplar != 0 {
                exemplar = q.p99_exemplar;
            }
        }
    }
    assert_ne!(exemplar, 0);

    // netsl-trace's pull loop in miniature: ask every daemon for the
    // exemplar's spans, add the client's own records, stitch.
    let mut records: Vec<SpanRecord> = tracer.snapshot_trace(exemplar).to_vec();
    for address in ["agent", "srv0"] {
        let mut conn = transport.connect(address).unwrap();
        if let Message::TraceReply { spans, .. } =
            call(conn.as_mut(), &Message::TraceQuery { trace_id: exemplar }, timeout()).unwrap()
        {
            records.extend(spans);
        }
    }
    let timelines = stitch(&records);
    assert_eq!(timelines.len(), 1, "the exemplar names exactly one trace");
    let t = &timelines[0];
    assert_eq!(t.trace_id, exemplar);
    let has = |component: &str, phase: &str| {
        t.entries.iter().any(|e| e.span.component == component && e.span.phase == phase)
    };
    assert!(has("client", "call"), "timeline roots at the client call");
    assert!(has("server", "solve"), "timeline reaches the server's solve span");

    server.stop();
    agent.stop();
}
