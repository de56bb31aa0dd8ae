//! Live federation demo over real TCP sockets: three NetSolve agents
//! gossip their server registries to each other, a client holds the
//! whole agent list, and when the agent the client is pinned to is
//! killed mid-run the client fails over to a survivor — solves keep
//! completing with zero failures.
//!
//! Run with: `cargo run --example federation`

use std::sync::Arc;
use std::time::{Duration, Instant};

use netsolve::agent::{AgentCore, AgentDaemon, Policy};
use netsolve::core::config::{AgentConfig, GossipPolicy};
use netsolve::net::{NetworkView, TcpTransport, Transport};
use netsolve::obs::{MetricsRegistry, Tracer};
use netsolve::server::{ServerConfig, ServerCore, ServerDaemon};

fn main() -> netsolve::core::Result<()> {
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());

    // Three agents on OS-assigned ports, gossiping fast enough to watch.
    let config = AgentConfig {
        gossip: GossipPolicy { interval_secs: 0.1, ..GossipPolicy::default() },
        ..AgentConfig::default()
    };
    let make_core = |cfg: &AgentConfig| {
        AgentCore::new(cfg.clone(), Policy::MinimumCompletionTime, NetworkView::lan_defaults())
    };
    let mut agents: Vec<AgentDaemon> = (0..3)
        .map(|_| AgentDaemon::start(Arc::clone(&transport), "127.0.0.1:0", make_core(&config)))
        .collect::<netsolve::core::Result<_>>()?;
    let addrs: Vec<String> = agents.iter().map(|a| a.address().to_string()).collect();
    // Ports are OS-assigned, so the peer lists are wired after binding.
    for (i, agent) in agents.iter().enumerate() {
        let peers = addrs
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, a)| a.clone())
            .collect();
        agent.set_peers(peers);
    }
    for (i, a) in addrs.iter().enumerate() {
        println!("agent {i} listening on tcp://{a}");
    }

    // Two servers, registered at DIFFERENT agents: only gossip makes
    // each server visible at the other two.
    let mut servers = Vec::new();
    for (i, mflops) in [300.0, 150.0].into_iter().enumerate() {
        servers.push(ServerDaemon::start(
            Arc::clone(&transport),
            &addrs[i],
            ServerCore::with_standard_catalogue(),
            ServerConfig::quick(&format!("fed-host-{i}"), "127.0.0.1:0", mflops),
        )?);
        println!(
            "server {i} ({mflops} Mflop/s) on tcp://{} registered at agent {i}",
            servers[i].address()
        );
    }

    // Wait until gossip has replicated both servers to every agent.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let converged = agents
            .iter()
            .all(|a| a.core().lock().registry().all_servers().len() == servers.len());
        if converged {
            break;
        }
        assert!(Instant::now() < deadline, "gossip never converged");
        std::thread::sleep(Duration::from_millis(20));
    }
    println!("\ngossip converged: every agent sees all {} servers\n", servers.len());

    // A client holding the whole agent list.
    let metrics = Arc::new(MetricsRegistry::new());
    let client = netsolve::client::NetSolveClient::new_multi(Arc::clone(&transport), &addrs)
        .with_observability(Arc::clone(&metrics), Arc::new(Tracer::new()));

    let solve = |i: usize| -> netsolve::core::Result<()> {
        let x: Vec<f64> = (0..64).map(|k| ((i * 7 + k) % 13) as f64).collect();
        let y: Vec<f64> = (0..64).map(|k| ((i * 3 + k) % 11) as f64).collect();
        let expect: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        let out = client.netsl("ddot", &[x.into(), y.into()])?;
        assert_eq!(out[0].as_double()?, expect);
        Ok(())
    };

    for i in 0..5 {
        solve(i)?;
    }
    let pinned = client.current_agent();
    println!("5 solves done; client is pinned to agent tcp://{pinned}");

    // Kill the pinned agent mid-run: its listener dies for real.
    let victim = addrs.iter().position(|a| *a == pinned).expect("pin is a known agent");
    agents[victim].stop();
    println!("killed agent {victim} (tcp://{pinned}) — solves continue:\n");

    for i in 5..15 {
        solve(i)?;
    }
    let snap = metrics.snapshot("demo");
    println!("10 more solves completed after the kill");
    println!("  now pinned to     : tcp://{}", client.current_agent());
    println!("  agent failovers   : {}", snap.counter("client.agent_failovers"));
    println!("  calls / ok / fail : {} / {} / {}",
        snap.counter("client.calls"),
        snap.counter("client.calls_ok"),
        snap.counter("client.calls_failed"));
    assert_eq!(snap.counter("client.calls_failed"), 0);
    assert!(snap.counter("client.agent_failovers") >= 1);
    assert_ne!(client.current_agent(), pinned);

    println!("\nfederation: an agent crash costs one failover hop, never a failed solve.");
    for s in &mut servers {
        s.stop();
    }
    for (i, a) in agents.iter_mut().enumerate() {
        if i != victim {
            a.stop();
        }
    }
    Ok(())
}
