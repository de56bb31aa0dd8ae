//! `ns-agent` — run a NetSolve agent over TCP.
//!
//! ```text
//! ns-agent [--listen HOST:PORT] [--policy MCT|rr|random|load-only|fastest-cpu|nearest-net]
//!          [--peer HOST:PORT]... [--gossip-interval SECS]
//! ```
//!
//! Prints the bound address, then serves until killed. `--peer` enables
//! federation: peered agents gossip their server registries to each
//! other (every `--gossip-interval` seconds, default 10) and queries
//! this agent cannot satisfy are widened to the peers.

use std::sync::Arc;

use netsolve::agent::{AgentCore, AgentDaemon, Policy};
use netsolve::core::config::AgentConfig;
use netsolve::net::{NetworkView, TcpTransport, Transport};

fn usage() -> ! {
    eprintln!(
        "usage: ns-agent [--listen HOST:PORT] [--policy NAME] [--peer HOST:PORT]...\n\
         \x20               [--gossip-interval SECS]\n\
         policies: MCT (default), rr, random, load-only, fastest-cpu, nearest-net"
    );
    std::process::exit(2);
}

fn main() {
    let mut listen = "127.0.0.1:9000".to_string();
    let mut policy = Policy::MinimumCompletionTime;
    let mut peers: Vec<String> = Vec::new();
    let mut config = AgentConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--listen" => listen = args.next().unwrap_or_else(|| usage()),
            "--policy" => {
                let name = args.next().unwrap_or_else(|| usage());
                policy = name.parse().unwrap_or_else(|e| {
                    eprintln!("{e}");
                    usage()
                });
            }
            "--peer" => peers.push(args.next().unwrap_or_else(|| usage())),
            "--gossip-interval" => {
                let secs: f64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|s| *s > 0.0)
                    .unwrap_or_else(|| usage());
                config.gossip.interval_secs = secs;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage();
            }
        }
    }

    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let core = AgentCore::new(config, policy, NetworkView::lan_defaults());
    let daemon = match AgentDaemon::start(transport, &listen, core) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ns-agent: failed to start: {e}");
            std::process::exit(1);
        }
    };
    daemon.set_peers(peers.clone());
    println!("ns-agent listening on tcp://{}", daemon.address());
    println!("policy: {}", policy.name());
    if !peers.is_empty() {
        println!("federated with: {}", peers.join(", "));
    }
    println!("(ctrl-c to stop)");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
