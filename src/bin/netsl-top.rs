//! `netsl-top` — live fleet view from a single agent scrape.
//!
//! ```text
//! netsl-top [--watch SECS] AGENT_HOST:PORT
//! ```
//!
//! Sends one `FleetStatsQuery` to the named agent. Because agents gossip
//! their stats digests alongside registry entries, that one reply carries
//! a windowed digest for every live daemon in the federation — the local
//! agent, its peers, and every server any of them tracks. The table
//! shows, per server: queue depth, solve/shed rates, cache hit rate and
//! the p99 solve latency with its exemplar trace id (feed that hex id to
//! `netsl-trace --trace` to see exactly what made the tail fire). Per
//! agent: peers up and digest freshness (gossip lag).
//!
//! Default is one shot (scriptable, used by CI); `--watch SECS` clears
//! the screen and refreshes every interval.

use std::sync::Arc;
use std::time::Duration;

use netsolve::net::{call_once, TcpTransport, Transport};
use netsolve::obs::StatsDigest;
use netsolve::proto::Message;

fn usage() -> ! {
    eprintln!(
        "usage: netsl-top [--watch SECS] AGENT_HOST:PORT\n\
         \n\
         Scrapes one agent with FleetStatsQuery and renders the whole\n\
         federation's recent rates, queue depths and tail latencies.\n\
         One-shot by default; --watch refreshes every SECS seconds."
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut watch_secs: Option<f64> = None;
    let mut address: Option<String> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => usage(),
            "--watch" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(secs) if secs > 0.0 => watch_secs = Some(secs),
                _ => usage(),
            },
            _ if address.is_none() => address = Some(arg),
            _ => usage(),
        }
    }
    let Some(address) = address else { usage() };

    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    match watch_secs {
        None => match scrape(&transport, &address) {
            Ok(digests) => render(&address, &digests),
            Err(e) => {
                eprintln!("netsl-top: {address}: {e}");
                std::process::exit(1);
            }
        },
        Some(interval) => loop {
            // ANSI clear + home, like top(1); harmless when redirected.
            print!("\x1b[2J\x1b[H");
            match scrape(&transport, &address) {
                Ok(digests) => render(&address, &digests),
                Err(e) => eprintln!("netsl-top: {address}: {e}"),
            }
            std::thread::sleep(Duration::from_secs_f64(interval));
        },
    }
}

/// One `FleetStatsQuery` round-trip. A pre-v6 agent answers with its
/// generic `Error` reply; surface that as a protocol error so the exit
/// code says "this agent cannot do fleet stats" rather than hanging.
fn scrape(
    transport: &Arc<dyn Transport>,
    address: &str,
) -> netsolve::core::Result<Vec<StatsDigest>> {
    match call_once(transport.as_ref(), address, &Message::FleetStatsQuery, Duration::from_secs(5))? {
        Message::FleetStatsReply { digests } => Ok(digests),
        Message::Error { code, detail } => Err(netsolve::core::NetSolveError::Protocol(format!(
            "fleet stats unsupported by this agent ({code:?}: {detail})"
        ))),
        other => Err(netsolve::core::NetSolveError::Protocol(format!(
            "unexpected reply {}",
            other.name()
        ))),
    }
}

fn render(scraped: &str, digests: &[StatsDigest]) {
    println!(
        "netsl-top — fleet view via {scraped} ({} daemon{})",
        digests.len(),
        if digests.len() == 1 { "" } else { "s" }
    );
    let servers: Vec<&StatsDigest> = digests.iter().filter(|d| d.component == "server").collect();
    let agents: Vec<&StatsDigest> = digests.iter().filter(|d| d.component == "agent").collect();

    if !servers.is_empty() {
        println!();
        println!(
            "{:<22} {:>6} {:>9} {:>9} {:>7} {:>11}  P99 EXEMPLAR",
            "SERVER", "QDEPTH", "SOLVE/S", "SHED/S", "CACHE%", "P99(s)"
        );
        for d in &servers {
            let qdepth = d.gauge("server.active_requests");
            let solve_rate = d.rate("server.requests");
            let shed_rate = d.rate("server.admission_shed")
                + d.rate("server.queue_deadline_shed")
                + d.rate("server.deadline_shed");
            let hits = d.rate("server.cache_hits");
            let misses = d.rate("server.cache_misses");
            let cache = if hits + misses > 0.0 {
                format!("{:.1}", 100.0 * hits / (hits + misses))
            } else {
                "-".into()
            };
            let (p99, exemplar) = match d.quantiles("server.compute_secs") {
                Some(q) if q.count > 0 => {
                    (format!("{:.6}", q.p99_secs), format_exemplar(q.p99_exemplar))
                }
                _ => ("-".into(), "-".into()),
            };
            println!(
                "{:<22} {:>6} {:>9.2} {:>9.2} {:>7} {:>11}  {}",
                d.origin, qdepth, solve_rate, shed_rate, cache, p99, exemplar
            );
        }
    }

    if !agents.is_empty() {
        println!();
        println!(
            "{:<22} {:>8} {:>10} {:>10} {:>11}",
            "AGENT", "PEERS_UP", "GOSSIP/S", "MERGES/S", "LAG(s)"
        );
        for d in &agents {
            println!(
                "{:<22} {:>8} {:>10.2} {:>10.2} {:>11.2}",
                d.origin,
                d.gauge("agent.peers_up"),
                d.rate("agent.gossip_rounds"),
                d.rate("agent.digest_merges"),
                d.age_secs
            );
        }
    }

    if servers.is_empty() && agents.is_empty() {
        println!("  (no digests yet — daemons sample once per telemetry tick)");
    }
}

/// Trace ids print as 32 hex digits, the format `netsl-trace` accepts.
fn format_exemplar(id: u128) -> String {
    if id == 0 {
        "-".into()
    } else {
        format!("{id:032x}")
    }
}
