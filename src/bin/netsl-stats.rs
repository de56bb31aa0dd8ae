//! `netsl-stats` — scrape live NetSolve daemons for their metrics.
//!
//! ```text
//! netsl-stats [--watch SECS] HOST:PORT [HOST:PORT ...]
//! ```
//!
//! Dials each address over TCP, sends a `StatsQuery`, and pretty-prints
//! the `StatsReply`. An `Error` reply is reported as a failed scrape.
//!
//! With `--watch SECS` it rescrapes every `SECS` seconds and prints
//! counter *rates* (events/sec over the last interval) plus latency
//! quantiles over the last [`WINDOW_SLOTS`] scrapes, by feeding each
//! scrape into the same [`WindowedSeries`] ring the daemons use for their
//! own fleet digests.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsolve::net::{call_once, TcpTransport, Transport};
use netsolve::obs::metrics::bucket_bound_secs;
use netsolve::obs::{StatsSnapshot, WindowedSeries, WINDOW_SLOTS};
use netsolve::proto::Message;

fn usage() -> ! {
    eprintln!(
        "usage: netsl-stats [--watch SECS] HOST:PORT [HOST:PORT ...]\n\
         \n\
         Sends a StatsQuery to each daemon (agent, server or any future\n\
         component) and prints its counters, gauges and latency histograms.\n\
         With --watch, rescrapes every SECS seconds and prints rates\n\
         (deltas per second) instead of raw totals."
    );
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1).peekable();
    let mut watch_secs: Option<f64> = None;
    let mut addresses: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => usage(),
            "--watch" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(secs) if secs > 0.0 => watch_secs = Some(secs),
                _ => usage(),
            },
            _ => addresses.push(arg),
        }
    }
    if addresses.is_empty() {
        usage();
    }

    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    if let Some(interval) = watch_secs {
        watch(&transport, &addresses, interval);
    }
    let mut failures = 0usize;
    for address in &addresses {
        match scrape(&transport, address) {
            Ok(snapshot) => print_snapshot(address, &snapshot),
            Err(e) => {
                eprintln!("netsl-stats: {address}: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// `--watch` loop: scrape every `interval` seconds forever, feeding each
/// snapshot into a per-address [`WindowedSeries`] and printing the rates
/// the freshest change implies. Never returns; ^C is the exit.
fn watch(transport: &Arc<dyn Transport>, addresses: &[String], interval: f64) -> ! {
    let mut series: HashMap<String, WindowedSeries> = HashMap::new();
    let start = Instant::now();
    loop {
        for address in addresses {
            match scrape(transport, address) {
                Ok(snapshot) => {
                    let s = series.entry(address.clone()).or_default();
                    s.record(snapshot, start.elapsed().as_secs_f64());
                    print_rates(address, s, interval);
                }
                Err(e) => eprintln!("netsl-stats: {address}: {e}"),
            }
        }
        println!();
        std::thread::sleep(Duration::from_secs_f64(interval));
    }
}

/// One interval's view of a daemon: counter rates over the last scrape
/// interval, gauge levels, and latency quantiles over the whole window
/// (so the percentiles have enough mass to mean something even at short
/// intervals). The first scrape only seeds the baseline.
fn print_rates(address: &str, series: &WindowedSeries, interval: f64) {
    let (Some((secs, last)), Some((_, window))) = (series.change(1), series.change(WINDOW_SLOTS))
    else {
        println!("{address}: baseline taken, rates next interval");
        return;
    };
    println!("{address} (last {interval:.1}s)");
    for (name, delta) in &last.counters {
        let rate = *delta as f64 / secs;
        if rate != 0.0 {
            println!("  {name:<32} {rate:>10.2}/s");
        }
    }
    for (name, value) in &last.gauges {
        println!("  {name:<32} {value:>10}");
    }
    for h in window.histograms.iter().filter(|h| h.count > 0) {
        println!(
            "  {:<32} n={}  p50 {:.6}s  p95 {:.6}s  p99 {:.6}s",
            h.name,
            h.count,
            h.quantile_secs(0.50),
            h.quantile_secs(0.95),
            h.quantile_secs(0.99)
        );
    }
}

/// One scrape.
fn scrape(
    transport: &Arc<dyn Transport>,
    address: &str,
) -> netsolve::core::Result<StatsSnapshot> {
    match call_once(transport.as_ref(), address, &Message::StatsQuery, Duration::from_secs(5))? {
        Message::StatsReply(snapshot) => Ok(snapshot),
        Message::Error { code, detail } => Err(netsolve::core::NetSolveError::from_code(code, detail)),
        other => Err(netsolve::core::NetSolveError::Protocol(format!(
            "unexpected reply {}",
            other.name()
        ))),
    }
}

/// Counters that make up the federation story; pulled out of the generic
/// listing into their own block so a multi-agent domain's health (gossip
/// flow, peer liveness, client failovers) reads at a glance.
const FEDERATION_COUNTERS: &[&str] = &[
    "agent.gossip_rounds",
    "agent.gossip_sends",
    "agent.gossip_send_failures",
    "agent.gossip_syncs_received",
    "agent.gossip_merges",
    "agent.gossip_merge_conflicts",
    "agent.gossip_expired",
    "agent.peer_down_marks",
    "agent.peer_recoveries",
    "client.agent_failovers",
];
const FEDERATION_GAUGES: &[&str] = &["agent.peers_up"];

/// Counters that make up the solve-cache story, grouped the same way so
/// a cache-enabled server's hit rate and CRC health read at a glance.
const CACHE_COUNTERS: &[&str] = &[
    "server.cache_hits",
    "server.cache_misses",
    "server.cache_coalesced",
    "server.cache_inserts",
    "server.cache_evictions",
    "server.cache_insert_crcs",
    "server.cache_serve_crcs",
    "server.cache_corrupt_dropped",
    "server.cache_uncacheable",
    "client.cached_replies",
];
const CACHE_GAUGES: &[&str] = &["server.cache_bytes", "server.cache_entries"];

fn print_snapshot(address: &str, s: &StatsSnapshot) {
    println!("{address} [{}]", s.component);
    for (name, value) in &s.counters {
        if FEDERATION_COUNTERS.contains(&name.as_str()) || CACHE_COUNTERS.contains(&name.as_str())
        {
            continue;
        }
        println!("  {name:<32} {value}");
    }
    for (name, value) in &s.gauges {
        if FEDERATION_GAUGES.contains(&name.as_str()) || CACHE_GAUGES.contains(&name.as_str()) {
            continue;
        }
        println!("  {name:<32} {value}");
    }
    let cache_counters: Vec<_> = s
        .counters
        .iter()
        .filter(|(n, _)| CACHE_COUNTERS.contains(&n.as_str()))
        .collect();
    let cache_gauges: Vec<_> =
        s.gauges.iter().filter(|(n, _)| CACHE_GAUGES.contains(&n.as_str())).collect();
    if !cache_counters.is_empty() || !cache_gauges.is_empty() {
        println!("  cache");
        let hits = s.counter("server.cache_hits");
        let misses = s.counter("server.cache_misses");
        if hits + misses > 0 {
            println!(
                "    {:<30} {:.1}%",
                "hit_rate",
                100.0 * hits as f64 / (hits + misses) as f64
            );
        }
        for (name, value) in cache_counters {
            println!("    {name:<30} {value}");
        }
        for (name, value) in cache_gauges {
            println!("    {name:<30} {value}");
        }
    }
    let fed_counters: Vec<_> = s
        .counters
        .iter()
        .filter(|(n, _)| FEDERATION_COUNTERS.contains(&n.as_str()))
        .collect();
    let fed_gauges: Vec<_> = s
        .gauges
        .iter()
        .filter(|(n, _)| FEDERATION_GAUGES.contains(&n.as_str()))
        .collect();
    if !fed_counters.is_empty() || !fed_gauges.is_empty() {
        println!("  federation");
        for (name, value) in fed_counters {
            println!("    {name:<30} {value}");
        }
        for (name, value) in fed_gauges {
            println!("    {name:<30} {value}");
        }
    }
    for h in &s.histograms {
        println!(
            "  {:<32} count {}  mean {:.6}s  sum {:.6}s",
            h.name,
            h.count,
            h.mean_secs(),
            h.sum_secs
        );
        if h.count > 0 {
            // Log-bucketed, so each quantile is exact to within one 2x
            // bucket — plenty for spotting tail blowups.
            println!(
                "    p50 {:.6}s  p95 {:.6}s  p99 {:.6}s",
                h.quantile_secs(0.50),
                h.quantile_secs(0.95),
                h.quantile_secs(0.99)
            );
        }
        for (i, n) in h.buckets.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            println!("    <= {:>12.6}s  {n}", bucket_bound_secs(i));
        }
    }
}
