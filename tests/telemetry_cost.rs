//! What fleet telemetry costs, counted where it is spent.
//!
//! The claim: the windowed samplers and the agent's digest scrape cost at
//! most 5 % of the CPU that calls take, at a 50 ms tick on both daemons.
//! Rather than difference two wall-time batches (whose per-call time moves
//! by more than 5 % from round to round on a shared host), the test counts
//! the CPU the process spends in each part:
//!
//! 1. An idle agent + server trio with both samplers at the 5 ms tick
//!    floor. Process CPU (`/proc/self/stat`, exited threads included)
//!    over the idle stretch, divided by the agent's telemetry rounds, is
//!    the whole tick: the server's sampler, the agent's round with its
//!    scrape dial, and the server connection thread that answers the
//!    scrape. Everything else the idle process does is charged to the
//!    tick too, and the server's sampler ticks a little more often than
//!    the agent's rounds it is divided by, so the figure is high, never
//!    low.
//! 2. A second trio with both ticks parked at 60 s serving back-to-back
//!    256-element `ddot` calls: process CPU-seconds per second.
//!
//! The share is the tick's CPU per second at a 50 ms tick over the calls'
//! CPU per second. The share at the shipped ticks (server 0.25 s, agent
//! 1 s) and the tick's split by thread (`/proc/self/task/*/schedstat`)
//! are printed beside it; run with `--nocapture` to see them. This file
//! holds one test because the measure is process-wide.

#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsolve::agent::{AgentCore, AgentDaemon, Policy};
use netsolve::client::NetSolveClient;
use netsolve::core::config::{AgentConfig, TelemetryPolicy};
use netsolve::core::DataObject;
use netsolve::net::{ChannelNetwork, NetworkView, Transport};
use netsolve::obs::MetricsRegistry;
use netsolve::server::{ServerConfig, ServerCore, ServerDaemon};

/// The tick the bound is stated at, on both daemons.
const CLAIM_TICK_SECS: f64 = 0.05;
/// The ceiling on telemetry's CPU as a share of the calls'.
const BOUND: f64 = 0.05;
/// `TelemetryPolicy::tick`'s floor: the most ticks a second can hold.
const FLOOR_TICK_SECS: f64 = 0.005;
/// `TelemetryPolicy::tick`'s ceiling: no tick falls inside the call leg.
const PARKED_TICK_SECS: f64 = 60.0;
/// `/proc/self/stat` counts CPU time in USER_HZ, 100 a second on Linux.
const USER_HZ: f64 = 100.0;

/// An agent, a server whose samplers both tick every `tick_secs`, and a
/// client, on a private channel network, with the server's registry.
/// Dropping a daemon stops it.
fn trio(tick_secs: f64) -> (AgentDaemon, ServerDaemon, NetSolveClient, Arc<MetricsRegistry>) {
    let telemetry = TelemetryPolicy { tick_secs };
    let transport: Arc<dyn Transport> = Arc::new(ChannelNetwork::new());
    let config = AgentConfig { telemetry, ..AgentConfig::default() };
    let core = AgentCore::new(config, Policy::MinimumCompletionTime, NetworkView::lan_defaults());
    let agent = AgentDaemon::start(Arc::clone(&transport), "agent", core).unwrap();
    let core = ServerCore::with_standard_catalogue();
    let metrics = core.metrics();
    let config = ServerConfig { telemetry, ..ServerConfig::quick("host", "srv", 500.0) };
    let server = ServerDaemon::start(Arc::clone(&transport), "agent", core, config).unwrap();
    (agent, server, NetSolveClient::new(transport, "agent"), metrics)
}

/// The CPU seconds this process has used, exited threads included
/// (`utime + stime`, fields 14 and 15 of `/proc/self/stat`), and each live
/// thread's name and CPU nanoseconds (the first field of its `schedstat`)
/// by thread id.
fn cpu() -> (f64, HashMap<String, (String, u64)>) {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
    // The command name (field 2) may hold spaces; field 3 follows its
    // closing parenthesis.
    let fields: Vec<&str> = stat[stat.rfind(')').unwrap() + 1..].split_whitespace().collect();
    let ticks: u64 = fields[11..13].iter().map(|f| f.parse::<u64>().unwrap()).sum();
    let mut threads = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap().flatten() {
        let read = |file: &str| std::fs::read_to_string(task.path().join(file)).unwrap_or_default();
        // The name first: a thread that exits in between has no schedstat.
        let name = read("comm").trim().to_string();
        if let Some(ns) = read("schedstat").split_whitespace().next().and_then(|f| f.parse().ok()) {
            threads.insert(task.file_name().to_string_lossy().into_owned(), (name, ns));
        }
    }
    (ticks as f64 / USER_HZ, threads)
}

#[test]
fn telemetry_costs_at_most_five_percent_of_the_calls_cpu() {
    // Leg 1: the whole tick, on an idle trio at the tick floor. The
    // agent's round dials its one server once, so the server's accepts
    // count the rounds.
    let (agent, server, _, metrics) = trio(FLOOR_TICK_SECS);
    let accepts = || metrics.snapshot("server").counter("server.accepts");
    std::thread::sleep(Duration::from_millis(200));
    let ((cpu_before, threads_before), rounds_before) = (cpu(), accepts());
    std::thread::sleep(Duration::from_secs(3));
    let ((cpu_after, threads_after), rounds_after) = (cpu(), accepts());
    drop((agent, server));
    let rounds = (rounds_after - rounds_before) as f64;
    assert!(rounds >= 100.0, "only {rounds} telemetry rounds in 3 s at a 5 ms tick");
    let tick_cpu = (cpu_after - cpu_before) / rounds;
    // Each live thread's CPU a round, by name. Threads that exited in
    // between are missing here; the process total still counts them.
    let mut threads: HashMap<String, f64> = HashMap::new();
    for (tid, (name, ns)) in &threads_after {
        let start = threads_before.get(tid).map_or(0, |(_, ns)| *ns);
        *threads.entry(name.clone()).or_default() += ns.saturating_sub(start) as f64 / 1e9 / rounds;
    }
    let sampler = threads.get("server-sampler").copied().unwrap_or(0.0);

    // Leg 2: the calls' CPU rate, with no tick falling inside it.
    let (agent, server, client, _) = trio(PARKED_TICK_SECS);
    let x: Vec<f64> = (0..256).map(|i| (i as f64).sin()).collect();
    let y: Vec<f64> = (0..256).map(|i| (i as f64).cos()).collect();
    let ddot = || {
        let inputs = [DataObject::Vector(x.clone()), DataObject::Vector(y.clone())];
        std::hint::black_box(client.netsl("ddot", &inputs).unwrap());
    };
    (0..200).for_each(|_| ddot());
    let (cpu_before, started, mut calls) = (cpu().0, Instant::now(), 0u32);
    while started.elapsed() < Duration::from_millis(1500) {
        ddot();
        calls += 1;
    }
    let (call_cpu, wall) = (cpu().0 - cpu_before, started.elapsed().as_secs_f64());
    drop((agent, server));
    let call_cpu_per_sec = call_cpu / wall;

    // The shipped ticks: what `ServerConfig::quick` and the agent's
    // default configure. The server pays its sampler at its tick, the
    // agent its round and the scrape's dial and answer at its own.
    let server_tick = ServerConfig::quick("host", "srv", 1.0).telemetry.tick().as_secs_f64();
    let agent_tick = AgentConfig::default().telemetry.tick().as_secs_f64();
    let share = tick_cpu / CLAIM_TICK_SECS / call_cpu_per_sec;
    let shipped = (sampler / server_tick + (tick_cpu - sampler) / agent_tick) / call_cpu_per_sec;
    println!("tick: {:.1} us CPU over {rounds} rounds; per thread:", tick_cpu * 1e6);
    let mut split: Vec<(&str, f64)> =
        threads.iter().filter(|(_, s)| **s > 0.0).map(|(n, s)| (n.as_str(), *s)).collect();
    split.sort_by(|a, b| b.1.total_cmp(&a.1));
    split.push(("(exited threads)", tick_cpu - threads.values().sum::<f64>()));
    for (name, secs) in split {
        println!("  {name:<16} {:>7.1} us", secs * 1e6);
    }
    println!(
        "calls: {calls} in {wall:.2} s, {:.1} us CPU each, {call_cpu_per_sec:.3} CPU-s/s",
        call_cpu / f64::from(calls) * 1e6
    );
    println!(
        "share: {:.2} % at a {CLAIM_TICK_SECS} s tick (bound {:.0} %); {:.2} % at the shipped \
         ticks (server {server_tick} s, agent {agent_tick} s)",
        share * 100.0,
        BOUND * 100.0,
        shipped * 100.0
    );
    assert!(
        share <= BOUND,
        "telemetry at a {CLAIM_TICK_SECS} s tick costs {:.2} % of the calls' CPU (bound {:.0} %)",
        share * 100.0,
        BOUND * 100.0
    );
}
