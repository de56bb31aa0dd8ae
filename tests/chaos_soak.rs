//! Chaos soak: a full in-process domain (agent + four servers) hammered by
//! concurrent clients whose every dial goes through a fault-injecting
//! [`ChaosTransport`] — refused connections, mid-stream resets, corrupted
//! frames, injected latency. The invariant under test is the end-to-end
//! robustness contract: every request either completes with a bit-exact
//! result or fails with a clean *retryable* error. No hangs, no panics,
//! no silently wrong answers, and every injected corruption is caught by
//! the frame CRC.
//!
//! [`ChaosTransport`]: netsolve::net::ChaosTransport

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsolve::agent::{AgentCore, AgentDaemon, Policy};
use netsolve::client::NetSolveClient;
use netsolve::core::config::{AgentConfig, Backoff, FaultPolicy, RetryPolicy};
use netsolve::core::ErrorClass;
use netsolve::net::{
    ChannelNetwork, ChaosPolicy, ChaosStats, ChaosTransport, LinkModel, NetworkView, Transport,
};
use netsolve::obs::{MetricsRegistry, StatsSnapshot, Tracer};
use netsolve::server::{ServerConfig, ServerCore, ServerDaemon};

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 25;

/// The soaks' link: no latency, no bandwidth cap, 0.25 ms of Gaussian
/// jitter per leg. A leg's delay is that jitter clamped at zero, 0.1 ms on
/// average (σ/√(2π)), so an exchange adds about 0.2 ms: the same mean as
/// a 10 % chance of a U(0, 2 ms) pause on each send and each receive.
fn jittery_link() -> LinkModel {
    LinkModel { jitter_secs: 2.5e-4, ..LinkModel::ideal() }
}

struct SoakOutcome {
    ok: u64,
    failed_retryable: u64,
    stats: ChaosStats,
    metrics: StatsSnapshot,
    tracer: Arc<Tracer>,
    elapsed: Duration,
}

/// Boot the domain, run every client to completion, tear down, and report.
fn run_soak(seed: u64) -> SoakOutcome {
    let net = ChannelNetwork::new();
    let clean: Arc<dyn Transport> = Arc::new(net.clone());

    // Daemons live on the clean transport; chaos sits on the dialing side
    // of the client RPC path (queries, submissions, reports), which is the
    // path this PR hardens. Listeners pass through chaos untouched anyway.
    // The agent runs a short down-cooldown: clients honestly report their
    // chaos-hit attempts as server failures, and the default 60s blacklist
    // would otherwise let one bad burst empty the candidate pool for the
    // rest of the soak.
    let agent_config = AgentConfig {
        fault: FaultPolicy { failures_to_mark_down: 3, down_cooldown_secs: 0.5 },
        ..AgentConfig::default()
    };
    let core =
        AgentCore::new(agent_config, Policy::MinimumCompletionTime, NetworkView::lan_defaults());
    let mut agent = AgentDaemon::start(Arc::clone(&clean), "agent", core).unwrap();
    let mut servers = Vec::new();
    for i in 0..4 {
        servers.push(
            ServerDaemon::start(
                Arc::clone(&clean),
                "agent",
                ServerCore::with_standard_catalogue(),
                ServerConfig::quick(&format!("host{i}"), &format!("srv{i}"), 100.0 + 50.0 * i as f64),
            )
            .unwrap(),
        );
    }

    // >=10% refused dials, >=1% corrupted frames, plus resets and latency.
    // Clients keep their connections, so a call seldom dials and a reset
    // on a kept connection is absorbed by a redial inside the try: the
    // per-frame corruption is what fails attempts at a steady rate.
    let policy = ChaosPolicy::calm()
        .with_link(jittery_link())
        .with_refusals(0.12)
        .with_corruption(0.08)
        .with_resets(0.02);
    // One registry shared by the chaos layer and every client: injected
    // faults and client-observed attempts land side by side, so the
    // injected == detected invariant is assertable purely from metrics.
    let metrics = Arc::new(MetricsRegistry::new());
    let tracer = Arc::new(Tracer::new());
    let chaos = Arc::new(
        ChaosTransport::new(Arc::clone(&clean), policy, seed)
            .with_metrics(&metrics)
            .with_tracer(Arc::clone(&tracer)),
    );

    let retry = RetryPolicy {
        max_attempts: 5,
        attempt_timeout_secs: 5.0,
        backoff: Backoff::ExponentialJitter { base_secs: 0.002, cap_secs: 0.02 },
        deadline_secs: 0.0,
    };

    let ok = Arc::new(AtomicU64::new(0));
    let failed_retryable = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let transport: Arc<dyn Transport> = Arc::clone(&chaos) as Arc<dyn Transport>;
            let ok = Arc::clone(&ok);
            let failed_retryable = Arc::clone(&failed_retryable);
            let metrics = Arc::clone(&metrics);
            let tracer = Arc::clone(&tracer);
            std::thread::spawn(move || {
                let client = NetSolveClient::new(transport, "agent")
                    .with_retry(retry)
                    .with_jitter_seed(seed.wrapping_mul(31).wrapping_add(c as u64))
                    .with_observability(metrics, tracer);
                for i in 0..REQUESTS_PER_CLIENT {
                    // Integer-valued vectors: the dot product is exact in
                    // f64 whatever the summation order, so the expected
                    // value is bit-comparable.
                    let x: Vec<f64> = (0..16).map(|k| ((c * 31 + i * 7 + k) % 11) as f64).collect();
                    let y: Vec<f64> = (0..16).map(|k| ((c * 13 + i * 3 + k) % 7) as f64).collect();
                    let expect: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
                    match client.netsl("ddot", &[x.into(), y.into()]) {
                        Ok(out) => {
                            let got = out[0].as_double().unwrap();
                            assert_eq!(
                                got.to_bits(),
                                expect.to_bits(),
                                "client {c} request {i}: result not bit-exact \
                                 ({got} vs {expect})"
                            );
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => {
                            assert_ne!(
                                e.class(),
                                ErrorClass::Request,
                                "client {c} request {i}: non-retryable error leaked \
                                 through the hardened path: {e}"
                            );
                            failed_retryable.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("a soak client panicked");
    }
    let elapsed = started.elapsed();

    for s in &mut servers {
        s.stop();
    }
    agent.stop();

    SoakOutcome {
        ok: ok.load(Ordering::Relaxed),
        failed_retryable: failed_retryable.load(Ordering::Relaxed),
        stats: chaos.stats(),
        metrics: metrics.snapshot("soak"),
        tracer,
        elapsed,
    }
}

fn assert_soak_invariants(seed: u64, outcome: &SoakOutcome) {
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;
    assert_eq!(
        outcome.ok + outcome.failed_retryable,
        total,
        "seed {seed}: every request must be accounted for"
    );
    // Retries plus four-way failover should absorb most of the chaos.
    assert!(
        outcome.ok >= total / 2,
        "seed {seed}: too few successes ({}/{total})",
        outcome.ok
    );
    // The chaos actually bit: dials were refused and frames corrupted.
    assert!(outcome.stats.refused > 0, "seed {seed}: no refusals injected");
    assert!(
        outcome.stats.corruptions_injected > 0,
        "seed {seed}: no corruption injected"
    );
    // Every injected corruption was detected by the frame CRC — none
    // slipped through to a solver, none double-counted.
    assert_eq!(
        outcome.stats.corruptions_injected, outcome.stats.corruptions_detected,
        "seed {seed}: corruption escaped detection"
    );
    // The same invariants hold in the mirrored metrics (what a live
    // operator would scrape): injected faults are visible and every
    // injected corruption was detected.
    let m = &outcome.metrics;
    assert_eq!(m.counter("chaos.refused"), outcome.stats.refused, "seed {seed}");
    assert_eq!(
        m.counter("chaos.corruptions_injected"),
        outcome.stats.corruptions_injected,
        "seed {seed}"
    );
    assert_eq!(
        m.counter("chaos.corruptions_injected"),
        m.counter("chaos.corruptions_detected"),
        "seed {seed}: corruption escaped detection (metrics view)"
    );
    // Client-side accounting closes: every call entered the retry loop,
    // refusals forced extra attempts, and no request ids collided even
    // with four clients sharing one tracer.
    assert_eq!(m.counter("client.calls"), total, "seed {seed}");
    assert_eq!(m.counter("client.calls_ok"), outcome.ok, "seed {seed}");
    assert_eq!(
        m.counter("client.calls_failed"),
        outcome.failed_retryable,
        "seed {seed}"
    );
    assert!(
        m.counter("client.attempt_failures") > 0,
        "seed {seed}: chaos should have failed some attempts"
    );
    assert!(
        m.counter("client.attempts") > m.counter("client.calls_ok"),
        "seed {seed}: failed attempts must show up as extra attempts \
         ({} attempts, {} successes)",
        m.counter("client.attempts"),
        m.counter("client.calls_ok")
    );
    // Tracing rode along with the whole soak: every call records at least
    // its root and rank spans (successes add attempt subtrees on top),
    // the retained window still holds client attempt spans, and the
    // injected faults appear as traceless chaos points — never stitched
    // into any request's timeline but visible to an operator.
    let spans = outcome.tracer.spans_recorded();
    assert!(
        spans >= total * 2,
        "seed {seed}: only {spans} spans recorded across {total} calls"
    );
    let retained = outcome.tracer.spans();
    assert!(
        retained.iter().any(|s| s.component == "client" && s.phase == "attempt"),
        "seed {seed}: no attempt spans retained"
    );
    assert!(
        retained.iter().any(|s| s.component == "chaos" && s.trace_id == 0),
        "seed {seed}: injected faults left no traceless chaos spans"
    );
    // No hangs: bounded attempt timeouts and backoffs keep the whole soak
    // far from pathological wall-clock.
    assert!(
        outcome.elapsed < Duration::from_secs(120),
        "seed {seed}: soak took {:?}",
        outcome.elapsed
    );
}

/// Agent-crash soak: a three-agent federation (gossip replication on)
/// serving four servers, hammered by multi-agent clients while one agent
/// — one that at least one client is actively pinned to — is killed
/// mid-run and later restarted. The contract under test is the
/// federation robustness story end to end:
///
/// * every one of the 100 solves completes (zero failed calls);
/// * no solve needs a second *server* attempt — the crash costs at most
///   the client-internal agent failover hop, never a re-run request;
/// * the failover hop is stitched into the affected request's trace;
/// * the restarted agent relearns the registry via gossip.
fn run_agent_crash_soak(seed: u64) {
    use netsolve::core::config::GossipPolicy;
    use std::sync::Mutex;

    const AGENTS: [&str; 3] = ["agent-1", "agent-2", "agent-3"];

    let net = ChannelNetwork::new();
    let clean: Arc<dyn Transport> = Arc::new(net.clone());
    let agent_config = AgentConfig {
        fault: FaultPolicy { failures_to_mark_down: 3, down_cooldown_secs: 0.5 },
        gossip: GossipPolicy {
            interval_secs: 0.05,
            entry_ttl_secs: 60.0,
            peer_miss_threshold: 2,
            round_timeout_secs: 0.5,
        },
        ..AgentConfig::default()
    };
    let start_agent = |name: &str| {
        let peers = AGENTS
            .iter()
            .filter(|a| *a != &name)
            .map(|a| a.to_string())
            .collect();
        let core = AgentCore::new(
            agent_config.clone(),
            Policy::MinimumCompletionTime,
            NetworkView::lan_defaults(),
        );
        let agent = AgentDaemon::start(Arc::clone(&clean), name, core).unwrap();
        agent.set_peers(peers);
        agent
    };
    // Slot per agent so the killer thread can stop one and restart it.
    let agents: Arc<Mutex<Vec<Option<AgentDaemon>>>> =
        Arc::new(Mutex::new(AGENTS.iter().map(|n| Some(start_agent(n))).collect()));

    // Spread registrations across the agents: every agent is authoritative
    // for at least one server and learns the rest from gossip.
    let mut servers = Vec::new();
    for i in 0..4 {
        servers.push(
            ServerDaemon::start(
                Arc::clone(&clean),
                AGENTS[i % AGENTS.len()],
                ServerCore::with_standard_catalogue(),
                ServerConfig::quick(&format!("host{i}"), &format!("srv{i}"), 100.0 + 50.0 * i as f64),
            )
            .unwrap(),
        );
    }
    // Wait for gossip convergence: every agent sees all four servers.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let all = agents.lock().unwrap().iter().all(|a| {
            a.as_ref()
                .map(|a| a.core().lock().registry().all_servers().len() == 4)
                .unwrap_or(false)
        });
        if all {
            break;
        }
        assert!(Instant::now() < deadline, "seed {seed}: gossip never converged");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Calm chaos policy: the *only* fault in this scenario is the agent
    // kill, so any extra server attempt is attributable to the crash.
    let metrics = Arc::new(MetricsRegistry::new());
    // A roomy span budget: the failover hop fires mid-run and its trace
    // must survive the spans of every later solve plus gossip chatter.
    let tracer = Arc::new(Tracer::with_capacity(65_536));
    let chaos = Arc::new(
        ChaosTransport::new(Arc::clone(&clean), ChaosPolicy::calm(), seed)
            .with_metrics(&metrics)
            .with_tracer(Arc::clone(&tracer)),
    );
    let retry = RetryPolicy {
        max_attempts: 5,
        attempt_timeout_secs: 5.0,
        backoff: Backoff::ExponentialJitter { base_secs: 0.002, cap_secs: 0.02 },
        deadline_secs: 0.0,
    };

    let solved = Arc::new(AtomicU64::new(0));
    // After each solve a client posts the agent it is pinned to and how
    // many calls it has made, so the killer can pick a victim that a
    // client still has calls to make against.
    let pins: Arc<Mutex<Vec<(String, usize)>>> =
        Arc::new(Mutex::new(vec![(String::new(), 0); CLIENTS]));
    let total = (CLIENTS * REQUESTS_PER_CLIENT) as u64;

    let killer = {
        let chaos = Arc::clone(&chaos);
        let agents = Arc::clone(&agents);
        let solved = Arc::clone(&solved);
        let pins = Arc::clone(&pins);
        std::thread::spawn(move || {
            let wait_until = |cond: &dyn Fn() -> bool| {
                let deadline = Instant::now() + Duration::from_secs(60);
                while !cond() {
                    if Instant::now() >= deadline {
                        return false;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                true
            };
            // The agent of the pinned client with the most calls left, if
            // it has at least three: one may finish while this is read and
            // one may be in flight at the kill, so a later one must meet
            // the dead agent and fail over.
            let in_use = || {
                let pins = pins.lock().unwrap();
                let (agent, done) = pins.iter().filter(|(agent, _)| !agent.is_empty()).min_by_key(|p| p.1)?;
                (done + 3 <= REQUESTS_PER_CLIENT).then(|| agent.clone())
            };
            // Mid-run (~40% of solves done), kill an agent in use: sever
            // client connections AND stop the daemon, so peers see it dead
            // too.
            let deadline = Instant::now() + Duration::from_secs(60);
            let victim = loop {
                if solved.load(Ordering::Relaxed) >= 2 * total / 5 {
                    if let Some(victim) = in_use() {
                        break victim;
                    }
                }
                if Instant::now() >= deadline {
                    return String::new();
                }
                std::thread::sleep(Duration::from_millis(2));
            };
            let slot = AGENTS.iter().position(|a| *a == victim).expect("pin is a known agent");
            chaos.kill(&victim);
            if let Some(mut daemon) = agents.lock().unwrap()[slot].take() {
                daemon.stop();
            }
            // Let the survivors carry more of the run, then restart the
            // victim (same name, empty registry) and reconnect clients.
            wait_until(&|| solved.load(Ordering::Relaxed) >= 4 * total / 5);
            let peers = AGENTS
                .iter()
                .filter(|a| **a != victim)
                .map(|a| a.to_string())
                .collect();
            let core = AgentCore::new(
                agent_config.clone(),
                Policy::MinimumCompletionTime,
                NetworkView::lan_defaults(),
            );
            let restarted = AgentDaemon::start(Arc::clone(&clean), &victim, core).unwrap();
            restarted.set_peers(peers);
            agents.lock().unwrap()[slot] = Some(restarted);
            chaos.revive(&victim);
            victim
        })
    };

    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let transport: Arc<dyn Transport> = Arc::clone(&chaos) as Arc<dyn Transport>;
            let metrics = Arc::clone(&metrics);
            let tracer = Arc::clone(&tracer);
            let solved = Arc::clone(&solved);
            let pins = Arc::clone(&pins);
            std::thread::spawn(move || {
                let agent_list: Vec<String> = AGENTS.iter().map(|a| a.to_string()).collect();
                let client = NetSolveClient::new_multi(transport, &agent_list)
                    .with_retry(retry)
                    .with_jitter_seed(seed.wrapping_mul(37).wrapping_add(c as u64))
                    .with_observability(metrics, tracer);
                for i in 0..REQUESTS_PER_CLIENT {
                    let x: Vec<f64> = (0..16).map(|k| ((c * 31 + i * 7 + k) % 11) as f64).collect();
                    let y: Vec<f64> = (0..16).map(|k| ((c * 13 + i * 3 + k) % 7) as f64).collect();
                    let expect: f64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
                    let out = client
                        .netsl("ddot", &[x.into(), y.into()])
                        .unwrap_or_else(|e| {
                            panic!("seed {seed} client {c} request {i}: solve failed mid-crash: {e}")
                        });
                    assert_eq!(out[0].as_double().unwrap().to_bits(), expect.to_bits());
                    pins.lock().unwrap()[c] = (client.current_agent(), i + 1);
                    solved.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("a soak client panicked");
    }
    let victim = killer.join().expect("killer thread panicked");
    assert!(!victim.is_empty(), "seed {seed}: the kill never happened");

    // The restarted agent relearns the registry from its peers' gossip.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let relearned = {
            let agents = agents.lock().unwrap();
            let slot = AGENTS.iter().position(|a| *a == victim).unwrap();
            agents[slot]
                .as_ref()
                .map(|a| !a.core().lock().registry().all_servers().is_empty())
                .unwrap_or(false)
        };
        if relearned {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "seed {seed}: restarted {victim} never relearned the registry"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let m = metrics.snapshot("soak");
    // Every solve completed, and the crash cost no re-run requests: each
    // of the 100 calls took exactly one server attempt. The failover
    // happened inside the client's agent RPC layer.
    assert_eq!(m.counter("client.calls"), total, "seed {seed}");
    assert_eq!(m.counter("client.calls_ok"), total, "seed {seed}: solves failed during crash");
    assert_eq!(m.counter("client.calls_failed"), 0, "seed {seed}");
    assert_eq!(
        m.counter("client.attempts"),
        total,
        "seed {seed}: the agent crash must not cost server-side retries"
    );
    assert!(
        m.counter("client.agent_failovers") >= 1,
        "seed {seed}: the killed agent was pinned, so at least one failover must fire"
    );
    // The failover hop is part of a real request's stitched trace.
    let retained = tracer.spans();
    let failover = retained
        .iter()
        .find(|s| s.phase == "agent_failover" && s.trace_id != 0)
        .unwrap_or_else(|| panic!("seed {seed}: no traced agent_failover point"));
    assert!(
        retained
            .iter()
            .any(|s| s.trace_id == failover.trace_id && s.component == "client" && s.phase == "call"),
        "seed {seed}: failover hop not stitched under its request's root span"
    );

    for s in &mut servers {
        s.stop();
    }
    for slot in agents.lock().unwrap().iter_mut() {
        if let Some(mut a) = slot.take() {
            a.stop();
        }
    }
}

/// Cache-enabled soak: the server runs the content-addressed solve cache
/// while the chaos transport corrupts frames on the wire, and mid-run the
/// whole cache store is corrupted *in memory* (every entry's bytes
/// flipped, insert CRCs left stale). The contract: a corrupted cached
/// reply is NEVER served —
///
/// * wire corruption of a (cached or fresh) reply is caught by the frame
///   CRC and retried (`corruptions_injected == corruptions_detected`);
/// * in-memory corruption is caught by the serve-time CRC: every swept
///   entry is dropped on its next probe (`cache_corrupt_dropped`), the
///   prober re-solves, and the store heals;
/// * every successful request, before and after the sweep, is bit-exact.
fn run_cached_soak(seed: u64) {
    const PROBLEMS: usize = 5;
    const ROUNDS: usize = 3;

    let net = ChannelNetwork::new();
    let clean: Arc<dyn Transport> = Arc::new(net.clone());
    let agent_config = AgentConfig {
        fault: FaultPolicy { failures_to_mark_down: 3, down_cooldown_secs: 0.5 },
        ..AgentConfig::default()
    };
    let core =
        AgentCore::new(agent_config, Policy::MinimumCompletionTime, NetworkView::lan_defaults());
    let mut agent = AgentDaemon::start(Arc::clone(&clean), "agent", core).unwrap();

    // One cache-enabled server, so every repeat provably lands on the
    // same cache. Keep handles to the cache and its metrics before the
    // core moves into the daemon.
    let server_core = ServerCore::with_standard_catalogue().with_cache(1 << 20);
    let cache = server_core.cache().cloned().expect("cache is on");
    let server_metrics = server_core.metrics();
    let mut server = ServerDaemon::start(
        Arc::clone(&clean),
        "agent",
        server_core,
        ServerConfig::quick("cachehost", "srv0", 100.0),
    )
    .unwrap();

    let policy = ChaosPolicy::calm()
        .with_link(jittery_link())
        .with_refusals(0.10)
        .with_corruption(0.03);
    let metrics = Arc::new(MetricsRegistry::new());
    let tracer = Arc::new(Tracer::new());
    let chaos = Arc::new(
        ChaosTransport::new(Arc::clone(&clean), policy, seed)
            .with_metrics(&metrics)
            .with_tracer(Arc::clone(&tracer)),
    );
    let retry = RetryPolicy {
        max_attempts: 5,
        attempt_timeout_secs: 5.0,
        backoff: Backoff::ExponentialJitter { base_secs: 0.002, cap_secs: 0.02 },
        deadline_secs: 0.0,
    };

    // A fixed roster of distinct problems shared by every client, cycled
    // each round: after round one, virtually all requests are repeats.
    let problem = |p: usize| -> (Vec<f64>, Vec<f64>, f64) {
        let x: Vec<f64> = (0..16).map(|k| ((p * 7 + k) % 11) as f64).collect();
        let y: Vec<f64> = (0..16).map(|k| ((p * 3 + k) % 7) as f64).collect();
        let expect = x.iter().zip(&y).map(|(a, b)| a * b).sum();
        (x, y, expect)
    };
    let ok = Arc::new(AtomicU64::new(0));
    let failed_retryable = Arc::new(AtomicU64::new(0));
    let run_phase = |phase: u64| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let transport: Arc<dyn Transport> = Arc::clone(&chaos) as Arc<dyn Transport>;
                let metrics = Arc::clone(&metrics);
                let tracer = Arc::clone(&tracer);
                let ok = Arc::clone(&ok);
                let failed_retryable = Arc::clone(&failed_retryable);
                std::thread::spawn(move || {
                    let client = NetSolveClient::new(transport, "agent")
                        .with_retry(retry)
                        .with_jitter_seed(seed.wrapping_mul(41).wrapping_add(phase * 100 + c as u64))
                        .with_observability(metrics, tracer);
                    for _ in 0..ROUNDS {
                        for p in 0..PROBLEMS {
                            let (x, y, expect) = problem(p);
                            match client.netsl("ddot", &[x.into(), y.into()]) {
                                Ok(out) => {
                                    let got = out[0].as_double().unwrap();
                                    assert_eq!(
                                        got.to_bits(),
                                        expect.to_bits(),
                                        "seed {seed} phase {phase} client {c} problem {p}: \
                                         corrupted or wrong reply served ({got} vs {expect})"
                                    );
                                    ok.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(e) => {
                                    assert_ne!(e.class(), ErrorClass::Request, "leaked: {e}");
                                    failed_retryable.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("a cached-soak client panicked");
        }
    };

    // Phase 1: populate and hammer the cache through wire chaos.
    run_phase(1);
    let snap1 = server_metrics.snapshot("server");
    assert!(snap1.counter("server.cache_hits") > 0, "seed {seed}: repeats never hit");
    assert_eq!(cache.entries(), PROBLEMS, "seed {seed}: roster not fully cached");

    // Corrupt EVERY cached entry in memory, then hammer again. Each swept
    // entry must be dropped by the serve-time CRC on its next probe — not
    // one corrupted byte may reach a client.
    let corrupted = cache.corrupt_entries_for_test(usize::MAX);
    assert_eq!(corrupted, PROBLEMS, "seed {seed}: sweep missed entries");
    run_phase(2);

    let total = (2 * CLIENTS * ROUNDS * PROBLEMS) as u64;
    let ok = ok.load(Ordering::Relaxed);
    let failed = failed_retryable.load(Ordering::Relaxed);
    assert_eq!(ok + failed, total, "seed {seed}: requests unaccounted for");
    assert!(ok >= total / 2, "seed {seed}: too few successes ({ok}/{total})");

    // Wire-level corruption all caught by the frame CRC (this includes
    // corrupted cached replies in flight).
    let stats = chaos.stats();
    assert!(stats.corruptions_injected > 0, "seed {seed}: wire chaos never bit");
    assert_eq!(
        stats.corruptions_injected, stats.corruptions_detected,
        "seed {seed}: wire corruption escaped the frame CRC"
    );

    // In-memory corruption all caught by the serve-time CRC: every swept
    // entry was dropped exactly once, the store healed back to a full
    // roster, and both CRC legs (insert and serve) demonstrably ran.
    let snap2 = server_metrics.snapshot("server");
    assert_eq!(
        snap2.counter("server.cache_corrupt_dropped"),
        corrupted as u64,
        "seed {seed}: swept entries must each be dropped on next probe"
    );
    assert!(
        snap2.counter("server.cache_insert_crcs") >= (2 * PROBLEMS) as u64,
        "seed {seed}: re-solves after the sweep must re-checksum on insert"
    );
    assert!(
        snap2.counter("server.cache_serve_crcs") > snap1.counter("server.cache_serve_crcs"),
        "seed {seed}: phase 2 never exercised the serve-time CRC"
    );
    assert_eq!(cache.entries(), PROBLEMS, "seed {seed}: store did not heal after the sweep");
    assert!(
        metrics.snapshot("clients").counter("client.cached_replies") > 0,
        "seed {seed}: no reply ever carried the cached marker"
    );

    server.stop();
    agent.stop();
}

#[test]
fn chaos_soak_cached_seed_1() {
    run_cached_soak(1);
}

#[test]
fn chaos_soak_cached_seed_2() {
    run_cached_soak(2);
}

#[test]
fn chaos_soak_agent_crash_seed_1() {
    run_agent_crash_soak(1);
}

#[test]
fn chaos_soak_agent_crash_seed_2() {
    run_agent_crash_soak(2);
}

#[test]
fn chaos_soak_agent_crash_seed_3() {
    run_agent_crash_soak(3);
}

#[test]
fn chaos_soak_seed_1() {
    let outcome = run_soak(1);
    assert_soak_invariants(1, &outcome);
}

#[test]
fn chaos_soak_seed_2() {
    let outcome = run_soak(2);
    assert_soak_invariants(2, &outcome);
}

#[test]
fn chaos_soak_seed_3() {
    let outcome = run_soak(3);
    assert_soak_invariants(3, &outcome);
}
