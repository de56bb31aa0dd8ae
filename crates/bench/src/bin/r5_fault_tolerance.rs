//! R5 — Fault-tolerance experiment (reconstructs the paper's
//! failure-handling demonstration).
//!
//! Sweeps the per-attempt failure probability of half the pool and
//! compares client-side failover (agent-ranked candidate list, failure
//! reports, fault cooldown) against naive single-attempt dispatch.
//! Expected shape: with failover the success rate stays ~100% at the cost
//! of extra attempts; without it, losses track the failure rate.
//!
//! A second sweep (R5b) leaves the simulator and runs the *live* RPC
//! stack — agent daemon, four server daemons, real framing — behind a
//! seeded chaos transport (refused dials, corrupted frames, resets),
//! comparing the client backoff policies: none, fixed, exponential with
//! jitter. Expected shape: success rate is carried by failover and is
//! similar across policies; backoff trades a little turnaround tail for
//! not hammering a struggling domain.
//!
//! Run: `cargo run --release -p netsolve-bench --bin r5_fault_tolerance`

use std::sync::Arc;

use netsolve_agent::{AgentCore, AgentDaemon, Policy};
use netsolve_bench::{pct, secs, Table};
use netsolve_client::NetSolveClient;
use netsolve_core::config::{AgentConfig, Backoff, FaultPolicy, RetryPolicy};
use netsolve_net::{ChannelNetwork, ChaosPolicy, ChaosTransport, NetworkView, Transport};
use netsolve_obs::{MetricsRegistry, Tracer};
use netsolve_server::{ServerConfig, ServerCore, ServerDaemon};
use netsolve_sim::{run, Arrivals, RequestMix, Scenario, SimServer};

fn scenario(fail_prob: f64, max_attempts: usize) -> Scenario {
    // Half the pool is flaky, half reliable.
    let servers = vec![
        SimServer::new(200.0).with_fail_prob(fail_prob),
        SimServer::new(150.0).with_fail_prob(fail_prob),
        SimServer::new(120.0),
        SimServer::new(100.0),
    ];
    let mut sc = Scenario::default_with(servers, 300);
    sc.arrivals = Arrivals::Poisson { rate: 2.0 };
    sc.mix = RequestMix::dgesv(&[200, 300]);
    sc.max_attempts = max_attempts;
    sc.seed = 5;
    sc
}

fn main() {
    let mut table = Table::new(
        "R5: success rate and cost vs failure probability (2 of 4 servers flaky)",
        &[
            "fail prob",
            "failover",
            "success rate",
            "mean attempts",
            "mean turnaround",
        ],
    );
    for &p in &[0.0, 0.1, 0.2, 0.3, 0.4] {
        for (label, attempts) in [("on (3 tries)", 3usize), ("off (1 try)", 1)] {
            let report = run(&scenario(p, attempts)).expect("sim runs");
            table.row(vec![
                format!("{p:.1}"),
                label.to_string(),
                pct(report.success_rate()),
                format!("{:.2}", report.mean_attempts()),
                secs(report.mean_turnaround_secs()),
            ]);
        }
    }
    table.print();

    // Crash-and-carry-on: the fastest server dies mid-run.
    let mut crash_sc = scenario(0.0, 3);
    crash_sc.servers[0] = SimServer::new(200.0).with_crash_at(20.0);
    let report = run(&crash_sc).expect("sim runs");
    println!(
        "\ncrash scenario (fastest server dies at t=20s): success rate {} over {} requests, \
         mean attempts {:.2}",
        pct(report.success_rate()),
        report.total(),
        report.mean_attempts()
    );
    let with_failover = run(&scenario(0.3, 3)).expect("sim runs");
    let without = run(&scenario(0.3, 1)).expect("sim runs");
    println!(
        "shape check at p=0.3: failover success {} vs single-attempt {}",
        pct(with_failover.success_rate()),
        pct(without.success_rate())
    );

    backoff_sweep_live();
    agent_failure_live();
}

/// R5b: the same fault-tolerance story on the live RPC stack. A real
/// agent and four real servers run in-process; the clients' dials go
/// through a seeded [`ChaosTransport`] injecting refused connections,
/// corrupted frames and mid-stream resets. Three backoff policies are
/// compared at identical chaos seeds.
fn backoff_sweep_live() {
    const REQUESTS: usize = 200;
    const CHAOS_SEED: u64 = 55;

    let mut table = Table::new(
        "R5b: live chaos transport — client backoff policy (refuse 15%, corrupt 2%, reset 2%)",
        &[
            "backoff",
            "success rate",
            "attempts/call",
            "p95 turnaround",
            "faults injected",
        ],
    );
    let cases: [(&str, Backoff); 3] = [
        ("none", Backoff::None),
        ("fixed 10ms", Backoff::Fixed { delay_secs: 0.01 }),
        (
            "exp+jitter 2..20ms",
            Backoff::ExponentialJitter { base_secs: 0.002, cap_secs: 0.02 },
        ),
    ];
    for (label, backoff) in cases {
        // Fresh domain per policy so fault-tracker state cannot leak
        // between rows; identical chaos seed so every policy faces the
        // same fault schedule distribution. The agent runs a short down
        // cooldown: the chaos lives on the client side of the links, so a
        // long blacklist would punish healthy servers for faults that are
        // not theirs and turn the sweep into a study of the cooldown.
        let agent_config = AgentConfig {
            fault: FaultPolicy { failures_to_mark_down: 3, down_cooldown_secs: 0.5 },
            ..AgentConfig::default()
        };
        let net = ChannelNetwork::new();
        let clean: Arc<dyn Transport> = Arc::new(net.clone());
        let core =
            AgentCore::new(agent_config, Policy::MinimumCompletionTime, NetworkView::lan_defaults());
        let mut agent = AgentDaemon::start(Arc::clone(&clean), "agent", core)
            .expect("agent starts");
        let mut servers: Vec<ServerDaemon> = (0..4)
            .map(|i| {
                ServerDaemon::start(
                    Arc::clone(&clean),
                    "agent",
                    ServerCore::with_standard_catalogue(),
                    ServerConfig::quick(
                        &format!("host{i}"),
                        &format!("srv{i}"),
                        100.0 + 50.0 * i as f64,
                    ),
                )
                .expect("server starts")
            })
            .collect();

        let policy = ChaosPolicy::calm()
            .with_refusals(0.15)
            .with_corruption(0.02)
            .with_resets(0.02);
        // One registry shared by the chaos layer and the client: the
        // attempt counts and the injected-fault counts below come from
        // the same instruments a live operator scrapes via StatsQuery.
        let metrics = Arc::new(MetricsRegistry::new());
        let chaos: Arc<dyn Transport> = Arc::new(
            ChaosTransport::new(Arc::clone(&clean), policy, CHAOS_SEED).with_metrics(&metrics),
        );
        let client = NetSolveClient::new(chaos, "agent")
            .with_retry(RetryPolicy {
                max_attempts: 4,
                attempt_timeout_secs: 5.0,
                backoff,
                deadline_secs: 0.0,
            })
            .with_jitter_seed(CHAOS_SEED)
            .with_observability(Arc::clone(&metrics), Arc::new(Tracer::new()));

        let mut turnarounds: Vec<f64> = Vec::with_capacity(REQUESTS);
        for i in 0..REQUESTS {
            let x: Vec<f64> = (0..32).map(|k| ((i * 7 + k) % 13) as f64).collect();
            let y: Vec<f64> = (0..32).map(|k| ((i * 3 + k) % 5) as f64).collect();
            let started = std::time::Instant::now();
            let _ = client.netsl("ddot", &[x.into(), y.into()]);
            turnarounds.push(started.elapsed().as_secs_f64());
        }
        turnarounds.sort_by(|a, b| a.total_cmp(b));
        let p95 = turnarounds[((turnarounds.len() - 1) as f64 * 0.95) as usize];
        let m = metrics.snapshot("r5b");
        let ok = m.counter("client.calls_ok");
        table.row(vec![
            label.to_string(),
            pct(ok as f64 / REQUESTS as f64),
            format!(
                "{:.2}",
                m.counter("client.attempts") as f64 / m.counter("client.calls").max(1) as f64
            ),
            secs(p95),
            format!(
                "{} refuse / {} corrupt / {} reset",
                m.counter("chaos.refused"),
                m.counter("chaos.corruptions_injected"),
                m.counter("chaos.resets"),
            ),
        ]);

        for s in &mut servers {
            s.stop();
        }
        agent.stop();
    }
    table.print();

    println!(
        "\nshape check R5b: failover keeps success near 100% under live chaos for every\n\
         backoff policy; backoff mainly shapes the retry pacing, not the success rate."
    );
}

/// R5c: the fault mix now includes the *agent itself*. A three-agent
/// federation (gossip replication on) serves four servers; the agent the
/// client is pinned to is killed a third of the way through the run. A
/// client that only knows the dead agent loses every remaining request;
/// a client holding the full agent list pays one failover hop and keeps
/// a 100% success rate — and zero extra *server* attempts, because the
/// crash is absorbed inside the agent RPC layer.
fn agent_failure_live() {
    use netsolve_core::config::GossipPolicy;

    const REQUESTS: usize = 120;
    const KILL_AT: usize = 40;
    const CHAOS_SEED: u64 = 77;
    const AGENTS: [&str; 3] = ["agent-1", "agent-2", "agent-3"];

    let mut table = Table::new(
        "R5c: agent failure in the fault mix (pinned agent killed at request 40 of 120)",
        &[
            "client agent list",
            "success rate",
            "attempts/call",
            "agent failovers",
            "failed solves",
        ],
    );

    for (label, all_agents) in [("one agent (the victim)", false), ("all three agents", true)] {
        let agent_config = AgentConfig {
            fault: FaultPolicy { failures_to_mark_down: 3, down_cooldown_secs: 0.5 },
            gossip: GossipPolicy { interval_secs: 0.05, ..GossipPolicy::default() },
            ..AgentConfig::default()
        };
        let net = ChannelNetwork::new();
        let clean: Arc<dyn Transport> = Arc::new(net.clone());
        let mut agents: Vec<AgentDaemon> = AGENTS
            .iter()
            .map(|name| {
                let peers = AGENTS
                    .iter()
                    .filter(|a| *a != name)
                    .map(|a| a.to_string())
                    .collect();
                let core = AgentCore::new(
                    agent_config.clone(),
                    Policy::MinimumCompletionTime,
                    NetworkView::lan_defaults(),
                );
                let agent =
                    AgentDaemon::start(Arc::clone(&clean), name, core).expect("agent starts");
                agent.set_peers(peers);
                agent
            })
            .collect();
        let mut servers: Vec<ServerDaemon> = (0..4)
            .map(|i| {
                ServerDaemon::start(
                    Arc::clone(&clean),
                    AGENTS[i % AGENTS.len()],
                    ServerCore::with_standard_catalogue(),
                    ServerConfig::quick(
                        &format!("host{i}"),
                        &format!("srv{i}"),
                        100.0 + 50.0 * i as f64,
                    ),
                )
                .expect("server starts")
            })
            .collect();
        // Gossip convergence: every agent must know all four servers
        // before the clock starts, or the sweep measures replication lag.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        loop {
            let done = agents
                .iter()
                .all(|a| a.core().lock().registry().all_servers().len() == servers.len());
            if done {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "gossip never converged");
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let metrics = Arc::new(MetricsRegistry::new());
        let chaos = Arc::new(
            ChaosTransport::new(Arc::clone(&clean), ChaosPolicy::calm(), CHAOS_SEED)
                .with_metrics(&metrics),
        );
        // Both rows must kill the agent the client actually uses, so the
        // single-agent row pins first and then adopts that agent alone.
        let mut client = NetSolveClient::new_multi(
            Arc::clone(&chaos) as Arc<dyn Transport>,
            &AGENTS.iter().map(|a| a.to_string()).collect::<Vec<_>>(),
        )
        .with_retry(RetryPolicy {
            max_attempts: 4,
            attempt_timeout_secs: 5.0,
            backoff: Backoff::ExponentialJitter { base_secs: 0.002, cap_secs: 0.02 },
            deadline_secs: 0.0,
        })
        .with_jitter_seed(CHAOS_SEED)
        .with_observability(Arc::clone(&metrics), Arc::new(Tracer::new()));

        let mut failed = 0usize;
        let mut victim = String::new();
        for i in 0..REQUESTS {
            if i == 1 && !all_agents {
                // Re-home the single-agent client onto its pinned agent
                // only: same transport and instruments, shorter roster.
                let pinned = client.current_agent();
                client = NetSolveClient::new_multi(
                    Arc::clone(&chaos) as Arc<dyn Transport>,
                    &[pinned],
                )
                .with_retry(RetryPolicy {
                    max_attempts: 4,
                    attempt_timeout_secs: 0.2,
                    backoff: Backoff::ExponentialJitter { base_secs: 0.002, cap_secs: 0.02 },
                    deadline_secs: 0.0,
                })
                .with_jitter_seed(CHAOS_SEED)
                .with_observability(Arc::clone(&metrics), Arc::new(Tracer::new()));
            }
            if i == KILL_AT {
                victim = client.current_agent();
                chaos.kill(&victim);
                if let Some(pos) = AGENTS.iter().position(|a| *a == victim) {
                    agents[pos].stop();
                }
            }
            let x: Vec<f64> = (0..32).map(|k| ((i * 7 + k) % 13) as f64).collect();
            let y: Vec<f64> = (0..32).map(|k| ((i * 3 + k) % 5) as f64).collect();
            if client.netsl("ddot", &[x.into(), y.into()]).is_err() {
                failed += 1;
            }
        }

        let m = metrics.snapshot("r5c");
        let ok = m.counter("client.calls_ok");
        let calls = m.counter("client.calls").max(1);
        table.row(vec![
            label.to_string(),
            pct(ok as f64 / REQUESTS as f64),
            format!("{:.2}", m.counter("client.attempts") as f64 / calls as f64),
            format!("{}", m.counter("client.agent_failovers")),
            format!("{failed}"),
        ]);

        for s in &mut servers {
            s.stop();
        }
        for (i, a) in agents.iter_mut().enumerate() {
            if AGENTS[i] != victim {
                a.stop();
            }
        }
    }
    table.print();

    println!(
        "\nshape check R5c: with the full agent list the crash costs one failover hop and no\n\
         failed solves; a client that only knows the dead agent loses every request after it."
    );
}
