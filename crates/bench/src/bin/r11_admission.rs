//! R11 — Admission-control experiment: the SAME `AdmissionPolicy` object
//! type runs on a live TCP-less trio (agent + synthetic server behind the
//! solve-slot gate) and inside the discrete-event simulator, under the
//! same 4x Poisson overload. The claims under test:
//!
//! * **sim/live agreement** — the shed rate the simulator predicts from
//!   the policy's own counters matches the live server's measured shed
//!   rate within 15% relative;
//! * **latency protection** — admitted-request p99 under the depth-bound
//!   policy is at least 2x better than the no-shed baseline (an identical
//!   gate whose queue bound is effectively infinite, so the discipline —
//!   FCFS through one solve slot — is the same and only the shed differs);
//! * **scale** — a 10^5-client closed-loop scenario completes in under
//!   60 s of wall time.
//!
//! Both agents run with the fault tracker effectively disabled
//! (`failures_to_mark_down = u32::MAX`): a shed burst would otherwise
//! blacklist the pool mid-measurement and the experiment would measure
//! the fault tracker, not admission.
//!
//! Run: `cargo run --release -p netsolve-bench --bin r11_admission`
//! (writes `results/BENCH_r11_admission.json`, then asserts the three
//! targets); pass `--quick` for a tiny smoke run that prints them, asserts
//! none and skips the JSON artifact — its 60-request leg is too short for
//! the agreement target.

use std::sync::Arc;
use std::time::{Duration, Instant};

use netsolve_agent::{AgentCore, AgentDaemon, Policy};
use netsolve_bench::{json_object, write_report, Table};
use netsolve_client::NetSolveClient;
use netsolve_core::admission::{AdmissionConfig, AdmissionPolicy, AdmissionStats};
use netsolve_core::config::{AgentConfig, Backoff, FaultPolicy, RetryPolicy};
use netsolve_core::{DataObject, NetSolveError, Rng64};
use netsolve_net::{ChannelNetwork, NetworkView, Transport};
use netsolve_obs::Tracer;
use netsolve_pdl::ProblemRegistry;
use netsolve_server::{ExecutionMode, ServerConfig, ServerCore, ServerDaemon};
use netsolve_sim::{run, Arrivals, RequestMix, Scenario, SimNetwork, SimServer};

/// ddot operand length: 2n flops, so service = 2n / (MFLOPS * 1e6).
const N: usize = 2_000;
/// Synthetic speed making one solve ~20 ms (mu = 50/s through 1 slot).
const MFLOPS: f64 = 0.2;
/// Queue bound for the guarded runs (live gate and sim policy alike).
const MAX_QUEUE: usize = 4;

fn never_blacklist() -> FaultPolicy {
    FaultPolicy { failures_to_mark_down: u32::MAX, down_cooldown_secs: 0.0 }
}

fn p99(samples: &mut [f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[((samples.len() as f64 * 0.99).ceil() as usize - 1).min(samples.len() - 1)]
}

struct LiveRun {
    ok_latencies: Vec<f64>,
    shed_replies: usize,
    other_failures: usize,
    stats: AdmissionStats,
}

/// One live overload run: `requests` Poisson arrivals at `rate`/s, each a
/// single-attempt `ddot` against one capacity-1 synthetic server whose
/// core is pre-wired with a shared [`AdmissionPolicy`] — the identical
/// struct the simulator runs — so shed rates on both sides come from the
/// same counters.
fn live_run(requests: usize, rate: f64, max_queue: usize, seed: u64) -> LiveRun {
    let net = ChannelNetwork::new();
    let transport: Arc<dyn Transport> = Arc::new(net.clone());
    let agent_core = AgentCore::new(
        AgentConfig { fault: never_blacklist(), ..AgentConfig::default() },
        Policy::MinimumCompletionTime,
        NetworkView::lan_defaults(),
    );
    let mut agent = AgentDaemon::start(Arc::clone(&transport), "agent", agent_core).unwrap();

    let policy = Arc::new(AdmissionPolicy::new(AdmissionConfig::with_max_queue(max_queue)));
    let core = ServerCore::new(
        ProblemRegistry::with_standard_catalogue(),
        ExecutionMode::Synthetic { mflops: MFLOPS },
    )
    .with_admission(Arc::clone(&policy))
    .with_tracer(Arc::new(Tracer::disabled()));
    let mut config = ServerConfig::quick("r11host", "r11srv", MFLOPS);
    // The no-shed baseline backlogs every outstanding request in the
    // gate; give the accept loop room for all of them.
    config.max_connections = (requests as u32 + 64).max(256);
    let mut server = ServerDaemon::start(Arc::clone(&transport), "agent", core, config).unwrap();

    let mut rng = Rng64::new(seed);
    let mut at = 0.0;
    let offsets: Vec<f64> = (0..requests)
        .map(|_| {
            at += rng.exponential(rate);
            at
        })
        .collect();

    let base = Instant::now();
    let handles: Vec<_> = offsets
        .into_iter()
        .map(|off| {
            let transport = Arc::clone(&transport);
            std::thread::spawn(move || {
                let client = NetSolveClient::new(transport, "agent").with_retry(RetryPolicy {
                    max_attempts: 1,
                    attempt_timeout_secs: 120.0,
                    backoff: Backoff::Fixed { delay_secs: 0.0 },
                    deadline_secs: 0.0,
                    report_failures: false,
                });
                let inputs: Vec<DataObject> =
                    vec![vec![0.5f64; N].into(), vec![0.25f64; N].into()];
                let target = Duration::from_secs_f64(off);
                let elapsed = base.elapsed();
                if elapsed < target {
                    std::thread::sleep(target - elapsed);
                }
                let start = Instant::now();
                match client.netsl("ddot", &inputs) {
                    Ok(_) => (Some(start.elapsed().as_secs_f64()), false),
                    Err(NetSolveError::Resource(_)) => (None, true),
                    Err(_) => (None, false),
                }
            })
        })
        .collect();

    let mut ok_latencies = Vec::new();
    let (mut shed_replies, mut other_failures) = (0usize, 0usize);
    for h in handles {
        match h.join().unwrap() {
            (Some(lat), _) => ok_latencies.push(lat),
            (None, true) => shed_replies += 1,
            (None, false) => other_failures += 1,
        }
    }
    let out = LiveRun {
        ok_latencies,
        shed_replies,
        other_failures,
        stats: policy.stats(),
    };
    server.stop();
    agent.stop();
    out
}

/// The simulator's mirror of [`live_run`]: same server speed, queue
/// bound, arrival process, single-attempt budget, and (near-zero)
/// network, with the same policy type making every admit/shed call.
fn sim_scenario(requests: usize, rate: f64, max_queue: usize) -> Scenario {
    let mut sc = Scenario::default_with(vec![SimServer::new(MFLOPS)], requests);
    sc.mix = RequestMix::single("ddot", &[N as u64]);
    sc.arrivals = Arrivals::Poisson { rate };
    sc.max_attempts = 1;
    sc.clients = 64;
    // ChannelNetwork transfers are effectively instantaneous.
    sc.network = SimNetwork::uniform(1e-5, 1e12);
    sc.admission = Some(AdmissionConfig::with_max_queue(max_queue));
    sc.fault = never_blacklist();
    sc
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (requests, rate) = if quick { (60, 100.0) } else { (300, 200.0) };

    // --- Live: no-shed baseline vs depth-bound admission. ---
    let baseline = live_run(requests, rate, 1_000_000, 11);
    assert_eq!(baseline.stats.sheds(), 0, "the infinite queue bound must never shed");
    assert_eq!(baseline.ok_latencies.len(), requests, "baseline serves everything");
    let guarded = live_run(requests, rate, MAX_QUEUE, 11);
    assert!(guarded.stats.sheds() > 0, "4x overload past a depth-{MAX_QUEUE} bound must shed");
    assert_eq!(guarded.other_failures, 0, "only Busy sheds may fail requests");

    let mut b_lat = baseline.ok_latencies.clone();
    let mut g_lat = guarded.ok_latencies.clone();
    let (baseline_p99, guarded_p99) = (p99(&mut b_lat), p99(&mut g_lat));

    // --- Sim: the same scenario through the simulator. ---
    let sim_report = run(&sim_scenario(requests, rate, MAX_QUEUE)).unwrap();
    let sim_stats = *sim_report.admission().expect("admission enabled");
    let sim_p99 = sim_report.turnaround_percentile(99.0);
    let live_rate = guarded.stats.shed_rate();
    let rel_diff = (sim_stats.shed_rate() - live_rate).abs() / live_rate.max(1e-9);

    // --- Scale: 10^5 closed-loop clients through the simulator. ---
    let (scale_clients, scale_requests) =
        if quick { (2_000, 4_000) } else { (100_000, 150_000) };
    let mut scale = Scenario::default_with(vec![SimServer::new(MFLOPS); 32], scale_requests);
    scale.clients = scale_clients;
    scale.arrivals = Arrivals::Closed { think_secs: 1.0 };
    scale.mix = RequestMix::single("ddot", &[N as u64]);
    scale.network = SimNetwork::uniform(1e-5, 1e12);
    scale.admission = Some(AdmissionConfig::with_max_queue(8));
    scale.fault = never_blacklist();
    let scale_start = Instant::now();
    let scale_report = run(&scale).unwrap();
    let scale_wall = scale_start.elapsed().as_secs_f64();
    assert_eq!(scale_report.total(), scale_requests, "every scale request accounted for");

    let mut table = Table::new(
        "R11: admission control, live gate vs simulator (same AdmissionPolicy code)",
        &["variant", "p99", "ok", "shed rate"],
    );
    table.row(vec![
        "live baseline (no shed)".into(),
        format!("{:.3} s", baseline_p99),
        format!("{}", baseline.ok_latencies.len()),
        format!("{:.3}", baseline.stats.shed_rate()),
    ]);
    table.row(vec![
        format!("live admission (q={MAX_QUEUE})"),
        format!("{:.3} s", guarded_p99),
        format!("{}", guarded.ok_latencies.len()),
        format!("{:.3}", live_rate),
    ]);
    table.row(vec![
        format!("sim admission (q={MAX_QUEUE})"),
        format!("{:.3} s", sim_p99),
        format!("{}", sim_report.succeeded()),
        format!("{:.3}", sim_stats.shed_rate()),
    ]);
    table.print();

    println!(
        "\nshed-rate rel diff sim vs live: {:.1}% (target <= 15%)",
        rel_diff * 100.0
    );
    let improvement = baseline_p99 / guarded_p99.max(1e-9);
    println!("admitted p99 improvement over baseline: {improvement:.1}x (target >= 2x)");
    println!(
        "scale: {scale_clients} closed-loop clients, {scale_requests} requests in {scale_wall:.2} s \
         wall ({} succeeded, shed rate {:.3}; target < 60 s)",
        scale_report.succeeded(),
        scale_report.admission().map(|s| s.shed_rate()).unwrap_or(0.0),
    );

    if quick {
        println!("--quick: smoke sizes only, JSON artifact not written");
        return;
    }

    write_report(
        "r11_admission",
        "One capacity-1 synthetic server under 4x Poisson overload, single-attempt ddot clients. \
         The SAME AdmissionPolicy code gates the live solve-slot queue and the simulator's \
         per-server queue; shed rates on both sides are read from the policy's own counters. \
         Baseline = identical gate with an effectively infinite queue bound (same FCFS \
         discipline, zero sheds).",
        &[
            (
                "live",
                json_object(&[
                    ("requests", requests.to_string()),
                    ("arrival_rate_per_sec", rate.to_string()),
                    ("service_ms", format!("{:.1}", 2.0 * N as f64 / (MFLOPS * 1e6) * 1e3)),
                    ("max_queue", MAX_QUEUE.to_string()),
                    ("baseline_p99_secs", format!("{baseline_p99:.6}")),
                    ("admission_p99_secs", format!("{guarded_p99:.6}")),
                    ("p99_improvement", format!("{improvement:.2}")),
                    ("admitted_ok", guarded.ok_latencies.len().to_string()),
                    ("shed_replies", guarded.shed_replies.to_string()),
                    ("decisions", guarded.stats.decisions.to_string()),
                    ("sheds", guarded.stats.sheds().to_string()),
                    ("shed_rate", format!("{live_rate:.6}")),
                ]),
            ),
            (
                "sim",
                json_object(&[
                    ("shed_rate", format!("{:.6}", sim_stats.shed_rate())),
                    ("admitted_p99_secs", format!("{sim_p99:.6}")),
                ]),
            ),
            ("shed_rate_rel_diff", format!("{rel_diff:.4}")),
            ("sim_live_agreement_within_15pct", (rel_diff <= 0.15).to_string()),
            ("admitted_p99_at_least_2x_better", (improvement >= 2.0).to_string()),
            (
                "scale",
                json_object(&[
                    ("clients", scale_clients.to_string()),
                    ("requests", scale_requests.to_string()),
                    ("closed_loop_think_secs", "1.0".into()),
                    ("wall_secs", format!("{scale_wall:.2}")),
                    ("under_60s", (scale_wall < 60.0).to_string()),
                ]),
            ),
        ],
    );
    assert!(rel_diff <= 0.15, "sim/live shed-rate agreement {:.1}% > 15%", rel_diff * 100.0);
    assert!(improvement >= 2.0, "admitted p99 improvement {improvement:.1}x < 2x");
    assert!(scale_wall < 60.0, "scale leg took {scale_wall:.2} s >= 60 s");
}
