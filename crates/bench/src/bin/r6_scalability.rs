//! R6 — Scalability experiment (reconstructs the agent-scalability
//! analysis: the broker must not become the bottleneck).
//!
//! Part A measures the pure ranking cost as the pool grows to 512
//! servers: the median and the spread of `REPEATS` timed batches of each
//! size, taken round by round over the sizes, since one batch reads
//! whatever phase the host is in. Part B drives the simulator with growing client populations
//! and reports sustained throughput and turnaround. Expected shape:
//! ranking stays far below a millisecond per request at hundreds of
//! servers; turnaround grows with offered load, throughput saturates at
//! pool capacity.
//!
//! Run: `cargo run --release -p netsolve-bench --bin r6_scalability`

use std::time::Instant;

use netsolve_agent::{rank, BalancerState, Policy, ServerSnapshot};
use netsolve_bench::{secs, Table};
use netsolve_core::ids::{HostId, ServerId};
use netsolve_core::problem::{Complexity, RequestShape};
use netsolve_net::NetworkView;
use netsolve_sim::{run, Arrivals, RequestMix, Scenario, SimServer};

/// Timed batches of rankings per pool size in part A.
const REPEATS: usize = 7;

fn main() {
    // --- Part A: ranking cost vs pool size. ---
    let mut table = Table::new(
        &format!("R6a: agent ranking cost vs number of registered servers (MCT), {REPEATS} batches"),
        &["servers", "time/ranking (median)", "min..max", "rankings/sec (median)"],
    );
    let shape = RequestShape {
        problem: "dgesv".into(),
        n: 500,
        bytes_in: 2_000_000,
        bytes_out: 4_000,
    };
    let net = NetworkView::lan_defaults();
    let complexity = Complexity::new(0.6667, 3.0).expect("valid");
    const SIZES: [usize; 7] = [1, 4, 16, 64, 128, 256, 512];
    let iterations = 2_000;
    let batch = |count: usize| {
        let pool: Vec<ServerSnapshot> = (0..count as u64)
            .map(|i| ServerSnapshot {
                server_id: ServerId(i + 1),
                host: HostId(i + 1),
                address: format!("s{i}"),
                mflops: 50.0 + (i % 97) as f64 * 3.0,
                workload: (i % 11) as f64 * 15.0,
            })
            .collect();
        let mut st = BalancerState::default();
        let start = Instant::now();
        for _ in 0..iterations {
            let ranked = rank(
                Policy::MinimumCompletionTime,
                &pool,
                &shape,
                complexity,
                &net,
                HostId(9_999),
                &mut st,
            );
            std::hint::black_box(&ranked);
        }
        start.elapsed().as_secs_f64() / iterations as f64
    };
    // Round by round over every size, so a slow spell of the host lands
    // on all sizes alike instead of on one size's batches.
    let mut per = vec![Vec::with_capacity(REPEATS); SIZES.len()];
    for _ in 0..REPEATS {
        for (times, &count) in per.iter_mut().zip(&SIZES) {
            times.push(batch(count));
        }
    }
    for (count, per) in SIZES.iter().zip(&mut per) {
        per.sort_by(f64::total_cmp);
        let median = per[REPEATS / 2];
        table.row(vec![
            count.to_string(),
            secs(median),
            format!("{}..{}", secs(per[0]), secs(per[REPEATS - 1])),
            format!("{:.0}", 1.0 / median),
        ]);
    }
    table.print();

    // --- Part B: end-to-end throughput vs offered load. ---
    let mut table = Table::new(
        "R6b: simulated domain throughput vs offered load (16 x 100 Mflop/s servers)",
        &[
            "clients",
            "arrival rate",
            "completed",
            "makespan",
            "throughput (req/s)",
            "mean turnaround",
        ],
    );
    for &(clients, rate) in &[(1usize, 0.5f64), (4, 2.0), (16, 8.0), (32, 16.0), (64, 32.0), (64, 64.0), (64, 100.0), (64, 130.0)] {
        let servers: Vec<SimServer> = (0..16).map(|_| SimServer::new(100.0)).collect();
        let mut sc = Scenario::default_with(servers, 800);
        sc.clients = clients;
        sc.arrivals = Arrivals::Poisson { rate };
        sc.mix = RequestMix::dgesv(&[200, 300]);
        sc.seed = 6;
        let report = run(&sc).expect("sim runs");
        let makespan = report.makespan_secs();
        table.row(vec![
            clients.to_string(),
            format!("{rate:.1}/s"),
            report.succeeded().to_string(),
            secs(makespan),
            format!("{:.2}", report.succeeded() as f64 / makespan.max(1e-9)),
            secs(report.mean_turnaround_secs()),
        ]);
    }
    table.print();
    println!("\nshape check: ranking stays sub-millisecond through 512 servers, so the");
    println!("agent is not the bottleneck; throughput saturates at pool service capacity.");
}
