//! `ns-client` — command-line NetSolve client.
//!
//! ```text
//! ns-client --agent HOST:PORT list
//! ns-client --agent HOST:PORT describe PROBLEM
//! ns-client --agent HOST:PORT demo PROBLEM [N]      # generated inputs
//! ns-client --agent HOST:PORT quad FNAME A B TOL
//! ```
//!
//! `--agent` may be repeated: the client ranks the agents by ping
//! round-trip and fails over to the next one when the current agent
//! refuses, times out, or resets mid-request.
//!
//! `demo` generates a random well-posed instance of size `N` (default 100)
//! for the classic problems and prints where it ran and how long it took.
//!
//! With `--trace-dump PATH`, the client's own phase spans are written to
//! `PATH` (one span per line) on exit; feed that file to `netsl-trace`
//! via `--dump` to stitch the client side into the request timeline.

use std::sync::Arc;

use netsolve::client::NetSolveClient;
use netsolve::core::units::fmt_secs;
use netsolve::core::{DataObject, Matrix, Rng64};
use netsolve::net::{TcpTransport, Transport};

fn usage() -> ! {
    eprintln!(
        "usage: ns-client --agent HOST:PORT [--agent HOST:PORT ...] COMMAND\n\
         commands:\n\
         \x20 list\n\
         \x20 servers\n\
         \x20 describe PROBLEM\n\
         \x20 demo PROBLEM [N]   (dgesv dposv dgels dgetri dgemm fft vsort dnrm2 cg)\n\
         \x20 quad FNAME A B TOL\n\
         options:\n\
         \x20 --agent HOST:PORT  repeatable; extra agents are failover targets\n\
         \x20 --trace-dump PATH  write the client's phase spans to PATH"
    );
    std::process::exit(2);
}

fn main() {
    let mut agents: Vec<String> = Vec::new();
    let mut trace_dump: Option<String> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--agent" => agents.push(args.next().unwrap_or_else(|| usage())),
            "--trace-dump" => trace_dump = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            _ => rest.push(a),
        }
    }
    if agents.is_empty() || rest.is_empty() {
        usage();
    }

    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let client = NetSolveClient::new_multi(transport, &agents);

    let outcome = match rest[0].as_str() {
        "list" => list(&client),
        "servers" => servers(&client),
        "describe" if rest.len() == 2 => describe(&client, &rest[1]),
        "demo" if rest.len() >= 2 => {
            let n = rest
                .get(2)
                .map(|v| v.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(100usize);
            demo(&client, &rest[1], n)
        }
        "quad" if rest.len() == 5 => {
            let a: f64 = rest[2].parse().unwrap_or_else(|_| usage());
            let b: f64 = rest[3].parse().unwrap_or_else(|_| usage());
            let tol: f64 = rest[4].parse().unwrap_or_else(|_| usage());
            run_quad(&client, &rest[1], a, b, tol)
        }
        _ => usage(),
    };
    if let Some(path) = trace_dump {
        let lines: String = client
            .tracer()
            .snapshot_trace(0)
            .iter()
            .map(|r| r.to_line() + "\n")
            .collect();
        if let Err(e) = std::fs::write(&path, lines) {
            eprintln!("ns-client: writing trace dump {path}: {e}");
        }
    }
    // Dropped before any exit: the drop delivers the reports it owes.
    drop(client);
    if let Err(e) = outcome {
        eprintln!("ns-client: {e}");
        std::process::exit(1);
    }
}

fn list(client: &NetSolveClient) -> netsolve::core::Result<()> {
    for name in client.list_problems()? {
        let spec = client.describe(&name)?;
        println!("{name:<12} {}", spec.description);
    }
    Ok(())
}

fn servers(client: &NetSolveClient) -> netsolve::core::Result<()> {
    for s in client.list_servers()? {
        println!(
            "{:<4} {:<16} {:<22} {:>8.1} Mflop/s  workload {:>6.1}  {}  ({} problems)",
            s.server_id,
            s.host,
            s.address,
            s.mflops,
            s.workload,
            if s.down { "DOWN" } else { "up  " },
            s.problems
        );
    }
    Ok(())
}

fn describe(client: &NetSolveClient, problem: &str) -> netsolve::core::Result<()> {
    let spec = client.describe(problem)?;
    println!("{}", netsolve::pdl::render(&spec));
    Ok(())
}

fn demo(client: &NetSolveClient, problem: &str, n: usize) -> netsolve::core::Result<()> {
    let mut rng = Rng64::new(0xC11);
    let inputs: Vec<DataObject> = match problem {
        "dgesv" | "dgels" => vec![
            Matrix::random_diag_dominant(n, &mut rng).into(),
            (0..n).map(|i| (i as f64).sin()).collect::<Vec<f64>>().into(),
        ],
        "dposv" => vec![
            Matrix::random_spd(n, &mut rng).into(),
            vec![1.0; n].into(),
        ],
        "dgetri" => vec![Matrix::random_diag_dominant(n, &mut rng).into()],
        "dgemm" => vec![
            Matrix::random(n, n, &mut rng).into(),
            Matrix::random(n, n, &mut rng).into(),
        ],
        "fft" => {
            let len = n.next_power_of_two();
            vec![
                (0..len).map(|i| (i as f64 * 0.1).cos()).collect::<Vec<f64>>().into(),
                vec![0.0; len].into(),
            ]
        }
        "vsort" => vec![(0..n).map(|_| rng.uniform(-1e3, 1e3)).collect::<Vec<f64>>().into()],
        "dnrm2" => vec![(0..n).map(|_| rng.uniform(-1.0, 1.0)).collect::<Vec<f64>>().into()],
        "cg" => {
            let grid = (n as f64).sqrt().ceil() as usize;
            let lap = netsolve::core::CsrMatrix::laplacian_2d(grid, grid);
            let dim = lap.rows();
            vec![
                lap.into(),
                vec![1.0; dim].into(),
                DataObject::Double(1e-8),
                DataObject::Int(10_000),
            ]
        }
        other => {
            eprintln!("no demo generator for '{other}'");
            std::process::exit(2);
        }
    };
    let (outputs, report) = client.netsl_timed(problem, &inputs)?;
    println!("{problem} (n={n}) solved on {}", report.server_address);
    println!("  predicted {}", fmt_secs(report.predicted_secs));
    println!("  total     {}", fmt_secs(report.total_secs));
    println!("  compute   {}", fmt_secs(report.compute_secs));
    println!("  attempts  {}", report.attempts);
    println!("  outputs   {}", outputs.len());
    println!("  trace     {:032x}", report.trace_id);
    Ok(())
}

fn run_quad(
    client: &NetSolveClient,
    fname: &str,
    a: f64,
    b: f64,
    tol: f64,
) -> netsolve::core::Result<()> {
    let (out, report) = client.netsl_timed(
        "quad",
        &[
            fname.into(),
            DataObject::Double(a),
            DataObject::Double(b),
            DataObject::Double(tol),
        ],
    )?;
    println!(
        "∫ {fname} over [{a}, {b}] = {} ({} evals, {} on {})",
        out[0].as_double()?,
        out[1].as_int()?,
        fmt_secs(report.total_secs),
        report.server_address
    );
    Ok(())
}
