//! `ns-server` — run a NetSolve computational server over TCP.
//!
//! ```text
//! ns-server --agent HOST:PORT [--listen HOST:PORT] [--mflops N]
//!           [--host NAME] [--synthetic] [--cache-bytes N]
//!           [--max-queue N] [--pdl FILE]...
//! ```
//!
//! Registers with the agent, then serves requests until killed. The
//! advertised speed `p` is `--mflops N` when given; otherwise it is
//! measured at start-up the way the paper rates a host — the Mflop/s of one
//! dense LU factorisation (n = 256, this server's own `lu_factor`) — and
//! printed in the start-up line.
//! `--synthetic` makes the server *emulate* a machine of the advertised
//! speed (sleep `complexity(n)/mflops`) instead of computing — useful for
//! standing up heterogeneous testbeds on one box. `--cache-bytes N`
//! enables the content-addressed solve cache (S3-FIFO eviction under N
//! bytes, Yang et al., SOSP '23, with in-flight coalescing of identical
//! concurrent requests); hit/miss/
//! eviction counters appear in `netsl-stats` under `server.cache_*`.
//! `--max-queue N` turns on the admission-control gate, shedding at
//! queue depth N (hysteresis resumes at 3N/4). Shed requests get a
//! retryable Busy with a `retry_after_ms` hint; counters land under
//! `server.admission_shed` and `server.queue_deadline_shed`. `--pdl FILE` adds extra problem
//! descriptions (they must name problems the executor implements, or
//! requests for them will fail at execution time).

use std::sync::Arc;
use std::time::Instant;

use netsolve::core::admission::{AdmissionConfig, AdmissionPolicy};
use netsolve::core::{Matrix, Rng64};
use netsolve::net::{TcpTransport, Transport};
use netsolve::pdl::ProblemRegistry;
use netsolve::server::{ExecutionMode, ServerConfig, ServerCore, ServerDaemon};

fn usage() -> ! {
    eprintln!(
        "usage: ns-server --agent HOST:PORT [--listen HOST:PORT] [--mflops N]\n\
         \x20                 [--host NAME] [--synthetic] [--cache-bytes N]\n\
         \x20                 [--max-queue N] [--pdl FILE]..."
    );
    std::process::exit(2);
}

fn main() {
    let mut agent: Option<String> = None;
    let mut listen = "127.0.0.1:0".to_string();
    let mut mflops: Option<f64> = None;
    let mut host = hostname_or("rust-server");
    let mut synthetic = false;
    let mut cache_bytes = 0usize;
    let mut admission: Option<AdmissionConfig> = None;
    let mut pdl_files: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--agent" => agent = Some(args.next().unwrap_or_else(|| usage())),
            "--listen" => listen = args.next().unwrap_or_else(|| usage()),
            "--mflops" => {
                mflops = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--host" => host = args.next().unwrap_or_else(|| usage()),
            "--synthetic" => synthetic = true,
            "--cache-bytes" => {
                cache_bytes = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--max-queue" => {
                let depth = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                admission = Some(AdmissionConfig::with_max_queue(depth));
            }
            "--pdl" => pdl_files.push(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage();
            }
        }
    }
    let Some(agent) = agent else { usage() };
    let (mflops, rating) = match mflops {
        Some(given) => (given, ""),
        None => (linpack_mflops(), " measured"),
    };

    let mut registry = ProblemRegistry::with_standard_catalogue();
    for file in &pdl_files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ns-server: cannot read {file}: {e}");
                std::process::exit(1);
            }
        };
        match registry.register_source(&source) {
            Ok(n) => println!("loaded {n} problems from {file}"),
            Err(e) => {
                eprintln!("ns-server: {file}: {e}");
                std::process::exit(1);
            }
        }
    }

    let mode = if synthetic {
        ExecutionMode::Synthetic { mflops }
    } else {
        ExecutionMode::Real
    };
    let mut core = ServerCore::new(registry, mode);
    if cache_bytes > 0 {
        core = core.with_cache(cache_bytes);
    }
    if let Some(cfg) = &admission {
        core = core.with_admission(Arc::new(AdmissionPolicy::new(cfg.clone())));
    }
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let config = ServerConfig::quick(&host, &listen, mflops);
    let daemon = match ServerDaemon::start(transport, &agent, core, config) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("ns-server: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "ns-server '{host}' ({mflops:.0} Mflop/s{rating}{}{}{}) listening on tcp://{} — registered as id {}",
        if synthetic { ", synthetic" } else { "" },
        if cache_bytes > 0 {
            format!(", cache {cache_bytes}B")
        } else {
            String::new()
        },
        match &admission {
            Some(cfg) => format!(", admission max-queue {}", cfg.max_queue_depth()),
            None => String::new(),
        },
        daemon.address(),
        daemon.server_id()
    );
    println!("(ctrl-c to stop)");
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}

/// The host's LINPACK-style rating in Mflop/s: `(2/3) n^3` flops over the
/// time of one `lu_factor` at n = 256 on a general (pivoting) random matrix.
fn linpack_mflops() -> f64 {
    const N: usize = 256;
    let a = Matrix::random(N, N, &mut Rng64::new(1));
    let start = Instant::now();
    let factors = netsolve::solvers::lu::lu_factor(std::hint::black_box(&a));
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(factors).expect("a random matrix is nonsingular");
    2.0 * (N * N * N) as f64 / 3.0 / secs / 1e6
}

fn hostname_or(default: &str) -> String {
    std::env::var("HOSTNAME").unwrap_or_else(|_| default.to_string())
}
