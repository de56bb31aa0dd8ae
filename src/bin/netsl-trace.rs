//! `netsl-trace` — pull spans from live NetSolve daemons and stitch the
//! distributed timeline of a request.
//!
//! ```text
//! netsl-trace [--trace HEX_ID] [--dump PATH ...] [HOST:PORT ...]
//! ```
//!
//! Dials each address over TCP with a `TraceQuery` (agents and servers
//! answer with their retained spans), reads any `--dump` files written by
//! `ns-client --trace-dump`, groups everything by trace id, and prints
//! each trace as a causally-ordered tree with a critical-path phase
//! breakdown ("82% server/solve, 11% server/queue, ...").
//!
//! `--trace` limits the pull to one trace id (the hex value `ns-client`
//! prints as `trace ...`); without it every retained trace is shown.
//! An `Error` reply is reported as a failed pull.

use std::sync::Arc;
use std::time::Duration;

use netsolve::net::{call_once, TcpTransport, Transport};
use netsolve::obs::{render, stitch, SpanRecord};
use netsolve::proto::Message;

fn usage() -> ! {
    eprintln!(
        "usage: netsl-trace [--trace HEX_ID] [--dump PATH ...] [HOST:PORT ...]\n\
         \n\
         Pulls retained spans from each daemon (TraceQuery), merges them\n\
         with any --dump files written by `ns-client --trace-dump`, and\n\
         prints stitched per-trace timelines with a phase breakdown."
    );
    std::process::exit(2);
}

fn parse_trace_id(s: &str) -> Option<u128> {
    let hex = s.strip_prefix("0x").unwrap_or(s);
    u128::from_str_radix(hex, 16).ok()
}

fn main() {
    let mut trace_id = 0u128; // 0 = every retained trace
    let mut dumps: Vec<String> = Vec::new();
    let mut addresses: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trace" => {
                let raw = args.next().unwrap_or_else(|| usage());
                trace_id = parse_trace_id(&raw).unwrap_or_else(|| {
                    eprintln!("netsl-trace: bad trace id '{raw}' (expected hex)");
                    std::process::exit(2);
                });
            }
            "--dump" => dumps.push(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            _ => addresses.push(a),
        }
    }
    if dumps.is_empty() && addresses.is_empty() {
        usage();
    }

    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let mut records: Vec<SpanRecord> = Vec::new();
    let mut failures = 0usize;

    for path in &dumps {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let before = records.len();
                records.extend(text.lines().filter_map(SpanRecord::from_line));
                eprintln!("{path}: {} span(s)", records.len() - before);
            }
            Err(e) => {
                eprintln!("netsl-trace: {path}: {e}");
                failures += 1;
            }
        }
    }

    for address in &addresses {
        match pull(&transport, address, trace_id) {
            Ok((component, spans)) => {
                eprintln!("{address} [{component}]: {} span(s)", spans.len());
                records.extend(spans);
            }
            Err(e) => {
                eprintln!("netsl-trace: {address}: {e}");
                failures += 1;
            }
        }
    }

    if trace_id != 0 {
        records.retain(|r| r.trace_id == trace_id);
    }
    let timelines = stitch(&records);
    if timelines.is_empty() {
        println!("no spans found");
    }
    for t in &timelines {
        println!("{}", render(t));
    }
    if failures > 0 {
        std::process::exit(1);
    }
}

/// One pull.
fn pull(
    transport: &Arc<dyn Transport>,
    address: &str,
    trace_id: u128,
) -> netsolve::core::Result<(String, Vec<SpanRecord>)> {
    let ask = Message::TraceQuery { trace_id };
    match call_once(transport.as_ref(), address, &ask, Duration::from_secs(5))? {
        Message::TraceReply { component, spans } => Ok((component, spans)),
        Message::Error { code, detail } => Err(netsolve::core::NetSolveError::from_code(code, detail)),
        other => Err(netsolve::core::NetSolveError::Protocol(format!(
            "unexpected reply {}",
            other.name()
        ))),
    }
}
