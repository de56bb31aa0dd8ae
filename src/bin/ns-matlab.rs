//! `ns-matlab` — run MATLAB-like scripts against a NetSolve domain.
//!
//! ```text
//! ns-matlab --agent HOST:PORT [SCRIPT.m]    # file, or stdin when omitted
//! ns-matlab [SCRIPT.m]                      # local-only (no netsolve())
//! ```

use std::io::Read;
use std::sync::Arc;

use netsolve::client::NetSolveClient;
use netsolve::net::{TcpTransport, Transport};
use netsolve::script::Interpreter;

fn usage() -> ! {
    eprintln!("usage: ns-matlab [--agent HOST:PORT] [SCRIPT.m]");
    std::process::exit(2);
}

fn main() {
    let mut agent: Option<String> = None;
    let mut script_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--agent" => agent = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                if script_path.is_some() {
                    usage();
                }
                script_path = Some(other.to_string());
            }
        }
    }

    let source = match &script_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ns-matlab: cannot read {path}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            let mut s = String::new();
            if std::io::stdin().read_to_string(&mut s).is_err() {
                eprintln!("ns-matlab: failed to read stdin");
                std::process::exit(1);
            }
            s
        }
    };

    let mut interp = match agent {
        Some(addr) => {
            let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
            Interpreter::with_client(Arc::new(NetSolveClient::new(transport, &addr)))
        }
        None => Interpreter::new(),
    };

    match interp.run(&source) {
        Ok(_) => {
            for line in &interp.output {
                println!("{line}");
            }
        }
        Err(e) => {
            for line in &interp.output {
                println!("{line}");
            }
            eprintln!("ns-matlab: {e}");
            // The client's drop delivers the reports it owes; exit skips it.
            drop(interp);
            std::process::exit(1);
        }
    }
}
