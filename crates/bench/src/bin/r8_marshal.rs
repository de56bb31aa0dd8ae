//! R8 — Marshaling-cost experiment (the handcrafted-XDR tax the
//! reproduction band calls out).
//!
//! Measures encode and decode throughput of the hand-written XDR layer
//! for vectors, dense matrices and sparse matrices from 1 KB to 32 MB,
//! plus the frame/CRC overhead. Expected shape: throughput rises with
//! payload size (fixed costs amortize) and is orders of magnitude above
//! 1996 network bandwidth, so marshaling never dominated a NetSolve call.
//!
//! Run: `cargo run --release -p netsolve-bench --bin r8_marshal`

use std::time::Instant;

use netsolve_bench::Table;
use netsolve_core::units::{fmt_bytes, fmt_rate};
use netsolve_core::{CsrMatrix, DataObject, Matrix, Rng64};
use netsolve_proto::{encode_frame_into, parse_frame, Message};
use netsolve_xdr as xdr;

fn time_marshal(obj: &DataObject, repeats: usize) -> (u64, f64, f64, f64) {
    let objs = std::slice::from_ref(obj);
    let bytes = xdr::to_bytes(objs);
    let size = bytes.len() as u64;

    let start = Instant::now();
    for _ in 0..repeats {
        std::hint::black_box(xdr::to_bytes(objs));
    }
    let enc = start.elapsed().as_secs_f64() / repeats as f64;

    let start = Instant::now();
    for _ in 0..repeats {
        std::hint::black_box(xdr::from_bytes(&bytes).expect("roundtrip"));
    }
    let dec = start.elapsed().as_secs_f64() / repeats as f64;

    // Full frame path (adds CRC + header) through the protocol layer.
    let msg = Message::RequestSubmit {
        request_id: 1,
        deadline_ms: 0,
        problem: "bench".into(),
        inputs: objs.to_vec(),
        trace_id: 0,
        parent_span: 0,
    };
    let mut framed = Vec::new();
    encode_frame_into(&msg, &mut framed).expect("bench payload under frame cap");
    let start = Instant::now();
    for _ in 0..repeats {
        std::hint::black_box(parse_frame(&framed).expect("frame ok"));
    }
    let frame_dec = start.elapsed().as_secs_f64() / repeats as f64;

    (size, enc, dec, frame_dec)
}

fn main() {
    let mut rng = Rng64::new(8);
    let mut table = Table::new(
        "R8: hand-written XDR marshal/unmarshal throughput by object and size",
        &["object", "wire size", "encode", "decode", "frame+crc decode"],
    );

    for &len in &[128usize, 4_096, 131_072, 4_194_304] {
        let v: Vec<f64> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let repeats = (64_000_000 / (len * 8)).clamp(3, 2_000);
        let (size, enc, dec, frame_dec) = time_marshal(&DataObject::Vector(v), repeats);
        table.row(vec![
            format!("vector[{len}]"),
            fmt_bytes(size),
            fmt_rate(size as f64 / enc),
            fmt_rate(size as f64 / dec),
            fmt_rate(size as f64 / frame_dec),
        ]);
    }
    for &n in &[16usize, 128, 512, 1024] {
        let m = Matrix::random(n, n, &mut rng);
        let repeats = (64_000_000 / (n * n * 8)).clamp(3, 2_000);
        let (size, enc, dec, frame_dec) = time_marshal(&DataObject::Matrix(m), repeats);
        table.row(vec![
            format!("matrix {n}x{n}"),
            fmt_bytes(size),
            fmt_rate(size as f64 / enc),
            fmt_rate(size as f64 / dec),
            fmt_rate(size as f64 / frame_dec),
        ]);
    }
    for &grid in &[10usize, 40, 120] {
        let s = CsrMatrix::laplacian_2d(grid, grid);
        let nnz = s.nnz();
        let (size, enc, dec, frame_dec) = time_marshal(&DataObject::Sparse(s), 20);
        table.row(vec![
            format!("sparse {0}x{0} grid ({nnz} nnz)", grid),
            fmt_bytes(size),
            fmt_rate(size as f64 / enc),
            fmt_rate(size as f64 / dec),
            fmt_rate(size as f64 / frame_dec),
        ]);
    }
    table.print();

    println!("\nshape check: throughput grows with payload and sits far above the");
    println!("1.25 MB/s Ethernet and 17 MB/s ATM links of the paper's era, so");
    println!("marshaling cost never dominates a NetSolve call's network time.");
}
