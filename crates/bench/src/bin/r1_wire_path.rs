//! R1-wire — Wire-path experiment: throughput of the frame writer and of
//! both decode routes, 1 KiB to 64 MiB, all in the same run.
//!
//! * **single-pass** — `encode_frame_into` with a reused scratch buffer:
//!   header reserved up front, payload marshaled directly into place with
//!   the CRC folded in during encode (one pass, zero steady-state
//!   allocations);
//! * **borrowed** — `parse_frame`: validate the header in place, CRC-scan
//!   the payload slice, decode borrowed views straight out of it (zero
//!   payload allocations — arrays do a single bulk BE conversion);
//! * **streamed** — `FrameReader` with threshold 0: decode through
//!   bounded chunks, never holding the whole payload (the route large
//!   operands take on a live connection).
//!
//! Before timing, every size asserts that the two writers (single-pass
//! and `write_message_streamed`) produce the reference encoder's bytes,
//! that both decode routes return the original message, and that the
//! streamed route's buffering stays below the frame size. The columns
//! that priced the deleted legacy writer and owned reader against these
//! routes are in the PR 3 and PR 8 artifacts (git history).
//!
//! Run: `cargo run --release -p netsolve-bench --bin r1_wire_path`
//! (writes `results/BENCH_r1_wire.json`); pass `--quick` for a tiny
//! smoke run that skips the JSON artifact.

use std::time::Instant;

use netsolve_bench::Table;
use netsolve_core::units::{fmt_bytes, fmt_rate};
use netsolve_core::DataObject;
use netsolve_proto::{
    encode_frame_into, frame_bytes_versioned, parse_frame, write_message_streamed, FrameReader,
    Message, DEFAULT_STREAM_CHUNK, VERSION,
};

struct Row {
    payload_bytes: u64,
    single_pass_bps: f64,
    decode_bps: f64,
    decode_streamed_bps: f64,
}

/// Per-iteration seconds of `f`, averaged after one warmup call.
fn time_per_iter(repeats: usize, mut f: impl FnMut()) -> f64 {
    f(); // warmup: fault pages in, fill the scratch buffer
    let start = Instant::now();
    for _ in 0..repeats {
        f();
    }
    start.elapsed().as_secs_f64() / repeats as f64
}

fn measure(payload_bytes: usize, repeats: usize) -> Row {
    // One vector of doubles dominates the payload; the surrounding
    // RequestSubmit fields add a fixed few dozen bytes.
    let n = payload_bytes / 8;
    let values: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let msg = Message::RequestSubmit {
        request_id: 1,
        deadline_ms: 0,
        problem: "bench".into(),
        inputs: vec![DataObject::Vector(values)],
        trace_id: 0,
        parent_span: 0,
    };

    let framed = frame_bytes_versioned(&msg, VERSION).expect("bench payload under frame cap");
    let frame_len = framed.len() as f64;

    let mut scratch = Vec::new();
    let single_secs = time_per_iter(repeats, || {
        encode_frame_into(std::hint::black_box(&msg), &mut scratch).unwrap();
        std::hint::black_box(scratch.len());
    });
    assert_eq!(
        scratch, framed,
        "single-pass writer disagrees with the reference encoder"
    );
    let mut streamed_wire = Vec::with_capacity(framed.len());
    write_message_streamed(&mut streamed_wire, &msg, DEFAULT_STREAM_CHUNK).unwrap();
    assert_eq!(
        streamed_wire, framed,
        "streamed writer disagrees with the reference encoder"
    );

    // Decode routes. Both must agree with the original message —
    // checked once outside the timed loops.
    let (borrowed_msg, _) = parse_frame(&framed).unwrap();
    let mut reader = FrameReader::new(0, DEFAULT_STREAM_CHUNK);
    let streamed_msg = reader.read_from(&mut framed.as_slice()).unwrap();
    assert_eq!(borrowed_msg, msg, "borrowed decode route disagrees");
    assert_eq!(streamed_msg, msg, "streamed decode route disagrees");
    // Bounded-memory invariant (meaningful once the frame dwarfs the
    // chunk): the streamed route must never hold the whole payload.
    if framed.len() > 4 * DEFAULT_STREAM_CHUNK {
        assert!(
            reader.buffered_capacity() < framed.len(),
            "streamed route buffered a whole {} frame",
            fmt_bytes(framed.len() as u64)
        );
    }

    let decode_secs = time_per_iter(repeats, || {
        std::hint::black_box(parse_frame(std::hint::black_box(&framed)).unwrap());
    });

    let streamed_secs = time_per_iter(repeats, || {
        std::hint::black_box(
            reader
                .read_from(&mut std::hint::black_box(framed.as_slice()))
                .unwrap(),
        );
    });

    Row {
        payload_bytes: payload_bytes as u64,
        single_pass_bps: frame_len / single_secs,
        decode_bps: frame_len / decode_secs,
        decode_streamed_bps: frame_len / streamed_secs,
    }
}

fn write_json(rows: &[Row], path: &str) {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"r1_wire_path\",\n");
    out.push_str(
        "  \"description\": \"single-pass frame writer and borrowed/streamed decode \
         throughput, bytes/sec over whole frames\",\n",
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"payload_bytes\": {}, \"single_pass_bytes_per_sec\": {:.0}, \
             \"decode_bytes_per_sec\": {:.0}, \"decode_streamed_bytes_per_sec\": {:.0}}}{}\n",
            r.payload_bytes,
            r.single_pass_bps,
            r.decode_bps,
            r.decode_streamed_bps,
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n");
    let dec_bps = rows
        .iter()
        .find(|r| r.payload_bytes == 16 * 1024 * 1024)
        .map_or(f64::NAN, |r| r.decode_bps);
    out.push_str(&format!(
        "  \"decode_bytes_per_sec_at_16mib\": {dec_bps:.0}\n"
    ));
    out.push_str("}\n");
    std::fs::write(path, out).expect("write BENCH_r1_wire.json");
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    // (payload bytes, repeats) — repeats shrink as payloads grow so the
    // full sweep stays in tens of seconds.
    let sweep: &[(usize, usize)] = if quick {
        &[(1 << 10, 50), (1 << 14, 20)]
    } else {
        &[
            (1 << 10, 20_000),
            (1 << 14, 5_000),
            (1 << 18, 1_000),
            (1 << 20, 300),
            (1 << 22, 80),
            (1 << 24, 30),
            (1 << 26, 8),
        ]
    };

    let mut table = Table::new(
        "R1-wire: frame writer + decode-route throughput",
        &["payload", "single-pass", "dec-borrowed", "dec-stream"],
    );
    let mut rows = Vec::new();
    for &(payload, repeats) in sweep {
        let row = measure(payload, repeats);
        table.row(vec![
            fmt_bytes(row.payload_bytes),
            fmt_rate(row.single_pass_bps),
            fmt_rate(row.decode_bps),
            fmt_rate(row.decode_streamed_bps),
        ]);
        rows.push(row);
    }
    table.print();
    // measure() asserted, per size, that both writers match the reference
    // encoder, that both decode routes return the original message and
    // that the streamed route's buffering stays under the frame size;
    // reaching this line means they all held.
    println!("\nwriters match the reference encoder, decode routes agree (borrowed/streamed), streamed buffering bounded");

    if quick {
        println!("--quick: smoke sizes only, JSON artifact not written");
        return;
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/BENCH_r1_wire.json");
    write_json(&rows, path);
    println!("\nwrote {path}");
}
