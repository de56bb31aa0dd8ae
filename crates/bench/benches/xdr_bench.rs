//! Criterion micro-benchmarks for the hand-written XDR layer (feeds R8):
//! object encode/decode and full frame+CRC round trips across sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use netsolve_core::{DataObject, Matrix, Rng64};
use netsolve_proto::{encode_frame_into, parse_frame, FrameWriter, Message};
use netsolve_xdr as xdr;

fn bench_vector_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("xdr_vector");
    let mut rng = Rng64::new(1);
    for &len in &[256usize, 16_384, 262_144] {
        let v: Vec<f64> = (0..len).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let obj = [DataObject::Vector(v)];
        let bytes = xdr::to_bytes(&obj);
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new("encode", len), &obj, |b, obj| {
            b.iter(|| xdr::to_bytes(std::hint::black_box(obj)))
        });
        group.bench_with_input(BenchmarkId::new("decode", len), &bytes, |b, bytes| {
            b.iter(|| xdr::from_bytes(std::hint::black_box(bytes)).unwrap())
        });
    }
    group.finish();
}

fn bench_matrix_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("xdr_matrix");
    let mut rng = Rng64::new(2);
    for &n in &[32usize, 256] {
        let m = Matrix::random(n, n, &mut rng);
        let obj = [DataObject::Matrix(m)];
        let bytes = xdr::to_bytes(&obj);
        group.throughput(Throughput::Bytes(bytes.len() as u64));
        group.bench_with_input(BenchmarkId::new("encode", n), &obj, |b, obj| {
            b.iter(|| xdr::to_bytes(std::hint::black_box(obj)))
        });
        group.bench_with_input(BenchmarkId::new("decode", n), &bytes, |b, bytes| {
            b.iter(|| xdr::from_bytes(std::hint::black_box(bytes)).unwrap())
        });
    }
    group.finish();
}

fn bench_frame_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame");
    let mut rng = Rng64::new(3);
    let m = Matrix::random(128, 128, &mut rng);
    let msg = Message::RequestSubmit {
        request_id: 1,
        deadline_ms: 0,
        problem: "dgemm".into(),
        inputs: vec![m.clone().into(), m.into()],
        trace_id: 0,
        parent_span: 0,
    };
    let mut framed = Vec::new();
    encode_frame_into(&msg, &mut framed).expect("bench payload under frame cap");
    // A connection's warm writer sending `cached_mix`'s request (dgesv
    // n = 192, ~290 KiB: one write) and `bulk_request`'s (ddot of two
    // 1 MiB vectors: written out in 64 KiB pieces).
    let matrix = Matrix::random(192, 192, &mut rng);
    let rhs: Vec<f64> = (0..192).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let vector = |rng: &mut Rng64| -> Vec<f64> {
        (0..1 << 17).map(|_| rng.uniform(-1.0, 1.0)).collect()
    };
    let requests = [
        ("dgesv", vec![matrix.into(), rhs.into()]),
        ("ddot", vec![vector(&mut rng).into(), vector(&mut rng).into()]),
    ];
    for (problem, inputs) in requests {
        let request = Message::RequestSubmit {
            request_id: 1,
            deadline_ms: 0,
            problem: problem.into(),
            inputs,
            trace_id: 0,
            parent_span: 0,
        };
        let mut writer = FrameWriter::default();
        let len = writer.write_to(&mut std::io::sink(), &request).unwrap();
        group.throughput(Throughput::Bytes(len));
        group.bench_function(format!("frame_write_{problem}_{}KiB", len >> 10), |b| {
            b.iter(|| {
                let request = std::hint::black_box(&request);
                writer.write_to(&mut std::io::sink(), request).unwrap()
            })
        });
    }
    group.throughput(Throughput::Bytes(framed.len() as u64));
    group.bench_function("frame_decode_128x128_pair", |b| {
        b.iter(|| parse_frame(std::hint::black_box(&framed)).unwrap())
    });
    group.finish();
}

fn bench_crc(c: &mut Criterion) {
    let mut group = c.benchmark_group("crc32");
    // A 2 MiB frame's scale and a small control frame's: the folding
    // kernel's bulk rate, and what its set-up leaves of it at 128 bytes.
    for (name, len) in [("crc32_1MiB", 1 << 20), ("crc32_128B", 128)] {
        let data = vec![0xA5u8; len];
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(name, |b| b.iter(|| netsolve_xdr::crc32(std::hint::black_box(&data))));
    }
    group.finish();
}

fn bench_solve_key(c: &mut Criterion) {
    let mut group = c.benchmark_group("solve_key");
    // `cached_mix`'s request and `solve_dgesv`'s: the key every cached
    // request pays before its probe, per byte of its encoded operands.
    let mut rng = Rng64::new(4);
    for n in [192usize, 512] {
        let inputs = [
            DataObject::Matrix(Matrix::random(n, n, &mut rng)),
            DataObject::Vector((0..n).map(|_| rng.uniform(-1.0, 1.0)).collect()),
        ];
        group.throughput(Throughput::Bytes(xdr::to_bytes(&inputs).len() as u64));
        group.bench_with_input(BenchmarkId::new("dgesv", n), &inputs, |b, inputs| {
            b.iter(|| netsolve_server::solve_key("dgesv", std::hint::black_box(inputs)))
        });
    }
    group.finish();
}

fn bench_byte_order(c: &mut Criterion) {
    let mut group = c.benchmark_group("be64");
    // A 1 MiB array each way through the in-memory routes: the one
    // byte-order pass a bulk operand costs on each side of the wire.
    let xs: Vec<f64> = (0..1 << 17).map(|i| i as f64 * 0.37).collect();
    let mut bytes = Vec::new();
    netsolve_xdr::Encoder::borrowing(&mut bytes).put_f64_array(&xs);
    group.throughput(Throughput::Bytes(8 * xs.len() as u64));
    group.bench_function("be64_encode_1MiB", |b| {
        let mut scratch = Vec::with_capacity(bytes.len());
        b.iter(|| {
            scratch.clear();
            netsolve_xdr::Encoder::borrowing(&mut scratch).put_f64_array(std::hint::black_box(&xs));
            std::hint::black_box(scratch.len())
        })
    });
    group.bench_function("be64_decode_1MiB", |b| {
        b.iter(|| netsolve_xdr::Decoder::new(std::hint::black_box(&bytes)).get_f64_array().unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_vector_roundtrip,
    bench_matrix_roundtrip,
    bench_frame_path,
    bench_crc,
    bench_solve_key,
    bench_byte_order
);
criterion_main!(benches);
