//! Layer probes: each layer's public functions timed directly, on one
//! call of the workload, with no other layer in the way.

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use netsolve_agent::{standard_descriptor, AgentCore};
use netsolve_client::NetSolveClient;
use netsolve_core::problem::RequestShape;
use netsolve_core::SimTime;
use netsolve_net::call;
use netsolve_proto::frame::HEADER_LEN;
use netsolve_proto::{
    encode_frame_into, write_message_streamed, FrameReader, Message, QueryShape,
    DEFAULT_STREAM_CHUNK, DEFAULT_STREAM_THRESHOLD, VERSION,
};
use netsolve_server::{solve_key, ServerCore};
use netsolve_xdr::{encode_objects, from_bytes, to_bytes, Encoder};

use crate::domain::Setup;
use crate::stats::median;
use crate::workload::Case;

/// Probes of calls up to this long take [`SHORT_ITERATIONS`] samples.
const SHORT_CALL: Duration = Duration::from_millis(1);
const SHORT_ITERATIONS: usize = 200;
/// Longer calls are sampled until this much time is spent, but at least
/// [`MIN_ITERATIONS`] times.
const LONG_BUDGET: Duration = Duration::from_millis(500);
const MIN_ITERATIONS: usize = 20;

const MIB: f64 = 1024.0 * 1024.0;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Median microseconds of `run`, which gets a fresh `prepare()` value
/// each time; preparing it, and dropping what `run` returns, is untimed.
fn probe_us<S, T>(mut prepare: impl FnMut() -> S, mut run: impl FnMut(S) -> T) -> f64 {
    let mut sample = || {
        let input = prepare();
        let started = Instant::now();
        let output = black_box(run(black_box(input)));
        let took = started.elapsed();
        drop(output);
        took
    };
    let first = sample(); // also warms caches and lazy state; not kept
    let iterations = if first <= SHORT_CALL {
        SHORT_ITERATIONS
    } else {
        ((LONG_BUDGET.as_secs_f64() / first.as_secs_f64()) as usize)
            .clamp(MIN_ITERATIONS, SHORT_ITERATIONS)
    };
    let mut micros: Vec<f64> = (0..iterations)
        .map(|_| sample().as_secs_f64() * 1e6)
        .collect();
    median(&mut micros)
}

fn probe_plain_us<T>(mut run: impl FnMut() -> T) -> f64 {
    probe_us(|| (), |()| run())
}

/// Write one frame the way a TCP connection does: streamed in chunks
/// above the threshold (into `frame`, standing in for the socket), below
/// it built in a scratch buffer that starts empty, as on the fresh
/// connection each call dials today.
fn encode_frame(msg: &Message, frame: &mut Vec<u8>) {
    if msg.encoded_len(VERSION) as usize > DEFAULT_STREAM_THRESHOLD {
        frame.clear();
        write_message_streamed(frame, msg, DEFAULT_STREAM_CHUNK)
            .expect("frame fits the payload cap");
    } else {
        *frame = Vec::new();
        encode_frame_into(msg, frame).expect("frame fits the payload cap");
    }
}

/// Run every probe for `case` against the live `setup`.
/// Returns `(metric name, value)` pairs.
pub fn run(setup: &Setup, case: &Case) -> Result<Vec<(&'static str, f64)>, String> {
    let mut out = Vec::new();
    let mut put = |name: &'static str, value: f64| out.push((name, value));

    // xdr: the call's operands and results through Encoder / Decoder.
    let objects: Vec<_> = case.inputs.iter().chain(&case.reference).cloned().collect();
    let encoded = to_bytes(&objects);
    let mut buffer = Vec::with_capacity(encoded.len());
    let encode_us = probe_plain_us(|| {
        buffer.clear();
        encode_objects(&mut Encoder::borrowing(&mut buffer), &objects);
        buffer.len()
    });
    let decode_us = probe_plain_us(|| from_bytes(&encoded).expect("round trip"));
    put(
        "xdr.encode_mib_per_s",
        encoded.len() as f64 / MIB / (encode_us / 1e6),
    );
    put(
        "xdr.decode_mib_per_s",
        encoded.len() as f64 / MIB / (decode_us / 1e6),
    );

    // proto: the call's request and reply frames, each way.
    let request = Message::RequestSubmit {
        request_id: 1,
        deadline_ms: 0,
        problem: case.problem.to_string(),
        inputs: case.inputs.clone(),
        trace_id: 0,
        parent_span: 0,
    };
    let reply = Message::RequestReply {
        request_id: 1,
        outputs: case.reference.clone(),
        compute_secs: 0.0,
        cached: false,
    };
    let (mut encode_frame_us, mut read_frame_us, mut wire_bytes) = (0.0, 0.0, 0u64);
    for msg in [&request, &reply] {
        let mut frame = Vec::new();
        encode_frame_us += probe_plain_us(|| encode_frame(msg, &mut frame));
        read_frame_us += probe_plain_us(|| {
            FrameReader::default()
                .read_from(&mut frame.as_slice())
                .expect("frame parses back")
        });
        wire_bytes += HEADER_LEN as u64 + msg.encoded_len(VERSION) + 4;
    }
    put("proto.encode_frame_us", encode_frame_us);
    put("proto.read_frame_us", read_frame_us);
    put("proto.wire_bytes_per_call", wire_bytes as f64);

    // net: a dial and a Ping round trip against the live server.
    let transport = &setup.domain.transport;
    let server_address = setup.domain.servers[0].address().to_string();
    let dial = || transport.connect(&server_address);
    if let Err(e) = dial() {
        return Err(format!("probe dial failed: {e}"));
    }
    put("net.connect_us", probe_plain_us(dial));
    let mut conn = dial().map_err(|e| format!("probe dial failed: {e}"))?;
    put(
        "net.ping_rtt_us",
        probe_plain_us(|| call(conn.as_mut(), &Message::Ping, IO_TIMEOUT)),
    );
    drop(conn);

    // agent: one ranking in process (registry as in the workload), and
    // the same query over TCP.
    let agent = RefCell::new(AgentCore::with_defaults());
    let clock = Instant::now();
    let now = || SimTime::from_secs(clock.elapsed().as_secs_f64());
    let mut registered = Vec::new();
    for i in 0..setup.domain.servers.len() {
        let descriptor =
            standard_descriptor(&format!("probe-host-{i}"), &format!("probe:{i}"), 300.0);
        registered.push(
            agent
                .borrow_mut()
                .register_server(&descriptor, now())
                .map_err(|e| format!("probe registration failed: {e}"))?,
        );
    }
    let client = NetSolveClient::new(Arc::clone(transport), setup.domain.agent.address());
    let spec = client
        .describe(case.problem)
        .map_err(|e| format!("probe describe failed: {e}"))?;
    let shape = RequestShape::from_call(&spec, &case.inputs);
    let query = QueryShape {
        client_host: 0,
        problem: shape.problem,
        n: shape.n,
        bytes_in: shape.bytes_in,
        bytes_out: shape.bytes_out,
        trace_id: 0,
        parent_span: 0,
    };
    // As in a live call, each ranking is followed by its completion
    // report, so the agent's pending-assignment list stays short.
    let complete = || {
        registered
            .iter()
            .for_each(|id| agent.borrow_mut().success_report(*id))
    };
    put(
        "agent.query_us",
        probe_us(complete, |()| agent.borrow_mut().query(&query, now())),
    );
    put(
        "agent.query_rtt_us",
        probe_plain_us(|| client.query_servers(&spec, &case.inputs)),
    );

    // server: the request through a core with no network, a cache key,
    // and a warm and a cold cache around the same request.
    let plain_core = ServerCore::with_standard_catalogue();
    put(
        "server.handle_us",
        probe_plain_us(|| plain_core.handle_message(&request)),
    );
    put(
        "server.cache_key_us",
        probe_plain_us(|| solve_key(case.problem, &case.inputs)),
    );
    let cache_budget = 4 * case.payload_bytes as usize + (1 << 20);
    let cached_core = || ServerCore::with_standard_catalogue().with_cache(cache_budget);
    let warm_core = cached_core();
    warm_core.handle_message(&request);
    put(
        "server.cache_hit_us",
        probe_plain_us(|| warm_core.handle_message(&request)),
    );
    put(
        "server.cache_miss_us",
        probe_us(cached_core, |cold| cold.handle_message(&request)),
    );

    // solvers: the local, single-threaded baseline.
    let execute_us = probe_plain_us(|| netsolve_solvers::execute(case.problem, &case.inputs));
    put("solvers.execute_us", execute_us);
    put("solvers.gflops", case.flops / execute_us / 1e3);
    Ok(out)
}
