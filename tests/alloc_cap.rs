//! What reading a frame may ask of the allocator. Regression: a list count
//! read off the wire must not become an allocation before the items behind
//! it arrive. Over a reader `remaining()` counts bytes the frame header
//! merely declares, so a 32-byte frame under a lying 512 MiB length used to
//! pass the count guard and reserve 11.8 GB (`Vec<DataObject>`) or 3.2 GB
//! (`Vec<String>`) — one unauthenticated frame killing a daemon. And the
//! honest side of the same bound: a small frame costs a small window, a
//! large operand costs itself plus the window, never the frame twice — and
//! on the send side, a request framed from borrowed operands costs the
//! chunk buffer, not a copy of them, and a connection's warm writer sends
//! without asking the allocator for anything — nor does the admission
//! policy every gated request passes, nor the GEMM kernel, and a dense solve,
//! a warm tiny call, the agent's side of one, the server's side of each
//! bulk workload and one telemetry sample ask for a pinned number of
//! blocks (and, for the bulk calls and the sample, bytes; for the bulk
//! request, reallocations that move their block: none). This binary
//! has its own `#[global_allocator]`, which is why it is not part of another
//! test file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use netsolve::agent::{standard_descriptor, AgentCore, AgentDaemon, Policy};
use netsolve::client::NetSolveClient;
use netsolve::core::admission::{AdmissionConfig, AdmissionPolicy};
use netsolve::core::{DataObject, Matrix, Rng64, SimTime};
use netsolve::net::{ChannelNetwork, NetworkView};
use netsolve::obs::{Tracer, WindowedSeries, WINDOW_SLOTS};
use netsolve::proto::frame::{HEADER_LEN, MAGIC};
use netsolve::proto::{
    frame_bytes, write_message_streamed, FrameReader, FrameWriter, Message, QueryShape,
    RequestView, DEFAULT_STREAM_CHUNK, DEFAULT_STREAM_THRESHOLD, MAX_FRAME_PAYLOAD, VERSION,
};
use netsolve::server::{ServerConfig, ServerCore, ServerDaemon};
use netsolve::solvers::{blas, execute};
use netsolve::xdr::{crc32, Encoder};

/// Largest single request the allocator has seen since the last reset.
static LARGEST: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Requests this thread has made of the allocator since the last reset.
    static REQUESTS: Cell<usize> = const { Cell::new(0) };
    /// Bytes those requests asked for (a reallocation counts its new size).
    static BYTES: Cell<usize> = const { Cell::new(0) };
    /// Those requests that were reallocations answered at a new address:
    /// the ones that may have copied their block.
    static MOVED: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    LARGEST.fetch_max(size, Ordering::Relaxed);
    let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + size));
}

struct Recording;

// SAFETY: every call is forwarded unchanged to `System`; the only additions
// are a relaxed atomic max and const-initialized thread-local counts, none
// of which allocates.
unsafe impl GlobalAlloc for Recording {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() && moved != ptr {
            let _ = MOVED.try_with(|n| n.set(n.get() + 1));
        }
        moved
    }
}

#[global_allocator]
static ALLOCATOR: Recording = Recording;

/// `LARGEST` is one process-wide record, and tests run side by side: each
/// test holds this for its whole body.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A payload that ends right after a list count sized to pass the
/// `count <= remaining / 4 + 1` guard under a 512 MiB header.
fn payload_ending_in_huge_count(head: impl FnOnce(&mut Encoder<'_>)) -> Vec<u8> {
    let mut e = Encoder::new();
    head(&mut e);
    e.put_u32((MAX_FRAME_PAYLOAD / 4 - 16) as u32);
    e.into_bytes()
}

fn frame(claimed_len: usize, payload: &[u8], with_crc: bool) -> Vec<u8> {
    let mut wire = Vec::new();
    wire.extend_from_slice(&MAGIC.to_be_bytes());
    wire.extend_from_slice(&VERSION.to_be_bytes());
    wire.extend_from_slice(&(claimed_len as u32).to_be_bytes());
    wire.extend_from_slice(payload);
    if with_crc {
        wire.extend_from_slice(&crc32(payload).to_be_bytes());
    }
    wire
}

#[test]
fn a_wire_count_never_sizes_an_allocation() {
    let _serial = serial();
    // RequestSubmit: request_id, deadline_ms, trace_id, parent_span,
    // problem (empty), then the operand count.
    let submit = payload_ending_in_huge_count(|e| {
        e.put_u32(11);
        for word in [7, 0, 0, 0, 0] {
            e.put_u64(word);
        }
        e.put_string("");
    });
    // ProblemCatalogue: just the name count.
    let catalogue = payload_ending_in_huge_count(|e| e.put_u32(7));
    assert_eq!((submit.len() + 12, catalogue.len() + 12), (64, 20));

    let mut cases = Vec::new();
    for (name, payload) in [("RequestSubmit", &submit), ("ProblemCatalogue", &catalogue)] {
        // Lying header: the payload is cut off right after the count.
        let lying = frame(MAX_FRAME_PAYLOAD, payload, false);
        cases.push((
            format!("{name}, lying 512 MiB header"),
            lying,
            false,
            1024 * 1024,
        ));
        // Honest header and CRC: the count is all that lies.
        let honest = frame(payload.len(), payload, true);
        cases.push((format!("{name}, honest header"), honest, false, 1024 * 1024));
    }
    // An honest 100-byte frame on a fresh reader: what a freshly dialled
    // connection pays for a small reply.
    let small = Message::Error {
        code: 3,
        detail: "e".repeat(72),
    };
    let small = frame_bytes(&small).unwrap();
    assert_eq!(small.len(), 100);
    cases.push(("honest 100-byte frame".into(), small, true, 4096));
    // An honest operand 36 windows long, its element count no power of two
    // (doubling would overshoot): the operand and the window, nothing larger.
    let operand = vec![1.25f64; 300_000];
    let bound = operand.len() * 8 + DEFAULT_STREAM_CHUNK;
    let large = Message::RequestSubmit {
        request_id: 1,
        deadline_ms: 0,
        trace_id: 0,
        parent_span: 0,
        problem: "ddot".into(),
        inputs: vec![operand.into()],
    };
    let large = frame_bytes(&large).unwrap();
    cases.push(("honest 2.3 MiB RequestSubmit".into(), large, true, bound));

    for (case, wire, decodes, bound) in cases {
        LARGEST.store(0, Ordering::Relaxed);
        let outcome = FrameReader::default().read_from(&mut &wire[..]);
        let largest = LARGEST.load(Ordering::Relaxed);
        assert_eq!(
            outcome.is_ok(),
            decodes,
            "{case}: {:?}",
            outcome.map(|m| m.name())
        );
        assert!(
            largest <= bound,
            "{case}: a {}-byte frame made the decoder request {largest} bytes at once",
            wire.len()
        );
    }
}

/// The send side: a 2 MiB request streamed from borrowed operands asks for
/// the chunk buffer and nothing larger. Building the owned message first,
/// as a call did before it could lend its operands, copies each 1 MiB
/// operand on every try.
#[test]
fn a_borrowed_request_streams_through_one_chunk() {
    let _serial = serial();
    let inputs: Vec<DataObject> = (0..2).map(|_| vec![0.5f64; 1 << 17].into()).collect();
    let view = RequestView {
        request_id: 1,
        deadline_ms: 0,
        trace_id: 0,
        parent_span: 0,
        problem: "ddot",
        inputs: &inputs,
    };
    LARGEST.store(0, Ordering::Relaxed);
    let written = write_message_streamed(&mut io::sink(), &view, DEFAULT_STREAM_CHUNK).unwrap();
    let borrowed = LARGEST.load(Ordering::Relaxed);
    assert!(written > 2 << 20, "{written}");
    assert!(
        borrowed <= DEFAULT_STREAM_CHUNK,
        "streaming a borrowed request asked for {borrowed} bytes at once"
    );

    LARGEST.store(0, Ordering::Relaxed);
    let owned = view.to_message();
    write_message_streamed(&mut io::sink(), &owned, DEFAULT_STREAM_CHUNK).unwrap();
    let copied = LARGEST.load(Ordering::Relaxed);
    assert!(
        copied >= 1 << 20,
        "the owned route copies each operand: {copied}"
    );
}

/// The send side, warm: a connection's writer that has sent one 2 MiB
/// borrowed request sends the next one, and a small reply, without asking
/// the allocator for anything, and its window stays within its bound (a
/// header, a `DEFAULT_STREAM_THRESHOLD` payload and the CRC): a frame past
/// the bound leaves in read-window pieces and needs no more than one.
#[test]
fn a_warm_writer_sends_without_allocating() {
    let _serial = serial();
    let inputs: Vec<DataObject> = (0..2).map(|_| vec![0.5f64; 1 << 17].into()).collect();
    let view = RequestView {
        request_id: 1,
        deadline_ms: 0,
        trace_id: 0,
        parent_span: 0,
        problem: "ddot",
        inputs: &inputs,
    };
    let reply = Message::RequestReply {
        request_id: 1,
        outputs: vec![DataObject::Double(0.5)],
        compute_secs: 0.0,
        cached: false,
    };
    let mut writer = FrameWriter::default();
    writer.write_to(&mut io::sink(), &view).unwrap();

    REQUESTS.with(|n| n.set(0));
    let written = writer.write_to(&mut io::sink(), &view).unwrap();
    writer.write_to(&mut io::sink(), &reply).unwrap();
    let requests = REQUESTS.with(Cell::get);
    assert!(written > 2 << 20, "{written}");
    assert_eq!(requests, 0, "a warm writer asked the allocator {requests} times");
    let bound = HEADER_LEN + DEFAULT_STREAM_THRESHOLD + 4;
    let window = writer.buffered_capacity();
    assert!(window <= bound, "window {window} over its bound {bound}");
    assert!(window <= DEFAULT_STREAM_CHUNK, "window {window} for 2 MiB frames");
}

/// The admission gate, warm: once a problem has an observed solve, pricing
/// a request of it with a deadline and learning from its solve ask the
/// allocator for nothing.
#[test]
fn a_warm_admission_policy_decides_without_allocating() {
    let _serial = serial();
    let policy = AdmissionPolicy::new(AdmissionConfig::with_max_queue(64));
    for depth in 0..3 {
        policy.observe_service("dgesv", 1e6, 0.001);
        let _ = policy.admit("dgesv", 1e6, depth, Some(1_000));
    }

    REQUESTS.with(|n| n.set(0));
    for depth in 0..100 {
        let _ = policy.admit("dgesv", 1e6, depth % 8, Some(1_000));
    }
    let admits = REQUESTS.with(Cell::get);
    for _ in 0..100 {
        policy.observe_service("dgesv", 1e6, 0.001);
    }
    let observes = REQUESTS.with(Cell::get) - admits;
    assert_eq!((admits, observes), (0, 0), "allocator requests by 100 admits, 100 observes");
    assert_eq!(policy.stats().decisions, 103);
}

/// The GEMM kernel at the LU's trailing-update shape (a 480x480 block of a
/// 512-order matrix, a 32-deep panel read at the packed `L21` stride, 488)
/// asks the allocator for nothing, on whichever instance this CPU runs: a
/// kernel that packs or buffers per call fails here on every host.
#[test]
fn the_gemm_kernel_runs_without_allocating() {
    let _serial = serial();
    let (ldc, lda, m, k) = (512, 488, 480, 32);
    let mut rng = Rng64::new(32);
    let a = Matrix::random(lda, k, &mut rng);
    let b = Matrix::random(k, m, &mut rng);
    let mut c = Matrix::random(ldc, m, &mut rng);

    REQUESTS.with(|n| n.set(0));
    blas::gemm_update(c.as_mut_slice(), ldc, a.as_slice(), lda, b.as_slice(), k, m, m, k, -1.0);
    let requests = REQUESTS.with(Cell::get);
    assert_eq!(requests, 0, "gemm_update 480x480x32 asked the allocator {requests} times");
}

/// A warm `dgesv` at n = 512, `solve_dgesv`'s call, asks the allocator for
/// exactly nine blocks: the factor's copy, its pivots and scratch, the
/// answer and what the executor wraps around them. A solve that allocates
/// per panel, per recursion node or per kernel call moves this count.
#[test]
fn a_dense_solve_makes_a_pinned_number_of_allocations() {
    let _serial = serial();
    let n = 512;
    let mut rng = Rng64::new(33);
    let a = Matrix::random_diag_dominant(n, &mut rng);
    let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
    let args = [DataObject::from(a), DataObject::from(b)];
    execute("dgesv", &args).unwrap();

    REQUESTS.with(|n| n.set(0));
    execute("dgesv", &args).unwrap();
    let requests = REQUESTS.with(Cell::get);
    assert_eq!(requests, 9, "a warm dgesv at n = 512 asked the allocator {requests} times");
}

/// A warm tiny call — `netsl("ddot")` on two 8-element vectors over the
/// in-process transport, the `tiny_call` shape — asks the allocator for
/// exactly 46 blocks on the calling thread: the frames, the trace and
/// request identities, the agent's candidate list, the reply's outputs,
/// the completion report it owes and the spans around them (the last
/// call's report rides its query inside a `report` span; 47 when the
/// report was an exchange of its own); nothing answers the report. The
/// client's instruments are resolved when it is built, so no name is
/// looked up per call. "Warm" is past the client tracer's span window,
/// whose trace map fills until then. The one other source is the std
/// channel under each kept connection, whose sender takes a block every
/// 31 messages: the client sends two per call on the agent connection
/// (the report and the query) and one on the server connection, so any
/// 31 calls add exactly three. The agent's and the server's replies take
/// their blocks on their own threads, not the caller's.
#[test]
fn a_warm_tiny_call_makes_a_pinned_number_of_allocations() {
    let _serial = serial();
    let net = Arc::new(ChannelNetwork::new());
    let policy = Policy::MinimumCompletionTime;
    let core = AgentCore::new(Default::default(), policy, NetworkView::lan_defaults());
    let mut agent = AgentDaemon::start(net.clone(), "agent", core).unwrap();
    let config = ServerConfig::quick("tiny-host", "srv", 100.0);
    let core = ServerCore::with_standard_catalogue();
    let mut server = ServerDaemon::start(net.clone(), "agent", core, config).unwrap();
    let client = NetSolveClient::new(net, "agent");
    let inputs = [DataObject::from(vec![0.5f64; 8]), DataObject::from(vec![2.0f64; 8])];
    for _ in 0..600 {
        client.netsl("ddot", &inputs).unwrap();
    }

    let counts: Vec<usize> = (0..31)
        .map(|_| {
            REQUESTS.with(|n| n.set(0));
            let outputs = client.netsl("ddot", &inputs).unwrap();
            let requests = REQUESTS.with(Cell::get);
            drop(outputs);
            requests
        })
        .collect();
    let (least, total) = (counts.iter().min().copied(), counts.iter().sum::<usize>());
    assert_eq!(least, Some(46), "a warm tiny call's allocator requests: {counts:?}");
    assert_eq!(total, 31 * 46 + 3, "31 warm tiny calls: {counts:?}");
    drop(client);
    server.stop();
    agent.stop();
}

/// The server side of a `cached_mix` call: `dgesv` at n = 192 through a
/// cached core's `handle_message`, each request under its own trace id, as
/// live clients send them. Warm — past the tracer's span window, whose
/// trace map fills until then — a hit asks the allocator for exactly four
/// blocks on the calling thread: the decoded reply, the lookup span's
/// detail and the trace's span buffer; its instruments were resolved
/// when the core was built, and a hit never counts as active. A miss
/// also solves and stores the encoded reply: sixteen systems cycled through
/// a cache that holds eight miss on every call, and each asks for at least
/// 14 blocks; the cycle's total is pinned too, so a block that only some
/// misses take still moves it.
#[test]
fn a_cached_solve_makes_a_pinned_number_of_allocations() {
    let _serial = serial();
    let n = 192;
    let mut rng = Rng64::new(34);
    let a = Matrix::random_diag_dominant(n, &mut rng);
    let systems: Vec<Vec<DataObject>> = (0..16)
        .map(|_| {
            let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            vec![a.clone().into(), b.into()]
        })
        .collect();
    // Room for eight encoded n = 192 replies and their entry overhead.
    let core = ServerCore::with_standard_catalogue().with_cache(8 * (n * 8 + 128));
    let mut trace_id = 0u128;
    let mut call = |inputs: &Vec<DataObject>| {
        trace_id += 1;
        let request = Message::RequestSubmit {
            request_id: trace_id as u64,
            deadline_ms: 0,
            problem: "dgesv".into(),
            inputs: inputs.clone(),
            trace_id,
            parent_span: 1,
        };
        REQUESTS.with(|n| n.set(0));
        let reply = core.handle_message(&request);
        let requests = REQUESTS.with(Cell::get);
        assert!(matches!(reply, Message::RequestReply { .. }), "{}", reply.name());
        requests
    };

    for _ in 0..600 {
        call(&systems[0]);
    }
    let hits: Vec<usize> = (0..31).map(|_| call(&systems[0])).collect();
    assert!(hits.iter().all(|&h| h == 4), "a warm hit's allocator requests: {hits:?}");

    for inputs in systems.iter().cycle().take(64) {
        call(inputs);
    }
    let misses: Vec<usize> = systems.iter().map(&mut call).collect();
    let (least, total) = (misses.iter().min().copied(), misses.iter().sum::<usize>());
    assert_eq!(least, Some(14), "a warm miss's allocator requests: {misses:?}");
    assert_eq!(total, 16 * 14, "16 warm misses: {misses:?}");
    let snap = core.metrics().snapshot("server");
    let count = |name: &str| snap.counter(name);
    assert_eq!((count("server.cache_hits"), count("server.cache_misses")), (631, 80));
}

/// The server's warm path for one request shape, as a connection thread
/// runs it: read the request frame off the wire with the connection's
/// reader, answer it through `ServerCore::handle_message`, and frame the
/// reply with the connection's writer into a reused buffer. Each request
/// carries its own trace id, as live clients send them; the core's tracer
/// keeps 16 spans, so its trace ring is full, and the path warm, after a
/// few calls. Returns the allocator requests and bytes of each of 8 warm
/// calls; `MOVED` is left at the last one's.
fn warm_server_path(problem: &str, inputs: Vec<DataObject>) -> Vec<(usize, usize)> {
    let core = ServerCore::with_standard_catalogue().with_tracer(Arc::new(Tracer::with_capacity(16)));
    let mut request = Message::RequestSubmit {
        request_id: 0,
        deadline_ms: 0,
        problem: problem.into(),
        inputs,
        trace_id: 0,
        parent_span: 1,
    };
    let (mut client, mut reader, mut writer) =
        (FrameWriter::default(), FrameReader::default(), FrameWriter::default());
    let (mut wire, mut out) = (Vec::new(), Vec::new());
    let mut costs: Vec<(usize, usize)> = (1..=40u64)
        .map(|call| {
            if let Message::RequestSubmit { request_id, trace_id, .. } = &mut request {
                (*request_id, *trace_id) = (call, u128::from(call));
            }
            wire.clear();
            client.write_to(&mut wire, &request).unwrap();
            REQUESTS.with(|n| n.set(0));
            BYTES.with(|n| n.set(0));
            MOVED.with(|n| n.set(0));
            let msg = reader.read_from(&mut &wire[..]).unwrap();
            let reply = core.handle_message(&msg);
            out.clear();
            writer.write_to(&mut out, &reply).unwrap();
            let cost = (REQUESTS.with(Cell::get), BYTES.with(Cell::get));
            assert!(matches!(reply, Message::RequestReply { .. }), "{}", reply.name());
            cost
        })
        .collect();
    costs.split_off(costs.len() - 8)
}

/// `bulk_request`'s call on the server: `ddot` of two 131,072-element
/// vectors, a 2 MiB request and an 8-byte answer. Every warm call asks for
/// exactly 16 blocks and 5,111,636 bytes, 2.44 times the operands' 2 MiB:
/// each operand's vector grows as its bytes arrive, because a count off
/// the wire never sizes an allocation up front. That growth is address
/// space, not copies: 10 of the 16 requests are reallocations, and on
/// glibc (2.36) none of the last warm call's returns a new address, so
/// every one extended its block in place and moved no bytes.
#[test]
fn a_bulk_request_makes_a_pinned_number_of_allocations() {
    let _serial = serial();
    let x: Vec<f64> = (0..1 << 17).map(|i| f64::from(i % 7) - 3.0).collect();
    let costs = warm_server_path("ddot", vec![x.clone().into(), x.into()]);
    assert_eq!(costs, [(16, 5_111_636); 8], "ddot 2 x 131072: (requests, bytes) per call");
    let moved = MOVED.with(Cell::get);
    assert_eq!(moved, 0, "the last warm call's reallocations: {moved} moved their block");
}

/// `bulk_reply`'s call on the server: `dgemm` of a 512x2 by a 2x512
/// matrix, a 16 KiB request and a 2 MiB answer. Every warm call asks for
/// exactly 7 blocks and 2,114,317 bytes: the 2 MiB product, the two
/// 8 KiB operands and 781 bytes besides.
#[test]
fn a_bulk_reply_makes_a_pinned_number_of_allocations() {
    let _serial = serial();
    let mut rng = Rng64::new(35);
    let (a, b) = (Matrix::random(512, 2, &mut rng), Matrix::random(2, 512, &mut rng));
    let costs = warm_server_path("dgemm", vec![a.into(), b.into()]);
    assert_eq!(costs, [(7, 2_114_317); 8], "dgemm 512x2 by 2x512: (requests, bytes) per call");
}

/// The agent's side of a warm tiny call, in the order a steady client
/// sends it: the last call's `CompletionReport`, which rides ahead of the
/// query, then the `ServerQuery`, through `AgentCore::handle_message`,
/// each query under its own trace id. Warm — past the tracer's 16-span
/// window — the pair asks the allocator for exactly nine blocks, all of
/// them the query's: the ranking's copies of the request and of each
/// eligible server row, the ranked and candidate lists, the `score` span's
/// detail and the trace's span buffer. The report asks for none, and
/// gets no reply: the query's reply confirms it.
#[test]
fn a_warm_agent_query_and_report_make_a_pinned_number_of_allocations() {
    let _serial = serial();
    let mut agent = AgentCore::with_defaults().with_tracer(Arc::new(Tracer::with_capacity(16)));
    for (address, mflops) in [("srv-a", 100.0), ("srv-b", 80.0)] {
        let desc = standard_descriptor("tiny-host", address, mflops);
        agent.register_server(&desc, SimTime::ZERO).unwrap();
    }
    let mut now = SimTime::ZERO;
    // The report for the previous query's first candidate.
    let mut owed: Option<Message> = None;
    let mut pair = |trace_id: u128| {
        now = now.plus(0.001);
        let query = Message::ServerQuery(QueryShape {
            client_host: 0,
            problem: "ddot".into(),
            n: 8,
            bytes_in: 128,
            bytes_out: 8,
            trace_id,
            parent_span: 1,
        });
        REQUESTS.with(|n| n.set(0));
        if let Some(report) = &owed {
            assert_eq!(agent.handle_message(report, now), None, "a report has no reply");
        }
        let Some(Message::ServerList { candidates }) = agent.handle_message(&query, now) else {
            panic!("the query was not answered with a server list");
        };
        let requests = REQUESTS.with(Cell::get);
        owed = Some(Message::CompletionReport {
            server_id: candidates[0].server_id,
            server_address: candidates[0].address.clone(),
            client_host: 0,
            problem: "ddot".into(),
            total_secs: 0.0002,
            compute_secs: 0.00001,
            bytes: 136,
        });
        requests
    };
    for trace_id in 1..=100 {
        pair(trace_id);
    }
    let counts: Vec<usize> = (101..=131).map(&mut pair).collect();
    assert!(counts.iter().all(|&c| c == 9), "a warm query and report: {counts:?}");
}

/// One telemetry sample of a server: `WindowedSeries::record` of the
/// registry's snapshot, as the daemon's sampler takes it every tick, on a
/// cached, gated core that has served a mix. Every instrument is listed
/// from start-up, so the sample's cost is fixed by the declarations —
/// 19 counters, 3 gauges, 4 histograms — whatever has been recorded:
/// exactly 38 blocks and 4,203 bytes with the window full. They are the
/// snapshot's 26 names, its three lists, each histogram's buckets and
/// exemplars, and the component label.
#[test]
fn a_telemetry_sample_makes_a_pinned_number_of_allocations() {
    let _serial = serial();
    let policy = AdmissionPolicy::new(AdmissionConfig::with_max_queue(4));
    let core = ServerCore::with_standard_catalogue()
        .with_cache(1 << 20)
        .with_admission(Arc::new(policy));
    let ddot = |x: f64| vec![DataObject::from(vec![x, 2.0]), DataObject::from(vec![3.0, 4.0])];
    for (id, problem, inputs) in [
        (1, "ddot", ddot(1.0)),
        (2, "ddot", ddot(1.0)),
        (3, "ddot", ddot(2.0)),
        (4, "no_such_problem", vec![]),
    ] {
        let request = Message::RequestSubmit {
            request_id: id,
            deadline_ms: 0,
            problem: problem.into(),
            inputs,
            trace_id: u128::from(id),
            parent_span: 1,
        };
        core.handle_message(&request);
    }
    let (metrics, series) = (core.metrics(), WindowedSeries::default());
    for tick in 0..=WINDOW_SLOTS {
        series.record(metrics.snapshot("server"), tick as f64);
    }

    REQUESTS.with(|n| n.set(0));
    BYTES.with(|n| n.set(0));
    series.record(metrics.snapshot("server"), 1e3);
    let cost = (REQUESTS.with(Cell::get), BYTES.with(Cell::get));
    assert_eq!(cost, (38, 4_203), "one telemetry sample: (requests, bytes)");
}
