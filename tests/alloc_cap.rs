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
//! policy every gated request passes, nor the GEMM kernel, and a dense solve
//! and a warm tiny call each ask for a pinned number of blocks. This binary
//! has its own `#[global_allocator]`, which is why it is not part of another
//! test file.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use netsolve::agent::{AgentCore, AgentDaemon, Policy};
use netsolve::client::NetSolveClient;
use netsolve::core::admission::{AdmissionConfig, AdmissionPolicy};
use netsolve::core::{DataObject, Matrix, Rng64};
use netsolve::net::{ChannelNetwork, NetworkView};
use netsolve::proto::frame::{HEADER_LEN, MAGIC};
use netsolve::proto::{
    frame_bytes_versioned, write_message_streamed, FrameReader, FrameWriter, Message,
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
}

fn record(size: usize) {
    LARGEST.fetch_max(size, Ordering::Relaxed);
    let _ = REQUESTS.try_with(|n| n.set(n.get() + 1));
}

struct Recording;

// SAFETY: every call is forwarded unchanged to `System`; the only additions
// are a relaxed atomic max and a const-initialized thread-local count,
// neither of which allocates.
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
        System.realloc(ptr, layout, new_size)
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

fn frame(version: u32, claimed_len: usize, payload: &[u8], with_crc: bool) -> Vec<u8> {
    let mut wire = Vec::new();
    wire.extend_from_slice(&MAGIC.to_be_bytes());
    wire.extend_from_slice(&version.to_be_bytes());
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
    // v1 RequestSubmit: request_id, problem (empty), then the operand count.
    let submit = payload_ending_in_huge_count(|e| {
        e.put_u32(11);
        e.put_u64(7);
        e.put_string("");
    });
    // ProblemCatalogue: just the name count.
    let catalogue = payload_ending_in_huge_count(|e| e.put_u32(7));
    assert_eq!((submit.len() + 12, catalogue.len() + 12), (32, 20));

    let mut cases = Vec::new();
    for (name, version, payload) in [
        ("RequestSubmit", 1, &submit),
        ("ProblemCatalogue", 6, &catalogue),
    ] {
        // Lying header: the payload is cut off right after the count.
        let lying = frame(version, MAX_FRAME_PAYLOAD, payload, false);
        cases.push((
            format!("{name}, lying 512 MiB header"),
            lying,
            false,
            1024 * 1024,
        ));
        // Honest header and CRC: the count is all that lies.
        let honest = frame(version, payload.len(), payload, true);
        cases.push((format!("{name}, honest header"), honest, false, 1024 * 1024));
    }
    // An honest 100-byte frame on a fresh reader: what a freshly dialled
    // connection pays for a small reply.
    let small = Message::Error {
        code: 3,
        detail: "e".repeat(72),
    };
    let small = frame_bytes_versioned(&small, VERSION).unwrap();
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
    let large = frame_bytes_versioned(&large, VERSION).unwrap();
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
/// exactly 52 blocks on the calling thread: the frames, the trace and
/// request identities, the agent's candidate list, the reply's outputs and
/// the spans and reports around them. "Warm" is past the client tracer's
/// request-id window, whose set and queue grow until then. The one other
/// source is the std channel under each kept connection, which takes a
/// block every 31 messages: the agent connection carries two per call and
/// the server connection one, so any 31 calls add exactly three.
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
    for _ in 0..4200 {
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
    assert_eq!(least, Some(52), "a warm tiny call's allocator requests: {counts:?}");
    assert_eq!(total, 31 * 52 + 3, "31 warm tiny calls: {counts:?}");
    drop(client);
    server.stop();
    agent.stop();
}
