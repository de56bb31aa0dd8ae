//! Golden wire-format tests: the exact byte layout of the protocol is a
//! compatibility contract (a peer built from any commit at the same
//! `VERSION` must read ours, and a frame of any other version is refused
//! at its header), so key encodings are pinned here byte-for-byte. If one
//! of these fails, either bump `netsolve::proto::frame::VERSION` or revert
//! the encoding change.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use netsolve::agent::{standard_descriptor, AgentCore, AgentDaemon};
use netsolve::core::DataObject;
use netsolve::net::{call, TcpTransport, Transport};
use netsolve::proto::frame::MAGIC;
use netsolve::proto::{encode_frame_into, Message, QueryShape, VERSION};
use netsolve::server::{ServerConfig, ServerCore, ServerDaemon};
use netsolve::xdr::{crc32, encode_objects, Encoder};

#[test]
fn ping_frame_is_pinned() {
    let mut bytes = Vec::new();
    encode_frame_into(&Message::Ping, &mut bytes).unwrap();
    // magic "NSRV", version 6 (fleet telemetry: histogram exemplars,
    // gossip digest leg, FleetStatsQuery/Reply), length 4, payload =
    // tag 13, crc
    let mut expect = Vec::new();
    expect.extend_from_slice(&0x4E53_5256u32.to_be_bytes());
    expect.extend_from_slice(&6u32.to_be_bytes());
    expect.extend_from_slice(&4u32.to_be_bytes());
    expect.extend_from_slice(&13u32.to_be_bytes());
    expect.extend_from_slice(&crc32(&13u32.to_be_bytes()).to_be_bytes());
    assert_eq!(bytes, expect);
}

#[test]
fn server_query_payload_is_pinned() {
    let msg = Message::ServerQuery(QueryShape {
        client_host: 7,
        problem: "dgesv".into(),
        n: 512,
        bytes_in: 1000,
        bytes_out: 64,
        trace_id: (11u128 << 64) | 22,
        parent_span: 33,
    });
    let payload = msg.encode();
    let mut expect = Encoder::new();
    expect.put_u32(4); // tag
    expect.put_u64(7);
    expect.put_string("dgesv"); // length 5 + 3 pad
    expect.put_u64(512);
    expect.put_u64(1000);
    expect.put_u64(64);
    // v3 trace context: trace id as two big-endian words, high first,
    // then the parent span id.
    expect.put_u64(11);
    expect.put_u64(22);
    expect.put_u64(33);
    assert_eq!(payload, expect.into_bytes());
}

#[test]
fn xdr_primitives_are_big_endian_and_padded() {
    let mut e = Encoder::new();
    e.put_u32(0x0102_0304);
    e.put_f64(1.0);
    e.put_string("ab");
    let bytes = e.into_bytes();
    assert_eq!(&bytes[0..4], &[1, 2, 3, 4]);
    // IEEE-754 1.0 big-endian
    assert_eq!(&bytes[4..12], &[0x3F, 0xF0, 0, 0, 0, 0, 0, 0]);
    // string: length 2, 'a', 'b', two zero pad bytes
    assert_eq!(&bytes[12..20], &[0, 0, 0, 2, b'a', b'b', 0, 0]);
}

#[test]
fn data_object_tags_are_pinned() {
    // tag values are wire contract: int=0 double=1 vector=2 matrix=3
    // sparse=4 text=5
    for (obj, tag) in [
        (DataObject::Int(0), 0u32),
        (DataObject::Double(0.0), 1),
        (DataObject::Vector(vec![]), 2),
        (DataObject::Matrix(netsolve::core::Matrix::zeros(0, 0)), 3),
        (
            DataObject::Sparse(netsolve::core::CsrMatrix::identity(0)),
            4,
        ),
        (DataObject::Text(String::new()), 5),
    ] {
        let bytes = netsolve::xdr::to_bytes(std::slice::from_ref(&obj));
        // layout: count (u32), tag (u32), ...
        let got = u32::from_be_bytes(bytes[4..8].try_into().unwrap());
        assert_eq!(got, tag, "tag drifted for {obj:?}");
    }
}

/// Every tag and its name, whole: compared against the wire table's
/// `Message::SCHEMA`, so a renumbered, renamed, added or dropped message
/// fails here.
const TAGS: [(u32, &str); 28] = [
    (1, "RegisterServer"),
    (2, "RegisterAck"),
    (3, "WorkloadReport"),
    (4, "ServerQuery"),
    (5, "ServerList"),
    (6, "ListProblems"),
    (7, "ProblemCatalogue"),
    (8, "DescribeProblem"),
    (9, "ProblemDescription"),
    (10, "FailureReport"),
    (11, "RequestSubmit"),
    (12, "RequestReply"),
    (13, "Ping"),
    (14, "Pong"),
    (15, "Error"),
    (16, "CompletionReport"),
    (17, "ServerQueryForwarded"),
    (18, "DescribeProblemForwarded"),
    (19, "ListServers"),
    (20, "ServerInfoList"),
    (21, "StatsQuery"),
    (22, "StatsReply"),
    (23, "TraceQuery"),
    (24, "TraceReply"),
    (25, "GossipSync"),
    (26, "GossipAck"),
    (27, "FleetStatsQuery"),
    (28, "FleetStatsReply"),
];

#[test]
fn message_tags_are_pinned() {
    let schema: Vec<(u32, &str)> = Message::SCHEMA.iter().map(|&(tag, name, _)| (tag, name)).collect();
    assert_eq!(schema, TAGS);
    assert!(TAGS.iter().map(|&(tag, _)| tag).eq(1..=28), "tags are unique");
    for (tag, name) in TAGS {
        // A sample of each tag without writing 28 constructors: the
        // shortest body of every message is all zero bytes (empty strings
        // and lists, `false`, 0).
        let sample = (0..32)
            .find_map(|words| {
                let mut payload = tag.to_be_bytes().to_vec();
                payload.resize(4 + 4 * words, 0);
                Message::decode(&payload).ok()
            })
            .unwrap_or_else(|| panic!("tag {tag} ({name}) has no all-zero body"));
        assert_eq!((sample.tag(), sample.name()), (tag, name));
        assert_eq!(sample.encode()[0..4], tag.to_be_bytes());
    }
}

/// `docs/PROTOCOL.md` §4 against the wire table: the row for every tag
/// names every field of that message.
#[test]
fn protocol_doc_names_every_field_of_every_message() {
    let doc = include_str!("../docs/PROTOCOL.md");
    for &(tag, name, fields) in Message::SCHEMA {
        let head = format!("| {tag} | {name} |");
        let row = doc
            .lines()
            .find(|line| line.starts_with(&head))
            .unwrap_or_else(|| panic!("PROTOCOL.md has no row `{head}`"));
        for &field in fields {
            let cell = format!(" {field}");
            let named = row.match_indices(&cell).any(|(at, _)| {
                // `problem` must not be satisfied by `problems`.
                !row[at + cell.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
            });
            assert!(named, "PROTOCOL.md row for tag {tag} ({name}) lacks `{}`", cell.trim());
        }
    }
}

#[test]
fn error_codes_are_pinned() {
    use netsolve::core::{ErrorClass, NetSolveError as E};
    let class_name = |e: &E| match e.class() {
        ErrorClass::Link => "link",
        ErrorClass::Fault => "fault",
        ErrorClass::Load { .. } => "load",
        ErrorClass::Request => "request",
    };
    let s = String::new;
    let variants = [
        (E::ProblemNotFound(s()), 1, "request"),
        (E::NoServerAvailable(s()), 2, "load"),
        (E::ServerUnreachable(s()), 3, "link"),
        (E::ExecutionFailed(s()), 4, "fault"),
        (E::BadArguments(s()), 5, "request"),
        (E::Protocol(s()), 6, "request"),
        (E::Transport(s()), 7, "link"),
        (E::Registration(s()), 8, "request"),
        (E::Numerical(s()), 9, "request"),
        (E::Description(s()), 10, "request"),
        (E::Timeout(s()), 11, "link"),
        (E::Resource(s()), 13, "load"),
        (E::Internal(s()), 14, "request"),
        (E::Corrupt(s()), 15, "link"),
    ];
    // docs/PROTOCOL.md's error-code table: one row per code, each naming
    // the class the code decodes to.
    let doc = include_str!("../docs/PROTOCOL.md");
    let table = &doc[doc.find("### Error codes").expect("PROTOCOL.md error-code section")..];
    let rows: Vec<(u32, &str)> = table
        .lines()
        .take_while(|l| !l.starts_with("Unknown codes"))
        .filter_map(|l| {
            let cells: Vec<&str> = l.split('|').map(str::trim).collect();
            Some((cells.get(1)?.parse().ok()?, *cells.get(3)?))
        })
        .collect();
    for (e, code, class) in &variants {
        assert_eq!((e.code(), class_name(e)), (*code, *class), "{} drifted", e.kind());
        assert_eq!(E::from_code(*code, s()), *e, "code {code} does not round-trip");
        assert!(rows.iter().any(|(c, _)| c == code), "PROTOCOL.md has no row for code {code}");
    }
    for (code, class) in &rows {
        let e = E::from_code(*code, s());
        assert_eq!(class_name(&e), *class, "PROTOCOL.md row for code {code}");
    }
    // Code 12 is retired: it decodes as internal and is never reused.
    assert_eq!(rows.len(), variants.len() + 1);
    assert_eq!(E::from_code(12, s()), E::Internal(s()));
}

#[test]
fn crc32_check_value_is_standard() {
    // Interop anchor: the classic CRC-32 check value.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

/// A frame of `version` around `payload`, header and CRC honest.
fn raw_frame(version: u32, payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    for word in [MAGIC, version, payload.len() as u32] {
        wire.extend_from_slice(&word.to_be_bytes());
    }
    wire.extend_from_slice(payload);
    wire.extend_from_slice(&crc32(payload).to_be_bytes());
    wire
}

/// A `ddot` request laid out as a `version` peer lays it out: the
/// deadline joined at v2, the trace context at v3 (v7 is taken to be v6).
fn ddot_request(version: u32) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u32(11);
    e.put_u64(version.into()); // request id
    if version >= 2 {
        e.put_u64(0); // deadline_ms
    }
    if version >= 3 {
        for word in [0, 0, 0] {
            e.put_u64(word); // trace_id (two words), parent_span
        }
    }
    e.put_string("ddot");
    encode_objects(&mut e, &[vec![1.0, 2.0].into(), vec![3.0, 4.0].into()]);
    e.into_bytes()
}

/// What a live daemon sends back for `frame`: nothing, if it closes the
/// connection unanswered (a reset counts: it closed with the payload
/// unread).
fn reply_bytes(address: &str, frame: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(address).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    stream.write_all(frame).unwrap();
    let mut reply = Vec::new();
    match stream.read_to_end(&mut reply) {
        Err(e) if e.kind() != ErrorKind::ConnectionReset && reply.is_empty() => {
            panic!("the daemon at {address} neither replied nor closed: {e}")
        }
        _ => reply,
    }
}

/// A frame of any version but `VERSION` gets no reply from a live TCP
/// daemon: the connection closes, and the request behind it is neither
/// solved nor registered. The layouts of v1–v5 are hand-built, since the
/// codec no longer writes them.
#[test]
fn live_daemons_refuse_frames_of_other_versions_unanswered() {
    let transport: Arc<dyn Transport> = Arc::new(TcpTransport::new());
    let mut agent =
        AgentDaemon::start(Arc::clone(&transport), "127.0.0.1:0", AgentCore::with_defaults())
            .unwrap();
    let mut server = ServerDaemon::start(
        Arc::clone(&transport),
        agent.address(),
        ServerCore::with_standard_catalogue(),
        ServerConfig::quick("live-host", "127.0.0.1:0", 100.0),
    )
    .unwrap();

    for version in [1, 2, 3, 4, 5, VERSION + 1] {
        let solve = raw_frame(version, &ddot_request(version));
        let reply = reply_bytes(server.address(), &solve);
        assert!(reply.is_empty(), "a v{version} request got a {}-byte reply", reply.len());

        let address = format!("127.0.0.1:{}", 60_000 + version);
        let register = Message::RegisterServer(standard_descriptor("old-host", &address, 50.0));
        let reply = reply_bytes(agent.address(), &raw_frame(version, &register.encode()));
        assert!(reply.is_empty(), "a v{version} registration got a {}-byte reply", reply.len());
    }
    assert_eq!(server.requests_served(), 0, "a refused request was solved");

    let mut conn = transport.connect(agent.address()).unwrap();
    match call(conn.as_mut(), &Message::ListServers, Duration::from_secs(5)).unwrap() {
        Message::ServerInfoList { servers } => {
            let listed: Vec<&str> = servers.iter().map(|s| s.address.as_str()).collect();
            assert_eq!(listed, [server.address()], "only the live server is registered");
        }
        other => panic!("unexpected {other:?}"),
    }
    server.stop();
    agent.stop();
}
