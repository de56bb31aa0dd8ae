//! Golden wire-format tests: the exact byte layout of the protocol is a
//! compatibility contract (a v1 client must interoperate with a v1 agent
//! built from any commit), so key encodings are pinned here byte-for-byte.
//! If one of these fails, either bump `netsolve::proto::frame::VERSION` or
//! revert the encoding change.

use netsolve::core::DataObject;
use netsolve::proto::{encode_frame_into, Message, QueryShape};
use netsolve::xdr::{crc32, Encoder};

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
        // A sample of each tag without writing 28 constructors: at v1 the
        // shortest body of every message is all zero bytes (empty strings
        // and lists, `false`, 0).
        let sample = (0..32)
            .find_map(|words| {
                let mut payload = tag.to_be_bytes().to_vec();
                payload.resize(4 + 4 * words, 0);
                Message::decode_versioned(&payload, 1).ok()
            })
            .unwrap_or_else(|| panic!("tag {tag} ({name}) has no all-zero v1 body"));
        assert_eq!((sample.tag(), sample.name()), (tag, name));
        assert_eq!(sample.encode()[0..4], tag.to_be_bytes());
    }
}

/// `docs/PROTOCOL.md` §4 against the wire table: the row for every tag
/// names every field of that message, marked `(vN)` when the field joined
/// the wire at version N > 1.
#[test]
fn protocol_doc_names_every_field_of_every_message() {
    let doc = include_str!("../docs/PROTOCOL.md");
    for &(tag, name, fields) in Message::SCHEMA {
        let head = format!("| {tag} | {name} |");
        let row = doc
            .lines()
            .find(|line| line.starts_with(&head))
            .unwrap_or_else(|| panic!("PROTOCOL.md has no row `{head}`"));
        for &(field, since) in fields {
            let cell = if since > 1 { format!(" {field} (v{since})") } else { format!(" {field}") };
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
    use netsolve::core::NetSolveError;
    let cases = [
        (NetSolveError::ProblemNotFound(String::new()), 1),
        (NetSolveError::NoServerAvailable(String::new()), 2),
        (NetSolveError::ServerUnreachable(String::new()), 3),
        (NetSolveError::ExecutionFailed(String::new()), 4),
        (NetSolveError::BadArguments(String::new()), 5),
        (NetSolveError::Numerical(String::new()), 9),
        (NetSolveError::Timeout(String::new()), 11),
    ];
    for (e, code) in cases {
        assert_eq!(e.code(), code, "{} code drifted", e.kind());
    }
}

#[test]
fn v5_gossip_payload_is_unchanged_by_v6_digest_leg() {
    // Regression for the v6 additive legs: a GossipSync encoded at v5
    // must be byte-identical whether or not the in-memory message
    // carries stats digests — v5 peers never see the new leg, so mixed
    // fleets keep interoperating.
    let bare = Message::GossipSync { from_agent: "a1".into(), entries: vec![], digests: vec![] };
    let with_digest = Message::GossipSync {
        from_agent: "a1".into(),
        entries: vec![],
        digests: vec![netsolve::obs::StatsDigest {
            origin: "srv".into(),
            component: "server".into(),
            age_secs: 0.5,
            window_secs: 30.0,
            counters: vec![("server.requests".into(), 4.0)],
            gauges: vec![],
            quantiles: vec![],
        }],
    };
    assert_eq!(bare.encode_versioned(5), with_digest.encode_versioned(5));
    // And decoding the v5 bytes yields the digest-free default.
    let decoded = Message::decode_versioned(&with_digest.encode_versioned(5), 5).unwrap();
    assert_eq!(decoded, bare);
}

#[test]
fn crc32_check_value_is_standard() {
    // Interop anchor: the classic CRC-32 check value.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}
