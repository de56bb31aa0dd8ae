//! The NetSolve protocol messages.
//!
//! Three conversations happen in a NetSolve domain, all speaking this one
//! message enum over XDR marshaling:
//!
//! * **server ↔ agent** — registration, periodic workload reports;
//! * **client ↔ agent** — "who can solve `dgesv` for a problem this size?"
//!   answered with a ranked candidate list, plus failure reports feeding
//!   the agent's fault tracker;
//! * **client ↔ server** — the actual request: problem name and marshaled
//!   input objects, answered with output objects or an error code.

use netsolve_core::data::DataObject;
use netsolve_core::error::{NetSolveError, Result};
use netsolve_obs::{DigestQuantiles, HistogramSnapshot, SpanRecord, StatsDigest, StatsSnapshot};
use netsolve_xdr::{Decoder, Encoder};

use crate::wire::{wire_messages, wire_records};

/// Description of one computational server, sent at registration and
/// embedded in agent replies.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerDescriptor {
    /// Agent-assigned (or self-assigned) server identifier.
    pub server_id: u64,
    /// Human-readable host name.
    pub host: String,
    /// Transport address clients connect to (e.g. `127.0.0.1:9021` for TCP
    /// or a channel-registry key for the in-process transport).
    pub address: String,
    /// Benchmarked performance in Mflop/s (NetSolve used LINPACK Kflops).
    pub mflops: f64,
    /// Problem mnemonics this server solves.
    pub problems: Vec<String>,
    /// Rendered PDL source of the server's catalogue, so the agent learns
    /// each problem's signature and complexity model.
    pub pdl_source: String,
}

/// One ranked candidate in an agent's reply to a server query.
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// Which server.
    pub server_id: u64,
    /// Its connect address.
    pub address: String,
    /// The agent's predicted completion time in seconds (transfer +
    /// compute), the quantity the ranking minimizes.
    pub predicted_secs: f64,
}

/// Status of one server as the agent sees it (for `ListServers`).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerInfo {
    /// Server identity.
    pub server_id: u64,
    /// Host name.
    pub host: String,
    /// Connect address.
    pub address: String,
    /// Benchmarked Mflop/s.
    pub mflops: f64,
    /// Effective workload the balancer currently assumes (includes
    /// pending-assignment load and staleness fallback).
    pub workload: f64,
    /// Whether the fault tracker currently excludes it.
    pub down: bool,
    /// Number of problems it advertises.
    pub problems: u32,
}

/// A client's description of the request it wants placed — everything the
/// agent's predictor needs, nothing more (the data itself goes straight to
/// the chosen server, never through the agent).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryShape {
    /// The client's host identifier, for per-pair network predictions.
    pub client_host: u64,
    /// Problem mnemonic.
    pub problem: String,
    /// Dominant dimension for the complexity formula.
    pub n: u64,
    /// Input payload bytes.
    pub bytes_in: u64,
    /// Estimated output payload bytes.
    pub bytes_out: u64,
    /// Trace identity of the call this query ranks for (0 = untraced).
    /// Additive in protocol version 3; older peers never see it.
    pub trace_id: u128,
    /// Client-side parent span id the agent's `score` span nests under
    /// (0 = none). Additive in protocol version 3.
    pub parent_span: u64,
}

/// One server registration as carried by agent-to-agent gossip: the full
/// descriptor a server registered with, plus where it registered and how
/// stale the entry already was when the gossiping agent sent it. Receivers
/// subtract `age_secs` from their own clock to keep a freshness timestamp
/// that is comparable across agents without any clock synchronisation.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipEntry {
    /// Address of the agent the server originally registered with.
    pub origin_agent: String,
    /// Server host name.
    pub host: String,
    /// Address clients dial to reach the server.
    pub address: String,
    /// Benchmarked performance in Mflop/s.
    pub mflops: f64,
    /// Problem mnemonics the server advertises.
    pub problems: Vec<String>,
    /// Rendered PDL of the server's catalogue.
    pub pdl_source: String,
    /// Last workload percentage the origin agent knew.
    pub workload: f64,
    /// Seconds since the origin agent last heard from this server, as of
    /// the moment the gossiping agent encoded this entry.
    pub age_secs: f64,
}

/// Every message in the NetSolve protocol.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// server → agent: join the domain.
    RegisterServer(ServerDescriptor),
    /// agent → server: registration outcome.
    RegisterAck {
        /// Whether the registration was accepted.
        accepted: bool,
        /// Reason when rejected, empty otherwise.
        detail: String,
    },
    /// server → agent: periodic workload report (percent busy, 0–100+).
    WorkloadReport {
        /// Reporting server.
        server_id: u64,
        /// Current workload percentage.
        workload: f64,
    },
    /// client → agent: which servers can run this request? (ranked)
    ServerQuery(QueryShape),
    /// agent → peer agent: the same question, forwarded across the
    /// federation. Peers answer from local state only (never re-forward),
    /// which bounds query fan-out and rules out forwarding loops.
    ServerQueryForwarded(QueryShape),
    /// agent → client: ranked candidates, best first.
    ServerList {
        /// Candidates ordered by predicted completion time.
        candidates: Vec<Candidate>,
    },
    /// client → agent: list every problem in the domain.
    ListProblems,
    /// client → agent: describe every registered server (operator tooling).
    ListServers,
    /// agent → client: the server roster with live status.
    ServerInfoList {
        /// Registered servers in id order.
        servers: Vec<ServerInfo>,
    },
    /// agent → client: the domain's problem mnemonics.
    ProblemCatalogue {
        /// Sorted problem names.
        names: Vec<String>,
    },
    /// client → agent: fetch one problem's full description (rendered PDL).
    DescribeProblem {
        /// Problem mnemonic.
        problem: String,
    },
    /// agent → peer agent: forwarded describe; answered from local state
    /// only (one-hop federation, no loops).
    DescribeProblemForwarded {
        /// Problem mnemonic.
        problem: String,
    },
    /// agent → client: the problem's PDL source.
    ProblemDescription {
        /// Rendered PDL of a single problem.
        pdl: String,
    },
    /// client → agent: a server failed us (feeds the fault tracker).
    FailureReport {
        /// The failing server, numbered by the agent that ranked it. Ids
        /// are per-agent: after a client fails over to another agent this
        /// numbering is meaningless there, so receivers prefer
        /// `server_address` when present.
        server_id: u64,
        /// The failing server's address — the cross-agent stable key.
        /// Additive in protocol version 5; v4 frames decode with an empty
        /// string and receivers fall back to `server_id`.
        server_address: String,
        /// Problem being attempted.
        problem: String,
        /// Error code (see [`NetSolveError::code`]).
        code: u32,
        /// Error detail.
        detail: String,
    },
    /// client → server: run this problem on these inputs.
    RequestSubmit {
        /// Client-chosen request identifier (echoed in the reply).
        request_id: u64,
        /// Milliseconds of deadline budget remaining when the client sent
        /// the request; `0` means no deadline. Servers shed requests whose
        /// budget is exhausted instead of computing results nobody will
        /// wait for.
        deadline_ms: u64,
        /// 128-bit trace identity minted by the client, so spans this
        /// request produces on the server join the client's trace
        /// (0 = untraced). Additive in protocol version 3: v1/v2 frames
        /// carry no trace context and decode with zeroes.
        trace_id: u128,
        /// Span id of the client-side attempt span this submission is a
        /// child of (0 = none). Each retry attempt carries a fresh
        /// parent, so attempts stay distinct spans under one trace.
        /// Additive in protocol version 3.
        parent_span: u64,
        /// Problem mnemonic.
        problem: String,
        /// Marshaled input objects.
        inputs: Vec<DataObject>,
    },
    /// server → client: successful result.
    RequestReply {
        /// Echo of the submitted request id.
        request_id: u64,
        /// Output objects in catalogue order.
        outputs: Vec<DataObject>,
        /// Server-side execution time in seconds (for the client's and the
        /// experiments' predictor-accuracy bookkeeping). For a cached
        /// reply this is the *original* solve's compute time, so
        /// predictor bookkeeping keeps learning real solve costs.
        compute_secs: f64,
        /// The server satisfied this request from its solve cache (or by
        /// coalescing onto another request's in-flight solve) instead of
        /// executing it. Additive in protocol version 5; v4 frames decode
        /// as `false`.
        cached: bool,
    },
    /// client → agent: a request completed successfully on a server
    /// (clears the agent's pending-assignment and fault state, and carries
    /// the measured times for the agent's bookkeeping).
    CompletionReport {
        /// The server that completed the request, numbered by the agent
        /// that ranked it (per-agent ids — see [`Message::FailureReport`]).
        server_id: u64,
        /// The completing server's address — the cross-agent stable key.
        /// Additive in protocol version 5; v4 frames decode with an empty
        /// string and receivers fall back to `server_id`.
        server_address: String,
        /// The reporting client's host identifier.
        client_host: u64,
        /// Problem solved.
        problem: String,
        /// Client-observed end-to-end seconds.
        total_secs: f64,
        /// Server-reported compute seconds.
        compute_secs: f64,
        /// Payload bytes moved both ways, so the agent can refresh its
        /// bandwidth estimate for this client/server pair from
        /// `bytes / (total - compute)`.
        bytes: u64,
    },
    /// any → daemon: dump your metrics registry. Additive in protocol
    /// version 2: daemons from before this message existed answer with
    /// their generic "cannot handle" `Error` reply, which scrapers treat
    /// as *unsupported*, so mixed-version domains keep working.
    StatsQuery,
    /// daemon → any: the metrics snapshot ([`StatsSnapshot`]).
    StatsReply(StatsSnapshot),
    /// any → daemon: dump your retained trace spans. `trace_id` 0 asks
    /// for everything; otherwise only spans of that trace. Additive in
    /// protocol version 3: older daemons answer with their generic
    /// "cannot handle" `Error` reply, which `netsl-trace` reports as
    /// *unsupported*, so mixed-version domains keep working.
    TraceQuery {
        /// Trace to select, or 0 for all retained spans.
        trace_id: u128,
    },
    /// daemon → any: the retained span records.
    TraceReply {
        /// Which daemon answered (`"server"`, `"agent"`, …).
        component: String,
        /// The retained spans, oldest first.
        spans: Vec<SpanRecord>,
    },
    /// agent → peer agent: anti-entropy round. The sender pushes every
    /// registration it knows (its own and ones learned from gossip, with
    /// accumulated age) so registrations replicate transitively across any
    /// connected peer topology. Additive in protocol version 4: a v3 agent
    /// rejects the unknown tag with its generic `Error` reply, which the
    /// sender counts as *unsupported* and tolerates, so mixed-version
    /// federations keep serving queries.
    GossipSync {
        /// Address of the sending agent (its listen address, which is how
        /// peers and origin labels refer to it).
        from_agent: String,
        /// Every registration the sender knows, freshest view.
        entries: Vec<GossipEntry>,
        /// Windowed stats digests the sender knows — its own and ones
        /// learned from gossip, ages accumulated hop-relative exactly
        /// like registry `entries`. Additive in protocol version 6: v5
        /// frames carry no digest leg and decode with an empty vec.
        digests: Vec<StatsDigest>,
    },
    /// agent → peer agent: gossip merge outcome, closing the round.
    GossipAck {
        /// Entries that created a new remote registration.
        merged: u32,
        /// Entries that refreshed or updated an existing registration.
        refreshed: u32,
        /// Entries rejected because they conflict with local state (e.g. a
        /// different catalogue already registered at the same address).
        conflicts: u32,
    },
    /// any → daemon: dump the windowed stats digests you hold — your own
    /// plus, on agents, every digest replicated over gossip — so one
    /// scrape of one agent returns the whole fleet's recent history.
    /// Additive in protocol version 6: older daemons answer with their
    /// generic "cannot handle" `Error` reply, which scrapers treat as
    /// *unsupported*, so mixed-version domains keep working.
    FleetStatsQuery,
    /// daemon → any: the windowed digests, freshest view (ages
    /// recomputed to the moment of encoding).
    FleetStatsReply {
        /// One digest per known daemon, own digest first.
        digests: Vec<StatsDigest>,
    },
    /// any → any: liveness probe.
    Ping,
    /// any → any: liveness answer.
    Pong,
    /// any → any: failure outcome for the preceding request.
    Error {
        /// Error code (see [`NetSolveError::code`]).
        code: u32,
        /// Human-readable detail.
        detail: String,
    },
}

// The wire table. One row per record and per message, fields in wire
// order (not declaration order), `@N` = on the wire since protocol version
// N. `wire.rs` turns the rows into the encoder, the decoder, `MIN_LEN`,
// the tag and log name, and `Message::SCHEMA`; DESIGN §4m has the recipe
// for adding a field. `docs/PROTOCOL.md` §4 is checked against these rows.
wire_records! {
    ServerDescriptor { server_id, host, address, mflops, problems, pdl_source }
    Candidate { server_id, address, predicted_secs }
    ServerInfo { server_id, host, address, mflops, workload, down, problems }
    QueryShape { client_host, problem, n, bytes_in, bytes_out, trace_id @3, parent_span @3 }
    GossipEntry { origin_agent, host, address, mflops, problems, pdl_source, workload, age_secs }
    SpanRecord {
        trace_id, span_id, parent_span, request_id, component, phase,
        start_unix_nanos, end_unix_nanos, detail
    }
    HistogramSnapshot { name, count, sum_secs, buckets, exemplars @6, max_exemplar @6 }
    StatsSnapshot { component, counters, gauges, histograms }
    DigestQuantiles { name, count, p50_secs, p95_secs, p99_secs, p99_exemplar }
    StatsDigest { origin, component, age_secs, window_secs, counters, gauges, quantiles }
}

wire_messages! {
    1  RegisterServer(ServerDescriptor)
    2  RegisterAck { accepted, detail }
    3  WorkloadReport { server_id, workload }
    4  ServerQuery(QueryShape)
    5  ServerList { candidates }
    6  ListProblems {}
    7  ProblemCatalogue { names }
    8  DescribeProblem { problem }
    9  ProblemDescription { pdl }
    10 FailureReport { server_id, problem, code, detail, server_address @5 }
    11 RequestSubmit => RequestView<'a> {
        request_id: u64, deadline_ms @2: u64, trace_id @3: u128, parent_span @3: u64,
        problem: &'a str, inputs: &'a [DataObject]
    }
    12 RequestReply { request_id, compute_secs, outputs, cached @5 }
    13 Ping {}
    14 Pong {}
    15 Error { code, detail }
    16 CompletionReport {
        server_id, client_host, problem, total_secs, compute_secs, bytes, server_address @5
    }
    17 ServerQueryForwarded(QueryShape)
    18 DescribeProblemForwarded { problem }
    19 ListServers {}
    20 ServerInfoList { servers }
    21 StatsQuery {}
    22 StatsReply(StatsSnapshot)
    23 TraceQuery { trace_id }
    24 TraceReply { component, spans }
    25 GossipSync { from_agent, entries, digests @6 }
    26 GossipAck { merged, refreshed, conflicts }
    27 FleetStatsQuery {}
    28 FleetStatsReply { digests }
}

/// What a frame carries: a [`Message`], or a borrowed view of one
/// ([`RequestView`]) that encodes to the same bytes. The frame writer takes
/// either, so a request can be framed straight from operands its sender
/// does not own.
pub trait Body {
    /// Append the payload — the tag, then that row's fields — in the
    /// layout of protocol `version`. The frame writer hands in a counting
    /// encoder, then one over its window (header already in place).
    fn encode_body(&self, e: &mut Encoder<'_>, version: u32);

    /// Exact payload length at `version`, computed without materializing
    /// a byte: the body runs through a counting encoder, where bulk array
    /// puts cost O(1). This is how the frame writer learns the length
    /// field it must send before the payload.
    fn encoded_len(&self, version: u32) -> u64 {
        let mut c = Encoder::counting();
        self.encode_body(&mut c, version);
        c.count()
    }
}

impl Message {
    /// Build the `Error` message corresponding to a [`NetSolveError`].
    pub fn from_error(e: &NetSolveError) -> Message {
        Message::Error { code: e.code(), detail: e.detail().to_string() }
    }

    /// Encode to payload bytes (no framing), at the current protocol
    /// version.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_versioned(crate::frame::VERSION)
    }

    /// Encode to payload bytes at a specific protocol version (used when
    /// talking to — or impersonating, in compatibility tests — an older
    /// peer). Version differences are additive: v1 `RequestSubmit` has no
    /// `deadline_ms` field.
    pub fn encode_versioned(&self, version: u32) -> Vec<u8> {
        let mut e = Encoder::with_capacity(64);
        self.encode_body(&mut e, version);
        e.into_bytes()
    }

    /// [`Body::encoded_len`], callable without importing the trait.
    pub fn encoded_len(&self, version: u32) -> u64 {
        Body::encoded_len(self, version)
    }

    /// Decode from payload bytes, requiring full consumption, at the
    /// current protocol version.
    pub fn decode(bytes: &[u8]) -> Result<Message> {
        Self::decode_versioned(bytes, crate::frame::VERSION)
    }

    /// Decode a payload that arrived in a frame of the given (negotiated)
    /// protocol version. Older versions are additive subsets: a v1
    /// `RequestSubmit` carries no `deadline_ms` and decodes with a zero
    /// (no-deadline) budget.
    pub fn decode_versioned(bytes: &[u8], version: u32) -> Result<Message> {
        let mut d = Decoder::new(bytes);
        let msg = Self::decode_body(&mut d, version)?;
        d.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsolve_core::matrix::Matrix;

    fn sample_digest() -> StatsDigest {
        StatsDigest {
            origin: "127.0.0.1:9021".into(),
            component: "server".into(),
            age_secs: 1.5,
            window_secs: 30.0,
            counters: vec![("server.requests".into(), 12.5), ("server.sheds".into(), 0.25)],
            gauges: vec![("server.active_requests".into(), -2)],
            quantiles: vec![DigestQuantiles {
                name: "server.compute_secs".into(),
                count: 375,
                p50_secs: 0.004,
                p95_secs: 0.04,
                p99_secs: 0.26,
                p99_exemplar: 0xfeed_face_0000_0001_dead_beef_0000_0003,
            }],
        }
    }

    fn samples() -> Vec<Message> {
        vec![
            Message::RegisterServer(ServerDescriptor {
                server_id: 42,
                host: "fermi.cs.utk.edu".into(),
                address: "127.0.0.1:9021".into(),
                mflops: 120.5,
                problems: vec!["dgesv".into(), "fft".into()],
                pdl_source: "@PROBLEM dgesv\n@END".into(),
            }),
            Message::RegisterAck { accepted: true, detail: String::new() },
            Message::RegisterAck { accepted: false, detail: "duplicate".into() },
            Message::WorkloadReport { server_id: 7, workload: 83.5 },
            Message::ServerQuery(QueryShape {
                client_host: 11,
                problem: "dgesv".into(),
                n: 512,
                bytes_in: 2_097_168,
                bytes_out: 4104,
                trace_id: 0xfeed_face_0000_0001_dead_beef_0000_0002,
                parent_span: 71,
            }),
            Message::ServerList {
                candidates: vec![
                    Candidate { server_id: 1, address: "a:1".into(), predicted_secs: 0.5 },
                    Candidate { server_id: 2, address: "b:2".into(), predicted_secs: 1.25 },
                ],
            },
            Message::ListProblems,
            Message::ListServers,
            Message::ServerInfoList {
                servers: vec![ServerInfo {
                    server_id: 1,
                    host: "h".into(),
                    address: "a:1".into(),
                    mflops: 150.0,
                    workload: 42.0,
                    down: false,
                    problems: 21,
                }],
            },
            Message::ProblemCatalogue { names: vec!["cg".into(), "dgesv".into()] },
            Message::DescribeProblem { problem: "quad".into() },
            Message::DescribeProblemForwarded { problem: "conv".into() },
            Message::ProblemDescription { pdl: "@PROBLEM quad\n@END\n".into() },
            Message::FailureReport {
                server_id: 3,
                server_address: "127.0.0.1:9021".into(),
                problem: "dgesv".into(),
                code: 3,
                detail: "connection refused".into(),
            },
            Message::RequestSubmit {
                request_id: 99,
                deadline_ms: 1500,
                trace_id: u128::MAX - 7,
                parent_span: 41,
                problem: "dgesv".into(),
                inputs: vec![Matrix::identity(3).into(), vec![1.0, 2.0, 3.0].into()],
            },
            Message::RequestReply {
                request_id: 99,
                outputs: vec![vec![1.0, 2.0, 3.0].into()],
                compute_secs: 0.0042,
                cached: false,
            },
            Message::RequestReply {
                request_id: 100,
                outputs: vec![vec![4.0].into()],
                compute_secs: 1.25,
                cached: true,
            },
            Message::CompletionReport {
                server_id: 2,
                server_address: "b:2".into(),
                client_host: 4,
                problem: "dgesv".into(),
                total_secs: 1.5,
                compute_secs: 0.3,
                bytes: 2_000_000,
            },
            Message::ServerQueryForwarded(QueryShape {
                client_host: 11,
                problem: "fft".into(),
                n: 1024,
                bytes_in: 16_400,
                bytes_out: 16_400,
                trace_id: 0,
                parent_span: 0,
            }),
            Message::StatsQuery,
            Message::StatsReply(StatsSnapshot {
                component: "server".into(),
                counters: vec![("server.accepts".into(), 12), ("server.requests".into(), 9)],
                gauges: vec![("server.active_requests".into(), -1)],
                histograms: vec![HistogramSnapshot {
                    name: "server.compute_secs".into(),
                    count: 3,
                    sum_secs: 0.125,
                    buckets: vec![0, 1, 2, 0],
                    exemplars: vec![0, 0xfeed_0001, 0xfeed_0002, 0],
                    max_exemplar: 0xfeed_0002,
                }],
            }),
            Message::StatsReply(StatsSnapshot::default()),
            Message::TraceQuery { trace_id: 0 },
            Message::TraceQuery { trace_id: u128::MAX },
            Message::TraceReply {
                component: "server".into(),
                spans: vec![
                    SpanRecord {
                        trace_id: 0xabcd_0000_0000_0001,
                        span_id: 9,
                        parent_span: 4,
                        request_id: 99,
                        component: "server".into(),
                        phase: "solve".into(),
                        start_unix_nanos: 1_700_000_000_000_000_000,
                        end_unix_nanos: 1_700_000_000_000_400_000,
                        detail: "dgesv n=512".into(),
                    },
                    SpanRecord::default(),
                ],
            },
            Message::TraceReply { component: "agent".into(), spans: vec![] },
            Message::GossipSync {
                from_agent: "127.0.0.1:9000".into(),
                entries: vec![GossipEntry {
                    origin_agent: "127.0.0.1:9001".into(),
                    host: "fermi.cs.utk.edu".into(),
                    address: "127.0.0.1:9021".into(),
                    mflops: 120.5,
                    problems: vec!["dgesv".into(), "fft".into()],
                    pdl_source: "@PROBLEM dgesv\n@END".into(),
                    workload: 37.5,
                    age_secs: 4.25,
                }],
                digests: vec![sample_digest()],
            },
            Message::GossipSync {
                from_agent: "agent-b".into(),
                entries: vec![],
                digests: vec![],
            },
            Message::GossipAck { merged: 2, refreshed: 5, conflicts: 1 },
            Message::FleetStatsQuery,
            Message::FleetStatsReply { digests: vec![sample_digest(), StatsDigest::default()] },
            Message::FleetStatsReply { digests: vec![] },
            Message::Ping,
            Message::Pong,
            Message::Error { code: 1, detail: "problem not found".into() },
        ]
    }

    #[test]
    fn v2_payloads_decode_with_zeroed_trace_context() {
        let submit = Message::RequestSubmit {
            request_id: 7,
            deadline_ms: 900,
            trace_id: 0x1234_5678_9abc_def0,
            parent_span: 3,
            problem: "ddot".into(),
            inputs: vec![vec![1.0, 2.0].into()],
        };
        let back = Message::decode_versioned(&submit.encode_versioned(2), 2).unwrap();
        match back {
            Message::RequestSubmit { request_id, deadline_ms, trace_id, parent_span, .. } => {
                assert_eq!(request_id, 7);
                assert_eq!(deadline_ms, 900, "v2 still carries the deadline");
                assert_eq!(trace_id, 0, "trace context defaults to untraced");
                assert_eq!(parent_span, 0);
            }
            other => panic!("unexpected {other:?}"),
        }

        let query = Message::ServerQuery(QueryShape {
            client_host: 5,
            problem: "ddot".into(),
            n: 64,
            bytes_in: 1024,
            bytes_out: 8,
            trace_id: 42,
            parent_span: 9,
        });
        match Message::decode_versioned(&query.encode_versioned(2), 2).unwrap() {
            Message::ServerQuery(q) => {
                assert_eq!(q.n, 64);
                assert_eq!(q.trace_id, 0);
                assert_eq!(q.parent_span, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// v4 peers carry no `cached` marker and no report addresses: their
    /// payloads must decode with the conservative defaults, and encoding
    /// *to* a v4 peer must omit the new fields so it can decode us.
    #[test]
    fn v4_payloads_decode_with_v5_defaults() {
        let reply = Message::RequestReply {
            request_id: 7,
            outputs: vec![vec![1.0, 2.0].into()],
            compute_secs: 0.5,
            cached: true,
        };
        match Message::decode_versioned(&reply.encode_versioned(4), 4).unwrap() {
            Message::RequestReply { request_id, cached, compute_secs, .. } => {
                assert_eq!(request_id, 7);
                assert_eq!(compute_secs, 0.5);
                assert!(!cached, "v4 replies default to uncached");
            }
            other => panic!("unexpected {other:?}"),
        }

        let completion = Message::CompletionReport {
            server_id: 3,
            server_address: "127.0.0.1:9021".into(),
            client_host: 1,
            problem: "dgesv".into(),
            total_secs: 2.0,
            compute_secs: 1.0,
            bytes: 4096,
        };
        match Message::decode_versioned(&completion.encode_versioned(4), 4).unwrap() {
            Message::CompletionReport { server_id, server_address, .. } => {
                assert_eq!(server_id, 3);
                assert!(server_address.is_empty(), "v4 reports carry no address");
            }
            other => panic!("unexpected {other:?}"),
        }

        let failure = Message::FailureReport {
            server_id: 9,
            server_address: "127.0.0.1:9022".into(),
            problem: "fft".into(),
            code: 3,
            detail: "refused".into(),
        };
        match Message::decode_versioned(&failure.encode_versioned(4), 4).unwrap() {
            Message::FailureReport { server_id, server_address, .. } => {
                assert_eq!(server_id, 9);
                assert!(server_address.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// v5 peers carry no exemplar or digest legs: encoding *to* a v5
    /// peer must omit them so it can decode us, and its payloads decode
    /// here with the conservative defaults (no exemplars, no digests).
    #[test]
    fn v5_payloads_decode_with_v6_defaults() {
        let reply = Message::StatsReply(StatsSnapshot {
            component: "server".into(),
            counters: vec![("server.requests".into(), 9)],
            gauges: vec![],
            histograms: vec![HistogramSnapshot {
                name: "server.compute_secs".into(),
                count: 2,
                sum_secs: 0.5,
                buckets: vec![1, 1],
                exemplars: vec![0xAA, 0xBB],
                max_exemplar: 0xBB,
            }],
        });
        match Message::decode_versioned(&reply.encode_versioned(5), 5).unwrap() {
            Message::StatsReply(snap) => {
                let h = &snap.histograms[0];
                assert_eq!(h.buckets, vec![1, 1], "buckets survive at v5");
                assert!(h.exemplars.is_empty(), "v5 carries no exemplars");
                assert_eq!(h.max_exemplar, 0, "v5 carries no max exemplar");
            }
            other => panic!("unexpected {other:?}"),
        }

        let sync = Message::GossipSync {
            from_agent: "127.0.0.1:9000".into(),
            entries: vec![],
            digests: vec![sample_digest()],
        };
        match Message::decode_versioned(&sync.encode_versioned(5), 5).unwrap() {
            Message::GossipSync { from_agent, digests, .. } => {
                assert_eq!(from_agent, "127.0.0.1:9000");
                assert!(digests.is_empty(), "v5 gossip carries no digest leg");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fleet_digests_roundtrip_losslessly() {
        let msg = Message::FleetStatsReply { digests: vec![sample_digest()] };
        match Message::decode(&msg.encode()).unwrap() {
            Message::FleetStatsReply { digests } => {
                assert_eq!(digests, vec![sample_digest()]);
                assert_eq!(
                    digests[0].quantiles("server.compute_secs").unwrap().p99_exemplar,
                    0xfeed_face_0000_0001_dead_beef_0000_0003,
                    "128-bit exemplar survives the wire"
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut e = Encoder::new();
        e.put_u32(999);
        assert!(Message::decode(&e.into_bytes()).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = Message::Ping.encode();
        bytes.extend_from_slice(&[0; 4]);
        assert!(Message::decode(&bytes).is_err());
    }

    /// CRC-32 of the concatenated `samples()` payloads at wire v1..=v6,
    /// generated at the last commit with a hand-written codec (PR 14).
    /// A mismatch means the bytes on the wire changed: bump `VERSION`
    /// or revert, never edit a pin to fit.
    const WIRE_PINS: [u32; 6] =
        [0x09a5_c737, 0x9ba5_f162, 0x6920_c169, 0x6920_c169, 0x524b_4ebe, 0x4683_0e19];

    #[test]
    fn wire_bytes_are_pinned_at_every_version() {
        for (version, pin) in (1..).zip(WIRE_PINS) {
            let per_sample: Vec<Vec<u8>> =
                samples().iter().map(|m| m.encode_versioned(version)).collect();
            let got = netsolve_xdr::crc32(&per_sample.concat());
            if got != pin {
                for (m, bytes) in samples().iter().zip(&per_sample) {
                    eprintln!("v{version} {:>2} {:<24} {:#010x}", m.tag(), m.name(), netsolve_xdr::crc32(bytes));
                }
                panic!("wire v{version} bytes drifted: crc {got:#010x}, pinned {pin:#010x}");
            }
        }
    }

    /// Every sample at every version: both sources decode it, the decode
    /// re-encodes to the same bytes (and at the current version equals the
    /// sample), and every proper prefix is an error — never a panic, never
    /// a shorter message — from both sources.
    #[test]
    fn every_version_reencodes_and_every_prefix_is_rejected() {
        fn stream_decode(bytes: &[u8], version: u32) -> Result<Message> {
            let (mut r, mut window) = (bytes, Vec::new());
            let mut d = Decoder::reading(&mut r, &mut window, 64);
            d.limit(bytes.len(), 0);
            let msg = Message::decode_body(&mut d, version)?;
            d.finish()?;
            Ok(msg)
        }
        for version in 1..=crate::frame::VERSION {
            for msg in samples() {
                let bytes = msg.encode_versioned(version);
                let back = Message::decode_versioned(&bytes, version)
                    .unwrap_or_else(|e| panic!("{} v{version} failed: {e}", msg.name()));
                assert_eq!(back.encode_versioned(version), bytes, "{} v{version}", msg.name());
                if version == crate::frame::VERSION {
                    assert_eq!(back, msg, "{} roundtrip", msg.name());
                }
                assert_eq!(stream_decode(&bytes, version).unwrap(), back, "{} v{version}", msg.name());
                for cut in 0..bytes.len() {
                    assert!(
                        Message::decode_versioned(&bytes[..cut], version).is_err(),
                        "{} v{version} accepted a {cut}-byte prefix",
                        msg.name()
                    );
                    assert!(
                        stream_decode(&bytes[..cut], version).is_err(),
                        "{} v{version} streamed a {cut}-byte prefix",
                        msg.name()
                    );
                }
            }
        }
    }

    /// The count bound divides by each item's shortest encoding, so a list
    /// of shortest items is the input that trips a divisor set too high
    /// (the hand-written `GossipEntry` guard said 56 for a 44-byte
    /// minimum and refused five empty entries).
    #[test]
    fn lists_of_shortest_items_pass_the_count_bound() {
        let n = 50;
        let entry = GossipEntry {
            origin_agent: String::new(),
            host: String::new(),
            address: String::new(),
            mflops: 0.0,
            problems: vec![],
            pdl_source: String::new(),
            workload: 0.0,
            age_secs: 0.0,
        };
        let info = ServerInfo {
            server_id: 0,
            host: String::new(),
            address: String::new(),
            mflops: 0.0,
            workload: 0.0,
            down: false,
            problems: 0,
        };
        let candidate = Candidate { server_id: 0, address: String::new(), predicted_secs: 0.0 };
        let quantiles = StatsDigest {
            quantiles: vec![DigestQuantiles::default(); n],
            counters: vec![(String::new(), 0.0); n],
            ..StatsDigest::default()
        };
        let msgs = [
            Message::GossipSync {
                from_agent: String::new(),
                entries: vec![entry; n],
                digests: vec![StatsDigest::default(); n],
            },
            Message::ServerInfoList { servers: vec![info; n] },
            Message::ServerList { candidates: vec![candidate; n] },
            Message::ProblemCatalogue { names: vec![String::new(); n] },
            Message::TraceReply { component: String::new(), spans: vec![SpanRecord::default(); n] },
            Message::FleetStatsReply { digests: vec![quantiles] },
            Message::StatsReply(StatsSnapshot {
                component: String::new(),
                counters: vec![(String::new(), 0); n],
                gauges: vec![(String::new(), 0); n],
                histograms: vec![HistogramSnapshot::default(); n],
            }),
        ];
        for version in 1..=crate::frame::VERSION {
            for msg in &msgs {
                let bytes = msg.encode_versioned(version);
                let back = Message::decode_versioned(&bytes, version)
                    .unwrap_or_else(|e| panic!("{} v{version}: {e}", msg.name()));
                assert_eq!(back.encode_versioned(version), bytes, "{} v{version}", msg.name());
            }
        }
    }

    #[test]
    fn error_message_from_netsolve_error() {
        let e = NetSolveError::ProblemNotFound("xyz".into());
        match Message::from_error(&e) {
            Message::Error { code, detail } => {
                assert_eq!(code, e.code());
                assert_eq!(detail, "xyz");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn request_with_large_matrix_roundtrips() {
        let m = Matrix::from_fn(64, 64, |r, c| (r * 64 + c) as f64);
        let msg = Message::RequestSubmit {
            request_id: 1,
            deadline_ms: 0,
            trace_id: 3,
            parent_span: 0,
            problem: "dgemm".into(),
            inputs: vec![m.clone().into(), m.into()],
        };
        let back = Message::decode(&msg.encode()).unwrap();
        assert_eq!(back, msg);
    }
}
