//! # netsolve-proto
//!
//! The NetSolve wire protocol: typed [`message::Message`]s marshaled with
//! the hand-written XDR codec from `netsolve-xdr`, wrapped in
//! length-delimited, CRC-checked [`frame`]s.
//!
//! One enum covers all three conversations in a NetSolve domain
//! (server↔agent registration and workload reports, client↔agent server
//! queries and failure reports, client↔server request submission), so a
//! transport only ever moves `Message` values.

#![warn(missing_docs)]

pub mod frame;
pub mod message;
mod wire;

pub use frame::{
    encode_frame_into, frame_bytes_versioned, mirror_version_downgrades, parse_frame,
    version_downgrades, write_message_streamed, FrameReader, FrameWriter, DEFAULT_STREAM_CHUNK,
    DEFAULT_STREAM_THRESHOLD, MAX_FRAME_PAYLOAD, MIN_VERSION, VERSION,
};
pub use message::{
    Body, Candidate, GossipEntry, Message, QueryShape, RequestView, ServerDescriptor, ServerInfo,
};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_request_submit() -> impl Strategy<Value = Message> {
        (any::<u64>(), any::<u64>(), any::<u128>(), any::<u64>(), "[a-z]{1,10}", prop::collection::vec(
            prop::collection::vec(-1e9..1e9f64, 0..32).prop_map(netsolve_core::DataObject::Vector),
            0..4
        ))
            .prop_map(|(request_id, deadline_ms, trace_id, parent_span, problem, inputs)| Message::RequestSubmit {
                request_id,
                deadline_ms,
                trace_id,
                parent_span,
                problem,
                inputs,
            })
    }

    fn arb_message() -> impl Strategy<Value = Message> {
        prop_oneof![
            Just(Message::Ping),
            Just(Message::Pong),
            Just(Message::ListProblems),
            (any::<u64>(), 0.0..200.0f64)
                .prop_map(|(id, w)| Message::WorkloadReport { server_id: id, workload: w }),
            (any::<u32>(), "[ -~]{0,60}")
                .prop_map(|(code, detail)| Message::Error { code, detail }),
            (
                "[a-z]{1,12}",
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u64>(),
                any::<u128>(),
                any::<u64>()
            )
                .prop_map(|(problem, n, bi, bo, client_host, trace_id, parent_span)| {
                    Message::ServerQuery(QueryShape {
                        client_host,
                        problem,
                        n,
                        bytes_in: bi,
                        bytes_out: bo,
                        trace_id,
                        parent_span,
                    })
                }),
            prop::collection::vec(
                (any::<u64>(), "[ -~]{0,20}", 0.0..1e6f64),
                0..10
            )
            .prop_map(|tuples| Message::ServerList {
                candidates: tuples
                    .into_iter()
                    .map(|(server_id, address, predicted_secs)| Candidate {
                        server_id,
                        address,
                        predicted_secs,
                    })
                    .collect(),
            }),
            prop::collection::vec("[a-z_]{1,12}", 0..20)
                .prop_map(|names| Message::ProblemCatalogue { names }),
            (
                any::<u64>(),
                "[ -~]{0,30}",
                "[ -~]{0,30}",
                0.0..1e4f64,
                prop::collection::vec("[a-z]{1,10}", 0..8),
                "[ -~\\n]{0,200}"
            )
                .prop_map(|(id, host, address, mflops, problems, pdl)| {
                    Message::RegisterServer(ServerDescriptor {
                        server_id: id,
                        host,
                        address,
                        mflops,
                        problems,
                        pdl_source: pdl,
                    })
                }),
            arb_request_submit(),
            (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(merged, refreshed, conflicts)| {
                Message::GossipAck { merged, refreshed, conflicts }
            }),
            (
                "[ -~]{0,24}",
                prop::collection::vec(
                    (
                        "[ -~]{0,24}",
                        "[ -~]{0,16}",
                        "[ -~]{0,24}",
                        0.0..1e4f64,
                        prop::collection::vec("[a-z]{1,10}", 0..4),
                        "[ -~\\n]{0,80}",
                        0.0..200.0f64,
                        0.0..1e5f64,
                    ),
                    0..4,
                ),
            )
                .prop_map(|(from_agent, entries)| Message::GossipSync {
                    from_agent,
                    entries: entries
                        .into_iter()
                        .map(
                            |(origin, host, address, mflops, problems, pdl, workload, age)| {
                                GossipEntry {
                                    origin_agent: origin,
                                    host,
                                    address,
                                    mflops,
                                    problems,
                                    pdl_source: pdl,
                                    workload,
                                    age_secs: age,
                                }
                            },
                        )
                        .collect(),
                    digests: vec![],
                }),
            (
                prop::collection::vec(
                    (
                        "[ -~]{0,24}",
                        "[a-z]{1,8}",
                        0.0..1e4f64,
                        0.0..600.0f64,
                        prop::collection::vec(("[a-z._]{1,16}", 0.0..1e6f64), 0..4),
                        prop::collection::vec(("[a-z._]{1,16}", any::<i64>()), 0..4),
                        prop::collection::vec(
                            ("[a-z._]{1,16}", any::<u64>(), 0.0..60.0f64, any::<u128>()),
                            0..3,
                        ),
                    ),
                    0..4,
                ),
            )
                .prop_map(|(digests,)| Message::FleetStatsReply {
                    digests: digests
                        .into_iter()
                        .map(|(origin, component, age, window, counters, gauges, quants)| {
                            netsolve_obs::StatsDigest {
                                origin,
                                component,
                                age_secs: age,
                                window_secs: window,
                                counters,
                                gauges,
                                quantiles: quants
                                    .into_iter()
                                    .map(|(name, count, p, exemplar)| {
                                        netsolve_obs::DigestQuantiles {
                                            name,
                                            count,
                                            p50_secs: p,
                                            p95_secs: p * 2.0,
                                            p99_secs: p * 4.0,
                                            p99_exemplar: exemplar,
                                        }
                                    })
                                    .collect(),
                            }
                        })
                        .collect(),
                }),
            Just(Message::StatsQuery),
            any::<u128>().prop_map(|trace_id| Message::TraceQuery { trace_id }),
            (
                "[a-z]{1,8}",
                prop::collection::vec(
                    (
                        any::<u128>(),
                        any::<u64>(),
                        any::<u64>(),
                        any::<u64>(),
                        "[a-z]{1,8}",
                        "[a-z_]{1,12}",
                        any::<u64>(),
                        any::<u64>(),
                        "[ -~]{0,24}",
                    ),
                    0..6,
                ),
            )
                .prop_map(|(component, spans)| Message::TraceReply {
                    component,
                    spans: spans
                        .into_iter()
                        .map(
                            |(trace_id, span_id, parent_span, request_id, comp, phase, start, end, detail)| {
                                netsolve_obs::SpanRecord {
                                    trace_id,
                                    span_id,
                                    parent_span,
                                    request_id,
                                    component: comp,
                                    phase,
                                    start_unix_nanos: start,
                                    end_unix_nanos: end,
                                    detail,
                                }
                            },
                        )
                        .collect(),
                }),
            (
                "[a-z]{1,8}",
                prop::collection::vec(("[a-z._]{1,16}", any::<u64>()), 0..6),
                prop::collection::vec(("[a-z._]{1,16}", any::<i64>()), 0..4),
                prop::collection::vec(
                    (
                        "[a-z._]{1,16}",
                        any::<u64>(),
                        0.0..1e6f64,
                        prop::collection::vec(any::<u64>(), 0..30),
                        prop::collection::vec(any::<u128>(), 0..30),
                        any::<u128>(),
                    ),
                    0..3,
                ),
            )
                .prop_map(|(component, counters, gauges, hists)| {
                    Message::StatsReply(netsolve_obs::StatsSnapshot {
                        component,
                        counters,
                        gauges,
                        histograms: hists
                            .into_iter()
                            .map(|(name, count, sum_secs, buckets, exemplars, max_exemplar)| {
                                netsolve_obs::HistogramSnapshot {
                                    name,
                                    count,
                                    sum_secs,
                                    buckets,
                                    exemplars,
                                    max_exemplar,
                                }
                            })
                            .collect(),
                    })
                }),
        ]
    }

    /// The one writer's frames of `body` at `version`: through windows that
    /// write out mid-item (97 never lands on an element boundary), hold a
    /// small frame or hold a connection's worth, and in memory (unbounded).
    fn frames_through_every_window<B: Body + ?Sized>(
        body: &B,
        version: u32,
    ) -> Vec<(String, Vec<u8>)> {
        let mut frames = Vec::new();
        for window in [64, 97, 4096, DEFAULT_STREAM_THRESHOLD] {
            let mut wire = Vec::new();
            frame::write_frame(body, version, &mut Vec::new(), window, Some(&mut wire)).unwrap();
            frames.push((format!("v{version} window {window}"), wire));
        }
        let mut unbounded = Vec::new();
        frame::write_frame(body, version, &mut unbounded, usize::MAX, None).unwrap();
        frames.push((format!("v{version} unbounded"), unbounded));
        frames
    }

    proptest! {
        #[test]
        fn message_roundtrip(msg in arb_message()) {
            let bytes = msg.encode();
            prop_assert_eq!(Message::decode(&bytes).unwrap(), msg);
        }

        #[test]
        fn frame_roundtrip(msg in arb_message()) {
            let bytes = frame_bytes_versioned(&msg, VERSION).unwrap();
            let (back, used) = parse_frame(&bytes).unwrap();
            prop_assert_eq!(back, msg);
            prop_assert_eq!(used, bytes.len());
        }

        #[test]
        fn single_pass_frame_matches_reference(msg in arb_message()) {
            // The zero-copy writer must agree byte-for-byte with the
            // reference encoder on arbitrary messages, not just fixtures,
            // at every version and through every window.
            for version in MIN_VERSION..=VERSION {
                let reference = frame_bytes_versioned(&msg, version).unwrap();
                for (route, frame) in frames_through_every_window(&msg, version) {
                    prop_assert_eq!(&frame, &reference, "{}", route);
                }
            }
            let mut single = Vec::new();
            encode_frame_into(&msg, &mut single).unwrap();
            prop_assert_eq!(single, frame_bytes_versioned(&msg, VERSION).unwrap());
        }

        #[test]
        fn request_view_frames_match_the_owned_request(msg in arb_request_submit()) {
            // The view and the owned message are one row: at every version,
            // through every window, the view's frame is the reference
            // encoder's frame of the owned message, byte for byte.
            let Message::RequestSubmit { request_id, deadline_ms, trace_id, parent_span, problem, inputs } = &msg
            else {
                unreachable!("the strategy makes requests")
            };
            let view = RequestView {
                request_id: *request_id,
                deadline_ms: *deadline_ms,
                trace_id: *trace_id,
                parent_span: *parent_span,
                problem,
                inputs,
            };
            prop_assert_eq!(&view.to_message(), &msg);
            for version in MIN_VERSION..=VERSION {
                let reference = frame_bytes_versioned(&msg, version).unwrap();
                for (route, frame) in frames_through_every_window(&view, version) {
                    prop_assert_eq!(&frame, &reference, "{}", route);
                }
            }
        }

        #[test]
        fn all_sources_agree_at_every_version(msg in arb_message()) {
            // What a vN peer sent decodes to the same message from a slice,
            // from a slice at an odd address (every f64/u64 array inside
            // misaligned), and from a reader through windows that split
            // items (97 never lands on an element boundary) or hold the
            // whole frame — and at the current version to the message
            // that was encoded.
            for version in MIN_VERSION..=VERSION {
                let bytes = frame_bytes_versioned(&msg, version).unwrap();
                let (from_slice, used) = parse_frame(&bytes).unwrap();
                prop_assert_eq!(used, bytes.len());
                if version == VERSION {
                    prop_assert_eq!(&from_slice, &msg);
                }

                let mut shifted = Vec::with_capacity(bytes.len() + 1);
                shifted.push(0u8);
                shifted.extend_from_slice(&bytes);
                prop_assert_eq!(&parse_frame(&shifted[1..]).unwrap().0, &from_slice);

                for window in [64, 97, 4096, DEFAULT_STREAM_CHUNK] {
                    let mut rdr = FrameReader::with_window(window);
                    let from_reader = rdr.read_from(&mut &bytes[..]).unwrap();
                    prop_assert_eq!(&from_reader, &from_slice, "v{} window {}", version, window);
                    prop_assert!(rdr.buffered_capacity() <= window);
                }
            }
        }

        #[test]
        fn frame_bit_flips_never_decode_silently(msg in arb_message(),
                                                 byte in any::<prop::sample::Index>(),
                                                 bit in 0u8..8) {
            // Any single-bit corruption must either fail to parse or decode
            // to the identical message (flips in ignored padding cannot
            // occur because the codec validates padding).
            let bytes = frame_bytes_versioned(&msg, VERSION).unwrap();
            let mut bad = bytes.clone();
            let idx = byte.index(bad.len());
            bad[idx] ^= 1 << bit;
            if let Ok((decoded, _)) = parse_frame(&bad) { prop_assert_eq!(decoded, msg) }
        }

        #[test]
        fn garbage_never_panics(data in prop::collection::vec(any::<u8>(), 0..256)) {
            let _ = parse_frame(&data);
        }
    }
}
