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
mod properties {
    use super::*;
    use netsolve_core::rng::{cases, Rng64};

    fn wide(rng: &mut Rng64) -> u128 {
        (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64())
    }

    /// `count` words of 1 to `max` chars over `alphabet`.
    fn words(rng: &mut Rng64, count: std::ops::Range<usize>, alphabet: &str, max: usize) -> Vec<String> {
        (0..rng.range(count)).map(|_| rng.string(alphabet, 1..=max)).collect()
    }

    fn arb_request_submit(rng: &mut Rng64) -> Message {
        Message::RequestSubmit {
            request_id: rng.next_u64(),
            deadline_ms: rng.next_u64(),
            trace_id: wide(rng),
            parent_span: rng.next_u64(),
            problem: rng.string("a-z", 1..=10),
            inputs: (0..rng.range(0..4))
                .map(|_| {
                    let n = rng.range(0..32);
                    netsolve_core::DataObject::Vector((0..n).map(|_| rng.uniform(-1e9, 1e9)).collect())
                })
                .collect(),
        }
    }

    fn arb_message(rng: &mut Rng64) -> Message {
        match rng.below(17) {
            0 => Message::Ping,
            1 => Message::Pong,
            2 => Message::ListProblems,
            3 => Message::WorkloadReport {
                server_id: rng.next_u64(),
                workload: rng.uniform(0.0, 200.0),
            },
            4 => Message::Error { code: rng.next_u64() as u32, detail: rng.string(" -~", 0..=60) },
            5 => Message::ServerQuery(QueryShape {
                problem: rng.string("a-z", 1..=12),
                n: rng.next_u64(),
                bytes_in: rng.next_u64(),
                bytes_out: rng.next_u64(),
                client_host: rng.next_u64(),
                trace_id: wide(rng),
                parent_span: rng.next_u64(),
            }),
            6 => Message::ServerList {
                candidates: (0..rng.range(0..10))
                    .map(|_| Candidate {
                        server_id: rng.next_u64(),
                        address: rng.string(" -~", 0..=20),
                        predicted_secs: rng.uniform(0.0, 1e6),
                    })
                    .collect(),
            },
            7 => Message::ProblemCatalogue { names: words(rng, 0..20, "a-z_", 12) },
            8 => Message::RegisterServer(ServerDescriptor {
                server_id: rng.next_u64(),
                host: rng.string(" -~", 0..=30),
                address: rng.string(" -~", 0..=30),
                mflops: rng.uniform(0.0, 1e4),
                problems: words(rng, 0..8, "a-z", 10),
                pdl_source: rng.string(" -~\n", 0..=200),
            }),
            9 => arb_request_submit(rng),
            10 => Message::GossipAck {
                merged: rng.next_u64() as u32,
                refreshed: rng.next_u64() as u32,
                conflicts: rng.next_u64() as u32,
            },
            11 => Message::GossipSync {
                from_agent: rng.string(" -~", 0..=24),
                entries: (0..rng.range(0..4))
                    .map(|_| GossipEntry {
                        origin_agent: rng.string(" -~", 0..=24),
                        host: rng.string(" -~", 0..=16),
                        address: rng.string(" -~", 0..=24),
                        mflops: rng.uniform(0.0, 1e4),
                        problems: words(rng, 0..4, "a-z", 10),
                        pdl_source: rng.string(" -~\n", 0..=80),
                        workload: rng.uniform(0.0, 200.0),
                        age_secs: rng.uniform(0.0, 1e5),
                    })
                    .collect(),
                digests: vec![],
            },
            12 => Message::FleetStatsReply {
                digests: (0..rng.range(0..4))
                    .map(|_| netsolve_obs::StatsDigest {
                        origin: rng.string(" -~", 0..=24),
                        component: rng.string("a-z", 1..=8),
                        age_secs: rng.uniform(0.0, 1e4),
                        window_secs: rng.uniform(0.0, 600.0),
                        counters: (0..rng.range(0..4))
                            .map(|_| (rng.string("a-z._", 1..=16), rng.uniform(0.0, 1e6)))
                            .collect(),
                        gauges: (0..rng.range(0..4))
                            .map(|_| (rng.string("a-z._", 1..=16), rng.next_u64() as i64))
                            .collect(),
                        quantiles: (0..rng.range(0..3))
                            .map(|_| {
                                let (name, count) = (rng.string("a-z._", 1..=16), rng.next_u64());
                                let p = rng.uniform(0.0, 60.0);
                                netsolve_obs::DigestQuantiles {
                                    name,
                                    count,
                                    p50_secs: p,
                                    p95_secs: p * 2.0,
                                    p99_secs: p * 4.0,
                                    p99_exemplar: wide(rng),
                                }
                            })
                            .collect(),
                    })
                    .collect(),
            },
            13 => Message::StatsQuery,
            14 => Message::TraceQuery { trace_id: wide(rng) },
            15 => Message::TraceReply {
                component: rng.string("a-z", 1..=8),
                spans: (0..rng.range(0..6))
                    .map(|_| netsolve_obs::SpanRecord {
                        trace_id: wide(rng),
                        span_id: rng.next_u64(),
                        parent_span: rng.next_u64(),
                        request_id: rng.next_u64(),
                        component: rng.string("a-z", 1..=8),
                        phase: rng.string("a-z_", 1..=12),
                        start_unix_nanos: rng.next_u64(),
                        end_unix_nanos: rng.next_u64(),
                        detail: rng.string(" -~", 0..=24),
                    })
                    .collect(),
            },
            _ => Message::StatsReply(netsolve_obs::StatsSnapshot {
                component: rng.string("a-z", 1..=8),
                counters: (0..rng.range(0..6))
                    .map(|_| (rng.string("a-z._", 1..=16), rng.next_u64()))
                    .collect(),
                gauges: (0..rng.range(0..4))
                    .map(|_| (rng.string("a-z._", 1..=16), rng.next_u64() as i64))
                    .collect(),
                histograms: (0..rng.range(0..3))
                    .map(|_| netsolve_obs::HistogramSnapshot {
                        name: rng.string("a-z._", 1..=16),
                        count: rng.next_u64(),
                        sum_secs: rng.uniform(0.0, 1e6),
                        buckets: (0..rng.range(0..30)).map(|_| rng.next_u64()).collect(),
                        exemplars: (0..rng.range(0..30)).map(|_| wide(rng)).collect(),
                        max_exemplar: wide(rng),
                    })
                    .collect(),
            }),
        }
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

    #[test]
    fn message_roundtrip() {
        cases("message_roundtrip", 64, |rng| {
            let msg = arb_message(rng);
            assert_eq!(Message::decode(&msg.encode()).unwrap(), msg);
        });
    }

    #[test]
    fn frame_roundtrip() {
        cases("frame_roundtrip", 64, |rng| {
            let msg = arb_message(rng);
            let bytes = frame_bytes_versioned(&msg, VERSION).unwrap();
            let (back, used) = parse_frame(&bytes).unwrap();
            assert_eq!(back, msg);
            assert_eq!(used, bytes.len());
        });
    }

    #[test]
    fn single_pass_frame_matches_reference() {
        // The zero-copy writer must agree byte-for-byte with the
        // reference encoder on arbitrary messages, not just fixtures,
        // at every version and through every window.
        cases("single_pass_frame_matches_reference", 64, |rng| {
            let msg = arb_message(rng);
            for version in MIN_VERSION..=VERSION {
                let reference = frame_bytes_versioned(&msg, version).unwrap();
                for (route, frame) in frames_through_every_window(&msg, version) {
                    assert_eq!(frame, reference, "{route}");
                }
            }
            let mut single = Vec::new();
            encode_frame_into(&msg, &mut single).unwrap();
            assert_eq!(single, frame_bytes_versioned(&msg, VERSION).unwrap());
        });
    }

    #[test]
    fn request_view_frames_match_the_owned_request() {
        // The view and the owned message are one row: at every version,
        // through every window, the view's frame is the reference
        // encoder's frame of the owned message, byte for byte.
        cases("request_view_frames_match_the_owned_request", 64, |rng| {
            let msg = arb_request_submit(rng);
            let Message::RequestSubmit { request_id, deadline_ms, trace_id, parent_span, problem, inputs } = &msg
            else {
                unreachable!("the generator makes requests")
            };
            let view = RequestView {
                request_id: *request_id,
                deadline_ms: *deadline_ms,
                trace_id: *trace_id,
                parent_span: *parent_span,
                problem,
                inputs,
            };
            assert_eq!(view.to_message(), msg);
            for version in MIN_VERSION..=VERSION {
                let reference = frame_bytes_versioned(&msg, version).unwrap();
                for (route, frame) in frames_through_every_window(&view, version) {
                    assert_eq!(frame, reference, "{route}");
                }
            }
        });
    }

    #[test]
    fn all_sources_agree_at_every_version() {
        // What a vN peer sent decodes to the same message from a slice,
        // from a slice at an odd address (every f64/u64 array inside
        // misaligned), and from a reader through windows that split
        // items (97 never lands on an element boundary) or hold the
        // whole frame — and at the current version to the message
        // that was encoded.
        cases("all_sources_agree_at_every_version", 64, |rng| {
            let msg = arb_message(rng);
            for version in MIN_VERSION..=VERSION {
                let bytes = frame_bytes_versioned(&msg, version).unwrap();
                let (from_slice, used) = parse_frame(&bytes).unwrap();
                assert_eq!(used, bytes.len());
                if version == VERSION {
                    assert_eq!(from_slice, msg);
                }

                let mut shifted = Vec::with_capacity(bytes.len() + 1);
                shifted.push(0u8);
                shifted.extend_from_slice(&bytes);
                assert_eq!(parse_frame(&shifted[1..]).unwrap().0, from_slice);

                for window in [64, 97, 4096, DEFAULT_STREAM_CHUNK] {
                    let mut rdr = FrameReader::with_window(window);
                    let from_reader = rdr.read_from(&mut &bytes[..]).unwrap();
                    assert_eq!(from_reader, from_slice, "v{version} window {window}");
                    assert!(rdr.buffered_capacity() <= window);
                }
            }
        });
    }

    #[test]
    fn frame_bit_flips_never_decode_silently() {
        // Any single-bit corruption must either fail to parse or decode
        // to the identical message (flips in ignored padding cannot
        // occur because the codec validates padding).
        cases("frame_bit_flips_never_decode_silently", 64, |rng| {
            let msg = arb_message(rng);
            let mut bad = frame_bytes_versioned(&msg, VERSION).unwrap();
            let idx = rng.below(bad.len());
            bad[idx] ^= 1 << rng.below(8);
            if let Ok((decoded, _)) = parse_frame(&bad) {
                assert_eq!(decoded, msg)
            }
        });
    }

    #[test]
    fn garbage_never_panics() {
        cases("garbage_never_panics", 64, |rng| {
            let data: Vec<u8> = (0..rng.range(0..256)).map(|_| rng.next_u64() as u8).collect();
            let _ = parse_frame(&data);
        });
    }
}
