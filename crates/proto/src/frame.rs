//! Frame layer: length-delimited, checksummed envelopes around message
//! payloads, written to / read from any `io::Write` / `io::Read`.
//!
//! Wire layout (all big-endian):
//!
//! ```text
//! +---------+---------+-----------+----------------+-----------+
//! | magic   | version | length    | payload        | crc32     |
//! | 4 bytes | 4 bytes | 4 bytes   | length bytes   | 4 bytes   |
//! +---------+---------+-----------+----------------+-----------+
//! ```
//!
//! The CRC covers the payload only; magic and version mismatches are
//! reported as protocol errors before any allocation happens, and the
//! length field is capped so a corrupt peer cannot force a huge buffer.
//! The same cap is enforced on the *send* side — an oversize message is
//! rejected before any bytes hit the wire, never silently truncated
//! through the `u32` length field.
//!
//! One writer builds frames, from any [`Body`] — a [`Message`], or a
//! borrowed view of one that encodes the same bytes — whether they go to
//! a socket ([`FrameWriter`], one per connection) or stay in memory
//! ([`encode_frame_into`], for transports that hand over whole frames): a
//! counting pass (O(1) per bulk array) gives the length field, the header
//! goes into a window first, the payload is marshaled **directly behind
//! it** with the CRC folded in as bytes are produced, then the CRC
//! trailer. A frame that fits the window leaves in one write; a larger one
//! never exists whole in memory and leaves a read window
//! ([`DEFAULT_STREAM_CHUNK`]) at a time, so the peer decodes while the
//! rest is encoded. A frame costs one pass over the payload and no
//! intermediate copy, and a connection's window stays warm between sends.
//! In memory the window is unbounded and keeps the frame.
//!
//! [`frame_bytes_versioned`] is not a second route but the *reference
//! encoder*: the plain three-step construction (payload, header, CRC)
//! that equivalence tests compare the writer against and that
//! compatibility tests use to speak as an older-version peer.
//!
//! One sequence takes them apart, whether the bytes come off a socket
//! ([`FrameReader`], one per connection) or sit in memory ([`parse_frame`],
//! for transports that hand over whole frames): header words, then the
//! payload decoded through a [`netsolve_xdr::Decoder`] window — the slice
//! itself in memory, a reused chunk buffer of at most
//! [`DEFAULT_STREAM_CHUNK`] off a socket, so decode begins before a large
//! operand has fully arrived and a frame larger than the window never
//! exists whole — then whatever decode left unread is drained, and the
//! CRC trailer is judged. The CRC covers every payload byte, and a
//! mismatch is reported as [`NetSolveError::Corrupt`] even when a decode
//! error surfaced first, so flipped bits are never misclassified.
//!
//! Reading is version-tolerant: any frame whose version is in
//! `1..=VERSION` is accepted and its payload decoded under the sender's
//! version (older versions are additive subsets), so old peers keep
//! interoperating; downgraded decodes are counted and surfaced as the
//! `proto.version_downgrade` counter in daemon stats.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};

use netsolve_core::error::{NetSolveError, Result};
use netsolve_xdr::{crc32, Decoder, Encoder};

use crate::message::{Body, Message};

/// Frame magic: `"NSRV"`.
pub const MAGIC: u32 = 0x4E53_5256;
/// Protocol version spoken by this implementation. What each version
/// added is the version-history table in `docs/PROTOCOL.md`; which field
/// belongs to which version is the `@N` markers of the wire table in
/// `message.rs`.
pub const VERSION: u32 = 6;
/// Oldest protocol version this implementation still decodes.
pub const MIN_VERSION: u32 = 1;
/// Maximum payload size accepted (512 MiB), matching the largest
/// experiment matrices with headroom. Enforced on both send and receive.
pub const MAX_FRAME_PAYLOAD: usize = 512 * 1024 * 1024;
/// Bytes of frame header before the payload (magic, version, length).
pub const HEADER_LEN: usize = 12;
/// Size of a [`FrameReader`]'s window (64 KiB): the receive side's
/// per-connection memory bound while a large frame is in flight, and the
/// size of the pieces a frame larger than a [`FrameWriter`]'s window
/// leaves in.
pub const DEFAULT_STREAM_CHUNK: usize = 64 * 1024;
/// The payload a [`FrameWriter`]'s window holds behind the header, with
/// the CRC trailer after it (1 MiB): a frame up to this size leaves in one
/// write, a larger one [`DEFAULT_STREAM_CHUNK`] at a time, and it is the
/// send side's per-connection memory bound.
pub const DEFAULT_STREAM_THRESHOLD: usize = 1024 * 1024;

/// Process-wide count of frames accepted at a version below [`VERSION`].
static VERSION_DOWNGRADES: AtomicU64 = AtomicU64::new(0);

/// How many frames this process has accepted from older-version peers
/// (decoded under the sender's version).
pub fn version_downgrades() -> u64 {
    VERSION_DOWNGRADES.load(Ordering::Relaxed)
}

/// Mirror [`version_downgrades`] into `metrics` as the
/// `proto.version_downgrade` counter. Daemons call this before answering
/// `StatsQuery`/`TraceQuery`; the catch-up is monotone — the counter may
/// lag between queries, never run backwards.
pub fn mirror_version_downgrades(metrics: &netsolve_obs::MetricsRegistry) {
    let counter = metrics.counter("proto.version_downgrade");
    counter.add(version_downgrades().saturating_sub(counter.get()));
}

fn oversize(len: usize) -> NetSolveError {
    NetSolveError::Protocol(format!(
        "frame payload {len} exceeds cap {MAX_FRAME_PAYLOAD}"
    ))
}

/// The reference encoder: one self-contained frame at an explicit protocol
/// version, built the obvious way (encode the payload, then header, then
/// CRC). Not a send path — route-equivalence tests compare the writers
/// against it, and compatibility tests use it to speak as an older peer.
/// Fails if the payload exceeds [`MAX_FRAME_PAYLOAD`].
pub fn frame_bytes_versioned(msg: &Message, version: u32) -> Result<Vec<u8>> {
    let payload = msg.encode_versioned(version);
    if payload.len() > MAX_FRAME_PAYLOAD {
        return Err(oversize(payload.len()));
    }
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.extend_from_slice(&version.to_be_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_be_bytes());
    Ok(out)
}

/// The write path, stated once: `window` is cleared and the frame built
/// in it — a counting pass gives the length field, the header goes in
/// first, the payload is marshaled behind it with the CRC folded in as
/// bytes are produced, then the CRC trailer. Given `out`, a frame of up to
/// `cap` bytes is written to it in one piece at the end, a larger one each
/// time the window holds [`DEFAULT_STREAM_CHUNK`] bytes (at most `cap`)
/// and once more at the end; without, the window keeps the whole frame.
/// Returns the frame's length on the wire.
///
/// A payload over [`MAX_FRAME_PAYLOAD`] fails before a byte is written.
pub(crate) fn write_frame<'a, B: Body + ?Sized>(
    body: &B,
    version: u32,
    window: &'a mut Vec<u8>,
    cap: usize,
    out: Option<&'a mut dyn Write>,
) -> Result<u64> {
    window.clear();
    let payload_len = body.encoded_len(version);
    if payload_len > MAX_FRAME_PAYLOAD as u64 {
        return Err(oversize(payload_len as usize));
    }
    for word in [MAGIC, version, payload_len as u32] {
        window.extend_from_slice(&word.to_be_bytes());
    }
    // A frame past the window leaves in read-window pieces, so the peer
    // decodes each while the next is encoded: 1 MiB pieces left it idle
    // for as long as one took to encode (EXPERIMENTS "One frame writer").
    let frame_len = HEADER_LEN + payload_len as usize + 4;
    let cap = if frame_len <= cap { cap } else { cap.min(DEFAULT_STREAM_CHUNK) };
    let mut e = Encoder::window(window, cap, out).with_crc();
    body.encode_body(&mut e, version);
    let written = (e.len() - HEADER_LEN) as u64;
    if written != payload_len {
        // The header already announced the counted length; the counting
        // and window sinks share encode_body, so this can only mean memory
        // corruption — fail loudly.
        return Err(NetSolveError::Internal(format!(
            "payload wrote {written} bytes, counted {payload_len}"
        )));
    }
    let crc = e.crc().expect("crc tracking enabled");
    e.put_u32(crc);
    e.finish()
}

/// Build one frame in `buf` (cleared first): the write path with an
/// unbounded window and no writer, for transports that hand over whole
/// frames. `body` is a [`Message`] or a borrowed view of one. An oversize
/// payload fails and leaves `buf` empty.
pub fn encode_frame_into<B: Body + ?Sized>(body: &B, buf: &mut Vec<u8>) -> Result<()> {
    write_frame(body, VERSION, buf, usize::MAX, None).map(drop)
}

/// Write one frame through a fresh window of `chunk` bytes: what a
/// [`FrameWriter`] does with its warm window, at the price of a new one
/// per call. Returns the bytes written (header + payload + CRC).
pub fn write_message_streamed<B: Body + ?Sized>(
    w: &mut impl Write,
    body: &B,
    chunk: usize,
) -> Result<u64> {
    FrameWriter::with_window(chunk).write_to(w, body)
}

/// Validate a frame header's three words: magic, version window (counting
/// downgrades), and the payload-length cap. Returns the sender's version
/// and the payload length.
fn validate_header(magic: u32, version: u32, len: u32) -> Result<(u32, usize)> {
    if magic != MAGIC {
        return Err(NetSolveError::Protocol(format!(
            "bad frame magic {magic:#010x}"
        )));
    }
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(NetSolveError::Protocol(format!(
            "unsupported protocol version {version} (supported {MIN_VERSION}..={VERSION})"
        )));
    }
    if version < VERSION {
        VERSION_DOWNGRADES.fetch_add(1, Ordering::Relaxed);
    }
    if len as usize > MAX_FRAME_PAYLOAD {
        return Err(oversize(len as usize));
    }
    Ok((version, len as usize))
}

/// The read path, stated once: a frame is three extents of one decoder,
/// the trailer announced behind the payload so a reader source fetches
/// both with one read when they fit its window. Returns the message and
/// the frame's length on the wire.
fn read_frame(d: &mut Decoder<'_>) -> Result<(Message, usize)> {
    d.limit(HEADER_LEN, 0);
    let (version, len) = validate_header(d.get_u32()?, d.get_u32()?, d.get_u32()?)?;
    d.limit(len, 4);
    let outcome = Message::decode_body(d, version).and_then(|msg| d.finish().map(|()| msg));
    // Whatever decode did, pull the rest of the payload so the stream
    // stays framed and the CRC covers every byte.
    d.drain()?;
    let computed = d.crc();
    d.limit(4, 0);
    let expected = d.get_u32()?;
    // The CRC verdict outranks any decode error: garbled bytes that also
    // broke decoding are corruption, not a protocol violation. Corrupt,
    // not Protocol: a damaged frame is a transient link fault and the
    // request is safe to retry elsewhere.
    if computed != expected {
        return Err(NetSolveError::Corrupt(format!(
            "frame checksum mismatch: computed {computed:#010x}, expected {expected:#010x}"
        )));
    }
    Ok((outcome?, HEADER_LEN + len + 4))
}

/// Parse one frame from an in-memory buffer, returning the message and how
/// many bytes were consumed. The decoder's window is `buf` itself, so the
/// payload is never copied into an intermediate buffer; a buffer that ends
/// before the frame does is a transport fault, as on a socket. This is the
/// route the in-process transport (which hands over whole frames) rides.
pub fn parse_frame(buf: &[u8]) -> Result<(Message, usize)> {
    read_frame(&mut Decoder::new(buf))
}

/// Per-connection frame reader with bounded memory: every frame, small or
/// large, is decoded through one reused window of at most
/// [`DEFAULT_STREAM_CHUNK`] bytes that grows only to what has actually
/// been asked of it — a connection that only ever sees 100-byte replies
/// never holds more than that. Per-connection buffering is the window
/// (plus the decoded message itself), never the payload size.
#[derive(Debug)]
pub struct FrameReader {
    window: Vec<u8>,
    chunk: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        Self::with_window(DEFAULT_STREAM_CHUNK)
    }
}

impl FrameReader {
    /// Reader with a window other than the default: tests shrink it so
    /// that items straddle refills.
    pub(crate) fn with_window(chunk: usize) -> Self {
        FrameReader {
            window: Vec::new(),
            chunk,
        }
    }

    /// Read one framed message from `r`.
    pub fn read_from(&mut self, r: &mut impl Read) -> Result<Message> {
        read_frame(&mut Decoder::reading(r, &mut self.window, self.chunk)).map(|(msg, _)| msg)
    }

    /// This reader's own buffering: the window's allocation.
    pub fn buffered_capacity(&self) -> usize {
        self.window.capacity()
    }
}

/// Per-connection frame writer, the twin of [`FrameReader`]: every frame
/// goes out through one reused window of at most a header, a
/// [`DEFAULT_STREAM_THRESHOLD`] payload and the CRC trailer, so a frame
/// that fits leaves in one write and a larger one, which never exists
/// whole, [`DEFAULT_STREAM_CHUNK`] at a time. The window grows only to
/// what frames have needed and stays warm: a steady-state send allocates
/// nothing.
#[derive(Debug)]
pub struct FrameWriter {
    window: Vec<u8>,
    cap: usize,
}

impl Default for FrameWriter {
    fn default() -> Self {
        Self::with_window(HEADER_LEN + DEFAULT_STREAM_THRESHOLD + 4)
    }
}

impl FrameWriter {
    /// Writer whose window holds `cap` bytes (floored to 64):
    /// [`write_message_streamed`]'s chunk, or a test's small window.
    pub(crate) fn with_window(cap: usize) -> Self {
        FrameWriter {
            window: Vec::new(),
            cap,
        }
    }

    /// Write one framed message (or view of one) to `w`. Returns the bytes
    /// written (header + payload + CRC).
    pub fn write_to<B: Body + ?Sized>(&mut self, w: &mut impl Write, body: &B) -> Result<u64> {
        let n = write_frame(body, VERSION, &mut self.window, self.cap, Some(&mut *w))?;
        w.flush()?;
        Ok(n)
    }

    /// This writer's own buffering: the window's allocation.
    pub fn buffered_capacity(&self) -> usize {
        self.window.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test shorthand: the reference encoding at the current version of
    /// a message that is known to fit the cap.
    fn frame_ok(msg: &Message) -> Vec<u8> {
        frame_bytes_versioned(msg, VERSION).unwrap()
    }

    #[test]
    fn roundtrip_through_buffer() {
        let msgs = vec![
            Message::Ping,
            Message::WorkloadReport { server_id: 3, workload: 55.0 },
            Message::Error { code: 7, detail: "x".into() },
        ];
        let (mut buf, mut writer) = (Vec::new(), FrameWriter::default());
        for m in &msgs {
            writer.write_to(&mut buf, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(buf);
        let mut reader = FrameReader::default();
        for m in &msgs {
            let got = reader.read_from(&mut cursor).unwrap();
            assert_eq!(&got, m);
        }
        // Stream exhausted → transport error, not a hang or panic.
        assert!(matches!(reader.read_from(&mut cursor), Err(NetSolveError::Transport(_))));
    }

    /// A frame around an arbitrary payload, header and CRC honest.
    fn frame_around(payload: &[u8]) -> Vec<u8> {
        let mut wire = Vec::new();
        for word in [MAGIC, VERSION, payload.len() as u32] {
            wire.extend_from_slice(&word.to_be_bytes());
        }
        wire.extend_from_slice(payload);
        wire.extend_from_slice(&crc32(payload).to_be_bytes());
        wire
    }

    /// Both sources of the one read path over the same bytes: the slice
    /// (`parse_frame`) and a reader through a `window`-byte chunk buffer.
    fn read_both(wire: &[u8], window: usize) -> [Result<Message>; 2] {
        [
            parse_frame(wire).map(|(msg, _)| msg),
            FrameReader::with_window(window).read_from(&mut &wire[..]),
        ]
    }

    /// What each kind of bad frame is reported as — the classes (and the
    /// words operators grep logs for) that the two decoders and three read
    /// routes this path replaced agreed on, asserted per source.
    #[test]
    fn error_classes_are_the_same_from_both_sources() {
        use NetSolveError::{Corrupt, Protocol, Transport};
        let catalogue = Message::ProblemCatalogue {
            names: vec!["dgesv".into()],
        };
        let edit = |msg: &Message, at: usize, bytes: &[u8]| {
            let mut wire = frame_ok(msg);
            wire[at..at + bytes.len()].copy_from_slice(bytes);
            wire
        };
        let mut flipped = frame_ok(&catalogue);
        flipped[HEADER_LEN + 5] ^= 0x40;
        let mut trailing = Message::Ping.encode();
        trailing.extend_from_slice(&[0; 4]);
        // ProblemDescription whose string claims 300 MiB.
        let mut oversize_item = Encoder::new();
        oversize_item.put_u32(9);
        oversize_item.put_u32(300 * 1024 * 1024);
        let full = frame_ok(&catalogue);

        type Class = fn(&NetSolveError) -> bool;
        let cases: [(&str, Vec<u8>, Class, &str); 9] = [
            (
                "bad magic",
                edit(&Message::Ping, 0, b"X"),
                |e| matches!(e, Protocol(_)),
                "magic",
            ),
            (
                "bad version",
                edit(&Message::Ping, 7, &[99]),
                |e| matches!(e, Protocol(_)),
                "version",
            ),
            (
                "oversize length",
                edit(&Message::Ping, 8, &u32::MAX.to_be_bytes()),
                |e| matches!(e, Protocol(_)),
                "cap",
            ),
            ("no header", vec![], |e| matches!(e, Transport(_)), "closed"),
            (
                "short header",
                full[..6].to_vec(),
                |e| matches!(e, Transport(_)),
                "closed",
            ),
            (
                "mid-frame close",
                full[..full.len() - 5].to_vec(),
                |e| matches!(e, Transport(_)),
                "closed",
            ),
            (
                "CRC mismatch",
                flipped,
                |e| matches!(e, Corrupt(_)),
                "checksum",
            ),
            (
                "trailing bytes",
                frame_around(&trailing),
                |e| matches!(e, Protocol(_)),
                "trailing",
            ),
            (
                "oversize item",
                frame_around(oversize_item.as_bytes()),
                |e| matches!(e, Protocol(_)),
                "exceeds limit",
            ),
        ];
        for (name, wire, class, word) in cases {
            for (source, outcome) in ["slice", "reader"].iter().zip(read_both(&wire, 64)) {
                let err = outcome.expect_err(name);
                assert!(
                    class(&err) && err.to_string().contains(word),
                    "{name} from a {source}: {err:?}"
                );
            }
        }
    }

    /// The CRC trailer inside, exactly after and beyond the window: for
    /// each payload length a clean frame decodes (and leaves the stream
    /// framed for the next one), every single-byte payload flip is
    /// `Corrupt` — also when it breaks decoding first — and a cut anywhere
    /// is a transport fault.
    #[test]
    fn frames_around_the_window_edge_decode_corrupt_and_cut_alike() {
        const WINDOW: usize = 64;
        for len in [0, 4, WINDOW - 4, WINDOW, WINDOW + 4, 2 * WINDOW + 12] {
            // A payload of exactly `len` bytes; 0 is no message at all.
            let msg = match len {
                0 => None,
                4 => Some(Message::Ping),
                _ => Some(Message::Error {
                    code: 7,
                    detail: "e".repeat(len - 12),
                }),
            };
            let payload = msg.as_ref().map_or(vec![], Message::encode);
            assert_eq!(payload.len(), len);
            let mut wire = frame_around(&payload);
            let frame_len = wire.len();
            wire.extend_from_slice(&frame_ok(&Message::Pong));

            let (got, used) = match parse_frame(&wire) {
                Ok((got, used)) => (Some(got), used),
                Err(NetSolveError::Protocol(_)) if msg.is_none() => (None, frame_len),
                Err(e) => panic!("payload {len} from a slice: {e}"),
            };
            assert_eq!((got, used), (msg.clone(), frame_len));
            let mut reader = FrameReader::with_window(WINDOW);
            let mut stream = &wire[..];
            match reader.read_from(&mut stream) {
                Ok(got) => assert_eq!(Some(got), msg),
                Err(NetSolveError::Protocol(_)) if msg.is_none() => {}
                Err(e) => panic!("payload {len} from a reader: {e}"),
            }
            assert_eq!(
                reader.read_from(&mut stream).unwrap(),
                Message::Pong,
                "payload {len}"
            );
            assert!(reader.buffered_capacity() <= WINDOW);

            for at in HEADER_LEN..HEADER_LEN + len {
                let mut bad = wire[..frame_len].to_vec();
                bad[at] ^= 0x10;
                for outcome in read_both(&bad, WINDOW) {
                    assert!(
                        matches!(outcome, Err(NetSolveError::Corrupt(_))),
                        "payload {len}, flip at {at}: {outcome:?}"
                    );
                }
            }
            for cut in 0..frame_len {
                for outcome in read_both(&wire[..cut], WINDOW) {
                    assert!(
                        matches!(outcome, Err(NetSolveError::Transport(_))),
                        "payload {len}, cut at {cut}: {outcome:?}"
                    );
                }
            }
        }
    }

    /// Seeded-random fuzz of the frame reader: whatever bytes arrive, the
    /// reader must return a clean error or the original message — never
    /// panic, hang, or hand back a silently different message.
    mod fuzz {
        use super::*;
        use netsolve_core::rng::Rng64;

        fn subjects() -> Vec<Message> {
            vec![
                Message::Ping,
                Message::WorkloadReport { server_id: 9, workload: 12.5 },
                Message::RequestSubmit {
                    request_id: 77,
                    deadline_ms: 1_500,
                    trace_id: 0x1111_2222_3333_4444_5555_6666_7777_8888,
                    parent_span: 12,
                    problem: "dgesv".into(),
                    inputs: vec![vec![1.0f64, -2.0, 3.5].into()],
                },
                Message::ProblemCatalogue {
                    names: vec!["dgesv".into(), "dgemm".into(), "integrate".into()],
                },
                Message::Error { code: 4, detail: "execution failed".into() },
            ]
        }

        #[test]
        fn truncations_always_error_cleanly() {
            let mut rng = Rng64::new(0xF0A2);
            for msg in subjects() {
                let bytes = frame_ok(&msg);
                for _ in 0..200 {
                    let cut = rng.below(bytes.len()); // strictly short
                    assert!(
                        parse_frame(&bytes[..cut]).is_err(),
                        "truncated frame (cut={cut}) parsed as valid"
                    );
                }
            }
        }

        #[test]
        fn byte_flips_anywhere_never_yield_a_different_message() {
            let mut rng = Rng64::new(0xBEEF);
            for msg in subjects() {
                let clean = frame_ok(&msg);
                for _ in 0..300 {
                    let mut bytes = clean.clone();
                    let idx = rng.below(bytes.len());
                    let flip = 1u8 << rng.below(8);
                    bytes[idx] ^= flip;
                    match parse_frame(&bytes) {
                        // A flip may only be invisible if the decoded
                        // message is unchanged. Payload flips can't get
                        // here (CRC, short of a collision); a version-byte
                        // flip can land inside the tolerance window
                        // (3 → 2 or 1) where the header is legitimately
                        // accepted, but then the payload must still decode
                        // to the identical message or fail.
                        Ok((got, _)) if got == msg => {}
                        Ok((got, _)) => panic!(
                            "flipped bit {flip:#04x} at byte {idx} escaped \
                             validation, decoded {got:?}"
                        ),
                        Err(
                            NetSolveError::Protocol(_)
                            | NetSolveError::Corrupt(_)
                            | NetSolveError::Transport(_),
                        ) => {}
                        Err(other) => panic!("unexpected error class: {other}"),
                    }
                }
            }
        }

        #[test]
        fn oversized_lengths_rejected_without_allocation() {
            let mut rng = Rng64::new(0x51CE);
            let clean = frame_ok(&Message::Ping);
            for _ in 0..200 {
                let mut bytes = clean.clone();
                let len = MAX_FRAME_PAYLOAD as u64
                    + 1
                    + rng.below((u32::MAX as usize) - MAX_FRAME_PAYLOAD) as u64;
                bytes[8..12].copy_from_slice(&(len as u32).to_be_bytes());
                assert!(matches!(
                    parse_frame(&bytes),
                    Err(NetSolveError::Protocol(m)) if m.contains("cap")
                ));
            }
        }

        #[test]
        fn random_garbage_never_panics() {
            let mut rng = Rng64::new(0x6A12_0B4D);
            for _ in 0..500 {
                let len = rng.below(256);
                let garbage: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                // Valid garbage would need magic, version and a CRC match.
                assert!(parse_frame(&garbage).is_err());
            }
        }

        #[test]
        fn garbage_magic_with_valid_tail_rejected() {
            let mut rng = Rng64::new(0xA117);
            let clean = frame_ok(&Message::Pong);
            for _ in 0..200 {
                let mut bytes = clean.clone();
                let magic = rng.next_u64() as u32;
                if magic == MAGIC {
                    continue;
                }
                bytes[0..4].copy_from_slice(&magic.to_be_bytes());
                assert!(matches!(
                    parse_frame(&bytes),
                    Err(NetSolveError::Protocol(m)) if m.contains("magic")
                ));
            }
        }
    }

    #[test]
    fn parse_frame_reports_consumed_bytes() {
        let m1 = frame_ok(&Message::Ping);
        let m2 = frame_ok(&Message::Pong);
        let mut joined = m1.clone();
        joined.extend_from_slice(&m2);
        let (msg, used) = parse_frame(&joined).unwrap();
        assert_eq!(msg, Message::Ping);
        assert_eq!(used, m1.len());
        let (msg2, used2) = parse_frame(&joined[used..]).unwrap();
        assert_eq!(msg2, Message::Pong);
        assert_eq!(used2, m2.len());
    }

    /// The writer must be byte-for-byte identical to the reference
    /// encoder for every message shape — same header (exact counted
    /// length), same payload, same CRC — in memory and through windows
    /// that write out many times mid-payload or hold the whole frame.
    #[test]
    fn single_pass_writer_matches_reference_encoder() {
        let subjects = vec![
            Message::Ping,
            Message::Pong,
            Message::ListProblems,
            Message::WorkloadReport { server_id: 9, workload: 12.5 },
            Message::RequestSubmit {
                request_id: 77,
                deadline_ms: 1_500,
                trace_id: 0x9999_0000_0000_0001,
                parent_span: 6,
                problem: "dgesv".into(),
                inputs: vec![
                    vec![1.0f64, -2.0, 3.5].into(),
                    vec![0.25f64; 10_000].into(),
                    netsolve_core::DataObject::Text("rhs".into()),
                ],
            },
            Message::ProblemCatalogue {
                names: vec!["dgesv".into(), "dgemm".into(), "integrate".into()],
            },
            Message::Error { code: 4, detail: "execution failed".into() },
        ];
        let mut buf = Vec::new();
        for msg in &subjects {
            let reference = frame_ok(msg);
            encode_frame_into(msg, &mut buf).unwrap();
            assert_eq!(buf, reference, "frame mismatch for {}", msg.name());

            for mut writer in [FrameWriter::with_window(128), FrameWriter::default()] {
                let mut wire = Vec::new();
                let n = writer.write_to(&mut wire, msg).unwrap();
                assert_eq!(n as usize, wire.len());
                assert_eq!(wire, reference, "writer output mismatch for {}", msg.name());
            }
        }
    }

    /// A warm window keeps its allocation across sends instead of
    /// reallocating per frame, and a smaller frame does not shrink it.
    #[test]
    fn a_warm_window_is_reused_across_sends() {
        let big = Message::RequestSubmit {
            request_id: 1,
            deadline_ms: 0,
            trace_id: 0,
            parent_span: 0,
            problem: "dgemm".into(),
            inputs: vec![vec![0.5f64; 4096].into()],
        };
        let mut writer = FrameWriter::default();
        writer.write_to(&mut std::io::sink(), &big).unwrap();
        let (cap, ptr) = (writer.buffered_capacity(), writer.window.as_ptr());
        for msg in [&big, &big, &Message::Ping, &big] {
            writer.write_to(&mut std::io::sink(), msg).unwrap();
            assert_eq!((writer.buffered_capacity(), writer.window.as_ptr()), (cap, ptr));
        }
    }

    /// How a frame leaves: one write when it fits the window — exactly at
    /// the window's size too — and read-window pieces when it does not.
    #[test]
    fn a_frame_fits_the_window_in_one_write_or_leaves_in_read_windows() {
        struct Writes(Vec<usize>);
        impl Write for Writes {
            fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
                self.0.push(bytes.len());
                Ok(bytes.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let window = HEADER_LEN + DEFAULT_STREAM_THRESHOLD + 4;
        let mut writer = FrameWriter::default();
        for frame_len in [100, window, window + 4, 2 * window] {
            // An Error's payload is 12 bytes plus its detail.
            let msg = Message::Error {
                code: 1,
                detail: "e".repeat(frame_len - HEADER_LEN - 4 - 12),
            };
            let mut writes = Writes(Vec::new());
            writer.write_to(&mut writes, &msg).unwrap();
            let pieces = if frame_len <= window {
                vec![frame_len]
            } else {
                let mut pieces = vec![DEFAULT_STREAM_CHUNK; frame_len / DEFAULT_STREAM_CHUNK];
                pieces.push(frame_len % DEFAULT_STREAM_CHUNK);
                pieces
            };
            assert_eq!(writes.0, pieces, "a {frame_len}-byte frame");
        }
    }

    /// Regression: the payload cap is enforced on the send side, before
    /// any bytes could hit a wire. Previously `payload.len() as u32`
    /// silently truncated the length field for huge payloads.
    #[test]
    fn oversize_payload_rejected_on_send() {
        // A PDL string one byte past the cap: string framing adds a
        // 4-byte length + padding on top, guaranteeing payload > cap.
        let msg = Message::ProblemDescription {
            pdl: "y".repeat(MAX_FRAME_PAYLOAD + 1),
        };
        assert!(matches!(
            frame_bytes_versioned(&msg, VERSION),
            Err(NetSolveError::Protocol(m)) if m.contains("cap")
        ));
        let mut scratch = Vec::new();
        assert!(matches!(
            encode_frame_into(&msg, &mut scratch),
            Err(NetSolveError::Protocol(m)) if m.contains("cap")
        ));
        // The failed frame must not leave a half-built header behind.
        assert!(scratch.is_empty());
        let mut wire = Vec::new();
        assert!(FrameWriter::default().write_to(&mut wire, &msg).is_err());
        assert!(wire.is_empty(), "no bytes may reach the wire");
    }

    /// Regression (lying header): a forged 12-byte header announcing a
    /// near-cap payload must not commit the announced allocation before
    /// payload bytes actually arrive. Previously the reader did
    /// `vec![0u8; len]` straight from the untrusted length — 512 MiB of
    /// zeroed memory per connection for 12 bytes of attacker traffic.
    #[test]
    fn lying_length_header_cannot_commit_memory_upfront() {
        // Header claims 256 MiB; only 40 bytes of payload follow.
        let claimed: usize = 256 * 1024 * 1024;
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC.to_be_bytes());
        wire.extend_from_slice(&VERSION.to_be_bytes());
        wire.extend_from_slice(&(claimed as u32).to_be_bytes());
        wire.extend_from_slice(&[0xAB; 40]);

        let mut fr = FrameReader::default();
        let err = fr.read_from(&mut &wire[..]).unwrap_err();
        assert!(
            matches!(err, NetSolveError::Transport(_)),
            "truncated lying frame must be a transport error, got {err:?}"
        );
        // The window is all the reader holds, nowhere near the claimed
        // 256 MiB.
        assert!(
            fr.buffered_capacity() <= DEFAULT_STREAM_CHUNK,
            "lying header grew the reader buffer to {} bytes",
            fr.buffered_capacity()
        );
    }

    /// A multi-megabyte operand round-trips with bounded buffering: the
    /// reader never holds more than its window, so the frame never exists
    /// whole in memory — and a 100-byte frame on a fresh reader holds no
    /// more than the frame.
    #[test]
    fn large_frame_streams_with_bounded_buffering() {
        let elems = 4 * 1024 * 1024 / 8; // 4 MiB operand
        let msg = Message::RequestSubmit {
            request_id: 5,
            deadline_ms: 0,
            trace_id: 1,
            parent_span: 0,
            problem: "dgesv".into(),
            inputs: vec![(0..elems).map(|i| i as f64 * 0.5).collect::<Vec<f64>>().into()],
        };
        let mut wire = Vec::new();
        write_message_streamed(&mut wire, &msg, DEFAULT_STREAM_CHUNK).unwrap();

        let ping = frame_ok(&Message::Ping);
        let mut fr = FrameReader::default();
        assert_eq!(fr.read_from(&mut &ping[..]).unwrap(), Message::Ping);
        assert!(
            fr.buffered_capacity() <= ping.len(),
            "{} for a ping",
            fr.buffered_capacity()
        );

        assert_eq!(fr.read_from(&mut &wire[..]).unwrap(), msg);
        assert!(
            fr.buffered_capacity() <= DEFAULT_STREAM_CHUNK,
            "reader buffered {} bytes for a {} byte frame",
            fr.buffered_capacity(),
            wire.len()
        );

        // A small frame after the large one reuses the same window.
        assert_eq!(fr.read_from(&mut &ping[..]).unwrap(), Message::Ping);
        assert!(fr.buffered_capacity() <= DEFAULT_STREAM_CHUNK);
    }

    /// Corruption anywhere in a many-window frame's payload must surface
    /// as `Corrupt` — even when the garbled bytes also break field
    /// decoding, the CRC verdict outranks the decode error (the
    /// chaos-transport guarantee).
    #[test]
    fn streamed_route_reports_corruption_over_decode_errors() {
        use netsolve_core::rng::Rng64;
        let msg = Message::RequestSubmit {
            request_id: 8,
            deadline_ms: 0,
            trace_id: 0,
            parent_span: 0,
            problem: "dgemm".into(),
            inputs: vec![vec![1.5f64; 64 * 1024].into()], // 512 KiB operand
        };
        let mut clean = Vec::new();
        write_message_streamed(&mut clean, &msg, 4096).unwrap();
        let payload_len = clean.len() - HEADER_LEN - 4;

        let mut rng = Rng64::new(0xC0FF_EE00);
        for _ in 0..50 {
            let mut wire = clean.clone();
            let idx = HEADER_LEN + rng.below(payload_len);
            wire[idx] ^= 1u8 << rng.below(8);
            let mut fr = FrameReader::with_window(4096);
            let mut cur = std::io::Cursor::new(&wire[..]);
            match fr.read_from(&mut cur) {
                Err(NetSolveError::Corrupt(_)) => {}
                other => panic!(
                    "flip at payload byte {} escaped the CRC verdict: {other:?}",
                    idx - HEADER_LEN
                ),
            }
        }
    }

    /// A frame truncated mid-window errors cleanly as a transport fault
    /// (peer died), never a hang, panic, or silent partial decode.
    #[test]
    fn streamed_route_handles_truncated_chunks() {
        use netsolve_core::rng::Rng64;
        let msg = Message::RequestSubmit {
            request_id: 9,
            deadline_ms: 0,
            trace_id: 0,
            parent_span: 0,
            problem: "dgesv".into(),
            inputs: vec![vec![2.5f64; 32 * 1024].into()],
        };
        let mut clean = Vec::new();
        write_message_streamed(&mut clean, &msg, 4096).unwrap();
        let mut rng = Rng64::new(0x7121_CA7E);
        for _ in 0..40 {
            let cut = HEADER_LEN + rng.below(clean.len() - HEADER_LEN);
            let mut fr = FrameReader::with_window(4096);
            let mut cur = std::io::Cursor::new(&clean[..cut]);
            assert!(
                matches!(fr.read_from(&mut cur), Err(NetSolveError::Transport(_))),
                "truncated frame (cut={cut}) was not a transport fault"
            );
        }
    }

    /// Version tolerance: a v1 peer's `RequestSubmit` (no `deadline_ms`
    /// field) decodes cleanly with the deadline defaulted, and the
    /// downgrade is counted.
    #[test]
    fn v1_frames_decode_with_defaulted_fields() {
        let msg = Message::RequestSubmit {
            request_id: 42,
            deadline_ms: 9_999, // dropped by the v1 encoding
            trace_id: 0xdead_beef, // likewise
            parent_span: 17,
            problem: "dgesv".into(),
            inputs: vec![vec![1.0f64, 2.0].into()],
        };
        let v1 = frame_bytes_versioned(&msg, 1).unwrap();
        let before = version_downgrades();
        let (decoded, used) = parse_frame(&v1).unwrap();
        assert_eq!(used, v1.len());
        assert!(version_downgrades() > before, "downgrade not counted");
        match decoded {
            Message::RequestSubmit { request_id, deadline_ms, trace_id, parent_span, problem, inputs } => {
                assert_eq!(request_id, 42);
                assert_eq!(deadline_ms, 0, "v1 has no deadline; defaults to 0");
                assert_eq!(trace_id, 0, "v1 has no trace context");
                assert_eq!(parent_span, 0);
                assert_eq!(problem, "dgesv");
                assert_eq!(inputs, vec![vec![1.0f64, 2.0].into()]);
            }
            other => panic!("decoded wrong variant: {other:?}"),
        }
        // Version-independent messages round-trip exactly at v1.
        let ping_v1 = frame_bytes_versioned(&Message::Ping, 1).unwrap();
        assert_eq!(parse_frame(&ping_v1).unwrap().0, Message::Ping);
    }

    /// Version tolerance one step back: a v2 peer's `RequestSubmit`
    /// keeps its deadline but decodes with zeroed trace context, and
    /// the downgrade is counted.
    #[test]
    fn v2_frames_decode_with_zeroed_trace_context() {
        let msg = Message::RequestSubmit {
            request_id: 43,
            deadline_ms: 1_500,
            trace_id: 0xfeed_f00d, // dropped by the v2 encoding
            parent_span: 21,
            problem: "ddot".into(),
            inputs: vec![vec![4.0f64].into()],
        };
        let v2 = frame_bytes_versioned(&msg, 2).unwrap();
        let before = version_downgrades();
        let (decoded, _) = parse_frame(&v2).unwrap();
        assert!(version_downgrades() > before, "downgrade not counted");
        match decoded {
            Message::RequestSubmit { deadline_ms, trace_id, parent_span, .. } => {
                assert_eq!(deadline_ms, 1_500, "v2 keeps the deadline");
                assert_eq!(trace_id, 0, "v2 has no trace context");
                assert_eq!(parent_span, 0);
            }
            other => panic!("decoded wrong variant: {other:?}"),
        }
    }

    /// v3 frames still round-trip exactly (deadline and trace context
    /// preserved), and versions outside `MIN_VERSION..=VERSION` are
    /// rejected.
    #[test]
    fn version_window_enforced() {
        let msg = Message::RequestSubmit {
            request_id: 7,
            deadline_ms: 1_234,
            trace_id: 0xabc0_0000_0000_0000_0000_0000_0000_0007,
            parent_span: 3,
            problem: "dgemm".into(),
            inputs: vec![],
        };
        let v3 = frame_ok(&msg);
        assert_eq!(parse_frame(&v3).unwrap().0, msg);

        for bad in [0u32, VERSION + 1, 99] {
            let mut bytes = frame_ok(&Message::Ping);
            bytes[4..8].copy_from_slice(&bad.to_be_bytes());
            assert!(
                matches!(
                    parse_frame(&bytes),
                    Err(NetSolveError::Protocol(m)) if m.contains("version")
                ),
                "version {bad} must be rejected"
            );
        }
    }
}
