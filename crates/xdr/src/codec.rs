//! The XDR-style primitive codec.
//!
//! NetSolve predates ubiquitous serialization frameworks; its peers spoke a
//! Sun-XDR-flavoured format. We reproduce that discipline by hand:
//!
//! * big-endian ("network order") integers and IEEE-754 doubles;
//! * every item padded to a 4-byte boundary;
//! * variable-length data (strings, arrays, opaques) prefixed with a `u32`
//!   count;
//! * strict, bounds-checked decoding with fixed size limits so a malicious
//!   or corrupt peer cannot force huge allocations.
//!
//! The encoder is built for the wire hot path: it can own its buffer
//! ([`Encoder::new`]) or write through a window
//! onto a caller's buffer ([`Encoder::window`]) that is reused across
//! messages and, given an `io::Write`, written out each time it fills —
//! so a multi-megabyte operand never needs a contiguous frame buffer on
//! the send side ([`Encoder::borrowing`] is the window without a writer,
//! which keeps everything). It byte-swaps `f64`/`u64` arrays in bulk into
//! pre-sized space instead of appending element by element, and it can
//! fold a CRC-32 over everything it writes ([`Encoder::with_crc`]) so the
//! framing layer never needs a second pass over the payload. A counting
//! sink ([`Encoder::counting`]) computes the exact encoded length in
//! O(fields) without materializing a byte (bulk array puts just add
//! `8 * len`): the frame writer's length field, known before the payload.
//!
//! The decoder mirrors this: one [`Decoder`] reads through a window it can
//! refill — the input slice itself when the bytes are already in memory, a
//! bounded chunk buffer when they come off an `io::Read`, so decode can
//! begin before the whole operand has arrived — and converts each array
//! into pre-sized space, one pass of the byte-order loop per run of the
//! window, the one wire→solver copy. Both directions share those loops
//! (`be64`: SSSE3 `pshufb` where the CPU has it).

use std::io::{Read, Write};

use netsolve_core::error::{NetSolveError, Result};

use crate::be64::{self, Word};
use crate::checksum::Crc32;

/// Default cap on any single variable-length item (256 MiB) — large enough
/// for the biggest experiment matrices, small enough to bound allocation on
/// corrupt input.
pub const DEFAULT_MAX_ITEM_BYTES: usize = 256 * 1024 * 1024;

/// Initial allocation granted to a variable-length item before its bytes
/// have actually arrived (64 KiB). A lying length header can therefore
/// commit at most this much memory up front; real data grows the buffer
/// only as it is read.
pub const STREAM_INIT_ALLOC: usize = 64 * 1024;

/// Stack-block size for streaming bulk array conversion (4 KiB = 512
/// elements per block).
const BULK_BLOCK_BYTES: usize = 4096;

fn pad_len(n: usize) -> usize {
    (4 - (n % 4)) % 4
}

/// A window onto the bytes being produced: a caller-owned buffer that is
/// written out to `out` each time it holds `cap` bytes, and whose
/// allocation never grows past `cap`. Without a writer nothing is written
/// out and `cap` is unbounded: the buffer keeps everything. Write errors
/// are deferred into `err` (the put_* API is infallible) and surfaced by
/// [`Encoder::finish`].
struct WindowSink<'a> {
    buf: &'a mut Vec<u8>,
    cap: usize,
    out: Option<&'a mut dyn Write>,
    /// Bytes that have left the window (written out, or dropped after a
    /// write error).
    flushed: u64,
    err: Option<std::io::Error>,
}

impl std::fmt::Debug for WindowSink<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowSink")
            .field("held", &self.buf.len())
            .field("cap", &self.cap)
            .field("flushed", &self.flushed)
            .field("err", &self.err)
            .finish()
    }
}

impl WindowSink<'_> {
    /// Bytes that still fit before the window must be written out.
    fn room(&self) -> usize {
        self.cap - self.buf.len()
    }

    /// Make the allocation hold `n` more bytes: doubling, but never past
    /// `cap`, so a warm window is exactly as large as it ever needed.
    fn reserve(&mut self, n: usize) {
        let need = self.buf.len() + n;
        if self.buf.capacity() < need {
            let target = (2 * self.buf.capacity()).max(need).min(self.cap);
            self.buf.reserve_exact(target - self.buf.len());
        }
    }

    /// Append `bytes`, writing the window out each time it fills.
    fn put(&mut self, mut bytes: &[u8]) {
        while bytes.len() > self.room() {
            let (now, rest) = bytes.split_at(self.room());
            self.reserve(now.len());
            self.buf.extend_from_slice(now);
            self.write_out();
            bytes = rest;
        }
        self.reserve(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Hand what the window holds to the writer (none: keep it).
    fn write_out(&mut self) {
        let Some(out) = self.out.as_mut() else { return };
        if self.err.is_none() {
            if let Err(e) = out.write_all(self.buf) {
                self.err = Some(e);
            }
        }
        self.flushed += self.buf.len() as u64;
        self.buf.clear();
    }
}

/// The encoder's output: an owned buffer, a window onto a caller's buffer
/// (kept whole, or written out to an `io::Write` as it fills), or a pure
/// byte counter (length precompute).
#[derive(Debug)]
enum Buf<'a> {
    Owned(Vec<u8>),
    Window(WindowSink<'a>),
    Count(u64),
}

/// Append-only XDR encoder over an owned buffer, a window or a counter.
#[derive(Debug)]
pub struct Encoder<'a> {
    buf: Buf<'a>,
    /// When present, every byte appended through this encoder is folded
    /// into the accumulator as it is written (single-pass CRC).
    crc: Option<Crc32>,
}

impl Encoder<'static> {
    /// Empty encoder with a fresh owned buffer.
    pub fn new() -> Self {
        Encoder { buf: Buf::Owned(Vec::new()), crc: None }
    }

    /// Encoder with pre-reserved capacity (hot path for large payloads).
    pub fn with_capacity(cap: usize) -> Self {
        Encoder { buf: Buf::Owned(Vec::with_capacity(cap)), crc: None }
    }

    /// Encoder that materializes nothing: every put only advances a byte
    /// counter ([`Encoder::count`]). Bulk array puts cost O(1), so running
    /// a whole message through a counting encoder is O(fields) — this is
    /// how the frame writer learns the length field it must send before
    /// the payload.
    pub fn counting() -> Self {
        Encoder { buf: Buf::Count(0), crc: None }
    }
}

impl Default for Encoder<'static> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> Encoder<'a> {
    /// Encoder that appends to a borrowed scratch buffer (contents already
    /// present are kept). Dropping the encoder leaves the encoded bytes in
    /// place; the caller keeps the allocation. This is
    /// [`Encoder::window`] with no writer.
    pub fn borrowing(buf: &'a mut Vec<u8>) -> Encoder<'a> {
        Self::window(buf, usize::MAX, None)
    }

    /// Encoder that appends to `buf` and, given a writer, writes it out
    /// each time it holds `cap` bytes (floored to 64), so any payload
    /// costs at most `cap` bytes of memory and a warm `buf` is reused
    /// without allocating. Bytes already in `buf` are kept and leave with
    /// the first write. Write errors are held back (the put_* API stays
    /// infallible) and reported by [`Encoder::finish`], which writes out
    /// the rest. Without a writer `cap` is ignored and `buf` keeps
    /// everything.
    pub fn window(
        buf: &'a mut Vec<u8>,
        cap: usize,
        out: Option<&'a mut dyn Write>,
    ) -> Encoder<'a> {
        let cap = if out.is_some() { cap.max(64) } else { usize::MAX };
        let window = WindowSink { buf, cap, out, flushed: 0, err: None };
        Encoder { buf: Buf::Window(window), crc: None }
    }

    /// Write out what a window still holds and return the bytes produced
    /// (as [`Encoder::len`]), or the first write error the window met.
    /// Without a writer nothing is written: the bytes stay in the buffer.
    pub fn finish(self) -> Result<u64> {
        let produced = self.len() as u64;
        if let Buf::Window(mut w) = self.buf {
            w.write_out();
            if let Some(e) = w.err {
                return Err(NetSolveError::from(e));
            }
        }
        Ok(produced)
    }

    /// Bytes counted by a [`Encoder::counting`] encoder.
    pub fn count(&self) -> u64 {
        match &self.buf {
            Buf::Count(n) => *n,
            other => {
                debug_assert!(false, "count() on non-counting encoder {other:?}");
                0
            }
        }
    }

    /// Fold a CRC-32 over every byte appended from this point on. The
    /// running value is readable via [`Encoder::crc`].
    pub fn with_crc(mut self) -> Self {
        self.crc = Some(Crc32::new());
        self
    }

    /// Final CRC-32 of the bytes appended since [`Encoder::with_crc`], or
    /// `None` when CRC tracking is off.
    pub fn crc(&self) -> Option<u32> {
        self.crc.map(Crc32::finish)
    }

    /// Append raw bytes, updating the CRC accumulator if enabled. Every
    /// put funnels through here except a bulk array converted in place.
    fn append(&mut self, bytes: &[u8]) {
        if let Some(c) = self.crc.as_mut() {
            c.write(bytes);
        }
        match &mut self.buf {
            Buf::Owned(v) => v.extend_from_slice(bytes),
            Buf::Window(w) => w.put(bytes),
            Buf::Count(n) => *n += bytes.len() as u64,
        }
    }

    /// Bytes produced so far (including any bytes that were already
    /// present when a borrowed buffer was attached, and bytes a window
    /// has already written out).
    pub fn len(&self) -> usize {
        match &self.buf {
            Buf::Owned(v) => v.len(),
            Buf::Window(w) => w.flushed as usize + w.buf.len(),
            Buf::Count(n) => *n as usize,
        }
    }

    /// True if no bytes have been produced.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish and take the encoded bytes. For a window this moves what it
    /// holds out of the caller's buffer (leaving it empty); prefer
    /// dropping the encoder instead when the caller wants the bytes to
    /// stay there. Panics on a counting encoder, which holds no bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        match self.buf {
            Buf::Owned(v) => v,
            Buf::Window(w) => std::mem::take(w.buf),
            Buf::Count(_) => panic!("into_bytes on a counting encoder"),
        }
    }

    /// Borrow the encoded bytes (a window: the bytes it holds). Panics on
    /// a counting encoder.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.buf {
            Buf::Owned(v) => v,
            Buf::Window(w) => w.buf,
            Buf::Count(_) => panic!("as_bytes on a counting encoder"),
        }
    }

    /// XDR unsigned int (4 bytes, big-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.append(&v.to_be_bytes());
    }

    /// XDR unsigned hyper (8 bytes).
    pub fn put_u64(&mut self, v: u64) {
        self.append(&v.to_be_bytes());
    }

    /// XDR hyper.
    pub fn put_i64(&mut self, v: i64) {
        self.append(&v.to_be_bytes());
    }

    /// XDR double (IEEE-754, big-endian).
    pub fn put_f64(&mut self, v: f64) {
        self.append(&v.to_bits().to_be_bytes());
    }

    /// XDR bool (a full 4-byte word, per the spec).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(v as u32);
    }

    /// Variable-length opaque: u32 count, bytes, zero padding to 4.
    pub fn put_opaque(&mut self, data: &[u8]) {
        self.put_u32(data.len() as u32);
        self.append(data);
        const PAD: [u8; 4] = [0; 4];
        self.append(&PAD[..pad_len(data.len())]);
    }

    /// XDR string: same wire shape as opaque, contents guaranteed UTF-8.
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque(s.as_bytes());
    }

    /// Variable-length array of doubles: u32 count then each element.
    /// Where the elements fit — an owned buffer, or what is left of a
    /// window — they are byte-swapped in bulk into pre-sized space: one
    /// resize plus one pass of the byte-order loop, not a capacity check
    /// per element. A counting sink advances by `8 * len` in O(1); an
    /// array larger than what is left of a window is converted block by
    /// block through a stack buffer and written out as the window fills.
    pub fn put_f64_array(&mut self, xs: &[f64]) {
        self.put_words(xs);
    }

    /// Variable-length array of u64 (used for sparse-matrix index arrays),
    /// laid out and converted as [`Encoder::put_f64_array`].
    pub fn put_u64_array(&mut self, xs: &[u64]) {
        self.put_words(xs);
    }

    fn put_words<T: Word>(&mut self, xs: &[T]) {
        self.put_u32(xs.len() as u32);
        let n = 8 * xs.len();
        let buf = match &mut self.buf {
            Buf::Count(c) => {
                *c += n as u64;
                return;
            }
            Buf::Owned(v) => v,
            Buf::Window(w) if n <= w.room() => {
                w.reserve(n);
                &mut *w.buf
            }
            Buf::Window(_) => {
                let mut block = [0u8; BULK_BLOCK_BYTES];
                for chunk in xs.chunks(BULK_BLOCK_BYTES / 8) {
                    let bytes = &mut block[..chunk.len() * 8];
                    be64::encode(bytes, chunk);
                    self.append(bytes);
                }
                return;
            }
        };
        let start = buf.len();
        buf.resize(start + n, 0);
        be64::encode(&mut buf[start..], xs);
        if let Some(c) = self.crc.as_mut() {
            c.write(&buf[start..]);
        }
    }
}

/// Where a [`Decoder`]'s bytes come from: the window is what is in hand.
enum Window<'a> {
    /// The whole input is in memory: the window is the slice itself — no
    /// copy — and there is nothing to refill it from.
    Slice(&'a [u8]),
    /// A chunk buffer the caller owns and reuses: `buf[..end]` is in hand,
    /// refilled from `r` at most `cap` bytes at a time. `buf` is zeroed
    /// only where it grows, and grows only to what a refill asks for.
    Chunk {
        buf: &'a mut Vec<u8>,
        end: usize,
        r: &'a mut dyn Read,
        cap: usize,
    },
}

impl Window<'_> {
    fn bytes(&self) -> &[u8] {
        match self {
            Window::Slice(data) => data,
            Window::Chunk { buf, end, .. } => &buf[..*end],
        }
    }
}

/// The XDR decoder: bounds-checked reads of one *extent* — a declared
/// number of bytes — through a window it can refill. Over a slice
/// ([`Decoder::new`]) the window is the slice and the extent its length;
/// over an `io::Read` ([`Decoder::reading`]) the window is a bounded chunk
/// buffer, so decoding begins before a large operand has fully arrived and
/// memory stays at the chunk size plus what the decoded values need.
///
/// Every length read off the wire is checked against
/// [`DEFAULT_MAX_ITEM_BYTES`] and against [`Decoder::remaining`] before
/// anything is allocated, and an allocation starts no larger than
/// [`STREAM_INIT_ALLOC`] unless the bytes behind it are already in hand:
/// it grows only as they arrive.
pub struct Decoder<'a> {
    win: Window<'a>,
    /// Consumed prefix of the window.
    pos: usize,
    /// Prefix of the window already folded into `crc`.
    folded: usize,
    /// Bytes of the extent not yet consumed.
    left: usize,
    /// Bytes known to follow the extent on the source: a refill may pull
    /// them along instead of leaving them for a read of their own.
    ahead: usize,
    crc: Crc32,
}

/// Make room for `more` items in a vector that will end up holding
/// `total`: doubling, but never past `total`, so no allocation exceeds the
/// item being decoded.
fn grow_towards<T>(out: &mut Vec<T>, more: usize, total: usize) {
    if out.capacity() - out.len() < more {
        let target = (2 * out.len()).max(out.len() + more).min(total);
        out.reserve_exact(target.saturating_sub(out.len()));
    }
}

impl<'a> Decoder<'a> {
    /// Decoder over bytes in memory; the extent is all of them.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder {
            win: Window::Slice(data),
            pos: 0,
            folded: 0,
            left: data.len(),
            ahead: 0,
            crc: Crc32::new(),
        }
    }

    /// Decoder pulling from `r` through `window`, at most `chunk` bytes
    /// (floored to 64) at a time. The extent starts empty: declare each
    /// one with [`Decoder::limit`]; nothing past what it declares is read
    /// off `r`.
    pub fn reading(r: &'a mut dyn Read, window: &'a mut Vec<u8>, chunk: usize) -> Self {
        let win = Window::Chunk {
            buf: window,
            end: 0,
            r,
            cap: chunk.max(64),
        };
        Decoder {
            win,
            pos: 0,
            folded: 0,
            left: 0,
            ahead: 0,
            crc: Crc32::new(),
        }
    }

    /// Start a new extent of `n` bytes at the current position, and the
    /// CRC over it. A frame is three: header, payload, trailer. `ahead`
    /// says how many bytes are known to follow the extent on the source
    /// (a frame's trailer behind its payload): a refill may pull them into
    /// the window along with the extent's last bytes, saving them a read of
    /// their own; they are not decodable until an extent covers them. What
    /// was left of the previous extent stays unread: [`Decoder::drain`] it
    /// first to stay in step with the source.
    pub fn limit(&mut self, n: usize, ahead: usize) {
        self.left = n;
        self.ahead = ahead;
        self.folded = self.pos;
        self.crc = Crc32::new();
    }

    /// Bytes of the extent not yet consumed. Over a reader these are bytes
    /// a length field *declared*, not bytes that exist: a bound on what can
    /// still be decoded, never a size to allocate.
    pub fn remaining(&self) -> usize {
        self.left
    }

    /// Error unless the whole extent has been consumed — catches trailing
    /// garbage and messages that were truncated on encode.
    pub fn finish(&self) -> Result<()> {
        if self.left == 0 {
            Ok(())
        } else {
            Err(NetSolveError::Protocol(format!(
                "{} trailing bytes after decode",
                self.left
            )))
        }
    }

    /// Consume whatever is left of the extent, e.g. after a decode error,
    /// so the stream stays framed and the CRC covers every byte.
    pub fn drain(&mut self) -> Result<()> {
        self.consume(self.left, |_| {})
    }

    /// CRC-32 of the bytes consumed since the extent began; comparable to
    /// a frame's trailer once the payload extent is fully consumed.
    pub fn crc(&mut self) -> u32 {
        self.fold();
        self.crc.finish()
    }

    /// Fold what was consumed since the last fold into the CRC: in runs as
    /// long as the window allows, and only if someone asks ([`Decoder::crc`])
    /// or the bytes are about to be overwritten (`refill`).
    fn fold(&mut self) {
        self.crc.write(&self.win.bytes()[self.folded..self.pos]);
        self.folded = self.pos;
    }

    /// Replace the fully consumed window with the next bytes of the
    /// extent. A source that ends first — a peer hanging up, a slice
    /// shorter than a frame header said — is a transport fault, not a
    /// malformed message.
    fn refill(&mut self) -> Result<()> {
        self.fold();
        let left = self.left;
        let closed = || {
            NetSolveError::Transport(format!(
                "peer closed connection: {left} more bytes expected"
            ))
        };
        let Window::Chunk { buf, end, r, cap } = &mut self.win else {
            return Err(closed());
        };
        (self.pos, self.folded, *end) = (0, 0, 0);
        let want = left.saturating_add(self.ahead).min(*cap);
        if buf.len() < want {
            buf.reserve_exact(want - buf.len());
            buf.resize(want, 0);
        }
        *end = loop {
            match r.read(&mut buf[..want]) {
                Ok(0) => return Err(closed()),
                Ok(n) => break n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetSolveError::from(e)),
            }
        };
        Ok(())
    }

    /// Consume `n` bytes of the extent, handing each run the window holds
    /// to `f`. Every read funnels through here, so this is the one bounds
    /// check and the one place the window is refilled.
    fn consume(&mut self, mut n: usize, mut f: impl FnMut(&[u8])) -> Result<()> {
        if n > self.left {
            return Err(NetSolveError::Protocol(format!(
                "truncated message: wanted {n} bytes, {} remain",
                self.left
            )));
        }
        while n > 0 {
            if self.pos == self.win.bytes().len() {
                self.refill()?;
            }
            let run = &self.win.bytes()[self.pos..];
            let run = &run[..run.len().min(n)];
            f(run);
            let took = run.len();
            self.pos += took;
            self.left -= took;
            n -= took;
        }
        Ok(())
    }

    /// A fixed-size item, stitched together if it straddles a refill.
    fn fixed<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut item = [0u8; N];
        let mut at = 0;
        self.consume(N, |run| {
            item[at..at + run.len()].copy_from_slice(run);
            at += run.len();
        })?;
        Ok(item)
    }

    /// Read a u32.
    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_be_bytes(self.fixed()?))
    }

    /// Read a u64.
    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_be_bytes(self.fixed()?))
    }

    /// Read an i64.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Read a double.
    pub fn get_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a bool; any nonzero word is rejected unless it is exactly 1,
    /// which catches desynchronized streams early.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(NetSolveError::Protocol(format!(
                "invalid bool word {other}"
            ))),
        }
    }

    /// The length word of a variable-length item of `len * width` bytes,
    /// refused before anything is allocated if it is over the item limit
    /// or more than the extent still holds. Returns `len` and the element
    /// capacity to start with: everything when the bytes are in hand, else
    /// no more than [`STREAM_INIT_ALLOC`].
    fn item_len(&mut self, width: usize, what: &str) -> Result<(usize, usize)> {
        let len = self.get_u32()? as usize;
        let bytes = len.saturating_mul(width);
        if bytes > DEFAULT_MAX_ITEM_BYTES {
            return Err(NetSolveError::Protocol(format!(
                "{what} of {bytes} bytes exceeds limit {DEFAULT_MAX_ITEM_BYTES}"
            )));
        }
        if bytes > self.left {
            return Err(NetSolveError::Protocol(format!(
                "truncated message: {what} of {bytes} bytes, {} remain",
                self.left
            )));
        }
        let in_hand = self.win.bytes().len() - self.pos;
        Ok((len, len.min(in_hand.max(STREAM_INIT_ALLOC) / width)))
    }

    /// Read a variable-length opaque: count, bytes, zero padding to 4.
    pub fn get_opaque(&mut self) -> Result<Vec<u8>> {
        let (len, start) = self.item_len(1, "opaque")?;
        let mut out = Vec::with_capacity(start);
        self.consume(len, |run| {
            grow_towards(&mut out, run.len(), len);
            out.extend_from_slice(run);
        })?;
        let mut zero = true;
        self.consume(pad_len(len), |run| zero &= run.iter().all(|&b| b == 0))?;
        if !zero {
            return Err(NetSolveError::Protocol("nonzero padding".into()));
        }
        Ok(out)
    }

    /// Read an XDR string: an opaque whose bytes must be UTF-8 (validated
    /// in place — the vector becomes the string without another copy).
    pub fn get_string(&mut self) -> Result<String> {
        String::from_utf8(self.get_opaque()?)
            .map_err(|e| NetSolveError::Protocol(format!("invalid UTF-8 string: {e}")))
    }

    /// A length-prefixed array of 8-byte big-endian words: per run of the
    /// window, one pass of the byte-order loop appends the run's whole
    /// elements — the single wire→solver copy, with no zero-fill ahead of
    /// it. Over a slice that is one run into an exactly sized vector;
    /// over a reader a run need not end on an element boundary, so a
    /// straddling element is stitched through `carry`.
    fn get_words<T: Word>(&mut self, what: &str) -> Result<Vec<T>> {
        let (len, start) = self.item_len(8, what)?;
        let mut out = Vec::with_capacity(start);
        let mut carry = [0u8; 8];
        let mut carried = 0;
        self.consume(len * 8, |mut run| {
            grow_towards(&mut out, (carried + run.len()) / 8, len);
            if carried > 0 {
                let need = (8 - carried).min(run.len());
                carry[carried..carried + need].copy_from_slice(&run[..need]);
                carried += need;
                run = &run[need..];
                if carried < 8 {
                    return;
                }
                out.push(T::from_word(u64::from_be_bytes(carry)));
            }
            let (whole, rest) = run.split_at(run.len() - run.len() % 8);
            be64::decode(&mut out, whole);
            carried = rest.len();
            carry[..carried].copy_from_slice(rest);
        })?;
        Ok(out)
    }

    /// Read a variable-length double array into an owned vector.
    pub fn get_f64_array(&mut self) -> Result<Vec<f64>> {
        self.get_words("f64 array")
    }

    /// Read a variable-length u64 array into an owned vector.
    pub fn get_u64_array(&mut self) -> Result<Vec<u64>> {
        self.get_words("u64 array")
    }
}

/// Decode a counted list — a `u32` count, then that many items — the one
/// place a count read off the wire turns into an allocation.
/// `min_item_bytes` is the fewest bytes one item can occupy: a count the
/// rest of the extent cannot hold is rejected before any item is read.
/// [`Decoder::remaining`] over a reader counts bytes a frame header merely
/// *declared*, so that test alone would let a lying header reserve `count`
/// elements; the vector therefore starts at no more than
/// [`STREAM_INIT_ALLOC`] bytes and grows only as items actually decode.
pub fn decode_list<T>(
    d: &mut Decoder<'_>,
    min_item_bytes: usize,
    what: &str,
    mut item: impl FnMut(&mut Decoder<'_>) -> Result<T>,
) -> Result<Vec<T>> {
    let count = d.get_u32()? as usize;
    if count > d.remaining() / min_item_bytes.max(1) + 1 {
        return Err(NetSolveError::Protocol(format!(
            "{what} count {count} too large for {} remaining bytes",
            d.remaining()
        )));
    }
    let mut out = Vec::with_capacity(count.min(STREAM_INIT_ALLOC / std::mem::size_of::<T>().max(1)));
    for _ in 0..count {
        out.push(item(d)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::crc32;

    #[test]
    fn primitive_roundtrips() {
        let mut e = Encoder::new();
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX);
        e.put_i64(i64::MIN);
        e.put_f64(std::f64::consts::PI);
        e.put_bool(true);
        e.put_bool(false);
        let bytes = e.into_bytes();

        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_i64().unwrap(), i64::MIN);
        assert_eq!(d.get_f64().unwrap(), std::f64::consts::PI);
        assert!(d.get_bool().unwrap());
        assert!(!d.get_bool().unwrap());
        d.finish().unwrap();
    }

    #[test]
    fn big_endian_on_the_wire() {
        let mut e = Encoder::new();
        e.put_u32(1);
        assert_eq!(e.as_bytes(), &[0, 0, 0, 1]);
    }

    #[test]
    fn opaque_pads_to_four() {
        let mut e = Encoder::new();
        e.put_opaque(b"abcde"); // 4 (len) + 5 + 3 pad = 12
        assert_eq!(e.len(), 12);
        let bytes = e.into_bytes();
        assert_eq!(&bytes[9..], &[0, 0, 0]);
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_opaque().unwrap(), b"abcde");
        d.finish().unwrap();
    }

    #[test]
    fn string_roundtrip_and_utf8_rejection() {
        let mut e = Encoder::new();
        e.put_string("héllo ∑");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_string().unwrap(), "héllo ∑");

        // corrupt the payload into invalid UTF-8
        let mut bad = bytes.clone();
        bad[4] = 0xFF;
        bad[5] = 0xFE;
        let mut d = Decoder::new(&bad);
        assert!(d.get_string().is_err());
    }

    #[test]
    fn arrays_roundtrip() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sqrt() - 5.0).collect();
        let us: Vec<u64> = (0..33).map(|i| i * 7919).collect();
        let mut e = Encoder::new();
        e.put_f64_array(&xs);
        e.put_u64_array(&us);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.get_f64_array().unwrap(), xs);
        assert_eq!(d.get_u64_array().unwrap(), us);
        d.finish().unwrap();
    }

    #[test]
    fn bulk_array_encode_matches_per_element_reference() {
        // The bulk byte-swap paths must be byte-identical to the naive
        // per-element encoding they replaced.
        let xs: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 0.37).sin() * 1e6)
            .chain([f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0])
            .collect();
        let us: Vec<u64> = (0..777u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();

        let mut bulk = Encoder::new();
        bulk.put_f64_array(&xs);
        bulk.put_u64_array(&us);

        let mut reference = Encoder::new();
        reference.put_u32(xs.len() as u32);
        for &x in &xs {
            reference.put_u64(x.to_bits());
        }
        reference.put_u32(us.len() as u32);
        for &u in &us {
            reference.put_u64(u);
        }
        let bytes = bulk.into_bytes();
        assert_eq!(bytes, reference.into_bytes());

        // And the decoder reads the bulk encoding back exactly
        // (bit-level, so NaN survives the comparison).
        let mut d = Decoder::new(&bytes);
        let xs_back = d.get_f64_array().unwrap();
        let us_back = d.get_u64_array().unwrap();
        d.finish().unwrap();
        assert_eq!(
            xs_back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(us_back, us);
    }

    #[test]
    fn borrowed_buffer_appends_and_keeps_allocation() {
        let mut scratch = Vec::with_capacity(256);
        scratch.extend_from_slice(b"HDR!");
        {
            let mut e = Encoder::borrowing(&mut scratch);
            e.put_u32(7);
            e.put_string("ok");
            assert!(e.len() > 4);
        }
        assert_eq!(&scratch[..4], b"HDR!");
        let mut d = Decoder::new(&scratch[4..]);
        assert_eq!(d.get_u32().unwrap(), 7);
        assert_eq!(d.get_string().unwrap(), "ok");
        let cap = scratch.capacity();
        scratch.clear();
        let mut e = Encoder::borrowing(&mut scratch);
        e.put_u64(9);
        drop(e);
        assert_eq!(scratch.capacity(), cap, "scratch allocation must be reused");
    }

    #[test]
    fn incremental_crc_matches_oneshot_over_all_put_kinds() {
        let xs: Vec<f64> = (0..257).map(|i| i as f64 / 3.0).collect();
        let us: Vec<u64> = (0..65).map(|i| i * 31).collect();
        let mut e = Encoder::new().with_crc();
        e.put_u32(5);
        e.put_i64(-9);
        e.put_f64(2.5);
        e.put_bool(true);
        e.put_string("incremental");
        e.put_opaque(b"xyz");
        e.put_f64_array(&xs);
        e.put_u64_array(&us);
        let crc = e.crc().unwrap();
        let bytes = e.into_bytes();
        assert_eq!(crc, crc32(&bytes), "streamed CRC must equal a full scan");
    }

    #[test]
    fn truncation_detected() {
        let mut e = Encoder::new();
        e.put_f64_array(&[1.0, 2.0, 3.0]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..bytes.len() - 4]);
        assert!(d.get_f64_array().is_err());
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Encoder::new();
        e.put_u32(7);
        let mut bytes = e.into_bytes();
        bytes.extend_from_slice(&[0, 0, 0, 0]);
        let mut d = Decoder::new(&bytes);
        d.get_u32().unwrap();
        assert!(d.finish().is_err());
    }

    #[test]
    fn oversized_items_rejected_without_allocation() {
        // Claim a 4-billion-element array with only 8 bytes behind it.
        let mut e = Encoder::new();
        e.put_u32(u32::MAX);
        e.put_u32(0);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(d.get_f64_array().is_err());

        // Past the item limit, even with the extent claiming to hold it.
        let mut d = Decoder::new(&bytes);
        d.limit(usize::MAX, 0);
        let err = d.get_opaque().unwrap_err();
        assert!(
            matches!(&err, NetSolveError::Protocol(m) if m.contains("exceeds limit")),
            "{err}"
        );
    }

    #[test]
    fn bad_bool_word_rejected() {
        let mut e = Encoder::new();
        e.put_u32(2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(d.get_bool().is_err());
    }

    #[test]
    fn nonzero_padding_rejected() {
        let mut e = Encoder::new();
        e.put_opaque(b"ab");
        let mut bytes = e.into_bytes();
        bytes[7] = 1; // corrupt a pad byte
        let mut d = Decoder::new(&bytes);
        assert!(d.get_opaque().is_err());
    }

    fn put_everything(e: &mut Encoder<'_>) {
        let xs: Vec<f64> = (0..2000).map(|i| (i as f64 * 0.71).cos() * 1e9).collect();
        let us: Vec<u64> = (0..999u64).map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D)).collect();
        e.put_u32(0xCAFE_F00D);
        e.put_u32(u32::MAX);
        e.put_u64(u64::MAX - 7);
        e.put_i64(i64::MIN + 3);
        e.put_f64(-std::f64::consts::E);
        e.put_bool(true);
        e.put_string("streaming sinks");
        e.put_opaque(b"odd-length-opaque!!");
        e.put_f64_array(&xs);
        e.put_u64_array(&us);
    }

    #[test]
    fn counting_sink_matches_materialized_length() {
        let mut owned = Encoder::new();
        put_everything(&mut owned);
        let bytes = owned.into_bytes();

        let mut counter = Encoder::counting();
        put_everything(&mut counter);
        assert_eq!(counter.count(), bytes.len() as u64);
        assert_eq!(counter.len(), bytes.len());
    }

    #[test]
    fn window_sink_matches_owned_bytes_and_crc() {
        let mut owned = Encoder::new().with_crc();
        put_everything(&mut owned);
        let want_crc = owned.crc().unwrap();
        let mut want = b"head".to_vec();
        want.extend_from_slice(&owned.into_bytes());

        // Small windows write out many times, some arrays fit what is left
        // of one and some do not; a warm window is reused. Bytes already in
        // the window leave first, outside the CRC.
        let mut window = Vec::new();
        for cap in [64, 97, 4096, 1 << 20] {
            for _warm in 0..2 {
                let mut sink = Vec::new();
                window.clear();
                window.extend_from_slice(b"head");
                let mut e = Encoder::window(&mut window, cap, Some(&mut sink)).with_crc();
                put_everything(&mut e);
                assert_eq!(e.crc().unwrap(), want_crc, "window {cap}");
                assert_eq!(e.finish().unwrap(), want.len() as u64, "window {cap}");
                assert_eq!(sink, want, "window {cap}");
                assert!(window.is_empty() && window.capacity() <= cap, "window {cap}");
            }
        }
        // No writer: the window keeps everything.
        window.clear();
        window.extend_from_slice(b"head");
        let mut e = Encoder::window(&mut window, 64, None);
        put_everything(&mut e);
        assert_eq!(e.finish().unwrap(), want.len() as u64);
        assert_eq!(window, want);
    }

    #[test]
    fn window_sink_defers_write_errors_to_finish() {
        struct Failing;
        impl std::io::Write for Failing {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("wire down"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (mut w, mut window) = (Failing, Vec::new());
        let mut e = Encoder::window(&mut window, 64, Some(&mut w));
        // Far more than one window: the failing write must not panic the
        // infallible put API, and the window stays bounded.
        e.put_f64_array(&vec![1.5; 10_000]);
        assert_eq!(e.len(), 4 + 80_000);
        assert!(e.finish().is_err());
        assert!(window.capacity() <= 64);
    }

    #[test]
    fn arrays_decode_from_an_unaligned_buffer() {
        let xs: Vec<f64> = (0..513).map(|i| (i as f64).exp2().recip()).collect();
        let us: Vec<u64> = (0..257).map(|i| i * 0x0101_0101).collect();
        let mut e = Encoder::new();
        e.put_f64_array(&xs);
        e.put_u64_array(&us);
        let bytes = e.into_bytes();

        // Shift the buffer to an intentionally unaligned offset: the bulk
        // conversion copies byte-wise, so alignment must not matter.
        let mut shifted = vec![0u8; 1];
        shifted.extend_from_slice(&bytes);
        let mut d = Decoder::new(&shifted[1..]);
        assert_eq!(d.get_f64_array().unwrap(), xs);
        assert_eq!(d.get_u64_array().unwrap(), us);
        d.finish().unwrap();
    }

    /// A decoder pulling `declared` bytes from `r` through a `chunk` window.
    fn reading<'a>(
        r: &'a mut &[u8],
        window: &'a mut Vec<u8>,
        declared: usize,
        chunk: usize,
    ) -> Decoder<'a> {
        let mut d = Decoder::reading(r, window, chunk);
        d.limit(declared, 0);
        d
    }

    #[test]
    fn reader_source_matches_slice_source() {
        let mut e = Encoder::new();
        put_everything(&mut e);
        let payload = e.into_bytes();

        // A 97-byte window: refills land mid-element, so fixed-size items
        // and array elements are stitched across them.
        let (mut r, mut window) = (&payload[..], Vec::new());
        let mut s = reading(&mut r, &mut window, payload.len(), 97);
        let mut d = Decoder::new(&payload);
        assert_eq!(s.get_u32().unwrap(), 0xCAFE_F00D);
        assert_eq!(s.get_u32().unwrap(), u32::MAX);
        assert_eq!(s.get_u64().unwrap(), u64::MAX - 7);
        assert_eq!(s.get_i64().unwrap(), i64::MIN + 3);
        assert_eq!(s.get_f64().unwrap(), -std::f64::consts::E);
        assert!(s.get_bool().unwrap());
        assert_eq!(s.get_string().unwrap(), "streaming sinks");
        assert_eq!(s.get_opaque().unwrap(), b"odd-length-opaque!!");
        for _ in 0..2 {
            d.get_u32().unwrap();
        }
        for _ in 0..3 {
            d.get_u64().unwrap();
        }
        d.get_bool().unwrap();
        d.get_string().unwrap();
        d.get_opaque().unwrap();
        assert_eq!(s.remaining(), d.remaining());
        assert_eq!(s.get_f64_array().unwrap(), d.get_f64_array().unwrap());
        assert_eq!(s.get_u64_array().unwrap(), d.get_u64_array().unwrap());
        s.finish().unwrap();
        d.finish().unwrap();
        assert_eq!(s.crc(), crc32(&payload), "reader CRC must cover every byte");
        assert_eq!(d.crc(), crc32(&payload), "slice CRC must cover every byte");
        assert!(
            window.capacity() <= 97,
            "window grew to {}",
            window.capacity()
        );
    }

    #[test]
    fn crc_restarts_with_each_extent_and_covers_drained_bytes() {
        let bytes: Vec<u8> = (0..=255).collect();
        let (mut r, mut window) = (&bytes[..], Vec::new());
        let mut sources = [Decoder::new(&bytes), Decoder::reading(&mut r, &mut window, 64)];
        for d in &mut sources {
            d.limit(12, 0);
            d.get_u64().unwrap();
            d.drain().unwrap();
            assert_eq!(d.crc(), crc32(&bytes[..12]));
            // 200 bytes with 4 known to follow: the last refill may pull
            // the 4 along, but they belong to no extent yet.
            d.limit(200, 4);
            d.get_u32().unwrap();
            assert_eq!(d.crc(), crc32(&bytes[12..16]), "a partial CRC folds what was consumed");
            d.drain().unwrap();
            assert_eq!(d.crc(), crc32(&bytes[12..212]));
            assert_eq!(d.remaining(), 0);
            assert!(d.get_u32().is_err(), "nothing is decoded past the extent");
            d.limit(4, 0);
            assert_eq!(d.get_u32().unwrap(), u32::from_be_bytes([212, 213, 214, 215]));
            assert_eq!(d.crc(), crc32(&bytes[212..216]));
        }
        assert_eq!(r.len(), bytes.len() - 216, "nothing past the declared bytes is read");
    }

    #[test]
    fn lying_lengths_are_refused_before_allocation() {
        // An opaque claiming 200 MiB with only 16 bytes behind it must be
        // rejected before any large allocation: the declared item exceeds
        // what the extent can still hold. Same for arrays.
        let mut e = Encoder::new();
        e.put_u32(200 * 1024 * 1024);
        e.put_u64(0);
        e.put_u64(0);
        let payload = e.into_bytes();
        let (mut r, mut window) = (&payload[..], Vec::new());
        assert!(reading(&mut r, &mut window, payload.len(), 64)
            .get_opaque()
            .is_err());
        let mut r = &payload[..];
        assert!(reading(&mut r, &mut window, payload.len(), 64)
            .get_f64_array()
            .is_err());
    }

    #[test]
    fn a_source_that_ends_early_is_a_transport_fault() {
        let mut e = Encoder::new();
        e.put_f64_array(&[1.0, 2.0, 3.0, 4.0]);
        let payload = e.into_bytes();
        // Declare the true length but hand over a truncated body: the
        // decoder must report the closed connection, not hang or panic,
        // whether the bytes come off a reader or sit in a short slice.
        let short = &payload[..payload.len() - 8];
        let (mut r, mut window) = (short, Vec::new());
        let mut from_slice = Decoder::new(short);
        from_slice.limit(payload.len(), 0);
        for mut d in [reading(&mut r, &mut window, payload.len(), 64), from_slice] {
            let err = d.get_f64_array().unwrap_err();
            assert!(matches!(err, NetSolveError::Transport(_)), "{err}");
        }
    }

    #[test]
    fn nan_and_infinities_roundtrip() {
        let specials = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, f64::MIN_POSITIVE];
        let mut e = Encoder::new();
        for &x in &specials {
            e.put_f64(x);
        }
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        for &x in &specials {
            let y = d.get_f64().unwrap();
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
