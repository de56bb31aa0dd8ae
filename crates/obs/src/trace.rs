//! Typed distributed-tracing spans keyed by a wire-propagated `trace_id`.
//!
//! The [`Tracer`] stores completed [`Span`]s: each has a 128-bit trace
//! identity (minted once per logical call by the client and carried on
//! the wire so agent and server spans join the same trace), a parent
//! span id for causal stitching, and start/end timestamps anchored to
//! the unix epoch so spans recorded in different processes line up on
//! one timeline. Component and phase names are `&'static str`, so the
//! hot path allocates nothing unless a free-form detail string is
//! attached.
//!
//! Retention is per-trace: a bounded span budget evicts whole traces
//! oldest-first, except traces that contained a slow span (duration at
//! or above the slow threshold), which are *pinned* and survive ring
//! pressure up to a separate pinned cap.
//!
//! Spans are stamped with the [`Instant`]s their caller passes or, for
//! [`Tracer::start`], [`Tracer::record`] and [`Tracer::point`], with the
//! system clock. A component that reads time through a virtual clock
//! starts and ends its spans with [`Tracer::start_at`] and
//! [`Tracer::record_at`] on that clock.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use parking_lot::Mutex;

/// Default span budget: enough for a soak test's tail without
/// unbounded growth in long-lived daemons.
const DEFAULT_CAPACITY: usize = 1024;

/// Spans at or above this duration pin their whole trace against
/// eviction.
const SLOW_THRESHOLD: Duration = Duration::from_millis(250);

/// At most this many slow traces stay pinned; beyond it the oldest
/// pinned trace is evicted so a burst of slow requests cannot pin the
/// whole ring forever.
const PINNED_TRACE_CAP: usize = 64;

/// `splitmix64` mixing step — the same generator the client uses for
/// request-id lanes; good enough to make per-tracer span-id streams
/// and trace ids collision-free in practice. A copy of
/// `netsolve_core::rng::splitmix64`: `core` depends on `obs`, not the
/// other way round, and no dependency table may change.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Multiplicative hasher for the tracer's integer-keyed maps. Trace and
/// span ids are splitmix-whitened at mint time, so SipHash's DoS
/// resistance buys nothing here while its per-lookup cost lands on the
/// per-span hot path (every `record` touches the trace map under the
/// lock — see the r9 overhead experiment).
#[derive(Default)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.0 = splitmix64(self.0 ^ u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = splitmix64(self.0 ^ n);
    }

    fn write_u128(&mut self, n: u128) {
        self.0 = splitmix64(self.0 ^ n as u64 ^ splitmix64((n >> 64) as u64));
    }
}

type IdHashBuilder = std::hash::BuildHasherDefault<IdHasher>;

/// The identity a span inherits: which trace it belongs to, which span
/// caused it, and which protocol request it serves.
///
/// A zero `trace_id` means "traceless" — the span is still recorded
/// (heartbeats, accepts with no request attached) but never stitched
/// into a causal timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanContext {
    /// 128-bit trace identity, minted once per logical client call.
    pub trace_id: u128,
    /// Span id of the causal parent (0 = root of the trace).
    pub parent_span: u64,
    /// Protocol `request_id` the trace serves (0 if none yet).
    pub request_id: u64,
}

impl SpanContext {
    /// The traceless context: spans recorded under it are retained and
    /// queryable but belong to no stitched timeline.
    pub const NONE: SpanContext = SpanContext { trace_id: 0, parent_span: 0, request_id: 0 };

    /// A context for children of the span identified by `span_id`,
    /// inside the same trace and request.
    pub fn child_of(&self, span_id: u64) -> SpanContext {
        SpanContext { trace_id: self.trace_id, parent_span: span_id, request_id: self.request_id }
    }
}

/// One completed span as stored in-process: names are static strings,
/// so cloning one allocates only for the optional detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Global sequence number (monotone per tracer).
    pub seq: u64,
    /// Trace this span belongs to (0 = traceless).
    pub trace_id: u128,
    /// This span's own id (unique per tracer, randomized start so ids
    /// from different processes do not collide when stitched).
    pub span_id: u64,
    /// Causal parent span id (0 = root).
    pub parent_span: u64,
    /// Protocol request id (0 if none).
    pub request_id: u64,
    /// Component that recorded it (`"client"`, `"server"`, `"agent"`).
    pub component: &'static str,
    /// Phase name, e.g. `"connect"`, `"solve"`, `"backoff"`.
    pub phase: &'static str,
    /// Span start, nanoseconds since the unix epoch.
    pub start_unix_nanos: u64,
    /// Span end, nanoseconds since the unix epoch.
    pub end_unix_nanos: u64,
    /// Free-form detail (empty = none; empty allocates nothing).
    pub detail: String,
}

impl Span {
    /// Wall-clock duration of the span.
    pub fn duration(&self) -> Duration {
        Duration::from_nanos(self.end_unix_nanos.saturating_sub(self.start_unix_nanos))
    }

    /// The owned-string form used on the wire and in dumps.
    pub fn to_record(&self) -> SpanRecord {
        SpanRecord {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span: self.parent_span,
            request_id: self.request_id,
            component: self.component.to_string(),
            phase: self.phase.to_string(),
            start_unix_nanos: self.start_unix_nanos,
            end_unix_nanos: self.end_unix_nanos,
            detail: self.detail.clone(),
        }
    }
}

/// A span in owned-string form: what `TraceReply` carries and what
/// client-side dump files hold, so spans scraped from remote processes
/// (whose name literals are not in this process) stitch uniformly.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpanRecord {
    /// Trace this span belongs to (0 = traceless).
    pub trace_id: u128,
    /// This span's own id.
    pub span_id: u64,
    /// Causal parent span id (0 = root).
    pub parent_span: u64,
    /// Protocol request id (0 if none).
    pub request_id: u64,
    /// Component that recorded it.
    pub component: String,
    /// Phase name.
    pub phase: String,
    /// Span start, nanoseconds since the unix epoch.
    pub start_unix_nanos: u64,
    /// Span end, nanoseconds since the unix epoch.
    pub end_unix_nanos: u64,
    /// Free-form detail (empty = none).
    pub detail: String,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_nanos(&self) -> u64 {
        self.end_unix_nanos.saturating_sub(self.start_unix_nanos)
    }

    /// One-line dump form: tab-separated fields, detail escaped, used
    /// by client-side trace dumps that `netsl-trace` reads back.
    pub fn to_line(&self) -> String {
        let detail: String = self
            .detail
            .chars()
            .flat_map(|c| match c {
                '\\' => vec!['\\', '\\'],
                '\t' => vec!['\\', 't'],
                '\n' => vec!['\\', 'n'],
                c => vec![c],
            })
            .collect();
        format!(
            "{:032x}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.trace_id,
            self.span_id,
            self.parent_span,
            self.request_id,
            self.component,
            self.phase,
            self.start_unix_nanos,
            self.end_unix_nanos,
            detail,
        )
    }

    /// Parse one dump line written by [`SpanRecord::to_line`].
    pub fn from_line(line: &str) -> Option<SpanRecord> {
        let mut parts = line.split('\t');
        let trace_id = u128::from_str_radix(parts.next()?, 16).ok()?;
        let span_id = parts.next()?.parse().ok()?;
        let parent_span = parts.next()?.parse().ok()?;
        let request_id = parts.next()?.parse().ok()?;
        let component = parts.next()?.to_string();
        let phase = parts.next()?.to_string();
        let start_unix_nanos = parts.next()?.parse().ok()?;
        let end_unix_nanos = parts.next()?.parse().ok()?;
        let escaped = parts.next().unwrap_or("");
        let mut detail = String::new();
        let mut chars = escaped.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                match chars.next() {
                    Some('t') => detail.push('\t'),
                    Some('n') => detail.push('\n'),
                    Some('\\') => detail.push('\\'),
                    Some(other) => detail.push(other),
                    None => break,
                }
            } else {
                detail.push(c);
            }
        }
        Some(SpanRecord {
            trace_id,
            span_id,
            parent_span,
            request_id,
            component,
            phase,
            start_unix_nanos,
            end_unix_nanos,
            detail,
        })
    }
}

/// A running span: holds the minted span id and the start instant.
/// Finish it with [`Tracer::record`]; its id can be handed to children
/// (and onto the wire) before the span completes.
#[derive(Debug, Clone, Copy)]
pub struct SpanTimer {
    span_id: u64,
    start: Instant,
}

impl SpanTimer {
    /// The minted span id — use it as the parent of child spans and as
    /// the wire-propagated parent span id.
    pub fn span_id(&self) -> u64 {
        self.span_id
    }
}

struct TraceBuf {
    spans: Vec<Span>,
    pinned: bool,
}

struct TraceInner {
    next_seq: u64,
    traces: HashMap<u128, TraceBuf, IdHashBuilder>,
    /// Unpinned traces in insertion order (may hold stale ids).
    order: VecDeque<u128>,
    /// Pinned traces in pinning order.
    pinned_order: VecDeque<u128>,
    total_spans: usize,
    capacity: usize,
}

impl TraceInner {
    fn evict_trace(&mut self, id: u128) {
        if let Some(buf) = self.traces.remove(&id) {
            self.total_spans -= buf.spans.len();
        }
    }

    /// Evict oldest unpinned traces (never `keep`, the trace just
    /// written to) until the span budget holds again.
    ///
    /// The traceless bucket (trace 0) gets no such protection — every
    /// traceless span (heartbeats, chaos fault points) shares
    /// it, so shielding it as the most-recently-written trace would let
    /// an idle daemon recording only heartbeats grow without bound.
    /// Instead it is trimmed as a ring: oldest spans dropped first,
    /// newest retained.
    fn enforce_budget(&mut self, keep: u128) {
        let mut spare = None;
        let mut requeue_traceless = false;
        while self.total_spans > self.capacity {
            match self.order.pop_front() {
                Some(0) => {
                    let excess = self.total_spans - self.capacity;
                    if let Some(buf) = self.traces.get_mut(&0) {
                        let n = excess.min(buf.spans.len());
                        buf.spans.drain(..n);
                        self.total_spans -= n;
                        if buf.spans.is_empty() {
                            self.traces.remove(&0);
                        } else {
                            requeue_traceless = true;
                        }
                    }
                }
                Some(id) if id == keep => spare = Some(id),
                Some(id) => {
                    if self.traces.get(&id).is_some_and(|b| !b.pinned) {
                        self.evict_trace(id);
                    }
                    // stale (already evicted) or since-pinned: just drop
                    // the queue entry.
                }
                None => break,
            }
        }
        if let Some(id) = spare {
            self.order.push_front(id);
        }
        if requeue_traceless {
            // Back to the front: traceless spans are the least valuable,
            // so the next over-budget call trims them first.
            self.order.push_front(0);
        }
    }
}

/// A bounded, thread-safe span store plus request-id registry.
///
/// Construct with [`Tracer::new`] for a recording tracer or
/// [`Tracer::disabled`] for a no-op one (the instrumentation stays
/// compiled in; recording short-circuits before taking any lock or
/// reading any clock).
pub struct Tracer {
    enabled: bool,
    epoch_instant: Instant,
    epoch_unix_nanos: u64,
    next_span: AtomicU64,
    trace_seed: u64,
    next_trace: AtomicU64,
    inner: Mutex<TraceInner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }
}

impl Tracer {
    /// Recording tracer with the default span budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recording tracer keeping at most `capacity` spans (whole oldest
    /// traces evicted first; slow traces pinned past eviction).
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(true, capacity)
    }

    /// A no-op tracer: `start`/`record`/`point` cost a branch and
    /// nothing else. Used to measure tracing overhead and to switch
    /// tracing off without ripping out instrumentation.
    pub fn disabled() -> Self {
        Self::build(false, 1)
    }

    fn build(enabled: bool, capacity: usize) -> Self {
        let epoch_instant = Instant::now();
        let epoch_unix_nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        // Per-tracer entropy: wall clock plus ASLR'd stack address.
        // Randomizing the span-id stream start keeps ids from distinct
        // processes collision-free once stitched into one trace.
        let local = 0u8;
        let seed = splitmix64(epoch_unix_nanos ^ (&local as *const u8 as u64));
        Tracer {
            enabled,
            epoch_instant,
            epoch_unix_nanos,
            next_span: AtomicU64::new(splitmix64(seed) | 1),
            trace_seed: seed,
            next_trace: AtomicU64::new(1),
            inner: Mutex::new(TraceInner {
                next_seq: 0,
                traces: HashMap::default(),
                order: VecDeque::new(),
                pinned_order: VecDeque::new(),
                total_spans: 0,
                capacity: capacity.max(1),
            }),
        }
    }

    /// Nanoseconds since the unix epoch by this tracer's clock
    /// (monotonic offsets from one wall-clock anchor, so timestamps
    /// never run backwards within a process). An instant before the
    /// anchor — a virtual clock made before the tracer — counts back
    /// from it instead of collapsing onto it.
    fn to_unix_nanos(&self, at: Instant) -> u64 {
        match at.checked_duration_since(self.epoch_instant) {
            Some(after) => self.epoch_unix_nanos.saturating_add(after.as_nanos() as u64),
            None => self
                .epoch_unix_nanos
                .saturating_sub(self.epoch_instant.duration_since(at).as_nanos() as u64),
        }
    }

    /// Mint a fresh, non-zero 128-bit trace id.
    pub fn mint_trace_id(&self) -> u128 {
        let n = self.next_trace.fetch_add(1, Ordering::Relaxed);
        let hi = splitmix64(self.trace_seed ^ n);
        let lo = splitmix64(n.wrapping_add(self.trace_seed.rotate_left(17)));
        let id = ((hi as u128) << 64) | lo as u128;
        if id == 0 {
            1
        } else {
            id
        }
    }

    /// Start a span now: mints its id and stamps the start instant.
    pub fn start(&self) -> SpanTimer {
        if !self.enabled {
            // No clock read either — `epoch_instant` stands in.
            return SpanTimer { span_id: 0, start: self.epoch_instant };
        }
        SpanTimer { span_id: self.next_span.fetch_add(1, Ordering::Relaxed), start: Instant::now() }
    }

    /// Start a span whose work began at `at` (e.g. when a request hit
    /// the wire, before it reached the traced component).
    pub fn start_at(&self, at: Instant) -> SpanTimer {
        if !self.enabled {
            return SpanTimer { span_id: 0, start: self.epoch_instant };
        }
        SpanTimer { span_id: self.next_span.fetch_add(1, Ordering::Relaxed), start: at }
    }

    /// Finish `timer` now and store the completed span.
    pub fn record(
        &self,
        ctx: SpanContext,
        timer: SpanTimer,
        component: &'static str,
        phase: &'static str,
        detail: String,
    ) {
        if !self.enabled {
            return;
        }
        self.record_at(ctx, timer, Instant::now(), component, phase, detail);
    }

    /// Finish `timer` at an explicit end instant and store the span.
    pub fn record_at(
        &self,
        ctx: SpanContext,
        timer: SpanTimer,
        end: Instant,
        component: &'static str,
        phase: &'static str,
        detail: String,
    ) {
        if !self.enabled {
            return;
        }
        let start_unix_nanos = self.to_unix_nanos(timer.start);
        let end_unix_nanos = self.to_unix_nanos(end).max(start_unix_nanos);
        self.store(Span {
            seq: 0, // assigned under the lock
            trace_id: ctx.trace_id,
            span_id: timer.span_id,
            parent_span: ctx.parent_span,
            request_id: ctx.request_id,
            component,
            phase,
            start_unix_nanos,
            end_unix_nanos,
            detail,
        });
    }

    /// Record an instantaneous (zero-length) span at now.
    pub fn point(
        &self,
        ctx: SpanContext,
        component: &'static str,
        phase: &'static str,
        detail: String,
    ) {
        if !self.enabled {
            return;
        }
        let now = self.to_unix_nanos(Instant::now());
        self.store(Span {
            seq: 0,
            trace_id: ctx.trace_id,
            span_id: self.next_span.fetch_add(1, Ordering::Relaxed),
            parent_span: ctx.parent_span,
            request_id: ctx.request_id,
            component,
            phase,
            start_unix_nanos: now,
            end_unix_nanos: now,
            detail,
        });
    }

    fn store(&self, mut span: Span) {
        let mut inner = self.inner.lock();
        let slow = span.duration() >= SLOW_THRESHOLD;
        span.seq = inner.next_seq;
        inner.next_seq += 1;
        let trace_id = span.trace_id;
        let mut fresh = false;
        let was_pinned;
        {
            // Single probe of the trace map per span: `or_insert_with`
            // flags freshness instead of a separate `contains_key`.
            let buf = inner.traces.entry(trace_id).or_insert_with(|| {
                fresh = true;
                // Grown on demand: an agent's trace is one span and a
                // server's three, and the ring holds a thousand of them.
                TraceBuf { spans: Vec::new(), pinned: false }
            });
            buf.spans.push(span);
            was_pinned = buf.pinned;
            if slow && trace_id != 0 {
                buf.pinned = true;
            }
        }
        inner.total_spans += 1;
        if fresh {
            inner.order.push_back(trace_id);
        }
        if slow && trace_id != 0 && !was_pinned {
            inner.pinned_order.push_back(trace_id);
            if inner.pinned_order.len() > PINNED_TRACE_CAP {
                if let Some(old) = inner.pinned_order.pop_front() {
                    inner.evict_trace(old);
                }
            }
        }
        inner.enforce_budget(trace_id);
    }

    /// Total spans recorded over the tracer's lifetime (including ones
    /// retention has since evicted).
    pub fn spans_recorded(&self) -> u64 {
        self.inner.lock().next_seq
    }

    /// All retained spans in recording order.
    pub fn spans(&self) -> Vec<Span> {
        let inner = self.inner.lock();
        let mut all: Vec<Span> =
            inner.traces.values().flat_map(|b| b.spans.iter().cloned()).collect();
        all.sort_by_key(|s| s.seq);
        all
    }

    /// Retained spans of one trace, in recording order.
    pub fn spans_for_trace(&self, trace_id: u128) -> Vec<Span> {
        let inner = self.inner.lock();
        let mut spans: Vec<Span> =
            inner.traces.get(&trace_id).map(|b| b.spans.clone()).unwrap_or_default();
        spans.sort_by_key(|s| s.seq);
        spans
    }

    /// All retained spans as owned records (what `TraceReply` carries).
    /// `trace_id` 0 selects everything; otherwise only that trace.
    pub fn snapshot_trace(&self, trace_id: u128) -> Vec<SpanRecord> {
        let spans = if trace_id == 0 { self.spans() } else { self.spans_for_trace(trace_id) };
        spans.iter().map(Span::to_record).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(trace: u128, request: u64) -> SpanContext {
        SpanContext { trace_id: trace, parent_span: 0, request_id: request }
    }

    fn spans_for_request(t: &Tracer, request_id: u64) -> Vec<Span> {
        t.spans().into_iter().filter(|s| s.request_id == request_id).collect()
    }

    #[test]
    fn spans_keep_recording_order_and_carry_their_request() {
        let t = Tracer::new();
        let a = t.start();
        t.record(ctx(10, 7), a, "client", "attempt", "srv0".into());
        let b = t.start();
        t.record(ctx(10, 7), b, "client", "attempt", "srv1".into());
        t.point(ctx(11, 9), "client", "call_ok", String::new());
        let all = t.spans();
        assert_eq!(all.len(), 3);
        assert!(all.windows(2).all(|w| w[0].seq < w[1].seq));
        assert_eq!(spans_for_request(&t, 7).len(), 2);
        assert_eq!(spans_for_request(&t, 9)[0].phase, "call_ok");
        assert_eq!(t.spans_recorded(), 3);
        assert_ne!(all[0].span_id, all[1].span_id, "span ids are unique");
    }

    #[test]
    fn budget_evicts_oldest_traces_whole() {
        let t = Tracer::with_capacity(4);
        for i in 0..10u64 {
            t.point(ctx(100 + i as u128, i), "client", "attempt", String::new());
        }
        let kept = t.spans();
        assert_eq!(kept.len(), 4);
        assert_eq!(kept[0].request_id, 6, "oldest traces evicted");
        assert_eq!(t.spans_recorded(), 10);
        assert!(spans_for_request(&t, 2).is_empty(), "evicted trace is gone");
        assert_eq!(spans_for_request(&t, 8).len(), 1);
    }

    #[test]
    fn traceless_bucket_is_ring_bounded() {
        // Regression: all traceless spans share trace 0, so the "never
        // evict the trace just written to" protection used to let an
        // idle daemon recording only heartbeats grow without bound.
        let t = Tracer::with_capacity(4);
        for _ in 0..100 {
            t.point(SpanContext::NONE, "agent", "heartbeat", String::new());
        }
        let kept = t.spans();
        assert_eq!(kept.len(), 4, "traceless bucket trimmed as a ring");
        assert!(kept.iter().all(|s| s.seq >= 96), "newest spans retained");
        assert_eq!(t.spans_recorded(), 100);
    }

    #[test]
    fn traceless_spans_do_not_starve_real_traces() {
        let t = Tracer::with_capacity(4);
        for _ in 0..10 {
            t.point(SpanContext::NONE, "agent", "heartbeat", String::new());
        }
        t.point(ctx(7, 7), "client", "attempt", String::new());
        for _ in 0..10 {
            t.point(SpanContext::NONE, "agent", "heartbeat", String::new());
        }
        assert_eq!(spans_for_request(&t, 7).len(), 1, "real trace survives heartbeat flood");
        assert!(t.spans().len() <= 4, "budget holds across both buckets");
    }

    #[test]
    fn slow_trace_is_pinned_past_eviction() {
        let t = Tracer::with_capacity(4);
        // A span stamped to end 300 ms after it started: slow without a
        // sleep. (Its start cannot predate the tracer's epoch anchor.)
        let start = Instant::now();
        let timer = t.start_at(start);
        let end = start + Duration::from_millis(300);
        t.record_at(ctx(1, 1), timer, end, "server", "solve", String::new());
        for i in 0..20u64 {
            t.point(ctx(50 + i as u128, 100 + i), "client", "attempt", String::new());
        }
        let slow = t.spans_for_trace(1);
        assert_eq!(slow.len(), 1, "slow trace survives eviction pressure");
        assert!(slow[0].duration() >= SLOW_THRESHOLD);
        assert!(t.spans().len() <= 5, "budget still bounds everything else");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        let timer = t.start();
        t.record(ctx(1, 1), timer, "client", "attempt", String::new());
        t.point(ctx(1, 1), "client", "call_ok", String::new());
        assert_eq!(t.spans_recorded(), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn trace_ids_are_distinct_and_nonzero() {
        let t = Tracer::new();
        let a = t.mint_trace_id();
        let b = t.mint_trace_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn span_record_line_roundtrips() {
        let rec = SpanRecord {
            trace_id: 0xdead_beef_0000_0001,
            span_id: 42,
            parent_span: 7,
            request_id: 11,
            component: "client".into(),
            phase: "marshal".into(),
            start_unix_nanos: 1_000,
            end_unix_nanos: 2_500,
            detail: "tab\there\nnewline \\slash".into(),
        };
        let line = rec.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(SpanRecord::from_line(&line), Some(rec));
        assert_eq!(SpanRecord::from_line("not a span"), None);
    }

    #[test]
    fn timestamps_are_epoch_anchored_and_ordered() {
        let t = Tracer::new();
        let timer = t.start();
        t.record(ctx(5, 5), timer, "client", "wait", String::new());
        let s = &t.spans()[0];
        assert!(s.end_unix_nanos >= s.start_unix_nanos);
        // Sanity: after 2020-01-01 in unix nanos.
        assert!(s.start_unix_nanos > 1_577_836_800_000_000_000);
    }
}
