//! # netsolve-obs
//!
//! The observability layer for the live NetSolve daemons: a lock-cheap
//! [`MetricsRegistry`] (atomic counters, gauges and fixed-bucket
//! log-scale histograms — hand-rolled, no external deps, matching the
//! rest of the workspace) plus a [`Tracer`] recording typed
//! distributed-tracing [`Span`]s keyed by a wire-propagated 128-bit
//! `trace_id`, and the [`stitch`](mod@stitch) module that merges span records
//! scraped from many processes into causal per-trace timelines.
//!
//! Daemons hold one registry each and bump instruments on the hot path
//! with single atomic operations; a [`StatsSnapshot`] is taken on demand
//! (the `StatsQuery` wire message, the `netsl-stats` bin, test
//! assertions) and is plain data, so `netsolve-proto` can marshal it
//! without this crate knowing anything about the wire format.
//!
//! Each daemon's sampler also feeds one snapshot per tick into a
//! [`WindowedSeries`], a ring of the last [`WINDOW_SLOTS`] + 1 cumulative
//! snapshots. Any change over the window is the newest sample minus an
//! older one, and the whole window minus its oldest sample is the
//! [`StatsDigest`] agents gossip and `netsl-top` shows.

#![warn(missing_docs)]

pub mod metrics;
pub mod series;
pub mod stitch;
pub mod trace;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, StatsSnapshot, HISTOGRAM_BUCKETS,
};
pub use series::{unix_now_secs, DigestQuantiles, StatsDigest, WindowedSeries, WINDOW_SLOTS};
pub use stitch::{render, stitch, PhaseShare, Timeline, TimelineEntry};
pub use trace::{Span, SpanContext, SpanRecord, SpanTimer, Tracer};
