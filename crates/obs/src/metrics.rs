//! Atomic metric instruments and the registry that owns them.
//!
//! Three instrument kinds cover everything the daemons need:
//!
//! * [`Counter`] — monotone `u64`, one `fetch_add` per event;
//! * [`Gauge`] — signed level (`i64`), inc/dec/set;
//! * [`Histogram`] — fixed log-scale buckets for durations: bucket `i`
//!   holds samples up to `1 µs × 2^i`, doubling from 1 µs to ~33 s, with
//!   the last bucket absorbing everything longer. Recording is two
//!   `fetch_add`s plus one on the nanosecond sum — no locks, no heap.
//!
//! Instruments are created (and found again) by name through the
//! [`MetricsRegistry`]; callers cache the returned `Arc` outside hot
//! loops. [`MetricsRegistry::snapshot`] freezes everything into a
//! [`StatsSnapshot`], the plain-data form that travels in `StatsReply`
//! wire messages.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Number of histogram buckets: 1 µs doubling up to `2^25` µs (~33.6 s),
/// with the final bucket catching every longer sample.
pub const HISTOGRAM_BUCKETS: usize = 26;

/// A monotone event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Count one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events at once.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed level (queue depths, in-flight request counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Raise the level by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Lower the level by one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Set the level outright.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket log-scale duration histogram (seconds in, buckets of
/// doubling width from 1 µs).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    /// Trace exemplars: the most recent trace id recorded into each
    /// bucket plus the trace of the slowest sample seen. 128-bit ids
    /// cannot be updated tearlessly with two atomics, so the slots sit
    /// behind a mutex taken with `try_lock` — a contended update is
    /// simply skipped (exemplars are a sample, not an invariant), so
    /// the recording hot path never blocks.
    exemplars: Mutex<ExemplarSlots>,
}

#[derive(Debug)]
struct ExemplarSlots {
    per_bucket: [u128; HISTOGRAM_BUCKETS],
    max_secs: f64,
    max_trace: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            exemplars: Mutex::new(ExemplarSlots {
                per_bucket: [0; HISTOGRAM_BUCKETS],
                max_secs: f64::NEG_INFINITY,
                max_trace: 0,
            }),
        }
    }
}

/// The bucket a sample of `secs` falls into.
fn bucket_index(secs: f64) -> usize {
    if secs.is_nan() || secs <= 1e-6 {
        // NaN, negative and sub-microsecond samples all land in bucket 0.
        return 0;
    }
    let idx = (secs / 1e-6).log2().ceil() as i64;
    idx.clamp(0, HISTOGRAM_BUCKETS as i64 - 1) as usize
}

/// Inclusive upper bound of bucket `i` in seconds (the last bucket is
/// reported with this bound but actually unbounded).
pub fn bucket_bound_secs(i: usize) -> f64 {
    1e-6 * (1u64 << i.min(HISTOGRAM_BUCKETS - 1)) as f64
}

impl Histogram {
    /// Record one duration sample in seconds.
    pub fn record_secs(&self, secs: f64) {
        self.record_secs_traced(secs, 0);
    }

    /// Record one duration sample in seconds, retaining `trace_id` as the
    /// bucket's exemplar (and as the histogram's max exemplar if this is
    /// the slowest sample yet). A zero trace id records the sample
    /// without touching the exemplar slots — identical cost to
    /// [`Histogram::record_secs`].
    pub fn record_secs_traced(&self, secs: f64, trace_id: u128) {
        let idx = bucket_index(secs);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let nanos = if secs.is_finite() && secs > 0.0 {
            (secs * 1e9).min(u64::MAX as f64) as u64
        } else {
            0
        };
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        if trace_id != 0 {
            // Skipped under contention: a lost exemplar update is
            // acceptable sampling loss, a blocked request path is not.
            if let Some(mut slots) = self.exemplars.try_lock() {
                slots.per_bucket[idx] = trace_id;
                if secs > slots.max_secs {
                    slots.max_secs = secs;
                    slots.max_trace = trace_id;
                }
            }
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples in seconds.
    pub fn sum_secs(&self) -> f64 {
        self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Freeze this histogram into plain data.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let (exemplars, max_exemplar) = {
            let slots = self.exemplars.lock();
            (slots.per_bucket.to_vec(), slots.max_trace)
        };
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count(),
            sum_secs: self.sum_secs(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            exemplars,
            max_exemplar,
        }
    }
}

/// Plain-data form of one histogram, as carried in `StatsReply`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSnapshot {
    /// Metric name (e.g. `server.compute_secs`).
    pub name: String,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples, seconds.
    pub sum_secs: f64,
    /// Per-bucket sample counts ([`HISTOGRAM_BUCKETS`] entries; decoded
    /// snapshots from other builds may legitimately differ in length).
    pub buckets: Vec<u64>,
    /// The most recent trace id recorded into each bucket (0 = none
    /// yet). Same length as `buckets` in a snapshot this build took.
    pub exemplars: Vec<u128>,
    /// Trace id of the slowest sample ever recorded (0 = none).
    pub max_exemplar: u128,
}

impl HistogramSnapshot {
    /// Mean sample in seconds (0 when empty).
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_secs / self.count as f64
        }
    }

    /// Estimate the `q`-quantile in seconds from the log buckets: walk
    /// the cumulative counts and report the upper bound of the bucket
    /// holding the `q`-th sample. With doubling buckets the estimate is
    /// within 2x of the true sample, which is what a log histogram can
    /// promise. Returns 0 when empty; `q` is clamped to `[0, 1]`.
    pub fn quantile_secs(&self, q: f64) -> f64 {
        match self.quantile_bucket(q) {
            Some(i) => bucket_bound_secs(i),
            None => 0.0,
        }
    }

    /// Index of the bucket holding the `q`-th sample (the same walk
    /// [`HistogramSnapshot::quantile_secs`] reports the bound of), or
    /// `None` when the histogram is empty.
    pub fn quantile_bucket(&self, q: f64) -> Option<usize> {
        if self.count == 0 || self.buckets.is_empty() {
            return None;
        }
        let q = if q.is_nan() { 0.5 } else { q.clamp(0.0, 1.0) };
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative = cumulative.saturating_add(c);
            if cumulative >= target {
                return Some(i);
            }
        }
        Some(self.buckets.len() - 1)
    }

    /// The trace exemplar nearest the `q`-quantile bucket: the exemplar
    /// of the bucket itself if one was captured, else the nearest lower
    /// bucket's, else the nearest higher, else the max-sample exemplar.
    /// Returns 0 when no sample ever carried a trace id.
    pub fn exemplar_near(&self, q: f64) -> u128 {
        let Some(idx) = self.quantile_bucket(q) else {
            return self.max_exemplar;
        };
        if self.exemplars.is_empty() {
            return self.max_exemplar;
        }
        let idx = idx.min(self.exemplars.len() - 1);
        for i in (0..=idx).rev() {
            if self.exemplars[i] != 0 {
                return self.exemplars[i];
            }
        }
        for &e in &self.exemplars[idx + 1..] {
            if e != 0 {
                return e;
            }
        }
        self.max_exemplar
    }
}

/// Everything one daemon's registry held at snapshot time.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Which daemon answered (`"client"`, `"server"`, `"agent"`, …).
    pub component: String,
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge levels, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl StatsSnapshot {
    /// Look up a counter by name (0 when absent — an instrument that was
    /// never touched may not exist yet).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Look up a gauge by name (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Look up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Owns every named instrument of one daemon. Lookup takes a short lock;
/// the instruments themselves are lock-free, so hot paths fetch their
/// `Arc`s once and then only touch atomics.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Freeze every instrument into a [`StatsSnapshot`] labelled with the
    /// answering `component`.
    pub fn snapshot(&self, component: &str) -> StatsSnapshot {
        StatsSnapshot {
            component: component.to_string(),
            counters: self
                .counters
                .lock()
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .iter()
                .map(|(n, h)| h.snapshot(n))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("x.events");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("x.events").get(), 5, "same name, same instrument");
        let g = reg.gauge("x.depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.set(-3);
        assert_eq!(reg.gauge("x.depth").get(), -3);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(1e-6), 0);
        assert_eq!(bucket_index(1.5e-6), 1);
        assert_eq!(bucket_index(3e-6), 2);
        // 1 ms = 2^10 µs exactly: bucket 10.
        assert_eq!(bucket_index(1.024e-3), 10);
        // Far beyond the last bound: clamped to the overflow bucket.
        assert_eq!(bucket_index(1e6), HISTOGRAM_BUCKETS - 1);
        // Bounds double from 1 µs.
        assert_eq!(bucket_bound_secs(0), 1e-6);
        assert_eq!(bucket_bound_secs(1), 2e-6);
        assert!(bucket_bound_secs(HISTOGRAM_BUCKETS - 1) > 30.0);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("x.secs");
        h.record_secs(0.5e-6);
        h.record_secs(3e-6);
        h.record_secs(0.010);
        let snap = h.snapshot("x.secs");
        assert_eq!(snap.count, 3);
        assert!((snap.sum_secs - 0.0100035).abs() < 1e-6, "sum {}", snap.sum_secs);
        assert_eq!(snap.buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 3);
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[2], 1);
        assert!((snap.mean_secs() - snap.sum_secs / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles_walk_the_log_buckets() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("x.secs");
        // 90 samples at ~1 µs, 9 at ~1 ms, 1 at ~1 s.
        for _ in 0..90 {
            h.record_secs(0.9e-6);
        }
        for _ in 0..9 {
            h.record_secs(1.0e-3);
        }
        h.record_secs(0.9);
        let snap = h.snapshot("x.secs");
        assert_eq!(snap.quantile_secs(0.5), bucket_bound_secs(0), "p50 in the 1 µs bucket");
        let p95 = snap.quantile_secs(0.95);
        assert!((0.5e-3..=2.1e-3).contains(&p95), "p95 near 1 ms, got {p95}");
        let p99 = snap.quantile_secs(0.99);
        assert!((0.5e-3..=2.1e-3).contains(&p99), "p99 is the 99th sample (1 ms), got {p99}");
        assert!(snap.quantile_secs(1.0) >= 0.5, "p100 lands on the 1 s sample");
        assert!(snap.quantile_secs(1.0) >= snap.quantile_secs(0.5));
        let empty = HistogramSnapshot {
            name: "e".into(),
            buckets: vec![0; HISTOGRAM_BUCKETS],
            ..Default::default()
        };
        assert_eq!(empty.quantile_secs(0.5), 0.0);
    }

    #[test]
    fn exemplars_track_buckets_and_the_max_sample() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("x.secs");
        h.record_secs(1e-3); // untraced: no exemplar
        h.record_secs_traced(1e-3, 0xAA);
        h.record_secs_traced(0.9e-3, 0xBB); // same bucket (≤1.024 ms): overwrites
        h.record_secs_traced(0.5, 0xCC); // slowest sample so far
        h.record_secs_traced(2e-6, 0xDD);
        let snap = h.snapshot("x.secs");
        assert_eq!(snap.exemplars.len(), HISTOGRAM_BUCKETS);
        assert_eq!(snap.exemplars[bucket_index(1e-3)], 0xBB, "latest wins the bucket");
        assert_eq!(snap.exemplars[bucket_index(2e-6)], 0xDD);
        assert_eq!(snap.max_exemplar, 0xCC, "slowest sample pins the max exemplar");
        // p99 of {2µs, 1ms, 1ms, 1ms, 0.5s} lands in the 0.5 s bucket.
        assert_eq!(snap.exemplar_near(0.99), 0xCC);
        // p50 lands in the 1 ms bucket.
        assert_eq!(snap.exemplar_near(0.5), 0xBB);
        // A quantile falling in an exemplar-free bucket borrows the
        // nearest captured one rather than returning nothing.
        assert_ne!(snap.exemplar_near(0.2), 0);
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.exemplar_near(0.99), 0);
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let reg = MetricsRegistry::new();
        reg.counter("b.second").add(2);
        reg.counter("a.first").add(1);
        reg.gauge("depth").set(7);
        reg.histogram("lat").record_secs(0.001);
        let snap = reg.snapshot("test");
        assert_eq!(snap.component, "test");
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a.first", "b.second"], "BTreeMap keeps names sorted");
        assert_eq!(snap.counter("a.first"), 1);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("depth"), 7);
        assert_eq!(snap.histogram("lat").unwrap().count, 1);
        assert!(snap.histogram("missing").is_none());
    }

    #[test]
    fn instruments_are_shared_across_threads() {
        let reg = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let c = reg.counter("hits");
                    for _ in 0..1000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.counter("hits").get(), 4000);
    }
}
