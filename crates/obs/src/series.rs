//! Windowed time series over periodic [`StatsSnapshot`]s.
//!
//! A [`WindowedSeries`] is a ring of the last [`WINDOW_SLOTS`] + 1
//! *cumulative* registry snapshots: a sampler thread in each daemon feeds
//! it one per tick. Counters and histogram buckets only grow, so whatever
//! happened over any stretch of the window is the newest sample minus the
//! sample at the start of that stretch — one subtraction, from which
//! counter rates, rolling quantiles and the compact [`StatsDigest`] that
//! agents gossip fleet-wide all follow. Gauges are levels, not totals, so
//! a change carries the newest sample's.
//!
//! The window is the last `WINDOW_SLOTS` ticks by count, not by clock: a
//! sampler that runs late lengthens the window's seconds instead of
//! dropping its oldest samples.
//!
//! Everything lives behind one short mutex taken once per tick and once
//! per query — the sampler path never touches request hot paths, which
//! keep their lock-free atomic instruments.

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::metrics::{HistogramSnapshot, StatsSnapshot};

/// Ticks of history a [`WindowedSeries`] spans: two minutes at the
/// daemons' default 1 s tick.
pub const WINDOW_SLOTS: usize = 120;

/// A ring of the last [`WINDOW_SLOTS`] + 1 cumulative snapshots (see the
/// module docs).
#[derive(Debug, Default)]
pub struct WindowedSeries {
    /// `(unix seconds, snapshot)`, oldest first.
    ring: Mutex<VecDeque<(f64, StatsSnapshot)>>,
}

impl WindowedSeries {
    /// Feed one cumulative snapshot taken at `at_unix_secs`, evicting the
    /// oldest once the window is full.
    pub fn record(&self, snapshot: StatsSnapshot, at_unix_secs: f64) {
        let mut ring = self.ring.lock();
        if ring.len() > WINDOW_SLOTS {
            ring.pop_front();
        }
        ring.push_back((at_unix_secs, snapshot));
    }

    /// What happened over the last `ticks` ticks (at least one, at most
    /// the window): the seconds they took and the newest sample minus the
    /// sample `ticks` before it. `None` with fewer than two samples.
    pub fn change(&self, ticks: usize) -> Option<(f64, StatsSnapshot)> {
        let ring = self.ring.lock();
        let newest = ring.len().checked_sub(1).filter(|&n| n > 0)?;
        let (from_at, from) = &ring[newest - ticks.clamp(1, newest)];
        let (to_at, to) = &ring[newest];
        Some(((to_at - from_at).max(1e-9), difference(from, to)))
    }

    /// The whole window as a compact [`StatsDigest`] for gossip: counter
    /// rates, latest gauges, and p50/p95/p99 (+ p99 exemplar) per
    /// histogram that saw samples. Empty with fewer than two samples.
    pub fn digest(&self, origin: &str, component: &str) -> StatsDigest {
        let empty = StatsDigest {
            origin: origin.to_string(),
            component: component.to_string(),
            ..StatsDigest::default()
        };
        let Some((secs, change)) = self.change(WINDOW_SLOTS) else {
            return empty;
        };
        StatsDigest {
            window_secs: secs,
            counters: change.counters.into_iter().map(|(n, v)| (n, v as f64 / secs)).collect(),
            gauges: change.gauges,
            quantiles: change
                .histograms
                .iter()
                .filter(|h| h.count > 0)
                .map(|h| DigestQuantiles {
                    name: h.name.clone(),
                    count: h.count,
                    p50_secs: h.quantile_secs(0.50),
                    p95_secs: h.quantile_secs(0.95),
                    p99_secs: h.quantile_secs(0.99),
                    p99_exemplar: h.exemplar_near(0.99),
                })
                .collect(),
            ..empty
        }
    }
}

/// Wall-clock seconds since the unix epoch — the time axis sampler
/// threads feed [`WindowedSeries::record`] with.
pub fn unix_now_secs() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap_or_default()
        .as_secs_f64()
}

/// `to` minus `from`. Counters and histogram buckets subtract
/// (saturating: a restarted instrument reads as zero); gauge levels and
/// exemplars — pointers, not quantities — are `to`'s.
fn difference(from: &StatsSnapshot, to: &StatsSnapshot) -> StatsSnapshot {
    let histograms = to
        .histograms
        .iter()
        .map(|h| {
            let base = from.histogram(&h.name);
            HistogramSnapshot {
                name: h.name.clone(),
                count: h.count.saturating_sub(base.map_or(0, |b| b.count)),
                sum_secs: (h.sum_secs - base.map_or(0.0, |b| b.sum_secs)).max(0.0),
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        v.saturating_sub(base.and_then(|b| b.buckets.get(i)).map_or(0, |b| *b))
                    })
                    .collect(),
                exemplars: h.exemplars.clone(),
                max_exemplar: h.max_exemplar,
            }
        })
        .collect();
    StatsSnapshot {
        component: to.component.clone(),
        counters: to
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), v.saturating_sub(from.counter(n))))
            .collect(),
        gauges: to.gauges.clone(),
        histograms,
    }
}

/// The compact per-peer stats summary agents replicate over gossip: one
/// entry per daemon (`origin` is its listen address), holding counter
/// *rates* over the trailing window, latest gauge levels, and rolling
/// latency quantiles with the p99 trace exemplar. Freshness travels as
/// a relative `age_secs` exactly like registry gossip entries, so
/// receivers with different clocks still agree on which copy is newer.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsDigest {
    /// Listen address of the daemon the stats describe.
    pub origin: String,
    /// `"agent"` / `"server"` / … — which kind of daemon.
    pub component: String,
    /// How old this digest is, seconds (0 at the origin; accumulates
    /// hop-relative age as it travels, like gossip registry entries).
    pub age_secs: f64,
    /// Seconds of history the rates/quantiles summarize.
    pub window_secs: f64,
    /// Counter rates over the window, events/second, sorted by name.
    pub counters: Vec<(String, f64)>,
    /// Latest gauge levels, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Rolling quantiles per histogram, sorted by name.
    pub quantiles: Vec<DigestQuantiles>,
}

/// Rolling latency quantiles of one histogram over the digest window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DigestQuantiles {
    /// Histogram name (e.g. `server.compute_secs`).
    pub name: String,
    /// Samples recorded during the window.
    pub count: u64,
    /// Rolling p50, seconds.
    pub p50_secs: f64,
    /// Rolling p95, seconds.
    pub p95_secs: f64,
    /// Rolling p99, seconds.
    pub p99_secs: f64,
    /// Trace exemplar nearest the p99 bucket (0 = none captured).
    pub p99_exemplar: u128,
}

impl StatsDigest {
    /// Look up a counter rate by name (0 when absent).
    pub fn rate(&self, name: &str) -> f64 {
        self.counters.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v)
    }

    /// Look up a gauge level by name (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
    }

    /// Look up a histogram's rolling quantiles by name.
    pub fn quantiles(&self, name: &str) -> Option<&DigestQuantiles> {
        self.quantiles.iter().find(|q| q.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricsRegistry, HISTOGRAM_BUCKETS};

    fn tick(reg: &MetricsRegistry, series: &WindowedSeries, at: f64) {
        series.record(reg.snapshot("test"), at);
    }

    #[test]
    fn first_sample_only_seeds_the_baseline() {
        let reg = MetricsRegistry::new();
        let series = WindowedSeries::default();
        assert!(series.change(1).is_none());
        reg.counter("x.events").add(100);
        tick(&reg, &series, 10.0);
        assert!(series.change(1).is_none(), "one sample has no change yet");
        let empty = StatsDigest {
            origin: "srv0".into(),
            component: "server".into(),
            ..StatsDigest::default()
        };
        assert_eq!(series.digest("srv0", "server"), empty);
        reg.counter("x.events").add(5);
        tick(&reg, &series, 11.5);
        let (secs, change) = series.change(1).unwrap();
        assert_eq!(secs, 1.5);
        assert_eq!(change.counter("x.events"), 5, "a difference, not the cumulative total");
    }

    #[test]
    fn change_spans_the_last_ticks_and_the_window_is_bounded() {
        let reg = MetricsRegistry::new();
        let series = WindowedSeries::default();
        for i in 0..WINDOW_SLOTS as u64 + 10 {
            reg.counter("x.events").add(i);
            tick(&reg, &series, i as f64);
        }
        let newest = WINDOW_SLOTS as u64 + 9;
        let (secs, last) = series.change(1).unwrap();
        assert_eq!((secs, last.counter("x.events")), (1.0, newest));
        let (secs, four) = series.change(4).unwrap();
        assert_eq!((secs, four.counter("x.events")), (4.0, (newest - 3..=newest).sum()));
        // The window holds the last WINDOW_SLOTS ticks, however many are
        // asked for.
        let (secs, all) = series.change(usize::MAX).unwrap();
        assert_eq!(secs, WINDOW_SLOTS as f64);
        assert_eq!(all.counter("x.events"), (newest + 1 - WINDOW_SLOTS as u64..=newest).sum());
        assert_eq!(series.change(0).unwrap().0, 1.0, "zero ticks reads as one");
    }

    #[test]
    fn the_window_is_counted_in_samples_not_seconds() {
        // A sampler that ran late: the gaps lengthen the window, they do
        // not push samples out of it.
        let reg = MetricsRegistry::new();
        let series = WindowedSeries::default();
        let mut at = 0.0;
        for i in 0..=WINDOW_SLOTS {
            reg.counter("x.events").inc();
            at += if i % 2 == 0 { 1.0 } else { 3.0 };
            tick(&reg, &series, at);
        }
        let d = series.digest("srv0", "server");
        assert_eq!(d.window_secs, 2.0 * WINDOW_SLOTS as f64);
        assert_eq!(d.rate("x.events"), 0.5);
    }

    #[test]
    fn gauges_take_the_newest_level() {
        let reg = MetricsRegistry::new();
        let series = WindowedSeries::default();
        for (at, level) in [(0.0, 2), (1.0, 4), (2.0, 8)] {
            reg.gauge("x.depth").set(level);
            tick(&reg, &series, at);
        }
        assert_eq!(series.change(2).unwrap().1.gauge("x.depth"), 8);
        assert_eq!(series.digest("srv0", "server").gauge("x.depth"), 8);
    }

    #[test]
    fn histograms_difference_buckets_and_keep_fresh_exemplars() {
        let reg = MetricsRegistry::new();
        let series = WindowedSeries::default();
        let h = reg.histogram("x.secs");
        h.record_secs_traced(1e-3, 0x1);
        tick(&reg, &series, 0.0);
        h.record_secs_traced(1e-3, 0x2);
        h.record_secs_traced(0.3, 0x3);
        tick(&reg, &series, 1.0);
        let (_, change) = series.change(WINDOW_SLOTS).unwrap();
        let w = change.histogram("x.secs").unwrap();
        assert_eq!(w.count, 2, "only samples after the baseline");
        assert_eq!(w.buckets.iter().sum::<u64>(), 2);
        assert_eq!(w.buckets.len(), HISTOGRAM_BUCKETS);
        assert_eq!(w.exemplar_near(0.99), 0x3);
        assert_eq!(w.exemplar_near(0.01), 0x2, "the newest exemplar of a bucket wins");
    }

    #[test]
    fn digest_summarizes_rates_gauges_and_quantiles() {
        let reg = MetricsRegistry::new();
        let series = WindowedSeries::default();
        tick(&reg, &series, 0.0);
        reg.counter("x.requests").add(30);
        reg.gauge("x.depth").set(5);
        let h = reg.histogram("x.secs");
        for _ in 0..97 {
            h.record_secs_traced(1e-3, 0xAB);
        }
        for _ in 0..3 {
            h.record_secs_traced(2.0, 0xCD);
        }
        reg.histogram("x.idle_secs");
        tick(&reg, &series, 3.0);
        let d = series.digest("srv0", "server");
        assert_eq!(d.origin, "srv0");
        assert_eq!(d.component, "server");
        assert!((d.rate("x.requests") - 10.0).abs() < 1e-9, "30 events / 3 s");
        assert_eq!(d.gauge("x.depth"), 5);
        let q = d.quantiles("x.secs").unwrap();
        assert_eq!(q.count, 100);
        assert!(q.p50_secs <= q.p95_secs && q.p95_secs <= q.p99_secs);
        assert_eq!(q.p99_exemplar, 0xCD, "p99 exemplar points at the slow trace");
        assert!(d.quantiles("x.idle_secs").is_none(), "a histogram with no samples is left out");
        assert!((d.window_secs - 3.0).abs() < 1e-9);
    }
}
