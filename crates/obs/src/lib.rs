//! # sl-obs — StreamLoader observability
//!
//! Std-only (zero-dependency) observability primitives for the StreamLoader
//! reproduction: fixed-bucket latency [`Histogram`]s with p50/p95/p99/max,
//! monotonic [`Counter`]s and point-in-time [`Gauge`]s, a lightweight span
//! API ([`Tracer::record`]) keyed by deployment/operator/node with
//! per-tuple trace ids, and a
//! [`MetricsSnapshot`] that serializes to JSON (and back) and renders as a
//! human-readable table.
//!
//! The crate is deliberately free of third-party dependencies so every other
//! workspace crate can use it, including in the offline build environment.
//!
//! ## Example
//!
//! ```
//! use sl_obs::{Metrics, MetricsSnapshot, SpanKey};
//!
//! let mut m = Metrics::new();
//!
//! // Scalars and latency samples.
//! m.counter("tuples_in").add(3);
//! m.gauge("event_queue_depth").set(2);
//! m.hist("proc_us").record(120);
//! m.hist("proc_us").record(480);
//!
//! // A span: one tuple's residence inside one operator instance.
//! let trace = m.tracer().next_trace_id();
//! let key = SpanKey::new("osaka-hot-weather", "hourly_avg", "n2");
//! let took = m.tracer().record(trace, &key, 1_000, 1_350);
//! assert_eq!(took, 350);
//!
//! // Freeze, export, and re-import.
//! let snap = m.snapshot();
//! assert_eq!(snap.counters["tuples_in"], 3);
//! assert_eq!(snap.hists["proc_us"].count, 2);
//! let wire = snap.to_json();
//! assert_eq!(MetricsSnapshot::from_json(&wire).unwrap(), snap);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod hist;
pub mod json;
pub mod metric;
pub mod snapshot;
pub mod span;

pub use hist::Histogram;
pub use metric::{Counter, Gauge};
pub use snapshot::{HistSummary, MetricsSnapshot, SnapshotError, SNAPSHOT_SCHEMA_VERSION};
pub use span::{SpanKey, SpanRecord, Tracer};

use std::collections::BTreeMap;
use std::time::Instant;

/// A registry of named instruments owned by one subsystem.
///
/// Instruments are created on first use ([`Metrics::counter`],
/// [`Metrics::gauge`], [`Metrics::hist`]) and frozen into a
/// [`MetricsSnapshot`] with [`Metrics::snapshot`]. Completed spans from the
/// embedded [`Tracer`] appear in the snapshot as `span/<dep>/<op>@<node>`
/// histograms.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    hists: BTreeMap<String, Histogram>,
    tracer: Tracer,
}

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        instrument(&mut self.counters, name)
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&mut self, name: &str) -> &mut Gauge {
        instrument(&mut self.gauges, name)
    }

    /// The histogram named `name`, created empty on first use.
    pub fn hist(&mut self, name: &str) -> &mut Histogram {
        instrument(&mut self.hists, name)
    }

    /// The embedded span tracer.
    pub fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Read-only view of the embedded span tracer.
    #[must_use]
    pub fn tracer_ref(&self) -> &Tracer {
        &self.tracer
    }

    /// Current value of a counter, 0 if it was never touched.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, Counter::get)
    }

    /// Current value of a gauge, 0 if it was never touched.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> i64 {
        self.gauges.get(name).map_or(0, Gauge::get)
    }

    /// Read-only view of a histogram, `None` if it was never touched.
    #[must_use]
    pub fn hist_ref(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    /// Freeze every instrument (including per-span-key histograms) into a
    /// serializable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for (name, c) in &self.counters {
            snap.counters.insert(name.clone(), c.get());
        }
        for (name, g) in &self.gauges {
            snap.gauges.insert(name.clone(), g.get());
        }
        for (name, h) in &self.hists {
            snap.hists.insert(name.clone(), HistSummary::of(h));
        }
        for (key, h) in self.tracer.histograms() {
            snap.hists.insert(format!("span/{key}"), HistSummary::of(h));
        }
        if self.tracer.completed_spans() > 0 {
            snap.counters
                .insert("spans_completed".into(), self.tracer.completed_spans());
        }
        snap
    }
}

/// Look `name` up before allocating a key for it: instruments are touched
/// per event, created once.
fn instrument<'a, T: Default>(map: &'a mut BTreeMap<String, T>, name: &str) -> &'a mut T {
    if !map.contains_key(name) {
        map.insert(name.to_string(), T::default());
    }
    map.get_mut(name)
        .expect("present: inserted above on a miss")
}

/// Wall-clock stopwatch for timing code sections into a [`Histogram`].
///
/// ```
/// use sl_obs::{Histogram, Stopwatch};
/// let mut h = Histogram::new();
/// let sw = Stopwatch::start();
/// // ... the work being timed ...
/// h.record(sw.elapsed_us());
/// assert_eq!(h.count(), 1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Microseconds elapsed since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        self.0.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_creates_instruments_on_first_use() {
        let mut m = Metrics::new();
        m.counter("c").inc();
        m.gauge("g").set(-2);
        m.hist("h").record(9);
        assert_eq!(m.counter_value("c"), 1);
        assert_eq!(m.gauge_value("g"), -2);
        assert_eq!(m.hist_ref("h").unwrap().count(), 1);
        // Untouched instruments read as empty, not as errors.
        assert_eq!(m.counter_value("never"), 0);
        assert_eq!(m.gauge_value("never"), 0);
        assert!(m.hist_ref("never").is_none());
    }

    #[test]
    fn snapshot_includes_span_histograms_and_span_counters() {
        let mut m = Metrics::new();
        let key = SpanKey::new("d", "op", "n1");
        let t = m.tracer().next_trace_id();
        m.tracer().record(t, &key, 100, 150);
        let snap = m.snapshot();
        assert_eq!(snap.hists["span/d/op@n1"].count, 1);
        assert_eq!(snap.hists["span/d/op@n1"].max, 50);
        assert_eq!(snap.counters["spans_completed"], 1);
    }

    #[test]
    fn snapshot_of_registry_round_trips_through_json() {
        let mut m = Metrics::new();
        m.counter("a/b").add(5);
        m.gauge("q").set(17);
        m.hist("lat").record(1000);
        let snap = m.snapshot();
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn stopwatch_measures_nonnegative_time() {
        let sw = Stopwatch::start();
        let us = sw.elapsed_us();
        assert!(us < 60_000_000, "implausible elapsed time {us}");
    }
}
