//! # sl-obs — StreamLoader observability
//!
//! Std-only (zero-dependency) observability primitives for the StreamLoader
//! reproduction: fixed-bucket latency [`Histogram`]s with p50/p95/p99/max,
//! monotonic [`Counter`]s and point-in-time [`Gauge`]s, and a
//! [`MetricsSnapshot`] that serializes to JSON (and back) and renders as a
//! human-readable table.
//!
//! The crate is deliberately free of third-party dependencies so every other
//! workspace crate can use it, including in the offline build environment.
//! That is also why the one [`text::Cursor`] lives here, which the DSN,
//! expression and JSON readers are all written on.
//!
//! ## Example
//!
//! ```
//! use sl_obs::{Metrics, MetricsSnapshot};
//!
//! let mut m = Metrics::new();
//!
//! // Scalars and latency samples.
//! m.counter("tuples_in").add(3);
//! m.gauge("event_queue_depth").set(2);
//! m.hist("proc_us").record(120);
//! m.hist("proc_us").record(480);
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
pub mod text;

pub use hist::Histogram;
pub use metric::{Counter, Gauge};
pub use snapshot::{HistSummary, MetricsSnapshot, SnapshotError, SNAPSHOT_SCHEMA_VERSION};

use std::collections::BTreeMap;
use std::time::Instant;

/// A registry of named instruments owned by one subsystem.
///
/// Instruments are created on first use ([`Metrics::counter`],
/// [`Metrics::gauge`], [`Metrics::hist`]) and frozen into a
/// [`MetricsSnapshot`] with [`Metrics::snapshot`].
///
/// Each kind lives in one slot vector behind its name index. A hot path
/// resolves a name once ([`Metrics::hist_id`], …) and then reaches the
/// instrument by handle ([`Metrics::hist_at`], …); `hist(name)` *is*
/// `hist_at(hist_id(name))`, so a handle and a name address the same
/// instrument and the snapshot cannot tell them apart. Resolving a name
/// creates its instrument: resolve a handle where the instrument is first
/// used, or a key that never fired shows up in the snapshot.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: Slots<Counter>,
    gauges: Slots<Gauge>,
    hists: Slots<Histogram>,
}

/// Handle of a counter in one [`Metrics`] (from [`Metrics::counter_id`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle of a gauge in one [`Metrics`] (from [`Metrics::gauge_id`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle of a histogram in one [`Metrics`] (from [`Metrics::hist_id`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The handle of the counter named `name`, created at zero on first use.
    pub fn counter_id(&mut self, name: &str) -> CounterId {
        CounterId(self.counters.id(name))
    }

    /// The handle of the gauge named `name`, created at zero on first use.
    pub fn gauge_id(&mut self, name: &str) -> GaugeId {
        GaugeId(self.gauges.id(name))
    }

    /// The handle of the histogram named `name`, created empty on first use.
    pub fn hist_id(&mut self, name: &str) -> HistId {
        HistId(self.hists.id(name))
    }

    /// The counter behind a handle of this registry.
    pub fn counter_at(&mut self, id: CounterId) -> &mut Counter {
        &mut self.counters.slots[id.0]
    }

    /// The gauge behind a handle of this registry.
    pub fn gauge_at(&mut self, id: GaugeId) -> &mut Gauge {
        &mut self.gauges.slots[id.0]
    }

    /// The histogram behind a handle of this registry.
    pub fn hist_at(&mut self, id: HistId) -> &mut Histogram {
        &mut self.hists.slots[id.0]
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        let id = self.counter_id(name);
        self.counter_at(id)
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&mut self, name: &str) -> &mut Gauge {
        let id = self.gauge_id(name);
        self.gauge_at(id)
    }

    /// The histogram named `name`, created empty on first use.
    pub fn hist(&mut self, name: &str) -> &mut Histogram {
        let id = self.hist_id(name);
        self.hist_at(id)
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

    /// Freeze every instrument into a serializable snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for (name, c) in self.counters.iter() {
            snap.counters.insert(name.clone(), c.get());
        }
        for (name, g) in self.gauges.iter() {
            snap.gauges.insert(name.clone(), g.get());
        }
        for (name, h) in self.hists.iter() {
            snap.hists.insert(name.clone(), HistSummary::of(h));
        }
        snap
    }
}

/// Instruments of one kind: a slot vector behind a name index. A slot is
/// never removed, so a handle stays valid for the registry's lifetime.
#[derive(Debug, Clone, Default)]
struct Slots<T> {
    index: BTreeMap<String, usize>,
    slots: Vec<T>,
}

impl<T: Default> Slots<T> {
    /// The slot of `name`; the key is allocated only when it is new.
    fn id(&mut self, name: &str) -> usize {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        self.slots.push(T::default());
        self.index.insert(name.to_string(), self.slots.len() - 1);
        self.slots.len() - 1
    }

    fn get(&self, name: &str) -> Option<&T> {
        self.index.get(name).map(|&id| &self.slots[id])
    }

    /// Every instrument, in name order.
    fn iter(&self) -> impl Iterator<Item = (&String, &T)> {
        self.index.iter().map(|(name, &id)| (name, &self.slots[id]))
    }
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
    fn handles_and_names_address_one_storage() {
        // The same work, once by name and once through handles resolved
        // where each instrument is first used.
        let mut by_name = Metrics::new();
        let mut by_handle = Metrics::new();
        let (mut c, mut g, mut h) = (None, None, None);
        for i in 0..5u64 {
            by_name.counter("z/hits").add(i);
            by_name.gauge("a/depth").set(i as i64 - 2);
            by_name.hist("m/lat_us").record(i * 100);

            let id = *c.get_or_insert_with(|| by_handle.counter_id("z/hits"));
            by_handle.counter_at(id).add(i);
            let id = *g.get_or_insert_with(|| by_handle.gauge_id("a/depth"));
            by_handle.gauge_at(id).set(i as i64 - 2);
            let id = *h.get_or_insert_with(|| by_handle.hist_id("m/lat_us"));
            by_handle.hist_at(id).record(i * 100);
        }
        // Mixed: a handle and a name reach the same instrument.
        by_name.counter("b/mixed").add(2);
        let id = by_handle.counter_id("b/mixed");
        by_handle.counter_at(id).inc();
        by_handle.counter("b/mixed").inc();
        assert_eq!(by_handle.snapshot().to_json(), by_name.snapshot().to_json());
        assert_eq!(by_handle.counter_value("z/hits"), 10);
    }

    #[test]
    fn stopwatch_measures_nonnegative_time() {
        let sw = Stopwatch::start();
        let us = sw.elapsed_us();
        assert!(us < 60_000_000, "implausible elapsed time {us}");
    }
}
