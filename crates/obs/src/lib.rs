//! # sl-obs — StreamLoader observability
//!
//! Std-only (zero-dependency) observability primitives for the StreamLoader
//! reproduction: fixed-bucket latency [`Histogram`]s with p50/p95/p99/max,
//! monotonic [`Counter`]s and point-in-time [`Gauge`]s, and a
//! [`MetricsSnapshot`] that serializes to JSON (and back) and renders as a
//! human-readable table.
//!
//! A subsystem declares its instruments with [`instruments!`]: plain fields
//! of one struct, each with its snapshot key, updated by field access. Its
//! generated `snapshot()` writes each one under its key, so a key is
//! spelled once and a misspelled instrument does not compile. The snapshot
//! lists an instrument from its first update on.
//!
//! The crate is deliberately free of third-party dependencies so every other
//! workspace crate can use it, including in the offline build environment.
//! That is also why the one [`text::Cursor`] lives here, which the DSN,
//! expression and JSON readers are all written on.
//!
//! ## Example
//!
//! ```
//! use sl_obs::{Counter, Gauge, Histogram, MetricsSnapshot};
//!
//! sl_obs::instruments! {
//!     /// A subsystem's instruments, declared.
//!     struct Instruments {
//!         tuples_in: Counter = "tuples_in",
//!         queue_depth: Gauge = "queue_depth",
//!         proc_us: Histogram = "op/proc_us",
//!         dropped: Counter = "dropped",
//!     }
//! }
//!
//! let mut inst = Instruments::default();
//! inst.tuples_in.add(3);
//! inst.queue_depth.set(2);
//! inst.proc_us.record(120);
//! inst.proc_us.record(480);
//!
//! // Freeze (`dropped` never fired, so it is absent), export, re-import.
//! let snap = inst.snapshot();
//! assert_eq!(snap.counters["tuples_in"], 3);
//! assert_eq!(snap.hists["op/proc_us"].count, 2);
//! assert!(!snap.counters.contains_key("dropped"));
//! assert_eq!(MetricsSnapshot::from_json(&snap.to_json()).unwrap(), snap);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod hist;
pub mod json;
mod metric;
mod snapshot;
pub mod text;

pub use hist::Histogram;
pub use metric::{Counter, Gauge};
pub use snapshot::{HistSummary, MetricsSnapshot, SnapshotError, SNAPSHOT_SCHEMA_VERSION};

use std::collections::BTreeMap;
use std::time::Instant;

/// Declare a subsystem's instruments (see the crate docs): a struct
/// deriving `Debug` and `Default` whose [`Counter`], [`Gauge`] and
/// [`Histogram`] fields each carry `= "its/snapshot/key"`, and a
/// `snapshot()` writing every keyed instrument that fired under its key.
/// A field without a key (an array or vector of instruments) is left to
/// its owner to write.
#[macro_export]
macro_rules! instruments {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $ty:ty $(= $key:literal)?),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default)]
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $ty,)*
        }

        impl $name {
            /// Every keyed instrument that fired, under its key.
            $vis fn snapshot(&self) -> $crate::MetricsSnapshot {
                let mut snap = $crate::MetricsSnapshot::new();
                $($(self.$field.put_into(&mut snap, $key);)?)*
                snap
            }
        }
    };
}

/// Instruments looked up by name, each created by its first lookup; the
/// snapshot lists the ones that were updated, as for declared ones.
///
/// No library crate records through it: their instruments are declared
/// with [`instruments!`]. It serves callers that pick names at run time,
/// such as a benchmark timing a by-name record, and tests that build
/// snapshots.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    hists: BTreeMap<String, Histogram>,
}

impl Metrics {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        self.counters.entry(name.to_string()).or_default()
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&mut self, name: &str) -> &mut Gauge {
        self.gauges.entry(name.to_string()).or_default()
    }

    /// The histogram named `name`, created empty on first use.
    pub fn hist(&mut self, name: &str) -> &mut Histogram {
        self.hists.entry(name.to_string()).or_default()
    }

    /// Freeze every instrument that was updated into a snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for (name, c) in &self.counters {
            c.put_into(&mut snap, name);
        }
        for (name, g) in &self.gauges {
            g.put_into(&mut snap, name);
        }
        for (name, h) in &self.hists {
            h.put_into(&mut snap, name);
        }
        snap
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
        m.counter("zero").add(0);
        m.counter("looked_up_only");
        let snap = m.snapshot();
        assert_eq!(snap.counters["c"], 1);
        assert_eq!(snap.gauges["g"], -2);
        assert_eq!(snap.hists["h"].count, 1);
        assert_eq!(snap.counters["zero"], 0);
        assert!(!snap.counters.contains_key("looked_up_only"));
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
