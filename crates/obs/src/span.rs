//! Lightweight span tracing.
//!
//! A span is one tuple's residence inside one operator instance. The engine
//! times the operator call itself and hands the finished span to
//! [`Tracer::record`]: the trace id travels with the tuple (see the `trace`
//! field on the STT tuple metadata), the [`SpanKey`] names the deployment /
//! operator / node the span executed on, and the two instants are **host
//! wall-clock microseconds** since the producer's epoch — spans measure what
//! processing costs the host, not the simulation's virtual time.
//!
//! Each span feeds a per-key latency [`Histogram`] and a bounded ring of the
//! most recent spans for debugging.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

use crate::hist::Histogram;

/// How many completed spans the tracer keeps verbatim for inspection.
pub const RECENT_SPAN_CAPACITY: usize = 256;

/// Identifies where a span executed: a deployment's operator on a node.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanKey {
    /// Deployment (dataflow) name.
    pub deployment: String,
    /// Operator name within the deployment.
    pub operator: String,
    /// Node the operator instance runs on.
    pub node: String,
}

impl SpanKey {
    /// Build a key from its three coordinates.
    #[must_use]
    pub fn new(
        deployment: impl Into<String>,
        operator: impl Into<String>,
        node: impl Into<String>,
    ) -> Self {
        SpanKey {
            deployment: deployment.into(),
            operator: operator.into(),
            node: node.into(),
        }
    }
}

impl fmt::Display for SpanKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}@{}", self.deployment, self.operator, self.node)
    }
}

/// One completed span, as read back from the recent-span ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord<'a> {
    /// The tuple's trace id.
    pub trace: u64,
    /// Where the span executed.
    pub key: &'a SpanKey,
    /// Wall-clock start, in microseconds since the producer's epoch.
    pub start_us: u64,
    /// Span duration, in microseconds.
    pub duration_us: u64,
}

/// Handle of one span key in one [`Tracer`] (from [`Tracer::slot`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanSlot(usize);

/// Span registry: allocates trace ids and aggregates per-key latency
/// histograms.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    next_trace: u64,
    /// Slot of each key seen so far.
    slot_of: BTreeMap<SpanKey, usize>,
    /// Per-key histograms, in first-seen (slot) order.
    per_key: Vec<(SpanKey, Histogram)>,
    /// `(trace, slot, start_us, duration_us)` of the latest spans.
    recent: VecDeque<(u64, usize, u64, u64)>,
    completed: u64,
}

impl Tracer {
    /// An empty tracer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a fresh trace id. Ids start at 1; by convention 0 means
    /// "no trace assigned" on tuple metadata.
    pub fn next_trace_id(&mut self) -> u64 {
        self.next_trace += 1;
        self.next_trace
    }

    /// The slot of `key`, created (its histogram empty) the first time the
    /// key is seen; the key is cloned only then. A hot path resolves the
    /// slot once and records through [`Tracer::record_at`].
    pub fn slot(&mut self, key: &SpanKey) -> SpanSlot {
        if let Some(&slot) = self.slot_of.get(key) {
            return SpanSlot(slot);
        }
        self.per_key.push((key.clone(), Histogram::new()));
        self.slot_of.insert(key.clone(), self.per_key.len() - 1);
        SpanSlot(self.per_key.len() - 1)
    }

    /// Record the span `trace` spent at `key` between wall-clock instants
    /// `start_us` and `end_us`, returning its duration in microseconds.
    pub fn record(&mut self, trace: u64, key: &SpanKey, start_us: u64, end_us: u64) -> u64 {
        let slot = self.slot(key);
        self.record_at(trace, slot, start_us, end_us)
    }

    /// [`Tracer::record`] for a key already resolved to `slot` (a slot of
    /// this tracer).
    pub fn record_at(&mut self, trace: u64, slot: SpanSlot, start_us: u64, end_us: u64) -> u64 {
        let duration = end_us.saturating_sub(start_us);
        self.per_key[slot.0].1.record(duration);
        if self.recent.len() == RECENT_SPAN_CAPACITY {
            self.recent.pop_front();
        }
        self.recent.push_back((trace, slot.0, start_us, duration));
        self.completed += 1;
        duration
    }

    /// Number of spans recorded so far.
    #[must_use]
    pub fn completed_spans(&self) -> u64 {
        self.completed
    }

    /// Latency histogram for one span key, if any span was recorded there.
    #[must_use]
    pub fn key_histogram(&self, key: &SpanKey) -> Option<&Histogram> {
        self.slot_of.get(key).map(|slot| &self.per_key[*slot].1)
    }

    /// All per-key latency histograms, ordered by key.
    pub fn histograms(&self) -> impl Iterator<Item = (&SpanKey, &Histogram)> {
        self.slot_of
            .iter()
            .map(|(key, slot)| (key, &self.per_key[*slot].1))
    }

    /// The most recently recorded spans, oldest first (bounded ring of
    /// [`RECENT_SPAN_CAPACITY`]).
    pub fn recent_spans(&self) -> impl Iterator<Item = SpanRecord<'_>> {
        self.recent
            .iter()
            .map(|&(trace, slot, start_us, duration_us)| SpanRecord {
                trace,
                key: &self.per_key[slot].0,
                start_us,
                duration_us,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_feeds_the_key_histogram_and_the_ring() {
        let mut t = Tracer::new();
        let key = SpanKey::new("osaka", "hourly_avg", "n2");
        let id = t.next_trace_id();
        assert_eq!(id, 1);
        assert_eq!(t.record(id, &key, 1_000, 1_750), 750);
        assert_eq!(t.completed_spans(), 1);
        let h = t.key_histogram(&key).unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), Some(750));
        let rec: Vec<_> = t.recent_spans().collect();
        assert_eq!(rec.len(), 1);
        assert_eq!((rec[0].trace, rec[0].key), (1, &key));
        assert_eq!(rec[0].start_us, 1_000);
        assert_eq!(rec[0].duration_us, 750);
    }

    #[test]
    fn a_clock_that_went_backwards_records_a_zero_duration() {
        let mut t = Tracer::new();
        let key = SpanKey::new("d", "op", "n1");
        assert_eq!(t.record(7, &key, 100, 40), 0);
        assert_eq!(t.key_histogram(&key).unwrap().max(), Some(0));
    }

    #[test]
    fn same_trace_through_two_operators_keeps_separate_spans() {
        let mut t = Tracer::new();
        let a = SpanKey::new("d", "filter", "n1");
        let b = SpanKey::new("d", "agg", "n2");
        let id = t.next_trace_id();
        t.record(id, &a, 0, 5);
        t.record(id, &b, 10, 40);
        assert_eq!(t.key_histogram(&a).unwrap().max(), Some(5));
        assert_eq!(t.key_histogram(&b).unwrap().max(), Some(30));
        // Histograms come back in key order, whatever the recording order.
        let keys: Vec<_> = t.histograms().map(|(k, _)| k).collect();
        assert_eq!(keys, [&b, &a]);
        let ring: Vec<_> = t.recent_spans().map(|r| r.key).collect();
        assert_eq!(ring, [&a, &b]);
    }

    #[test]
    fn recent_ring_is_bounded() {
        let mut t = Tracer::new();
        let key = SpanKey::new("d", "op", "n1");
        for _ in 0..(RECENT_SPAN_CAPACITY + 10) {
            let id = t.next_trace_id();
            t.record(id, &key, 0, 1);
        }
        assert_eq!(t.recent_spans().count(), RECENT_SPAN_CAPACITY);
        // Oldest entries were evicted: the first retained trace id is 11.
        assert_eq!(t.recent_spans().next().unwrap().trace, 11);
    }

    #[test]
    fn span_key_display_is_dep_op_node() {
        assert_eq!(
            SpanKey::new("osaka", "agg", "n3").to_string(),
            "osaka/agg@n3"
        );
    }
}
