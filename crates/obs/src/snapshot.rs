//! Exportable metric snapshots.
//!
//! A [`MetricsSnapshot`] is a frozen, serializable view of a subsystem's
//! instruments (or of several subsystems merged under prefixes); each
//! instrument's `put_into` writes it under its key once it has fired. It
//! serializes to a stable JSON document — schema version
//! [`SNAPSHOT_SCHEMA_VERSION`], sorted keys — and back, and renders as a
//! human-readable table for console dashboards.
//!
//! JSON shape (schema version 1):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "counters": {"engine/tuples_in": 42},
//!   "gauges": {"engine/event_queue_depth": 3},
//!   "hists": {
//!     "engine/op_proc_us": {
//!       "count": 10, "sum": 1234, "min": 5, "max": 900,
//!       "p50": 64, "p95": 512, "p99": 900
//!     }
//!   }
//! }
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::Histogram;
use crate::json::{self, Json};

/// Version stamped into every snapshot so downstream consumers can detect
/// format changes.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// Summary statistics of one histogram at snapshot time.
///
/// `min`/`max`/percentiles are 0 for an empty histogram (`count == 0`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of recorded samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Median (0 when empty).
    pub p50: u64,
    /// 95th percentile (0 when empty).
    pub p95: u64,
    /// 99th percentile (0 when empty).
    pub p99: u64,
}

impl HistSummary {
    /// Summarize a live histogram.
    #[must_use]
    pub fn of(h: &Histogram) -> Self {
        HistSummary {
            count: h.count(),
            sum: h.sum(),
            min: h.min().unwrap_or(0),
            max: h.max().unwrap_or(0),
            p50: h.p50().unwrap_or(0),
            p95: h.p95().unwrap_or(0),
            p99: h.p99().unwrap_or(0),
        }
    }

    /// Mean sample value (0.0 when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A frozen, serializable view of a set of metric instruments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Snapshot format version ([`SNAPSHOT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram summaries by name.
    pub hists: BTreeMap<String, HistSummary>,
}

impl MetricsSnapshot {
    /// An empty snapshot at the current schema version.
    #[must_use]
    pub fn new() -> Self {
        MetricsSnapshot {
            schema_version: SNAPSHOT_SCHEMA_VERSION,
            ..Default::default()
        }
    }

    /// Serialize to the stable JSON document described in the module docs.
    /// Keys are sorted, so equal snapshots produce byte-identical JSON.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"schema_version\":");
        let _ = write!(out, "{}", self.schema_version);
        out.push_str(",\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"hists\":{");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count, h.sum, h.min, h.max, h.p50, h.p95, h.p99
            );
        }
        out.push_str("}}");
        out
    }

    /// Parse a snapshot previously produced by [`MetricsSnapshot::to_json`].
    pub fn from_json(input: &str) -> Result<Self, SnapshotError> {
        let doc = json::parse(input).map_err(SnapshotError::Json)?;
        let obj = doc
            .as_obj()
            .ok_or_else(|| field_err("document is not an object"))?;
        let schema_version =
            obj.get("schema_version")
                .and_then(Json::as_u64)
                .ok_or_else(|| field_err("missing schema_version"))? as u32;
        if schema_version != SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::Schema {
                found: schema_version,
            });
        }
        let mut snap = MetricsSnapshot::new();
        if let Some(m) = obj.get("counters").and_then(Json::as_obj) {
            for (name, v) in m {
                let v = v
                    .as_u64()
                    .ok_or_else(|| field_err("counter value must be u64"))?;
                snap.counters.insert(name.clone(), v);
            }
        }
        if let Some(m) = obj.get("gauges").and_then(Json::as_obj) {
            for (name, v) in m {
                let v = v
                    .as_i64()
                    .ok_or_else(|| field_err("gauge value must be i64"))?;
                snap.gauges.insert(name.clone(), v);
            }
        }
        if let Some(m) = obj.get("hists").and_then(Json::as_obj) {
            for (name, v) in m {
                let h = v
                    .as_obj()
                    .ok_or_else(|| field_err("hist entry must be an object"))?;
                let get = |k: &str| {
                    h.get(k)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| field_err(&format!("hist field '{k}' must be u64")))
                };
                snap.hists.insert(
                    name.clone(),
                    HistSummary {
                        count: get("count")?,
                        sum: get("sum")?,
                        min: get("min")?,
                        max: get("max")?,
                        p50: get("p50")?,
                        p95: get("p95")?,
                        p99: get("p99")?,
                    },
                );
            }
        }
        Ok(snap)
    }

    /// Merge `other` into `self`, prefixing every metric name with
    /// `prefix` + `/`. Counter collisions add (saturating); gauge
    /// collisions take the incoming value; histogram summaries must not
    /// collide (last wins).
    pub fn absorb(&mut self, prefix: &str, other: &MetricsSnapshot) {
        let key = |name: &str| {
            if prefix.is_empty() {
                name.to_string()
            } else {
                format!("{prefix}/{name}")
            }
        };
        for (name, v) in &other.counters {
            let total = self.counters.entry(key(name)).or_insert(0);
            *total = total.saturating_add(*v);
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(key(name), *v);
        }
        for (name, h) in &other.hists {
            self.hists.insert(key(name), *h);
        }
    }

    /// Render a fixed-width table of every instrument, for console
    /// dashboards. Histogram values are shown in microseconds.
    #[must_use]
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "metrics snapshot (schema v{})", self.schema_version);
        if !self.counters.is_empty() {
            let w = self
                .counters
                .keys()
                .map(String::len)
                .max()
                .unwrap_or(0)
                .max(7);
            let _ = writeln!(out, "  {:<w$}  {:>12}", "counter", "value");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<w$}  {v:>12}");
            }
        }
        if !self.gauges.is_empty() {
            let w = self
                .gauges
                .keys()
                .map(String::len)
                .max()
                .unwrap_or(0)
                .max(5);
            let _ = writeln!(out, "  {:<w$}  {:>12}", "gauge", "value");
            for (name, v) in &self.gauges {
                let _ = writeln!(out, "  {name:<w$}  {v:>12}");
            }
        }
        if !self.hists.is_empty() {
            let w = self.hists.keys().map(String::len).max().unwrap_or(0).max(9);
            let _ = writeln!(
                out,
                "  {:<w$}  {:>8}  {:>9}  {:>9}  {:>9}  {:>9}",
                "histogram", "count", "p50[us]", "p95[us]", "p99[us]", "max[us]"
            );
            for (name, h) in &self.hists {
                let _ = writeln!(
                    out,
                    "  {name:<w$}  {:>8}  {:>9}  {:>9}  {:>9}  {:>9}",
                    h.count, h.p50, h.p95, h.p99, h.max
                );
            }
        }
        out
    }
}

fn field_err(msg: &str) -> SnapshotError {
    SnapshotError::Field(msg.to_string())
}

/// Why parsing a snapshot failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The document was not valid JSON.
    Json(json::ParseError),
    /// The document was valid JSON but not a valid snapshot.
    Field(String),
    /// The snapshot was produced by an incompatible schema version.
    Schema {
        /// The version the document declared.
        found: u32,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Json(e) => write!(f, "{e}"),
            SnapshotError::Field(msg) => write!(f, "invalid snapshot: {msg}"),
            SnapshotError::Schema { found } => write!(
                f,
                "unsupported snapshot schema version {found} (expected {SNAPSHOT_SCHEMA_VERSION})"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> MetricsSnapshot {
        let mut s = MetricsSnapshot::new();
        s.counters.insert("engine/tuples_in".into(), 42);
        s.counters.insert("broker/enrichments".into(), 7);
        s.gauges.insert("engine/event_queue_depth".into(), 3);
        s.gauges
            .insert("netsim/link/n1->n2/queued_bytes".into(), -1);
        let mut h = Histogram::new();
        for v in [5, 64, 900] {
            h.record(v);
        }
        s.hists
            .insert("engine/op_proc_us".into(), HistSummary::of(&h));
        s.hists
            .insert("empty".into(), HistSummary::of(&Histogram::new()));
        s
    }

    #[test]
    fn json_round_trips_exactly() {
        let s = sample_snapshot();
        let json = s.to_json();
        let back = MetricsSnapshot::from_json(&json).unwrap();
        assert_eq!(back, s);
        // Deterministic: serializing again yields the identical document.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn wrong_schema_version_is_rejected() {
        let json = sample_snapshot()
            .to_json()
            .replace("\"schema_version\":1", "\"schema_version\":99");
        match MetricsSnapshot::from_json(&json) {
            Err(SnapshotError::Schema { found: 99 }) => {}
            other => panic!("expected schema error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_documents_are_rejected() {
        assert!(matches!(
            MetricsSnapshot::from_json("[1,2]"),
            Err(SnapshotError::Field(_))
        ));
        assert!(matches!(
            MetricsSnapshot::from_json("{\"x\":"),
            Err(SnapshotError::Json(_))
        ));
        assert!(matches!(
            MetricsSnapshot::from_json(
                "{\"schema_version\":1,\"counters\":{\"a\":-5},\"gauges\":{},\"hists\":{}}"
            ),
            Err(SnapshotError::Field(_))
        ));
    }

    #[test]
    fn absorb_prefixes_and_accumulates() {
        let mut total = MetricsSnapshot::new();
        let mut part = MetricsSnapshot::new();
        part.counters.insert("tuples_in".into(), 10);
        part.gauges.insert("depth".into(), 4);
        total.absorb("engine", &part);
        total.absorb("engine", &part);
        assert_eq!(total.counters["engine/tuples_in"], 20);
        assert_eq!(total.gauges["engine/depth"], 4);
    }

    #[test]
    fn absorb_saturates_colliding_counters() {
        let mut total = MetricsSnapshot::new();
        let mut part = MetricsSnapshot::new();
        part.counters.insert("n".into(), u64::MAX);
        total.absorb("", &part);
        total.absorb("", &part);
        assert_eq!(total.counters["n"], u64::MAX);
    }

    #[test]
    fn put_writes_only_instruments_that_fired() {
        use crate::{Counter, Gauge};
        let (mut c, mut g, mut h) = (Counter::new(), Gauge::new(), Histogram::new());
        let mut s = MetricsSnapshot::new();
        c.put_into(&mut s, "c");
        g.put_into(&mut s, "g");
        h.put_into(&mut s, "h");
        assert_eq!(s, MetricsSnapshot::new());
        c.add(0);
        g.set(0);
        h.record(7);
        c.put_into(&mut s, "c");
        g.put_into(&mut s, "g");
        h.put_into(&mut s, "h");
        assert_eq!((s.counters["c"], s.gauges["g"]), (0, 0));
        assert_eq!(s.hists["h"], HistSummary::of(&h));
    }

    #[test]
    fn table_lists_every_instrument() {
        let table = sample_snapshot().render_table();
        for needle in [
            "engine/tuples_in",
            "broker/enrichments",
            "engine/event_queue_depth",
            "engine/op_proc_us",
            "p95[us]",
        ] {
            assert!(table.contains(needle), "table missing {needle}:\n{table}");
        }
    }

    #[test]
    fn hist_summary_of_empty_histogram_is_zeroed() {
        let s = HistSummary::of(&Histogram::new());
        assert_eq!(s, HistSummary::default());
        assert_eq!(s.mean(), 0.0);
    }
}
