//! The benchmark's metric vocabulary: names, units, directions and bounds.
//! `BENCHMARK.json` at the repository root lists the same names; a test keeps
//! the two in step.

/// Default seed and measuring time of one invocation.
pub const DEFAULT_SEED: u64 = 2016;
pub const RUN_SECONDS: u64 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference value by which the metric may worsen.
    pub bound: f64,
    /// Absolute slack on top of `bound` (`--aa` only), in the metric's unit.
    pub slack: f64,
    /// Workloads that report it; empty means all of them.
    pub workloads: &'static [&'static str],
}

/// The metrics every workload reports with tracing off. These three are the
/// `end_to_end` list of `BENCHMARK.json`.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        slack: 0.005,
        workloads: &[],
    },
    EndToEnd {
        name: "tuples_per_s",
        unit: "tuples/s",
        better: Better::Higher,
        bound: 0.25,
        slack: 0.0,
        workloads: &[],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        slack: 0.0,
        workloads: &[],
    },
];

const STREAMING: &[&str] = &["osaka", "chain", "chain_par", "edw_load"];
const DURABLE: &[&str] = &["edw_load", "edw_query"];
const QUERYING: &[&str] = &["edw_query"];

/// End-to-end metrics that exist on some workloads only, or are expected to
/// be exactly zero. `run.sh` prints and `--aa` gates them, but the contract of
/// `BENCHMARK.json` wants every end-to-end metric on every workload and never
/// zero, so they are not listed there.
pub const PARTIAL: [EndToEnd; 5] = [
    EndToEnd {
        name: "virt_e2e_p99_ms",
        unit: "virt_ms",
        better: Better::Lower,
        bound: 0.0,
        slack: 0.0,
        workloads: STREAMING,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.0,
        slack: 0.0,
        workloads: &[],
    },
    EndToEnd {
        name: "disk_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.02,
        slack: 0.0,
        workloads: DURABLE,
    },
    EndToEnd {
        name: "query_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        slack: 0.0,
        workloads: QUERYING,
    },
    EndToEnd {
        name: "query_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        slack: 0.0,
        workloads: QUERYING,
    },
];

impl EndToEnd {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.workloads.is_empty() || self.workloads.contains(&workload)
    }
}

/// A per-layer metric of the traced run. They carry no bound.
pub type Layer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The layer ledger, grouped by crate. `*_ns`/`*_us` are per call from the
/// replay spans, `*_busy_s` are sums the system's own snapshot records, the
/// rest are counts and ratios.
pub const PER_LAYER: [Layer; 79] = [
    // sensors
    ("sensors.emit_ns", "ns", Lower),
    ("sensors.decode_csv_ns", "ns", Lower),
    ("sensors.decode_json_ns", "ns", Lower),
    ("sensors.decode_kv_ns", "ns", Lower),
    ("sensors.wire_bytes_per_tuple", "B", Lower),
    // pubsub
    ("pubsub.publish_us", "us", Lower),
    ("pubsub.discover_us", "us", Lower),
    ("pubsub.enrich_ns", "ns", Lower),
    ("pubsub.heartbeat_ns", "ns", Lower),
    // netsim
    ("netsim.queue_ns", "ns", Lower),
    ("netsim.route_ns", "ns", Lower),
    ("netsim.msgs_per_tuple", "count", Lower),
    ("netsim.bytes_per_tuple", "B", Lower),
    // engine
    ("engine.events_per_tuple", "count", Lower),
    ("engine.emit_busy_s", "s", Lower),
    ("engine.deliver_busy_s", "s", Lower),
    ("engine.tick_busy_s", "s", Lower),
    ("engine.monitor_busy_s", "s", Lower),
    ("engine.checkpoints_per_tuple", "count", Lower),
    ("engine.self_s", "s", Lower),
    ("engine.self_share", "ratio", Lower),
    ("engine.allocs_per_tuple", "count", Lower),
    ("engine.alloc_bytes_per_tuple", "B", Lower),
    ("engine.deploy_us", "us", Lower),
    ("engine.queue_depth_peak", "count", Lower),
    ("engine.shard_batches", "count", Lower),
    ("engine.shard_steals", "count", Lower),
    ("engine.tuples_per_batch", "count", Higher),
    ("engine.dlq_tuples", "count", Lower),
    ("engine.retries", "count", Lower),
    ("engine.virt_e2e_p99_ms", "virt_ms", Lower),
    // ops
    ("ops.busy_s", "s", Lower),
    ("ops.filter_ns", "ns", Lower),
    ("ops.transform_ns", "ns", Lower),
    ("ops.vprop_ns", "ns", Lower),
    ("ops.aggregate_ns", "ns", Lower),
    ("ops.trigger_ns", "ns", Lower),
    ("ops.checkpoint_us", "us", Lower),
    ("ops.tuples_in", "count", Higher),
    ("ops.tuples_out", "count", Higher),
    ("ops.selectivity", "ratio", Higher),
    // expr
    ("expr.eval_ns", "ns", Lower),
    ("expr.compile_us", "us", Lower),
    // warehouse
    ("warehouse.ingest_ns", "ns", Lower),
    ("warehouse.events_per_tuple", "count", Lower),
    ("warehouse.evict_us", "us", Lower),
    ("warehouse.query_hot_us", "us", Lower),
    ("warehouse.rollup_us", "us", Lower),
    // durable
    ("durable.encode_ns", "ns", Lower),
    ("durable.append_ns", "ns", Lower),
    ("durable.fsyncs", "count", Lower),
    ("durable.fsync_busy_s", "s", Lower),
    ("durable.wal_bytes_per_event", "B", Lower),
    ("durable.evict_us", "us", Lower),
    ("durable.compactions", "count", Lower),
    ("durable.compact_busy_s", "s", Lower),
    ("durable.segments", "count", Lower),
    ("durable.query_cold_narrow_us", "us", Lower),
    ("durable.query_cold_wide_us", "us", Lower),
    ("durable.cache_hit_ratio", "ratio", Higher),
    ("durable.segments_pruned_ratio", "ratio", Higher),
    ("durable.reopen_ms", "ms", Lower),
    ("durable.disk_mb", "MB", Lower),
    // cq
    ("cq.on_events_ns", "ns", Lower),
    ("cq.busy_s", "s", Lower),
    ("cq.fanout_per_event", "count", Lower),
    ("cq.on_evict_us", "us", Lower),
    ("cq.poll_us", "us", Lower),
    ("cq.view_cells_us", "us", Lower),
    ("cq.dropped_deltas", "count", Lower),
    // dataflow, dsn, lint
    ("dataflow.validate_us", "us", Lower),
    ("dataflow.translate_us", "us", Lower),
    ("dsn.parse_us", "us", Lower),
    ("dsn.compile_us", "us", Lower),
    ("lint.deployment_us", "us", Lower),
    // obs and the harness itself
    ("obs.record_ns", "ns", Lower),
    ("obs.snapshot_us", "us", Lower),
    ("trace.overhead_pct", "%", Lower),
    ("ledger.coverage", "ratio", Higher),
];

/// The contract's name rule: starts with a letter or digit, then at most 63
/// more letters, digits, `_`, `.` or `-`.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The contract's unit rule: 1 to 16 letters, digits, `_`, `/`, `%`, `.`, `-`.
#[cfg(test)]
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads;
    use std::collections::BTreeSet;
    use streamloader::obs::json::Json;

    #[test]
    fn name_rule() {
        assert!(valid_name("osaka") && valid_name("engine.self_s") && valid_name("9-a_b.c"));
        assert!(!valid_name("") && !valid_name(".hidden") && !valid_name("_x"));
        assert!(!valid_name("has space") && !valid_name("tuples/s") && !valid_name("é"));
        assert!(valid_name(&"a".repeat(64)) && !valid_name(&"a".repeat(65)));
        assert!(valid_unit("tuples/s") && valid_unit("%") && !valid_unit("") && !valid_unit("µs"));
    }

    #[test]
    fn every_metric_and_workload_name_obeys_the_rule_and_is_unique() {
        let mut seen = BTreeSet::new();
        let e2e = END_TO_END.iter().chain(PARTIAL.iter());
        for (name, unit) in e2e
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
            .chain(workloads::NAMES.iter().map(|w| (*w, "count")))
        {
            assert!(valid_name(name), "bad name {name:?}");
            assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
            assert!(seen.insert(name), "duplicate name {name}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    fn entries<'a>(doc: &'a Json, key: &str) -> Vec<&'a std::collections::BTreeMap<String, Json>> {
        doc.as_obj().expect("object")[key]
            .as_arr()
            .expect("array")
            .iter()
            .map(|e| e.as_obj().expect("entry object"))
            .collect()
    }

    /// `BENCHMARK.json` is hand-written to the driver's contract; this keeps
    /// it saying what the binary prints.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = streamloader::obs::json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(json::num(&doc, "run_seconds"), Some(RUN_SECONDS as f64));

        let names: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        let declared: Vec<&str> = workloads::NAMES
            .into_iter()
            .filter(|w| !workloads::UNDECLARED.contains(w))
            .collect();
        assert_eq!(names, declared);
        for w in entries(&doc, "workloads") {
            let name = w["name"].as_str().unwrap();
            assert_eq!(w["why"].as_str(), Some(workloads::why(name)));
            assert!(workloads::why(name).len() <= 200 && !workloads::why(name).contains('\n'));
        }

        let e2e = entries(&doc, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (entry, spec) in e2e.iter().zip(END_TO_END.iter()) {
            assert_eq!(entry["name"].as_str(), Some(spec.name));
            assert_eq!(entry["unit"].as_str(), Some(spec.unit));
            assert_eq!(entry["better"].as_str(), Some(spec.better.as_str()));
            assert_eq!(entry["bound"], Json::Num(spec.bound));
        }

        let layers = entries(&doc, "per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (entry, (name, unit, better)) in layers.iter().zip(PER_LAYER.iter()) {
            assert_eq!(entry["name"].as_str(), Some(*name));
            assert_eq!(entry["unit"].as_str(), Some(*unit));
            assert_eq!(entry["better"].as_str(), Some(better.as_str()));
        }
    }
}
