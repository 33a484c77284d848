//! The traced run of one workload: the per-layer metrics. Separate from the
//! timed run, whose end-to-end numbers are always taken with tracing off.
//!
//! 1. Two untraced repetitions give the engine wall time to compare against.
//! 2. One traced repetition re-runs the engine in one-virtual-minute steps,
//!    one span per step, with the counting allocator on; counts and busy-time
//!    sums come from the engine's own `metrics_snapshot()`.
//! 3. `replay.rs` regenerates the sensor trace and replays it through each
//!    layer's public functions for the per-call costs.
//! 4. The ledger attributes the engine's wall time to layers: measured busy
//!    sums where the snapshot has them, per-call cost x call count elsewhere.

use crate::json::J;
use crate::replay::{self, TraceShape};
use crate::report::{Metric, Outcome};
use crate::run::{self, counter, run_rep, Mode, Rep};
use crate::span::Recorder;
use crate::spec::PER_LAYER;
use crate::timed::{attempted, check_reps, runnable, sizes_json};
use crate::workloads;
use crate::Options;
use std::collections::BTreeMap;
use streamloader::obs::MetricsSnapshot;

fn hist_sum_s(snap: &MetricsSnapshot, key: &str) -> f64 {
    snap.hists.get(key).map_or(0.0, |h| h.sum as f64 / 1e6)
}

fn hist_count(snap: &MetricsSnapshot, key: &str) -> f64 {
    run::hist_count(snap, key) as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Counts and busy sums of the traced repetition, from the system's own
/// snapshot.
fn from_snapshot(name: &str, rep: &Rep, m: &mut BTreeMap<&'static str, f64>) {
    let snap = &rep.snapshot;
    let tuples = rep.emitted as f64;
    let c = |key: &str| counter(snap, key) as f64;
    let events: f64 = ["emit", "deliver", "tick", "monitor", "fault", "retry"]
        .iter()
        .map(|k| hist_count(snap, &format!("engine/ev/{k}_us")))
        .sum();
    m.insert("engine.events_per_tuple", ratio(events, tuples));
    m.insert("engine.emit_busy_s", hist_sum_s(snap, "engine/ev/emit_us"));
    m.insert(
        "engine.deliver_busy_s",
        hist_sum_s(snap, "engine/ev/deliver_us"),
    );
    m.insert("engine.tick_busy_s", hist_sum_s(snap, "engine/ev/tick_us"));
    m.insert(
        "engine.monitor_busy_s",
        hist_sum_s(snap, "engine/ev/monitor_us"),
    );
    m.insert(
        "engine.checkpoints_per_tuple",
        ratio(c("engine/checkpoint/taken"), tuples),
    );
    m.insert(
        "engine.allocs_per_tuple",
        ratio(rep.traced.allocs as f64, tuples),
    );
    m.insert(
        "engine.alloc_bytes_per_tuple",
        ratio(rep.traced.alloc_bytes as f64, tuples),
    );
    m.insert("engine.deploy_us", rep.deploy_us);
    m.insert(
        "engine.queue_depth_peak",
        rep.traced.queue_depths.iter().copied().fold(0.0, f64::max),
    );
    m.insert("engine.shard_batches", c("engine/shard/batches"));
    m.insert("engine.shard_steals", c("engine/shard/steals"));
    m.insert(
        "engine.tuples_per_batch",
        ratio(c("engine/shard/batched_tuples"), c("engine/shard/batches")),
    );
    m.insert("engine.dlq_tuples", rep.dlq as f64);
    m.insert("engine.retries", c("engine/retry/scheduled"));
    m.insert("engine.virt_e2e_p99_ms", rep.virt_e2e_p99_ms);
    m.insert("netsim.msgs_per_tuple", ratio(rep.net_msgs as f64, tuples));
    m.insert(
        "netsim.bytes_per_tuple",
        ratio(rep.net_bytes as f64, tuples),
    );

    // Operators of the workload's deployment ("~sources" is the engine's
    // pseudo-operator for source fan-out, not an operator).
    let prefix = format!("op/{}/", workloads::flow(name).name);
    let (mut busy, mut tuples_in, mut tuples_out) = (0.0, 0.0, 0.0);
    for (key, h) in &snap.hists {
        if key.starts_with(&prefix) && key.ends_with("/proc_us") {
            busy += h.sum as f64 / 1e6;
        }
    }
    for (key, v) in &snap.counters {
        if key.starts_with(&prefix) && !key.contains("~sources") {
            if key.ends_with("/tuples_in") {
                tuples_in += *v as f64;
            } else if key.ends_with("/tuples_out") {
                tuples_out += *v as f64;
            }
        }
    }
    m.insert("ops.busy_s", busy);
    m.insert("ops.tuples_in", tuples_in);
    m.insert("ops.tuples_out", tuples_out);
    m.insert("ops.selectivity", ratio(tuples_out, tuples_in));

    let stored = c("warehouse/events_stored");
    m.insert(
        "warehouse.events_per_tuple",
        ratio(stored, c("warehouse/tuples_ingested")),
    );
    m.insert("durable.fsyncs", c("durable/log/fsyncs"));
    m.insert(
        "durable.fsync_busy_s",
        hist_sum_s(snap, "durable/log/fsync_us"),
    );
    m.insert(
        "durable.wal_bytes_per_event",
        ratio(c("durable/log/bytes_written"), stored),
    );
    m.insert("durable.compactions", c("durable/compaction/runs"));
    m.insert(
        "durable.compact_busy_s",
        hist_sum_s(snap, "durable/compaction/pause_us"),
    );
    m.insert(
        "durable.segments",
        snap.gauges
            .get("durable/log/segments")
            .copied()
            .unwrap_or(0) as f64,
    );
    m.insert(
        "durable.disk_mb",
        rep.disk_bytes as f64 / (1u64 << 20) as f64,
    );
    m.insert("cq.busy_s", hist_sum_s(snap, "cq/match_us"));
    m.insert("cq.fanout_per_event", ratio(c("cq/fanout_deltas"), stored));
    m.insert("cq.dropped_deltas", c("cq/dropped_deltas"));
    m.insert("obs.snapshot_us", rep.traced.snapshot_us);
}

/// Attribute the traced engine wall time to layers. A layer's time is the
/// busy sum the snapshot recorded for it where there is one, and otherwise
/// its replayed per-call cost times the calls the engine made. What is left
/// is the engine's own bookkeeping, `engine.self_s`.
fn ledger(
    rep: &Rep,
    shape: &TraceShape,
    m: &mut BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, f64)> {
    let snap = &rep.snapshot;
    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let tuples = rep.emitted as f64;
    let deliveries = hist_count(snap, "engine/ev/deliver_us");
    let events = get(m, "engine.events_per_tuple") * tuples;
    // Retention evicts on every monitor tick (without it nothing does), at
    // a cost that grows with the hot store: scale the replayed per-call cost
    // from the replay's store size to the sizes the engine's ticks saw.
    let evict = |m: &BTreeMap<&'static str, f64>, per_call: &str, store: &str| {
        if counter(snap, "engine/retention/evicted") == 0 {
            return 0.0;
        }
        ratio(get(m, per_call), get(m, store)) * rep.traced.hot_event_ticks / 1e6
    };
    let frames = counter(snap, "durable/log/frames_appended") as f64;
    let durable_tier = rep.disk_bytes > 0;
    let decode_ns = shape.format_share[0] * get(m, "sensors.decode_csv_ns")
        + shape.format_share[1] * get(m, "sensors.decode_json_ns")
        + shape.format_share[2] * get(m, "sensors.decode_kv_ns");
    let layers = vec![
        (
            "sensors",
            (get(m, "sensors.emit_ns") + decode_ns) * tuples / 1e9,
        ),
        (
            "pubsub",
            (get(m, "pubsub.enrich_ns") + get(m, "pubsub.heartbeat_ns")) * tuples / 1e9,
        ),
        (
            "netsim",
            (get(m, "netsim.queue_ns") * events + get(m, "netsim.route_ns") * deliveries) / 1e9,
        ),
        (
            "ops",
            get(m, "ops.busy_s")
                + get(m, "ops.checkpoint_us") * counter(snap, "engine/checkpoint/taken") as f64
                    / 1e6,
        ),
        // The durable tier's eviction includes its hot store's, so only
        // the tier the workload runs on is charged for eviction.
        (
            "warehouse",
            hist_sum_s(snap, "warehouse/ingest_us")
                + if durable_tier {
                    0.0
                } else {
                    evict(m, "warehouse.evict_us", "~warehouse.evict_events")
                },
        ),
        (
            "durable",
            get(m, "durable.append_ns") * frames / 1e9
                + get(m, "durable.compact_busy_s")
                + if durable_tier {
                    evict(m, "durable.evict_us", "~durable.evict_events")
                } else {
                    0.0
                },
        ),
        (
            "cq",
            get(m, "cq.busy_s") + evict(m, "cq.on_evict_us", "~warehouse.evict_events"),
        ),
        ("obs", get(m, "obs.record_ns") * events / 1e9),
    ];
    let covered: f64 = layers.iter().map(|(_, s)| s).sum();
    let wall = rep.run_wall_s;
    m.insert("engine.self_s", wall - covered);
    m.insert("engine.self_share", ratio(wall - covered, wall));
    m.insert("ledger.coverage", ratio(covered, wall));
    layers
}

pub fn run(name: &str, opts: &Options) -> Result<Outcome, String> {
    runnable(name)?;
    let sizes = workloads::sizes(name, opts.scale());
    let dir = opts.scratch_dir(name);

    let mut reps = vec![
        run_rep(name, opts.seed, &sizes, &dir, Mode::Timed)?,
        run_rep(name, opts.seed, &sizes, &dir, Mode::Timed)?,
    ];
    let untraced_wall = reps.iter().map(|r| r.run_wall_s).fold(f64::MAX, f64::min);

    let mut recorder = Recorder::new(name);
    let root = recorder.open("trace", None);
    let engine_span = recorder.open("engine", Some(root));
    reps.push(run_rep(
        name,
        opts.seed,
        &sizes,
        &dir,
        Mode::Traced {
            recorder: &mut recorder,
            parent: engine_span,
        },
    )?);
    let traced = &reps[2];
    recorder.close(engine_span, 0);
    let replay_span = recorder.open("replay", Some(root));
    let (mut m, shape) = replay::run(
        name,
        opts.seed,
        &sizes,
        traced,
        &dir.join("replay"),
        &mut recorder,
        replay_span,
    )?;
    recorder.close(replay_span, 0);
    recorder.close(root, 0);

    from_snapshot(name, traced, &mut m);
    m.insert(
        "trace.overhead_pct",
        (traced.run_wall_s / untraced_wall - 1.0) * 100.0,
    );
    let layers = ledger(traced, &shape, &mut m);

    let path = opts.out.join(format!("trace-{name}.json"));
    std::fs::write(&path, recorder.to_json().to_text() + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    // The traced repetition ran the same job: hold it to the same checks.
    let (failed, mut notes) = check_reps(&reps);
    notes.push(format!(
        "engine wall {:.3} s traced, {untraced_wall:.3} s untraced; outside `run_for` the \
         traced repetition spent {:.3} s (set-up, polls, queries, checks)",
        traced.run_wall_s,
        recorder.self_time_us(engine_span) / 1e6
    ));
    notes.push(format!(
        "ledger: {}",
        layers
            .iter()
            .map(|(layer, s)| format!("{layer} {s:.3} s"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    notes.push(format!("spans in {}", path.display()));

    let metrics = PER_LAYER
        .iter()
        .filter_map(|(metric, _, _)| Some(Metric::new(metric, *m.get(metric)?)))
        .collect();
    Ok(Outcome {
        workload: name.to_string(),
        metrics,
        attempted: reps.iter().map(attempted).sum(),
        failed,
        notes,
        detail: J::obj(vec![
            ("sizes", sizes_json(name, &sizes, traced.emitted)),
            ("spans", J::Num(recorder.spans.len() as f64)),
        ]),
    })
}
