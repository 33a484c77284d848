//! The checkpoint is a log — a base plus what changed since — not a
//! snapshot per tuple:
//!
//! * a node crash after the k-th absorbed tuple, for every k in one window
//!   and across ticks, restores a window that reproduces the fault-free
//!   run (tumbling and sliding Aggregation, Join);
//! * the folded checkpoint and its gauge follow the window, an idle tick
//!   logs nothing, and a capability view touches no window;
//! * on the durable tier the log grows with the tuples absorbed, not with
//!   the window they land in, and a re-deployed namesake never extends its
//!   predecessor's logged window.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use sl_dataflow::{Dataflow, DataflowBuilder};
use sl_dsn::SinkKind;
use sl_durable::{DurableConfig, FsyncPolicy, TempDir};
use sl_engine::{Engine, EngineConfig};
use sl_faults::FaultPlan;
use sl_netsim::{NodeId, NodeSpec, Topology};
use sl_ops::AggFunc;
use sl_pubsub::SubscriptionFilter;
use sl_sensors::physical::{RainSensor, TemperatureSensor};
use sl_stt::{
    AttrType, Duration, Event, Field, GeoPoint, Schema, SchemaRef, SensorId, Theme, Timestamp,
};

fn start() -> Timestamp {
    Timestamp::from_civil(2016, 7, 1, 12, 0, 0)
}

fn schema(fields: &[(&str, AttrType)]) -> SchemaRef {
    let fields = fields.iter().map(|(name, ty)| Field::new(name, *ty));
    Schema::new(fields.collect()).unwrap().into_ref()
}

fn temp_source(b: DataflowBuilder) -> DataflowBuilder {
    b.source(
        "temp",
        SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
        schema(&[("temperature", AttrType::Float), ("station", AttrType::Str)]),
    )
}

/// `op` is the one blocking operator of each flow; its output is what the
/// warehouse sees.
fn tumbling_flow(period: Duration) -> Dataflow {
    temp_source(DataflowBuilder::new("w"))
        .aggregate("op", "temp", period, &[], AggFunc::Sum, Some("temperature"))
        .sink("edw", SinkKind::Warehouse, &["op"])
        .build()
        .unwrap()
}

fn sliding_flow() -> Dataflow {
    let (period, span) = (Duration::from_secs(20), Duration::from_secs(45));
    temp_source(DataflowBuilder::new("w"))
        .aggregate_sliding(
            "op",
            "temp",
            period,
            span,
            &[],
            AggFunc::Sum,
            Some("temperature"),
        )
        .sink("edw", SinkKind::Warehouse, &["op"])
        .build()
        .unwrap()
}

fn join_flow() -> Dataflow {
    temp_source(DataflowBuilder::new("w"))
        .source(
            "rain",
            SubscriptionFilter::any().with_theme(Theme::new("weather/rain").unwrap()),
            schema(&[
                ("rain", AttrType::Float),
                ("torrential", AttrType::Bool),
                ("station", AttrType::Str),
            ]),
        )
        .join(
            "op",
            "temp",
            "rain",
            Duration::from_secs(30),
            "station = right_station",
        )
        .sink("edw", SinkKind::Warehouse, &["op"])
        .build()
        .unwrap()
}

/// A weak sensor host plus two capable hosts, fully connected: the blocking
/// operator lands on a capable host, which can then be crashed. One
/// temperature reading every `period`, one rain reading every 7 s, both
/// from station `s1`.
fn engine(durable: Option<DurableConfig>, period: Duration, flow: Option<Dataflow>) -> Engine {
    let mut t = Topology::new();
    let a = t.add_node(NodeSpec::edge("sensor-host", 10.0));
    let b = t.add_node(NodeSpec::edge("host-b", 1000.0));
    let c = t.add_node(NodeSpec::edge("host-c", 900.0));
    for (x, y) in [(a, b), (a, c), (b, c)] {
        t.add_link(x, y, Duration::from_millis(1), 10_000_000)
            .unwrap();
    }
    let cfg = EngineConfig {
        migration_enabled: false,
        ..Default::default()
    };
    let mut e = match durable {
        Some(d) => Engine::open_durable(t, cfg, start(), d).unwrap(),
        None => Engine::new(t, cfg, start()),
    };
    let at = GeoPoint::new_unchecked(34.7, 135.5);
    let temp = TemperatureSensor::new(SensorId(1), "s1", at, a, period, false, false, 1);
    e.add_sensor(Box::new(temp)).unwrap();
    let rain = RainSensor::new(SensorId(2), "s1", at, a, Duration::from_secs(7), 2);
    e.add_sensor(Box::new(rain)).unwrap();
    if let Some(flow) = flow {
        e.deploy(flow).unwrap();
    }
    e
}

fn warehouse(e: &Engine) -> Vec<Event> {
    e.warehouse().iter().cloned().collect()
}

fn counter(e: &Engine, key: &str) -> u64 {
    let snap = e.metrics_snapshot();
    snap.counters.get(key).copied().unwrap_or(0)
}

fn held(e: &Engine) -> usize {
    e.checkpoint_of("w", "op").map_or(0, |c| c.len())
}

/// Crash the operator's node after the k-th temperature reading, for every
/// k up to past the second tick, and hold each run against the fault-free
/// one.
fn crash_after_every_tuple(flow: fn() -> Dataflow) {
    let every = Duration::from_secs(5);
    let mut base = engine(None, every, Some(flow()));
    base.run_for(Duration::from_secs(100));
    let expected = warehouse(&base);
    assert!(!expected.is_empty(), "the fault-free run produces results");

    let mut restored = Vec::new();
    for k in 0..15u64 {
        // Readings land at multiples of 5 s (and of 7 s), ticks at multiples
        // of 20 or 30 s: halfway between two readings nothing is in flight.
        let crash_at = Duration::from_millis(2_500 + 5_000 * k);
        let mut e = engine(None, every, Some(flow()));
        let victim = e.node_of("w", "op").expect("operator placed");
        assert_ne!(victim, NodeId(0), "operator must not share the sensor host");
        e.install_fault_plan(&FaultPlan::new().node_crash(victim.0, crash_at));
        e.run_until(start() + crash_at - Duration::from_millis(1));
        let logged = held(&e);
        e.run_until(start() + Duration::from_secs(100));
        assert_ne!(e.node_of("w", "op"), Some(victim), "crash {k}: moved");
        assert_eq!(
            counter(&e, "engine/checkpoint/restored_tuples"),
            logged as u64,
            "crash {k}: what the log held came back"
        );
        assert_eq!(warehouse(&e), expected, "crash {k}: fault-free results");
        restored.push(logged);
    }
    // The crashes really met windows of different fill, an empty one (just
    // after a flush, or before the first reading) included.
    assert!(restored.contains(&0), "{restored:?}");
    assert!(restored.iter().any(|n| *n >= 4), "{restored:?}");
}

#[test]
fn a_crash_after_any_tuple_restores_the_tumbling_window() {
    crash_after_every_tuple(|| tumbling_flow(Duration::from_secs(30)));
}

#[test]
fn a_crash_after_any_tuple_restores_the_sliding_window() {
    crash_after_every_tuple(sliding_flow);
}

#[test]
fn a_crash_after_any_tuple_restores_both_join_windows() {
    crash_after_every_tuple(join_flow);
}

#[test]
fn the_fold_and_its_gauge_follow_the_window() {
    let sizes_over_100_s = |flow: Dataflow| {
        let mut e = engine(None, Duration::from_secs(5), Some(flow));
        let mut sizes = Vec::new();
        for step in 1..=40 {
            e.run_until(start() + Duration::from_millis(2_500 * step));
            let Some(fold) = e.checkpoint_of("w", "op") else {
                continue;
            };
            let snap = e.metrics_snapshot();
            assert_eq!(
                snap.gauges["engine/checkpoint/bytes"],
                fold.byte_size() as i64,
                "the gauge is the folded window's size"
            );
            sizes.push(fold.len());
        }
        sizes
    };
    // 30 s of readings, flushed by each tick.
    let tumbling = sizes_over_100_s(tumbling_flow(Duration::from_secs(30)));
    assert_eq!(tumbling.iter().max(), Some(&6), "{tumbling:?}");
    assert!(tumbling.contains(&0), "{tumbling:?}");
    // 45 s of readings, one out for each one in once the span is full.
    let sliding = sizes_over_100_s(sliding_flow());
    let peak = sliding.iter().max().copied().unwrap_or(0);
    assert!((9..=10).contains(&peak), "{sliding:?}");
    assert!(sliding.ends_with(&[peak, peak, peak, peak]), "{sliding:?}");
}

#[test]
fn an_idle_tick_logs_nothing() {
    // No sensor feeds this deployment's theme: the window stays empty.
    let mut e = engine(None, Duration::from_secs(5), None);
    let flow = DataflowBuilder::new("w")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("traffic").unwrap()),
            schema(&[("temperature", AttrType::Float)]),
        )
        .aggregate(
            "op",
            "temp",
            Duration::from_secs(30),
            &[],
            AggFunc::Sum,
            Some("temperature"),
        )
        .sink("edw", SinkKind::Warehouse, &["op"])
        .build()
        .unwrap();
    e.deploy(flow).unwrap();
    e.run_for(Duration::from_secs(300));
    // The first tick writes the operator's (empty) base; the nine after it
    // change nothing.
    assert_eq!(counter(&e, "engine/checkpoint/taken"), 1);
    assert!(e.checkpoint_of("w", "op").is_some_and(|c| c.is_empty()));
}

#[test]
fn a_capability_view_reports_checkpointable_from_the_record() {
    let mut e = engine(None, Duration::from_secs(5), Some(join_flow()));
    e.run_for(Duration::from_secs(20));
    let view = e.deployment_view("w").unwrap();
    let op = view.services.iter().find(|s| s.name == "op").unwrap();
    assert!(op.blocking && op.checkpointable);
    e.replace_operator(
        "w",
        "op",
        sl_ops::OpSpec::Join {
            period: Duration::from_secs(10),
            predicate: "station = right_station".into(),
        },
    )
    .unwrap();
    let view = e.deployment_view("w").unwrap();
    assert!(view.services.iter().all(|s| s.checkpointable == s.blocking));
}

#[test]
fn the_durable_log_grows_with_the_tuples_not_with_the_window() {
    const N: u64 = 1_000;
    let dir = TempDir::new("engine-ckpt-linear").unwrap();
    let durable = DurableConfig::at(dir.path()).with_fsync(FsyncPolicy::OnSeal);
    // One reading per second into one window that outlasts the run: nothing
    // reaches the warehouse, so every WAL byte is a checkpoint frame.
    let flow = tumbling_flow(Duration::from_secs(4 * N));
    let mut e = engine(Some(durable), Duration::from_secs(1), Some(flow));
    let written = |e: &Engine| counter(e, "durable/log/bytes_written");
    e.run_until(start() + Duration::from_millis(1_500));
    assert_eq!(held(&e), 1);
    let one = written(&e);
    assert!(one > 0, "the first reading is logged (as the base)");
    e.run_until(start() + Duration::from_millis(500) + Duration::from_secs(N));
    let absorbed = held(&e) as u64;
    assert_eq!(absorbed, N);
    assert_eq!(counter(&e, "engine/checkpoint/taken"), absorbed);
    assert_eq!(counter(&e, "durable/checkpoints_persisted"), absorbed);
    // A snapshot per reading would have written ~N²/2 tuple encodings
    // (250 000 × `one` here); the log writes one per reading.
    assert!(
        written(&e) <= 2 * absorbed * one,
        "{} B for {absorbed} readings of ~{one} B",
        written(&e)
    );
}

#[test]
fn a_redeployed_namesake_never_extends_its_predecessors_log() {
    let dir = TempDir::new("engine-ckpt-namesake").unwrap();
    let durable = || DurableConfig::at(dir.path()).with_fsync(FsyncPolicy::Always);
    let every = Duration::from_secs(5);
    let flow = || tumbling_flow(Duration::from_secs(30));
    let first_reading = {
        let mut e = engine(Some(durable()), every, Some(flow()));
        e.run_for(Duration::from_secs(50));
        assert!(held(&e) >= 3, "the predecessor dies mid-window");
        e.undeploy("w").unwrap();
        e.deploy(flow()).unwrap();
        assert_eq!(held(&e), 0, "a namesake starts with nothing logged");
        e.run_for(Duration::from_secs(6));
        assert_eq!(held(&e), 1, "one reading every 5 s");
        e.checkpoint_of("w", "op").unwrap().tuples[0].1.clone()
    };
    // The restart restores that one reading — not the predecessor's window
    // with it appended.
    let e = engine(Some(durable()), every, Some(flow()));
    let restored = e.checkpoint_of("w", "op").expect("staged and restored");
    assert_eq!(restored.len(), 1);
    assert_eq!(restored.tuples[0].1, first_reading);
    assert_eq!(counter(&e, "engine/checkpoint/restored_tuples"), 1);
}
