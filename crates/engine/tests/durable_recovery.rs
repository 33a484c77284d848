//! Crash/restart recovery through the durable warehouse (`sl-durable`):
//!
//! * a clean process death and reopen restores the warehouse exactly and
//!   stages operator checkpoints, so redeploying the same dataflow restores
//!   blocking-operator window caches identical to the state at kill time;
//! * a torn log tail (crash mid-write, simulated by truncating the active
//!   segment) is truncated on reopen, the surviving events are an exact
//!   prefix, and the loss is accounted under [`DropReason::TornTail`];
//! * retention on the durable backend spills to cold segments: evicted
//!   events stay answerable through the merged query path.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use sl_dataflow::DataflowBuilder;
use sl_dsn::SinkKind;
use sl_durable::{CompactionPolicy, DurableConfig, FsyncPolicy, Record, TempDir};
use sl_engine::{Engine, EngineConfig};
use sl_faults::DropReason;
use sl_netsim::{NodeSpec, Topology};
use sl_ops::OpCheckpoint;
use sl_pubsub::SubscriptionFilter;
use sl_sensors::physical::TemperatureSensor;
use sl_stt::{
    AttrType, Duration, Event, Field, GeoPoint, Schema, SchemaRef, SensorId, Theme, Timestamp,
};
use sl_warehouse::EventQuery;
use std::fs;
use std::path::Path;

fn start() -> Timestamp {
    Timestamp::from_civil(2016, 7, 1, 12, 0, 0)
}

fn temp_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .unwrap()
    .into_ref()
}

fn agg_flow(name: &str) -> sl_dataflow::Dataflow {
    DataflowBuilder::new(name)
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            temp_schema(),
        )
        .aggregate(
            "sum",
            "temp",
            Duration::from_secs(30),
            &[],
            sl_ops::AggFunc::Sum,
            Some("temperature"),
        )
        .sink("edw", SinkKind::Warehouse, &["sum"])
        .build()
        .unwrap()
}

/// One incarnation of the process: a weak sensor host plus two capable
/// hosts, the warehouse persisted at `dir`, the windowed aggregation
/// checkpointing through the same log.
fn durable_engine(durable: DurableConfig) -> Engine {
    let mut t = Topology::new();
    let a = t.add_node(NodeSpec::edge("sensor-host", 10.0));
    let b = t.add_node(NodeSpec::edge("host-b", 1000.0));
    let c = t.add_node(NodeSpec::edge("host-c", 900.0));
    t.add_link(a, b, Duration::from_millis(1), 10_000_000)
        .unwrap();
    t.add_link(a, c, Duration::from_millis(1), 10_000_000)
        .unwrap();
    t.add_link(b, c, Duration::from_millis(1), 10_000_000)
        .unwrap();
    let cfg = EngineConfig {
        migration_enabled: false,
        ..Default::default()
    };
    let mut e = Engine::open_durable(t, cfg, start(), durable).unwrap();
    e.add_sensor(Box::new(TemperatureSensor::new(
        SensorId(1),
        "t1",
        GeoPoint::new_unchecked(34.7, 135.5),
        a,
        Duration::from_secs(5),
        false,
        false,
        1,
    )))
    .unwrap();
    e.deploy(agg_flow("w")).unwrap();
    e
}

/// Canonical bytes for a checkpoint — byte equality is exact structural
/// equality (the codec round-trips bit-exactly).
fn ckpt_bytes(state: &OpCheckpoint) -> Vec<u8> {
    Record::Checkpoint {
        deployment: "w".into(),
        service: "sum".into(),
        state: state.clone(),
    }
    .encode()
}

/// The highest-numbered (active) segment file in `dir`.
fn active_segment(dir: &Path) -> std::path::PathBuf {
    let mut segs: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "slg"))
        .collect();
    segs.sort();
    segs.pop().expect("log has at least one segment")
}

#[test]
fn restart_restores_warehouse_and_operator_state() {
    let dir = TempDir::new("engine-restart").unwrap();
    let durable = || DurableConfig::at(dir.path()).with_fsync(FsyncPolicy::Always);

    // Incarnation 1: run mid-window (boundaries at 30/60/90 s; kill at
    // 100 s leaves tuples cached), then die.
    let (events_at_kill, ckpt_at_kill) = {
        let mut e = durable_engine(durable());
        e.run_for(Duration::from_secs(100));
        let events: Vec<Event> = e.warehouse().iter().cloned().collect();
        let ckpt = e
            .checkpoint_of("w", "sum")
            .cloned()
            .expect("blocking operator must have checkpointed");
        (events, ckpt)
    };
    assert!(!events_at_kill.is_empty(), "aggregates reached the EDW");
    assert!(
        !ckpt_at_kill.tuples.is_empty(),
        "a mid-window kill leaves cached tuples in the checkpoint"
    );

    // Incarnation 2: reopen the same directory. The warehouse is back
    // before anything is deployed...
    let mut e = durable_engine(durable());
    let recovered: Vec<Event> = e.warehouse().iter().cloned().collect();
    assert_eq!(
        recovered, events_at_kill,
        "every acked event survives the restart, in order"
    );
    // ...and deploying the same dataflow restored the window cache to the
    // exact state at kill time (`durable_engine` deploys `w` again).
    let restored = e
        .checkpoint_of("w", "sum")
        .expect("recovered checkpoint staged and re-stored");
    assert_eq!(
        ckpt_bytes(restored),
        ckpt_bytes(&ckpt_at_kill),
        "restored window cache must equal the in-memory state at kill time"
    );
    let snap = e.metrics_snapshot();
    assert_eq!(
        snap.counters["engine/checkpoint/restored_tuples"],
        ckpt_at_kill.tuples.len() as u64
    );
    assert!(snap.counters["durable/rebuilt_hot_events"] >= events_at_kill.len() as u64);
    assert!(snap.gauges["durable/log/segments"] >= 1);
    assert!(snap.hists.contains_key("durable/open_us"));
    assert!(e
        .monitor()
        .durability
        .iter()
        .any(|l| l.contains("opened durable warehouse")));
    assert!(e
        .monitor()
        .durability
        .iter()
        .any(|l| l.contains("window cache restored from checkpoint")));
    let report = e.monitor().report(e.now());
    assert!(report.contains("durability"), "{report}");
    assert!(e.dlq().is_empty(), "clean shutdown: nothing torn");

    // The restart keeps running: more aggregates land on top of the
    // recovered ones.
    e.run_for(Duration::from_secs(60));
    let after: Vec<Event> = e.warehouse().iter().cloned().collect();
    assert!(after.len() > events_at_kill.len());
    assert_eq!(after[..events_at_kill.len()], events_at_kill[..]);
    let snap = e.metrics_snapshot();
    assert!(
        snap.counters["durable/log/fsyncs"] > 0,
        "Always policy syncs"
    );
    assert!(snap.counters["durable/log/bytes_written"] > 0);
    assert!(snap.hists.contains_key("durable/log/fsync_us"));

    // Retention spills instead of discarding: evict everything, the hot
    // tier empties, the merged query still answers with every event.
    // Horizon past every event's interval end (minute granules round up).
    let evicted = e
        .evict_warehouse_before(e.now() + Duration::from_mins(10))
        .unwrap();
    assert_eq!(evicted, after.len());
    assert!(e.warehouse().is_empty());
    let mut merged = e.query_warehouse(&EventQuery::all()).unwrap();
    let mut expected = after.clone();
    let key = |e: &Event| e.to_string();
    merged.sort_by_key(key);
    expected.sort_by_key(key);
    assert_eq!(merged, expected, "cold segments serve the evicted events");
}

#[test]
fn torn_tail_is_truncated_and_accounted() {
    let dir = TempDir::new("engine-torn").unwrap();
    let durable = || DurableConfig::at(dir.path()).with_fsync(FsyncPolicy::Always);

    let events_before: Vec<Event> = {
        let mut e = durable_engine(durable());
        e.run_for(Duration::from_secs(60));
        e.warehouse().iter().cloned().collect()
    };
    assert!(!events_before.is_empty());

    // Crash mid-write: the active segment loses its last few bytes, tearing
    // the final frame.
    let seg = active_segment(dir.path());
    let bytes = fs::read(&seg).unwrap();
    fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();

    let e = durable_engine(durable());
    // The surviving events are an exact prefix — nothing reordered, nothing
    // resurrected past the tear.
    let got: Vec<Event> = e.warehouse().iter().cloned().collect();
    assert!(got.len() <= events_before.len());
    assert_eq!(got[..], events_before[..got.len()]);
    // The loss is accounted, not silent: DLQ taxonomy, metrics, monitor.
    assert_eq!(e.dlq().count(DropReason::TornTail), 1);
    assert_eq!(e.metrics_snapshot().counters["engine/dlq/torn_tail"], 1);
    let dw = e.durable_warehouse().expect("durable backend");
    assert!(dw.recovery_report().truncated_bytes > 0);
    assert!(e
        .monitor()
        .durability
        .iter()
        .any(|l| l.contains("torn tail")));
    assert!(e
        .monitor()
        .recovery
        .iter()
        .any(|l| l.contains("torn tail truncated")));
}

#[test]
fn compaction_survives_restart_without_losing_acknowledged_state() {
    let dir = TempDir::new("engine-compact").unwrap();
    let durable = || {
        DurableConfig::at(dir.path())
            .with_fsync(FsyncPolicy::Always)
            .with_segment_max_bytes(1024)
            .with_compaction(CompactionPolicy::enabled())
    };

    // Incarnation 1: fragment the cold tier with two evictions, merge it,
    // and record exactly what the process acknowledged before dying.
    let (merged_at_kill, hot_at_kill, ckpt_at_kill) = {
        let mut e = durable_engine(durable());
        e.run_for(Duration::from_secs(120));
        e.evict_warehouse_before(start() + Duration::from_secs(60))
            .unwrap();
        e.run_for(Duration::from_secs(120));
        e.evict_warehouse_before(start() + Duration::from_secs(120))
            .unwrap();

        let stats = e
            .compact_warehouse()
            .unwrap()
            .expect("1 KiB segments leave plenty to merge");
        assert!(stats.segments_in >= 2, "{stats:?}");
        assert_eq!(stats.events_dropped, 0, "no retention configured");
        assert!(
            e.metrics_snapshot().counters["durable/compaction/segments_in"] >= 2,
            "compaction is visible in the metrics"
        );

        let mut merged = e.query_warehouse(&EventQuery::all()).unwrap();
        merged.sort_by_key(|ev| ev.to_string());
        let hot: Vec<Event> = e.warehouse().iter().cloned().collect();
        let ckpt = e
            .checkpoint_of("w", "sum")
            .cloned()
            .expect("blocking operator must have checkpointed");
        (merged, hot, ckpt)
    };
    assert!(!merged_at_kill.is_empty());
    assert!(
        merged_at_kill.len() > hot_at_kill.len(),
        "cold tier is live"
    );

    // The compactor replaced inputs with generation-1 products on disk.
    let products = fs::read_dir(dir.path())
        .unwrap()
        .filter(|f| {
            f.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .contains("-g")
        })
        .count();
    assert!(products >= 1, "compacted segments present on disk");

    // Incarnation 2: recovery replays the rewritten log. Hot store, merged
    // query answer, and the operator checkpoint all come back byte-exact.
    let mut e = durable_engine(durable());
    let dw = e.durable_warehouse().expect("durable backend");
    assert!(!dw.recovery_report().lossy(), "clean open after compaction");
    let recovered_hot: Vec<Event> = e.warehouse().iter().cloned().collect();
    assert_eq!(recovered_hot, hot_at_kill);
    let mut recovered = e.query_warehouse(&EventQuery::all()).unwrap();
    recovered.sort_by_key(|ev| ev.to_string());
    assert_eq!(recovered, merged_at_kill);
    let restored = e
        .checkpoint_of("w", "sum")
        .expect("checkpoint survives compaction (last write wins)");
    assert_eq!(ckpt_bytes(restored), ckpt_bytes(&ckpt_at_kill));
    assert!(e.dlq().is_empty(), "clean shutdown: nothing torn");
}

#[test]
fn replaced_operator_checkpoint_does_not_survive_a_restart() {
    let dir = TempDir::new("engine-replace").unwrap();
    let durable = || DurableConfig::at(dir.path()).with_fsync(FsyncPolicy::Always);

    // Incarnation 1: leave a mid-window checkpoint in the log, replace the
    // operator, and die before the replacement absorbs a tuple.
    {
        let mut e = durable_engine(durable());
        e.run_for(Duration::from_secs(100));
        assert!(e.checkpoint_of("w", "sum").is_some_and(|c| !c.is_empty()));
        e.replace_operator(
            "w",
            "sum",
            sl_ops::OpSpec::Aggregate {
                period: Duration::from_secs(30),
                group_by: Vec::new(),
                func: sl_ops::AggFunc::Max,
                attr: Some("temperature".into()),
                sliding: None,
            },
        )
        .unwrap();
        assert!(e.checkpoint_of("w", "sum").is_none());
    }

    // Incarnation 2: the old operator's window is not restored into
    // whatever is deployed under its name.
    let e = durable_engine(durable());
    assert!(e.checkpoint_of("w", "sum").is_some_and(|c| c.is_empty()));
}
