//! The `sl-cq` correctness contract, end to end through the engine:
//!
//! * every materialized view is **byte-identical** to a brute-force rescan
//!   (`rollup_scan`) of the same `CubeQuery` over the hot store — at every
//!   step, across eviction horizons, for arbitrary ingest/evict/subscribe
//!   interleavings (property test), under a chaos `FaultPlan`, and across
//!   a durable warehouse restart;
//! * subscriptions see exactly the matched events, and the lag/catch-up
//!   protocol loses nothing silently;
//! * with the hub unused, the engine's outputs are identical to a run
//!   without any continuous-query machinery in the loop.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::prelude::*;
use sl_dataflow::DataflowBuilder;
use sl_dsn::SinkKind;
use sl_durable::{CompactionPolicy, DurableConfig, FsyncPolicy, TempDir};
use sl_engine::{Engine, EngineConfig, OverflowPolicy, ViewId};
use sl_faults::FaultPlan;
use sl_netsim::{NodeSpec, Topology};
use sl_pubsub::SubscriptionFilter;
use sl_sensors::physical::TemperatureSensor;
use sl_stt::{
    AttrType, Duration, Event, Field, GeoPoint, Schema, SchemaRef, SensorId, SpatialGranularity,
    TemporalGranularity, Theme, TimeInterval, Timestamp, Value,
};
use sl_warehouse::{CubeQuery, EventQuery, EventWarehouse};

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

/// Source → warehouse sink: every sensor reading lands in the EDW.
fn edw_flow(name: &str) -> sl_dataflow::Dataflow {
    DataflowBuilder::new(name)
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            temp_schema(),
        )
        .sink("edw", SinkKind::Warehouse, &["temp"])
        .build()
        .unwrap()
}

fn two_sensor_engine(config: EngineConfig) -> Engine {
    let mut t = Topology::new();
    let a = t.add_node(NodeSpec::edge("sensor-host", 50.0));
    let b = t.add_node(NodeSpec::edge("host-b", 1000.0));
    t.add_link(a, b, Duration::from_millis(1), 10_000_000)
        .unwrap();
    let mut e = Engine::new(t, config, start());
    for (id, name, lat, lon, period) in [(1, "t1", 34.70, 135.50, 5), (2, "t2", 34.75, 135.52, 7)] {
        e.add_sensor(Box::new(TemperatureSensor::new(
            SensorId(id),
            name,
            GeoPoint::new_unchecked(lat, lon),
            a,
            Duration::from_secs(period),
            false,
            false,
            1,
        )))
        .unwrap();
    }
    e.deploy(edw_flow("w")).unwrap();
    e
}

fn quiet_config() -> EngineConfig {
    EngineConfig {
        migration_enabled: false,
        ..Default::default()
    }
}

/// A spread of roll-up shapes: granularities, theme depths, selections.
fn cube_queries() -> Vec<CubeQuery> {
    vec![
        CubeQuery {
            select: EventQuery::all(),
            tgran: TemporalGranularity::Hour,
            sgran: SpatialGranularity::grid(2),
            theme_depth: 1,
        },
        CubeQuery {
            select: EventQuery::all().with_theme(Theme::new("weather").unwrap()),
            tgran: TemporalGranularity::Day,
            sgran: SpatialGranularity::World,
            theme_depth: 2,
        },
        CubeQuery {
            select: EventQuery::all().in_time(TimeInterval::new(
                start(),
                start() + Duration::from_secs(120),
            )),
            tgran: TemporalGranularity::Minute,
            sgran: SpatialGranularity::grid(6),
            theme_depth: 3,
        },
    ]
}

/// Byte-for-byte: `PartialEq` (exact f64 bits would pass `==` except for
/// the sign of zero and NaN) *and* the rendered Debug form, which
/// distinguishes `-0.0` from `0.0`.
fn assert_cells_identical(
    incremental: &[sl_warehouse::CubeCell],
    rescan: &[sl_warehouse::CubeCell],
) {
    assert_eq!(incremental, rescan);
    assert_eq!(format!("{incremental:?}"), format!("{rescan:?}"));
}

#[test]
fn views_match_rescan_at_every_step() {
    let mut e = two_sensor_engine(quiet_config());
    let views: Vec<(ViewId, CubeQuery)> = cube_queries()
        .into_iter()
        .enumerate()
        .map(|(i, q)| (e.register_view(&format!("v{i}"), q.clone()), q))
        .collect();
    for _ in 0..12 {
        e.run_for(Duration::from_secs(25));
        for (id, q) in &views {
            assert_cells_identical(&e.view_cells(*id).unwrap(), &e.warehouse().rollup_scan(q));
        }
    }
    assert!(
        !e.view_cells(views[0].0).unwrap().is_empty(),
        "the run must actually have produced cells"
    );
}

#[test]
fn late_registration_seeds_from_existing_events() {
    let mut e = two_sensor_engine(quiet_config());
    e.run_for(Duration::from_secs(90));
    assert!(!e.warehouse().is_empty());
    // Register after the fact: the view starts equal to a rescan...
    let q = cube_queries().remove(0);
    let v = e.register_view("late", q.clone());
    assert_cells_identical(&e.view_cells(v).unwrap(), &e.warehouse().rollup_scan(&q));
    // ...and stays equal as ingest continues.
    e.run_for(Duration::from_secs(60));
    assert_cells_identical(&e.view_cells(v).unwrap(), &e.warehouse().rollup_scan(&q));
}

#[test]
fn eviction_retracts_views_exactly() {
    let mut e = two_sensor_engine(quiet_config());
    let views: Vec<(ViewId, CubeQuery)> = cube_queries()
        .into_iter()
        .enumerate()
        .map(|(i, q)| (e.register_view(&format!("v{i}"), q.clone()), q))
        .collect();
    e.run_for(Duration::from_secs(240));
    for horizon_secs in [60, 180, 600] {
        let horizon = start() + Duration::from_secs(horizon_secs);
        e.evict_warehouse_before(horizon).unwrap();
        for (id, q) in &views {
            assert_cells_identical(&e.view_cells(*id).unwrap(), &e.warehouse().rollup_scan(q));
        }
    }
    // The final horizon is past the whole run: everything retracted.
    assert!(e.view_cells(views[0].0).unwrap().is_empty());
}

#[test]
fn retention_config_evicts_and_retracts() {
    let mut e = two_sensor_engine(EngineConfig {
        retention: Some(Duration::from_secs(60)),
        ..quiet_config()
    });
    let q = cube_queries().remove(0);
    let v = e.register_view("windowed", q.clone());
    e.run_for(Duration::from_secs(300));
    // Retention ran at monitor samples: nothing older than the window
    // survives in the hot store (modulo the sampling period)...
    let oldest = e
        .warehouse()
        .iter()
        .map(|ev| ev.time_interval().end)
        .min()
        .expect("events in window");
    assert!(
        oldest > e.now().saturating_sub(Duration::from_secs(62)),
        "retention must have evicted the old tail (oldest: {oldest}, now: {})",
        e.now()
    );
    // ...the view still matches a rescan of what is left...
    assert_cells_identical(&e.view_cells(v).unwrap(), &e.warehouse().rollup_scan(&q));
    // ...and the monitor logged the evictions.
    assert!(e
        .monitor()
        .continuous
        .iter()
        .any(|l| l.contains("retention")));
    assert!(e.metrics_snapshot().counters["engine/retention/evicted"] > 0);
}

#[test]
fn subscription_sees_exactly_the_matched_events() {
    let mut e = two_sensor_engine(quiet_config());
    let q = EventQuery::all().with_theme(Theme::new("weather").unwrap());
    let sub = e.subscribe_events("watch", q.clone(), None, OverflowPolicy::Block);
    e.run_for(Duration::from_secs(120));
    let polled = e.poll_deltas(sub).unwrap();
    assert!(!polled.lagged);
    assert_eq!(polled.dropped, 0);
    // Deltas are exactly the warehouse's matching events, in storage order.
    let stored: Vec<Event> = e.query_warehouse(&q).unwrap();
    assert_eq!(polled.deltas, stored);
    assert_eq!(format!("{:?}", polled.deltas), format!("{stored:?}"));
}

#[test]
fn lag_and_catch_up_protocol() {
    let mut e = two_sensor_engine(quiet_config());
    let q = EventQuery::all();
    let sub = e.subscribe_events("tiny", q.clone(), Some(4), OverflowPolicy::Block);
    e.run_for(Duration::from_secs(300));
    let polled = e.poll_deltas(sub).unwrap();
    assert!(polled.lagged, "a 4-delta queue must overflow in 300 s");
    assert!(polled.deltas.is_empty(), "no partial backlog under Block");
    assert!(polled.dropped > 0, "loss is explicit, never silent");
    // Catch-up: the snapshot covers everything the queue dropped.
    let (snapshot, seq) = e.catch_up(sub).unwrap();
    assert_eq!(snapshot, e.query_warehouse(&q).unwrap());
    assert_eq!(seq, e.cq().seq());
    // Deltas resume exactly after the snapshot — polling often enough
    // that the tiny queue never overflows again. `dropped` is cumulative,
    // so it keeps the lag phase's losses but must not grow further.
    let dropped_at_catch_up = e.poll_deltas(sub).unwrap().dropped;
    let mut resumed = 0usize;
    let mut last_seq = seq;
    for _ in 0..10 {
        e.run_for(Duration::from_secs(2));
        let polled = e.poll_deltas(sub).unwrap();
        assert!(!polled.lagged, "frequent polls must keep the queue ahead");
        assert_eq!(polled.dropped, dropped_at_catch_up);
        resumed += polled.deltas.len();
        assert!(polled.seq >= last_seq);
        last_seq = polled.seq;
    }
    assert!(resumed > 0, "deltas must flow again after catch-up");
    assert!(last_seq > seq);
    // Monitor picked up the registration and the lag transition.
    assert!(e.monitor().report(e.now()).contains("continuous queries"));
    assert!(e.monitor().continuous.iter().any(|l| l.contains("lagged")));
}

/// With nothing registered, the hub is idle and the run is identical to
/// one that never touches `sl-cq`: same warehouse contents, same operator
/// counters, same non-cq metrics.
#[test]
fn unused_hub_is_invisible() {
    let run = |register: bool| {
        let mut e = two_sensor_engine(quiet_config());
        if register {
            let q = cube_queries().remove(0);
            let v = e.register_view("v", q);
            let s =
                e.subscribe_events("s", EventQuery::all(), Some(64), OverflowPolicy::ShedOldest);
            e.drop_view(v).unwrap();
            e.unsubscribe_events(s).unwrap();
        }
        e.run_for(Duration::from_secs(200));
        let events: Vec<Event> = e.warehouse().iter().cloned().collect();
        let mut snap = e.metrics_snapshot();
        snap.counters.retain(|k, _| !k.starts_with("cq/"));
        snap.gauges.retain(|k, _| !k.starts_with("cq/"));
        // Histograms record wall-clock microseconds, which differ between
        // any two runs; their *counts* are the deterministic part.
        let hist_counts: Vec<(String, u64)> = snap
            .hists
            .iter()
            .filter(|(k, _)| !k.starts_with("cq/"))
            .map(|(k, h)| (k.clone(), h.count))
            .collect();
        (
            format!("{events:?}"),
            format!("{:?}", snap.counters),
            format!("{:?}", snap.gauges),
            format!("{hist_counts:?}"),
        )
    };
    // register-then-remove leaves the hub idle again; both runs must be
    // byte-identical outside the cq/* namespace.
    assert_eq!(run(false), run(true));
}

#[derive(Debug, Clone)]
enum Op {
    Ingest(Event),
    Evict(i64),
    RegisterView(usize),
}

fn arb_event() -> impl Strategy<Value = Event> {
    let themes = prop_oneof![
        Just("weather/temperature"),
        Just("weather/rain"),
        Just("social/tweet"),
    ];
    (
        0i64..200_000,
        themes,
        34.0f64..36.0,
        135.0f64..137.0,
        -40.0f64..40.0,
    )
        .prop_map(|(sec, theme, lat, lon, v)| {
            Event::new(
                Value::Float(v),
                TemporalGranularity::Minute,
                TemporalGranularity::Minute.granule_of(Timestamp::from_secs(sec)),
                SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(lat, lon)),
                Theme::new(theme).unwrap(),
            )
        })
}

fn arb_op() -> impl Strategy<Value = Op> {
    // ~80% ingest, ~10% evict, ~10% register (the vendored prop_oneof!
    // has no weight syntax, so weight via a discriminant).
    (0u8..10, arb_event(), 0i64..200_000, 0usize..3).prop_map(|(k, ev, sec, i)| match k {
        8 => Op::Evict(sec),
        9 => Op::RegisterView(i),
        _ => Op::Ingest(ev),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For arbitrary ingest/evict/register interleavings, every view is
    /// byte-identical to a rescan after every single operation.
    #[test]
    fn views_equal_rescan_under_arbitrary_interleavings(ops in proptest::collection::vec(arb_op(), 1..120)) {
        let queries = [
            CubeQuery {
                select: EventQuery::all(),
                tgran: TemporalGranularity::Hour,
                sgran: SpatialGranularity::grid(2),
                theme_depth: 1,
            },
            CubeQuery {
                select: EventQuery::all().with_theme(Theme::new("weather").unwrap()),
                tgran: TemporalGranularity::Day,
                sgran: SpatialGranularity::World,
                theme_depth: 2,
            },
            CubeQuery {
                select: EventQuery::all().in_time(TimeInterval::new(
                    Timestamp::from_secs(0),
                    Timestamp::from_secs(100_000),
                )),
                tgran: TemporalGranularity::Hour,
                sgran: SpatialGranularity::grid(4),
                theme_depth: 1,
            },
        ];
        let mut w = EventWarehouse::with_defaults();
        let mut hub = sl_cq::CqHub::new();
        let mut views: Vec<(sl_cq::ViewId, CubeQuery)> = Vec::new();
        for op in ops {
            match op {
                Op::Ingest(event) => {
                    hub.on_events(std::slice::from_ref(&event));
                    w.insert(event);
                }
                Op::Evict(sec) => {
                    let horizon = Timestamp::from_secs(sec);
                    w.evict_before(horizon);
                    hub.on_evict(horizon);
                }
                Op::RegisterView(i) => {
                    let q = queries[i].clone();
                    let id = hub.register_view(&format!("v{}", views.len()), q.clone(), w.iter());
                    views.push((id, q));
                }
            }
            for (id, q) in &views {
                let cells = hub.view_cells(*id).unwrap();
                let scan = w.rollup_scan(q);
                prop_assert_eq!(&cells, &scan);
                prop_assert_eq!(format!("{:?}", cells), format!("{:?}", scan));
            }
        }
    }
}

/// Chaos + durability: views stay equivalent under fault injection, across
/// a spill-to-cold eviction, and re-seed exactly from the WAL-rebuilt hot
/// store after a restart.
#[test]
fn views_survive_chaos_and_durable_restart() {
    let dir = TempDir::new("cq-chaos").unwrap();
    let durable = || DurableConfig::at(dir.path()).with_fsync(FsyncPolicy::Always);
    let build = |durable: DurableConfig| {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::edge("sensor-host", 50.0));
        let b = t.add_node(NodeSpec::edge("host-b", 1000.0));
        t.add_link(a, b, Duration::from_millis(1), 10_000_000)
            .unwrap();
        let mut e = Engine::open_durable(t, quiet_config(), start(), durable).unwrap();
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
        e.deploy(edw_flow("w")).unwrap();
        e
    };
    let q = CubeQuery {
        select: EventQuery::all(),
        tgran: TemporalGranularity::Hour,
        sgran: SpatialGranularity::grid(2),
        theme_depth: 1,
    };

    // Incarnation 1: chaos (stall, burst, clock skew) while a view runs;
    // a mid-run eviction spills to cold segments and retracts.
    let cells_at_kill = {
        let mut e = build(durable());
        let v = e.register_view("dash", q.clone());
        e.install_fault_plan(
            &FaultPlan::new()
                .sensor_stall(1, Duration::from_secs(20), Duration::from_secs(15))
                .burst(1, Duration::from_secs(60), Duration::from_secs(20), 5)
                .clock_skew(1, Duration::from_secs(100), 1500),
        );
        e.run_for(Duration::from_secs(90));
        assert_cells_identical(&e.view_cells(v).unwrap(), &e.warehouse().rollup_scan(&q));
        e.evict_warehouse_before(start() + Duration::from_secs(45))
            .unwrap();
        assert_cells_identical(&e.view_cells(v).unwrap(), &e.warehouse().rollup_scan(&q));
        e.run_for(Duration::from_secs(60));
        let cells = e.view_cells(v).unwrap();
        assert_cells_identical(&cells, &e.warehouse().rollup_scan(&q));
        e.sync_warehouse().unwrap();
        cells
    };
    assert!(!cells_at_kill.is_empty());

    // Incarnation 2: the hot store is rebuilt from the log; a re-registered
    // view seeds from it and equals both the rescan and the pre-kill state.
    let e2 = {
        let mut e = build(durable());
        let v = e.register_view("dash", q.clone());
        let recovered = e.view_cells(v).unwrap();
        assert_cells_identical(&recovered, &e.warehouse().rollup_scan(&q));
        assert_cells_identical(&recovered, &cells_at_kill);
        e
    };
    drop(e2);
}

/// Storage maintenance is invisible to serving: compacting the cold tier
/// changes no view cells, and after a kill the re-registered view seeds
/// byte-identically from the log the compactor rewrote.
#[test]
fn views_reseed_identically_across_compaction() {
    let dir = TempDir::new("cq-compact").unwrap();
    let durable = || {
        DurableConfig::at(dir.path())
            .with_fsync(FsyncPolicy::Always)
            .with_segment_max_bytes(1024)
            .with_compaction(CompactionPolicy::enabled())
    };
    let build = |durable: DurableConfig| {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::edge("sensor-host", 50.0));
        let b = t.add_node(NodeSpec::edge("host-b", 1000.0));
        t.add_link(a, b, Duration::from_millis(1), 10_000_000)
            .unwrap();
        let mut e = Engine::open_durable(t, quiet_config(), start(), durable).unwrap();
        e.add_sensor(Box::new(TemperatureSensor::new(
            SensorId(1),
            "t1",
            GeoPoint::new_unchecked(34.7, 135.5),
            a,
            Duration::from_secs(2),
            false,
            false,
            1,
        )))
        .unwrap();
        e.deploy(edw_flow("w")).unwrap();
        e
    };
    let q = CubeQuery {
        select: EventQuery::all(),
        tgran: TemporalGranularity::Hour,
        sgran: SpatialGranularity::grid(2),
        theme_depth: 1,
    };

    // Incarnation 1: ingest, spill to cold twice, force a compaction of
    // the fragmented segments, and assert the live view never flinches.
    let cells_at_kill = {
        let mut e = build(durable());
        let v = e.register_view("dash", q.clone());
        e.run_for(Duration::from_secs(120));
        e.evict_warehouse_before(start() + Duration::from_secs(60))
            .unwrap();
        e.run_for(Duration::from_secs(60));
        e.evict_warehouse_before(start() + Duration::from_secs(120))
            .unwrap();
        let before = e.view_cells(v).unwrap();
        assert_cells_identical(&before, &e.warehouse().rollup_scan(&q));

        let stats = e
            .compact_warehouse()
            .unwrap()
            .expect("fragmented cold tier should merge");
        assert!(stats.segments_in >= 2, "nothing merged: {stats:?}");
        assert_eq!(stats.events_dropped, 0, "no retention, no event drops");

        let after = e.view_cells(v).unwrap();
        assert_cells_identical(&after, &before);
        assert_cells_identical(&after, &e.warehouse().rollup_scan(&q));
        e.sync_warehouse().unwrap();
        after
    };
    assert!(!cells_at_kill.is_empty());

    // Incarnation 2: the hot store rebuilds from the compacted log; the
    // re-registered view seeds byte-identically to the pre-kill state.
    let mut e = build(durable());
    let v = e.register_view("dash", q.clone());
    let recovered = e.view_cells(v).unwrap();
    assert_cells_identical(&recovered, &e.warehouse().rollup_scan(&q));
    assert_cells_identical(&recovered, &cells_at_kill);
}
