//! The observability snapshot as a golden. Four fixed, deterministic runs
//! each render `StreamLoader::metrics()`: every key, every counter and gauge
//! value, and every histogram's sample count. Wall-clock sums and
//! percentiles are left out, and so is the value of `engine/shard/steals`,
//! which counts what the worker threads' scheduling did; every key is kept.
//!
//! A change to how instruments are stored or rendered must leave this file
//! and `golden/metrics_snapshot.txt` as they are: no key may appear,
//! disappear or change value.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use std::fmt::Write as _;

use streamloader::dataflow::{Dataflow, DataflowBuilder};
use streamloader::dsn::SinkKind;
use streamloader::durable::{CompactionPolicy, DurableConfig, FsyncPolicy, TempDir};
use streamloader::engine::{EngineConfig, OverflowPolicy};
use streamloader::faults::FaultPlan;
use streamloader::netsim::{NodeSpec, Topology};
use streamloader::obs::MetricsSnapshot;
use streamloader::ops::AggFunc;
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::physical::TemperatureSensor;
use streamloader::sensors::scenario::{osaka_area, osaka_fleet};
use streamloader::sensors::ScenarioConfig;
use streamloader::stt::{
    AttrType, Duration, Field, GeoPoint, Schema, SchemaRef, SensorId, Theme, Timestamp,
};
use streamloader::stt::{SpatialGranularity, TemporalGranularity};
use streamloader::warehouse::{CubeQuery, EventQuery};
use streamloader::StreamLoader;

const GOLDEN: &str = include_str!("golden/metrics_snapshot.txt");

/// Counters whose value depends on thread scheduling: key only.
const SCHEDULING: [&str; 1] = ["engine/shard/steals"];

fn render(title: &str, snap: &MetricsSnapshot, out: &mut String) {
    let _ = writeln!(out, "== {title}");
    for (k, v) in &snap.counters {
        if SCHEDULING.contains(&k.as_str()) {
            let _ = writeln!(out, "counter {k}");
        } else {
            let _ = writeln!(out, "counter {k} = {v}");
        }
    }
    for (k, v) in &snap.gauges {
        let _ = writeln!(out, "gauge {k} = {v}");
    }
    for (k, h) in &snap.hists {
        let _ = writeln!(out, "hist {k} count = {}", h.count);
    }
}

fn theme(t: &str) -> Theme {
    Theme::new(t).unwrap()
}

fn schema(fields: &[(&str, AttrType)]) -> SchemaRef {
    Schema::new(fields.iter().map(|(n, t)| Field::new(n, *t)).collect())
        .unwrap()
        .into_ref()
}

fn temperature_schema() -> SchemaRef {
    schema(&[("temperature", AttrType::Float), ("station", AttrType::Str)])
}

/// Run 1: the paper's Figure-2 flow over a heat-wave morning, its hourly
/// window checkpointed on every absorbed tuple.
fn osaka() -> MetricsSnapshot {
    let scenario = ScenarioConfig {
        heat_wave: true,
        ..Default::default()
    };
    let mut session = StreamLoader::osaka_demo(&scenario, EngineConfig::default()).unwrap();
    session
        .deploy_dsn(include_str!("../examples/dsn/osaka_scenario.dsn"))
        .unwrap();
    session.run_for(Duration::from_hours(6));
    session.metrics()
}

/// All four Osaka source kinds un-gated into the warehouse.
fn edw_flow() -> Dataflow {
    DataflowBuilder::new("edw")
        .source(
            "temperature",
            SubscriptionFilter::any()
                .with_theme(theme("weather/temperature"))
                .with_area(osaka_area()),
            temperature_schema(),
        )
        .source(
            "rain",
            SubscriptionFilter::any().with_theme(theme("weather/rain")),
            schema(&[
                ("rain", AttrType::Float),
                ("torrential", AttrType::Bool),
                ("station", AttrType::Str),
            ]),
        )
        .source(
            "tweets",
            SubscriptionFilter::any().with_theme(theme("social/tweet")),
            schema(&[("text", AttrType::Str), ("storm_related", AttrType::Bool)]),
        )
        .aggregate(
            "minute_avg",
            "temperature",
            Duration::from_mins(1),
            &[],
            AggFunc::Avg,
            Some("temperature"),
        )
        .filter("wet", "rain", "rain >= 0")
        .sink("edw", SinkKind::Warehouse, &["minute_avg", "wet", "tweets"])
        .build()
        .unwrap()
}

/// Run 2: a durable warehouse under retention eviction and compaction,
/// with four subscribers and two materialized views, polled, queried and
/// rolled up.
fn durable() -> MetricsSnapshot {
    let dir = TempDir::new("metrics-golden").unwrap();
    let fleet = osaka_fleet(&ScenarioConfig::default());
    let config = EngineConfig {
        retention: Some(Duration::from_mins(10)),
        ..EngineConfig::default()
    };
    let durable = DurableConfig::at(dir.path())
        .with_fsync(FsyncPolicy::EveryN(64))
        .with_segment_max_bytes(16 * 1024)
        .with_compaction(CompactionPolicy::enabled());
    let start = Timestamp::from_civil(2016, 7, 1, 8, 0, 0);
    let mut session = StreamLoader::open_durable(fleet.topology, config, start, durable).unwrap();
    for sensor in fleet.sensors {
        session.add_sensor(sensor).unwrap();
    }
    session.deploy(edw_flow()).unwrap();
    let queries = [
        EventQuery::all().with_theme(theme("weather")),
        EventQuery::all().with_theme(theme("social/tweet")),
        EventQuery::all().in_area(osaka_area()),
        EventQuery::all(),
    ];
    let subscribers: Vec<_> = queries
        .into_iter()
        .enumerate()
        .map(|(i, q)| {
            session.subscribe(&format!("client{i}"), q, Some(4096), OverflowPolicy::Block)
        })
        .collect();
    let views = [
        CubeQuery {
            select: EventQuery::all(),
            tgran: TemporalGranularity::Hour,
            sgran: SpatialGranularity::grid(2),
            theme_depth: 1,
        },
        CubeQuery {
            select: EventQuery::all().with_theme(theme("weather")),
            tgran: TemporalGranularity::Minute,
            sgran: SpatialGranularity::World,
            theme_depth: 2,
        },
    ];
    let views: Vec<_> = views
        .into_iter()
        .enumerate()
        .map(|(i, q)| session.view(&format!("view{i}"), q))
        .collect();
    for _ in 0..30 {
        session.run_for(Duration::from_mins(1));
        for id in &subscribers {
            session.poll_deltas(*id).unwrap();
        }
    }
    for id in &views {
        session.view_cells(*id).unwrap();
    }
    let now = session.engine().now();
    session
        .query_warehouse(&EventQuery::all().with_theme(theme("weather/rain")))
        .unwrap();
    session.rollup(&CubeQuery {
        select: EventQuery::all(),
        tgran: TemporalGranularity::Hour,
        sgran: SpatialGranularity::World,
        theme_depth: 1,
    });
    session
        .evict_warehouse_before(now.saturating_sub(Duration::from_mins(5)))
        .unwrap();
    session.compact_warehouse().unwrap();
    session.unsubscribe(subscribers[3]).unwrap();
    session.drop_view(views[1]).unwrap();
    session.run_for(Duration::from_mins(2));
    session.metrics()
}

/// Run 3: breakers on, a link outage longer than the retry budget and a
/// shorter one that retries bridge, a stalled sensor, a corrupting sensor, a skewed clock and a crash of the
/// node that holds a window.
fn faults() -> MetricsSnapshot {
    let mut t = Topology::new();
    let edge = t.add_node(NodeSpec::edge("sensor-host", 20.0));
    let host_b = t.add_node(NodeSpec::core("host-b", 1000.0));
    let host_c = t.add_node(NodeSpec::core("host-c", 900.0));
    let uplink = t
        .add_link(edge, host_b, Duration::from_millis(2), 10_000_000)
        .unwrap();
    let backup = t
        .add_link(edge, host_c, Duration::from_millis(2), 10_000_000)
        .unwrap();
    t.add_link(host_b, host_c, Duration::from_millis(1), 50_000_000)
        .unwrap();
    let mut config = EngineConfig {
        migration_enabled: false,
        ..Default::default()
    };
    config.overload.breaker_enabled = true;
    config.overload.breaker_threshold = 5;
    config.overload.breaker_cooldown = Duration::from_secs(5);
    let start = Timestamp::from_civil(2016, 7, 1, 8, 0, 0);
    let mut session = StreamLoader::new(t, config, start).unwrap();
    for i in 0..3u64 {
        session
            .add_sensor(Box::new(TemperatureSensor::new(
                SensorId(i),
                &format!("osaka-temp-{i}"),
                GeoPoint::new_unchecked(34.70, 135.50),
                edge,
                Duration::from_secs(2),
                false,
                false,
                i,
            )))
            .unwrap();
    }
    let flow = DataflowBuilder::new("chaos")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(theme("weather/temperature")),
            temperature_schema(),
        )
        .aggregate(
            "avg",
            "temp",
            Duration::from_secs(30),
            &[],
            AggFunc::Avg,
            Some("temperature"),
        )
        .filter("warm", "temp", "temperature > -100")
        .sink("edw", SinkKind::Warehouse, &["avg"])
        .sink("log", SinkKind::Console, &["warm"])
        .build()
        .unwrap();
    session.deploy(flow).unwrap();
    let agg_node = session.engine().node_of("chaos", "avg").unwrap();
    let plan = FaultPlan::new()
        .link_flap(uplink.0, Duration::from_secs(20), Duration::from_secs(40))
        .link_flap(backup.0, Duration::from_secs(20), Duration::from_secs(40))
        .link_flap(
            uplink.0,
            Duration::from_secs(171),
            Duration::from_millis(1500),
        )
        .link_flap(
            backup.0,
            Duration::from_secs(171),
            Duration::from_millis(1500),
        )
        .sensor_stall(1, Duration::from_secs(35), Duration::from_secs(30))
        .corrupt_window(2, Duration::from_secs(70), Duration::from_secs(12))
        .node_crash(agg_node.0, Duration::from_secs(95))
        .node_restart(agg_node.0, Duration::from_secs(130))
        .clock_skew(0, Duration::from_secs(110), 4000);
    session.install_fault_plan(&plan);
    session.run_for(Duration::from_mins(4));
    session.metrics()
}

/// Run 4: a non-blocking chain on two shard workers.
fn parallel() -> MetricsSnapshot {
    let mut t = Topology::new();
    let edge = t.add_node(NodeSpec::edge("edge", 50.0));
    let hub = t.add_node(NodeSpec::edge("hub", 1_000_000.0));
    t.add_link(edge, hub, Duration::from_millis(1), 10_000_000)
        .unwrap();
    let config = EngineConfig {
        migration_enabled: false,
        parallelism: 2,
        ..EngineConfig::default()
    };
    let start = Timestamp::from_civil(2016, 7, 1, 8, 0, 0);
    let mut session = StreamLoader::new(t, config, start).unwrap();
    for i in 0..16u64 {
        session
            .add_sensor(Box::new(TemperatureSensor::new(
                SensorId(i),
                &format!("t{i}"),
                GeoPoint::new_unchecked(34.0 + i as f64 * 0.11, 135.0 + i as f64 * 0.07),
                edge,
                Duration::from_secs(1),
                false,
                false,
                i,
            )))
            .unwrap();
    }
    let flow = DataflowBuilder::new("chain")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(theme("weather/temperature")),
            temperature_schema(),
        )
        .transform("to_f", "temp", &[("temperature", "temperature * 1.8 + 32")])
        .virtual_property("flag", "to_f", "hot", "temperature > 80")
        .filter("keep", "flag", "temperature > -100")
        .sink("out", SinkKind::Console, &["keep"])
        .build()
        .unwrap();
    session.deploy(flow).unwrap();
    session.run_for(Duration::from_mins(2));
    session.metrics()
}

#[test]
fn snapshot_keys_and_values_match_the_golden() {
    let mut out = String::new();
    render("osaka", &osaka(), &mut out);
    render("durable", &durable(), &mut out);
    render("faults", &faults(), &mut out);
    render("parallel", &parallel(), &mut out);
    if out != GOLDEN {
        let first = out
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| out.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "metrics snapshot differs from tests/golden/metrics_snapshot.txt \
             (first difference at line {}):\n{out}",
            first + 1
        );
    }
}
