//! Crash-safe Event Data Warehouse: run a windowed aggregation into a
//! durable session, kill the process mid-window, reopen the same
//! directory, and watch the warehouse *and* the operator's window cache
//! come back — then spill old events to cold segments and query across
//! both tiers.
//!
//! ```sh
//! cargo run --example durable_edw
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples may panic freely

use streamloader::dataflow::DataflowBuilder;
use streamloader::dsn::SinkKind;
use streamloader::durable::{DurableConfig, FsyncPolicy, TempDir};
use streamloader::engine::EngineConfig;
use streamloader::netsim::{NodeSpec, Topology};
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::physical::TemperatureSensor;
use streamloader::stt::{AttrType, Duration, Field, GeoPoint, Schema, SensorId, Theme, Timestamp};
use streamloader::warehouse::EventQuery;
use streamloader::StreamLoader;

/// One incarnation of the process: open the durable session on `dir`,
/// plug in a sensor, deploy a 30 s windowed aggregation into the EDW.
fn incarnation(durable: DurableConfig) -> StreamLoader {
    let mut t = Topology::new();
    let a = t.add_node(NodeSpec::edge("sensor-host", 10.0));
    let b = t.add_node(NodeSpec::edge("host-b", 1000.0));
    t.add_link(a, b, Duration::from_millis(1), 10_000_000)
        .unwrap();
    let config = EngineConfig::default();
    let start = Timestamp::from_civil(2016, 7, 1, 12, 0, 0);
    let mut session = StreamLoader::open_durable(t, config, start, durable)
        .expect("open (or recover) the segment log");
    session
        .add_sensor(Box::new(TemperatureSensor::new(
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

    let schema = Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .unwrap()
    .into_ref();
    let flow = DataflowBuilder::new("edw")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            schema,
        )
        .aggregate(
            "sum",
            "temp",
            Duration::from_secs(30),
            &[],
            streamloader::ops::AggFunc::Sum,
            Some("temperature"),
        )
        .sink("edw", SinkKind::Warehouse, &["sum"])
        .build()
        .unwrap();
    session.deploy(flow).unwrap();
    session
}

fn main() {
    // The log outlives each incarnation; the TempDir cleans up at exit.
    let dir = TempDir::new("durable-edw-example").unwrap();
    let durable = || DurableConfig::at(dir.path()).with_fsync(FsyncPolicy::Always);

    // --- incarnation 1: run 100 s, then "crash" ------------------------
    let events_before = {
        let mut session = incarnation(durable());
        session.run_for(Duration::from_secs(100));
        let n = session.engine().warehouse().len();
        println!("incarnation 1: {n} aggregates in the EDW, killed at t=100 s");
        println!("               (window boundaries at 30/60/90 s — tuples are cached mid-window)");
        n
        // dropped here without any shutdown handshake: the process "dies"
    };

    // --- incarnation 2: reopen the same directory ----------------------
    let mut session = incarnation(durable());
    let recovered = session.engine().warehouse().len();
    println!("incarnation 2: {recovered} aggregates recovered from the segment log");
    assert_eq!(recovered, events_before, "every acked event survives");
    for line in &session.engine().monitor().durability {
        println!("  durability: {line}");
    }
    let restored = session.metrics().counters["engine/checkpoint/restored_tuples"];
    assert!(restored > 0, "the window cached at kill time came back");

    // Keep going: the restored window cache means the aggregate picks up
    // exactly where the dead process left off.
    session.run_for(Duration::from_secs(60));
    let total = session.engine().warehouse().len();
    println!("ran 60 s more: {total} aggregates (recovered prefix intact)");

    // --- retention: spill to cold segments, query across both tiers ----
    let now = session.engine().now();
    let evicted = session
        .evict_warehouse_before(now + Duration::from_mins(10))
        .unwrap();
    let hot = session.engine().warehouse().len();
    let merged = session.query_warehouse(&EventQuery::all()).unwrap();
    println!("evicted {evicted} events to cold segments ({hot} left hot);");
    println!(
        "merged hot+cold query still answers all {} events",
        merged.len()
    );
    assert_eq!(merged.len(), total);

    println!("\n{}", session.metrics().render_table());
}
