//! Chaos engineering on a live dataflow: a scripted [`FaultPlan`] flaps a
//! link, stalls and corrupts sensors, and crashes the node hosting a
//! windowed aggregation — while the recovery layer retries deliveries,
//! dead-letters what cannot be saved, expires and rejoins sensors, and
//! restores the window cache from its checkpoint on a new node.
//!
//! ```sh
//! cargo run --example chaos_recovery
//! ```
//!
//! [`FaultPlan`]: streamloader::faults::FaultPlan

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples may panic freely

use streamloader::dataflow::DataflowBuilder;
use streamloader::dsn::SinkKind;
use streamloader::engine::EngineConfig;
use streamloader::faults::FaultPlan;
use streamloader::netsim::{NodeSpec, Topology};
use streamloader::ops::AggFunc;
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::physical::TemperatureSensor;
use streamloader::stt::{AttrType, Duration, Field, GeoPoint, Schema, SensorId, Theme, Timestamp};
use streamloader::StreamLoader;

fn main() {
    // One weak sensor host and two capable hosts, fully meshed.
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

    let config = EngineConfig {
        migration_enabled: false,
        ..Default::default()
    };
    let start = Timestamp::from_civil(2016, 7, 1, 8, 0, 0);
    let mut session = StreamLoader::new(t, config, start).expect("config is valid");
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

    let schema = Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .unwrap()
    .into_ref();
    let dataflow = DataflowBuilder::new("chaos")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            schema,
        )
        .aggregate(
            "avg",
            "temp",
            Duration::from_secs(30),
            &[],
            AggFunc::Avg,
            Some("temperature"),
        )
        .sink("edw", SinkKind::Warehouse, &["avg"])
        .build()
        .unwrap();
    session.deploy(dataflow).unwrap();
    let agg_node = session.engine().node_of("chaos", "avg").unwrap();
    println!("aggregation initially on {agg_node}; sensors on {edge}");

    // The chaos schedule, replayed deterministically in virtual time.
    // Both uplinks flap together, isolating the sensor host: deliveries
    // back off and retry until connectivity returns (outage < retry budget).
    let plan = FaultPlan::new()
        .link_flap(uplink.0, Duration::from_secs(20), Duration::from_secs(8))
        .link_flap(backup.0, Duration::from_secs(20), Duration::from_secs(8))
        .sensor_stall(1, Duration::from_secs(35), Duration::from_secs(30))
        .corrupt_window(2, Duration::from_secs(50), Duration::from_secs(12))
        .node_crash(agg_node.0, Duration::from_secs(75))
        .node_restart(agg_node.0, Duration::from_secs(110))
        .clock_skew(0, Duration::from_secs(90), 4000);
    println!(
        "installing a fault plan with {} events (horizon {})\n",
        plan.len(),
        plan.horizon()
    );
    session.install_fault_plan(&plan);
    session.run_for(Duration::from_mins(3));

    println!(
        "aggregation now on {}",
        session.engine().node_of("chaos", "avg").unwrap()
    );
    println!(
        "warehouse holds {} aggregated events",
        session.engine().warehouse().len()
    );

    println!("\nrecovery log:");
    for line in &session.engine().monitor().recovery {
        println!("  {line}");
    }
    let restored = session.metrics().counters["engine/checkpoint/restored_tuples"];
    assert!(restored > 0, "the crash met a half-filled window");

    println!("\ndead-letter queue ({} total):", session.dlq().total());
    for (reason, n) in session.dlq().by_reason() {
        println!("  {reason}: {n}");
    }

    // The recovery slice of the metrics table.
    println!("\nrecovery metrics:");
    for line in session.metrics_table().lines() {
        if [
            "retry/",
            "dlq/",
            "checkpoint/",
            "liveness/",
            "faults/",
            "recovery/",
            "drops/",
        ]
        .iter()
        .any(|k| line.contains(k))
        {
            println!("{line}");
        }
    }
}
