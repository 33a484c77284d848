//! Demo P3: plug-and-play sensors, on-the-fly operator modification, and
//! automatic network re-configuration under load.
//!
//! "We will show how it is easy to plug-and-play new sensors to the network
//! and make them directly available to StreamLoader. We will also show how
//! the system reacts when sensors or operators in the dataflow are modified
//! on the fly. Finally, we will show statistics on the execution of the
//! dataflow and on the performances of the network" (paper §4).
//!
//! ```sh
//! cargo run --example network_reconfig
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples may panic freely

use streamloader::dataflow::DataflowBuilder;
use streamloader::dsn::SinkKind;
use streamloader::engine::{EngineConfig, PlacementPolicy};
use streamloader::netsim::{NodeId, NodeSpec, Topology};
use streamloader::ops::OpSpec;
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::physical::TemperatureSensor;
use streamloader::stt::{AttrType, Duration, Field, GeoPoint, Schema, SensorId, Theme, Timestamp};
use streamloader::StreamLoader;

/// A deliberately asymmetric network: one under-provisioned edge node
/// (where the sensors attach) and two strong cores — the hotspot the
/// migration engine must react to.
fn weak_edge_topology() -> Topology {
    let mut t = Topology::new();
    let weak = t.add_node(NodeSpec::edge("weak-edge", 30.0));
    let core_a = t.add_node(NodeSpec::core("core-a", 1_000_000.0));
    let core_b = t.add_node(NodeSpec::core("core-b", 1_000_000.0));
    t.add_link(weak, core_a, Duration::from_millis(2), 50_000_000)
        .unwrap();
    t.add_link(core_a, core_b, Duration::from_millis(3), 100_000_000)
        .unwrap();
    t
}

fn main() {
    let config = EngineConfig {
        placement: PlacementPolicy::SourceLocal, // concentrate load to force migration
        ..Default::default()
    };
    let start = Timestamp::from_civil(2016, 7, 1, 8, 0, 0);
    let mut session =
        StreamLoader::new(weak_edge_topology(), config, start).expect("config is valid");
    // Seed fleet: two ordinary stations on the weak edge node.
    for i in 0..2u64 {
        session
            .add_sensor(Box::new(TemperatureSensor::new(
                SensorId(i),
                &format!("osaka-temp-{i}"),
                GeoPoint::new_unchecked(34.70, 135.50),
                NodeId(0),
                Duration::from_secs(10),
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
    let dataflow = DataflowBuilder::new("live-ops")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            schema,
        )
        .filter("warm", "temp", "temperature > 20")
        .sink("viz", SinkKind::Visualization, &["warm"])
        .build()
        .unwrap();
    session.deploy(dataflow).unwrap();
    session.run_for(Duration::from_mins(2));
    let baseline = session
        .engine()
        .monitor()
        .op("live-ops", "warm")
        .unwrap()
        .tuples_in();
    println!("baseline after 2 min: {baseline} tuples through the filter");

    // --- plug-and-play: a burst of fast new sensors joins ----------------
    println!("\nplugging in 8 fast sensors on one edge node...");
    for i in 0..8 {
        session
            .add_sensor(Box::new(TemperatureSensor::new(
                SensorId(1000 + i),
                &format!("popup-temp-{i}"),
                GeoPoint::new_unchecked(34.70, 135.49),
                NodeId(0), // all on the weak edge node
                Duration::from_millis(200),
                false,
                false,
                900 + i,
            )))
            .unwrap();
    }
    session.run_for(Duration::from_mins(2));
    let after_join = session
        .engine()
        .monitor()
        .op("live-ops", "warm")
        .unwrap()
        .tuples_in();
    println!("after the burst: {after_join} tuples (new sensors bound automatically)");

    // Migration should have reacted to the hotspot.
    let migrations: Vec<_> = session
        .engine()
        .monitor()
        .placements
        .iter()
        .filter(|p| p.reason.contains("migration"))
        .collect();
    println!("\nplacement changes caused by load:");
    for m in &migrations {
        let from = m.from.map_or("-".into(), |n| n.to_string());
        println!(
            "  [{}] {}/{}: {} -> {} ({})",
            m.at, m.deployment, m.operator, from, m.to, m.reason
        );
    }

    // --- on-the-fly operator modification --------------------------------
    println!("\ntightening the filter on the fly (> 20 °C becomes > 28 °C)...");
    session
        .engine_mut()
        .replace_operator(
            "live-ops",
            "warm",
            OpSpec::Filter {
                condition: "temperature > 28".into(),
            },
        )
        .unwrap();
    session.run_for(Duration::from_mins(2));

    // --- unplug half the popup sensors -----------------------------------
    println!("unplugging 4 popup sensors...");
    for i in 0..4 {
        session.remove_sensor(SensorId(1000 + i)).unwrap();
    }
    session.run_for(Duration::from_mins(1));

    // --- statistics (the P3 finale) ---------------------------------------
    println!("\n{}", session.monitor_report());
    let stats = session.engine().net_stats();
    println!(
        "network: {} messages, {} bytes total",
        stats.total_msgs(),
        stats.total_bytes()
    );
    if let Some(d) = stats.mean_hop_delay() {
        println!("mean per-hop delay: {d}");
    }
    if let Some((link, msgs)) = stats.busiest_link() {
        println!("busiest link: {link} with {msgs} messages");
    }
    println!("\nmembership log (last 6):");
    for line in session
        .engine()
        .monitor()
        .membership
        .iter()
        .rev()
        .take(6)
        .rev()
    {
        println!("  {line}");
    }
}
