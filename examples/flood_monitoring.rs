//! Flood monitoring: joining heterogeneous streams with unit conversion,
//! virtual properties, culling and a deactivation trigger.
//!
//! Motivated by paper §1's natural-disaster use case (flooding): river
//! gauges and rain gauges are joined per station-window; a virtual property
//! computes a flood-risk score; a Cull-Space thins the firehose outside the
//! critical zone; and a Trigger-Off stops acquisition when conditions calm
//! down.
//!
//! ```sh
//! cargo run --example flood_monitoring
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples may panic freely

use streamloader::dataflow::{optimize, DataflowBuilder};
use streamloader::dsn::SinkKind;
use streamloader::engine::EngineConfig;
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::scenario::osaka_area;
use streamloader::sensors::ScenarioConfig;
use streamloader::stt::{AttrType, Duration, Field, Schema, SchemaRef, Theme};
use streamloader::StreamLoader;

fn schema(fields: &[(&str, AttrType)]) -> SchemaRef {
    Schema::new(fields.iter().map(|(n, t)| Field::new(n, *t)).collect())
        .unwrap()
        .into_ref()
}

fn main() {
    let scenario = ScenarioConfig {
        rain_sensors: 6,
        water_sensors: 4,
        ..Default::default()
    };
    let mut session = StreamLoader::osaka_demo(&scenario, EngineConfig::default())
        .expect("default config is valid");
    let theme = |t: &str| Theme::new(t).unwrap();

    let dataflow = DataflowBuilder::new("flood-watch")
        .source(
            "rain",
            SubscriptionFilter::any()
                .with_theme(theme("weather/rain"))
                .with_area(osaka_area()),
            schema(&[("rain", AttrType::Float), ("station", AttrType::Str)]),
        )
        .source(
            "level",
            SubscriptionFilter::any().with_theme(theme("water/level")),
            schema(&[("level", AttrType::Float), ("gauge", AttrType::Str)]),
        )
        // Normalise river level to feet for the downstream legacy consumer —
        // the paper's unit-conversion requirement, inverted.
        .transform(
            "level_ft",
            "level",
            &[("level", "convert_unit(level, 'm', 'ft')")],
        )
        // Thin the rain stream in the wider area: keep 1 in 2.
        .cull_space("rain_thin", "rain", osaka_area(), 2)
        // Window-join rain and level every 5 minutes on proximity.
        .join(
            "paired",
            "rain_thin",
            "level_ft",
            Duration::from_mins(5),
            "rain > 0 and level > 0",
        )
        // Flood risk: rain intensity and water level combined.
        .virtual_property("risk", "paired", "flood_risk", "rain * 0.05 + level * 0.2")
        .filter("risky", "risk", "flood_risk > 1.0")
        // Stand down when an hour looks dry.
        .trigger_off(
            "calm",
            "rain",
            Duration::from_hours(1),
            "rain < 0.1",
            &["level"],
        )
        .sink("edw", SinkKind::Warehouse, &["risky"])
        .sink("ops_console", SinkKind::Console, &["risky"])
        .build()
        .expect("flood dataflow is well-formed");

    // Show what the logical optimiser does with it.
    let (optimized, rewrites) = optimize(&dataflow).expect("valid dataflow");
    println!(
        "optimiser applied {} rewrite(s): {rewrites:?}",
        rewrites.len()
    );

    session.deploy(optimized).expect("deployment succeeds");
    println!(
        "DSN:\n{}",
        session.engine().dsn_text("flood-watch").unwrap()
    );

    session.run_for(Duration::from_hours(6));

    println!("{}", session.render_live("flood-watch").unwrap());
    println!("{}", session.monitor_report());
    println!(
        "level acquisition now: {}",
        if session
            .engine()
            .source_active("flood-watch", "level")
            .unwrap()
        {
            "ACTIVE"
        } else {
            "deactivated by trigger_off"
        }
    );
    println!("warehouse events: {}", session.engine().warehouse().len());
}
