//! The paper's §4 demo walkthrough, P1 → P2 → P3, as one narrated run.
//!
//! ```sh
//! cargo run --example demo_walkthrough
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples may panic freely

use std::collections::HashMap;
use streamloader::dataflow::{debug_run, DataflowBuilder};
use streamloader::dsn::SinkKind;
use streamloader::engine::EngineConfig;
use streamloader::ops::AggFunc;
use streamloader::pubsub::registry::GroupCriterion;
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::physical::TemperatureSensor;
use streamloader::sensors::scenario::{osaka_area, osaka_center};
use streamloader::sensors::ScenarioConfig;
use streamloader::stt::{AttrType, Duration, Field, Schema, SchemaRef, SensorId, Theme, Unit};
use streamloader::warehouse::EventQuery;
use streamloader::StreamLoader;

fn schema(fields: &[(&str, AttrType)]) -> SchemaRef {
    Schema::new(fields.iter().map(|(n, t)| Field::new(n, *t)).collect())
        .unwrap()
        .into_ref()
}

fn banner(s: &str) {
    println!(
        "\n{}\n=== {s} ===\n{}",
        "=".repeat(s.len() + 8),
        "=".repeat(s.len() + 8)
    );
}

fn main() {
    let mut session = StreamLoader::osaka_demo(&ScenarioConfig::default(), EngineConfig::default())
        .expect("default config is valid");
    let theme = |t: &str| Theme::new(t).unwrap();

    // ------------------------------------------------------------------ P1
    banner("P1 — identify sensors, design the dataflow, debug on samples");

    println!("sensor directory, organised by theme root:");
    for (group, ids) in session
        .engine()
        .broker()
        .registry()
        .group_by(GroupCriterion::ThemeRoot)
    {
        println!("  {group}: {} sensor(s)", ids.len());
    }

    let weather_in_osaka = SubscriptionFilter::any()
        .with_theme(theme("weather/temperature"))
        .with_area(osaka_area())
        .require_unit("temperature", Unit::Celsius);
    println!("\nselected for the dataflow (theme + area + unit filter):");
    for ad in session.discover(&weather_in_osaka) {
        println!("  {ad}");
    }

    let dataflow = DataflowBuilder::new("walkthrough")
        .source(
            "temp",
            weather_in_osaka.clone(),
            schema(&[("temperature", AttrType::Float), ("station", AttrType::Str)]),
        )
        .gated_source(
            "rain",
            SubscriptionFilter::any().with_theme(theme("weather/rain")),
            schema(&[("rain", AttrType::Float), ("torrential", AttrType::Bool)]),
        )
        .aggregate_sliding(
            "last_hour",
            "temp",
            Duration::from_mins(10),
            Duration::from_hours(1),
            &[],
            AggFunc::Avg,
            Some("temperature"),
        )
        .trigger_on(
            "hot",
            "last_hour",
            Duration::from_mins(10),
            "avg_temperature > 25",
            &["rain"],
        )
        .filter("heavy", "rain", "torrential = true")
        .sink("edw", SinkKind::Warehouse, &["heavy"])
        .build()
        .expect("well-formed dataflow");

    // Step-debug on a hand-made sample before deploying.
    let report = session.check(&dataflow).expect("dataflow validates");
    println!("\nvalidation passed; schema at each step:");
    for node in ["temp", "last_hour", "heavy"] {
        println!("  {node}: {}", report.schema_of(node).unwrap());
    }
    let mut samples = HashMap::new();
    samples.insert(
        "temp".to_string(),
        session.engine().recent_samples("walkthrough", "temp"), // none yet: empty run is fine
    );
    let run = debug_run(&dataflow, &samples).expect("sample run");
    println!(
        "sample run produced {} aggregated row(s) (pre-deployment debug)",
        run.output_of("last_hour").len()
    );

    // ------------------------------------------------------------------ P2
    banner("P2 — translate to DSN/SCN, deploy, store in the EDW");
    session.deploy(dataflow).expect("deployment succeeds");
    println!("{}", session.engine().dsn_text("walkthrough").unwrap());
    session.run_for(Duration::from_hours(6));
    println!(
        "after 6 h: warehouse holds {} events",
        session.engine().warehouse().len()
    );
    println!("live samples now visible per source (the bottom panel):");
    for t in session
        .engine()
        .recent_samples("walkthrough", "temp")
        .iter()
        .take(3)
    {
        println!("  {t}");
    }
    println!("\nevent density (Sticker substitute):");
    println!(
        "{}",
        session.heatmap(&EventQuery::all(), osaka_area(), 40, 10)
    );

    // ------------------------------------------------------------------ P3
    banner("P3 — plug-and-play, on-the-fly modification, statistics");
    println!("plugging in a popup Celsius station near the centre...");
    session
        .add_sensor(Box::new(TemperatureSensor::new(
            SensorId(500),
            "popup-temp",
            osaka_center(),
            session.engine().topology().edge_nodes()[0],
            Duration::from_secs(5),
            false,
            true,
            99,
        )))
        .unwrap();
    println!(
        "source `temp` now bound to {} sensors",
        session.engine().bound_sensors("walkthrough", "temp").len()
    );
    println!("tightening the torrential filter on the fly (rain > 25 mm/h too)...");
    session
        .engine_mut()
        .replace_operator(
            "walkthrough",
            "heavy",
            streamloader::ops::OpSpec::Filter {
                condition: "torrential = true and rain > 25".into(),
            },
        )
        .unwrap();
    session.run_for(Duration::from_hours(2));

    println!("\n{}", session.render_live("walkthrough").unwrap());
    println!("{}", session.monitor_report());
    let stats = session.engine().net_stats();
    println!(
        "network statistics: {} messages, {} bytes, mean hop delay {:?}",
        stats.total_msgs(),
        stats.total_bytes(),
        stats.mean_hop_delay().map(|d| d.to_string())
    );
}
