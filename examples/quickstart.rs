//! Quickstart: discover sensors, build and validate a small dataflow,
//! deploy it, and watch it run.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples may panic freely

use streamloader::dataflow::DataflowBuilder;
use streamloader::dsn::SinkKind;
use streamloader::engine::EngineConfig;
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::ScenarioConfig;
use streamloader::stt::{AttrType, Duration, Field, Schema, Theme};
use streamloader::StreamLoader;

fn main() {
    // A session against the demo testbed with the Osaka fleet plugged in.
    let mut session = StreamLoader::osaka_demo(&ScenarioConfig::default(), EngineConfig::default())
        .expect("default config is valid");

    // --- P1: discovery -------------------------------------------------
    let weather = SubscriptionFilter::any().with_theme(Theme::new("weather").unwrap());
    println!("weather sensors currently published:");
    for ad in session.discover(&weather) {
        println!("  {ad}");
    }

    // --- design + validate ---------------------------------------------
    let schema = Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .unwrap()
    .into_ref();
    let dataflow = DataflowBuilder::new("quickstart")
        .source(
            "temp",
            SubscriptionFilter::any()
                .with_theme(Theme::new("weather/temperature").unwrap())
                .require_attr("temperature", AttrType::Float),
            schema,
        )
        .filter("hot", "temp", "temperature > 25")
        .sink("console", SinkKind::Console, &["hot"])
        .build()
        .expect("construction is well-formed");
    let report = session.check(&dataflow).expect("dataflow validates");
    println!("\nvalidated; operator schemas:");
    for (node, schema) in &report.schemas {
        println!("  {node}: {schema}");
    }

    // --- P2: deploy and run ---------------------------------------------
    session.deploy(dataflow).expect("deployment succeeds");
    println!(
        "\nDSN translation:\n{}",
        session.engine().dsn_text("quickstart").unwrap()
    );

    session.run_for(Duration::from_mins(5));

    // --- live view + monitor --------------------------------------------
    println!("{}", session.render_live("quickstart").unwrap());
    println!("{}", session.monitor_report());
}
