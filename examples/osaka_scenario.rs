//! The paper's Figure 2 scenario, end to end.
//!
//! "Suppose that there is interest in acquiring the data about torrential
//! rain, tweets and traffic only when the temperature identified in the
//! last hour is above 25 °C" (paper §3). This example builds exactly that
//! dataflow: an hourly temperature average feeding a Trigger-On that
//! activates three gated sources, whose (filtered, transformed) streams are
//! loaded into the Event Data Warehouse.
//!
//! ```sh
//! cargo run --example osaka_scenario
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples may panic freely

use streamloader::dataflow::DataflowBuilder;
use streamloader::dsn::SinkKind;
use streamloader::engine::EngineConfig;
use streamloader::ops::AggFunc;
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::scenario::osaka_area;
use streamloader::sensors::ScenarioConfig;
use streamloader::stt::{AttrType, Duration, Field, Schema, SchemaRef, TemporalGranularity, Theme};
use streamloader::warehouse::CubeQuery;
use streamloader::warehouse::EventQuery;
use streamloader::StreamLoader;

fn schema(fields: &[(&str, AttrType)]) -> SchemaRef {
    Schema::new(fields.iter().map(|(n, t)| Field::new(n, *t)).collect())
        .unwrap()
        .into_ref()
}

fn main() {
    let mut session = StreamLoader::osaka_demo(&ScenarioConfig::default(), EngineConfig::default())
        .expect("default config is valid");
    let theme = |t: &str| Theme::new(t).unwrap();
    let in_osaka = |t: &str| {
        SubscriptionFilter::any()
            .with_theme(theme(t))
            .with_area(osaka_area())
    };

    // The Figure 2 dataflow.
    let dataflow = DataflowBuilder::new("osaka-hot-weather")
        // Always-on temperature acquisition.
        .source(
            "temperature",
            in_osaka("weather/temperature")
                .require_attr("temperature", AttrType::Float)
                // Celsius stations only: the trigger condition is in C.
                .require_unit("temperature", streamloader::stt::Unit::Celsius),
            schema(&[("temperature", AttrType::Float), ("station", AttrType::Str)]),
        )
        // Gated sources: dormant until the trigger fires.
        .gated_source(
            "rain",
            in_osaka("weather/rain"),
            schema(&[
                ("rain", AttrType::Float),
                ("torrential", AttrType::Bool),
                ("station", AttrType::Str),
            ]),
        )
        .gated_source(
            "tweets",
            SubscriptionFilter::any().with_theme(theme("social/tweet")),
            schema(&[("text", AttrType::Str), ("storm_related", AttrType::Bool)]),
        )
        .gated_source(
            "traffic",
            in_osaka("traffic"),
            schema(&[("congestion", AttrType::Float), ("road", AttrType::Str)]),
        )
        // "The temperature identified in the last hour": a sliding one-hour
        // average, re-evaluated every 10 minutes.
        .aggregate_sliding(
            "hourly_avg",
            "temperature",
            Duration::from_mins(10),
            Duration::from_hours(1),
            &[],
            AggFunc::Avg,
            Some("temperature"),
        )
        .trigger_on(
            "hot_hour",
            "hourly_avg",
            Duration::from_mins(10),
            "avg_temperature > 25",
            &["rain", "tweets", "traffic"],
        )
        // Only torrential rain reaches the warehouse.
        .filter("torrential", "rain", "torrential = true")
        // Storm-related tweets only.
        .filter("storm_tweets", "tweets", "storm_related = true")
        // Congested roads only, with congestion re-expressed in percent.
        .filter("congested", "traffic", "congestion > 0.6")
        .transform(
            "traffic_pct",
            "congested",
            &[("congestion", "congestion * 100")],
        )
        .sink(
            "edw",
            SinkKind::Warehouse,
            &["torrential", "storm_tweets", "traffic_pct"],
        )
        .build()
        .expect("scenario dataflow is well-formed");

    session.deploy(dataflow).expect("deployment succeeds");
    println!(
        "deployed; DSN:\n{}",
        session.engine().dsn_text("osaka-hot-weather").unwrap()
    );

    // Run a simulated day from 08:00.
    for hour in 0..24 {
        session.run_for(Duration::from_hours(1));
        let active = session
            .engine()
            .source_active("osaka-hot-weather", "rain")
            .unwrap();
        let fired = session.engine().monitor().controls.len();
        println!(
            "hour {:>2}: rain acquisition {} ({} trigger actions so far)",
            hour + 1,
            if active { "ACTIVE" } else { "gated" },
            fired
        );
    }

    println!("\n{}", session.render_live("osaka-hot-weather").unwrap());
    println!("{}", session.monitor_report());

    // What reached the warehouse?
    let events = session
        .query_warehouse(&EventQuery::all())
        .expect("in-memory queries cannot fail");
    println!("warehouse holds {} events", events.len());
    let cells = session.rollup(&CubeQuery {
        select: EventQuery::all(),
        tgran: TemporalGranularity::Hour,
        sgran: streamloader::stt::SpatialGranularity::grid(4),
        theme_depth: 2,
    });
    println!("hourly roll-up ({} cells):", cells.len());
    for c in cells.iter().take(12) {
        println!(
            "  granule {} {} {}: count={} avg={:?}",
            c.tgranule, c.sgranule, c.theme, c.count, c.avg
        );
    }

    // The Sticker-style view: where did the acquired events happen?
    println!("\nevent density over the Osaka area (Sticker-substitute view):");
    println!(
        "{}",
        session.heatmap(&EventQuery::all(), osaka_area(), 48, 14)
    );
}
