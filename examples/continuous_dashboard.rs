//! A live dashboard over the Osaka fleet, built on standing queries.
//!
//! The paper's GUI polls the Event Data Warehouse; this example inverts
//! the last hop with `sl-cq`: the warehouse-bound stream *pushes* into
//! registered views and subscriptions, so each "screen refresh" below is
//! a read of already-current state — no rescans, ever.
//!
//! * a **heat-map view**: hourly temperature roll-up over a city grid,
//!   maintained incrementally on every ingest;
//! * a **theme-mix view**: event counts per top-level theme, world-wide;
//! * a **rain ticker**: a bounded delta feed of rain events that
//!   demonstrates the explicit lag + snapshot catch-up protocol;
//! * a retention window, so the dashboard state stays bounded forever.
//!
//! ```sh
//! cargo run --example continuous_dashboard
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples may panic freely

use streamloader::dataflow::DataflowBuilder;
use streamloader::dsn::SinkKind;
use streamloader::engine::{EngineConfig, OverflowPolicy};
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::scenario::osaka_area;
use streamloader::sensors::ScenarioConfig;
use streamloader::stt::{
    AttrType, Duration, Field, Schema, SchemaRef, SpatialGranularity, TemporalGranularity, Theme,
};
use streamloader::warehouse::{CubeQuery, EventQuery};
use streamloader::StreamLoader;

fn schema(fields: &[(&str, AttrType)]) -> SchemaRef {
    Schema::new(fields.iter().map(|(n, t)| Field::new(n, *t)).collect())
        .unwrap()
        .into_ref()
}

fn main() {
    // A two-hour retention window keeps every view and index bounded: old
    // events are evicted at monitor ticks and *retracted* from the views.
    let config = EngineConfig {
        retention: Some(Duration::from_hours(2)),
        ..EngineConfig::default()
    };
    let mut session =
        StreamLoader::osaka_demo(&ScenarioConfig::default(), config).expect("config is valid");
    let theme = |t: &str| Theme::new(t).unwrap();

    // Everything the dashboard shows flows through one warehouse sink.
    let dataflow = DataflowBuilder::new("dashboard")
        .source(
            "temperature",
            SubscriptionFilter::any()
                .with_theme(theme("weather/temperature"))
                .with_area(osaka_area()),
            schema(&[("temperature", AttrType::Float), ("station", AttrType::Str)]),
        )
        .source(
            "rain",
            SubscriptionFilter::any()
                .with_theme(theme("weather/rain"))
                .with_area(osaka_area()),
            schema(&[
                ("rain", AttrType::Float),
                ("torrential", AttrType::Bool),
                ("station", AttrType::Str),
            ]),
        )
        .sink("edw", SinkKind::Warehouse, &["temperature", "rain"])
        .build()
        .expect("dashboard dataflow is well-formed");
    session.deploy(dataflow).expect("deployment succeeds");

    // The standing registrations. Views are seeded from whatever the
    // warehouse already holds (nothing yet) and updated per ingest.
    let heat_map = session.view(
        "heat-map",
        CubeQuery {
            select: EventQuery::all().with_theme(theme("weather/temperature")),
            tgran: TemporalGranularity::Hour,
            sgran: SpatialGranularity::grid(6),
            theme_depth: 2,
        },
    );
    let theme_mix = session.view(
        "theme-mix",
        CubeQuery {
            select: EventQuery::all(),
            tgran: TemporalGranularity::Day,
            sgran: SpatialGranularity::World,
            theme_depth: 1,
        },
    );
    // Deliberately tiny queue: rain is bursty, so the ticker will lag and
    // have to catch up — explicitly, never silently.
    let ticker = session.subscribe(
        "rain-ticker",
        EventQuery::all().with_theme(theme("weather/rain")),
        Some(16),
        OverflowPolicy::Block,
    );

    // Bounded-memory sanity: with retention configured the lint tier has
    // nothing to say about the unbounded standing queries.
    let report = session.lint_cq();
    println!(
        "lint_cq: {}",
        if report.is_clean() {
            "clean (retention bounds every view)".to_string()
        } else {
            report.render()
        }
    );

    // Six simulated hours, refreshing the dashboard every hour.
    for hour in 1..=6 {
        session.run_for(Duration::from_hours(1));

        let heat = session.view_cells(heat_map).expect("live view");
        let mix = session.view_cells(theme_mix).expect("live view");
        println!("\n== {} (hour {hour}) ==", session.engine().now());
        println!(
            "heat-map: {} live cells (hour x grid-6 x weather/*)",
            heat.len()
        );
        if let Some(hottest) = heat
            .iter()
            .filter(|c| c.max.is_some())
            .max_by(|a, b| a.max.partial_cmp(&b.max).expect("no NaNs"))
        {
            println!(
                "  hottest cell: {} @ {}: max {:.1} C over {} readings",
                hottest.theme,
                hottest.sgranule,
                hottest.max.unwrap_or(f64::NAN),
                hottest.count
            );
        }
        for cell in &mix {
            println!("  theme {}: {} events today", cell.theme, cell.count);
        }

        let poll = session.poll_deltas(ticker).expect("live subscription");
        if poll.lagged {
            let (snapshot, seq) = session.catch_up(ticker).expect("live subscription");
            println!(
                "rain-ticker: LAGGED ({} deltas lost, accounted) — caught up \
                 from a {}-event snapshot at seq {seq}",
                poll.dropped,
                snapshot.len()
            );
        } else {
            println!("rain-ticker: {} new rain events", poll.deltas.len());
        }
    }

    // The monitor report carries the same registrations.
    let report = session.engine().monitor().report(session.engine().now());
    for line in report
        .lines()
        .skip_while(|l| !l.contains("continuous queries"))
        .take_while(|l| !l.is_empty())
    {
        println!("{line}");
    }
    println!(
        "\nretention evicted {} events; every surviving contribution is \
         still in the views (byte-identical to a rescan).",
        session
            .engine()
            .metrics_snapshot()
            .counters
            .get("engine/retention/evicted")
            .copied()
            .unwrap_or(0)
    );
}
