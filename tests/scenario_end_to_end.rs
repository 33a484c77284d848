//! End-to-end test of the paper's Figure 2 scenario: event-driven
//! acquisition gated on an hourly temperature trigger, heterogeneous
//! streams filtered and loaded into the Event Data Warehouse.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use streamloader::dataflow::DataflowBuilder;
use streamloader::dsn::SinkKind;
use streamloader::engine::EngineConfig;
use streamloader::ops::AggFunc;
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::scenario::osaka_area;
use streamloader::sensors::ScenarioConfig;
use streamloader::stt::{AttrType, Duration, Field, Schema, SchemaRef, Theme, Unit};
use streamloader::warehouse::EventQuery;
use streamloader::StreamLoader;

fn schema(fields: &[(&str, AttrType)]) -> SchemaRef {
    Schema::new(fields.iter().map(|(n, t)| Field::new(n, *t)).collect())
        .unwrap()
        .into_ref()
}

fn scenario_dataflow() -> streamloader::dataflow::Dataflow {
    let theme = |t: &str| Theme::new(t).unwrap();
    DataflowBuilder::new("osaka-hot-weather")
        .source(
            "temperature",
            SubscriptionFilter::any()
                .with_theme(theme("weather/temperature"))
                .with_area(osaka_area())
                .require_attr("temperature", AttrType::Float)
                // Pin the unit: Fahrenheit stations would otherwise feed
                // ~75 "degrees" into the 25 C trigger condition.
                .require_unit("temperature", Unit::Celsius),
            schema(&[("temperature", AttrType::Float), ("station", AttrType::Str)]),
        )
        .gated_source(
            "rain",
            SubscriptionFilter::any().with_theme(theme("weather/rain")),
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
        .aggregate(
            "hourly_avg",
            "temperature",
            Duration::from_hours(1),
            &[],
            AggFunc::Avg,
            Some("temperature"),
        )
        .trigger_on(
            "hot_hour",
            "hourly_avg",
            Duration::from_hours(1),
            "avg_temperature > 25",
            &["rain", "tweets"],
        )
        .filter("torrential", "rain", "torrential = true")
        .sink("edw", SinkKind::Warehouse, &["torrential"])
        .build()
        .unwrap()
}

fn run_scenario(heat_wave: bool, hours: u64) -> StreamLoader {
    let scenario = ScenarioConfig {
        heat_wave,
        ..Default::default()
    };
    let mut session = StreamLoader::osaka_demo(&scenario, EngineConfig::default())
        .expect("default config is valid");
    session.deploy(scenario_dataflow()).unwrap();
    session.run_for(Duration::from_hours(hours));
    session
}

#[test]
fn heat_wave_fires_trigger_and_activates_acquisition() {
    let session = run_scenario(true, 8); // 08:00 → 16:00: midday crosses 25 °C
    let engine = session.engine();
    // The gated sources became active.
    assert_eq!(
        engine.source_active("osaka-hot-weather", "rain"),
        Some(true)
    );
    assert_eq!(
        engine.source_active("osaka-hot-weather", "tweets"),
        Some(true)
    );
    // The trigger fired at least once and was logged.
    let fired: Vec<_> = engine
        .monitor()
        .controls
        .iter()
        .filter(|c| c.operator == "hot_hour" && c.action.is_activate())
        .collect();
    assert!(!fired.is_empty());
    // Rain tuples flowed after activation.
    let c = engine
        .monitor()
        .op("osaka-hot-weather", "torrential")
        .unwrap();
    assert!(
        c.tuples_in() > 0,
        "rain tuples should reach the filter once active"
    );
    // Only torrential tuples survive the filter.
    assert_eq!(c.tuples_in(), c.tuples_out() + c.dropped());
}

#[test]
fn cold_day_never_activates() {
    let session = run_scenario(false, 1);
    // Early-morning mild profile: the 08:00-09:00 hourly average stays
    // well below 25 °C (base 22 °C wave peaking at 14:00).
    let engine = session.engine();
    assert_eq!(
        engine.source_active("osaka-hot-weather", "rain"),
        Some(false)
    );
    assert!(engine
        .monitor()
        .op("osaka-hot-weather", "torrential")
        .is_none_or(|c| c.tuples_in() == 0));
    assert!(engine.warehouse().is_empty());
}

#[test]
fn warehouse_only_has_post_activation_events() {
    let mut session = run_scenario(true, 10);
    let activation = session
        .engine()
        .monitor()
        .controls
        .iter()
        .find(|c| c.operator == "hot_hour")
        .map(|c| c.at)
        .expect("trigger fired");
    let events = session
        .query_warehouse(&EventQuery::all())
        .expect("in-memory queries cannot fail");
    assert!(!events.is_empty());
    for e in &events {
        assert!(
            e.time_interval().end > activation - streamloader::stt::Duration::from_mins(1),
            "event {e} predates activation {activation}"
        );
        // Everything in the warehouse came from the torrential-rain branch.
        assert!(e.theme.is_a(&Theme::new("weather/rain").unwrap()), "{e}");
    }
}

#[test]
fn hourly_average_matches_sensor_population() {
    let session = run_scenario(true, 3);
    let monitor = session.engine().monitor();
    let agg = monitor.op("osaka-hot-weather", "hourly_avg").unwrap();
    // 5 Celsius temperature sensors (the 6th reports Fahrenheit and is
    // excluded by the unit filter) at 10 s period for 3 h.
    let expected = 5.0 * 6.0 * 60.0 * 3.0;
    let got = agg.tuples_in() as f64;
    assert!(
        (got - expected).abs() / expected < 0.1,
        "expected ~{expected} aggregate inputs, got {got}"
    );
    // One output row per non-empty hourly window.
    assert!(
        agg.tuples_out() >= 2 && agg.tuples_out() <= 4,
        "out {}",
        agg.tuples_out()
    );
}

#[test]
fn scenario_is_deterministic() {
    let summary = |s: &StreamLoader| {
        let m = s.engine().monitor();
        (
            m.op("osaka-hot-weather", "hourly_avg")
                .map(|c| (c.tuples_in(), c.tuples_out())),
            m.controls.len(),
            s.engine().warehouse().len(),
            s.engine().net_stats().total_bytes(),
        )
    };
    let a = run_scenario(true, 6);
    let b = run_scenario(true, 6);
    assert_eq!(summary(&a), summary(&b));
}

#[test]
fn sliding_last_hour_reacts_faster_than_tumbling() {
    // The paper's wording is "the temperature identified in the LAST HOUR":
    // a sliding hourly average re-evaluated every 10 minutes reacts to a
    // heat wave strictly sooner than a tumbling hourly window.
    let build = |sliding: bool| {
        let theme = |t: &str| Theme::new(t).unwrap();
        let mut b = DataflowBuilder::new("react")
            .source(
                "temperature",
                SubscriptionFilter::any()
                    .with_theme(theme("weather/temperature"))
                    .require_unit("temperature", Unit::Celsius),
                schema(&[("temperature", AttrType::Float), ("station", AttrType::Str)]),
            )
            .gated_source(
                "rain",
                SubscriptionFilter::any().with_theme(theme("weather/rain")),
                schema(&[("rain", AttrType::Float), ("station", AttrType::Str)]),
            );
        b = if sliding {
            b.aggregate_sliding(
                "avg",
                "temperature",
                Duration::from_mins(10),
                Duration::from_hours(1),
                &[],
                AggFunc::Avg,
                Some("temperature"),
            )
        } else {
            b.aggregate(
                "avg",
                "temperature",
                Duration::from_hours(1),
                &[],
                AggFunc::Avg,
                Some("temperature"),
            )
        };
        let trigger_period = if sliding {
            Duration::from_mins(10)
        } else {
            Duration::from_hours(1)
        };
        b.trigger_on(
            "hot",
            "avg",
            trigger_period,
            "avg_temperature > 29",
            &["rain"],
        )
        .sink("out", SinkKind::Visualization, &["rain"])
        .build()
        .unwrap()
    };
    let first_activation = |sliding: bool| -> Option<u64> {
        let scenario = ScenarioConfig {
            heat_wave: true,
            ..Default::default()
        };
        let mut session = StreamLoader::osaka_demo(&scenario, EngineConfig::default())
            .expect("default config is valid");
        session.deploy(build(sliding)).unwrap();
        for step in 0..6 * 10 {
            session.run_for(Duration::from_mins(10));
            if session.engine().source_active("react", "rain") == Some(true) {
                return Some((step + 1) * 10);
            }
        }
        None
    };
    let sliding_at = first_activation(true).expect("sliding variant activates");
    let tumbling_at = first_activation(false).expect("tumbling variant activates");
    assert!(
        sliding_at < tumbling_at,
        "sliding ({sliding_at} min) should react before tumbling ({tumbling_at} min)"
    );
    // And tumbling can only ever fire on hour boundaries.
    assert_eq!(tumbling_at % 60, 0);
}

#[test]
fn dsn_translation_round_trips_through_text() {
    let session = run_scenario(true, 1);
    let text = session.engine().dsn_text("osaka-hot-weather").unwrap();
    let doc = streamloader::dsn::parse_document(text).unwrap();
    assert_eq!(streamloader::dsn::print_document(&doc), text);
    let program = streamloader::dsn::compile(&doc).unwrap();
    let (binds, spawns, _, sinks) = program.census();
    assert_eq!(binds, 3);
    assert_eq!(spawns, 3);
    assert_eq!(sinks, 1);
}

#[test]
fn session_metrics_cover_all_subsystems_and_round_trip() {
    let session = run_scenario(true, 1);
    let snap = session.metrics();
    // Per-operator counters and latency histograms from the monitor.
    assert!(snap.counters["op/osaka-hot-weather/hourly_avg/tuples_in"] > 0);
    assert!(snap
        .hists
        .keys()
        .any(|k| k.starts_with("op/osaka-hot-weather/") && k.ends_with("/proc_us")));
    // Engine loop timing and queue depth, broker matching, network transfers.
    assert!(snap.hists["engine/ev/deliver_us"].count > 0);
    assert!(snap.gauges.contains_key("engine/event_queue_depth"));
    assert!(snap.hists["broker/match_us"].count > 0);
    assert!(snap.counters["net/total_msgs"] > 0);
    // The snapshot survives JSON serialization and renders as a table.
    let parsed = streamloader::obs::MetricsSnapshot::from_json(&snap.to_json()).unwrap();
    assert_eq!(parsed, snap);
    assert!(session.metrics_table().contains("engine/ev/deliver_us"));
}
