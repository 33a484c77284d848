//! The shipped example dataflows must lint clean (infos allowed): the
//! `Session::lint` path for the in-code builders, and the CLI inference
//! path for the DSN documents under `examples/dsn/`.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use std::collections::HashMap;
use streamloader::dataflow::{Dataflow, DataflowBuilder};
use streamloader::dsn::SinkKind;
use streamloader::engine::EngineConfig;
use streamloader::lint::{lint_document, LintContext, LintReport};
use streamloader::ops::AggFunc;
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::scenario::osaka_area;
use streamloader::sensors::ScenarioConfig;
use streamloader::stt::{AttrType, Duration, Field, Schema, SchemaRef, Theme, Unit};
use streamloader::StreamLoader;

fn schema(fields: &[(&str, AttrType)]) -> SchemaRef {
    Schema::new(fields.iter().map(|(n, t)| Field::new(n, *t)).collect())
        .unwrap()
        .into_ref()
}

fn theme(t: &str) -> Theme {
    Theme::new(t).unwrap()
}

fn assert_clean(report: &LintReport) {
    assert!(
        report.is_clean(),
        "expected a clean report for `{}`, got:\n{}",
        report.dataflow,
        report.render()
    );
}

fn session() -> StreamLoader {
    let scenario = ScenarioConfig {
        rain_sensors: 6,
        water_sensors: 4,
        ..Default::default()
    };
    StreamLoader::osaka_demo(&scenario, EngineConfig::default()).expect("default config is valid")
}

/// examples/quickstart.rs
fn quickstart() -> Dataflow {
    DataflowBuilder::new("quickstart")
        .source(
            "temp",
            SubscriptionFilter::any()
                .with_theme(theme("weather/temperature"))
                .require_attr("temperature", AttrType::Float),
            schema(&[("temperature", AttrType::Float), ("station", AttrType::Str)]),
        )
        .filter("hot", "temp", "temperature > 25")
        .sink("console", SinkKind::Console, &["hot"])
        .build()
        .unwrap()
}

/// examples/flood_monitoring.rs
fn flood_watch() -> Dataflow {
    DataflowBuilder::new("flood-watch")
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
        .transform(
            "level_ft",
            "level",
            &[("level", "convert_unit(level, 'm', 'ft')")],
        )
        .cull_space("rain_thin", "rain", osaka_area(), 2)
        .join(
            "paired",
            "rain_thin",
            "level_ft",
            Duration::from_mins(5),
            "rain > 0 and level > 0",
        )
        .virtual_property("risk", "paired", "flood_risk", "rain * 0.05 + level * 0.2")
        .filter("risky", "risk", "flood_risk > 1.0")
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
        .unwrap()
}

/// examples/osaka_scenario.rs
fn osaka() -> Dataflow {
    let in_osaka = |t: &str| {
        SubscriptionFilter::any()
            .with_theme(theme(t))
            .with_area(osaka_area())
    };
    DataflowBuilder::new("osaka-hot-weather")
        .source(
            "temperature",
            in_osaka("weather/temperature")
                .require_attr("temperature", AttrType::Float)
                .require_unit("temperature", Unit::Celsius),
            schema(&[("temperature", AttrType::Float), ("station", AttrType::Str)]),
        )
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
        .filter("torrential", "rain", "torrential = true")
        .filter("storm_tweets", "tweets", "storm_related = true")
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
        .unwrap()
}

#[test]
fn example_dataflows_lint_clean_in_session() {
    let session = session();
    for df in [quickstart(), flood_watch(), osaka()] {
        assert_clean(&session.lint(&df));
    }
}

#[test]
fn osaka_collapse_note_is_the_only_finding() {
    // The scenario's ungrouped hourly average legitimately collapses the
    // city to one value; the analyzer notes it (SL012) and nothing else.
    let report = session().lint(&osaka());
    assert!(report.has(streamloader::lint::LintCode::SpatialCollapse));
    assert_eq!(
        report.diagnostics.len(),
        1,
        "unexpected findings:\n{}",
        report.render()
    );
}

#[test]
fn example_dataflows_lint_clean_as_deployments() {
    // The deployment tier (SL050–SL083) must also stay quiet for the
    // shipped examples under the default engine config, including when a
    // burst-only fault plan is attached. (A crash plan would legitimately
    // raise SL071 here: the demo session is not durable.)
    let session = session();
    for df in [quickstart(), flood_watch(), osaka()] {
        let sensors: Vec<u64> = session
            .discover(&SubscriptionFilter::any().with_theme(theme("weather/temperature")))
            .iter()
            .map(|ad| ad.id.0)
            .collect();
        let mut plan = streamloader::faults::FaultPlan::new();
        for s in &sensors {
            plan = plan.burst(*s, Duration::from_secs(60), Duration::from_secs(120), 3);
        }
        let report = session.lint_deployment(&df, Some(&plan));
        assert!(
            report.error_count() == 0
                && !report
                    .diagnostics
                    .iter()
                    .any(|d| d.code.as_str() >= "SL050" && d.code.as_str() <= "SL083"),
            "deployment tier flagged example `{}`:\n{}",
            report.dataflow,
            report.render()
        );
    }
}

#[test]
fn deployment_view_reports_capabilities() {
    let mut session = session();
    session.deploy(flood_watch()).expect("example deploys");
    let view = session
        .deployment_view("flood-watch")
        .expect("deployed dataflow has a view");
    assert_eq!(view.name, "flood-watch");
    let svc = |name: &str| {
        view.services
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("service `{name}` missing from the view"))
    };
    // A stateless filter shards; a join is blocking state that checkpoints;
    // an order-sensitive cull is neither.
    assert!(svc("risky").shardable && !svc("risky").blocking);
    assert!(svc("paired").blocking && svc("paired").checkpointable);
    let thin = svc("rain_thin");
    assert!(!thin.shardable && !thin.blocking && !thin.checkpointable);
    assert!(
        view.active_sources.contains(&"rain".to_string())
            && view.active_sources.contains(&"level".to_string()),
        "flood-watch sources are active: {view:?}"
    );
}

#[test]
fn example_dsn_documents_lint_clean() {
    // The same gate `scripts/check.sh` applies via the sl-lint CLI.
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/dsn");
    let mut checked = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "dsn") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = streamloader::dsn::parse_document(&text)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let mut schemas = HashMap::new();
        for src in &doc.sources {
            let fields = src
                .filter
                .required_attrs
                .iter()
                .map(|(n, t)| Field::new(n, *t))
                .collect();
            schemas.insert(src.name.clone(), Schema::new(fields).unwrap().into_ref());
        }
        assert_clean(&lint_document(&doc, &schemas, &LintContext::bare(), None));
        checked += 1;
    }
    assert_eq!(checked, 3, "expected the three example DSN documents");
}
