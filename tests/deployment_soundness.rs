//! Deployment soundness: every *valid* dataflow translates, compiles and
//! executes; every *invalid* dataflow is rejected **before** anything
//! touches the network — the paper's core claim about its checks
//! ("different controls have been included in the dataflow specification in
//! order to guarantee the sound translation and execution of the
//! corresponding DSN/SCN specification", §4).

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use streamloader::dataflow::{Dataflow, DataflowBuilder};
use streamloader::dsn::SinkKind;
use streamloader::engine::{EngineConfig, EngineError};
use streamloader::netsim::Topology;
use streamloader::ops::AggFunc;
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::scenario::osaka_area;
use streamloader::stt::{
    AttrType, Duration, Field, Schema, SchemaRef, Theme, TimeInterval, Timestamp,
};
use streamloader::StreamLoader;

fn schema(fields: &[(&str, AttrType)]) -> SchemaRef {
    Schema::new(fields.iter().map(|(n, t)| Field::new(n, *t)).collect())
        .unwrap()
        .into_ref()
}

fn weather() -> SubscriptionFilter {
    SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap())
}

fn temp_schema() -> SchemaRef {
    schema(&[("temperature", AttrType::Float), ("station", AttrType::Str)])
}

/// A corpus of structurally diverse VALID dataflows.
fn valid_corpus() -> Vec<Dataflow> {
    let b = || DataflowBuilder::new("flow");
    vec![
        // Minimal: source -> sink.
        b().source("s", weather(), temp_schema())
            .sink("out", SinkKind::Console, &["s"])
            .build()
            .unwrap(),
        // Every non-blocking operator chained.
        b().source("s", weather(), temp_schema())
            .filter("f", "s", "temperature > 0")
            .transform("t", "f", &[("temperature", "temperature * 1.8 + 32")])
            .virtual_property("v", "t", "warm", "temperature > 80")
            .cull_time(
                "ct",
                "v",
                TimeInterval::new(Timestamp::from_secs(0), Timestamp::from_secs(1_000_000_000)),
                2,
            )
            .cull_space("cs", "ct", osaka_area(), 3)
            .sink("out", SinkKind::Warehouse, &["cs"])
            .build()
            .unwrap(),
        // Aggregation grouped two ways.
        b().source("s", weather(), temp_schema())
            .aggregate(
                "g",
                "s",
                Duration::from_mins(1),
                &["station"],
                AggFunc::Max,
                Some("temperature"),
            )
            .aggregate(
                "gg",
                "g",
                Duration::from_mins(5),
                &[],
                AggFunc::Avg,
                Some("max_temperature"),
            )
            .sink("out", SinkKind::Console, &["gg"])
            .build()
            .unwrap(),
        // Join of two sources.
        b().source("a", weather(), temp_schema())
            .source("b", weather(), temp_schema())
            .join(
                "j",
                "a",
                "b",
                Duration::from_secs(30),
                "station = right_station",
            )
            .sink("out", SinkKind::Visualization, &["j"])
            .build()
            .unwrap(),
        // Trigger pair gating a source.
        b().source("s", weather(), temp_schema())
            .gated_source("x", weather(), temp_schema())
            .trigger_on(
                "on",
                "s",
                Duration::from_mins(1),
                "temperature > 25",
                &["x"],
            )
            .trigger_off(
                "off",
                "s",
                Duration::from_mins(1),
                "temperature < 20",
                &["x"],
            )
            .filter("fx", "x", "temperature > 0")
            .sink("out", SinkKind::Console, &["fx"])
            .build()
            .unwrap(),
        // Fan-out: one source feeding two branches into two sinks.
        b().source("s", weather(), temp_schema())
            .filter("hot", "s", "temperature > 25")
            .filter("cold", "s", "temperature < 5")
            .sink("h", SinkKind::Warehouse, &["hot"])
            .sink("c", SinkKind::Console, &["cold"])
            .build()
            .unwrap(),
    ]
}

/// Mutations that each break one validation rule; the builder itself
/// accepts them (they are *semantic* errors, not wiring errors).
fn invalid_corpus() -> Vec<(&'static str, Dataflow)> {
    let b = || DataflowBuilder::new("bad");
    vec![
        (
            "unknown attribute in condition",
            b().source("s", weather(), temp_schema())
                .filter("f", "s", "wind > 1")
                .sink("out", SinkKind::Console, &["f"])
                .build()
                .unwrap(),
        ),
        (
            "type error in condition",
            b().source("s", weather(), temp_schema())
                .filter("f", "s", "station > 5")
                .sink("out", SinkKind::Console, &["f"])
                .build()
                .unwrap(),
        ),
        (
            "non-boolean condition",
            b().source("s", weather(), temp_schema())
                .filter("f", "s", "temperature + 1")
                .sink("out", SinkKind::Console, &["f"])
                .build()
                .unwrap(),
        ),
        (
            "attribute lost after aggregation",
            b().source("s", weather(), temp_schema())
                .aggregate(
                    "g",
                    "s",
                    Duration::from_mins(1),
                    &[],
                    AggFunc::Avg,
                    Some("temperature"),
                )
                .filter("f", "g", "temperature > 1")
                .sink("out", SinkKind::Console, &["f"])
                .build()
                .unwrap(),
        ),
        (
            "gated source never activated",
            b().source("s", weather(), temp_schema())
                .gated_source("x", weather(), temp_schema())
                .filter("f", "x", "temperature > 0")
                .sink("out", SinkKind::Console, &["f"])
                .build()
                .unwrap(),
        ),
        (
            "trigger targets a non-source",
            b().source("s", weather(), temp_schema())
                .filter("f", "s", "temperature > 0")
                .trigger_on("t", "s", Duration::from_mins(1), "temperature > 25", &["f"])
                .sink("out", SinkKind::Console, &["f"])
                .build()
                .unwrap(),
        ),
        (
            "aggregate of a non-numeric attribute",
            b().source("s", weather(), temp_schema())
                .aggregate(
                    "g",
                    "s",
                    Duration::from_mins(1),
                    &[],
                    AggFunc::Sum,
                    Some("station"),
                )
                .sink("out", SinkKind::Console, &["g"])
                .build()
                .unwrap(),
        ),
        (
            "zero-period blocking operator",
            b().source("s", weather(), temp_schema())
                .aggregate("g", "s", Duration::ZERO, &[], AggFunc::Count, None)
                .sink("out", SinkKind::Console, &["g"])
                .build()
                .unwrap(),
        ),
        (
            "duplicate virtual property name",
            b().source("s", weather(), temp_schema())
                .virtual_property("v", "s", "temperature", "1 + 1")
                .sink("out", SinkKind::Console, &["v"])
                .build()
                .unwrap(),
        ),
    ]
}

fn fresh_session() -> StreamLoader {
    StreamLoader::new(
        Topology::nict_testbed(),
        EngineConfig::default(),
        Timestamp::from_civil(2016, 7, 1, 8, 0, 0),
    )
    .expect("default config is valid")
}

#[test]
fn every_valid_dataflow_deploys_and_runs() {
    for (i, mut df) in valid_corpus().into_iter().enumerate() {
        df.name = format!("valid-{i}");
        let mut session = fresh_session();
        session
            .check(&df)
            .unwrap_or_else(|e| panic!("valid-{i} failed validation: {e}"));
        session
            .deploy(df)
            .unwrap_or_else(|e| panic!("valid-{i} failed deployment: {e}"));
        session.run_for(Duration::from_mins(2));
        // Translation is available and reparses.
        let text = session.engine().dsn_text(&format!("valid-{i}")).unwrap();
        let doc = streamloader::dsn::parse_document(text)
            .unwrap_or_else(|e| panic!("valid-{i} DSN does not reparse: {e}\n{text}"));
        streamloader::dsn::compile(&doc)
            .unwrap_or_else(|e| panic!("valid-{i} reparsed DSN does not compile: {e}"));
    }
}

#[test]
fn every_invalid_dataflow_is_rejected_before_deployment() {
    for (label, df) in invalid_corpus() {
        let session = fresh_session();
        assert!(
            session.check(&df).is_err(),
            "`{label}` passed validation but should not"
        );
        let mut session = fresh_session();
        match session.deploy(df) {
            Err(EngineError::Dataflow(_)) => {}
            Err(other) => panic!("`{label}` rejected with the wrong error class: {other}"),
            Ok(()) => panic!("`{label}` deployed but should have been rejected"),
        }
        // Nothing was actuated.
        assert!(session.engine().deployment_names().is_empty());
        assert_eq!(
            session.engine().loads().len(),
            0,
            "`{label}` leaked processes"
        );
        assert_eq!(
            session.engine().broker().subscription_count(),
            0,
            "`{label}` leaked subscriptions"
        );
    }
}

#[test]
fn rejected_deployment_leaves_engine_usable() {
    let mut session = fresh_session();
    let (_, bad) = invalid_corpus().remove(0);
    assert!(session.deploy(bad).is_err());
    // A valid flow still deploys afterwards.
    let good = DataflowBuilder::new("good")
        .source("s", weather(), temp_schema())
        .sink("out", SinkKind::Console, &["s"])
        .build()
        .unwrap();
    session.deploy(good).unwrap();
    assert_eq!(session.engine().deployment_names(), vec!["good"]);
}

#[test]
fn multiple_deployments_coexist() {
    let mut session = fresh_session();
    for (i, mut df) in valid_corpus().into_iter().take(3).enumerate() {
        df.name = format!("multi-{i}");
        session.deploy(df).unwrap();
    }
    assert_eq!(session.engine().deployment_names().len(), 3);
    session.run_for(Duration::from_mins(1));
    session.engine_mut().undeploy("multi-1").unwrap();
    assert_eq!(session.engine().deployment_names().len(), 2);
    session.run_for(Duration::from_mins(1));
}
