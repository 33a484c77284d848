//! Demo P3 as tests: sensor churn against running dataflows, on-the-fly
//! operator modification, and accounting conservation under all of it.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use streamloader::dataflow::DataflowBuilder;
use streamloader::dsn::SinkKind;
use streamloader::engine::EngineConfig;
use streamloader::netsim::{NodeId, Topology};
use streamloader::ops::OpSpec;
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::physical::TemperatureSensor;
use streamloader::sensors::SensorSim;
use streamloader::stt::{
    AttrType, Duration, Field, GeoPoint, Schema, SchemaRef, SensorId, Theme, Timestamp,
};
use streamloader::StreamLoader;

fn temp_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .unwrap()
    .into_ref()
}

fn sensor(id: u64, node: u32, period_ms: u64) -> Box<dyn SensorSim> {
    Box::new(TemperatureSensor::new(
        SensorId(id),
        &format!("churn-temp-{id}"),
        GeoPoint::new_unchecked(34.70, 135.50),
        NodeId(node),
        Duration::from_millis(period_ms),
        false,
        false,
        id,
    ))
}

fn session() -> StreamLoader {
    StreamLoader::new(
        Topology::nict_testbed(),
        EngineConfig::default(),
        Timestamp::from_civil(2016, 7, 1, 8, 0, 0),
    )
    .expect("default config is valid")
}

fn passthrough_flow(name: &str) -> streamloader::dataflow::Dataflow {
    DataflowBuilder::new(name)
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            temp_schema(),
        )
        .filter("keep", "temp", "temperature > -100")
        .sink("out", SinkKind::Visualization, &["keep"])
        .build()
        .unwrap()
}

#[test]
fn churn_rebinding_tracks_fleet() {
    let mut s = session();
    s.deploy(passthrough_flow("churn")).unwrap();
    // Join/leave every virtual 10 s.
    let mut next_id = 0u64;
    let mut live: Vec<SensorId> = Vec::new();
    for round in 0..30 {
        if round % 2 == 0 || live.is_empty() {
            let id = s
                .add_sensor(sensor(next_id, 3 + (next_id % 9) as u32, 1000))
                .unwrap();
            live.push(id);
            next_id += 1;
        } else {
            let id = live.remove(0);
            s.remove_sensor(id).unwrap();
        }
        assert_eq!(
            s.engine().bound_sensors("churn", "temp").len(),
            live.len(),
            "binding must track membership at round {round}"
        );
        s.run_for(Duration::from_secs(10));
    }
    // Data flowed throughout.
    let c = s.engine().monitor().op("churn", "keep").unwrap();
    assert!(c.tuples_in() > 100, "in {}", c.tuples_in());
    // Membership log recorded every change.
    let joins = s
        .engine()
        .monitor()
        .membership
        .iter()
        .filter(|l| l.contains("joined"))
        .count();
    let leaves = s
        .engine()
        .monitor()
        .membership
        .iter()
        .filter(|l| l.contains("left"))
        .count();
    assert_eq!(joins, next_id as usize);
    assert_eq!(leaves, next_id as usize - live.len());
}

#[test]
fn conservation_under_churn_and_modification() {
    let mut s = session();
    s.deploy(passthrough_flow("acc")).unwrap();
    for i in 0..4 {
        s.add_sensor(sensor(i, 3 + i as u32, 500)).unwrap();
    }
    s.run_for(Duration::from_mins(1));
    s.engine_mut()
        .replace_operator(
            "acc",
            "keep",
            OpSpec::Filter {
                condition: "temperature > 22".into(),
            },
        )
        .unwrap();
    s.remove_sensor(SensorId(0)).unwrap();
    s.add_sensor(sensor(100, 5, 250)).unwrap();
    s.run_for(Duration::from_mins(2));
    let c = s.engine().monitor().op("acc", "keep").unwrap();
    assert!(c.tuples_in() > 0);
    assert_eq!(
        c.tuples_in(),
        c.tuples_out() + c.dropped(),
        "filter must account for every tuple across churn and replacement"
    );
    // Sink receives exactly what the filter emitted (visualization sink).
    assert_eq!(
        s.engine().monitor().sink_count("acc", "out"),
        c.tuples_out()
    );
}

#[test]
fn replacement_sensor_takes_over() {
    // A sensor leaves; the registry proposes replacements; binding a new
    // equivalent sensor resumes the stream.
    let mut s = session();
    s.deploy(passthrough_flow("swap")).unwrap();
    let first = s.add_sensor(sensor(1, 3, 1000)).unwrap();
    s.run_for(Duration::from_secs(30));
    let before = s.engine().monitor().op("swap", "keep").unwrap().tuples_in();
    assert!(before > 0);
    // Candidate replacements are discoverable while both exist.
    s.add_sensor(sensor(2, 4, 1000)).unwrap();
    let departed = s.engine().broker().registry().get(first).unwrap().clone();
    let reps = s.engine().broker().registry().replacements_for(&departed);
    assert!(reps.iter().any(|r| r.id == SensorId(2)));
    s.remove_sensor(first).unwrap();
    s.run_for(Duration::from_secs(30));
    let after = s.engine().monitor().op("swap", "keep").unwrap().tuples_in();
    assert!(after > before, "replacement sensor keeps the stream alive");
}

#[test]
fn blocking_operator_replacement_keeps_ticking() {
    let mut s = session();
    let df = DataflowBuilder::new("blk")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            temp_schema(),
        )
        .aggregate(
            "agg",
            "temp",
            Duration::from_secs(10),
            &[],
            streamloader::ops::AggFunc::Count,
            None,
        )
        .sink("out", SinkKind::Visualization, &["agg"])
        .build()
        .unwrap();
    s.deploy(df).unwrap();
    s.add_sensor(sensor(1, 3, 1000)).unwrap();
    s.run_for(Duration::from_secs(35));
    let out_before = s.engine().monitor().op("blk", "agg").unwrap().tuples_out();
    assert!(out_before >= 2);
    // Replace with a different window length.
    s.engine_mut()
        .replace_operator(
            "blk",
            "agg",
            OpSpec::Aggregate {
                period: Duration::from_secs(5),
                group_by: vec![],
                func: streamloader::ops::AggFunc::Count,
                attr: None,
                sliding: None,
            },
        )
        .unwrap();
    s.run_for(Duration::from_secs(30));
    let out_after = s.engine().monitor().op("blk", "agg").unwrap().tuples_out();
    assert!(
        out_after > out_before,
        "aggregation keeps producing after replacement"
    );
}

#[test]
fn undeploy_mid_run_stops_cleanly() {
    let mut s = session();
    s.deploy(passthrough_flow("gone")).unwrap();
    s.add_sensor(sensor(1, 3, 500)).unwrap();
    s.run_for(Duration::from_secs(20));
    let seen = s.engine().monitor().op("gone", "keep").unwrap().tuples_in();
    assert!(seen > 0);
    s.engine_mut().undeploy("gone").unwrap();
    s.run_for(Duration::from_mins(2)); // sensor keeps emitting into the void
    let after = s.engine().monitor().op("gone", "keep").unwrap().tuples_in();
    assert!(after <= seen + 2, "tuples must stop flowing after undeploy");
    assert_eq!(s.engine().loads().len(), 0);
}
