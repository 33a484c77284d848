//! The logical optimiser must be invisible at the sink: deploying the
//! optimised dataflow on the engine delivers exactly the same tuples to the
//! sink as the original, while touching the network less (the rewritten
//! filter drops tuples before the transform hop).

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use streamloader::dataflow::{optimize, DataflowBuilder};
use streamloader::dsn::SinkKind;
use streamloader::engine::{Engine, EngineConfig};
use streamloader::netsim::{NodeId, Topology};
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::physical::TemperatureSensor;
use streamloader::stt::{AttrType, Duration, Field, Schema, SchemaRef, SensorId, Theme, Timestamp};

fn temp_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("humidity", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .unwrap()
    .into_ref()
}

fn rewriteable_flow() -> streamloader::dataflow::Dataflow {
    DataflowBuilder::new("opt")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            temp_schema(),
        )
        // Virtual property ahead of two fusable filters on raw attributes:
        // both rewrites apply.
        .virtual_property(
            "enrich",
            "temp",
            "apparent",
            "apparent_temperature(temperature, humidity)",
        )
        .filter("warm", "enrich", "temperature > 24")
        .filter("humid", "warm", "humidity > 40")
        .sink("out", SinkKind::Visualization, &["humid"])
        .build()
        .unwrap()
}

fn run(df: streamloader::dataflow::Dataflow) -> (u64, u64, u64) {
    let mut engine = Engine::new(
        Topology::nict_testbed(),
        EngineConfig::default(),
        Timestamp::from_civil(2016, 7, 1, 8, 0, 0),
    );
    for i in 0..4u64 {
        engine
            .add_sensor(Box::new(TemperatureSensor::new(
                SensorId(i),
                &format!("t{i}"),
                streamloader::stt::GeoPoint::new_unchecked(34.7, 135.5),
                NodeId(3 + i as u32),
                Duration::from_secs(2),
                false,
                true, // with humidity
                i,
            )))
            .unwrap();
    }
    engine.deploy(df).unwrap();
    engine.run_for(Duration::from_mins(20));
    let sink = engine.monitor().sink_count("opt", "out");
    // Tuples the virtual-property operator had to process.
    let vprop_in = engine.monitor().op("opt", "enrich").unwrap().tuples_in();
    (sink, vprop_in, engine.net_stats().total_msgs())
}

#[test]
fn optimized_flow_delivers_identical_sink_stream_with_less_work() {
    let original = rewriteable_flow();
    let (optimized, rewrites) = optimize(&original).unwrap();
    assert!(
        rewrites.len() >= 2,
        "expected pull-ahead + fusion, got {rewrites:?}"
    );
    let (sink_a, vprop_a, _msgs_a) = run(original);
    let (sink_b, vprop_b, _msgs_b) = run(optimized);
    assert!(sink_a > 0, "workload must actually deliver tuples");
    assert_eq!(
        sink_a, sink_b,
        "optimisation must not change the sink stream"
    );
    assert!(
        vprop_b < vprop_a,
        "pulled-ahead filters must shield the transform: {vprop_b} !< {vprop_a}"
    );
}
