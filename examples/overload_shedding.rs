//! Overload control on a live dataflow: twelve aligned sensors flood a
//! single filter through an 8-deep bounded ingress queue, bursting to 3×
//! their advertised rate mid-run. The same saturation is replayed twice —
//! once under `ShedOldest` (surplus is dropped *visibly*, every tuple
//! accounted in the dead-letter queue) and once under `Block` (surplus is
//! never generated: the broker revokes sensor credits until the queue
//! drains, and the DLQ stays empty).
//!
//! ```sh
//! cargo run --example overload_shedding
//! ```

#![allow(clippy::unwrap_used, clippy::expect_used)] // examples may panic freely

use streamloader::dataflow::DataflowBuilder;
use streamloader::dsn::SinkKind;
use streamloader::engine::{EngineConfig, OverflowPolicy};
use streamloader::faults::FaultPlan;
use streamloader::netsim::{NodeSpec, Topology};
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::physical::TemperatureSensor;
use streamloader::stt::{AttrType, Duration, Field, GeoPoint, Schema, SensorId, Theme, Timestamp};
use streamloader::StreamLoader;

const SENSORS: u64 = 12;
const QUEUE_CAP: usize = 8;

/// One run under the given overflow policy: build the fleet, install a
/// 3× burst across every sensor, run a minute, and report what happened
/// to the surplus.
fn saturate(policy: OverflowPolicy) -> StreamLoader {
    let mut t = Topology::new();
    let edge = t.add_node(NodeSpec::edge("sensor-host", 10.0));
    let hub_b = t.add_node(NodeSpec::core("hub-b", 100_000.0));
    let hub_c = t.add_node(NodeSpec::core("hub-c", 90_000.0));
    t.add_link(edge, hub_b, Duration::from_millis(1), 10_000_000)
        .unwrap();
    t.add_link(edge, hub_c, Duration::from_millis(1), 10_000_000)
        .unwrap();
    t.add_link(hub_b, hub_c, Duration::from_millis(1), 10_000_000)
        .unwrap();

    // The whole overload layer hangs off `EngineConfig::overload`; with
    // `queue_capacity: None` (the default) it is entirely inert.
    let mut config = EngineConfig {
        migration_enabled: false,
        ..Default::default()
    };
    config.overload.queue_capacity = Some(QUEUE_CAP);
    config.overload.policy = policy;

    let start = Timestamp::from_civil(2016, 7, 1, 12, 0, 0);
    let mut session = StreamLoader::new(t, config, start).expect("config is valid");
    for id in 1..=SENSORS {
        session
            .add_sensor(Box::new(TemperatureSensor::new(
                SensorId(id),
                &format!("osaka-temp-{id}"),
                GeoPoint::new_unchecked(34.70, 135.50),
                edge,
                Duration::from_secs(1),
                false,
                false,
                id,
            )))
            .unwrap();
    }

    let schema = Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .unwrap()
    .into_ref();
    let dataflow = DataflowBuilder::new("flood")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            schema,
        )
        .filter("all", "temp", "temperature > -100")
        .sink("edw", SinkKind::Warehouse, &["all"])
        .build()
        .unwrap();
    session.deploy(dataflow).unwrap();

    // Every sensor triples its rate between t+10s and t+40s: 36 tuples/s
    // against an 8-deep queue refilled once per tick.
    let mut plan = FaultPlan::new();
    for id in 1..=SENSORS {
        plan = plan.burst(id, Duration::from_secs(10), Duration::from_secs(30), 3);
    }
    session.install_fault_plan(&plan);
    session.run_for(Duration::from_secs(60));
    session
}

fn report(label: &str, session: &StreamLoader) {
    let snap = session.engine().metrics_snapshot();
    println!("--- {label} ---");
    println!(
        "  warehouse received : {}",
        session.engine().monitor().sink_count("flood", "edw")
    );
    println!("  dead letters       : {}", session.dlq().total());
    for (reason, n) in session.dlq().by_reason() {
        println!("    {reason}: {n}");
    }
    println!(
        "  throttle events    : {}",
        snap.counters
            .get("engine/backpressure/throttled")
            .copied()
            .unwrap_or(0)
    );
    let pressure = &session.engine().monitor().pressure;
    if !pressure.is_empty() {
        println!("  pressure log (first 4 of {}):", pressure.len());
        for line in pressure.iter().take(4) {
            println!("    {line}");
        }
    }
    println!();
}

fn main() {
    println!("{SENSORS} aligned 1 Hz sensors, queue bound {QUEUE_CAP}, 3x burst at 10..40 s\n");

    // Fate #1 for the surplus: shed it, visibly. The queue never exceeds
    // its bound and every dropped tuple is in the DLQ under
    // `DropReason::Shed` — the warehouse shortfall is exactly accounted.
    let shed = saturate(OverflowPolicy::ShedOldest);
    report("ShedOldest: drop the stalest, account every loss", &shed);

    // Fate #2: never generate it. Credit revocation pauses the sensors at
    // their sampling instants, so the DLQ stays empty — the "missing"
    // volume was simply never produced.
    let block = saturate(OverflowPolicy::Block);
    report("Block: revoke sensor credits, lose nothing", &block);

    let shed_count = shed.dlq().total();
    assert!(shed_count > 0, "the burst must overflow the bound");
    assert_eq!(block.dlq().total(), 0, "Block must not shed");
    println!(
        "same burst, two fates: ShedOldest dead-lettered {shed_count} tuples; \
         Block dead-lettered none"
    );
}
