//! E4 — Figure 3 reproduction: the live monitoring view. Produces the
//! per-operator tuples/sec series, node workload and placement-change
//! timeline under an induced hotspot, plus the monitoring-overhead
//! measurement.
//!
//! ```sh
//! cargo run --release -p sl-bench --bin exp_fig3_monitor
//! ```

use sl_bench::print_table;
use sl_dataflow::DataflowBuilder;
use sl_dsn::SinkKind;
use sl_engine::{Engine, EngineConfig, PlacementPolicy};
use sl_netsim::{NodeSpec, Topology};
use sl_pubsub::SubscriptionFilter;
use sl_sensors::physical::TemperatureSensor;
use sl_stt::{AttrType, Duration, Field, GeoPoint, Schema, SensorId, Theme, Timestamp};
use std::time::Instant;

fn start() -> Timestamp {
    Timestamp::from_civil(2016, 7, 1, 8, 0, 0)
}

/// Three nodes: a weak edge (hotspot), a mid node, a strong core.
fn hotspot_topology() -> Topology {
    let mut t = Topology::new();
    let weak = t.add_node(NodeSpec::edge("weak-edge", 120.0));
    let mid = t.add_node(NodeSpec::edge("mid-edge", 400.0));
    let core = t.add_node(NodeSpec::core("core", 1_000_000.0));
    t.add_link(weak, core, Duration::from_millis(2), 50_000_000)
        .unwrap();
    t.add_link(mid, core, Duration::from_millis(2), 50_000_000)
        .unwrap();
    t
}

fn sensor(id: u64, node: u32, period_ms: u64) -> Box<TemperatureSensor> {
    Box::new(TemperatureSensor::new(
        SensorId(id),
        &format!("t{id}"),
        GeoPoint::new_unchecked(34.7, 135.5),
        sl_netsim::NodeId(node),
        Duration::from_millis(period_ms),
        false,
        false,
        id,
    ))
}

fn main() {
    let config = EngineConfig {
        placement: PlacementPolicy::SourceLocal,
        ..Default::default()
    };
    let mut engine = Engine::new(hotspot_topology(), config, start());

    let schema = Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .unwrap()
    .into_ref();
    let df = DataflowBuilder::new("fig3")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            schema,
        )
        .filter("hot", "temp", "temperature > 22")
        .transform(
            "f2c",
            "hot",
            &[(
                "temperature",
                "convert_unit(temperature, 'celsius', 'fahrenheit')",
            )],
        )
        .sink("viz", SinkKind::Visualization, &["f2c"])
        .build()
        .unwrap();

    // Two slow seed sensors on the weak node.
    engine.add_sensor(sensor(0, 0, 2000)).unwrap();
    engine.add_sensor(sensor(1, 0, 2000)).unwrap();
    engine.deploy(df).unwrap();

    // Timeline: sample every 10 s of virtual time; at t=60 s induce a
    // hotspot by plugging 20 fast sensors into the weak node.
    let mut rows = Vec::new();
    for step in 0..18 {
        if step == 6 {
            for i in 0..20u64 {
                engine.add_sensor(sensor(100 + i, 0, 100)).unwrap();
            }
        }
        engine.run_for(Duration::from_secs(10));
        let m = engine.monitor();
        let rate = |op: &str| {
            m.op("fig3", op)
                .and_then(|c| c.rate_series.last())
                .map_or(0.0, |(_, r)| r)
        };
        let util = |n: u32| {
            engine
                .loads()
                .utilization(engine.topology(), sl_netsim::NodeId(n))
                .unwrap_or(0.0)
        };
        rows.push(vec![
            format!("{}", (step + 1) * 10),
            format!("{:.1}", rate("hot")),
            format!("{:.1}", rate("f2c")),
            format!("{:.2}", util(0)),
            format!("{:.2}", util(1)),
            engine
                .node_of("fig3", "hot")
                .map_or("-".into(), |n| n.to_string()),
            engine
                .node_of("fig3", "f2c")
                .map_or("-".into(), |n| n.to_string()),
        ]);
    }
    print_table(
        "E4 / Figure 3 — per-operator rate, node workload and assignments (hotspot at t=60s)",
        &[
            "t [s]",
            "hot [tuples/s]",
            "f2c [tuples/s]",
            "util node#0",
            "util node#1",
            "hot on",
            "f2c on",
        ],
        &rows,
    );

    println!("\nplacement changes:");
    for p in &engine.monitor().placements {
        let from = p.from.map_or("-".to_string(), |n| n.to_string());
        println!(
            "  [{}] {}/{}: {} -> {} ({})",
            p.at, p.deployment, p.operator, from, p.to, p.reason
        );
    }

    // --- observability dashboard ------------------------------------------
    // The sl-obs snapshot: per-operator processing-latency percentiles,
    // end-to-end latency, and the event-queue depth gauge.
    let snap = engine.metrics_snapshot();
    let rows: Vec<Vec<String>> = snap
        .hists
        .iter()
        .filter(|(name, _)| name.starts_with("op/") && name.ends_with("/proc_us"))
        .map(|(name, h)| {
            vec![
                name.trim_start_matches("op/")
                    .trim_end_matches("/proc_us")
                    .to_string(),
                h.count.to_string(),
                h.p50.to_string(),
                h.p95.to_string(),
                h.p99.to_string(),
                h.max.to_string(),
            ]
        })
        .collect();
    print_table(
        "E4 — per-operator processing latency (host wall-clock, sl-obs histograms)",
        &[
            "operator", "tuples", "p50 [us]", "p95 [us]", "p99 [us]", "max [us]",
        ],
        &rows,
    );
    println!(
        "\nevent queue depth (last monitor sample): {}",
        snap.gauges
            .get("engine/event_queue_depth")
            .copied()
            .unwrap_or(0)
    );

    // --- monitoring overhead ----------------------------------------------
    let mut rows = Vec::new();
    for period_ms in [100u64, 1000, 10_000, 60_000] {
        let config = EngineConfig {
            monitor_period: Duration::from_millis(period_ms),
            migration_enabled: false,
            ..Default::default()
        };
        let mut engine = Engine::new(Topology::nict_testbed(), config, start());
        for i in 0..6u64 {
            engine.add_sensor(sensor(i, 3 + i as u32, 500)).unwrap();
        }
        engine
            .deploy(sl_bench::passthrough_dataflow("ovh", 5))
            .unwrap();
        let wall = Instant::now();
        engine.run_for(Duration::from_mins(10));
        let elapsed = wall.elapsed();
        rows.push(vec![
            format!("{period_ms}"),
            format!("{:.3}", elapsed.as_secs_f64()),
            engine.monitor().all_ops().count().to_string(),
        ]);
    }
    print_table(
        "E4 — monitoring overhead: wall time for 10 min virtual vs sampling period",
        &["monitor period [ms]", "wall time [s]", "tracked operators"],
        &rows,
    );
}
