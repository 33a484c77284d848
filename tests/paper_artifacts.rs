//! The paper's artifacts, checked on every commit: Table 1, Figures 1–3,
//! the demo parts P1–P3 and the ablations A1–A3 (PAPER.md, EXPERIMENTS.md).
//!
//! Only what no other test asserts lives here. The rest is asserted where
//! it was first written:
//!
//! | artifact | asserted by |
//! |---|---|
//! | E1 / Table 1: blocking classes | `sl-ops` `spec.rs::blocking_classification_matches_table_1`; here [`table_1_operations_on_a_fixed_trace`] |
//! | E1 / Table 1: outputs of every operation | [`table_1_operations_on_a_fixed_trace`] |
//! | E2 / Figure 1: dataflow → DSN → SCN | `sl-dataflow` `translate.rs::translated_document_compiles_to_scn` (census linear in flow size), `scenario_end_to_end.rs::dsn_translation_round_trips_through_text` |
//! | E3 / Figure 2: trigger gates acquisition | `scenario_end_to_end.rs` (`heat_wave_fires_trigger_and_activates_acquisition`, `cold_day_never_activates`, `warehouse_only_has_post_activation_events`, `sliding_last_hour_reacts_faster_than_tumbling`) |
//! | E3 / Figure 2: threshold sweep | [`figure_2_threshold_sweep`] |
//! | E4 / Figure 3: migration off an overloaded node | `sl-engine` `engine.rs::migration_moves_processes_off_overloaded_nodes` |
//! | E4 / Figure 3: rates, node load, placement log under a hotspot | [`figure_3_monitor_under_a_hotspot`] |
//! | E5 / P1: design checks reject each inconsistency class | `deployment_soundness.rs` (seven classes) |
//! | E6 / P2: DSN round trip, index vs scan, roll-up | `translate.rs`, `sl-warehouse` `query.rs::query_agrees_with_scan` and `cube.rs::counts_are_conserved` |
//! | E7 / P3: binding tracks churn, conservation | `churn_and_reconfig.rs` (`churn_rebinding_tracks_fleet`, `conservation_under_churn_and_modification`) |
//! | E7 / P3: the flow survives a core-link failure | [`p3_flow_survives_a_core_link_failure`] |
//! | E8: fsync policies | `sl-durable` `log.rs::fsync_counts_follow_the_policy` |
//! | A1: validation passes | `deployment_soundness.rs`, `optimizer_engine_equivalence.rs` |
//! | A2: placement trade-off | [`a2_placement_trade_off`] |
//! | A3: hash join agrees with the nested loop | `sl-ops` `join.rs::hash_and_nested_agree` |
//!
//! Timings are not asserted: the benchmark under `benchmark/` measures
//! speed, and EXPERIMENTS.md keeps the last measured tables.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use streamloader::dataflow::{Dataflow, DataflowBuilder};
use streamloader::dsn::SinkKind;
use streamloader::engine::{Engine, EngineConfig, PlacementPolicy};
use streamloader::netsim::{LinkId, NodeId, NodeSpec, Topology};
use streamloader::ops::{AggFunc, OpContext, Operator};
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::physical::TemperatureSensor;
use streamloader::sensors::scenario::{osaka_area, osaka_fleet};
use streamloader::sensors::ScenarioConfig;
use streamloader::stt::{
    AttrType, BoundingBox, Duration, Field, GeoPoint, Schema, SchemaRef, SensorId, SttMeta, Theme,
    TimeInterval, Timestamp, Tuple, Unit, Value,
};

fn start() -> Timestamp {
    Timestamp::from_civil(2016, 7, 1, 8, 0, 0)
}

fn schema(fields: &[(&str, AttrType)]) -> SchemaRef {
    Schema::new(fields.iter().map(|(n, t)| Field::new(n, *t)).collect())
        .unwrap()
        .into_ref()
}

fn weather_schema() -> SchemaRef {
    schema(&[
        ("temperature", AttrType::Float),
        ("humidity", AttrType::Float),
        ("station", AttrType::Str),
        ("seq", AttrType::Int),
    ])
}

/// `n` seeded weather tuples, one per virtual second: temperatures uniform
/// in [10, 35), eight stations, positions around Osaka.
fn weather_trace(n: usize, seed: u64) -> Vec<Tuple> {
    let schema = weather_schema();
    let theme = Theme::new("weather/temperature").unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let values = vec![
                Value::Float(rng.gen_range(10.0..35.0)),
                Value::Float(rng.gen_range(20.0..95.0)),
                Value::Str(format!("st{}", i % 8)),
                Value::Int(i as i64),
            ];
            let at = GeoPoint::new_unchecked(
                34.5 + rng.gen::<f64>() * 0.8,
                135.3 + rng.gen::<f64>() * 0.8,
            );
            let meta = SttMeta::new(
                Timestamp::from_secs(i as i64),
                at,
                theme.clone(),
                SensorId(i as u64 % 16),
            );
            Tuple::new(schema.clone(), values, meta).unwrap()
        })
        .collect()
}

/// Drive `op` over `(port, tuple)` inputs, one per virtual second, ticking
/// a blocking operator every period as the engine does and once more after
/// the last input. Returns (tuples out, control actions out).
fn drive(op: &mut dyn Operator, inputs: &[(usize, Tuple)]) -> (usize, usize) {
    let mut ctx = OpContext::new(Timestamp::from_secs(0));
    let period = op.timer_period().unwrap_or(Duration::from_hours(24));
    let mut tick = ctx.now + period;
    for (port, t) in inputs {
        if t.meta.timestamp >= tick {
            ctx.now = tick;
            op.on_timer(tick, &mut ctx).unwrap();
            tick += period;
        }
        ctx.now = t.meta.timestamp;
        op.on_tuple(*port, t.clone(), &mut ctx).unwrap();
    }
    ctx.now = tick;
    op.on_timer(tick, &mut ctx).unwrap();
    (ctx.emitted().len(), ctx.controls().len())
}

#[test]
fn table_1_operations_on_a_fixed_trace() {
    let trace = weather_trace(2_000, 42);
    let (w, span) = (Duration::from_mins(10), Duration::from_mins(5));
    let t = Some("temperature");
    let middle = TimeInterval::new(Timestamp::from_secs(500), Timestamp::from_secs(1_500));
    let around_osaka = BoundingBox::from_corners(
        GeoPoint::new_unchecked(34.6, 135.4),
        GeoPoint::new_unchecked(35.0, 135.8),
    );
    let to_f = "convert_unit(temperature, 'celsius', 'fahrenheit')";
    let apparent = "apparent_temperature(temperature, humidity)";
    let hotter = "station = right_station and temperature > right_temperature";
    let table = DataflowBuilder::new("table-1")
        .source("s", SubscriptionFilter::any(), weather_schema())
        .filter("filter", "s", "temperature > 22.5")
        .transform("transform", "s", &[("temperature", to_f)])
        .virtual_property("vprop", "s", "apparent", apparent)
        .cull_time("cull_time", "s", middle, 3)
        .cull_space("cull_space", "s", around_osaka, 3)
        .aggregate("count", "s", w, &[], AggFunc::Count, None)
        .aggregate("avg", "s", w, &["station"], AggFunc::Avg, t)
        .aggregate("min", "s", w, &["station"], AggFunc::Min, t)
        .aggregate_sliding("slide", "s", w, span, &["station"], AggFunc::Avg, t)
        .trigger_on("on", "s", w, "temperature > 34.9", &["rain"])
        .trigger_off("off", "s", w, "temperature < 10.1", &["rain"])
        .join("join", "s", "s", w, hotter)
        .build()
        .unwrap();
    // (operation, blocking, tuples out, control actions out). The triggers
    // fire in 3 of the 4 windows; one that fired per tuple would fire on
    // every hot tuple.
    let pinned = [
        ("filter", false, 1005, 0),
        ("transform", false, 2000, 0),
        ("vprop", false, 2000, 0),
        ("cull_time", false, 1334, 0),
        ("cull_space", false, 1678, 0),
        ("count", true, 4, 0),
        ("avg", true, 32, 0),
        ("min", true, 32, 0),
        ("slide", true, 24, 0),
        ("on", true, 2000, 3),
        ("off", true, 2000, 3),
        ("join", true, 17_103, 0),
    ];
    assert_eq!(table.operators().count(), pinned.len());
    for (node, (name, blocking, tuples_out, controls_out)) in table.operators().zip(pinned) {
        assert_eq!(node.name, name);
        let spec = node.spec().unwrap();
        assert_eq!(spec.is_blocking(), blocking, "{name}: Table 1 class");
        let mut op = spec
            .instantiate(&vec![weather_schema(); spec.input_ports()])
            .unwrap();
        assert_eq!(op.is_blocking(), blocking, "{name}: operator class");
        // A join reads alternate runs of eight tuples on its two ports, so
        // every station shows on both; its equality makes it a hash join.
        let inputs: Vec<(usize, Tuple)> = (trace.iter().enumerate())
            .map(|(i, t)| (i / 8 % spec.input_ports(), t.clone()))
            .collect();
        let out = drive(op.as_mut(), &inputs);
        assert_eq!(out, (tuples_out, controls_out), "{name}");
    }
}

/// The Figure 2 flow with a tunable threshold: a Trigger-On starts the
/// gated rain, tweet and traffic sources after a hot hour, a Trigger-Off
/// stops them after a cool one.
fn figure_2_dataflow(threshold: f64) -> Dataflow {
    let theme = |t: &str| Theme::new(t).unwrap();
    let (hour, t) = (Duration::from_hours(1), Some("temperature"));
    let above = format!("avg_temperature > {threshold}");
    let not_above = format!("avg_temperature <= {threshold}");
    let gated = ["rain", "tweets", "traffic"];
    let loaded = ["torrential", "storm_tweets", "congested"];
    DataflowBuilder::new("osaka-hot-weather")
        .source(
            "temperature",
            SubscriptionFilter::any()
                .with_theme(theme("weather/temperature"))
                .with_area(osaka_area())
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
        .gated_source(
            "traffic",
            SubscriptionFilter::any().with_theme(theme("traffic")),
            schema(&[("congestion", AttrType::Float), ("road", AttrType::Str)]),
        )
        .aggregate("hourly_avg", "temperature", hour, &[], AggFunc::Avg, t)
        .trigger_on("hot_hour", "hourly_avg", hour, &above, &gated)
        .trigger_off("cool_hour", "hourly_avg", hour, &not_above, &gated)
        .filter("torrential", "rain", "torrential = true")
        .filter("storm_tweets", "tweets", "storm_related = true")
        .filter("congested", "traffic", "congestion > 0.6")
        .sink("edw", SinkKind::Warehouse, &loaded)
        .build()
        .unwrap()
}

/// One Figure 2 run of `hours` virtual hours: Trigger-On fires, the hour
/// after which the gated sources were first active, events in the EDW.
fn sweep_point(threshold: f64, hours: u64) -> (usize, Option<u64>, usize) {
    let fleet = osaka_fleet(&ScenarioConfig::default());
    let mut engine = Engine::new(fleet.topology, EngineConfig::default(), start());
    for sensor in fleet.sensors {
        engine.add_sensor(sensor).unwrap();
    }
    engine.deploy(figure_2_dataflow(threshold)).unwrap();
    let mut first_activation = None;
    for hour in 1..=hours {
        engine.run_until(start() + Duration::from_hours(hour));
        let active = engine.source_active("osaka-hot-weather", "rain") == Some(true);
        first_activation = first_activation.or(active.then_some(hour));
    }
    let controls = &engine.monitor().controls;
    let fires = controls.iter().filter(|c| c.action.is_activate()).count();
    (fires, first_activation, engine.warehouse().len())
}

#[test]
fn figure_2_threshold_sweep() {
    let sweep: Vec<_> = [25.0, 31.0, 35.0]
        .into_iter()
        .map(|threshold| sweep_point(threshold, 12))
        .collect();
    // A higher threshold fires less often, and no earlier.
    for pair in sweep.windows(2) {
        assert!(pair[1].0 < pair[0].0, "{sweep:?}");
        let first = |p: &(usize, Option<u64>, usize)| p.1.unwrap_or(u64::MAX);
        assert!(first(&pair[1]) >= first(&pair[0]), "{sweep:?}");
    }
    // 35 °C is above the day's peak: nothing is ever acquired.
    let pinned = [(11, Some(2), 22_321), (8, Some(4), 17_894), (0, None, 0)];
    assert_eq!(sweep, pinned);
}

/// Plug a temperature sensor emitting every `period_ms` into `node`.
fn plug(engine: &mut Engine, id: u64, node: NodeId, period_ms: u64) {
    let at = GeoPoint::new_unchecked(34.7, 135.5);
    let period = Duration::from_millis(period_ms);
    let sensor = TemperatureSensor::new(
        SensorId(id),
        &format!("t{id}"),
        at,
        node,
        period,
        false,
        false,
        id,
    );
    engine.add_sensor(Box::new(sensor)).unwrap();
}

/// A linear flow of `ops` filters and transforms over the plain
/// temperature sensors.
fn passthrough_dataflow(name: &str, ops: usize) -> Dataflow {
    let mut b = DataflowBuilder::new(name).source(
        "src",
        SubscriptionFilter::any().with_theme(Theme::new("weather").unwrap()),
        schema(&[("temperature", AttrType::Float), ("station", AttrType::Str)]),
    );
    let mut prev = "src".to_string();
    for i in 0..ops {
        let name = format!("f{i}");
        b = match i % 3 {
            0 => b.filter(&name, &prev, "temperature > 0"),
            1 => b.transform(&name, &prev, &[("temperature", "temperature * 1.0")]),
            _ => b.filter(&name, &prev, "temperature < 1000"),
        };
        prev = name;
    }
    b.sink("out", SinkKind::Visualization, &[&prev])
        .build()
        .unwrap()
}

/// Edge nodes `0..n`, each `(cpu, link latency in ms, link Mbit/s)`, around
/// one core node `n` of `core_cpu`.
fn star(edges: &[(f64, u64, u64)], core_cpu: f64) -> Topology {
    let mut topology = Topology::new();
    let ids: Vec<_> = (edges.iter().enumerate())
        .map(|(i, (cpu, ..))| topology.add_node(NodeSpec::edge(&format!("edge{i}"), *cpu)))
        .collect();
    let core = topology.add_node(NodeSpec::core("core", core_cpu));
    for (id, (_, ms, mbps)) in ids.into_iter().zip(edges) {
        let (latency, bandwidth) = (Duration::from_millis(*ms), mbps * 1_000_000);
        topology.add_link(id, core, latency, bandwidth).unwrap();
    }
    topology
}

/// The Figure 3 run: a weak edge (node 0), a mid edge and a strong core;
/// two slow sensors on the weak edge feed a filter and a transform placed
/// source-locally, and at 60 s twenty fast sensors plug into the same edge.
/// Returns the engine after three minutes and the weak edge's utilisation
/// at each monitor sample after the hotspot.
fn hotspot_run(migration_enabled: bool) -> (Engine, Vec<(Timestamp, f64)>) {
    let weak = NodeId(0);
    let topology = star(&[(120.0, 2, 50), (400.0, 2, 50)], 1_000_000.0);
    let config = EngineConfig {
        placement: PlacementPolicy::SourceLocal,
        migration_enabled,
        ..Default::default()
    };
    let mut engine = Engine::new(topology, config, start());
    let to_f = "convert_unit(temperature, 'celsius', 'fahrenheit')";
    let flow = DataflowBuilder::new("fig3")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            schema(&[("temperature", AttrType::Float), ("station", AttrType::Str)]),
        )
        .filter("hot", "temp", "temperature > 22")
        .transform("f2c", "hot", &[("temperature", to_f)])
        .sink("viz", SinkKind::Visualization, &["f2c"])
        .build()
        .unwrap();
    plug(&mut engine, 0, weak, 2000);
    plug(&mut engine, 1, weak, 2000);
    engine.deploy(flow).unwrap();
    assert_eq!(engine.node_of("fig3", "hot"), Some(weak));
    engine.run_until(hotspot());
    for i in 0..20 {
        plug(&mut engine, 100 + i, weak, 100);
    }
    let mut weak_util = Vec::new();
    for second in 61..=180 {
        engine.run_until(start() + Duration::from_secs(second));
        let util = engine.loads().utilization(engine.topology(), weak).unwrap();
        weak_util.push((engine.now(), util));
    }
    (engine, weak_util)
}

fn hotspot() -> Timestamp {
    start() + Duration::from_secs(60)
}

#[test]
fn figure_3_monitor_under_a_hotspot() {
    // Without migration the monitor shows the weak edge suffering.
    let (pinned, pinned_util) = hotspot_run(false);
    assert!(pinned_util.iter().all(|(_, u)| *u > 1.0), "{pinned_util:?}");
    assert!(pinned.monitor().placements.iter().all(|p| p.from.is_none()));

    let (engine, weak_util) = hotspot_run(true);
    // The per-operator rate series rises with the hotspot.
    let rates = &engine.monitor().op("fig3", "hot").unwrap().rate_series;
    let before = rates.mean_in(start(), hotspot()).unwrap();
    let after = rates.mean_in(hotspot(), engine.now()).unwrap();
    assert!(after > 5.0 * before, "rate {before} -> {after}");
    // The migration that relieves the edge is logged with both ends and
    // its reason, and from then on the edge is below capacity.
    let moved = engine
        .monitor()
        .placements
        .iter()
        .find(|p| p.at > hotspot())
        .expect("a placement change after the hotspot is logged");
    assert_eq!(moved.operator, "hot");
    assert_eq!(moved.from, Some(NodeId(0)));
    assert_ne!(moved.to, NodeId(0));
    assert!(moved.reason.contains("migration"), "{}", moved.reason);
    assert!(moved.at <= weak_util[0].0);
    assert!(weak_util.iter().all(|(_, u)| *u < 1.0), "{weak_util:?}");
}

/// Delivered tuples, network messages, peak node utilisation and
/// migrations of one A2 run.
#[derive(Debug)]
struct PlacementRun {
    delivered: u64,
    net_msgs: u64,
    peak_util: f64,
    migrations: usize,
}

fn placement_run(placement: PlacementPolicy, migration_enabled: bool) -> PlacementRun {
    // Two weak edges, a mid node and a strong core; every sensor crowds
    // edge 0, the adversarial case for SourceLocal.
    let topology = star(
        &[(150.0, 2, 50), (150.0, 2, 50), (2_000.0, 1, 100)],
        50_000.0,
    );
    let config = EngineConfig {
        placement,
        migration_enabled,
        ..Default::default()
    };
    let mut engine = Engine::new(topology, config, start());
    for i in 0..12 {
        plug(&mut engine, i, NodeId(0), 250);
    }
    engine.deploy(passthrough_dataflow("abl", 4)).unwrap();
    engine.run_for(Duration::from_mins(5));
    let peak_util = engine
        .topology()
        .node_ids()
        .map(|n| engine.loads().utilization(engine.topology(), n).unwrap())
        .fold(0.0, f64::max);
    let placements = &engine.monitor().placements;
    PlacementRun {
        delivered: engine.monitor().sink_count("abl", "out"),
        net_msgs: engine.net_stats().total_msgs(),
        peak_util,
        migrations: placements
            .iter()
            .filter(|p| p.reason.contains("migration"))
            .count(),
    }
}

#[test]
fn a2_placement_trade_off() {
    let local = placement_run(PlacementPolicy::SourceLocal, false);
    let migrated = placement_run(PlacementPolicy::SourceLocal, true);
    let balanced = placement_run(PlacementPolicy::LeastLoaded, false);
    // Source-local placement sends the fewest messages but overloads the
    // edge; migration sheds the overload; least-loaded never overloads.
    assert!(local.net_msgs < balanced.net_msgs && local.net_msgs < migrated.net_msgs);
    assert!(local.peak_util > 1.0 && local.migrations == 0);
    assert!(migrated.peak_util < 1.0 && migrated.migrations >= 1);
    assert!(balanced.peak_util <= 1.0 && balanced.migrations == 0);
    // None of it costs a tuple.
    assert_eq!(local.delivered, migrated.delivered);
    assert_eq!(local.delivered, balanced.delivered);
    assert_eq!(local.delivered, 14_388);
    let msgs = [local.net_msgs, migrated.net_msgs, balanced.net_msgs];
    assert_eq!(msgs, [28_776, 114_792, 71_940]);
}

#[test]
fn p3_flow_survives_a_core_link_failure() {
    let topology = Topology::nict_testbed();
    let edges = topology.edge_nodes();
    let mut engine = Engine::new(topology.clone(), EngineConfig::default(), start());
    engine.deploy(passthrough_dataflow("p3", 3)).unwrap();
    for (i, node) in edges.into_iter().enumerate() {
        plug(&mut engine, i as u64, node, 1000);
    }
    let into_f0 = |engine: &Engine| engine.monitor().op("p3", "f0").unwrap().tuples_in();
    engine.run_for(Duration::from_secs(60));
    let before = into_f0(&engine);
    // Link 0 joins the Osaka and Kyoto cores; the ring detours around it.
    engine.set_link_up(LinkId(0), false).unwrap();
    engine.run_for(Duration::from_secs(60));
    let during = into_f0(&engine);
    engine.set_link_up(LinkId(0), true).unwrap();
    engine.run_for(Duration::from_secs(60));
    let after = into_f0(&engine);
    assert!(before > 0);
    assert!(during > before, "{before} -> {during}");
    assert!(after > during, "{during} -> {after}");
}
