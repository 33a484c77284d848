//! Sequential-vs-parallel equivalence: the sharded execution layer must be
//! an *optimisation*, never a semantic change. For the same topology,
//! sensors, fault plan and seed, a parallel run must reproduce the
//! sequential run exactly — warehouse contents, sink counts, DLQ taxonomy,
//! per-operator counters, and the recovery log (`DESIGN.md` §5f).

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use sl_dataflow::DataflowBuilder;
use sl_dsn::SinkKind;
use sl_engine::shard::ShardKey;
use sl_engine::{Engine, EngineConfig, OverflowPolicy};
use sl_faults::FaultPlan;
use sl_netsim::{NodeId, NodeSpec, Topology};
use sl_pubsub::SubscriptionFilter;
use sl_sensors::physical::TemperatureSensor;
use sl_stt::{AttrType, Duration, Field, GeoPoint, Schema, SchemaRef, SensorId, Theme, Timestamp};

fn start() -> Timestamp {
    Timestamp::from_civil(2016, 7, 1, 12, 0, 0)
}

fn temp_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .unwrap()
    .into_ref()
}

/// A pipeline mixing shardable stages (transform, virtual property, filter)
/// with a blocking aggregation, feeding both warehouse and console sinks.
fn mixed_flow(name: &str) -> sl_dataflow::Dataflow {
    DataflowBuilder::new(name)
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            temp_schema(),
        )
        .transform("to_f", "temp", &[("temperature", "temperature * 1.8 + 32")])
        .virtual_property("flag", "to_f", "hot", "temperature > 80")
        .filter("keep", "flag", "temperature > -100")
        .aggregate(
            "avg",
            "keep",
            Duration::from_secs(20),
            &[],
            sl_ops::AggFunc::Avg,
            Some("temperature"),
        )
        .sink("edw", SinkKind::Warehouse, &["avg"])
        .sink("out", SinkKind::Console, &["keep"])
        .build()
        .unwrap()
}

/// Several sensors sharing one period (their emissions collide in virtual
/// time, producing real multi-tuple batches), spread over scattered
/// positions so the spatial shard key actually partitions them.
fn build(seed: u64, parallelism: usize, shard_key: ShardKey) -> Engine {
    let mut t = Topology::new();
    let edge = t.add_node(NodeSpec::edge("edge", 50.0));
    let hub = t.add_node(NodeSpec::edge("hub", 1_000_000.0));
    let spare = t.add_node(NodeSpec::edge("spare", 900_000.0));
    t.add_link(edge, hub, Duration::from_millis(1), 10_000_000)
        .unwrap();
    t.add_link(edge, spare, Duration::from_millis(2), 10_000_000)
        .unwrap();
    t.add_link(hub, spare, Duration::from_millis(1), 10_000_000)
        .unwrap();
    let cfg = EngineConfig {
        migration_enabled: false,
        seed,
        parallelism,
        shard_key,
        ..Default::default()
    };
    let mut e = Engine::new(t, cfg, start());
    for i in 0..6u64 {
        e.add_sensor(Box::new(TemperatureSensor::new(
            SensorId(i),
            &format!("t{i}"),
            GeoPoint::new_unchecked(34.0 + i as f64 * 0.3, 135.0 + i as f64 * 0.2),
            edge,
            Duration::from_secs(2),
            false,
            false,
            seed.wrapping_add(i),
        )))
        .unwrap();
    }
    e.deploy(mixed_flow("p")).unwrap();
    e
}

fn chaos(victim: NodeId) -> FaultPlan {
    FaultPlan::new()
        .sensor_stall(2, Duration::from_secs(10), Duration::from_secs(15))
        .corrupt_window(4, Duration::from_secs(20), Duration::from_secs(8))
        .node_crash(victim.0, Duration::from_secs(35))
        .node_restart(victim.0, Duration::from_secs(55))
}

/// Everything observable about a finished run, for whole-value comparison.
#[derive(Debug, PartialEq)]
struct RunDigest {
    warehouse: Vec<sl_stt::Event>,
    edw: u64,
    console_sink: u64,
    dlq: Vec<(sl_faults::DropReason, u64)>,
    ops: Vec<(String, String, u64, u64, u64)>,
    recovery: Vec<String>,
}

fn digest(e: &Engine) -> RunDigest {
    RunDigest {
        warehouse: e.warehouse().iter().cloned().collect(),
        edw: e.monitor().sink_count("p", "edw"),
        console_sink: e.monitor().sink_count("p", "out"),
        dlq: e.dlq().by_reason().collect(),
        ops: e
            .monitor()
            .all_ops()
            .map(|((d, o), c)| {
                (
                    d.clone(),
                    o.clone(),
                    c.tuples_in(),
                    c.tuples_out(),
                    c.dropped(),
                )
            })
            .collect(),
        recovery: e.monitor().recovery.to_vec(),
    }
}

fn run(seed: u64, parallelism: usize, shard_key: ShardKey, with_faults: bool) -> RunDigest {
    let mut e = build(seed, parallelism, shard_key);
    if with_faults {
        let victim = e.node_of("p", "avg").expect("aggregate placed");
        e.install_fault_plan(&chaos(victim));
    }
    e.run_for(Duration::from_secs(90));
    digest(&e)
}

#[test]
fn parallel_matches_sequential_fault_free() {
    for seed in [1u64, 7, 42] {
        let seq = run(seed, 1, ShardKey::Space, false);
        assert!(seq.edw > 0, "seed {seed}: baseline must produce");
        assert!(seq.console_sink > 50, "seed {seed}: batches must flow");
        for workers in [2usize, 3] {
            let par = run(seed, workers, ShardKey::Space, false);
            assert_eq!(seq, par, "seed {seed}, {workers} workers");
        }
    }
}

#[test]
fn parallel_matches_sequential_under_chaos() {
    // Same FaultPlan, same seed ⇒ identical warehouse contents, DLQ
    // taxonomy, operator counters and recovery log — whatever the worker
    // count.
    for seed in [7u64, 99] {
        let seq = run(seed, 1, ShardKey::Space, true);
        assert!(
            seq.dlq.iter().any(|(_, n)| *n > 0),
            "seed {seed}: chaos must dead-letter something"
        );
        let par = run(seed, 3, ShardKey::Space, true);
        assert_eq!(seq, par, "seed {seed}");
    }
}

#[test]
fn every_shard_key_is_output_equivalent() {
    let seq = run(7, 1, ShardKey::Space, false);
    for key in [ShardKey::Space, ShardKey::Sensor, ShardKey::RoundRobin] {
        let par = run(7, 4, key, false);
        assert_eq!(seq, par, "{key:?}");
    }
}

#[test]
fn parallel_run_reports_shard_activity() {
    let mut e = build(7, 3, ShardKey::Space);
    e.run_for(Duration::from_secs(60));
    assert!(
        !e.monitor().shards.is_empty(),
        "parallel run must attribute work to shards"
    );
    let batched: u64 = e.monitor().shards.values().map(|s| s.tuples).sum();
    assert!(batched > 0);
    let snap = e.metrics_snapshot();
    assert!(snap.counters["engine/shard/batches"] > 0);
    assert_eq!(snap.counters["engine/shard/batched_tuples"], batched);
    let report = e.monitor().report(e.now());
    assert!(report.contains("execution shards"), "{report}");
    assert!(report.contains("depth="), "{report}");
}

#[test]
fn set_parallelism_mid_run_keeps_equivalence() {
    // Flip to parallel halfway through; totals still match the sequential
    // run because each regime is individually equivalent.
    let seq = run(7, 1, ShardKey::Space, false);
    let mut e = build(7, 1, ShardKey::Space);
    e.run_for(Duration::from_secs(45));
    e.set_parallelism(3);
    assert_eq!(e.parallelism(), 3);
    e.run_for(Duration::from_secs(45));
    assert_eq!(seq, digest(&e));
}

#[test]
fn replace_operator_mid_run_keeps_equivalence() {
    // The first half runs `keep` as pass-all — under parallelism 2 on shard
    // replicas, which the replacement must not inherit: a replica of the
    // old filter would keep passing tuples the new one blocks.
    let replaced = |parallelism: usize| {
        let mut e = build(7, parallelism, ShardKey::Space);
        e.run_for(Duration::from_secs(45));
        let keep = e.monitor().op("p", "keep").expect("keep ran");
        assert_eq!(keep.dropped(), 0, "pass-all so far");
        let passed = keep.tuples_out();
        e.replace_operator(
            "p",
            "keep",
            sl_ops::OpSpec::Filter {
                condition: "temperature > 1000".into(),
            },
        )
        .unwrap();
        e.run_for(Duration::from_secs(45));
        (passed, digest(&e))
    };
    let (passed, seq) = replaced(1);
    let (passed_par, par) = replaced(2);
    assert_eq!(passed, passed_par);
    assert_eq!(seq, par);
    // Nothing passes the new predicate: the console sink holds exactly what
    // the old filter had let through, and the rest was dropped.
    assert!(passed > 50, "batches must flow before the swap");
    assert_eq!(par.console_sink, passed);
    let keep = par.ops.iter().find(|op| op.1 == "keep").expect("keep ran");
    assert_eq!((keep.3, keep.4), (passed, keep.2 - passed));
    assert!(keep.4 > 50, "the replacement filtered the second half");
}

/// The overload geometry of `overload.rs`: 12 aligned 1 s sensors on a weak
/// host, a pass-all filter into the warehouse behind an 8-deep ingress
/// queue, and every sensor bursting 3× from t+10 s to t+40 s.
fn burst_run(policy: OverflowPolicy, parallelism: usize) -> RunDigest {
    const N: u64 = 12;
    let mut t = Topology::new();
    let host = t.add_node(NodeSpec::edge("sensor-host", 10.0));
    let b = t.add_node(NodeSpec::edge("hub-b", 100_000.0));
    let c = t.add_node(NodeSpec::edge("hub-c", 90_000.0));
    for (x, y) in [(host, b), (host, c), (b, c)] {
        t.add_link(x, y, Duration::from_millis(1), 10_000_000)
            .unwrap();
    }
    let mut cfg = EngineConfig {
        migration_enabled: false,
        parallelism,
        ..Default::default()
    };
    cfg.overload.queue_capacity = Some(8);
    cfg.overload.policy = policy;
    let mut e = Engine::new(t, cfg, start());
    let mut plan = FaultPlan::new();
    for id in 1..=N {
        e.add_sensor(Box::new(TemperatureSensor::new(
            SensorId(id),
            &format!("t{id}"),
            GeoPoint::new_unchecked(34.7, 135.5),
            host,
            Duration::from_secs(1),
            false,
            false,
            id,
        )))
        .unwrap();
        plan = plan.burst(id, Duration::from_secs(10), Duration::from_secs(30), 3);
    }
    let flow = DataflowBuilder::new("p")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            temp_schema(),
        )
        .filter("all", "temp", "temperature > -100")
        .sink("edw", SinkKind::Warehouse, &["all"])
        .build()
        .unwrap();
    e.deploy(flow).unwrap();
    e.install_fault_plan(&plan);
    e.run_for(Duration::from_secs(60));
    digest(&e)
}

#[test]
fn parallel_matches_sequential_under_burst() {
    // The admission layer (chokepoint, shed coin, credit protocol) must not
    // break the determinism contract.
    for policy in [OverflowPolicy::Block, OverflowPolicy::ShedOldest] {
        let seq = burst_run(policy, 1);
        assert!(seq.edw > 100, "{policy:?}: baseline must be busy");
        let sheds = seq.dlq.iter().map(|(_, n)| n).sum::<u64>();
        assert_eq!(
            sheds > 0,
            policy == OverflowPolicy::ShedOldest,
            "{policy:?}: {:?}",
            seq.dlq
        );
        assert_eq!(seq, burst_run(policy, 4), "{policy:?}");
    }
}
