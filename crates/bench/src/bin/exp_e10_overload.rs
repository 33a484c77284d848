//! E10 — overload control: bounded queues, shedding, and backpressure
//! under a saturating burst.
//!
//! Replays the same 12-sensor fleet and 3× burst schedule against the
//! unbounded engine (the baseline every loss figure is measured from) and
//! against each overflow policy on an 8-deep ingress queue, and reports
//! delivery, loss accounting, throttle activity, and the worst queue
//! depth ever observed. Results land in `BENCH_e10_overload.json`
//! (full mode only).
//!
//! ```sh
//! cargo run --release -p sl-bench --bin exp_e10_overload           # full run
//! cargo run --release -p sl-bench --bin exp_e10_overload -- --test # CI smoke
//! ```
//!
//! Both modes assert the §5g invariants benches can check cheaply:
//!
//! * every bounded run keeps its worst observed queue depth ≤ the bound;
//! * `Block` never drops a generated tuple (empty DLQ; its deficit vs. the
//!   baseline is volume the throttled sensors never produced);
//! * every shed run's warehouse shortfall vs. the baseline exactly equals
//!   its `DropReason::Shed` dead-letter count — loss is *accounted*, not
//!   silent.

use sl_dataflow::DataflowBuilder;
use sl_dsn::SinkKind;
use sl_engine::{Engine, EngineConfig, OverflowPolicy};
use sl_faults::FaultPlan;
use sl_netsim::{NodeId, NodeSpec, Topology};
use sl_pubsub::SubscriptionFilter;
use sl_sensors::physical::TemperatureSensor;
use sl_stt::{AttrType, Duration, Field, GeoPoint, Schema, SchemaRef, SensorId, Theme, Timestamp};
use std::fmt::Write as _;
use std::time::Instant;

const CAP: usize = 8;

struct Sample {
    wall_s: f64,
    delivered: u64,
    shed: u64,
    throttled: u64,
    max_depth: u64,
}

fn temp_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .unwrap()
    .into_ref()
}

/// Pass-all filter into a warehouse sink: one up path, so the only
/// possible loss is what the admission layer sheds.
fn flow() -> sl_dataflow::Dataflow {
    DataflowBuilder::new("e10")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            temp_schema(),
        )
        .filter("all", "temp", "temperature > -100")
        .sink("edw", SinkKind::Warehouse, &["all"])
        .build()
        .unwrap()
}

/// A weak sensor host feeding two capable hubs; `sensors` aligned 1 Hz
/// sensors land their tuples simultaneously, so every tick floods the
/// filter's ingress queue.
fn build(sensors: u64, policy: Option<OverflowPolicy>) -> Engine {
    build_with_workers(sensors, policy, 1)
}

fn build_with_workers(sensors: u64, policy: Option<OverflowPolicy>, workers: usize) -> Engine {
    let mut t = Topology::new();
    let a = t.add_node(NodeSpec::edge("sensor-host", 10.0));
    let b = t.add_node(NodeSpec::edge("hub-b", 100_000.0));
    let c = t.add_node(NodeSpec::edge("hub-c", 90_000.0));
    t.add_link(a, b, Duration::from_millis(1), 10_000_000)
        .unwrap();
    t.add_link(a, c, Duration::from_millis(1), 10_000_000)
        .unwrap();
    t.add_link(b, c, Duration::from_millis(1), 10_000_000)
        .unwrap();
    let mut cfg = EngineConfig {
        migration_enabled: false,
        seed: 11,
        parallelism: workers,
        ..Default::default()
    };
    if let Some(policy) = policy {
        cfg.overload.queue_capacity = Some(CAP);
        cfg.overload.policy = policy;
    }
    let mut e = Engine::new(t, cfg, Timestamp::from_civil(2016, 7, 1, 12, 0, 0));
    for id in 1..=sensors {
        e.add_sensor(Box::new(TemperatureSensor::new(
            SensorId(id),
            &format!("t{id}"),
            GeoPoint::new_unchecked(34.7, 135.5),
            NodeId(0),
            Duration::from_secs(1),
            false,
            false,
            id,
        )))
        .unwrap();
    }
    e.deploy(flow()).unwrap();
    e
}

/// Triple every sensor's rate between t+10 s and t+40 s.
fn burst_plan(sensors: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for id in 1..=sensors {
        plan = plan.burst(id, Duration::from_secs(10), Duration::from_secs(30), 3);
    }
    plan
}

/// One run: walk the horizon in 500 ms absolute-deadline steps, tracking
/// the worst ingress depth any queue ever reached.
fn run_once(sensors: u64, policy: Option<OverflowPolicy>, virtual_secs: u64) -> Sample {
    let mut e = build(sensors, policy);
    e.install_fault_plan(&burst_plan(sensors));
    let t0v = e.now();
    let t0 = Instant::now();
    let mut max_depth = 0u64;
    for tick in 1..=(virtual_secs * 2) {
        e.run_until(t0v + Duration::from_millis(tick * 500));
        for (_, depth) in e.ingress_depths() {
            max_depth = max_depth.max(depth);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let snap = e.metrics_snapshot();
    Sample {
        wall_s,
        delivered: e.monitor().sink_count("e10", "edw"),
        shed: e.dlq().shed_total(),
        throttled: snap
            .counters
            .get("engine/backpressure/throttled")
            .copied()
            .unwrap_or(0),
        max_depth,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let (sensors, virtual_secs) = if smoke { (12u64, 60u64) } else { (12, 300) };
    println!(
        "E10 overload control — {sensors} aligned 1 Hz sensors, 3x burst at \
         10..40 s, queue bound {CAP}, {virtual_secs} virtual s"
    );

    let configs: [(&str, Option<OverflowPolicy>); 5] = [
        ("unbounded", None),
        ("block", Some(OverflowPolicy::Block)),
        ("shed-oldest", Some(OverflowPolicy::ShedOldest)),
        ("shed-newest", Some(OverflowPolicy::ShedNewest)),
        ("sample(0.5)", Some(OverflowPolicy::Sample(0.5))),
    ];

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut baseline = 0u64;
    for (label, policy) in configs {
        let s = run_once(sensors, policy, virtual_secs);
        match policy {
            None => {
                baseline = s.delivered;
                assert!(baseline > 100, "baseline must be busy ({baseline})");
            }
            Some(OverflowPolicy::Block) => {
                assert!(s.max_depth <= CAP as u64, "block breached the bound");
                // Block never loses a *generated* tuple: the deficit vs. the
                // unbounded baseline is volume the throttled sensors never
                // produced, not data dropped in flight — the DLQ stays empty.
                assert_eq!(s.shed, 0, "block mode must not shed");
                assert!(s.throttled > 0, "saturation must visibly throttle");
            }
            Some(_) => {
                assert!(s.max_depth <= CAP as u64, "{label} breached the bound");
                assert_eq!(
                    baseline - s.delivered,
                    s.shed,
                    "{label}: shortfall must equal the shed dead letters"
                );
            }
        }
        // Deficit vs. the unbounded baseline: for shed policies this is
        // dropped data (and must equal `shed`); for Block it is volume the
        // throttled sensors never generated.
        let deficit_pct = if baseline > 0 {
            100.0 * (baseline.saturating_sub(s.delivered)) as f64 / baseline as f64
        } else {
            0.0
        };
        rows.push(vec![
            label.to_string(),
            s.delivered.to_string(),
            s.shed.to_string(),
            format!("{deficit_pct:.1}%"),
            s.throttled.to_string(),
            s.max_depth.to_string(),
            format!("{:.3}", s.wall_s),
        ]);
        let mut j = String::new();
        let _ = write!(
            j,
            "    {{\"label\": \"{label}\", \"delivered\": {}, \"shed\": {}, \
             \"deficit_pct\": {deficit_pct:.2}, \"throttled\": {}, \"max_depth\": {}, \
             \"wall_s\": {:.6}}}",
            s.delivered, s.shed, s.throttled, s.max_depth, s.wall_s
        );
        json_rows.push(j);
    }

    // Sequential-vs-parallel digest equality under burst load: the
    // admission layer (chokepoint, shed RNG, credit protocol) must not
    // break the sl-par determinism contract. Every observable output of
    // a 4-worker run must be byte-identical to the sequential run.
    for policy in [OverflowPolicy::Block, OverflowPolicy::ShedOldest] {
        let digest = |workers: usize| {
            let mut e = build_with_workers(sensors, Some(policy), workers);
            e.install_fault_plan(&burst_plan(sensors));
            e.run_for(Duration::from_secs(60));
            (
                e.warehouse().iter().cloned().collect::<Vec<_>>(),
                e.monitor().sink_count("e10", "edw"),
                e.dlq()
                    .by_reason()
                    .map(|(r, n)| (r.to_string(), n))
                    .collect::<Vec<_>>(),
            )
        };
        assert!(
            digest(1) == digest(4),
            "{policy:?}: parallel digest diverged from sequential under burst"
        );
    }
    println!("\nseq-vs-parallel digests identical under burst (Block, ShedOldest)");

    sl_bench::print_table(
        "E10 — overload control under a 3x burst (bounds + accounting asserted)",
        &[
            "policy",
            "delivered",
            "shed",
            "deficit",
            "throttled",
            "max depth",
            "wall [s]",
        ],
        &rows,
    );

    if smoke {
        println!(
            "\nE10 smoke: bounds held, block lost nothing, every shed run's \
             shortfall matched its DLQ"
        );
    }

    let json = format!(
        "{{\n  \"experiment\": \"E10\",\n  \"sensors\": {sensors},\n  \
         \"queue_capacity\": {CAP},\n  \"virtual_seconds\": {virtual_secs},\n  \
         \"baseline_delivered\": {baseline},\n  \"results\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    sl_bench::write_bench_json("BENCH_e10_overload.json", &json, smoke);
}
