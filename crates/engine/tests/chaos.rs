//! Chaos harness: fault plans replayed against live dataflows, asserting
//! the recovery guarantees from `DESIGN.md` §"Fault model & recovery":
//!
//! * a transient link flap shorter than the retry budget causes **zero**
//!   tuple loss when retries are on, and *visible, accounted* loss (DLQ +
//!   drop counters) when they are off;
//! * repeated failure/repair of the same link leaks no flow reservations;
//! * a node crash mid-window restores blocking-operator state from the
//!   latest checkpoint, so downstream results match the fault-free run;
//! * the liveness watchdog expires silently stalled sensors and lets them
//!   rejoin cleanly;
//! * corrupted payloads dead-letter without poisoning the pipeline;
//! * a whole chaos schedule replays deterministically;
//! * (property) arbitrary burst schedules never push a bounded ingress
//!   queue past its configured capacity, under every overflow policy.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use sl_dataflow::DataflowBuilder;
use sl_dsn::SinkKind;
use sl_engine::{Engine, EngineConfig, OverflowPolicy};
use sl_faults::{DropReason, FaultPlan};
use sl_netsim::{LinkId, NodeId, NodeSpec, Topology};
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

fn temp_sensor(id: u64, node: NodeId, period: Duration) -> Box<TemperatureSensor> {
    Box::new(TemperatureSensor::new(
        SensorId(id),
        &format!("t{id}"),
        GeoPoint::new_unchecked(34.7, 135.5),
        node,
        period,
        false,
        false,
        id,
    ))
}

fn filter_flow(name: &str) -> sl_dataflow::Dataflow {
    DataflowBuilder::new(name)
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            temp_schema(),
        )
        .filter("all", "temp", "temperature > -100")
        .sink("out", SinkKind::Console, &["all"])
        .build()
        .unwrap()
}

/// Two nodes joined by one link: a weak sensor host and a strong hub. The
/// filter process lands on the hub (the weak node can't fit it), so every
/// delivery crosses the single link — failing it severs the dataflow.
fn two_node_engine(retries: bool) -> (Engine, LinkId) {
    let mut t = Topology::new();
    let weak = t.add_node(NodeSpec::edge("sensor-host", 10.0));
    let hub = t.add_node(NodeSpec::edge("hub", 1_000_000.0));
    let link = t
        .add_link(weak, hub, Duration::from_millis(1), 10_000_000)
        .unwrap();
    let cfg = EngineConfig {
        migration_enabled: false,
        retry_attempts: if retries { 6 } else { 0 },
        ..Default::default()
    };
    let mut e = Engine::new(t, cfg, start());
    e.add_sensor(temp_sensor(1, weak, Duration::from_secs(1)))
        .unwrap();
    e.deploy(filter_flow("d")).unwrap();
    (e, link)
}

#[test]
fn link_flap_with_retries_loses_nothing() {
    // Baseline: no fault.
    let (mut base, _) = two_node_engine(true);
    base.run_for(Duration::from_secs(60));
    let expected = base.monitor().sink_count("d", "out");
    assert!(expected > 40, "baseline sink count {expected}");

    // Faulted: a 5 s flap, well inside the 25.5 s retry budget.
    let (mut e, link) = two_node_engine(true);
    let plan = FaultPlan::new().link_flap(link.0, Duration::from_secs(10), Duration::from_secs(5));
    e.install_fault_plan(&plan);
    e.run_for(Duration::from_secs(60));

    assert_eq!(
        e.monitor().sink_count("d", "out"),
        expected,
        "transient flap shorter than the retry budget must lose zero tuples"
    );
    assert!(
        e.dlq().is_empty(),
        "nothing should dead-letter: {:?}",
        e.dlq().by_reason().collect::<Vec<_>>()
    );
    let snap = e.metrics_snapshot();
    assert!(snap.counters["engine/retry/scheduled"] > 0);
    assert!(snap.counters["engine/retry/delivered"] > 0);
    assert!(
        snap.counters["engine/drops/no_route"] > 0,
        "first failures are still counted"
    );
    assert_eq!(snap.gauges.get("engine/dlq/depth").copied().unwrap_or(0), 0);
    assert!(snap.hists.contains_key("engine/recovery/redelivery_ms"));
    // The recovery story is visible in the rendered metrics table.
    let table = snap.render_table();
    assert!(table.contains("engine/retry/scheduled"));
    assert!(table.contains("engine/retry/delivered"));
}

#[test]
fn link_flap_without_retries_shows_loss_in_dlq() {
    let (mut base, _) = two_node_engine(false);
    base.run_for(Duration::from_secs(60));
    let expected = base.monitor().sink_count("d", "out");

    let (mut e, link) = two_node_engine(false);
    let plan = FaultPlan::new().link_flap(link.0, Duration::from_secs(10), Duration::from_secs(5));
    e.install_fault_plan(&plan);
    e.run_for(Duration::from_secs(60));

    let delivered = e.monitor().sink_count("d", "out");
    assert!(
        delivered < expected,
        "retries off: the outage must lose tuples ({delivered} vs {expected})"
    );
    assert!(!e.dlq().is_empty());
    assert_eq!(
        e.dlq().total(),
        expected - delivered,
        "every lost tuple is accounted for"
    );
    assert_eq!(e.dlq().count(DropReason::NoRoute), e.dlq().total());
    let snap = e.metrics_snapshot();
    assert!(snap.counters["engine/dlq/no_route"] > 0);
    assert!(snap.counters["engine/drops/no_route"] > 0);
    assert!(snap.gauges["engine/dlq/depth"] > 0);
    assert!(snap.render_table().contains("engine/dlq/no_route"));
    // Dead letters carry their provenance.
    assert!(e
        .dlq()
        .iter()
        .all(|(reason, dead)| { *reason == DropReason::NoRoute && dead.deployment == "d" }));
}

#[test]
fn repeated_flap_leaves_no_stale_reservations() {
    // Fail → restore → fail → restore the same link; the flow table must
    // stay internally consistent (no leaked per-link reservations) and
    // traffic must resume every time connectivity returns.
    let (mut e, link) = two_node_engine(true);
    let flows_before = e.flows().flows().count();
    let plan = FaultPlan::new()
        .link_flap(link.0, Duration::from_secs(10), Duration::from_secs(4))
        .link_flap(link.0, Duration::from_secs(25), Duration::from_secs(4));
    e.install_fault_plan(&plan);
    e.run_for(Duration::from_secs(60));

    assert_eq!(
        e.flows().flows().count(),
        flows_before,
        "flap must not add or drop flows"
    );
    // Invariant: per-link reserved bytes equal the sum of reservations of
    // the flows actually routed over that link.
    for (l, reserved) in e.flows().reserved_links() {
        let expected: u64 = e
            .flows()
            .flows()
            .filter(|f| f.route.links.contains(&l))
            .map(|f| f.reserved_bps)
            .sum();
        assert_eq!(reserved, expected, "stale reservation on {l}");
    }
    // Both outages were inside the retry budget: still zero loss.
    assert!(e.dlq().is_empty());
    let (mut base, _) = two_node_engine(true);
    base.run_for(Duration::from_secs(60));
    assert_eq!(
        e.monitor().sink_count("d", "out"),
        base.monitor().sink_count("d", "out")
    );
}

#[test]
fn unpublishing_sensor_mid_run_keeps_rest_producing() {
    let mut t = Topology::new();
    let a = t.add_node(NodeSpec::edge("a", 1000.0));
    let b = t.add_node(NodeSpec::edge("b", 1000.0));
    t.add_link(a, b, Duration::from_millis(1), 10_000_000)
        .unwrap();
    let cfg = EngineConfig {
        migration_enabled: false,
        ..Default::default()
    };
    let mut e = Engine::new(t, cfg, start());
    let s1 = e
        .add_sensor(temp_sensor(1, a, Duration::from_secs(1)))
        .unwrap();
    e.add_sensor(temp_sensor(2, b, Duration::from_secs(1)))
        .unwrap();
    e.deploy(filter_flow("d")).unwrap();
    assert_eq!(e.bound_sensors("d", "temp").len(), 2);

    e.run_for(Duration::from_secs(20));
    let mid = e.monitor().sink_count("d", "out");
    assert!(mid > 0);

    // Unpublish one sensor mid-run: its binding drops cleanly...
    e.remove_sensor(s1).unwrap();
    assert_eq!(e.bound_sensors("d", "temp"), vec![SensorId(2)]);
    assert!(!e.broker().registry().contains(s1));
    assert!(e.monitor().membership.iter().any(|l| l.contains("t1 left")));

    // ...and the surviving sensor keeps the dataflow producing.
    e.run_for(Duration::from_secs(20));
    let end = e.monitor().sink_count("d", "out");
    assert!(
        end > mid + 10,
        "survivor must keep producing (mid {mid}, end {end})"
    );
    assert!(e.dlq().is_empty());
}

// ---------------------------------------------------------------------
// Node crash + operator-state recovery
// ---------------------------------------------------------------------

fn agg_flow(name: &str) -> sl_dataflow::Dataflow {
    DataflowBuilder::new(name)
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            temp_schema(),
        )
        .aggregate(
            "sum",
            "temp",
            Duration::from_secs(30),
            &[],
            sl_ops::AggFunc::Sum,
            Some("temperature"),
        )
        .sink("edw", SinkKind::Warehouse, &["sum"])
        .build()
        .unwrap()
}

/// Weak sensor host plus two capable hosts, fully connected; the windowed
/// aggregation lands on one of the capable hosts, which we then crash.
fn crash_engine() -> Engine {
    let mut t = Topology::new();
    let a = t.add_node(NodeSpec::edge("sensor-host", 10.0));
    let b = t.add_node(NodeSpec::edge("host-b", 1000.0));
    let c = t.add_node(NodeSpec::edge("host-c", 900.0));
    t.add_link(a, b, Duration::from_millis(1), 10_000_000)
        .unwrap();
    t.add_link(a, c, Duration::from_millis(1), 10_000_000)
        .unwrap();
    t.add_link(b, c, Duration::from_millis(1), 10_000_000)
        .unwrap();
    let cfg = EngineConfig {
        migration_enabled: false,
        ..Default::default()
    };
    let mut e = Engine::new(t, cfg, start());
    e.add_sensor(temp_sensor(1, a, Duration::from_secs(5)))
        .unwrap();
    e.deploy(agg_flow("w")).unwrap();
    e
}

#[test]
fn node_crash_mid_window_restores_operator_state() {
    // Baseline: fault-free warehouse contents.
    let mut base = crash_engine();
    base.run_for(Duration::from_secs(100));
    let expected: Vec<sl_stt::Event> = base.warehouse().iter().cloned().collect();
    assert!(!expected.is_empty());

    // Faulted: crash the aggregation's node mid-window (t = 45 s, window
    // boundaries at 30/60/90 s) and let recovery re-place it.
    let mut e = crash_engine();
    let victim = e.node_of("w", "sum").expect("aggregate placed");
    assert_ne!(
        victim,
        NodeId(0),
        "aggregate must not share the sensor host"
    );
    e.install_fault_plan(&FaultPlan::new().node_crash(victim.0, Duration::from_secs(45)));
    e.run_for(Duration::from_secs(100));

    let moved_to = e.node_of("w", "sum").expect("aggregate still deployed");
    assert_ne!(moved_to, victim, "process must move off the crashed node");
    assert!(e.topology().node_is_up(moved_to));
    assert!(e
        .monitor()
        .placements
        .iter()
        .any(|p| p.reason.contains("recovery: node crash") && p.operator == "sum"));
    assert!(e
        .monitor()
        .recovery
        .iter()
        .any(|l| l.contains("recovered onto")));

    // Determinism check: the restored window produced the same aggregates,
    // so the warehouse matches the fault-free run event for event.
    let got: Vec<sl_stt::Event> = e.warehouse().iter().cloned().collect();
    assert_eq!(
        got, expected,
        "checkpoint restore must reproduce the fault-free aggregates"
    );

    let snap = e.metrics_snapshot();
    assert!(snap.counters["engine/checkpoint/taken"] > 0);
    assert!(snap.counters["engine/checkpoint/restored_tuples"] > 0);
    assert!(snap.counters["engine/faults/node_crash"] == 1);
}

// ---------------------------------------------------------------------
// Sensor liveness, corruption, skew
// ---------------------------------------------------------------------

#[test]
fn stalled_sensor_expires_then_rejoins() {
    let mut t = Topology::new();
    let a = t.add_node(NodeSpec::edge("a", 1000.0));
    let b = t.add_node(NodeSpec::edge("b", 1000.0));
    t.add_link(a, b, Duration::from_millis(1), 10_000_000)
        .unwrap();
    let cfg = EngineConfig {
        migration_enabled: false,
        ..Default::default()
    };
    let mut e = Engine::new(t, cfg, start());
    let id = e
        .add_sensor(temp_sensor(1, a, Duration::from_secs(2)))
        .unwrap();
    e.deploy(filter_flow("d")).unwrap();

    // Silent stall from 10 s to 30 s; with a 2 s period and grace 3, the
    // watchdog expires the sensor ~6 s into the silence.
    e.install_fault_plan(&FaultPlan::new().sensor_stall(
        id.0,
        Duration::from_secs(10),
        Duration::from_secs(20),
    ));
    e.run_for(Duration::from_secs(20));
    assert!(
        !e.broker().registry().contains(id),
        "watchdog must withdraw the stale ad"
    );
    assert!(e.bound_sensors("d", "temp").is_empty());
    let during = e.monitor().sink_count("d", "out");

    e.run_for(Duration::from_secs(25));
    assert!(
        e.broker().registry().contains(id),
        "resumed sensor must republish"
    );
    assert_eq!(e.bound_sensors("d", "temp"), vec![id]);
    assert!(
        e.monitor().sink_count("d", "out") > during + 5,
        "rejoined sensor feeds again"
    );

    let snap = e.metrics_snapshot();
    assert_eq!(snap.counters["engine/liveness/expired"], 1);
    assert_eq!(snap.counters["engine/liveness/rejoined"], 1);
    assert!(e
        .monitor()
        .membership
        .iter()
        .any(|l| l.contains("presumed dead")));
    assert!(e
        .monitor()
        .membership
        .iter()
        .any(|l| l.contains("rejoined")));
    assert!(e.monitor().recovery.iter().any(|l| l.contains("expired")));
}

#[test]
fn corrupt_payloads_dead_letter_then_flow_resumes() {
    let (mut e, _) = two_node_engine(true);
    e.install_fault_plan(&FaultPlan::new().corrupt_window(
        1,
        Duration::from_secs(10),
        Duration::from_secs(10),
    ));
    e.run_for(Duration::from_secs(25));
    let after_window = e.monitor().sink_count("d", "out");
    let corrupted = e.dlq().count(DropReason::CorruptPayload);
    assert!(
        corrupted >= 5,
        "corrupt window must dead-letter emissions ({corrupted})"
    );
    assert_eq!(e.dlq().total(), corrupted);

    e.run_for(Duration::from_secs(15));
    assert!(
        e.monitor().sink_count("d", "out") > after_window + 10,
        "clean payloads must flow again after the corruption window"
    );
    assert_eq!(
        e.dlq().count(DropReason::CorruptPayload),
        corrupted,
        "no further corruption"
    );
    let snap = e.metrics_snapshot();
    assert_eq!(snap.counters["engine/drops/corrupt"], corrupted);
    assert!(snap.counters["engine/dlq/corrupt_payload"] > 0);
}

#[test]
fn clock_skew_shifts_emitted_timestamps() {
    let (mut e, _) = two_node_engine(true);
    // A fast clock: tuples stamped 10 s ahead of virtual time.
    e.install_fault_plan(&FaultPlan::new().clock_skew(1, Duration::ZERO, 10_000));
    e.run_for(Duration::from_secs(30));
    let samples = e.recent_samples("d", "temp");
    assert!(!samples.is_empty());
    let max_ts = samples.iter().map(|t| t.meta.timestamp).max().unwrap();
    assert!(
        max_ts > e.now(),
        "skewed tuples must be stamped ahead of virtual time (max {max_ts}, now {})",
        e.now()
    );
    assert!(e.metrics_snapshot().counters["engine/faults/skewed_tuples"] > 0);
}

// ---------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------

/// The full chaos cocktail, replayed twice: every recovery decision is
/// driven by virtual time and seeded RNG, so both runs agree exactly.
#[test]
fn chaos_schedule_replays_deterministically() {
    fn run() -> Engine {
        let mut e = crash_engine();
        e.add_sensor(temp_sensor(2, NodeId(1), Duration::from_secs(3)))
            .unwrap();
        let victim = e.node_of("w", "sum").unwrap();
        let plan = FaultPlan::new()
            .sensor_stall(1, Duration::from_secs(8), Duration::from_secs(12))
            .corrupt_window(2, Duration::from_secs(20), Duration::from_secs(6))
            .node_crash(victim.0, Duration::from_secs(45))
            .node_restart(victim.0, Duration::from_secs(70))
            .clock_skew(2, Duration::from_secs(50), -1500);
        e.install_fault_plan(&plan);
        e.run_for(Duration::from_secs(120));
        e
    }
    let a = run();
    let b = run();
    assert_eq!(
        a.warehouse().iter().cloned().collect::<Vec<_>>(),
        b.warehouse().iter().cloned().collect::<Vec<_>>()
    );
    assert_eq!(
        a.monitor().sink_count("w", "edw"),
        b.monitor().sink_count("w", "edw")
    );
    assert_eq!(a.dlq().total(), b.dlq().total());
    assert_eq!(
        a.dlq().by_reason().collect::<Vec<_>>(),
        b.dlq().by_reason().collect::<Vec<_>>()
    );
    assert_eq!(a.monitor().recovery, b.monitor().recovery);
    assert_eq!(a.monitor().membership, b.monitor().membership);
}

// ---------------------------------------------------------------------
// Property: bursts never breach a configured queue bound
// ---------------------------------------------------------------------

mod burst_bounds {
    use super::*;
    use proptest::prelude::*;

    /// One `FaultAction::Burst` to inject: which sensor, when, for how
    /// long, and how much faster it emits.
    #[derive(Debug, Clone)]
    struct BurstSpec {
        sensor: u64,
        at_s: u64,
        window_s: u64,
        factor: u32,
    }

    fn arb_burst(n_sensors: u64) -> impl Strategy<Value = BurstSpec> {
        (1..=n_sensors, 0u64..25, 1u64..20, 2u32..6).prop_map(|(sensor, at_s, window_s, factor)| {
            BurstSpec {
                sensor,
                at_s,
                window_s,
                factor,
            }
        })
    }

    fn arb_policy() -> impl Strategy<Value = OverflowPolicy> {
        prop_oneof![
            Just(OverflowPolicy::Block),
            Just(OverflowPolicy::ShedOldest),
            Just(OverflowPolicy::ShedNewest),
            Just(OverflowPolicy::Sample(0.5)),
        ]
    }

    /// A weak sensor host and a strong hub: every sensor feeds the one
    /// filter, so overlapping bursts contend for the same bounded queue.
    fn bounded_engine(n_sensors: u64, cap: usize, policy: OverflowPolicy) -> Engine {
        let mut t = Topology::new();
        let weak = t.add_node(NodeSpec::edge("sensor-host", 10.0));
        let hub = t.add_node(NodeSpec::edge("hub", 1_000_000.0));
        t.add_link(weak, hub, Duration::from_millis(1), 10_000_000)
            .unwrap();
        let mut cfg = EngineConfig {
            migration_enabled: false,
            ..Default::default()
        };
        cfg.overload.queue_capacity = Some(cap);
        cfg.overload.policy = policy;
        let mut e = Engine::new(t, cfg, start());
        for id in 1..=n_sensors {
            e.add_sensor(temp_sensor(id, NodeId(0), Duration::from_secs(1)))
                .unwrap();
        }
        e.deploy(filter_flow("d")).unwrap();
        e
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The tentpole safety property: no burst schedule — any mix of
        /// sensors, phases, overlaps, and intensities — may push a bounded
        /// ingress queue past its capacity, whichever overflow policy
        /// handles the excess. Deadlines are absolute so the walk observes
        /// every 500 ms of virtual time even across idle windows.
        #[test]
        fn bursts_never_breach_the_bound(
            bursts in proptest::collection::vec(arb_burst(6), 1..6),
            policy in arb_policy(),
            cap in 2usize..10,
        ) {
            let mut e = bounded_engine(6, cap, policy);
            let mut plan = FaultPlan::new();
            for b in &bursts {
                plan = plan.burst(
                    b.sensor,
                    Duration::from_secs(b.at_s),
                    Duration::from_secs(b.window_s),
                    b.factor,
                );
            }
            e.install_fault_plan(&plan);
            let t0 = e.now();
            for tick in 1..=100u64 {
                e.run_until(t0 + Duration::from_millis(tick * 500));
                for (key, depth) in e.ingress_depths() {
                    prop_assert!(
                        depth <= cap as u64,
                        "queue {key:?} at depth {depth} exceeds bound {cap} \
                         after {tick} half-seconds ({policy:?}, {bursts:?})"
                    );
                }
            }
            // The walk covered the whole schedule and the pipeline is
            // still live: tuples flowed after the last burst subsided.
            prop_assert!(e.monitor().sink_count("d", "out") > 0);
        }
    }
}
