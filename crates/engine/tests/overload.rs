//! Overload-control chaos suite: traffic bursts replayed against bounded
//! ingress queues, asserting the guarantees from `DESIGN.md` §5g:
//!
//! * `Block` mode absorbs a burst by revoking sensor credits — **zero**
//!   tuple loss and every queue depth ≤ its bound throughout;
//! * under `ShedOldest`, `ShedNewest` and `Sample`, the warehouse shortfall
//!   exactly equals the `DropReason::Shed` dead-letter count, attributed to
//!   the policy (loss is bounded *and* accounted);
//! * at the global in-flight cap, low-priority dataflows shed first and the
//!   high-priority dataflow loses nothing;
//! * circuit breakers turn a dead route's retry storm into accounted
//!   fail-fast drops, then close again once the route heals;
//! * sustained backlog (not just CPU) triggers operator re-placement;
//! * with bounds configured but never hit, outputs are byte-identical to
//!   the unbounded engine — the admission layer is pay-for-what-you-shed.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use sl_dataflow::DataflowBuilder;
use sl_dsn::SinkKind;
use sl_engine::{Engine, EngineConfig, OverflowPolicy};
use sl_faults::{BreakerState, DropReason, FaultPlan, ShedPolicy};
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

/// Pass-all filter into a warehouse sink: a single up path, so the only
/// possible loss is what the admission layer sheds.
fn passthrough_flow(name: &str) -> sl_dataflow::Dataflow {
    DataflowBuilder::new(name)
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

/// A weak sensor host feeding two capable hubs. `n_sensors` aligned 1 s
/// sensors emit simultaneously, so every tick lands `n_sensors` concurrent
/// deliveries on the filter — deterministic overflow whenever
/// `n_sensors > queue_capacity`.
fn saturated_engine(n_sensors: u64, config: EngineConfig) -> Engine {
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
    let mut e = Engine::new(t, config, start());
    for id in 1..=n_sensors {
        e.add_sensor(temp_sensor(id, NodeId(0), Duration::from_secs(1)))
            .unwrap();
    }
    e.deploy(passthrough_flow("d")).unwrap();
    e
}

fn overload_config(cap: usize, policy: OverflowPolicy) -> EngineConfig {
    let mut cfg = EngineConfig {
        migration_enabled: false,
        ..Default::default()
    };
    cfg.overload.queue_capacity = Some(cap);
    cfg.overload.policy = policy;
    cfg
}

/// A plan tripling every sensor's rate for 30 virtual seconds.
fn triple_burst(n_sensors: u64) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for id in 1..=n_sensors {
        plan = plan.burst(id, Duration::from_secs(10), Duration::from_secs(30), 3);
    }
    plan
}

/// Step through a run in small increments, asserting every bounded queue
/// stays ≤ `cap` at each observation point. Deadlines are absolute from
/// the starting clock: `run_for` would re-derive them from `now()`, which
/// lags the wall of the window whenever no event falls inside it.
fn run_checking_bounds(e: &mut Engine, total: Duration, cap: u64) {
    let t0 = e.now();
    let step = Duration::from_millis(250);
    let mut elapsed = Duration::ZERO;
    while elapsed.as_millis() < total.as_millis() {
        elapsed = elapsed + step;
        e.run_until(t0 + elapsed);
        for (key, depth) in e.ingress_depths() {
            assert!(
                depth <= cap,
                "queue {key:?} at depth {depth} exceeds bound {cap} after {elapsed:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Block: credit-based backpressure, zero loss
// ---------------------------------------------------------------------

#[test]
fn block_mode_bursts_lose_nothing_and_stay_bounded() {
    const N: u64 = 12;
    const CAP: usize = 8;
    let mut e = saturated_engine(N, overload_config(CAP, OverflowPolicy::Block));
    e.install_fault_plan(&triple_burst(N));
    run_checking_bounds(&mut e, Duration::from_secs(60), CAP as u64);
    e.run_for(Duration::from_millis(500)); // drain the last tick

    // Zero loss: every generated tuple reached the warehouse.
    assert!(
        e.dlq().is_empty(),
        "Block mode must not shed: {:?}",
        e.dlq().by_reason().collect::<Vec<_>>()
    );
    let snap = e.metrics_snapshot();
    assert_eq!(snap.counters.get("engine/backpressure/shed"), None);
    // The burst was absorbed by throttling sensors, visibly.
    assert!(
        snap.counters["engine/backpressure/throttled"] > 0,
        "12 aligned sensors over an 8-deep queue must throttle"
    );
    assert!(snap.counters["broker/credit_revokes"] > 0);
    assert!(snap.counters["broker/credit_grants"] > 0);
    assert!(e
        .monitor()
        .pressure
        .iter()
        .any(|l| l.contains("credit revoked")));
    assert!(e
        .monitor()
        .pressure
        .iter()
        .any(|l| l.contains("credit re-granted")));
    // Every revocation was temporary: all sensors hold credit at the end.
    assert_eq!(e.broker().credits().revoked_count(), 0);
    // Conservation at the operator: everything admitted was processed.
    let c = e.monitor().op("d", "all").unwrap();
    assert_eq!(c.tuples_in(), c.tuples_out());
    assert!(e.monitor().sink_count("d", "edw") > 100);
}

#[test]
fn unthrottled_sensors_keep_their_heartbeat() {
    // Liveness must coexist with backpressure: a sensor silenced by credit
    // revocation is alive, not dead — the watchdog must not expire it.
    const N: u64 = 12;
    let cfg = overload_config(4, OverflowPolicy::Block);
    let mut e = saturated_engine(N, cfg);
    e.run_for(Duration::from_secs(30));
    assert!(
        e.metrics_snapshot().counters["engine/backpressure/throttled"] > 0,
        "test needs actual throttling to be meaningful"
    );
    assert_eq!(
        e.metrics_snapshot()
            .counters
            .get("engine/liveness/expired")
            .copied()
            .unwrap_or(0),
        0,
        "throttled sensors must not be presumed dead"
    );
    for id in 1..=N {
        assert!(e.broker().registry().contains(SensorId(id)));
    }
}

// ---------------------------------------------------------------------
// Shed modes: bounded queues, exactly-accounted loss
// ---------------------------------------------------------------------

#[test]
fn shed_oldest_shortfall_equals_the_shed_count() {
    // Baseline: identical fleet and burst, unbounded queues.
    let mut base = saturated_engine(
        12,
        EngineConfig {
            migration_enabled: false,
            ..Default::default()
        },
    );
    base.install_fault_plan(&triple_burst(12));
    base.run_for(Duration::from_secs(60) + Duration::from_millis(500));
    let expected = base.monitor().sink_count("d", "edw");
    assert!(expected > 500, "burst baseline must be busy ({expected})");

    for policy in [
        OverflowPolicy::ShedOldest,
        OverflowPolicy::ShedNewest,
        OverflowPolicy::Sample(0.5),
    ] {
        shortfall_equals_the_shed_count(policy, expected);
    }
}

/// The same fleet and burst as the unbounded run that delivered `expected`,
/// on an 8-deep queue under `policy`: the warehouse shortfall must exactly
/// equal the shed dead letters, every one attributed to `policy` at the
/// filter's queue.
fn shortfall_equals_the_shed_count(policy: OverflowPolicy, expected: u64) {
    const N: u64 = 12;
    const CAP: usize = 8;
    let shed_policy = policy.shed_policy().expect("a shedding policy");
    let mut e = saturated_engine(N, overload_config(CAP, policy));
    e.install_fault_plan(&triple_burst(N));
    run_checking_bounds(&mut e, Duration::from_secs(60), CAP as u64);
    e.run_for(Duration::from_millis(500));

    let delivered = e.monitor().sink_count("d", "edw");
    let shed = e.dlq().shed_total();
    assert!(
        shed > 0,
        "{policy:?}: 12 sensors over an 8-deep queue must shed"
    );
    assert_eq!(
        expected - delivered,
        shed,
        "{policy:?}: the warehouse shortfall must exactly equal the shed dead \
         letters ({expected} - {delivered} vs {shed})"
    );
    // The loss is attributed to the right queue and policy.
    assert!(
        e.dlq().iter().all(|(reason, dead)| {
            matches!(
                reason,
                DropReason::Shed { policy: p, operator } if *p == shed_policy && operator == "d/all"
            ) && dead.deployment == "d"
        }),
        "{policy:?}: {:?}",
        e.dlq().by_reason().collect::<Vec<_>>()
    );
    // Taxonomy surfaces in the snapshot and monitor report.
    let snap = e.metrics_snapshot();
    assert_eq!(
        snap.counters[&format!("engine/dlq/shed/{shed_policy}/d/all")],
        shed
    );
    assert_eq!(snap.counters["engine/backpressure/shed"], shed);
    assert!(e
        .monitor()
        .report(e.now())
        .contains(&format!("shed/{shed_policy}/d/all")));
}

#[test]
fn sample_policy_is_bounded_and_accounted() {
    const N: u64 = 12;
    const CAP: usize = 6;
    let mut e = saturated_engine(N, overload_config(CAP, OverflowPolicy::Sample(0.5)));
    e.install_fault_plan(&triple_burst(N));
    run_checking_bounds(&mut e, Duration::from_secs(40), CAP as u64);
    e.run_for(Duration::from_millis(500));
    let shed = e.dlq().shed_total();
    assert!(shed > 0);
    // The coin sometimes condemns the oldest and sometimes the newcomer;
    // both land under the Sample policy.
    assert!(e.dlq().iter().all(|(reason, _)| matches!(
        reason,
        DropReason::Shed {
            policy: ShedPolicy::Sample,
            ..
        }
    )));
    // In + shed accounts for everything the sensors pushed at the filter.
    let c = e.monitor().op("d", "all").unwrap();
    assert_eq!(c.tuples_in(), c.tuples_out());
}

// ---------------------------------------------------------------------
// QoS priorities at the global cap
// ---------------------------------------------------------------------

#[test]
fn global_cap_sheds_low_priority_first() {
    use sl_ops::PriorityClass;
    const N: u64 = 12;

    fn two_class_engine(global_cap: Option<usize>) -> Engine {
        let mut cfg = EngineConfig {
            migration_enabled: false,
            ..Default::default()
        };
        cfg.overload.global_capacity = global_cap;
        cfg.overload.priorities = vec![
            ("alerts".to_string(), PriorityClass::High),
            ("archive".to_string(), PriorityClass::Low),
        ];
        let mut e = saturated_engine(N, cfg);
        e.deploy(passthrough_flow("alerts")).unwrap();
        e.deploy(passthrough_flow("archive")).unwrap();
        e
    }

    // Baseline without the cap; "d" rides along from saturated_engine but
    // the assertions only compare the two classed deployments.
    let horizon = Duration::from_secs(40) + Duration::from_millis(500);
    let mut base = two_class_engine(None);
    base.run_for(horizon);
    let alerts_expected = base.monitor().sink_count("alerts", "edw");
    assert!(alerts_expected > 100);

    // Capped: three deployments × 12 sensors per tick against a global cap
    // of 24 in-flight deliveries.
    let mut e = two_class_engine(Some(24));
    e.run_for(horizon);

    let shed = e.dlq().shed_total();
    assert!(shed > 0, "the global cap must bite");
    // Every preemption chose the Low class.
    assert!(
        e.dlq().iter().all(|(reason, _)| {
            matches!(
                reason,
                DropReason::Shed { policy: ShedPolicy::Priority, operator }
                    if operator.starts_with("archive/")
            )
        }),
        "only the low-priority dataflow may shed: {:?}",
        e.dlq().by_reason().collect::<Vec<_>>()
    );
    assert_eq!(
        e.monitor().sink_count("alerts", "edw"),
        alerts_expected,
        "the high-priority dataflow must lose nothing"
    );
    assert!(
        e.monitor().sink_count("archive", "edw") < e.monitor().sink_count("alerts", "edw"),
        "the low-priority dataflow absorbed the loss"
    );
    assert!(e.metrics_snapshot().counters["engine/backpressure/preempted"] > 0);
}

// ---------------------------------------------------------------------
// Circuit breakers on delivery paths
// ---------------------------------------------------------------------

#[test]
fn breaker_opens_on_dead_route_and_closes_after_recovery() {
    fn breaker_engine(enabled: bool) -> (Engine, sl_netsim::LinkId) {
        let mut t = Topology::new();
        let weak = t.add_node(NodeSpec::edge("sensor-host", 10.0));
        let hub = t.add_node(NodeSpec::edge("hub", 1_000_000.0));
        let link = t
            .add_link(weak, hub, Duration::from_millis(1), 10_000_000)
            .unwrap();
        let mut cfg = EngineConfig {
            migration_enabled: false,
            ..Default::default()
        };
        cfg.overload.breaker_enabled = enabled;
        cfg.overload.breaker_threshold = 3;
        cfg.overload.breaker_cooldown = Duration::from_secs(5);
        let mut e = Engine::new(t, cfg, start());
        e.add_sensor(temp_sensor(1, weak, Duration::from_secs(1)))
            .unwrap();
        e.deploy(passthrough_flow("d")).unwrap();
        (e, link)
    }

    // A 30 s outage, longer than the retry budget.
    let outage = |link: sl_netsim::LinkId| {
        FaultPlan::new().link_flap(link.0, Duration::from_secs(10), Duration::from_secs(30))
    };

    let (mut e, link) = breaker_engine(true);
    e.install_fault_plan(&outage(link));
    e.run_for(Duration::from_secs(60));

    let snap = e.metrics_snapshot();
    assert!(snap.counters["engine/breaker/opened"] >= 1);
    assert!(
        snap.counters["engine/breaker/fail_fast"] > 0,
        "emissions during the outage must fail fast, not queue retries"
    );
    assert!(snap.counters["engine/breaker/closed"] >= 1);
    assert!(e.dlq().count(DropReason::BreakerOpen) > 0);
    assert_eq!(
        e.breaker_state("d", "all"),
        Some(BreakerState::Closed),
        "the healed route must close its breaker"
    );
    assert!(e
        .monitor()
        .pressure
        .iter()
        .any(|l| l.contains("breaker OPEN")));
    assert!(e
        .monitor()
        .pressure
        .iter()
        .any(|l| l.contains("breaker CLOSED")));
    // Traffic resumed after the heal: the last 20 s delivered steadily.
    let at_50 = e.monitor().sink_count("d", "edw");
    e.run_for(Duration::from_secs(10));
    assert!(e.monitor().sink_count("d", "edw") > at_50 + 5);

    // The breaker suppressed the retry storm vs. the same outage without it.
    let (mut plain, plink) = breaker_engine(false);
    plain.install_fault_plan(&outage(plink));
    plain.run_for(Duration::from_secs(60));
    let plain_retries = plain.metrics_snapshot().counters["engine/retry/scheduled"];
    let breaker_retries = snap.counters["engine/retry/scheduled"];
    assert!(
        breaker_retries < plain_retries / 2,
        "breaker must cut retry load ({breaker_retries} vs {plain_retries})"
    );
}

// ---------------------------------------------------------------------
// Backlog-driven re-placement
// ---------------------------------------------------------------------

#[test]
fn sustained_backlog_triggers_migration() {
    const N: u64 = 12;
    const CAP: usize = 8;
    let mut cfg = overload_config(CAP, OverflowPolicy::ShedOldest);
    cfg.migration_enabled = true; // backlog migration rides the same switch
    let mut e = saturated_engine(N, cfg);
    let before = e.node_of("d", "all").unwrap();
    e.run_for(Duration::from_secs(20));

    assert!(
        e.metrics_snapshot().counters["engine/backpressure/backlog_migrations"] >= 1,
        "a queue pinned at its bound every window must trigger re-placement"
    );
    let backlog_moves: Vec<_> = e
        .monitor()
        .placements
        .iter()
        .filter(|p| p.reason.contains("backlog"))
        .collect();
    assert!(!backlog_moves.is_empty());
    assert!(backlog_moves[0].reason.contains("d/all"));
    assert_eq!(backlog_moves[0].from, Some(before));
    assert!(e.monitor().pressure.iter().any(|l| l.contains("backlog")));
    // Cooldown: at one monitor sample per second over 20 s, a 4 s cooldown
    // allows at most ~5 backlog migrations of the same operator.
    assert!(backlog_moves.len() <= 6, "{}", backlog_moves.len());
}

// ---------------------------------------------------------------------
// Determinism: unprovoked bounds change nothing
// ---------------------------------------------------------------------

#[test]
fn unprovoked_admission_layer_is_byte_identical_to_unbounded() {
    fn run(cfg: EngineConfig) -> Engine {
        let mut e = saturated_engine(4, cfg); // 4 sensors: never overflows
        e.run_for(Duration::from_secs(45));
        e
    }
    let plain = run(EngineConfig {
        migration_enabled: false,
        ..Default::default()
    });
    // Bounds configured far above the working set, every policy flavour.
    for policy in [
        OverflowPolicy::Block,
        OverflowPolicy::ShedOldest,
        OverflowPolicy::ShedNewest,
        OverflowPolicy::Sample(0.5),
    ] {
        let mut cfg = overload_config(1000, policy);
        cfg.overload.global_capacity = Some(100_000);
        let bounded = run(cfg);
        assert_eq!(
            bounded.warehouse().iter().cloned().collect::<Vec<_>>(),
            plain.warehouse().iter().cloned().collect::<Vec<_>>(),
            "unprovoked {policy:?} must not change the warehouse"
        );
        assert_eq!(
            bounded.monitor().sink_count("d", "edw"),
            plain.monitor().sink_count("d", "edw")
        );
        assert!(bounded.dlq().is_empty());
    }
}
