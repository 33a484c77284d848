//! The monitor's continuous-query section.
//!
//! * Its rows against their specification: the rebuild the monitor tick
//!   ran before rows were updated in place, kept verbatim as `rebuild`
//!   below. Through a run that subscribes, unsubscribes, registers and
//!   drops views, lags, catches up and goes idle, the rows, the log and the
//!   report's continuous-query sections equal the rebuild's after every
//!   tick.
//! * Its log's bound: a three-hour retention run that logs a line every
//!   tick holds at most `2 × CONSOLE_CAPACITY` lines, and its last ten are
//!   the last ten of every line it logged.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use sl_cq::CqHub;
use sl_dataflow::DataflowBuilder;
use sl_dsn::SinkKind;
use sl_engine::{CqStat, Engine, EngineConfig, Monitor, OverflowPolicy, CONSOLE_CAPACITY};
use sl_netsim::{NodeSpec, Topology};
use sl_pubsub::SubscriptionFilter;
use sl_sensors::physical::TemperatureSensor;
use sl_stt::{
    AttrType, Duration, Field, GeoPoint, Schema, SensorId, SpatialGranularity, TemporalGranularity,
    Theme, Timestamp,
};
use sl_warehouse::{CubeQuery, EventQuery};
use std::collections::BTreeMap;

fn start() -> Timestamp {
    Timestamp::from_civil(2016, 7, 1, 12, 0, 0)
}

/// The monitor tick `k` virtual seconds into the run.
fn tick(k: u64) -> Timestamp {
    start() + Duration::from_secs(k)
}

/// `sensors` temperature sensors reading once a second into the warehouse;
/// each reading is two events (temperature and station).
fn engine(config: EngineConfig, sensors: u64) -> Engine {
    let mut t = Topology::new();
    let a = t.add_node(NodeSpec::edge("sensor-host", 50.0));
    let b = t.add_node(NodeSpec::edge("host-b", 1000.0));
    t.add_link(a, b, Duration::from_millis(1), 10_000_000)
        .unwrap();
    let mut e = Engine::new(t, config, start());
    for i in 0..sensors {
        e.add_sensor(Box::new(TemperatureSensor::new(
            SensorId(i + 1),
            &format!("t{i}"),
            GeoPoint::new_unchecked(34.70 + i as f64 * 0.05, 135.50),
            a,
            Duration::from_secs(1),
            false,
            false,
            i,
        )))
        .unwrap();
    }
    let schema = Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .unwrap()
    .into_ref();
    let flow = DataflowBuilder::new("w")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            schema,
        )
        .sink("edw", SinkKind::Warehouse, &["temp"])
        .build()
        .unwrap();
    e.deploy(flow).unwrap();
    e
}

/// The continuous-query section as the monitor tick rebuilt it before its
/// rows were updated in place, verbatim but for its receiver (the hub and
/// a monitor in place of the engine).
fn rebuild(hub: &CqHub, monitor: &mut Monitor, now: Timestamp) {
    let mut table = BTreeMap::new();
    for s in hub.subscription_stats() {
        let was_lagged = monitor
            .cq
            .get(&s.id.to_string())
            .is_some_and(|st| st.lagged);
        if s.lagged && !was_lagged {
            monitor.continuous.push(format!(
                "[{now}] subscriber '{}' ({}) lagged: queue overflowed, awaiting catch-up",
                s.name, s.id
            ));
        }
        table.insert(
            s.id.to_string(),
            CqStat {
                kind: format!("subscription '{}'", s.name),
                depth: s.depth,
                delivered: s.delivered,
                dropped: s.dropped,
                lagged: s.lagged,
                ..CqStat::default()
            },
        );
    }
    for v in hub.view_stats() {
        table.insert(
            v.id.to_string(),
            CqStat {
                kind: format!("view '{}'", v.name),
                cells: v.cells,
                contributions: v.contributions,
                ..CqStat::default()
            },
        );
    }
    monitor.cq = table;
}

/// A report from its continuous-query sections on (they come last).
fn cq_sections(report: &str) -> &str {
    report.find("  continuous").map_or("", |at| &report[at..])
}

#[test]
fn cq_rows_equal_the_rebuild_after_every_tick() {
    let config = EngineConfig {
        migration_enabled: false,
        ..EngineConfig::default()
    };
    let mut e = engine(config, 2);
    let mut spec = Monitor::new();
    let hourly = |select| CubeQuery {
        select,
        tgran: TemporalGranularity::Hour,
        sgran: SpatialGranularity::grid(2),
        theme_depth: 1,
    };
    let weather = || EventQuery::all().with_theme(Theme::new("weather").unwrap());
    let (mut subs, mut views) = (Vec::new(), Vec::new());
    // Four events a second: "tiny" lags on its second tick, and on the
    // second tick after each catch-up.
    for k in 1..=240u64 {
        match k {
            5 => {
                let tiny = OverflowPolicy::Block;
                subs.push(e.subscribe_events("tiny", EventQuery::all(), Some(6), tiny));
                views.push(e.register_view("all", hourly(EventQuery::all())));
            }
            20 => {
                let shed = OverflowPolicy::ShedOldest;
                subs.push(e.subscribe_events("weather", weather(), None, shed));
            }
            40 => {
                e.catch_up(subs[0]).unwrap();
            }
            60 => {
                e.unsubscribe_events(subs[1]).unwrap();
                views.push(e.register_view("weather", hourly(weather())));
            }
            80 => {
                e.drop_view(views[0]).unwrap();
                let shared = OverflowPolicy::ShedNewest;
                subs.push(e.subscribe_events("shared", EventQuery::all(), Some(2), shared));
            }
            100 => {
                e.catch_up(subs[0]).unwrap();
                e.poll_deltas(subs[2]).unwrap();
            }
            // Idle from here: neither side touches its rows until the next
            // registration, which drops the rows of the removed ones.
            120 => {
                e.unsubscribe_events(subs[0]).unwrap();
                e.unsubscribe_events(subs[2]).unwrap();
                e.drop_view(views[1]).unwrap();
            }
            150 => {
                let late = OverflowPolicy::Block;
                subs.push(e.subscribe_events("late", weather(), Some(8), late));
            }
            _ if k > 150 && k % 10 == 0 => {
                e.poll_deltas(subs[3]).unwrap();
            }
            _ => {}
        }
        e.run_until(tick(k));
        assert_eq!(e.now(), tick(k), "the tick is the step's last event");
        if !e.cq().is_idle() {
            rebuild(e.cq(), &mut spec, e.now());
        }
        let monitor = e.monitor();
        assert_eq!(
            format!("{:?}", monitor.cq),
            format!("{:?}", spec.cq),
            "rows at tick {k}"
        );
        assert_eq!(monitor.continuous, spec.continuous, "log at tick {k}");
        let (got, want) = (monitor.report(e.now()), spec.report(e.now()));
        assert_eq!(cq_sections(&got), cq_sections(&want), "report at tick {k}");
    }
    assert!(
        spec.continuous.len() >= 3,
        "the run must lag, catch up and lag again: {:?}",
        spec.continuous
    );
}

#[test]
fn the_cq_log_keeps_its_recent_lines_within_twice_the_console_capacity() {
    let config = EngineConfig {
        migration_enabled: false,
        retention: Some(Duration::from_secs(60)),
        ..EngineConfig::default()
    };
    let mut e = engine(config, 1);
    // Every tick a fresh one-slot subscriber falls behind (a reading is two
    // events), so every tick logs a line beside the retention evictions:
    // many more lines than the log keeps. Lines logged at a tick carry its
    // time, which is how `uncapped` collects every one of them.
    let mut uncapped: Vec<String> = Vec::new();
    let mut sub = None;
    for k in 1..=3 * 3600 {
        let slow = e.subscribe_events("slow", EventQuery::all(), Some(1), OverflowPolicy::Block);
        if let Some(old) = sub.replace(slow) {
            e.unsubscribe_events(old).unwrap();
        }
        e.run_until(tick(k));
        let log = &e.monitor().continuous;
        assert!(
            log.len() <= 2 * CONSOLE_CAPACITY,
            "{} lines at tick {k}",
            log.len()
        );
        let stamp = format!("[{}]", tick(k));
        let fresh = log
            .iter()
            .rev()
            .take_while(|l| l.starts_with(&stamp))
            .count();
        uncapped.extend_from_slice(&log[log.len() - fresh..]);
    }
    assert!(
        uncapped.len() > 2 * CONSOLE_CAPACITY,
        "only {} lines: the bound was never reached",
        uncapped.len()
    );
    assert!(uncapped.iter().any(|l| l.contains("retention")));
    let log = &e.monitor().continuous;
    assert_eq!(log[log.len() - 10..], uncapped[uncapped.len() - 10..]);
}
