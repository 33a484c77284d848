//! Property-based tests: the indexed query path always agrees with the
//! brute-force scan, roll-ups conserve event counts, and incremental
//! eviction is indistinguishable from filtering the store.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::prelude::*;
use sl_stt::{
    BoundingBox, Event, GeoPoint, SpatialGranularity, TemporalGranularity, Theme, TimeInterval,
    Timestamp, Value,
};
use sl_warehouse::{CubeQuery, EventQuery, EventWarehouse, WarehouseConfig};

fn arb_event() -> impl Strategy<Value = Event> {
    let themes = prop_oneof![
        Just("weather/temperature"),
        Just("weather/rain"),
        Just("social/tweet"),
        Just("traffic"),
    ];
    (
        0i64..2_000_000, // seconds
        themes,
        30.0f64..40.0,
        130.0f64..140.0,
        -50.0f64..50.0,
        any::<bool>(), // world granule?
    )
        .prop_map(|(sec, theme, lat, lon, v, world)| {
            let sg = if world {
                sl_stt::SpatialGranule::World
            } else {
                SpatialGranularity::grid(9).granule_of(&GeoPoint::new_unchecked(lat, lon))
            };
            Event::new(
                Value::Float(v),
                TemporalGranularity::Minute,
                TemporalGranularity::Minute.granule_of(Timestamp::from_secs(sec)),
                sg,
                Theme::new(theme).unwrap(),
            )
        })
}

fn arb_query() -> impl Strategy<Value = EventQuery> {
    (
        proptest::option::of((0i64..2_000_000, 1i64..500_000)),
        proptest::option::of((30.0f64..40.0, 130.0f64..140.0, 0.1f64..5.0)),
        proptest::option::of(prop_oneof![
            Just("weather"),
            Just("weather/rain"),
            Just("social"),
            Just("traffic"),
        ]),
    )
        .prop_map(|(time, area, theme)| {
            let mut q = EventQuery::all();
            if let Some((start, len)) = time {
                q = q.in_time(TimeInterval::new(
                    Timestamp::from_secs(start),
                    Timestamp::from_secs(start + len),
                ));
            }
            if let Some((lat, lon, d)) = area {
                q = q.in_area(BoundingBox::from_corners(
                    GeoPoint::new_unchecked(lat, lon),
                    GeoPoint::new_unchecked((lat + d).min(90.0), (lon + d).min(180.0)),
                ));
            }
            if let Some(t) = theme {
                q = q.with_theme(Theme::new(t).unwrap());
            }
            q
        })
}

/// One step of an ingest/retention interleaving.
#[derive(Debug, Clone)]
enum StoreOp {
    Insert(Event),
    /// `evict_before` at this many seconds.
    Evict(i64),
    /// `evict_before` exactly at the interval end of the n-th stored event
    /// (modulo the population): the `end <= horizon` boundary.
    EvictAtEndOf(usize),
}

fn arb_store_op() -> impl Strategy<Value = StoreOp> {
    // Horizons span the whole event range and are not monotone, so events
    // arrive both long before and long after the horizons around them.
    (0u8..6, arb_event(), 0i64..2_100_000, 0usize..400).prop_map(|(kind, event, sec, n)| match kind
    {
        0 => StoreOp::Evict(sec),
        1 => StoreOp::EvictAtEndOf(n),
        _ => StoreOp::Insert(event),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `evict_before` behaves like filtering `iter()`: same return value,
    /// same survivors in the same order, exact counters, and the indexes
    /// keep answering like a scan — whatever the interleaving of inserts
    /// and (non-monotone) horizons, across tombstoning and repacks.
    #[test]
    fn eviction_equals_filtering(
        ops in proptest::collection::vec(arb_store_op(), 0..400),
        queries in proptest::collection::vec(arb_query(), 1..4),
        segment_capacity in 1usize..64,
    ) {
        let mut w = EventWarehouse::new(WarehouseConfig { segment_capacity });
        let mut model: Vec<Event> = Vec::new();
        for op in ops {
            let horizon = match op {
                StoreOp::Insert(e) => {
                    model.push(e.clone());
                    w.insert(e);
                    continue;
                }
                StoreOp::Evict(sec) => Timestamp::from_secs(sec),
                StoreOp::EvictAtEndOf(n) => match model.get(n % model.len().max(1)) {
                    Some(e) => e.time_interval().end,
                    None => continue,
                },
            };
            let before = model.len();
            model.retain(|e| e.time_interval().end > horizon);
            prop_assert_eq!(w.evict_before(horizon), before - model.len());
            prop_assert!(w.iter().eq(model.iter()), "survivors or their order differ");
            prop_assert_eq!(w.len(), model.len());
            let world = model
                .iter()
                .filter(|e| e.sgranule == sl_stt::SpatialGranule::World)
                .count();
            prop_assert_eq!(w.stats().world_events, world as u64);
            let earliest_end = model.iter().map(|e| e.time_interval().end).min();
            prop_assert_eq!(w.next_expiry(), earliest_end);
            for q in &queries {
                let want: Vec<&Event> = model.iter().filter(|e| q.matches(e)).collect();
                prop_assert_eq!(&w.query(q), &want, "query {:?}", q);
                prop_assert_eq!(&w.query_scan(q), &want, "scan {:?}", q);
            }
        }
        prop_assert!(w.iter().eq(model.iter()));
    }

    /// Indexed queries return exactly the scan result, for arbitrary data
    /// and arbitrary conjunctive queries.
    #[test]
    fn query_equals_scan(
        events in proptest::collection::vec(arb_event(), 0..300),
        queries in proptest::collection::vec(arb_query(), 1..6),
        segment_capacity in 1usize..64,
    ) {
        let mut w = EventWarehouse::new(WarehouseConfig { segment_capacity });
        for e in events {
            w.insert(e);
        }
        for q in &queries {
            let scan: Vec<String> = w.query_scan(q).iter().map(|e| e.to_string()).collect();
            let fast: Vec<String> = w.query(q).iter().map(|e| e.to_string()).collect();
            prop_assert_eq!(&fast, &scan, "query {:?}", q);
        }
    }

    /// Roll-ups conserve counts over the selected population, and every
    /// cell's min <= avg <= max.
    #[test]
    fn rollup_conserves_and_orders(events in proptest::collection::vec(arb_event(), 0..200)) {
        let mut w = EventWarehouse::with_defaults();
        for e in events {
            w.insert(e);
        }
        // Roll up to World so every stored granularity can coarsen (events
        // already at World cannot refine to a grid and would be skipped).
        let q = CubeQuery {
            select: EventQuery::all(),
            tgran: TemporalGranularity::Day,
            sgran: SpatialGranularity::World,
            theme_depth: 1,
        };
        let selected = w.query_scan(&q.select).len();
        let cells = w.rollup(&q);
        let total: u64 = cells.iter().map(|c| c.count).sum();
        prop_assert_eq!(total as usize, selected);
        for c in &cells {
            if let (Some(min), Some(avg), Some(max)) = (c.min, c.avg, c.max) {
                prop_assert!(min <= avg + 1e-9 && avg <= max + 1e-9, "{c:?}");
            }
        }
    }
}
