//! Events of every temporal granularity in one store: the indexed query
//! and roll-up paths agree with the scans however long an event is against
//! the time index's minute granule. The time index keys an event by the
//! minute it starts in, so a query must read back as far as the longest
//! stored interval, across inserts, evictions and the repacks they cause.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::prelude::*;
use sl_stt::{
    BoundingBox, Event, GeoPoint, SpatialGranularity, SpatialGranule, TemporalGranularity, Theme,
    TimeInterval, Timestamp, Value,
};
use sl_warehouse::{CubeQuery, EventQuery, EventWarehouse, WarehouseConfig};

/// Two years of milliseconds from 2016-01-01: wide enough for year-long
/// events to start in one year and queries to fall in the next.
const ORIGIN_MS: i64 = 1_451_606_400_000;
const SPAN_MS: i64 = 2 * 366 * 86_400_000;

fn arb_tgran() -> impl Strategy<Value = TemporalGranularity> {
    prop_oneof![
        Just(TemporalGranularity::Second),
        Just(TemporalGranularity::Minute),
        Just(TemporalGranularity::Hour),
        Just(TemporalGranularity::Day),
        Just(TemporalGranularity::Week),
        Just(TemporalGranularity::Month),
        Just(TemporalGranularity::Year),
        (1u64..50_000_000).prop_map(TemporalGranularity::Custom),
    ]
}

fn arb_event() -> impl Strategy<Value = Event> {
    let themes = prop_oneof![
        Just("weather/temperature"),
        Just("weather/rain"),
        Just("social/tweet"),
        Just("traffic"),
    ];
    (
        0..SPAN_MS,
        arb_tgran(),
        themes,
        30.0f64..40.0,
        130.0f64..140.0,
        -50.0f64..50.0,
        0u8..8, // one event in eight at the World granule
    )
        .prop_map(|(ms, tgran, theme, lat, lon, v, world)| {
            let sgranule = if world == 0 {
                SpatialGranule::World
            } else {
                SpatialGranularity::grid(9).granule_of(&GeoPoint::new_unchecked(lat, lon))
            };
            Event::new(
                Value::Float(v),
                tgran,
                tgran.granule_of(Timestamp::from_millis(ORIGIN_MS + ms)),
                sgranule,
                Theme::new(theme).unwrap(),
            )
        })
}

fn arb_query() -> impl Strategy<Value = EventQuery> {
    (
        proptest::option::of((0..SPAN_MS, 0i64..40 * 86_400_000)),
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
                let start = ORIGIN_MS + start;
                q = q.in_time(TimeInterval::new(
                    Timestamp::from_millis(start),
                    Timestamp::from_millis(start + len),
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

fn arb_cube() -> impl Strategy<Value = CubeQuery> {
    (
        arb_query(),
        prop_oneof![
            Just(TemporalGranularity::Hour),
            Just(TemporalGranularity::Day),
            Just(TemporalGranularity::Month),
            Just(TemporalGranularity::Year),
        ],
        prop_oneof![
            Just(SpatialGranularity::World),
            Just(SpatialGranularity::grid(3))
        ],
        1usize..3,
    )
        .prop_map(|(select, tgran, sgran, theme_depth)| CubeQuery {
            select,
            tgran,
            sgran,
            theme_depth,
        })
}

/// Every query and roll-up answers as its scan does, in the same order.
fn assert_agrees(w: &mut EventWarehouse, queries: &[EventQuery], cubes: &[CubeQuery]) {
    for q in queries {
        assert_eq!(w.query(q), w.query_scan(q), "query {q:?}");
    }
    for c in cubes {
        let scan = w.rollup_scan(c);
        assert_eq!(w.rollup(c), scan, "rollup {c:?}");
    }
}

#[test]
fn a_day_long_event_is_found_at_noon() {
    // Read at 00:30, the event covers the whole day; the index keys it at
    // the day's first granule, hours before a query at noon begins.
    let mut w = EventWarehouse::with_defaults();
    let day = TemporalGranularity::Day;
    w.insert(Event::new(
        Value::Float(1.0),
        day,
        day.granule_of(Timestamp::from_civil(2016, 7, 1, 0, 30, 0)),
        SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(34.7, 135.5)),
        Theme::new("weather").unwrap(),
    ));
    let q = EventQuery::all().in_time(TimeInterval::new(
        Timestamp::from_civil(2016, 7, 1, 12, 0, 0),
        Timestamp::from_civil(2016, 7, 1, 12, 10, 0),
    ));
    assert_eq!(w.query_scan(&q).len(), 1);
    assert_eq!(w.query(&q), w.query_scan(&q));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn mixed_granularities_query_as_scanned(
        events in proptest::collection::vec(arb_event(), 0..200),
        queries in proptest::collection::vec(arb_query(), 1..6),
        cubes in proptest::collection::vec(arb_cube(), 1..3),
        horizons in proptest::collection::vec(0..SPAN_MS, 0..3),
        segment_capacity in 1usize..64,
    ) {
        let mut w = EventWarehouse::new(WarehouseConfig { segment_capacity });
        for e in events {
            w.insert(e);
        }
        assert_agrees(&mut w, &queries, &cubes);
        // Evictions tombstone events; once tombstones outnumber the live
        // ones the store repacks and re-measures the longest interval from
        // the survivors.
        let mut horizons = horizons;
        horizons.sort_unstable();
        for h in horizons {
            w.evict_before(Timestamp::from_millis(ORIGIN_MS + h));
            assert_agrees(&mut w, &queries, &cubes);
        }
    }
}
