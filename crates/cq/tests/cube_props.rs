//! Roll-up cells against their specification: the string-keyed
//! `cell_slot`, `rollup_events`, `CellAcc` and `numeric_value` of the
//! commit before cells were keyed by value, copied verbatim into
//! `reference` below.
//!
//! Over events at Point, Cell and World granules, named and `Custom`
//! temporal granularities, themes one to four segments deep and Int, Float
//! (NaN and −0.0 included), Bool, Str and Null values, and over arbitrary
//! `CubeQuery`s (incomparable targets included):
//!
//! * `EventWarehouse::rollup` and `rollup_scan` return the reference's
//!   cells, in its order, float bits and all;
//! * a `MaterializedView` driven through interleaved `absorb` and
//!   `retract_before` calls equals the reference over the surviving events
//!   after every step.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::prelude::*;
use sl_cq::MaterializedView;
use sl_stt::{
    BoundingBox, Event, GeoPoint, SpatialGranularity, SpatialGranule, TemporalGranularity, Theme,
    TimeInterval, Timestamp, Value,
};
use sl_warehouse::{CubeCell, CubeQuery, EventQuery, EventWarehouse};

/// The previous roll-up, verbatim.
mod reference {
    use sl_stt::{Event, SpatialGranule, Theme, Value};
    use sl_warehouse::{CubeCell, CubeQuery};
    use std::collections::BTreeMap;

    pub(crate) type CellKey = (i64, String, String);

    #[derive(Debug, Clone)]
    pub(crate) struct CellSlot {
        pub key: CellKey,
        pub sgranule: SpatialGranule,
        pub theme: Theme,
        pub numeric: Option<f64>,
    }

    pub(crate) fn cell_slot(event: &Event, q: &CubeQuery) -> Option<CellSlot> {
        if !q.select.matches(event) {
            return None;
        }
        let tgranule = event.tgran.coarsen(event.tgranule, q.tgran).ok()?;
        let sgranule = event.sgranule.coarsen(q.sgran).ok()?;
        let theme = event.theme.ancestor(q.theme_depth);
        Some(CellSlot {
            key: (tgranule, sgranule.to_string(), theme.to_string()),
            sgranule,
            theme,
            numeric: numeric_value(&event.value),
        })
    }

    #[derive(Debug, Clone, Default, PartialEq)]
    pub(crate) struct CellAcc {
        count: u64,
        sum: f64,
        nnum: u64,
        min: Option<f64>,
        max: Option<f64>,
    }

    impl CellAcc {
        pub(crate) fn new() -> CellAcc {
            CellAcc::default()
        }

        pub(crate) fn absorb(&mut self, numeric: Option<f64>) {
            self.count += 1;
            if let Some(v) = numeric {
                self.sum += v;
                self.nnum += 1;
                self.min = Some(self.min.map_or(v, |m| m.min(v)));
                self.max = Some(self.max.map_or(v, |m| m.max(v)));
            }
        }

        pub(crate) fn to_cell(
            &self,
            tgranule: i64,
            sgranule: SpatialGranule,
            theme: Theme,
        ) -> CubeCell {
            CubeCell {
                tgranule,
                sgranule,
                theme,
                count: self.count,
                avg: (self.nnum > 0).then(|| self.sum / self.nnum as f64),
                sum: self.sum,
                min: self.min,
                max: self.max,
            }
        }
    }

    pub(crate) fn rollup_events<'a>(
        events: impl Iterator<Item = &'a Event>,
        q: &CubeQuery,
    ) -> Vec<CubeCell> {
        let mut cells: BTreeMap<CellKey, (SpatialGranule, Theme, CellAcc)> = BTreeMap::new();
        for event in events {
            let Some(slot) = cell_slot(event, q) else {
                continue;
            };
            let entry = cells
                .entry(slot.key)
                .or_insert_with(|| (slot.sgranule, slot.theme, CellAcc::new()));
            entry.2.absorb(slot.numeric);
        }
        cells
            .into_iter()
            .map(|((tgranule, _, _), (sgranule, theme, acc))| {
                acc.to_cell(tgranule, sgranule, theme)
            })
            .collect()
    }

    pub(crate) fn numeric_value(v: &Value) -> Option<f64> {
        match v {
            Value::Int(_) | Value::Float(_) | Value::Bool(_) => v.as_f64().ok(),
            _ => None,
        }
    }
}

// ------------------------------------------------------------------ inputs

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        (-1_000i64..1_000).prop_map(Value::Int),
        any::<i64>().prop_map(Value::Int),
        (-100.0f64..100.0).prop_map(Value::Float),
        any::<f64>().prop_map(Value::Float),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(-0.0)),
        Just(Value::Float(0.0)),
        Just(Value::Float(1e16)),
        "[a-z]{0,6}".prop_map(Value::Str),
    ]
}

fn arb_tgran() -> impl Strategy<Value = TemporalGranularity> {
    prop_oneof![
        Just(TemporalGranularity::Millisecond),
        Just(TemporalGranularity::Second),
        Just(TemporalGranularity::Minute),
        Just(TemporalGranularity::Hour),
        Just(TemporalGranularity::Day),
        Just(TemporalGranularity::Week),
        Just(TemporalGranularity::Month),
        Just(TemporalGranularity::Year),
        prop_oneof![
            Just(TemporalGranularity::Custom(1_000)),
            Just(TemporalGranularity::Custom(90_000)),
            (1u64..10_000_000).prop_map(TemporalGranularity::Custom),
        ],
    ]
}

fn arb_sgranule() -> impl Strategy<Value = SpatialGranule> {
    prop_oneof![
        // Around Osaka, where granules of one grid cell pile up...
        (346_000_000i64..348_000_000, 1_354_000_000i64..1_356_000_000)
            .prop_map(|(lat_e7, lon_e7)| SpatialGranule::Point { lat_e7, lon_e7 }),
        // ...and anywhere on the globe, negatives included.
        (
            -900_000_000i64..900_000_000,
            -1_800_000_000i64..1_800_000_000
        )
            .prop_map(|(lat_e7, lon_e7)| SpatialGranule::Point { lat_e7, lon_e7 }),
        (0u8..=12, 0i32..8, 0i32..8).prop_map(|(level, ix, iy)| SpatialGranule::Cell {
            level,
            ix,
            iy
        }),
        (0u8..=20, -200_000i32..200_000, -100_000i32..100_000)
            .prop_map(|(level, ix, iy)| SpatialGranule::Cell { level, ix, iy }),
        Just(SpatialGranule::World),
    ]
}

fn arb_sgran() -> impl Strategy<Value = SpatialGranularity> {
    prop_oneof![
        Just(SpatialGranularity::Point),
        (0u8..=20).prop_map(SpatialGranularity::grid),
        Just(SpatialGranularity::World),
    ]
}

/// One to four segments from a small alphabet, so that ancestors collide.
fn arb_theme() -> impl Strategy<Value = Theme> {
    proptest::collection::vec(
        prop_oneof![
            Just("weather"),
            Just("rain"),
            Just("w"),
            Just("social"),
            Just("x1")
        ],
        1..5,
    )
    .prop_map(|segments| Theme::new(&segments.join("/")).expect("valid segments"))
}

fn arb_event() -> impl Strategy<Value = Event> {
    (
        arb_value(),
        prop_oneof![
            prop_oneof![
                Just(TemporalGranularity::Second),
                Just(TemporalGranularity::Minute),
                Just(TemporalGranularity::Custom(1_000)),
            ],
            arb_tgran(),
        ],
        prop_oneof![0i64..64, 0i64..64, 0i64..64, -1_000_000i64..1_000_000],
        arb_sgranule(),
        arb_theme(),
    )
        .prop_map(|(v, tg, tgranule, sg, theme)| Event::new(v, tg, tgranule, sg, theme))
}

fn arb_select() -> impl Strategy<Value = EventQuery> {
    (
        (-100_000_000i64..100_000_000, 1i64..1_000_000_000),
        (-90.0f64..90.0, -180.0f64..180.0, 0.0f64..40.0),
        arb_theme(),
        0u8..16,
    )
        .prop_map(|((from, len), (lat, lon, edge), theme, pick)| {
            // Half the selections are match-all; the others constrain time,
            // area and theme in every combination.
            let mut q = EventQuery::all();
            if pick & 1 == 1 {
                q = q.in_time(TimeInterval::new(
                    Timestamp::from_millis(from),
                    Timestamp::from_millis(from + len),
                ));
            }
            if pick & 2 == 2 {
                q = q.in_area(BoundingBox::from_corners(
                    GeoPoint::new_unchecked(lat, lon),
                    GeoPoint::new_unchecked(lat + edge, lon + edge),
                ));
            }
            if pick & 4 == 4 {
                q = q.with_theme(theme);
            }
            if pick >= 8 {
                q = EventQuery::all();
            }
            q
        })
}

fn arb_query() -> impl Strategy<Value = CubeQuery> {
    (
        arb_select(),
        prop_oneof![
            prop_oneof![
                Just(TemporalGranularity::Hour),
                Just(TemporalGranularity::Day),
                Just(TemporalGranularity::Custom(90_000)),
            ],
            arb_tgran(),
        ],
        prop_oneof![
            prop_oneof![
                Just(SpatialGranularity::World),
                (0u8..4).prop_map(SpatialGranularity::grid),
            ],
            arb_sgran(),
        ],
        prop_oneof![1usize..3, 0usize..6],
    )
        .prop_map(|(select, tgran, sgran, theme_depth)| CubeQuery {
            select,
            tgran,
            sgran,
            theme_depth,
        })
}

/// A cell in comparable form: every float by its bits.
type Bits = (
    i64,
    SpatialGranule,
    String,
    u64,
    Option<u64>,
    u64,
    Option<u64>,
    Option<u64>,
);

fn bits(cells: &[CubeCell]) -> Vec<Bits> {
    cells
        .iter()
        .map(|c| {
            (
                c.tgranule,
                c.sgranule,
                c.theme.as_str().to_string(),
                c.count,
                c.avg.map(f64::to_bits),
                c.sum.to_bits(),
                c.min.map(f64::to_bits),
                c.max.map(f64::to_bits),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rollup_and_rollup_scan_equal_the_reference(
        events in proptest::collection::vec(arb_event(), 0..120),
        queries in proptest::collection::vec(arb_query(), 1..6),
    ) {
        let mut w = EventWarehouse::with_defaults();
        for e in &events {
            w.insert(e.clone());
        }
        for q in &queries {
            let want = bits(&reference::rollup_events(events.iter(), q));
            prop_assert_eq!(bits(&w.rollup_scan(q)), want.clone(), "rollup_scan, {:?}", q);
            prop_assert_eq!(bits(&w.rollup(q)), want, "rollup, {:?}", q);
        }
    }

    #[test]
    fn a_view_equals_the_reference_over_the_surviving_events(
        steps in proptest::collection::vec(
            prop_oneof![
                arb_event().prop_map(Ok),
                // A retraction horizon somewhere in the events' range.
                (-60_000_000i64..4_000_000_000).prop_map(Err),
            ],
            1..150,
        ),
        q in arb_query(),
    ) {
        let mut view = MaterializedView::new(q.clone());
        let mut surviving: Vec<Event> = Vec::new();
        for step in steps {
            match step {
                Ok(event) => {
                    view.absorb(&event);
                    surviving.push(event);
                }
                Err(h) => {
                    view.retract_before(Timestamp::from_millis(h));
                    surviving.retain(|e| e.time_interval().end.as_millis() > h);
                }
            }
            let want = bits(&reference::rollup_events(surviving.iter(), &q));
            prop_assert_eq!(bits(&view.cells()), want, "view, {:?}", q);
        }
    }
}
