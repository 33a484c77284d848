//! Record generators shared by the codec suites: arbitrary `Value`s of every
//! kind (NaN, infinities and −0.0 included), every temporal granularity
//! (`Custom` too), every spatial granule kind, themes one to three segments
//! deep, and every record kind.

use proptest::prelude::*;
use sl_durable::Record;
use sl_ops::OpCheckpoint;
use sl_stt::{
    AttrType, Event, Field, GeoPoint, Schema, SensorId, SpatialGranule, SttMeta,
    TemporalGranularity, Theme, Timestamp, Tuple, Unit, Value,
};

pub fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        Just(Value::Float(f64::NAN)),
        Just(Value::Float(f64::INFINITY)),
        Just(Value::Float(-0.0)),
        "[a-z]{0,12}".prop_map(Value::Str),
        any::<i64>().prop_map(|ms| Value::Time(Timestamp::from_millis(ms))),
        (-90.0f64..90.0, -180.0f64..180.0)
            .prop_map(|(lat, lon)| Value::Geo(GeoPoint::new_unchecked(lat, lon))),
    ]
}

pub fn arb_tgran() -> impl Strategy<Value = TemporalGranularity> {
    prop_oneof![
        Just(TemporalGranularity::Millisecond),
        Just(TemporalGranularity::Second),
        Just(TemporalGranularity::Minute),
        Just(TemporalGranularity::Hour),
        Just(TemporalGranularity::Day),
        Just(TemporalGranularity::Week),
        Just(TemporalGranularity::Month),
        Just(TemporalGranularity::Year),
        (1u64..10_000_000).prop_map(TemporalGranularity::Custom),
    ]
}

pub fn arb_sgranule() -> impl Strategy<Value = SpatialGranule> {
    prop_oneof![
        (
            -900_000_000i64..900_000_000,
            -1_800_000_000i64..1_800_000_000
        )
            .prop_map(|(lat_e7, lon_e7)| SpatialGranule::Point { lat_e7, lon_e7 }),
        (0u8..=20, -100_000i32..100_000, -100_000i32..100_000)
            .prop_map(|(level, ix, iy)| SpatialGranule::Cell { level, ix, iy }),
        Just(SpatialGranule::World),
    ]
}

pub fn arb_theme() -> impl Strategy<Value = Theme> {
    ("[a-z]{1,6}", proptest::option::of("[a-z]{1,6}")).prop_map(|(root, child)| {
        let theme = Theme::new(&root).expect("lowercase segment is valid");
        match child {
            Some(c) => theme.child(&c).expect("lowercase segment is valid"),
            None => theme,
        }
    })
}

pub fn arb_event() -> impl Strategy<Value = Event> {
    (
        arb_value(),
        arb_tgran(),
        any::<i64>(),
        arb_sgranule(),
        arb_theme(),
    )
        .prop_map(|(v, tg, tgranule, sg, theme)| Event::new(v, tg, tgranule, sg, theme))
}

pub fn arb_tuple() -> impl Strategy<Value = Tuple> {
    (
        proptest::collection::vec(
            (0usize..AttrType::ALL.len(), 0usize..=Unit::ALL.len()),
            1..5,
        ),
        any::<i64>(),
        proptest::option::of((-90.0f64..90.0, -180.0f64..180.0)),
        arb_theme(),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(field_specs, ts, loc, theme, sensor, trace)| {
            let mut fields = Vec::new();
            let mut values = Vec::new();
            for (i, (ty_i, unit_i)) in field_specs.iter().enumerate() {
                let name = format!("f{i}");
                let ty = AttrType::ALL[*ty_i];
                fields.push(match unit_i.checked_sub(1) {
                    Some(u) => Field::with_unit(&name, ty, Unit::ALL[u]),
                    None => Field::new(&name, ty),
                });
                // Any value is storable regardless of declared type; use a
                // deterministic mix so every variant gets exercised.
                values.push(match ty {
                    AttrType::Bool => Value::Bool(i % 2 == 0),
                    AttrType::Int => Value::Int(i as i64 - 2),
                    AttrType::Float => Value::Float(i as f64 * 0.5),
                    AttrType::Str => Value::Str(format!("s{i}")),
                    AttrType::Time => Value::Time(Timestamp::from_millis(ts ^ i as i64)),
                    AttrType::Geo => Value::Geo(GeoPoint::new_unchecked(1.0, 2.0)),
                });
            }
            let schema = Schema::new(fields)
                .expect("generated names are unique")
                .into_ref();
            let meta = SttMeta {
                timestamp: Timestamp::from_millis(ts),
                location: loc.map(|(lat, lon)| GeoPoint::new_unchecked(lat, lon)),
                theme,
                sensor: SensorId(sensor),
                trace,
            };
            Tuple::new(schema, values, meta).expect("arity matches")
        })
}

pub fn arb_record() -> impl Strategy<Value = Record> {
    prop_oneof![
        arb_event().prop_map(Record::Event),
        (
            "[a-z]{1,8}",
            "[a-z]{1,8}",
            proptest::collection::vec((0usize..4, arb_tuple()), 0..4),
        )
            .prop_map(|(deployment, service, tuples)| Record::Checkpoint {
                deployment,
                service,
                state: OpCheckpoint { tuples },
            }),
        (
            "[a-z]{1,8}",
            "[a-z]{1,8}",
            0usize..100_000,
            proptest::collection::vec((0usize..4, arb_tuple()), 0..4),
        )
            .prop_map(
                |(deployment, service, evicted, appended)| Record::CheckpointDelta {
                    deployment,
                    service,
                    evicted,
                    appended,
                }
            ),
        any::<i64>().prop_map(|ms| Record::Horizon(Timestamp::from_millis(ms))),
    ]
}

/// Theme spellings a writer other than this codec might leave on disk:
/// canonical, non-canonical and invalid.
pub fn arb_theme_spelling() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("weather/rain"),
        Just("Weather/ Rain"),
        Just("a//b"),
        Just(" social/Tweet/"),
        Just(""),
        Just("weather"),
    ]
}

/// An event payload whose theme field holds `spelling` byte for byte. The
/// theme is the payload's last field: a `u32` length and the bytes.
pub fn event_with_theme_spelling(mut event: Event, spelling: &str) -> Vec<u8> {
    event.theme = Theme::new("x").unwrap();
    let mut payload = Record::Event(event).encode();
    payload.truncate(payload.len() - 5);
    payload.extend_from_slice(&(spelling.len() as u32).to_le_bytes());
    payload.extend_from_slice(spelling.as_bytes());
    payload
}
