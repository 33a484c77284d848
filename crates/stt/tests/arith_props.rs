//! The granule arithmetic and `Value::total_cmp`, written without `expect`,
//! against the definitions they replaced, kept here verbatim as the
//! specification: same granule, same interval, same ordering, and nothing
//! panics (these tests run with overflow checks on).
//!
//! The civil range is every timestamp whose granule's end is still a
//! representable millisecond: ±`i64::MAX / 2` ms, about ±146 million years.

#![allow(clippy::unwrap_used, clippy::expect_used)] // the specification below unwraps

use proptest::prelude::*;
use sl_stt::{TemporalGranularity, TimeInterval, Timestamp, Value};
use std::cmp::Ordering;

const CIVIL: i64 = i64::MAX / 2;

// ---- the specification: the definitions before the panic ban ----

fn spec_granule_of(g: TemporalGranularity, t: Timestamp) -> i64 {
    match g {
        TemporalGranularity::Month => {
            let (y, m, _) = t.civil_date();
            i64::from(y - 1970) * 12 + i64::from(m) - 1
        }
        TemporalGranularity::Year => {
            let (y, _, _) = t.civil_date();
            i64::from(y - 1970)
        }
        g => {
            let p = g.fixed_millis().expect("fixed granularity") as i64;
            t.as_millis().div_euclid(p)
        }
    }
}

fn spec_granule_interval(g: TemporalGranularity, idx: i64) -> TimeInterval {
    match g {
        TemporalGranularity::Month => {
            let (sy, sm) = month_index_to_ym(idx);
            let (ey, em) = month_index_to_ym(idx + 1);
            TimeInterval::new(
                Timestamp::from_civil(sy, sm, 1, 0, 0, 0),
                Timestamp::from_civil(ey, em, 1, 0, 0, 0),
            )
        }
        TemporalGranularity::Year => {
            let y = 1970 + i32::try_from(idx).expect("year index overflow");
            TimeInterval::new(
                Timestamp::from_civil(y, 1, 1, 0, 0, 0),
                Timestamp::from_civil(y + 1, 1, 1, 0, 0, 0),
            )
        }
        g => {
            let p = g.fixed_millis().expect("fixed granularity") as i64;
            TimeInterval::new(
                Timestamp::from_millis(idx * p),
                Timestamp::from_millis((idx + 1) * p),
            )
        }
    }
}

fn month_index_to_ym(idx: i64) -> (i32, u32) {
    let y = 1970 + idx.div_euclid(12);
    let m = idx.rem_euclid(12) + 1;
    (i32::try_from(y).expect("year overflow"), m as u32)
}

fn spec_total_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        (Value::Int(a), Value::Int(b)) => a.cmp(b),
        (a @ (Value::Int(_) | Value::Float(_)), b @ (Value::Int(_) | Value::Float(_))) => {
            let fa = a.as_f64().expect("numeric");
            let fb = b.as_f64().expect("numeric");
            fa.total_cmp(&fb)
        }
        _ => unreachable!("numeric values only"),
    }
}

// ---- inputs ----

fn arb_gran() -> impl Strategy<Value = TemporalGranularity> {
    prop_oneof![
        (0usize..TemporalGranularity::NAMED.len()).prop_map(|i| TemporalGranularity::NAMED[i]),
        (1u64..=u64::from(u32::MAX)).prop_map(TemporalGranularity::Custom),
    ]
}

/// Anywhere in the civil range, near the present, or one millisecond either
/// side of a month boundary.
fn arb_civil_ts() -> impl Strategy<Value = Timestamp> {
    prop_oneof![
        (-CIVIL..=CIVIL).prop_map(Timestamp::from_millis),
        (-10_000_000_000_000i64..10_000_000_000_000).prop_map(Timestamp::from_millis),
        (-400_000i32..400_000, 1u32..=12, -1i64..=1).prop_map(|(y, m, d)| {
            Timestamp::from_millis(Timestamp::from_civil(y, m, 1, 0, 0, 0).as_millis() + d)
        }),
    ]
}

const EDGE_FLOATS: [f64; 12] = [
    f64::NAN,
    -f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::MIN_POSITIVE,
    f64::MAX,
    f64::MIN,
    i64::MAX as f64,
    i64::MIN as f64,
    9_007_199_254_740_994.0,
];

const EDGE_INTS: [i64; 8] = [
    i64::MIN,
    i64::MAX,
    0,
    -1,
    1,
    9_007_199_254_740_992,
    9_007_199_254_740_993,
    -9_007_199_254_740_993,
];

fn edge_values() -> Vec<Value> {
    let floats = EDGE_FLOATS.iter().map(|&f| Value::Float(f));
    floats
        .chain(EDGE_INTS.iter().map(|&i| Value::Int(i)))
        .collect()
}

fn arb_numeric() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        (0usize..EDGE_FLOATS.len()).prop_map(|i| Value::Float(EDGE_FLOATS[i])),
        (0usize..EDGE_INTS.len()).prop_map(|i| Value::Int(EDGE_INTS[i])),
        // Ints and floats that sit on the same f64.
        any::<i32>().prop_map(|i| Value::Float(f64::from(i))),
        any::<i32>().prop_map(|i| Value::Int(i64::from(i))),
    ]
}

/// Every named granularity at the two ends of the civil range and at the
/// epoch, where the arithmetic is closest to overflowing or to a sign flip.
#[test]
fn granules_at_the_ends_of_the_civil_range() {
    for g in TemporalGranularity::NAMED {
        for ms in [-CIVIL, -CIVIL + 1, -1, 0, 1, CIVIL - 1, CIVIL] {
            let t = Timestamp::from_millis(ms);
            let idx = g.granule_of(t);
            assert_eq!(idx, spec_granule_of(g, t), "{g} at {ms}");
            assert_eq!(g.granule_interval(idx), spec_granule_interval(g, idx));
            assert!(g.granule_interval(idx).contains(t), "{g} at {ms}");
            assert!(g.truncate(t) <= t);
        }
    }
}

/// Every Int/Float pairing of the edge values orders as it did.
#[test]
fn total_cmp_on_every_edge_pair() {
    let edges = edge_values();
    for a in &edges {
        for b in &edges {
            assert_eq!(a.total_cmp(b), spec_total_cmp(a, b), "{a:?} vs {b:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// A timestamp's granule is the specification's, its interval contains
    /// it, and truncating never moves it forward.
    #[test]
    fn granule_of_matches_the_specification(t in arb_civil_ts(), g in arb_gran()) {
        let idx = g.granule_of(t);
        prop_assert_eq!(idx, spec_granule_of(g, t));
        let iv = g.granule_interval(idx);
        prop_assert_eq!(iv, spec_granule_interval(g, idx));
        prop_assert!(iv.contains(t), "{g}: granule {idx} = {iv} missing {t}");
        prop_assert!(g.truncate(t) <= t);
    }

    /// Calendar granule indexes map to the specification's intervals, also
    /// where no sampled timestamp lands.
    #[test]
    fn calendar_intervals_match_the_specification(
        months in -1_200_000_000i64..1_200_000_000,
        years in -100_000_000i64..100_000_000,
    ) {
        let (month, year) = (TemporalGranularity::Month, TemporalGranularity::Year);
        prop_assert_eq!(month.granule_interval(months), spec_granule_interval(month, months));
        prop_assert_eq!(year.granule_interval(years), spec_granule_interval(year, years));
    }

    /// `Value::total_cmp` on Int/Float mixes is the specification's.
    #[test]
    fn total_cmp_matches_the_specification(a in arb_numeric(), b in arb_numeric()) {
        prop_assert_eq!(a.total_cmp(&b), spec_total_cmp(&a, &b), "{:?} vs {:?}", a, b);
    }
}
