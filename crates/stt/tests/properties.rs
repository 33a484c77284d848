//! Property-based tests for the STT data model invariants.

use proptest::prelude::*;
use sl_stt::{
    BoundingBox, GeoPoint, SpatialGranularity, TemporalGranularity, Theme, Timestamp, Unit, Value,
};

fn arb_timestamp() -> impl Strategy<Value = Timestamp> {
    // ±~270 years around the epoch.
    (-8_500_000_000_000i64..8_500_000_000_000i64).prop_map(Timestamp::from_millis)
}

fn arb_fixed_gran() -> impl Strategy<Value = TemporalGranularity> {
    prop_oneof![
        Just(TemporalGranularity::Millisecond),
        Just(TemporalGranularity::Second),
        Just(TemporalGranularity::Minute),
        Just(TemporalGranularity::Hour),
        Just(TemporalGranularity::Day),
        Just(TemporalGranularity::Week),
        (1u64..10_000_000).prop_map(TemporalGranularity::Custom),
    ]
}

fn arb_gran() -> impl Strategy<Value = TemporalGranularity> {
    prop_oneof![
        arb_fixed_gran(),
        Just(TemporalGranularity::Month),
        Just(TemporalGranularity::Year),
    ]
}

fn arb_point() -> impl Strategy<Value = GeoPoint> {
    (-90.0f64..=90.0, -180.0f64..=180.0).prop_map(|(lat, lon)| GeoPoint::new_unchecked(lat, lon))
}

proptest! {
    /// Every timestamp lies inside the interval of its granule, for every
    /// granularity (including calendar ones).
    #[test]
    fn granule_interval_contains_timestamp(t in arb_timestamp(), g in arb_gran()) {
        let idx = g.granule_of(t);
        let iv = g.granule_interval(idx);
        prop_assert!(iv.contains(t), "{g}: granule {idx} = {iv} missing {t}");
    }

    /// Granule intervals tile the line: the interval of granule i+1 starts
    /// exactly where granule i ends.
    #[test]
    fn granules_tile(t in arb_timestamp(), g in arb_gran()) {
        let idx = g.granule_of(t);
        let a = g.granule_interval(idx);
        let b = g.granule_interval(idx + 1);
        prop_assert_eq!(a.end, b.start);
    }

    /// Coarsening is consistent with direct granule computation.
    #[test]
    fn coarsen_consistent(t in arb_timestamp(), a in arb_gran(), b in arb_gran()) {
        if a.finer_or_equal(b) {
            let fine = a.granule_of(t);
            let coarse = a.coarsen(fine, b).unwrap();
            prop_assert_eq!(coarse, b.granule_of(a.granule_interval(fine).start));
        }
    }

    /// finer_or_equal is a partial order: reflexive and transitive on the
    /// named granularities.
    #[test]
    fn finer_or_equal_transitive(t in arb_gran(), u in arb_gran(), v in arb_gran()) {
        prop_assert!(t.finer_or_equal(t));
        if t.finer_or_equal(u) && u.finer_or_equal(v) {
            prop_assert!(t.finer_or_equal(v), "{t} <= {u} <= {v}");
        }
    }

    /// meet() really is a lower bound of both arguments.
    #[test]
    fn meet_is_lower_bound(a in arb_gran(), b in arb_gran()) {
        let m = a.meet(b);
        prop_assert!(m.finer_or_equal(a), "meet({a},{b})={m} !<= {a}");
        prop_assert!(m.finer_or_equal(b), "meet({a},{b})={m} !<= {b}");
    }

    /// truncate() is idempotent and never moves a timestamp forward.
    #[test]
    fn truncate_idempotent(t in arb_timestamp(), g in arb_gran()) {
        let once = g.truncate(t);
        prop_assert!(once <= t);
        prop_assert_eq!(g.truncate(once), once);
    }

    /// Civil date round-trips through from_civil.
    #[test]
    fn civil_round_trip(t in arb_timestamp()) {
        let (y, mo, d) = t.civil_date();
        let (h, mi, s) = t.time_of_day();
        let rebuilt = Timestamp::from_civil(y, mo, d, h, mi, s);
        // Equal up to sub-second precision.
        prop_assert_eq!(rebuilt.as_millis(), t.as_millis() - t.as_millis().rem_euclid(1000));
    }

    /// Spatial: a point is always inside its granule's extent, at every level.
    #[test]
    fn spatial_granule_contains_point(p in arb_point(), level in 0u8..=18) {
        let g = SpatialGranularity::grid(level);
        let cell = g.granule_of(&p);
        prop_assert!(cell.extent().contains(&p));
    }

    /// Spatial coarsening commutes with direct computation.
    #[test]
    fn spatial_coarsen_commutes(p in arb_point(), fine in 6u8..=16, coarse in 0u8..=5) {
        let fg = SpatialGranularity::grid(fine);
        let cg = SpatialGranularity::grid(coarse);
        let via = fg.granule_of(&p).coarsen(cg).unwrap();
        prop_assert_eq!(via, cg.granule_of(&p));
    }

    /// Haversine distance is a semi-metric: symmetric, zero on identity,
    /// and bounded by half the Earth's circumference.
    #[test]
    fn haversine_semi_metric(a in arb_point(), b in arb_point()) {
        let d1 = a.haversine_distance_m(&b);
        let d2 = b.haversine_distance_m(&a);
        prop_assert!((d1 - d2).abs() < 1e-6);
        prop_assert!(d1 >= 0.0);
        prop_assert!(d1 <= 20_100_000.0, "distance {d1}");
        prop_assert!(a.haversine_distance_m(&a) < 1e-9);
    }

    /// Bounding boxes: union contains both inputs' corners.
    #[test]
    fn bbox_union_contains(a1 in arb_point(), a2 in arb_point(), b1 in arb_point(), b2 in arb_point()) {
        let x = BoundingBox::from_corners(a1, a2);
        let y = BoundingBox::from_corners(b1, b2);
        let u = x.union(&y);
        for p in [x.min, x.max, y.min, y.max] {
            prop_assert!(u.contains(&p));
        }
    }

    /// Unit conversion round-trips within the same quantity.
    #[test]
    fn unit_round_trip(v in -1e6f64..1e6, ai in 0usize..22, bi in 0usize..22) {
        let a = Unit::ALL[ai];
        let b = Unit::ALL[bi];
        if a.quantity() == b.quantity() {
            let out = a.convert(v, b).unwrap();
            let back = b.convert(out, a).unwrap();
            let tol = 1e-6 * v.abs().max(1.0);
            prop_assert!((back - v).abs() < tol, "{a}->{b}: {v} -> {out} -> {back}");
        } else {
            prop_assert!(a.convert(v, b).is_err());
        }
    }

    /// Value::total_cmp is antisymmetric (a total order needs this).
    #[test]
    fn value_cmp_antisymmetric(a in arb_value(), b in arb_value()) {
        prop_assert_eq!(a.total_cmp(&b), b.total_cmp(&a).reverse());
    }

    /// parse_as(display) round-trips ints and bools.
    #[test]
    fn value_parse_display_ints(i in any::<i64>()) {
        let v = Value::Int(i);
        let parsed = Value::parse_as(&v.to_string(), sl_stt::AttrType::Int).unwrap();
        prop_assert_eq!(parsed, v);
    }

    /// `Theme::new` shares canonical input as it stands; whatever the
    /// spelling, the outcome is what normalising every path would give.
    #[test]
    fn theme_new_equals_the_normalising_path(path in arb_theme_spelling()) {
        let got = Theme::new(&path).map(|t| t.as_str().to_string()).ok();
        prop_assert_eq!(got, normalised(&path), "spelling {:?}", path);
    }

    /// `ancestor(depth)` is the first `depth` segments, validated or not.
    #[test]
    fn theme_ancestor_is_the_segment_prefix(path in "[ab/]{1,9}", depth in 0usize..6) {
        if let Ok(theme) = Theme::new(&path) {
            let segs: Vec<&str> = theme.segments().collect();
            let want = if depth == 0 || segs.len() <= depth {
                theme.clone()
            } else {
                Theme::new(&segs[..depth].join("/")).unwrap()
            };
            prop_assert_eq!(theme.ancestor(depth), want);
        }
    }
}

/// Theme spellings over a small alphabet, so that canonical paths, upper
/// case, inner and outer whitespace (ASCII and not), doubled and edge
/// slashes and non-ASCII letters all turn up often.
fn arb_theme_spelling() -> impl Strategy<Value = String> {
    "[abAZ /\u{3000}\u{e9}\u{c9}]{0,10}"
}

/// What `Theme::new` makes of a path when it normalises unconditionally:
/// trim, strip edge slashes, reject blank segments, trim and ASCII-lowercase
/// each segment.
fn normalised(path: &str) -> Option<String> {
    let trimmed = path.trim().trim_matches('/');
    if trimmed.is_empty() || trimmed.split('/').any(|seg| seg.trim().is_empty()) {
        return None;
    }
    let segs: Vec<String> = trimmed
        .split('/')
        .map(|s| s.trim().to_ascii_lowercase())
        .collect();
    Some(segs.join("/"))
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        "[a-z]{0,8}".prop_map(Value::Str),
        (-1_000_000_000i64..1_000_000_000).prop_map(|ms| Value::Time(Timestamp::from_millis(ms))),
    ]
}
