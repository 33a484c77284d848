//! Property test: DSN print → parse round-trips (demo P2's translation
//! must be loss-free).

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::prelude::*;
use sl_dsn::{
    parse_document, print_document, ChannelDecl, DsnDocument, ServiceDecl, SinkDecl, SinkKind,
    SourceDecl, SourceMode,
};
use sl_netsim::QosSpec;
use sl_ops::{AggFunc, OpSpec};
use sl_pubsub::{SensorKind, SubscriptionFilter};
use sl_stt::{AttrType, BoundingBox, Duration, GeoPoint, Theme, TimeInterval, Timestamp};

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,10}".prop_map(|s| s)
}

fn arb_theme() -> impl Strategy<Value = Theme> {
    prop_oneof![
        Just(Theme::new("weather/temperature").unwrap()),
        Just(Theme::new("weather/rain").unwrap()),
        Just(Theme::new("social/tweet").unwrap()),
        Just(Theme::new("traffic").unwrap()),
    ]
}

fn arb_box() -> impl Strategy<Value = BoundingBox> {
    (-80.0f64..80.0, -170.0f64..170.0, 0.01f64..5.0, 0.01f64..5.0).prop_map(|(lat, lon, dl, dn)| {
        BoundingBox::from_corners(
            GeoPoint::new_unchecked(lat, lon),
            GeoPoint::new_unchecked((lat + dl).min(90.0), (lon + dn).min(180.0)),
        )
    })
}

fn arb_filter() -> impl Strategy<Value = SubscriptionFilter> {
    (
        proptest::option::of(arb_theme()),
        proptest::option::of(arb_box()),
        proptest::option::of(prop_oneof![
            Just(SensorKind::Physical),
            Just(SensorKind::Social)
        ]),
        proptest::collection::vec(("[a-z]{1,6}", 0usize..6), 0..3),
        proptest::option::of("[a-z*?]{1,8}"),
        proptest::option::of(1u64..100_000),
        proptest::collection::vec(("[a-z]{1,6}", 0usize..4), 0..2),
    )
        .prop_map(|(theme, area, kind, attrs, glob, period, units)| {
            let mut f = SubscriptionFilter::any();
            f.theme = theme;
            f.area = area;
            f.kind = kind;
            for (name, ti) in attrs {
                f.required_attrs.push((name, AttrType::ALL[ti]));
            }
            f.name_glob = glob;
            f.max_period = period.map(Duration::from_millis);
            for (name, ui) in units {
                f.required_units.push((name, sl_stt::Unit::ALL[ui]));
            }
            f
        })
}

fn arb_expr_text() -> impl Strategy<Value = String> {
    // Conditions round-trip through the expr printer elsewhere; here we use
    // canonical-form predicates (including quotes needing escape).
    prop_oneof![
        Just("temperature > 25".to_string()),
        Just("a = 'it''s'".to_string()),
        Just("rain > 10 and station != 'x'".to_string()),
        Just("not (a or b)".to_string()),
    ]
}

fn arb_spec() -> impl Strategy<Value = OpSpec> {
    prop_oneof![
        arb_expr_text().prop_map(|condition| OpSpec::Filter { condition }),
        (ident(), arb_expr_text()).prop_map(|(a, e)| OpSpec::Transform {
            assignments: vec![(a, e)]
        }),
        (ident(), arb_expr_text()).prop_map(|(p, s)| OpSpec::VirtualProperty {
            property: p,
            spec: s
        }),
        (0i64..1000, 1i64..1000, 1u64..100).prop_map(|(s, d, rate)| OpSpec::CullTime {
            interval: TimeInterval::new(Timestamp::from_millis(s), Timestamp::from_millis(s + d)),
            rate,
        }),
        (arb_box(), 1u64..100).prop_map(|(area, rate)| OpSpec::CullSpace { area, rate }),
        (
            1u64..10_000_000,
            proptest::collection::vec(ident(), 0..3),
            0usize..5,
            proptest::option::of(ident()),
            proptest::option::of(1u64..10_000_000),
        )
            .prop_map(|(p, group_by, fi, attr, sliding)| {
                let func = AggFunc::ALL[fi];
                // COUNT may omit attr; others need one.
                let attr = if func == AggFunc::Count {
                    attr
                } else {
                    Some(attr.unwrap_or_else(|| "v".into()))
                };
                OpSpec::Aggregate {
                    period: Duration::from_millis(p),
                    group_by,
                    func,
                    attr,
                    sliding: sliding.map(Duration::from_millis),
                }
            }),
        (1u64..10_000_000, arb_expr_text()).prop_map(|(p, predicate)| OpSpec::Join {
            period: Duration::from_millis(p),
            predicate
        }),
        (
            1u64..10_000_000,
            arb_expr_text(),
            proptest::collection::vec(ident(), 1..3)
        )
            .prop_map(|(p, condition, targets)| OpSpec::TriggerOn {
                period: Duration::from_millis(p),
                condition,
                targets,
            }),
        (
            1u64..10_000_000,
            arb_expr_text(),
            proptest::collection::vec(ident(), 1..3)
        )
            .prop_map(|(p, condition, targets)| OpSpec::TriggerOff {
                period: Duration::from_millis(p),
                condition,
                targets,
            }),
    ]
}

fn arb_qos() -> impl Strategy<Value = QosSpec> {
    (
        proptest::option::of(1u64..10_000),
        proptest::option::of(1u64..1_000_000_000),
    )
        .prop_map(|(lat, bw)| QosSpec {
            max_latency: lat.map(Duration::from_millis),
            min_bandwidth_bps: bw,
        })
}

/// Documents here need not be *valid* (round-trip is purely syntactic);
/// names are made unique by suffixing.
fn arb_document() -> impl Strategy<Value = DsnDocument> {
    (
        "[a-z][a-z ]{0,12}",
        proptest::collection::vec((arb_filter(), any::<bool>()), 1..4),
        proptest::collection::vec((arb_spec(), proptest::collection::vec(ident(), 1..3)), 0..4),
        proptest::collection::vec(
            (
                prop_oneof![
                    Just(SinkKind::Warehouse),
                    Just(SinkKind::Console),
                    Just(SinkKind::Visualization)
                ],
                ident(),
            ),
            0..2,
        ),
        proptest::collection::vec((ident(), ident(), arb_qos()), 0..3),
    )
        .prop_map(|(name, sources, services, sinks, channels)| {
            let mut d = DsnDocument::new(&name);
            for (i, (filter, active)) in sources.into_iter().enumerate() {
                d.sources.push(SourceDecl {
                    name: format!("src{i}"),
                    filter,
                    mode: if active {
                        SourceMode::Active
                    } else {
                        SourceMode::Gated
                    },
                });
            }
            for (i, (spec, mut inputs)) in services.into_iter().enumerate() {
                inputs.truncate(spec.input_ports());
                while inputs.len() < spec.input_ports() {
                    inputs.push("src0".into());
                }
                d.services.push(ServiceDecl {
                    name: format!("svc{i}"),
                    spec,
                    inputs,
                });
            }
            for (i, (kind, input)) in sinks.into_iter().enumerate() {
                d.sinks.push(SinkDecl {
                    name: format!("sink{i}"),
                    kind,
                    inputs: vec![input],
                });
            }
            for (from, to, qos) in channels {
                d.channels.push(ChannelDecl { from, to, qos });
            }
            d
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// print → parse → print is a fixpoint, and the reparsed document is
    /// structurally identical.
    #[test]
    fn dsn_print_parse_round_trip(doc in arb_document()) {
        let text1 = print_document(&doc);
        let parsed = parse_document(&text1)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n--- document ---\n{text1}"));
        let text2 = print_document(&parsed);
        prop_assert_eq!(&text1, &text2, "printer not canonical");
        // Structural spot-checks.
        prop_assert_eq!(doc.name, parsed.name);
        prop_assert_eq!(doc.sources.len(), parsed.sources.len());
        prop_assert_eq!(doc.services.len(), parsed.services.len());
        for (a, b) in doc.services.iter().zip(&parsed.services) {
            prop_assert_eq!(a, b);
        }
        for (a, b) in doc.channels.iter().zip(&parsed.channels) {
            prop_assert_eq!(a, b);
        }
        for (a, b) in doc.sources.iter().zip(&parsed.sources) {
            prop_assert_eq!(a.mode, b.mode);
        }
    }
}
