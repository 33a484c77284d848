//! Property-based integration tests: randomly generated pipelines of
//! Table-1 operators behave like their mathematical definitions when run
//! through the sample debugger, and optimisation preserves behaviour.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::prelude::*;
use std::collections::HashMap;
use streamloader::dataflow::{debug_run, optimize, DataflowBuilder};
use streamloader::dsn::SinkKind;
use streamloader::pubsub::SubscriptionFilter;
use streamloader::stt::{
    AttrType, Duration, Field, GeoPoint, Schema, SchemaRef, SensorId, SttMeta, Theme, Timestamp,
    Tuple, Value,
};

fn schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("a", AttrType::Float),
        Field::new("b", AttrType::Float),
        Field::new("k", AttrType::Int),
    ])
    .unwrap()
    .into_ref()
}

fn tuple(a: f64, b: f64, k: i64, sec: i64) -> Tuple {
    Tuple::new(
        schema(),
        vec![Value::Float(a), Value::Float(b), Value::Int(k)],
        SttMeta::new(
            Timestamp::from_secs(sec),
            GeoPoint::new_unchecked(34.7, 135.5),
            Theme::new("weather").unwrap(),
            SensorId(0),
        ),
    )
    .unwrap()
}

fn arb_samples() -> impl Strategy<Value = Vec<Tuple>> {
    proptest::collection::vec((-100.0f64..100.0, -100.0f64..100.0, 0i64..5), 0..40).prop_map(
        |rows| {
            rows.into_iter()
                .enumerate()
                .map(|(i, (a, b, k))| tuple(a, b, k, i as i64))
                .collect()
        },
    )
}

/// A filter condition with a known closure for checking.
#[derive(Debug, Clone)]
enum Cond {
    AGt(f64),
    BLe(f64),
    KEq(i64),
    AplusBGt(f64),
}

impl Cond {
    fn text(&self) -> String {
        match self {
            Cond::AGt(x) => format!("a > {x:?}"),
            Cond::BLe(x) => format!("b <= {x:?}"),
            Cond::KEq(k) => format!("k = {k}"),
            Cond::AplusBGt(x) => format!("a + b > {x:?}"),
        }
    }

    fn holds(&self, t: &Tuple) -> bool {
        let a = t.get("a").unwrap().as_f64().unwrap();
        let b = t.get("b").unwrap().as_f64().unwrap();
        let k = t.get("k").unwrap().as_i64().unwrap();
        match self {
            Cond::AGt(x) => a > *x,
            Cond::BLe(x) => b <= *x,
            Cond::KEq(v) => k == *v,
            Cond::AplusBGt(x) => a + b > *x,
        }
    }
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        (-50.0f64..50.0).prop_map(Cond::AGt),
        (-50.0f64..50.0).prop_map(Cond::BLe),
        (0i64..5).prop_map(Cond::KEq),
        (-80.0f64..80.0).prop_map(Cond::AplusBGt),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A chain of random filters behaves as the conjunction of its
    /// conditions, in order, with exact conservation accounting.
    #[test]
    fn filter_chain_is_conjunction(samples in arb_samples(), conds in proptest::collection::vec(arb_cond(), 1..4)) {
        let mut b = DataflowBuilder::new("prop")
            .source("s", SubscriptionFilter::any(), schema());
        let mut prev = "s".to_string();
        for (i, c) in conds.iter().enumerate() {
            let name = format!("f{i}");
            b = b.filter(&name, &prev, &c.text());
            prev = name;
        }
        let df = b.sink("out", SinkKind::Console, &[&prev]).build().unwrap();
        let mut inputs = HashMap::new();
        inputs.insert("s".to_string(), samples.clone());
        let run = debug_run(&df, &inputs).unwrap();
        let expected: Vec<&Tuple> = samples.iter().filter(|t| conds.iter().all(|c| c.holds(t))).collect();
        let got = run.output_of(&prev);
        prop_assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(expected) {
            prop_assert_eq!(g.values(), e.values());
        }
    }

    /// COUNT over any window equals the number of buffered tuples; SUM of a
    /// float attribute matches a manual fold.
    #[test]
    fn aggregate_count_and_sum_match_manual(samples in arb_samples()) {
        let df = DataflowBuilder::new("agg")
            .source("s", SubscriptionFilter::any(), schema())
            .aggregate("cnt", "s", Duration::from_hours(1), &[], streamloader::ops::AggFunc::Count, None)
            .aggregate("sum", "s", Duration::from_hours(1), &[], streamloader::ops::AggFunc::Sum, Some("a"))
            .sink("o1", SinkKind::Console, &["cnt"])
            .sink("o2", SinkKind::Console, &["sum"])
            .build()
            .unwrap();
        let mut inputs = HashMap::new();
        inputs.insert("s".to_string(), samples.clone());
        let run = debug_run(&df, &inputs).unwrap();
        if samples.is_empty() {
            prop_assert!(run.output_of("cnt").is_empty());
        } else {
            prop_assert_eq!(
                run.output_of("cnt")[0].get("count").unwrap(),
                &Value::Int(samples.len() as i64)
            );
            let manual: f64 = samples.iter().map(|t| t.get("a").unwrap().as_f64().unwrap()).sum();
            let got = run.output_of("sum")[0].get("sum_a").unwrap().as_f64().unwrap();
            prop_assert!((got - manual).abs() < 1e-6 * manual.abs().max(1.0));
        }
    }

    /// Join output = the subset of the cartesian product where the
    /// predicate holds.
    #[test]
    fn join_matches_cartesian_filter(
        left in arb_samples(),
        right in arb_samples(),
    ) {
        let df = DataflowBuilder::new("join")
            .source("l", SubscriptionFilter::any(), schema())
            .source("r", SubscriptionFilter::any(), schema())
            .join("j", "l", "r", Duration::from_hours(1), "k = right_k")
            .sink("out", SinkKind::Console, &["j"])
            .build()
            .unwrap();
        let mut inputs = HashMap::new();
        inputs.insert("l".to_string(), left.clone());
        inputs.insert("r".to_string(), right.clone());
        let run = debug_run(&df, &inputs).unwrap();
        let expected = left
            .iter()
            .flat_map(|lt| right.iter().map(move |rt| (lt, rt)))
            .filter(|(lt, rt)| lt.get("k").unwrap() == rt.get("k").unwrap())
            .count();
        prop_assert_eq!(run.output_of("j").len(), expected);
    }

    /// Cull-Time keeps ceil(n/r) of the in-interval tuples.
    #[test]
    fn cull_rate_exact(samples in arb_samples(), rate in 1u64..8) {
        let interval = streamloader::stt::TimeInterval::new(
            Timestamp::from_secs(0),
            Timestamp::from_secs(1_000_000),
        );
        let df = DataflowBuilder::new("cull")
            .source("s", SubscriptionFilter::any(), schema())
            .cull_time("c", "s", interval, rate)
            .sink("out", SinkKind::Console, &["c"])
            .build()
            .unwrap();
        let mut inputs = HashMap::new();
        inputs.insert("s".to_string(), samples.clone());
        let run = debug_run(&df, &inputs).unwrap();
        let n = samples.len() as u64;
        let expected = n.div_ceil(rate);
        prop_assert_eq!(run.output_of("c").len() as u64, expected);
    }

    /// The optimiser never changes what reaches the sink (on pipelines it
    /// can rewrite).
    #[test]
    fn optimizer_preserves_sink_stream(samples in arb_samples(), c1 in arb_cond(), c2 in arb_cond()) {
        let df = DataflowBuilder::new("opt")
            .source("s", SubscriptionFilter::any(), schema())
            .virtual_property("v", "s", "derived", "a * 2 + b")
            .filter("f1", "v", &c1.text())
            .filter("f2", "f1", &c2.text())
            .sink("out", SinkKind::Console, &["f2"])
            .build()
            .unwrap();
        let (opt, _) = optimize(&df).unwrap();
        let mut inputs = HashMap::new();
        inputs.insert("s".to_string(), samples);
        let before = debug_run(&df, &inputs).unwrap();
        let after = debug_run(&opt, &inputs).unwrap();
        let sink_producer_before = &df.node("out").unwrap().inputs[0];
        let sink_producer_after = &opt.node("out").unwrap().inputs[0];
        let b_out = before.output_of(sink_producer_before);
        let a_out = after.output_of(sink_producer_after);
        prop_assert_eq!(b_out.len(), a_out.len());
        // Same a/b/k values survive in the same order (the derived column
        // may be appended at a different position).
        for (x, y) in b_out.iter().zip(a_out) {
            for attr in ["a", "b", "k", "derived"] {
                prop_assert_eq!(x.get(attr).unwrap(), y.get(attr).unwrap());
            }
        }
    }
}
