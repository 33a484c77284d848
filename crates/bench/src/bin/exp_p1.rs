//! E5 — Demo P1 reproduction: sensor discovery and dataflow design checks.
//! Measures discovery latency against fleet size, shows the directory
//! organisations, demonstrates that every inconsistency class the GUI
//! prevents is caught by validation, and times those checks (ablation A1:
//! validation by flow size, rejection at depth, the logical optimiser).
//!
//! ```sh
//! cargo run --release -p sl-bench --bin exp_p1
//! ```

use sl_bench::{bench_schema, linear_dataflow, make_ads, print_table};
use sl_dataflow::{validate, DataflowBuilder};
use sl_dsn::SinkKind;
use sl_pubsub::registry::GroupCriterion;
use sl_pubsub::{SensorKind, SensorRegistry, SubscriptionFilter};
use sl_stt::{BoundingBox, Duration, GeoPoint, SpatialGranularity, Theme};
use std::time::Instant;

fn main() {
    // --- discovery latency vs fleet size ----------------------------------
    let osaka = BoundingBox::from_corners(
        GeoPoint::new_unchecked(34.0, 135.0),
        GeoPoint::new_unchecked(35.0, 136.0),
    );
    let filters: Vec<(&str, SubscriptionFilter)> = vec![
        (
            "by theme",
            SubscriptionFilter::any().with_theme(Theme::new("weather").unwrap()),
        ),
        ("by area", SubscriptionFilter::any().with_area(osaka)),
        (
            "by kind",
            SubscriptionFilter::any().with_kind(SensorKind::Social),
        ),
        (
            "composite",
            SubscriptionFilter::any()
                .with_theme(Theme::new("weather/rain").unwrap())
                .with_area(osaka)
                .with_max_period(Duration::from_secs(30)),
        ),
    ];
    let mut rows = Vec::new();
    for fleet in [10usize, 100, 1_000, 10_000] {
        let mut registry = SensorRegistry::new();
        for ad in make_ads(fleet, 5) {
            registry.publish(ad).unwrap();
        }
        for (label, filter) in &filters {
            let reps = 100;
            let t0 = Instant::now();
            let mut found = 0usize;
            for _ in 0..reps {
                found = registry.discover(filter).count();
            }
            let per_query_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
            rows.push(vec![
                fleet.to_string(),
                label.to_string(),
                found.to_string(),
                format!("{per_query_us:.1}"),
            ]);
        }
    }
    print_table(
        "E5 / P1 — discovery latency vs fleet size",
        &["fleet size", "query", "matches", "latency [µs]"],
        &rows,
    );

    // --- directory organisations ------------------------------------------
    let mut registry = SensorRegistry::new();
    for ad in make_ads(1000, 5) {
        registry.publish(ad).unwrap();
    }
    let mut rows = Vec::new();
    for (label, by) in [
        ("theme root", GroupCriterion::ThemeRoot),
        ("kind", GroupCriterion::Kind),
        ("hosting node", GroupCriterion::Node),
        (
            "spatial cell (grid2)",
            GroupCriterion::SpatialCell(SpatialGranularity::grid(2)),
        ),
        ("period band", GroupCriterion::PeriodBand),
    ] {
        let groups = registry.group_by(by);
        let largest = groups.values().map(Vec::len).max().unwrap_or(0);
        rows.push(vec![
            label.to_string(),
            groups.len().to_string(),
            largest.to_string(),
        ]);
    }
    print_table(
        "E5 / P1 — directory organisations (1000 sensors)",
        &["grouped by", "groups", "largest group"],
        &rows,
    );

    // --- validation catches every inconsistency class ----------------------
    let schema = bench_schema();
    let any = SubscriptionFilter::any;
    let cases: Vec<(&str, sl_dataflow::Dataflow)> = vec![
        (
            "unknown attribute",
            DataflowBuilder::new("bad")
                .source("s", any(), schema.clone())
                .filter("f", "s", "wind > 1")
                .sink("o", SinkKind::Console, &["f"])
                .build()
                .unwrap(),
        ),
        (
            "type error",
            DataflowBuilder::new("bad")
                .source("s", any(), schema.clone())
                .filter("f", "s", "station > 3")
                .sink("o", SinkKind::Console, &["f"])
                .build()
                .unwrap(),
        ),
        (
            "non-boolean condition",
            DataflowBuilder::new("bad")
                .source("s", any(), schema.clone())
                .filter("f", "s", "temperature + humidity")
                .sink("o", SinkKind::Console, &["f"])
                .build()
                .unwrap(),
        ),
        (
            "attribute lost downstream",
            DataflowBuilder::new("bad")
                .source("s", any(), schema.clone())
                .aggregate(
                    "g",
                    "s",
                    Duration::from_mins(1),
                    &[],
                    sl_ops::AggFunc::Avg,
                    Some("temperature"),
                )
                .filter("f", "g", "humidity > 1")
                .sink("o", SinkKind::Console, &["f"])
                .build()
                .unwrap(),
        ),
        (
            "orphan gated source",
            DataflowBuilder::new("bad")
                .source("s", any(), schema.clone())
                .gated_source("g", any(), schema.clone())
                .sink("o", SinkKind::Console, &["s"])
                .build()
                .unwrap(),
        ),
        (
            "trigger target not a source",
            DataflowBuilder::new("bad")
                .source("s", any(), schema.clone())
                .filter("f", "s", "temperature > 1")
                .trigger_on("t", "s", Duration::from_mins(1), "temperature > 2", &["f"])
                .sink("o", SinkKind::Console, &["f"])
                .build()
                .unwrap(),
        ),
        (
            "sum of a string",
            DataflowBuilder::new("bad")
                .source("s", any(), schema.clone())
                .aggregate(
                    "g",
                    "s",
                    Duration::from_mins(1),
                    &[],
                    sl_ops::AggFunc::Sum,
                    Some("station"),
                )
                .sink("o", SinkKind::Console, &["g"])
                .build()
                .unwrap(),
        ),
    ];
    let mut rows = Vec::new();
    for (label, df) in cases {
        let verdict = match validate(&df) {
            Ok(_) => "MISSED".to_string(),
            Err(e) => {
                let text = e.to_string();
                format!("caught: {}", &text[..text.len().min(58)])
            }
        };
        rows.push(vec![label.to_string(), verdict]);
    }
    print_table(
        "E5 / P1 — validation catches the inconsistency classes",
        &["mistake", "verdict"],
        &rows,
    );

    // --- A1: what the checks cost ------------------------------------------
    let mut rows = Vec::new();
    for ops in [2usize, 8, 32, 64] {
        let df = linear_dataflow("a1", ops);
        let us = per_call_us(|| assert!(validate(&df).is_ok()));
        rows.push(vec![
            "validate (valid linear flow)".into(),
            ops.to_string(),
            format!("{us:.1}"),
        ]);
    }
    // Rejection: the bad node sits at the end of the pipeline, the worst
    // case for schema propagation.
    for ops in [2usize, 32] {
        let mut b = DataflowBuilder::new("bad").source("src", any(), schema.clone());
        let mut prev = "src".to_string();
        for i in 0..ops {
            let name = format!("f{i}");
            b = b.filter(&name, &prev, "temperature > 0");
            prev = name;
        }
        let df = b
            .filter("broken", &prev, "no_such_attribute > 1")
            .sink("out", SinkKind::Console, &["broken"])
            .build()
            .unwrap();
        let us = per_call_us(|| assert!(validate(&df).is_err()));
        rows.push(vec![
            "reject (invalid at depth)".into(),
            ops.to_string(),
            format!("{us:.1}"),
        ]);
    }
    // The optimiser on a rewrite-rich pipeline: a virtual property ahead of
    // three filters it can pull forward and fuse.
    let df = DataflowBuilder::new("opt")
        .source("s", any(), schema)
        .virtual_property("v", "s", "d", "temperature + humidity")
        .filter("f1", "v", "temperature > 20")
        .filter("f2", "f1", "humidity > 40")
        .filter("f3", "f2", "seq > 10")
        .sink("out", SinkKind::Console, &["f3"])
        .build()
        .unwrap();
    let us = per_call_us(|| assert!(sl_dataflow::optimize(&df).is_ok()));
    rows.push(vec!["optimise".into(), "4".into(), format!("{us:.1}")]);
    print_table(
        "A1 — validation passes: cost per call",
        &["check", "operators", "per call [µs]"],
        &rows,
    );
}

/// Mean wall time of `f` over enough calls to rise above timer noise.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    const REPS: u32 = 500;
    let t0 = Instant::now();
    for _ in 0..REPS {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e6 / f64::from(REPS)
}
