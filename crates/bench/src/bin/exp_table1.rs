//! E1 — Table 1 reproduction: the full operation suite, with measured
//! per-operation throughput (the "number of tuples that each operation
//! handle per second" the monitor reports, paper §3). The join runs under
//! both strategies, hash and nested loop (ablation A3).
//!
//! ```sh
//! cargo run --release -p sl-bench --bin exp_table1
//! ```

use sl_bench::{bench_schema, make_tuples, print_table, tuples_per_sec};
use sl_ops::{AggFunc, JoinOp, OpContext, OpSpec, Operator};
use sl_stt::{BoundingBox, Duration, GeoPoint, SchemaRef, TimeInterval, Timestamp, Tuple};
use std::time::Instant;

/// Run `tuples` through an operator (with a flush tick for blocking ones)
/// and return (wall time, tuples out).
fn drive(
    mut op: Box<dyn Operator>,
    tuples: &[Tuple],
    two_port: bool,
) -> (std::time::Duration, usize) {
    let mut ctx = OpContext::new(Timestamp::from_secs(0));
    // Flush just after the newest tuple so sliding windows still hold data.
    let flush_at = tuples
        .last()
        .map(|t| t.meta.timestamp + sl_stt::Duration::from_secs(1))
        .unwrap_or(Timestamp::from_secs(0));
    let start = Instant::now();
    for (i, t) in tuples.iter().enumerate() {
        let port = if two_port { i % 2 } else { 0 };
        ctx.now = t.meta.timestamp;
        op.on_tuple(port, t.clone(), &mut ctx)
            .expect("bench tuples valid");
    }
    if op.is_blocking() {
        op.on_timer(flush_at, &mut ctx).expect("tick");
    }
    let wall = start.elapsed();
    (wall, ctx.emitted().len())
}

/// Feed `left` then `right` through one equi-join window and flush it;
/// `nested` forces the nested-loop strategy over the hash path. Returns
/// (wall time, tuples out).
fn drive_join(
    schema: &SchemaRef,
    window: Duration,
    left: &[Tuple],
    right: &[Tuple],
    nested: bool,
) -> (std::time::Duration, usize) {
    let mut op = JoinOp::new(
        window,
        "station = right_station and seq != right_seq",
        schema,
        schema,
    )
    .expect("join valid");
    op.set_force_nested_loop(nested);
    let mut ctx = OpContext::new(Timestamp::from_secs(0));
    let start = Instant::now();
    for t in left {
        op.on_tuple(0, t.clone(), &mut ctx).expect("left tuple");
    }
    for t in right {
        op.on_tuple(1, t.clone(), &mut ctx).expect("right tuple");
    }
    op.on_timer(Timestamp::from_secs(1_000_000), &mut ctx)
        .expect("tick");
    (start.elapsed(), ctx.emitted().len())
}

fn main() {
    let n = 200_000;
    let tuples = make_tuples(n, 42);
    let schema = bench_schema();
    let osaka = BoundingBox::from_corners(
        GeoPoint::new_unchecked(34.5, 135.3),
        GeoPoint::new_unchecked(34.9, 135.7),
    );
    let whole_run = TimeInterval::new(Timestamp::from_secs(0), Timestamp::from_secs(n as i64));
    let window = Duration::from_hours(100); // single window over the batch

    // (label, Table-1 symbol, spec, selectivity note)
    let specs: Vec<(&str, String, OpSpec)> = vec![
        (
            "Filter",
            "σ(s, cond)".into(),
            OpSpec::Filter {
                condition: "temperature > 22.5".into(),
            },
        ),
        (
            "Transform",
            "▷trans s".into(),
            OpSpec::Transform {
                assignments: vec![(
                    "temperature".into(),
                    "convert_unit(temperature, 'celsius', 'fahrenheit')".into(),
                )],
            },
        ),
        (
            "Virtual property",
            "⊎s⟨p, spec⟩".into(),
            OpSpec::VirtualProperty {
                property: "apparent".into(),
                spec: "apparent_temperature(temperature, humidity)".into(),
            },
        ),
        (
            "Cull Time",
            "γr(s, ⟨t1, t2⟩)".into(),
            OpSpec::CullTime {
                interval: whole_run,
                rate: 3,
            },
        ),
        (
            "Cull Space",
            "γr(s, ⟨c1, c2⟩)".into(),
            OpSpec::CullSpace {
                area: osaka,
                rate: 3,
            },
        ),
        (
            "Aggregation COUNT",
            "@t,{} count".into(),
            OpSpec::Aggregate {
                period: window,
                group_by: vec![],
                func: AggFunc::Count,
                attr: None,
                sliding: None,
            },
        ),
        (
            "Aggregation AVG",
            "@t,{station} avg".into(),
            OpSpec::Aggregate {
                period: window,
                group_by: vec!["station".into()],
                func: AggFunc::Avg,
                attr: Some("temperature".into()),
                sliding: None,
            },
        ),
        (
            "Aggregation MIN",
            "@t,{station} min".into(),
            OpSpec::Aggregate {
                period: window,
                group_by: vec!["station".into()],
                func: AggFunc::Min,
                attr: Some("temperature".into()),
                sliding: None,
            },
        ),
        (
            "Aggregation AVG (sliding)",
            "@t~1h,{station} avg".into(),
            OpSpec::Aggregate {
                period: window,
                group_by: vec!["station".into()],
                func: AggFunc::Avg,
                attr: Some("temperature".into()),
                sliding: Some(Duration::from_hours(1)),
            },
        ),
        (
            "Trigger On",
            "⊕ON,t(s, {s1..}, cond)".into(),
            OpSpec::TriggerOn {
                period: window,
                condition: "temperature > 30".into(),
                targets: vec!["rain".into()],
            },
        ),
        (
            "Trigger Off",
            "⊕OFF,t(s, {s1..}, cond)".into(),
            OpSpec::TriggerOff {
                period: window,
                condition: "temperature < 12".into(),
                targets: vec!["rain".into()],
            },
        ),
    ];

    let mut rows = Vec::new();
    for (label, symbol, spec) in &specs {
        let op = spec
            .instantiate(std::slice::from_ref(&schema))
            .expect("spec valid");
        let blocking = op.is_blocking();
        let (wall, out) = drive(op, &tuples, false);
        rows.push(vec![
            label.to_string(),
            symbol.clone(),
            if blocking {
                "blocking".into()
            } else {
                "non-blocking".into()
            },
            format!("{:.0}", tuples_per_sec(n, wall)),
            out.to_string(),
        ]);
    }

    // Join drives both ports with independent batches sharing station keys,
    // once per strategy (ablation A3: hash vs. nested loop). A smaller
    // batch: the windowed join is quadratic per key group.
    let join_n = 4_000;
    let left = make_tuples(join_n, 43);
    let right = make_tuples(join_n, 44);
    let mut hash_out = None;
    for (label, nested) in [("Join (hash)", false), ("Join (nested loop)", true)] {
        let (wall, out) = drive_join(&schema, window, &left, &right, nested);
        assert_eq!(
            *hash_out.get_or_insert(out),
            out,
            "join strategies disagree"
        );
        // The join's dominant cost is producing result tuples (each window
        // pair of 4k×4k over 8 station keys yields ~2M results); report
        // output rate.
        rows.push(vec![
            label.into(),
            "s1 ⋈t_pred s2".into(),
            "blocking".into(),
            format!("{:.0} (out)", tuples_per_sec(out, wall)),
            out.to_string(),
        ]);
    }

    print_table(
        "E1 / Table 1 — stream processing operations (200k-tuple batch; join 2×4k)",
        &["operation", "symbol", "class", "tuples/sec", "tuples out"],
        &rows,
    );
    println!("\nNote: blocking operations buffer and do their work on the `t` tick;");
    println!("throughput here is ingest+tick cost over the whole batch.");
}
