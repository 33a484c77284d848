//! The checkpoint-log law, for every blocking operator kind: after any
//! sequence of `on_tuple` / `on_timer` / `restore`, folding the deltas an
//! operator hands out onto the checkpoint held at the previous drain yields,
//! per port and in arrival order, exactly `Operator::checkpoint()` — however
//! far apart the drains are. The sliding window is fed out-of-order and
//! already-expired timestamps.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::prelude::*;
use sl_ops::{
    AggFunc, AggregateOp, CheckpointDelta, JoinOp, OpCheckpoint, OpContext, Operator, TriggerOp,
};
use sl_stt::{
    AttrType, Duration, Field, Schema, SchemaRef, SensorId, SttMeta, Theme, Timestamp, Tuple, Value,
};

fn schema() -> SchemaRef {
    Schema::new(vec![Field::new("v", AttrType::Int)])
        .unwrap()
        .into_ref()
}

fn tuple(at_secs: i64, v: i64) -> Tuple {
    Tuple::new(
        schema(),
        vec![Value::Int(v)],
        SttMeta::without_location(
            Timestamp::from_secs(at_secs),
            Theme::unclassified(),
            SensorId(0),
        ),
    )
    .unwrap()
}

const KINDS: usize = 5;

fn blocking_op(kind: usize) -> Box<dyn Operator> {
    let period = Duration::from_secs(30);
    match kind {
        0 => Box::new(AggregateOp::new(period, &[], AggFunc::Sum, Some("v"), &schema()).unwrap()),
        1 => Box::new(
            AggregateOp::sliding(
                period,
                Duration::from_secs(60),
                &[],
                AggFunc::Sum,
                Some("v"),
                &schema(),
            )
            .unwrap(),
        ),
        2 => Box::new(JoinOp::new(period, "v = right_v", &schema(), &schema()).unwrap()),
        3 => Box::new(TriggerOp::on(period, "v > 0", &["s"], &schema()).unwrap()),
        _ => Box::new(TriggerOp::off(period, "v > 0", &["s"], &schema()).unwrap()),
    }
}

/// The input ports of `blocking_op(kind)`: two for the join, one otherwise.
fn ports(kind: usize) -> usize {
    if kind == 2 {
        2
    } else {
        1
    }
}

/// One step of an operator's life. Timestamps are given as seconds *behind*
/// the clock (negative: ahead of it), so arrivals are out of order and some
/// are older than the sliding span when they arrive.
#[derive(Debug, Clone)]
enum Step {
    Tuple { port: usize, behind: i64, v: i64 },
    Advance(i64),
    Timer,
    Restore(Vec<(usize, i64, i64)>),
    Drain,
}

fn arb_step() -> impl Strategy<Value = Step> {
    let arrival = || (0usize..2, -20i64..150, -5i64..5);
    prop_oneof![
        arrival().prop_map(|(port, behind, v)| Step::Tuple { port, behind, v }),
        arrival().prop_map(|(port, behind, v)| Step::Tuple { port, behind, v }),
        arrival().prop_map(|(port, behind, v)| Step::Tuple { port, behind, v }),
        (1i64..45).prop_map(Step::Advance),
        Just(Step::Timer),
        proptest::collection::vec(arrival(), 0..6).prop_map(Step::Restore),
        Just(Step::Drain),
        Just(Step::Drain),
    ]
}

/// Drain `op` onto `fold` and hold the result against the specification.
fn drain_and_check(op: &mut dyn Operator, ports: usize, fold: &mut OpCheckpoint, trail: &[Step]) {
    let delta = op.checkpoint_delta().expect("blocking operators log");
    fold.apply(delta);
    let spec = op.checkpoint().expect("blocking operators snapshot");
    for port in 0..ports {
        assert_eq!(
            fold.port(port).collect::<Vec<_>>(),
            spec.port(port).collect::<Vec<_>>(),
            "{} port {port} after {trail:?}",
            op.kind()
        );
    }
    assert_eq!(fold.len(), spec.len(), "{} after {trail:?}", op.kind());
    // Nothing happened since: the next delta says so.
    let idle: CheckpointDelta = op.checkpoint_delta().expect("blocking operators log");
    assert!(idle.is_noop_on(fold) && !idle.reset, "{idle:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn folded_deltas_equal_the_snapshot(
        kind in 0usize..KINDS,
        steps in proptest::collection::vec(arb_step(), 0..60),
    ) {
        let mut op = blocking_op(kind);
        let ports = ports(kind);
        let mut fold = OpCheckpoint::empty();
        let mut clock = 1_000i64;
        for (i, step) in steps.iter().enumerate() {
            let now = Timestamp::from_secs(clock);
            let mut ctx = OpContext::new(now);
            match step {
                Step::Tuple { port, behind, v } => {
                    op.on_tuple(port % ports, tuple(clock - behind, *v), &mut ctx).unwrap();
                }
                Step::Advance(secs) => clock += secs,
                Step::Timer => op.on_timer(now, &mut ctx).unwrap(),
                Step::Restore(tuples) => op.restore(OpCheckpoint {
                    tuples: tuples
                        .iter()
                        .map(|(port, behind, v)| (port % ports, tuple(clock - behind, *v)))
                        .collect(),
                }),
                Step::Drain => drain_and_check(&mut *op, ports, &mut fold, &steps[..=i]),
            }
        }
        drain_and_check(&mut *op, ports, &mut fold, &steps);
    }
}
