//! Sample-based step debugging of dataflows.
//!
//! "By exploiting samples produced by the involved sensors, the user can
//! easily debug the developed dataflow" (paper §1); demo P1 lets users
//! "check, step-by-step, their results on samples made available from the
//! source". [`debug_run`] pushes per-source sample tuples through a
//! validated dataflow — entirely off-network — and reports what every
//! operator emitted, dropped, and triggered.

use crate::error::DataflowError;
use crate::graph::{Dataflow, NodeKind};
use crate::validate::validate;
use sl_ops::{ControlAction, OpContext};
use sl_stt::{Duration, Timestamp, Tuple};
use std::collections::{BTreeMap, HashMap};

/// Outcome of a sample run.
#[derive(Debug, Default)]
pub struct SampleRun {
    /// Tuples each node emitted (sources echo their samples).
    pub outputs: BTreeMap<String, Vec<Tuple>>,
    /// Control actions fired, tagged with the emitting node.
    pub controls: Vec<(String, ControlAction)>,
    /// Tuples each operator consciously dropped.
    pub dropped: BTreeMap<String, u64>,
}

impl SampleRun {
    /// Emitted tuples of one node (empty slice if none).
    pub fn output_of(&self, node: &str) -> &[Tuple] {
        self.outputs.get(node).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Run `samples` (keyed by source name) through the dataflow.
///
/// Blocking operators receive a single flush tick after all samples are in,
/// timestamped after the latest sample — one window's worth of semantics,
/// which is what a step-debugger shows.
pub fn debug_run(
    df: &Dataflow,
    samples: &HashMap<String, Vec<Tuple>>,
) -> Result<SampleRun, DataflowError> {
    let report = validate(df)?;
    let mut run = SampleRun::default();

    // Check and install source samples.
    for node in df.sources() {
        let NodeKind::Source { schema, .. } = &node.kind else {
            unreachable!()
        };
        let tuples = samples.get(&node.name).cloned().unwrap_or_default();
        for t in &tuples {
            if t.schema().as_ref() != schema.as_ref() {
                return Err(DataflowError::BadSample(format!(
                    "sample for `{}` has schema {}, declared {}",
                    node.name,
                    t.schema(),
                    schema
                )));
            }
        }
        run.outputs.insert(node.name.clone(), tuples);
    }
    for name in samples.keys() {
        if df.node(name).is_none() {
            return Err(DataflowError::BadSample(format!(
                "`{name}` is not a dataflow source"
            )));
        }
    }

    // Flush tick time: after every sample.
    let latest = run
        .outputs
        .values()
        .flatten()
        .map(|t| t.meta.timestamp)
        .max()
        .unwrap_or(Timestamp::EPOCH);
    let tick_at = latest + Duration::from_millis(1);

    // Drive operators in topological order.
    for node in report.topo_order.iter().filter_map(|name| df.node(name)) {
        let name = &node.name;
        let NodeKind::Operator { spec } = &node.kind else {
            continue;
        };
        let input_schemas: Vec<_> = node
            .inputs
            .iter()
            .map(|i| report.schemas[i].clone())
            .collect();
        let mut op = spec
            .instantiate(&input_schemas)
            .map_err(|error| DataflowError::AtNode {
                node: name.clone(),
                error,
            })?;
        let mut ctx = OpContext::new(tick_at);
        for (port, input) in node.inputs.iter().enumerate() {
            let tuples = run.outputs.get(input).cloned().unwrap_or_default();
            for t in tuples {
                op.on_tuple(port, t, &mut ctx)
                    .map_err(|error| DataflowError::AtNode {
                        node: name.clone(),
                        error,
                    })?;
            }
        }
        if op.is_blocking() {
            op.on_timer(tick_at, &mut ctx)
                .map_err(|error| DataflowError::AtNode {
                    node: name.clone(),
                    error,
                })?;
        }
        let dropped = ctx.dropped();
        let (emitted, controls) = ctx.take();
        run.outputs.insert(name.clone(), emitted);
        run.dropped.insert(name.clone(), dropped);
        for c in controls {
            run.controls.push((name.clone(), c));
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DataflowBuilder;
    use sl_dsn::SinkKind;
    use sl_ops::AggFunc;
    use sl_pubsub::SubscriptionFilter;
    use sl_stt::{AttrType, Field, GeoPoint, Schema, SchemaRef, SensorId, SttMeta, Theme, Value};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("temperature", AttrType::Float),
            Field::new("station", AttrType::Str),
        ])
        .unwrap()
        .into_ref()
    }

    fn sample(temp: f64, station: &str, sec: i64) -> Tuple {
        Tuple::new(
            schema(),
            vec![Value::Float(temp), Value::Str(station.into())],
            SttMeta::new(
                Timestamp::from_secs(sec),
                GeoPoint::new_unchecked(34.7, 135.5),
                Theme::new("weather/temperature").unwrap(),
                SensorId(0),
            ),
        )
        .unwrap()
    }

    fn scenario_df() -> Dataflow {
        DataflowBuilder::new("demo")
            .source("temp", SubscriptionFilter::any(), schema())
            .filter("hot", "temp", "temperature > 25")
            .aggregate(
                "hourly",
                "hot",
                Duration::from_hours(1),
                &["station"],
                AggFunc::Avg,
                Some("temperature"),
            )
            .sink("out", SinkKind::Console, &["hourly"])
            .build()
            .unwrap()
    }

    #[test]
    fn end_to_end_sample_run() {
        let df = scenario_df();
        let mut samples = HashMap::new();
        samples.insert(
            "temp".to_string(),
            vec![
                sample(20.0, "osaka", 0),
                sample(26.0, "osaka", 1),
                sample(30.0, "osaka", 2),
                sample(28.0, "kyoto", 3),
            ],
        );
        let run = debug_run(&df, &samples).unwrap();
        // Filter keeps 3 of 4.
        assert_eq!(run.output_of("hot").len(), 3);
        assert_eq!(run.dropped["hot"], 1);
        // Aggregate flushes once: one row per station.
        let agg = run.output_of("hourly");
        assert_eq!(agg.len(), 2);
        let kyoto = agg
            .iter()
            .find(|t| t.get("station").unwrap() == &Value::Str("kyoto".into()))
            .unwrap();
        assert_eq!(kyoto.get("avg_temperature").unwrap(), &Value::Float(28.0));
        let osaka = agg
            .iter()
            .find(|t| t.get("station").unwrap() == &Value::Str("osaka".into()))
            .unwrap();
        assert_eq!(osaka.get("avg_temperature").unwrap(), &Value::Float(28.0)); // (26+30)/2
    }

    #[test]
    fn a_sample_run_lists_its_nodes_in_one_order_every_time() {
        let df = scenario_df();
        let samples = HashMap::from([("temp".to_string(), vec![sample(26.0, "osaka", 0)])]);
        let keys = |run: SampleRun| -> (Vec<String>, Vec<String>) {
            (
                run.outputs.into_keys().collect(),
                run.dropped.into_keys().collect(),
            )
        };
        let first = keys(debug_run(&df, &samples).unwrap());
        assert_eq!(first.0, ["hot", "hourly", "temp"]);
        for _ in 1..8 {
            assert_eq!(keys(debug_run(&df, &samples).unwrap()), first);
        }
    }

    #[test]
    fn trigger_controls_captured() {
        let rain_schema: SchemaRef = Schema::new(vec![Field::new("rain", AttrType::Float)])
            .unwrap()
            .into_ref();
        let df = DataflowBuilder::new("t")
            .source("temp", SubscriptionFilter::any(), schema())
            .gated_source("rain", SubscriptionFilter::any(), rain_schema)
            .trigger_on(
                "hot",
                "temp",
                Duration::from_secs(60),
                "temperature > 25",
                &["rain"],
            )
            .sink("out", SinkKind::Console, &["hot"])
            .build()
            .unwrap();
        let mut samples = HashMap::new();
        samples.insert("temp".to_string(), vec![sample(30.0, "osaka", 0)]);
        let run = debug_run(&df, &samples).unwrap();
        assert_eq!(run.controls.len(), 1);
        assert_eq!(run.controls[0].0, "hot");
        assert!(run.controls[0].1.is_activate());
    }

    #[test]
    fn missing_samples_mean_empty_streams() {
        let df = scenario_df();
        let run = debug_run(&df, &HashMap::new()).unwrap();
        assert!(run.output_of("hot").is_empty());
        assert!(run.output_of("hourly").is_empty());
    }

    #[test]
    fn wrong_schema_sample_rejected() {
        let df = scenario_df();
        let wrong: SchemaRef = Schema::new(vec![Field::new("x", AttrType::Int)])
            .unwrap()
            .into_ref();
        let bad = Tuple::new(
            wrong,
            vec![Value::Int(1)],
            SttMeta::without_location(Timestamp::EPOCH, Theme::unclassified(), SensorId(0)),
        )
        .unwrap();
        let mut samples = HashMap::new();
        samples.insert("temp".to_string(), vec![bad]);
        assert!(matches!(
            debug_run(&df, &samples),
            Err(DataflowError::BadSample(_))
        ));
    }

    #[test]
    fn sample_for_unknown_source_rejected() {
        let df = scenario_df();
        let mut samples = HashMap::new();
        samples.insert("ghost".to_string(), vec![]);
        assert!(matches!(
            debug_run(&df, &samples),
            Err(DataflowError::BadSample(_))
        ));
    }

    #[test]
    fn invalid_dataflow_fails_before_running() {
        let df = DataflowBuilder::new("bad")
            .source("temp", SubscriptionFilter::any(), schema())
            .filter("f", "temp", "missing_attr > 1")
            .sink("out", SinkKind::Console, &["f"])
            .build()
            .unwrap();
        assert!(matches!(
            debug_run(&df, &HashMap::new()),
            Err(DataflowError::AtNode { .. })
        ));
    }
}
