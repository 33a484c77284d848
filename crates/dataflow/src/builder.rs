//! Fluent dataflow construction — the programmatic drag-and-drop.

use crate::error::DataflowError;
use crate::graph::{Dataflow, DfNode, NodeKind};
use sl_dsn::{SinkKind, SourceMode};
use sl_netsim::QosSpec;
use sl_ops::{AggFunc, OpSpec};
use sl_pubsub::SubscriptionFilter;
use sl_stt::{BoundingBox, Duration, SchemaRef, TimeInterval};

/// Builder for [`Dataflow`]s. Errors are deferred: every method records its
/// action, and [`DataflowBuilder::build`] reports the first failure.
#[derive(Debug)]
pub struct DataflowBuilder {
    df: Dataflow,
    error: Option<DataflowError>,
}

impl DataflowBuilder {
    /// Start a dataflow with the given name.
    pub fn new(name: &str) -> DataflowBuilder {
        DataflowBuilder {
            df: Dataflow::new(name),
            error: None,
        }
    }

    fn push(mut self, node: DfNode) -> Self {
        if self.error.is_none() {
            if let Err(e) = self.df.add_node(node) {
                self.error = Some(e);
            }
        }
        self
    }

    /// Add an always-active source.
    pub fn source(self, name: &str, filter: SubscriptionFilter, schema: SchemaRef) -> Self {
        self.push(DfNode {
            name: name.into(),
            kind: NodeKind::Source {
                filter,
                schema,
                mode: SourceMode::Active,
            },
            inputs: vec![],
        })
    }

    /// Add a gated source (dormant until a Trigger-On fires).
    pub fn gated_source(self, name: &str, filter: SubscriptionFilter, schema: SchemaRef) -> Self {
        self.push(DfNode {
            name: name.into(),
            kind: NodeKind::Source {
                filter,
                schema,
                mode: SourceMode::Gated,
            },
            inputs: vec![],
        })
    }

    /// Add an arbitrary operator.
    pub fn operator(self, name: &str, input_names: &[&str], spec: OpSpec) -> Self {
        self.push(DfNode {
            name: name.into(),
            kind: NodeKind::Operator { spec },
            inputs: input_names.iter().map(|s| s.to_string()).collect(),
        })
    }

    /// σ — Filter.
    pub fn filter(self, name: &str, input: &str, condition: &str) -> Self {
        self.operator(
            name,
            &[input],
            OpSpec::Filter {
                condition: condition.into(),
            },
        )
    }

    /// ▷ — Transform.
    pub fn transform(self, name: &str, input: &str, assignments: &[(&str, &str)]) -> Self {
        self.operator(
            name,
            &[input],
            OpSpec::Transform {
                assignments: assignments
                    .iter()
                    .map(|(a, e)| (a.to_string(), e.to_string()))
                    .collect(),
            },
        )
    }

    /// ⊎ — Virtual property.
    pub fn virtual_property(self, name: &str, input: &str, property: &str, spec: &str) -> Self {
        self.operator(
            name,
            &[input],
            OpSpec::VirtualProperty {
                property: property.into(),
                spec: spec.into(),
            },
        )
    }

    /// γ over time — Cull Time.
    pub fn cull_time(self, name: &str, input: &str, interval: TimeInterval, rate: u64) -> Self {
        self.operator(name, &[input], OpSpec::CullTime { interval, rate })
    }

    /// γ over space — Cull Space.
    pub fn cull_space(self, name: &str, input: &str, area: BoundingBox, rate: u64) -> Self {
        self.operator(name, &[input], OpSpec::CullSpace { area, rate })
    }

    /// @ — Aggregation.
    pub fn aggregate(
        self,
        name: &str,
        input: &str,
        period: Duration,
        group_by: &[&str],
        func: AggFunc,
        attr: Option<&str>,
    ) -> Self {
        self.operator(
            name,
            &[input],
            OpSpec::Aggregate {
                period,
                group_by: group_by.iter().map(|s| s.to_string()).collect(),
                func,
                attr: attr.map(str::to_string),
                sliding: None,
            },
        )
    }

    /// @ over the last `span` — sliding Aggregation ("the temperature
    /// identified in the last hour", evaluated every `period`).
    #[allow(clippy::too_many_arguments)]
    pub fn aggregate_sliding(
        self,
        name: &str,
        input: &str,
        period: Duration,
        span: Duration,
        group_by: &[&str],
        func: AggFunc,
        attr: Option<&str>,
    ) -> Self {
        self.operator(
            name,
            &[input],
            OpSpec::Aggregate {
                period,
                group_by: group_by.iter().map(|s| s.to_string()).collect(),
                func,
                attr: attr.map(str::to_string),
                sliding: Some(span),
            },
        )
    }

    /// ⋈ — Join.
    pub fn join(
        self,
        name: &str,
        left: &str,
        right: &str,
        period: Duration,
        predicate: &str,
    ) -> Self {
        self.operator(
            name,
            &[left, right],
            OpSpec::Join {
                period,
                predicate: predicate.into(),
            },
        )
    }

    /// ⊕ON — Trigger On.
    pub fn trigger_on(
        self,
        name: &str,
        input: &str,
        period: Duration,
        condition: &str,
        targets: &[&str],
    ) -> Self {
        self.operator(
            name,
            &[input],
            OpSpec::TriggerOn {
                period,
                condition: condition.into(),
                targets: targets.iter().map(|s| s.to_string()).collect(),
            },
        )
    }

    /// ⊕OFF — Trigger Off.
    pub fn trigger_off(
        self,
        name: &str,
        input: &str,
        period: Duration,
        condition: &str,
        targets: &[&str],
    ) -> Self {
        self.operator(
            name,
            &[input],
            OpSpec::TriggerOff {
                period,
                condition: condition.into(),
                targets: targets.iter().map(|s| s.to_string()).collect(),
            },
        )
    }

    /// Add a sink.
    pub fn sink(self, name: &str, kind: SinkKind, inputs: &[&str]) -> Self {
        self.push(DfNode {
            name: name.into(),
            kind: NodeKind::Sink { kind },
            inputs: inputs.iter().map(|s| s.to_string()).collect(),
        })
    }

    /// Declare QoS for an existing edge.
    pub fn qos(mut self, from: &str, to: &str, qos: QosSpec) -> Self {
        if self.error.is_none() {
            if let Err(e) = self.df.set_qos(from, to, qos) {
                self.error = Some(e);
            }
        }
        self
    }

    /// Finish, reporting the first recorded error.
    pub fn build(self) -> Result<Dataflow, DataflowError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.df),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{AttrType, Field, Schema};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("temperature", AttrType::Float),
            Field::new("station", AttrType::Str),
        ])
        .unwrap()
        .into_ref()
    }

    #[test]
    fn builds_pipeline() {
        let df = DataflowBuilder::new("demo")
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
            .sink("out", SinkKind::Warehouse, &["hourly"])
            .qos(
                "temp",
                "hot",
                QosSpec {
                    max_latency: Some(Duration::from_millis(20)),
                    ..QosSpec::best_effort()
                },
            )
            .build()
            .unwrap();
        assert_eq!(df.nodes().len(), 4);
        assert!(!df.qos_for("temp", "hot").is_best_effort());
    }

    #[test]
    fn first_error_wins() {
        let err = DataflowBuilder::new("demo")
            .filter("f", "ghost", "x > 1") // unknown input — first error
            .source("f", SubscriptionFilter::any(), schema()) // would be duplicate
            .build()
            .unwrap_err();
        assert!(matches!(err, DataflowError::UnknownNode(_)));
    }

    #[test]
    fn every_operator_shape_constructible() {
        let df = DataflowBuilder::new("all-ops")
            .source("a", SubscriptionFilter::any(), schema())
            .gated_source("b", SubscriptionFilter::any(), schema())
            .filter("f", "a", "temperature > 0")
            .transform("t", "f", &[("temperature", "temperature * 2")])
            .virtual_property("v", "t", "double", "temperature")
            .cull_time(
                "ct",
                "v",
                TimeInterval::new(
                    sl_stt::Timestamp::from_secs(0),
                    sl_stt::Timestamp::from_secs(10),
                ),
                2,
            )
            .cull_space(
                "cs",
                "ct",
                BoundingBox::from_corners(
                    sl_stt::GeoPoint::new_unchecked(34.0, 135.0),
                    sl_stt::GeoPoint::new_unchecked(35.0, 136.0),
                ),
                2,
            )
            .aggregate(
                "ag",
                "cs",
                Duration::from_secs(60),
                &[],
                AggFunc::Count,
                None,
            )
            .trigger_on("on", "ag", Duration::from_secs(60), "count > 5", &["b"])
            .trigger_off("off", "ag", Duration::from_secs(60), "count < 1", &["b"])
            .join(
                "j",
                "a",
                "b",
                Duration::from_secs(30),
                "station = right_station",
            )
            .sink("s", SinkKind::Console, &["j"])
            .build()
            .unwrap();
        assert_eq!(df.operators().count(), 9);
        assert_eq!(df.sources().count(), 2);
    }
}
