//! Dataflow validation: structural checks plus schema propagation.
//!
//! This is the gate before translation: "Once the dataflow is consistent
//! (i.e. it can be soundly activated at network level), the translation is
//! automatically invoked" (paper §1). Validation computes the schema at
//! every node — the information the Figure 2 bottom panel shows per
//! operation. [`validate`] fails fast on the first node-attributed error;
//! reporting every inconsistency at once (the canvas shows all red nodes)
//! is `sl-lint`'s job.

use crate::error::DataflowError;
use crate::graph::{Dataflow, NodeKind};
use crate::translate::to_dsn;
use sl_stt::SchemaRef;
use std::collections::BTreeMap;

/// Result of a successful validation.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// Output schema of every producer node (what each downstream operation
    /// will observe).
    pub schemas: BTreeMap<String, SchemaRef>,
    /// Operator names in a valid execution order.
    pub topo_order: Vec<String>,
}

impl ValidationReport {
    /// The schema a given node produces.
    pub fn schema_of(&self, node: &str) -> Option<&SchemaRef> {
        self.schemas.get(node)
    }
}

/// Validate a dataflow. The DSN structural checks run first (via the
/// translation path, which guarantees the conceptual graph and its DSN image
/// are checked identically), then schemas are propagated source→sink.
/// Fail-fast: the first problem found is returned.
pub fn validate(df: &Dataflow) -> Result<ValidationReport, DataflowError> {
    // Structural pass (unique names, arity, cycles, trigger targets, gated
    // sources, channels) at the DSN layer.
    let topo_order = sl_dsn::validate(&to_dsn(df))?;

    // Schema propagation in topological order.
    let mut schemas: BTreeMap<String, SchemaRef> = BTreeMap::new();
    for node in df.sources() {
        if let NodeKind::Source { schema, .. } = &node.kind {
            schemas.insert(node.name.clone(), schema.clone());
        }
    }
    for name in &topo_order {
        let Some(node) = df.node(name) else { continue };
        let NodeKind::Operator { spec } = &node.kind else {
            continue;
        };
        let Some(inputs) = node
            .inputs
            .iter()
            .map(|i| schemas.get(i).cloned())
            .collect::<Option<Vec<_>>>()
        else {
            continue;
        };
        let out = spec
            .output_schema(&inputs)
            .map_err(|error| DataflowError::AtNode {
                node: name.clone(),
                error,
            })?;
        schemas.insert(name.clone(), out);
    }
    Ok(ValidationReport {
        schemas,
        topo_order,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DataflowBuilder;
    use sl_dsn::SinkKind;
    use sl_ops::AggFunc;
    use sl_pubsub::SubscriptionFilter;
    use sl_stt::{AttrType, Duration, Field, Schema};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("temperature", AttrType::Float),
            Field::new("humidity", AttrType::Float),
            Field::new("station", AttrType::Str),
        ])
        .unwrap()
        .into_ref()
    }

    #[test]
    fn schemas_propagate_through_pipeline() {
        let df = DataflowBuilder::new("demo")
            .source("temp", SubscriptionFilter::any(), schema())
            .virtual_property(
                "at",
                "temp",
                "apparent",
                "apparent_temperature(temperature, humidity)",
            )
            .filter("hot", "at", "apparent > 27")
            .aggregate(
                "hourly",
                "hot",
                Duration::from_hours(1),
                &["station"],
                AggFunc::Avg,
                Some("apparent"),
            )
            .sink("out", SinkKind::Warehouse, &["hourly"])
            .build()
            .unwrap();
        let report = validate(&df).unwrap();
        assert_eq!(report.topo_order, vec!["at", "hot", "hourly"]);
        // The virtual property appears downstream.
        assert!(report.schema_of("at").unwrap().contains("apparent"));
        assert!(report.schema_of("hot").unwrap().contains("apparent"));
        // The aggregate narrows the schema to keys + result.
        let agg = report.schema_of("hourly").unwrap();
        assert_eq!(agg.len(), 2);
        assert!(agg.contains("station"));
        assert!(agg.contains("avg_apparent"));
    }

    #[test]
    fn the_same_flow_lists_its_schemas_in_one_order_every_time() {
        let mut b = DataflowBuilder::new("fan").source("temp", SubscriptionFilter::any(), schema());
        let branches: Vec<String> = (0..8).map(|i| format!("warm{i}")).collect();
        for (i, name) in branches.iter().enumerate() {
            b = b.filter(name, "temp", &format!("temperature > {i}"));
        }
        let inputs: Vec<&str> = branches.iter().map(String::as_str).collect();
        let df = b.sink("out", SinkKind::Console, &inputs).build().unwrap();
        // Each report is a fresh map: a hashed one would seed each anew.
        let orders: Vec<Vec<String>> = (0..8)
            .map(|_| validate(&df).unwrap().schemas.into_keys().collect())
            .collect();
        assert!(orders.iter().all(|o| *o == orders[0]), "{orders:?}");
        assert!(orders[0].is_sorted());
    }

    #[test]
    fn condition_on_missing_attribute_fails_at_node() {
        let df = DataflowBuilder::new("demo")
            .source("temp", SubscriptionFilter::any(), schema())
            .filter("bad", "temp", "wind_speed > 5")
            .sink("out", SinkKind::Console, &["bad"])
            .build()
            .unwrap();
        match validate(&df) {
            Err(DataflowError::AtNode { node, .. }) => assert_eq!(node, "bad"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attribute_consumed_by_aggregate_unavailable_downstream() {
        // After aggregation only group keys + result remain; referencing the
        // raw attribute downstream must fail — exactly the consistency
        // mistake the GUI prevents.
        let df = DataflowBuilder::new("demo")
            .source("temp", SubscriptionFilter::any(), schema())
            .aggregate(
                "agg",
                "temp",
                Duration::from_secs(60),
                &[],
                AggFunc::Avg,
                Some("temperature"),
            )
            .filter("bad", "agg", "temperature > 25") // gone: only avg_temperature
            .sink("out", SinkKind::Console, &["bad"])
            .build()
            .unwrap();
        assert!(matches!(validate(&df), Err(DataflowError::AtNode { node, .. }) if node == "bad"));
    }

    #[test]
    fn join_schema_visible_to_predicate() {
        let left = Schema::new(vec![
            Field::new("station", AttrType::Str),
            Field::new("temperature", AttrType::Float),
        ])
        .unwrap()
        .into_ref();
        let right = Schema::new(vec![
            Field::new("station", AttrType::Str),
            Field::new("rain", AttrType::Float),
        ])
        .unwrap()
        .into_ref();
        let df = DataflowBuilder::new("j")
            .source("t", SubscriptionFilter::any(), left)
            .source("r", SubscriptionFilter::any(), right)
            .join(
                "joined",
                "t",
                "r",
                Duration::from_secs(10),
                "station = right_station",
            )
            .sink("out", SinkKind::Console, &["joined"])
            .build()
            .unwrap();
        let report = validate(&df).unwrap();
        let js = report.schema_of("joined").unwrap();
        assert!(js.contains("station") && js.contains("right_station") && js.contains("rain"));
    }

    #[test]
    fn structural_errors_surface_from_dsn_layer() {
        // Gated source never activated.
        let df = DataflowBuilder::new("g")
            .source("a", SubscriptionFilter::any(), schema())
            .gated_source("b", SubscriptionFilter::any(), schema())
            .sink("out", SinkKind::Console, &["a"])
            .build()
            .unwrap();
        assert!(matches!(validate(&df), Err(DataflowError::Dsn(_))));
    }

    #[test]
    fn type_error_in_transform_fails() {
        let df = DataflowBuilder::new("t")
            .source("a", SubscriptionFilter::any(), schema())
            .transform("bad", "a", &[("station", "station + 1")]) // str + int
            .sink("out", SinkKind::Console, &["bad"])
            .build()
            .unwrap();
        assert!(matches!(validate(&df), Err(DataflowError::AtNode { .. })));
    }
}
