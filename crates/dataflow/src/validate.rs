//! Dataflow validation: structural checks plus schema propagation.
//!
//! This is the gate before translation: "Once the dataflow is consistent
//! (i.e. it can be soundly activated at network level), the translation is
//! automatically invoked" (paper §1). Validation computes the schema at
//! every node — the information the Figure 2 bottom panel shows per
//! operation. [`validate_full`] accumulates *every* inconsistency (the
//! canvas shows all red nodes at once); [`validate`] keeps the historical
//! fail-fast contract of returning the first node-attributed error.

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

/// The full outcome of validation: every inconsistency found, plus the
/// schemas of all nodes that *did* resolve (the canvas colours bad nodes red
/// but still annotates the good ones).
#[derive(Debug, Clone, Default)]
pub struct FullValidation {
    /// Every problem found: structural DSN errors first, then node-attributed
    /// schema errors in topological order. Downstream nodes starved of a
    /// schema by an upstream failure are skipped, not re-reported.
    pub errors: Vec<DataflowError>,
    /// Output schema of every node that resolved (all sources, plus every
    /// operator whose inputs resolved and whose spec type-checked).
    pub schemas: BTreeMap<String, SchemaRef>,
    /// Operator names in a valid execution order; empty when the dependency
    /// graph is cyclic.
    pub topo_order: Vec<String>,
}

impl FullValidation {
    /// True when no problem was found.
    pub fn is_clean(&self) -> bool {
        self.errors.is_empty()
    }

    /// The first (worst) error, mirroring the historical fail-fast result.
    pub fn worst(&self) -> Option<&DataflowError> {
        self.errors.first()
    }
}

/// Validate a dataflow. All DSN structural checks run first (via the
/// translation path, which guarantees the conceptual graph and its DSN image
/// are checked identically), then schemas are propagated source→sink.
/// Fail-fast: the first problem found is returned.
pub fn validate(df: &Dataflow) -> Result<ValidationReport, DataflowError> {
    let mut full = validate_full(df);
    if full.errors.is_empty() {
        Ok(ValidationReport {
            schemas: full.schemas,
            topo_order: full.topo_order,
        })
    } else {
        Err(full.errors.remove(0))
    }
}

/// Run every check and collect all diagnostics, continuing schema
/// propagation past failed nodes wherever inputs still resolve.
pub fn validate_full(df: &Dataflow) -> FullValidation {
    // Structural pass (unique names, arity, cycles, trigger targets, gated
    // sources, channels) — accumulated at the DSN layer.
    let doc = to_dsn(df);
    let structural = sl_dsn::validate::validate_full(&doc);
    let mut errors: Vec<DataflowError> = structural
        .errors
        .into_iter()
        .map(DataflowError::Dsn)
        .collect();
    let topo_order = structural.topo_order.unwrap_or_default();

    // Schema propagation in topological order. A node whose inputs lack a
    // schema (because an upstream node already failed, or the input does not
    // exist — both already reported) is skipped rather than blamed again.
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
        match spec.output_schema(&inputs) {
            Ok(out) => {
                schemas.insert(name.clone(), out);
            }
            Err(error) => errors.push(DataflowError::AtNode {
                node: name.clone(),
                error,
            }),
        }
    }
    FullValidation {
        errors,
        schemas,
        topo_order,
    }
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
    fn validate_full_accumulates_independent_failures() {
        // Two independent bad branches off the same source: the fail-fast API
        // reports one, the full report shows both — and the good branch's
        // schema still resolves.
        let df = DataflowBuilder::new("multi")
            .source("temp", SubscriptionFilter::any(), schema())
            .filter("bad_a", "temp", "wind_speed > 5") // unknown attribute
            .transform("bad_b", "temp", &[("station", "station + 1")]) // str + int
            .filter("good", "temp", "temperature > 25")
            .sink("out", SinkKind::Console, &["bad_a", "bad_b", "good"])
            .build()
            .unwrap();
        let full = validate_full(&df);
        assert_eq!(full.errors.len(), 2, "{:?}", full.errors);
        let nodes: Vec<_> = full
            .errors
            .iter()
            .filter_map(|e| match e {
                DataflowError::AtNode { node, .. } => Some(node.as_str()),
                _ => None,
            })
            .collect();
        assert!(nodes.contains(&"bad_a") && nodes.contains(&"bad_b"));
        assert!(full.schemas.contains_key("good"));
        assert!(!full.schemas.contains_key("bad_a"));
        assert!(matches!(validate(&df), Err(DataflowError::AtNode { .. })));
    }

    #[test]
    fn validate_full_skips_starved_downstream_nodes() {
        // `bad` fails, so `after` has no input schema: it must be skipped,
        // not blamed for its upstream's failure.
        let df = DataflowBuilder::new("cascade")
            .source("temp", SubscriptionFilter::any(), schema())
            .filter("bad", "temp", "wind_speed > 5")
            .filter("after", "bad", "temperature > 0")
            .sink("out", SinkKind::Console, &["after"])
            .build()
            .unwrap();
        let full = validate_full(&df);
        assert_eq!(full.errors.len(), 1, "{:?}", full.errors);
        assert!(matches!(&full.errors[0], DataflowError::AtNode { node, .. } if node == "bad"));
        assert!(!full.schemas.contains_key("after"));
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
