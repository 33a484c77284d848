//! The abstract domain shared by the lint passes: per-stream properties
//! (schema, STT granularities, estimated rate) propagated source→sink
//! through the document, plus small expression-analysis helpers.
//!
//! Everything here is an *estimate* biased toward catching problems: rates
//! are upper bounds except where an operator's semantics guarantee a
//! reduction (culls, aggregates), and unknown quantities stay `None` so the
//! passes can skip rather than guess.

use sl_dsn::DsnDocument;
use sl_expr::{Bindings, Expr, ExprError};
use sl_ops::OpSpec;
use sl_stt::{
    AttrType, Schema, SchemaRef, SpatialGranularity, SttError, TemporalGranularity, Value,
};
use std::collections::{BTreeMap, HashMap, HashSet};

/// How many groups a grouped aggregation is assumed to emit per tick when
/// the true key cardinality is unknown.
const GROUPS_ESTIMATE: f64 = 8.0;

/// Statically-known properties of the stream a producer emits.
#[derive(Debug, Clone)]
pub(crate) struct StreamProps {
    /// The tuple schema, when it resolved.
    pub(crate) schema: Option<SchemaRef>,
    /// Temporal granularity: raw sensor streams are millisecond-granular;
    /// aggregations coarsen to their window.
    pub(crate) tgran: TemporalGranularity,
    /// Spatial granularity: located streams are point-granular; ungrouped
    /// aggregations collapse to the whole world.
    pub(crate) sgran: SpatialGranularity,
    /// Estimated tuples per second, when advertised sensor frequencies are
    /// available.
    pub(crate) rate_hz: Option<f64>,
}

/// What propagation learned about one service from its one instance.
#[derive(Debug)]
pub(crate) struct ServiceFacts {
    /// The properties of its input streams, by port.
    pub(crate) inputs: Vec<StreamProps>,
    /// Estimated tuples per second summed over its inputs, when every
    /// input's rate is known.
    pub(crate) in_rate_hz: Option<f64>,
    /// Estimated operator-ops/s (`in_rate_hz × cost_per_tuple`), when the
    /// rate is known and the spec instantiated against its input schemas.
    pub(crate) demand: Option<f64>,
}

/// The outcome of propagation: properties per producer, facts per service,
/// plus the schema-resolution errors found on the way (one per failing
/// operator).
#[derive(Debug, Default)]
pub(crate) struct Propagation {
    /// Properties for every producer whose inputs resolved.
    pub(crate) props: BTreeMap<String, StreamProps>,
    /// Facts for every service whose inputs resolved.
    pub(crate) services: BTreeMap<String, ServiceFacts>,
    /// `(service, error)` for every operator whose spec failed against its
    /// input schemas.
    pub(crate) schema_errors: Vec<(String, sl_ops::OpError)>,
}

/// Propagate stream properties through `doc` in `topo_order`, instantiating
/// each service once against its input schemas.
///
/// `schemas` maps source names to their declared schemas (possibly partial:
/// hand-authored DSN text may not determine every schema); `source_rates`
/// maps source names to estimated tuples/sec where known.
pub(crate) fn propagate(
    doc: &DsnDocument,
    schemas: &HashMap<String, SchemaRef>,
    source_rates: &HashMap<String, f64>,
    topo_order: &[String],
) -> Propagation {
    let mut out = Propagation::default();
    for src in &doc.sources {
        out.props.insert(
            src.name.clone(),
            StreamProps {
                schema: schemas.get(&src.name).cloned(),
                tgran: TemporalGranularity::Millisecond,
                sgran: SpatialGranularity::Point,
                rate_hz: source_rates.get(&src.name).copied(),
            },
        );
    }
    for name in topo_order {
        let Some(svc) = doc.service(name) else {
            continue;
        };
        let Some(inputs) = svc
            .inputs
            .iter()
            .map(|i| out.props.get(i).cloned())
            .collect::<Option<Vec<_>>>()
        else {
            continue; // starved by an upstream failure, already reported
        };
        let in_rate_hz = inputs.iter().map(|p| p.rate_hz).sum::<Option<f64>>();
        let mut schema = None;
        let mut demand = None;
        if let Some(in_schemas) = inputs
            .iter()
            .map(|p| p.schema.clone())
            .collect::<Option<Vec<_>>>()
        {
            match svc.spec.instantiate(&in_schemas) {
                Ok(op) => {
                    schema = Some(op.output_schema());
                    demand = in_rate_hz.map(|rate| rate * op.cost_per_tuple());
                }
                Err(e) => out.schema_errors.push((name.clone(), e)),
            }
        }
        let Some(props) = transfer(&svc.spec, schema, &inputs) else {
            continue;
        };
        out.props.insert(name.clone(), props);
        out.services.insert(
            name.clone(),
            ServiceFacts {
                inputs,
                in_rate_hz,
                demand,
            },
        );
    }
    out
}

/// The per-operator transfer function of the abstract domain. `None` for a
/// service with no input at all (`SL003` reports it).
fn transfer(
    spec: &OpSpec,
    schema: Option<SchemaRef>,
    inputs: &[StreamProps],
) -> Option<StreamProps> {
    let first = inputs.first()?;
    Some(match spec {
        OpSpec::Filter { .. }
        | OpSpec::Transform { .. }
        | OpSpec::VirtualProperty { .. }
        | OpSpec::TriggerOn { .. }
        | OpSpec::TriggerOff { .. } => StreamProps {
            schema,
            tgran: first.tgran,
            sgran: first.sgran,
            // Filters/triggers pass tuples through; upper bound is the input.
            rate_hz: first.rate_hz,
        },
        OpSpec::CullTime { rate, .. } | OpSpec::CullSpace { rate, .. } => StreamProps {
            schema,
            tgran: first.tgran,
            sgran: first.sgran,
            // Assume the targeted region covers the stream: 1-of-r survives.
            rate_hz: first.rate_hz.map(|r| r / (*rate).max(1) as f64),
        },
        OpSpec::Aggregate {
            period, group_by, ..
        } => {
            let groups = if group_by.is_empty() {
                1.0
            } else {
                GROUPS_ESTIMATE
            };
            let out_rate = first
                .rate_hz
                .map(|r| r.min(groups / period.as_secs_f64().max(1e-9)));
            StreamProps {
                schema,
                tgran: TemporalGranularity::Custom(period.as_millis().max(1)),
                sgran: if group_by.is_empty() {
                    SpatialGranularity::World
                } else {
                    first.sgran
                },
                rate_hz: out_rate,
            }
        }
        OpSpec::Join { period, predicate } => {
            let second = inputs.get(1).unwrap_or(first);
            let correlated = join_sides(predicate, inputs)
                .map(|s| !s.left_refs.is_empty() && !s.right_refs.is_empty())
                .unwrap_or(false);
            let rate_hz = match (first.rate_hz, second.rate_hz) {
                (Some(l), Some(r)) => Some(if correlated {
                    l.max(r)
                } else {
                    // Uncorrelated sides multiply: per second, up to
                    // l·period × r·period matches every period.
                    l * r * period.as_secs_f64()
                }),
                _ => None,
            };
            StreamProps {
                schema,
                tgran: first.tgran.meet(second.tgran),
                sgran: first.sgran.meet(second.sgran),
                rate_hz,
            }
        }
    })
}

/// Which side of a join each predicate attribute constrains.
#[derive(Debug, Default)]
pub(crate) struct JoinSides {
    /// Predicate attributes resolved against the left input.
    pub left_refs: Vec<String>,
    /// Predicate attributes resolved against the right input (under their
    /// joined names, i.e. `right_`-prefixed on collision).
    pub right_refs: Vec<String>,
}

/// Classify a join predicate's attribute references by input side. `None`
/// when the predicate does not parse or either input schema is unknown.
pub(crate) fn join_sides(predicate: &str, inputs: &[StreamProps]) -> Option<JoinSides> {
    let left = inputs.first()?.schema.clone()?;
    let right = inputs.get(1)?.schema.clone()?;
    let expr = sl_expr::parse(predicate).ok()?;
    let left_names: HashSet<&str> = left.fields().iter().map(|f| f.name.as_str()).collect();
    let right_names: HashSet<String> = joined_right_names(&left, &right).into_iter().collect();
    let mut sides = JoinSides::default();
    for attr in expr.referenced_attrs() {
        if left_names.contains(attr) {
            sides.left_refs.push(attr.to_string());
        } else if right_names.contains(attr) {
            sides.right_refs.push(attr.to_string());
        }
        // Metadata pseudo-attributes (`_ts`, ...) constrain the joined tuple,
        // not a specific side.
    }
    Some(sides)
}

/// The names the right input's fields take in the joined schema (mirrors
/// [`Schema::join`]'s collision handling: `right_` prefixes).
pub(crate) fn joined_right_names(left: &Schema, right: &Schema) -> Vec<String> {
    let mut taken: HashSet<String> = left.fields().iter().map(|f| f.name.clone()).collect();
    let mut out = Vec::with_capacity(right.len());
    for f in right.fields() {
        let mut name = f.name.clone();
        while taken.contains(&name) {
            name.insert_str(0, "right_");
        }
        taken.insert(name.clone());
        out.push(name);
    }
    out
}

/// Bytes-per-tuple estimate from a schema (values + STT metadata).
pub(crate) fn width_bytes(schema: &Schema) -> f64 {
    // Timestamp + location + sensor id + theme pointer — the serialized
    // envelope every tuple carries.
    let meta = 40.0;
    meta + schema
        .fields()
        .iter()
        .map(|f| match f.ty {
            AttrType::Bool => 1.0,
            AttrType::Int | AttrType::Float | AttrType::Time => 8.0,
            AttrType::Geo => 16.0,
            AttrType::Str => 24.0, // average short string
        })
        .sum::<f64>()
}

struct NoAttrs;

impl Bindings for NoAttrs {
    fn lookup(&self, name: &str) -> Result<Value, ExprError> {
        Err(ExprError::Stt(SttError::UnknownAttribute(name.to_string())))
    }
}

/// Constant-fold an expression that references no attributes. `None` when
/// the expression references attributes, does not parse, or fails to
/// evaluate (e.g. division by zero — someone else's diagnostic).
pub(crate) fn fold_constant(source: &str) -> Option<Value> {
    let expr = sl_expr::parse(source).ok()?;
    fold_expr(&expr)
}

/// Constant-fold an already-parsed expression (see [`fold_constant`]).
pub(crate) fn fold_expr(expr: &Expr) -> Option<Value> {
    if !expr.referenced_attrs().is_empty() {
        return None;
    }
    sl_expr::eval(expr, &NoAttrs).ok()
}

/// All expression source texts carried by a spec, with the parameter each
/// belongs to (mirrors the contexts attached by the operator constructors).
pub(crate) fn spec_exprs(spec: &OpSpec) -> Vec<(String, &str)> {
    match spec {
        OpSpec::Filter { condition } => vec![("filter condition".into(), condition.as_str())],
        OpSpec::Transform { assignments } => assignments
            .iter()
            .map(|(attr, src)| (format!("assignment to `{attr}`"), src.as_str()))
            .collect(),
        OpSpec::VirtualProperty { property, spec } => {
            vec![(
                format!("specification of property `{property}`"),
                spec.as_str(),
            )]
        }
        OpSpec::Join { predicate, .. } => vec![("join predicate".into(), predicate.as_str())],
        OpSpec::TriggerOn { condition, .. } | OpSpec::TriggerOff { condition, .. } => {
            vec![("trigger condition".into(), condition.as_str())]
        }
        OpSpec::CullTime { .. } | OpSpec::CullSpace { .. } | OpSpec::Aggregate { .. } => Vec::new(),
    }
}

/// Attribute names a spec consumes *outside* expressions (aggregation keys
/// and the aggregated attribute).
pub(crate) fn spec_attr_refs(spec: &OpSpec) -> Vec<&str> {
    match spec {
        OpSpec::Aggregate { group_by, attr, .. } => group_by
            .iter()
            .map(String::as_str)
            .chain(attr.as_deref())
            .collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::Field;

    fn schema(fields: &[(&str, AttrType)]) -> SchemaRef {
        Schema::new(fields.iter().map(|(n, t)| Field::new(n, *t)).collect())
            .unwrap()
            .into_ref()
    }

    #[test]
    fn fold_constant_evaluates_literal_predicates() {
        assert_eq!(fold_constant("1 > 2"), Some(Value::Bool(false)));
        assert_eq!(fold_constant("true or false"), Some(Value::Bool(true)));
        assert_eq!(fold_constant("temperature > 2"), None); // has attrs
        assert_eq!(fold_constant("1 / 0"), None); // eval error
    }

    #[test]
    fn a_service_without_inputs_is_reported_not_propagated() {
        let doc = sl_dsn::parse_document(
            "dsn \"zero\" {
               source temp { filter: has temp:float; mode: active; }
               service f { op: filter; condition: 'temp > 1'; inputs: ; }
               sink out { kind: console; inputs: f; }
             }",
        )
        .unwrap();
        let schemas = HashMap::from([("temp".to_string(), schema(&[("temp", AttrType::Float)]))]);
        let out = propagate(&doc, &schemas, &HashMap::new(), &["f".to_string()]);
        assert!(!out.props.contains_key("f") && !out.services.contains_key("f"));
        assert_eq!(out.schema_errors.len(), 1, "{:?}", out.schema_errors);
    }

    #[test]
    fn joined_right_names_prefix_on_collision() {
        let l = schema(&[("station", AttrType::Str), ("temperature", AttrType::Float)]);
        let r = schema(&[("station", AttrType::Str), ("rain", AttrType::Float)]);
        assert_eq!(
            joined_right_names(&l, &r),
            vec!["right_station".to_string(), "rain".into()]
        );
    }

    #[test]
    fn width_counts_fields_and_meta() {
        let s = schema(&[("a", AttrType::Float), ("b", AttrType::Str)]);
        assert_eq!(width_bytes(&s), 40.0 + 8.0 + 24.0);
    }
}
