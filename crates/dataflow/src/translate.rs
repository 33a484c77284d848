//! Translation between conceptual dataflows and DSN documents.
//!
//! "When a conceptual dataflow is realized, the translator module is in
//! charge to translate it in DSN/SCN and execute it at network level"
//! (paper §3). [`to_dsn`] is purely structural: source schemas stay on the
//! conceptual side (the engine re-checks them against the sensors bound at
//! deployment). The reverse direction, [`from_dsn`], rebuilds a conceptual
//! dataflow from a (possibly hand-authored) document — source schemas are
//! supplied explicitly or inferred from the sensor directory with
//! [`infer_source_schema`].

use crate::error::DataflowError;
use crate::graph::{Dataflow, DfNode, NodeKind};
use sl_dsn::{ChannelDecl, DsnDocument, ServiceDecl, SinkDecl, SourceDecl};
use sl_pubsub::{SensorRegistry, SubscriptionFilter};
use sl_stt::{Schema, SchemaRef};
use std::collections::HashMap;

/// Translate a dataflow to its DSN document.
pub fn to_dsn(df: &Dataflow) -> DsnDocument {
    let mut doc = DsnDocument::new(&df.name);
    for node in df.nodes() {
        match &node.kind {
            NodeKind::Source { filter, mode, .. } => {
                doc.sources.push(SourceDecl {
                    name: node.name.clone(),
                    filter: filter.clone(),
                    mode: *mode,
                });
            }
            NodeKind::Operator { spec } => {
                doc.services.push(ServiceDecl {
                    name: node.name.clone(),
                    spec: spec.clone(),
                    inputs: node.inputs.clone(),
                });
            }
            NodeKind::Sink { kind } => {
                doc.sinks.push(SinkDecl {
                    name: node.name.clone(),
                    kind: *kind,
                    inputs: node.inputs.clone(),
                });
            }
        }
    }
    // Channels, in key order.
    for ((from, to), qos) in df.qos_entries() {
        doc.channels.push(ChannelDecl {
            from: from.clone(),
            to: to.clone(),
            qos: *qos,
        });
    }
    doc
}

/// Rebuild a conceptual dataflow from a DSN document.
///
/// `schemas` supplies the declared tuple schema of every source (keyed by
/// source name) — DSN documents do not carry schemas, sensors do. Nodes are
/// added sources-first, then services in an input-satisfying order, then
/// sinks; the result is *not* validated (call [`crate::validate()`]).
pub fn from_dsn(
    doc: &DsnDocument,
    schemas: &HashMap<String, SchemaRef>,
) -> Result<Dataflow, DataflowError> {
    let mut df = Dataflow::new(&doc.name);
    for src in &doc.sources {
        let schema = schemas.get(&src.name).cloned().ok_or_else(|| {
            DataflowError::UnknownNode(format!("no schema for source `{}`", src.name))
        })?;
        df.add_node(DfNode {
            name: src.name.clone(),
            kind: NodeKind::Source {
                filter: src.filter.clone(),
                schema,
                mode: src.mode,
            },
            inputs: vec![],
        })?;
    }
    // Services may be declared in any order; insert in passes until all
    // inputs resolve (cycles surface as an error).
    let mut pending: Vec<&ServiceDecl> = doc.services.iter().collect();
    while !pending.is_empty() {
        let before = pending.len();
        pending.retain(|svc| {
            let ready = svc.inputs.iter().all(|i| df.node(i).is_some());
            if ready {
                df.add_node(DfNode {
                    name: svc.name.clone(),
                    kind: NodeKind::Operator {
                        spec: svc.spec.clone(),
                    },
                    inputs: svc.inputs.clone(),
                })
                .is_err() // keep on error (will be reported below)
            } else {
                true
            }
        });
        if pending.len() == before {
            return Err(DataflowError::Dsn(sl_dsn::DsnError::Cycle {
                witness: pending[0].name.clone(),
            }));
        }
    }
    for sink in &doc.sinks {
        df.add_node(DfNode {
            name: sink.name.clone(),
            kind: NodeKind::Sink { kind: sink.kind },
            inputs: sink.inputs.clone(),
        })?;
    }
    for ch in &doc.channels {
        df.set_qos(&ch.from, &ch.to, ch.qos)?;
    }
    Ok(df)
}

/// Infer the declared schema of a source from the sensors currently
/// matching its filter: the fields present (with an identical type and
/// unit) in *every* matching advertisement, in the order of the first one.
/// Returns `None` when no sensor matches.
pub fn infer_source_schema(
    filter: &SubscriptionFilter,
    registry: &SensorRegistry,
) -> Option<SchemaRef> {
    let mut matching = registry.discover(filter);
    let first = matching.next()?;
    let mut fields: Vec<sl_stt::Field> = first.schema.fields().to_vec();
    for ad in matching {
        fields.retain(|f| {
            ad.schema
                .field(&f.name)
                .is_ok_and(|g| g.ty == f.ty && g.unit == f.unit)
        });
    }
    if fields.is_empty() {
        return None;
    }
    Schema::new(fields).ok().map(Schema::into_ref)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DataflowBuilder;
    use sl_dsn::{compile, parse_document, print_document, SinkKind};
    use sl_netsim::QosSpec;
    use sl_ops::AggFunc;
    use sl_pubsub::SubscriptionFilter;
    use sl_stt::{AttrType, Duration, Field, Schema, SchemaRef, Theme};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("temperature", AttrType::Float),
            Field::new("station", AttrType::Str),
        ])
        .unwrap()
        .into_ref()
    }

    fn scenario() -> Dataflow {
        DataflowBuilder::new("osaka-hot-weather")
            .source(
                "temperature",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                schema(),
            )
            .gated_source(
                "rain",
                SubscriptionFilter::any().with_theme(Theme::new("weather/rain").unwrap()),
                Schema::new(vec![Field::new("rain", AttrType::Float)])
                    .unwrap()
                    .into_ref(),
            )
            .aggregate(
                "hourly",
                "temperature",
                Duration::from_hours(1),
                &[],
                AggFunc::Avg,
                Some("temperature"),
            )
            .trigger_on(
                "hot",
                "hourly",
                Duration::from_hours(1),
                "avg_temperature > 25",
                &["rain"],
            )
            .filter("torrential", "rain", "rain > 20")
            .sink("edw", SinkKind::Warehouse, &["torrential"])
            .qos(
                "temperature",
                "hourly",
                QosSpec {
                    max_latency: Some(Duration::from_millis(100)),
                    ..QosSpec::best_effort()
                },
            )
            .build()
            .unwrap()
    }

    #[test]
    fn translation_preserves_structure() {
        let df = scenario();
        let doc = to_dsn(&df);
        assert_eq!(doc.name, "osaka-hot-weather");
        assert_eq!(doc.sources.len(), 2);
        assert_eq!(doc.services.len(), 3);
        assert_eq!(doc.sinks.len(), 1);
        assert_eq!(doc.channels.len(), 1);
        assert_eq!(doc.edges().len(), df.edges().len());
    }

    #[test]
    fn translated_document_compiles_to_scn() {
        let doc = to_dsn(&scenario());
        let prog = compile(&doc).unwrap();
        let (binds, spawns, flows, sinks) = prog.census();
        assert_eq!((binds, spawns, flows, sinks), (2, 3, 4, 1));
        // The census is linear in the flow size (Figure 1): a linear flow of
        // n operators binds one source, spawns n, wires n + 1 flows, one sink.
        for n in [1, 5, 20] {
            let mut b = DataflowBuilder::new("linear").source(
                "src",
                SubscriptionFilter::any().with_theme(Theme::new("weather").unwrap()),
                schema(),
            );
            let mut prev = "src".to_string();
            for i in 0..n {
                let name = format!("f{i}");
                b = b.filter(&name, &prev, "temperature > 0");
                prev = name;
            }
            let df = b.sink("out", SinkKind::Console, &[&prev]).build().unwrap();
            let census = compile(&to_dsn(&df)).unwrap().census();
            assert_eq!(census, (1, n, n + 1, 1), "{n} operators");
        }
    }

    #[test]
    fn from_dsn_rebuilds_equivalent_dataflow() {
        let df = scenario();
        let report = crate::validate::validate(&df).unwrap();
        let doc = to_dsn(&df);
        // Source schemas from the original validation report.
        let schemas: std::collections::HashMap<String, SchemaRef> = df
            .sources()
            .map(|n| (n.name.clone(), report.schemas[&n.name].clone()))
            .collect();
        let rebuilt = from_dsn(&doc, &schemas).unwrap();
        // The rebuilt flow validates and translates to the identical text.
        assert!(crate::validate::validate(&rebuilt).is_ok());
        assert_eq!(
            sl_dsn::print_document(&to_dsn(&rebuilt)),
            sl_dsn::print_document(&doc)
        );
    }

    #[test]
    fn from_dsn_requires_schemas() {
        let doc = to_dsn(&scenario());
        let err = from_dsn(&doc, &std::collections::HashMap::new()).unwrap_err();
        assert!(err.to_string().contains("no schema"));
    }

    #[test]
    fn from_dsn_handles_out_of_order_services() {
        let df = scenario();
        let report = crate::validate::validate(&df).unwrap();
        let mut doc = to_dsn(&df);
        doc.services.reverse(); // consumers now precede producers
        let schemas: std::collections::HashMap<String, SchemaRef> = df
            .sources()
            .map(|n| (n.name.clone(), report.schemas[&n.name].clone()))
            .collect();
        let rebuilt = from_dsn(&doc, &schemas).unwrap();
        assert!(crate::validate::validate(&rebuilt).is_ok());
    }

    #[test]
    fn infer_schema_intersects_matching_sensors() {
        use sl_netsim::NodeId;
        use sl_pubsub::{SensorAdvertisement, SensorKind};
        use sl_stt::{SensorId, Theme, Unit};
        let mut registry = SensorRegistry::new();
        let mk = |id: u64, fields: Vec<Field>| SensorAdvertisement {
            id: SensorId(id),
            name: format!("s{id}"),
            kind: SensorKind::Physical,
            schema: Schema::new(fields).unwrap().into_ref(),
            theme: Theme::new("weather/temperature").unwrap(),
            period: sl_stt::Duration::from_secs(10),
            location: None,
            node: NodeId(0),
        };
        registry
            .publish(mk(
                1,
                vec![
                    Field::with_unit("temperature", AttrType::Float, Unit::Celsius),
                    Field::new("station", AttrType::Str),
                    Field::new("humidity", AttrType::Float),
                ],
            ))
            .unwrap();
        registry
            .publish(mk(
                2,
                vec![
                    Field::with_unit("temperature", AttrType::Float, Unit::Celsius),
                    Field::new("station", AttrType::Str),
                ],
            ))
            .unwrap();
        // A Fahrenheit outlier kills the common unit for `temperature`... but
        // only if it matches the filter.
        registry
            .publish(mk(
                3,
                vec![Field::with_unit(
                    "temperature",
                    AttrType::Float,
                    Unit::Fahrenheit,
                )],
            ))
            .unwrap();
        let all = SubscriptionFilter::any();
        // Across all three only nothing is common (unit mismatch on
        // temperature, station missing from #3).
        assert!(infer_source_schema(&all, &registry).is_none());
        // Restricted to the Celsius pair: temperature+station survive,
        // humidity (missing from #2) is dropped.
        let celsius = SubscriptionFilter::any().require_unit("temperature", Unit::Celsius);
        let schema = infer_source_schema(&celsius, &registry).unwrap();
        assert!(schema.contains("temperature"));
        assert!(schema.contains("station"));
        assert!(!schema.contains("humidity"));
        // Empty registry: no inference.
        assert!(infer_source_schema(&all, &SensorRegistry::new()).is_none());
    }

    #[test]
    fn translated_document_round_trips_textually() {
        let doc = to_dsn(&scenario());
        let text = print_document(&doc);
        let reparsed = parse_document(&text).unwrap();
        assert_eq!(print_document(&reparsed), text);
        // Re-compiling the reparsed document yields the same program shape.
        assert_eq!(
            compile(&reparsed).unwrap().census(),
            compile(&doc).unwrap().census()
        );
    }
}
