//! The conceptual dataflow graph.

use crate::error::DataflowError;
use sl_dsn::{SinkKind, SourceMode};
use sl_netsim::QosSpec;
use sl_ops::OpSpec;
use sl_pubsub::SubscriptionFilter;
use sl_stt::SchemaRef;
use std::collections::BTreeMap;

/// What a node is.
#[derive(Debug, Clone)]
pub enum NodeKind {
    /// A data source: a sensor binding with its declared tuple schema.
    Source {
        /// Sensor filter.
        filter: SubscriptionFilter,
        /// Declared tuple schema (sensors bound at deployment must subsume
        /// it).
        schema: SchemaRef,
        /// Initial acquisition mode.
        mode: SourceMode,
    },
    /// A Table-1 operation.
    Operator {
        /// The operation.
        spec: OpSpec,
    },
    /// A sink.
    Sink {
        /// Destination kind.
        kind: SinkKind,
    },
}

/// A named node plus its input wiring.
#[derive(Debug, Clone)]
pub struct DfNode {
    /// Unique node name.
    pub name: String,
    /// What it is.
    pub kind: NodeKind,
    /// Producer names in port order (empty for sources).
    pub inputs: Vec<String>,
}

impl DfNode {
    /// True if other nodes may read from this one.
    pub fn is_producer(&self) -> bool {
        !matches!(self.kind, NodeKind::Sink { .. })
    }

    /// The operator spec, if this is an operator node.
    pub fn spec(&self) -> Option<&OpSpec> {
        match &self.kind {
            NodeKind::Operator { spec } => Some(spec),
            _ => None,
        }
    }
}

/// A conceptual ETL dataflow: the object the Figure 2 canvas edits.
#[derive(Debug, Clone, Default)]
pub struct Dataflow {
    /// Dataflow name.
    pub name: String,
    nodes: Vec<DfNode>,
    qos: BTreeMap<(String, String), QosSpec>,
}

impl Dataflow {
    /// An empty dataflow.
    pub fn new(name: &str) -> Dataflow {
        Dataflow {
            name: name.to_string(),
            nodes: Vec::new(),
            qos: BTreeMap::new(),
        }
    }

    /// Add a node, checking name uniqueness and input references.
    pub fn add_node(&mut self, node: DfNode) -> Result<(), DataflowError> {
        if self.nodes.iter().any(|n| n.name == node.name) {
            return Err(DataflowError::DuplicateNode(node.name));
        }
        for input in &node.inputs {
            match self.node(input) {
                None => return Err(DataflowError::UnknownNode(input.clone())),
                Some(n) if !n.is_producer() => {
                    return Err(DataflowError::NotAProducer(input.clone()))
                }
                Some(_) => {}
            }
        }
        self.nodes.push(node);
        Ok(())
    }

    /// Remove a node (demo P3: operators "modified on the fly"). Fails if
    /// any other node reads from it.
    pub fn remove_node(&mut self, name: &str) -> Result<DfNode, DataflowError> {
        let idx = self
            .nodes
            .iter()
            .position(|n| n.name == name)
            .ok_or_else(|| DataflowError::UnknownNode(name.to_string()))?;
        if self
            .nodes
            .iter()
            .any(|n| n.inputs.iter().any(|i| i == name))
        {
            return Err(DataflowError::NotAProducer(format!(
                "{name} still has consumers"
            )));
        }
        self.qos.retain(|(from, to), _| from != name && to != name);
        Ok(self.nodes.remove(idx))
    }

    /// Replace an operator's spec in place (on-the-fly modification). The
    /// caller re-validates afterwards.
    pub fn replace_spec(&mut self, name: &str, spec: OpSpec) -> Result<(), DataflowError> {
        let node = self
            .nodes
            .iter_mut()
            .find(|n| n.name == name)
            .ok_or_else(|| DataflowError::UnknownNode(name.to_string()))?;
        match &mut node.kind {
            NodeKind::Operator { spec: old } => {
                *old = spec;
                Ok(())
            }
            _ => Err(DataflowError::UnknownNode(format!(
                "{name} is not an operator"
            ))),
        }
    }

    /// Declare QoS for the edge `from → to`.
    pub fn set_qos(&mut self, from: &str, to: &str, qos: QosSpec) -> Result<(), DataflowError> {
        let exists = self
            .nodes
            .iter()
            .any(|n| n.name == to && n.inputs.iter().any(|i| i == from));
        if !exists {
            return Err(DataflowError::UnknownNode(format!("edge {from} -> {to}")));
        }
        self.qos.insert((from.to_string(), to.to_string()), qos);
        Ok(())
    }

    /// QoS for an edge, defaulting to best-effort.
    pub fn qos_for(&self, from: &str, to: &str) -> QosSpec {
        self.qos
            .get(&(from.to_string(), to.to_string()))
            .copied()
            .unwrap_or_default()
    }

    /// All declared QoS entries, in `(from, to)` order.
    pub fn qos_entries(&self) -> impl Iterator<Item = (&(String, String), &QosSpec)> {
        self.qos.iter()
    }

    /// Node by name.
    pub fn node(&self, name: &str) -> Option<&DfNode> {
        self.nodes.iter().find(|n| n.name == name)
    }

    /// All nodes, in insertion order.
    pub fn nodes(&self) -> &[DfNode] {
        &self.nodes
    }

    /// Source nodes.
    pub fn sources(&self) -> impl Iterator<Item = &DfNode> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Source { .. }))
    }

    /// Operator nodes.
    pub fn operators(&self) -> impl Iterator<Item = &DfNode> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Operator { .. }))
    }

    /// Sink nodes.
    pub fn sinks(&self) -> impl Iterator<Item = &DfNode> {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Sink { .. }))
    }

    /// All edges `(from, to, port)`.
    pub fn edges(&self) -> Vec<(String, String, usize)> {
        let mut out = Vec::new();
        for n in &self.nodes {
            for (port, input) in n.inputs.iter().enumerate() {
                out.push((input.clone(), n.name.clone(), port));
            }
        }
        out
    }

    /// Consumers of a node, with the port they read on.
    pub fn consumers(&self, name: &str) -> Vec<(&DfNode, usize)> {
        let mut out = Vec::new();
        for n in &self.nodes {
            for (port, input) in n.inputs.iter().enumerate() {
                if input == name {
                    out.push((n, port));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{AttrType, Field, Schema};

    fn schema() -> SchemaRef {
        Schema::new(vec![Field::new("v", AttrType::Float)])
            .unwrap()
            .into_ref()
    }

    fn source(name: &str) -> DfNode {
        DfNode {
            name: name.into(),
            kind: NodeKind::Source {
                filter: SubscriptionFilter::any(),
                schema: schema(),
                mode: SourceMode::Active,
            },
            inputs: vec![],
        }
    }

    fn filter(name: &str, input: &str) -> DfNode {
        DfNode {
            name: name.into(),
            kind: NodeKind::Operator {
                spec: OpSpec::Filter {
                    condition: "v > 0".into(),
                },
            },
            inputs: vec![input.into()],
        }
    }

    fn sink(name: &str, input: &str) -> DfNode {
        DfNode {
            name: name.into(),
            kind: NodeKind::Sink {
                kind: SinkKind::Console,
            },
            inputs: vec![input.into()],
        }
    }

    #[test]
    fn build_simple_graph() {
        let mut df = Dataflow::new("t");
        df.add_node(source("s")).unwrap();
        df.add_node(filter("f", "s")).unwrap();
        df.add_node(sink("out", "f")).unwrap();
        assert_eq!(df.nodes().len(), 3);
        assert_eq!(df.sources().count(), 1);
        assert_eq!(df.operators().count(), 1);
        assert_eq!(df.sinks().count(), 1);
        assert_eq!(df.edges().len(), 2);
        assert_eq!(df.consumers("s").len(), 1);
    }

    #[test]
    fn rejects_duplicates_and_unknown_inputs() {
        let mut df = Dataflow::new("t");
        df.add_node(source("s")).unwrap();
        assert!(matches!(
            df.add_node(source("s")),
            Err(DataflowError::DuplicateNode(_))
        ));
        assert!(matches!(
            df.add_node(filter("f", "ghost")),
            Err(DataflowError::UnknownNode(_))
        ));
    }

    #[test]
    fn sink_cannot_be_input() {
        let mut df = Dataflow::new("t");
        df.add_node(source("s")).unwrap();
        df.add_node(sink("out", "s")).unwrap();
        assert!(matches!(
            df.add_node(filter("f", "out")),
            Err(DataflowError::NotAProducer(_))
        ));
    }

    #[test]
    fn remove_node_guards_consumers() {
        let mut df = Dataflow::new("t");
        df.add_node(source("s")).unwrap();
        df.add_node(filter("f", "s")).unwrap();
        assert!(df.remove_node("s").is_err()); // f consumes s
        let removed = df.remove_node("f").unwrap();
        assert_eq!(removed.name, "f");
        assert!(df.remove_node("s").is_ok());
        assert!(df.remove_node("ghost").is_err());
    }

    #[test]
    fn replace_spec_in_place() {
        let mut df = Dataflow::new("t");
        df.add_node(source("s")).unwrap();
        df.add_node(filter("f", "s")).unwrap();
        df.replace_spec(
            "f",
            OpSpec::Filter {
                condition: "v > 10".into(),
            },
        )
        .unwrap();
        match df.node("f").unwrap().spec().unwrap() {
            OpSpec::Filter { condition } => assert_eq!(condition, "v > 10"),
            other => panic!("{other:?}"),
        }
        assert!(df
            .replace_spec(
                "s",
                OpSpec::Filter {
                    condition: "1 > 0".into()
                }
            )
            .is_err());
        assert!(df
            .replace_spec(
                "ghost",
                OpSpec::Filter {
                    condition: "1 > 0".into()
                }
            )
            .is_err());
    }

    #[test]
    fn qos_on_real_edges_only() {
        let mut df = Dataflow::new("t");
        df.add_node(source("s")).unwrap();
        df.add_node(filter("f", "s")).unwrap();
        let q = QosSpec::best_effort().with_min_bandwidth(5);
        df.set_qos("s", "f", q).unwrap();
        assert_eq!(df.qos_for("s", "f"), q);
        assert!(df.qos_for("f", "s").is_best_effort());
        assert!(df.set_qos("f", "s", q).is_err());
        // Removing the consumer clears the QoS entry.
        df.remove_node("f").unwrap();
        assert_eq!(df.qos_entries().count(), 0);
    }

    #[test]
    fn the_same_flow_lists_its_channels_in_key_order_every_time() {
        for _ in 0..8 {
            let mut df = Dataflow::new("t");
            df.add_node(source("s")).unwrap();
            for name in ["c", "a", "b"] {
                df.add_node(filter(name, "s")).unwrap();
                let q = QosSpec::best_effort().with_min_bandwidth(5);
                df.set_qos("s", name, q).unwrap();
            }
            let keys: Vec<_> = df.qos_entries().map(|(k, _)| k.1.as_str()).collect();
            assert_eq!(keys, ["a", "b", "c"]);
        }
    }
}
