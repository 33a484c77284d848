//! The lint passes. Each pass is a pure function over [`PassCx`] that
//! appends [`Diagnostic`]s; the pipeline in `lib.rs` runs them in order
//! after the structural mapping and property propagation.

pub(crate) mod bounded;
pub(crate) mod deadcode;
pub(crate) mod deadlock;
pub(crate) mod granularity;
pub(crate) mod rate;
pub(crate) mod recovery;
pub(crate) mod resource;
pub(crate) mod shard;
pub(crate) mod structure;

use crate::analysis::{Propagation, ServiceFacts, StreamProps};
use crate::diag::Diagnostic;
use crate::model::{DeployGraph, DeployModel};
use sl_dsn::DsnDocument;
use sl_engine::EngineConfig;
use sl_netsim::Topology;
use sl_pubsub::SensorRegistry;
use sl_stt::SchemaRef;
use std::collections::HashMap;

/// Everything a pass may look at.
pub(crate) struct PassCx<'a> {
    /// The document under analysis (the canonical form of the dataflow).
    pub doc: &'a DsnDocument,
    /// Declared source schemas (possibly partial for hand-authored text).
    pub schemas: &'a HashMap<String, SchemaRef>,
    /// Propagated stream properties per producer and facts per service.
    pub propagation: &'a Propagation,
    /// `producer → (consumer, port)` adjacency.
    pub consumers: &'a HashMap<String, Vec<(String, usize)>>,
    /// The deployment target, when known.
    pub topology: Option<&'a Topology>,
    /// The live sensor registry, when known.
    pub registry: Option<&'a SensorRegistry>,
    /// The deploying engine's configuration, when known.
    pub engine: Option<&'a EngineConfig>,
    /// The deployment model (engine config + fault plan + durability),
    /// when the deployment tier is running.
    pub model: Option<&'a DeployModel<'a>>,
    /// The deployment graph derived from the model, document, and
    /// environment. Present exactly when `model` is.
    pub graph: Option<&'a DeployGraph>,
}

impl PassCx<'_> {
    /// The propagated properties of a producer, if it resolved.
    pub(crate) fn props_of(&self, name: &str) -> Option<&StreamProps> {
        self.propagation.props.get(name)
    }

    /// What propagation learned about a service, if its inputs resolved.
    pub(crate) fn service(&self, name: &str) -> Option<&ServiceFacts> {
        self.propagation.services.get(name)
    }

    /// The fastest up node's CPU capacity, and each service (in declaration
    /// order) whose estimated demand exceeds it. Such a service falls
    /// behind on every possible placement. Empty without a topology.
    pub(crate) fn over_best_node(&self) -> (f64, Vec<(&str, f64)>) {
        let Some(topology) = self.topology else {
            return (0.0, Vec::new());
        };
        let best_node: f64 = topology
            .node_ids()
            .filter_map(|n| topology.node(n).ok())
            .filter(|n| n.up)
            .map(|n| n.cpu_capacity)
            .fold(0.0, f64::max);
        if best_node <= 0.0 {
            return (best_node, Vec::new());
        }
        let over = self
            .doc
            .services
            .iter()
            .filter_map(|svc| {
                let demand = self.service(&svc.name)?.demand?;
                (demand > best_node).then_some((svc.name.as_str(), demand))
            })
            .collect();
        (best_node, over)
    }
}

/// One analysis pass.
pub(crate) type PassFn = fn(&PassCx<'_>, &mut Vec<Diagnostic>);

/// The pipeline, in execution order. Structural mapping runs before these
/// (it feeds on `sl-dsn`'s accumulating validator and on propagation's
/// schema errors, not on [`PassCx`]).
pub(crate) const PIPELINE: &[(&str, PassFn)] = &[
    ("granularity", granularity::run),
    ("bounded", bounded::run),
    ("rate", rate::run),
    ("deadcode", deadcode::run),
    ("deadlock", deadlock::run),
    ("shard", shard::run),
    ("recovery", recovery::run),
    ("resource", resource::run),
];
