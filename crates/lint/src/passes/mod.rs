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

use crate::analysis::StreamProps;
use crate::diag::Diagnostic;
use crate::model::{DeployGraph, DeployModel};
use crate::LintConfig;
use sl_dsn::DsnDocument;
use sl_netsim::Topology;
use sl_pubsub::SensorRegistry;
use sl_stt::SchemaRef;
use std::collections::{BTreeMap, HashMap};

/// Everything a pass may look at.
pub(crate) struct PassCx<'a> {
    /// The document under analysis (the canonical form of the dataflow).
    pub doc: &'a DsnDocument,
    /// Declared source schemas (possibly partial for hand-authored text).
    pub schemas: &'a HashMap<String, SchemaRef>,
    /// Propagated stream properties per producer.
    pub props: &'a BTreeMap<String, StreamProps>,
    /// `producer → (consumer, port)` adjacency.
    pub consumers: &'a HashMap<String, Vec<(String, usize)>>,
    /// The deployment target, when known.
    pub topology: Option<&'a Topology>,
    /// The live sensor registry, when known.
    pub registry: Option<&'a SensorRegistry>,
    /// Thresholds.
    pub config: &'a LintConfig,
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
        self.props.get(name)
    }
}

/// One analysis pass.
pub(crate) type PassFn = fn(&PassCx<'_>, &mut Vec<Diagnostic>);

/// The pipeline, in execution order. Structural mapping runs before these
/// (it feeds on the accumulating validators, not on [`PassCx`]).
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
