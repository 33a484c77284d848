//! Runtime state of a deployed dataflow.
//!
//! [`Engine::deploy`](crate::Engine::deploy) compiles a conceptual dataflow
//! to SCN commands and actuates each one *once* into the structures here;
//! afterwards tuples follow what was installed and no hop looks a name up
//! again. Every source becomes a [`SourceRuntime`] (a broker subscription,
//! the currently bound sensors, the acquisition gate that Trigger-On/Off
//! flip, and its resolved consumers). Every operator and every sink becomes
//! one [`Endpoint`] record in the endpoint table, addressed by the
//! [`EndpointId`] that events, shard jobs and consumer lists carry. The
//! record owns everything the engine knows about that delivery target: its
//! placement, the live [`Operator`] process (with its shard replicas and
//! latest checkpoint) or the sink kind, its resolved consumers, its circuit
//! breaker, its backlog-migration stamp, and its instruments: the
//! operator's [`OpCounters`] with its ingress queue state, the sink's
//! end-to-end latency (whose count is the sink's total). A deployment's
//! sources are one more record, the `~sources` pseudo-operator, whose
//! counters tally what they delivered. The table is the monitor's
//! ([`Monitor::endpoints`](crate::Monitor)): it reads the counters off the
//! records and keeps no copy of them.
//!
//! **Lifetime rule: an id is never reused; events outlive deployments, ids
//! do not.** `undeploy` retires the record ([`Role::Retired`] — only the
//! names and the instruments stay, for dead letters and the monitor), so an
//! event still in flight towards it is dropped where it lands and can never
//! reach a later deployment that reuses the name. That deployment's record
//! of the same name takes the retired one's instruments over when it is
//! minted, so its counters continue where its predecessor's stopped.
//!
//! A [`Deployment`] keeps the *one* name index (`services` / `sinks`:
//! name → id, borrowed-`&str` lookups) for callers that speak names: the
//! public API, reports, and the name-ordered sweeps (fan-out, preemption,
//! watermarks) whose order is observable.
//!
//! Everything here is plain state — the behaviour lives in
//! [`crate::engine`] (actuation, ticking, routing), `crate::delivery` (the
//! hop), `crate::sources` (binding, acquisition), `crate::storage` (sinks,
//! checkpoints) and `crate::control` (placement changes).

use crate::monitor::OpCounters;
use sl_dataflow::Dataflow;
use sl_dsn::SinkKind;
use sl_faults::CircuitBreaker;
use sl_netsim::{FlowId, NodeId, ProcessId};
use sl_obs::Histogram;
use sl_ops::{OpCheckpoint, Operator};
use sl_pubsub::SubscriptionId;
use sl_stt::{SchemaRef, SensorId, Timestamp, Tuple};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Handle of one delivery target (service or sink): an index into the
/// engine's endpoint table, assigned by `deploy()` and never reused.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EndpointId(pub(crate) u32);

impl EndpointId {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }

    /// The id a service's CPU demand is tracked under in the load tracker.
    /// Derived, so a record and its load cannot name different processes;
    /// ids are minted in creation order, which keeps the tracker's id-order
    /// tie-breaks.
    pub(crate) fn process(self) -> ProcessId {
        ProcessId(u64::from(self.0))
    }

    /// The endpoint whose load is tracked as `process`.
    pub(crate) fn of_process(process: ProcessId) -> EndpointId {
        EndpointId(process.0 as u32)
    }
}

/// Runtime state of one dataflow source.
pub(crate) struct SourceRuntime {
    /// The broker subscription backing it.
    pub subscription: SubscriptionId,
    /// Declared tuple schema (tuples are projected onto it).
    pub schema: SchemaRef,
    /// Whether acquisition is currently active (triggers flip this).
    pub active: bool,
    /// Sensors currently bound.
    pub sensors: BTreeSet<SensorId>,
    /// (consumer, port) pairs reading from this source, in install order.
    pub consumers: Vec<(EndpointId, usize)>,
    /// The last few tuples produced (at most 8, newest last) — the Figure 2
    /// bottom panel's "data sample coming from each source" (demo P1).
    pub recent: VecDeque<Tuple>,
}

/// Runtime state of one operator process.
pub(crate) struct ServiceRuntime {
    /// The live operator; swapped only through [`ServiceRuntime::set_op`].
    pub op: Box<dyn Operator>,
    /// Copies of `op` for the shard workers, made on demand. A shard job
    /// borrows one for its run and its result hands it back.
    pub replicas: Vec<Box<dyn Operator>>,
    /// A blocking `op`'s window cache as its checkpoint log has it — the
    /// last base with every delta since folded in — restored onto the
    /// recovery placement after a node crash. `None` until the first record:
    /// that one is forced to be a base.
    pub checkpoint: Option<OpCheckpoint>,
    /// `checkpoint`'s `byte_size()`, kept by the fold so the
    /// `checkpoint/bytes` gauge costs what a delta touched.
    pub checkpoint_bytes: usize,
    /// The durable log failed to take a record of `checkpoint` (a frame
    /// over its size limit, say), so it no longer follows the fold: each
    /// record from here on is a base of the whole fold, until one is taken.
    pub rebase: bool,
    /// Producer names in port order.
    pub inputs: Vec<String>,
    /// Whether a periodic tick is scheduled (blocking operators).
    pub blocking: bool,
    /// (consumer, port) pairs reading this operator's output, in install
    /// order.
    pub consumers: Vec<(EndpointId, usize)>,
    /// Last backlog-driven re-placement (ping-pong damper).
    pub last_backlog_migration: Option<Timestamp>,
}

impl ServiceRuntime {
    /// Swap the live operator. Replicas and the checkpoint were derived
    /// from the old one, so neither survives it.
    pub(crate) fn set_op(&mut self, op: Box<dyn Operator>) {
        self.blocking = op.is_blocking();
        (self.op, self.replicas) = (op, Vec::new());
        (self.checkpoint, self.checkpoint_bytes, self.rebase) = (None, 0, false);
    }
}

/// Runtime state of one sink. Its delivered-tuples total is the count of
/// its record's [`Endpoint::e2e`], which every arrival records.
pub(crate) struct SinkRuntime {
    /// Destination kind.
    pub kind: SinkKind,
}

/// What an [`Endpoint`] currently is.
pub(crate) enum Role {
    /// An operator process.
    Service(ServiceRuntime),
    /// A sink endpoint.
    Sink(SinkRuntime),
    /// A deployment's sources as one pseudo-operator, `~sources`: its
    /// counters tally the tuples they delivered. Nothing is placed on it or
    /// delivered to it, so its `node` means nothing.
    Sources,
    /// Torn down with its deployment; whatever still arrives is dropped.
    Retired,
}

/// One delivery target: everything the engine keeps per service or sink
/// (and per deployment's `~sources`).
pub(crate) struct Endpoint {
    /// `(deployment, name)` — for dead letters, log lines and reports.
    pub names: (String, String),
    /// Node currently hosting the process or sink endpoint.
    pub node: NodeId,
    /// The service or sink behind the id.
    pub role: Role,
    /// Circuit breaker of the delivery path into this endpoint; created by
    /// the path's first failure.
    pub breaker: Option<CircuitBreaker>,
    /// The operator's (or `~sources`') counters and ingress queue
    /// (`op/{deployment}/{name}/*`), created by its first tuple or tick:
    /// the monitor lists it from then on. `None` for a sink.
    pub counters: Option<OpCounters>,
    /// A sink's end-to-end virtual latency, sampling instant to arrival
    /// (`engine/e2e/{deployment}/{sink}_us`); its count is the sink's
    /// delivered total. Empty for a service.
    pub e2e: Histogram,
}

impl Endpoint {
    /// The operator process, if this endpoint is a live service.
    pub(crate) fn service(&self) -> Option<&ServiceRuntime> {
        match &self.role {
            Role::Service(svc) => Some(svc),
            _ => None,
        }
    }

    /// Mutable access to the operator process of a live service.
    pub(crate) fn service_mut(&mut self) -> Option<&mut ServiceRuntime> {
        match &mut self.role {
            Role::Service(svc) => Some(svc),
            _ => None,
        }
    }

    /// This record's counters, created on first use.
    pub(crate) fn counters_mut(&mut self) -> &mut OpCounters {
        self.counters.get_or_insert_with(OpCounters::default)
    }
}

/// One dataflow edge with its installed flow (service/sink edges only;
/// sensor→source edges route dynamically).
#[derive(Debug, Clone)]
pub(crate) struct EdgeRuntime {
    /// Producer name.
    pub from: String,
    /// Consumer name.
    pub to: String,
    /// Installed flow, when both endpoints are placed.
    pub flow: Option<FlowId>,
}

/// A deployed dataflow.
pub(crate) struct Deployment {
    /// The validated conceptual dataflow.
    pub dataflow: Dataflow,
    /// Its DSN text (shown in demo P2).
    pub dsn_text: String,
    /// Source runtimes by name.
    pub sources: BTreeMap<String, SourceRuntime>,
    /// Service endpoints by name.
    pub services: BTreeMap<String, EndpointId>,
    /// Sink endpoints by name.
    pub sinks: BTreeMap<String, EndpointId>,
    /// Edges with flows.
    pub edges: Vec<EdgeRuntime>,
    /// The record of the `~sources` pseudo-operator ([`Role::Sources`]).
    pub intake: EndpointId,
}

/// A read-only snapshot of one service's placement and capabilities, for
/// external analyzers (sl-lint's deployment tier, dashboards). Everything
/// here is derived from live runtime state at the moment of the call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceView {
    /// Service name.
    pub name: String,
    /// Operator kind (`filter`, `aggregate`, …).
    pub kind: String,
    /// Node currently hosting the process.
    pub node: NodeId,
    /// Whether a periodic tick is scheduled (blocking operators).
    pub blocking: bool,
    /// The live operator can be replicated across shard workers.
    pub shardable: bool,
    /// The live operator persists window state through checkpoints.
    pub checkpointable: bool,
    /// Producer names in port order.
    pub inputs: Vec<String>,
}

/// A read-only snapshot of a whole deployment: per-service capability and
/// placement facts plus the acquisition state of each source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentView {
    /// Deployment name.
    pub name: String,
    /// Service snapshots, in name order.
    pub services: Vec<ServiceView>,
    /// Sources currently acquiring.
    pub active_sources: Vec<String>,
    /// Sources deployed but dormant (awaiting a Trigger-On).
    pub gated_sources: Vec<String>,
}

impl Deployment {
    /// A read-only capability/placement snapshot of this deployment.
    pub(crate) fn view(&self, name: &str, endpoints: &[Endpoint]) -> DeploymentView {
        let services = self
            .services
            .iter()
            .filter_map(|(n, id)| {
                let ep = endpoints.get(id.index())?;
                let s = ep.service()?;
                Some(ServiceView {
                    name: n.clone(),
                    kind: s.op.kind().to_string(),
                    node: ep.node,
                    blocking: s.blocking,
                    shardable: s.op.is_shardable(),
                    // Blocking ⇔ checkpointable (pinned by `sl-ops`'s spec
                    // tests): no need to snapshot a window to learn it.
                    checkpointable: s.blocking,
                    inputs: s.inputs.clone(),
                })
            })
            .collect();
        let (active, gated): (Vec<_>, Vec<_>) = self.sources.iter().partition(|(_, s)| s.active);
        DeploymentView {
            name: name.to_string(),
            services,
            active_sources: active.into_iter().map(|(n, _)| n.clone()).collect(),
            gated_sources: gated.into_iter().map(|(n, _)| n.clone()).collect(),
        }
    }

    /// The id behind a named endpoint (service or sink).
    pub(crate) fn endpoint(&self, name: &str) -> Option<EndpointId> {
        self.services
            .get(name)
            .or_else(|| self.sinks.get(name))
            .copied()
    }
}
