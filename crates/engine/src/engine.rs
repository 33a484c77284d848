//! The [`Engine`]: the coordinator of Figure 1 — deployment actuation,
//! routing and the discrete-event execution loop.
//!
//! `deploy()` resolves every name once: each service and sink becomes one
//! [`Endpoint`] record in the monitor's endpoint table, and from then on events,
//! consumer lists and shard jobs carry its [`EndpointId`]. `undeploy()`
//! retires the records; ids are never reused, so an event that outlives its
//! deployment is dropped where it lands instead of finding a namesake.
//!
//! This file holds the struct, its accessors, `deploy` / `undeploy` /
//! `replace_operator`, routing and the event loop. The three concerns the
//! engine coordinates each have one owner module beside it, all `impl
//! Engine` blocks over this struct: `crate::sources` (acquisition: sensors,
//! binding, the sampling instant, credits), `crate::storage` (loading: the
//! warehouse, continuous queries, checkpoints) and `crate::control`
//! (monitoring, migration, faults, recovery). The hop between endpoints is
//! `crate::delivery`.

use crate::config::{
    EngineConfig, PlacementPolicy, CONSOLE_CAPACITY, INITIAL_DEMAND, PROCESSING_DELAY,
};
use crate::deployment::{
    Deployment, DeploymentView, EdgeRuntime, Endpoint, EndpointId, Role, ServiceRuntime,
    SinkRuntime, SourceRuntime,
};
use crate::error::EngineError;
use crate::instruments::EngineInstruments;
use crate::monitor::{Monitor, PlacementChange};
use crate::shard::{invoke, ShardJob, ShardJobResult, ShardPool};
use crate::sources::SensorEntry;
use crate::storage::{restore_window, Storage};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sl_dataflow::{to_dsn, validate, Dataflow};
use sl_dsn::{compile, print_document, ScnCommand, SinkKind};
use sl_faults::{BreakerState, DeadLetterQueue, FaultAction};
use sl_netsim::{
    EventQueue, FlowTable, LoadTracker, NetError, NetStats, NodeId, QosSpec, Route, RoutingTable,
    Topology,
};
use sl_obs::{Histogram, MetricsSnapshot};
use sl_ops::{CheckpointDelta, OpContext};
use sl_pubsub::Broker;
use sl_stt::{Duration, SchemaRef, SensorId, Timestamp, Tuple};
use std::collections::{BTreeMap, HashMap};

/// Events driving the engine.
pub(crate) enum Ev {
    /// A sensor's sampling instant.
    SensorEmit(u64),
    /// A tuple arrives at a service or sink after network transfer.
    Deliver {
        to: EndpointId,
        port: usize,
        tuple: Tuple,
    },
    /// A blocking operator's periodic tick.
    Tick(EndpointId),
    /// Monitor sampling (rates, demand refresh, migration check).
    MonitorSample,
    /// A scheduled fault-plan action fires.
    Fault(FaultAction),
    /// Re-attempt a delivery that previously found no route.
    RetryDeliver {
        to: EndpointId,
        port: usize,
        tuple: Tuple,
        /// Node the tuple is buffered on (where it was produced).
        from_node: NodeId,
        /// Retry attempt number (1-based: the first retry is attempt 1).
        attempt: u32,
        /// When the original delivery failed (recovery-latency baseline).
        first_failed_at: Timestamp,
    },
}

/// A terminally undeliverable tuple, parked in the engine's dead-letter
/// queue together with its [`DropReason`](sl_faults::DropReason).
#[derive(Debug, Clone)]
pub struct DeadTuple {
    /// Deployment the tuple belonged to.
    pub deployment: String,
    /// Operator or sink it was headed for.
    pub target: String,
    /// The tuple itself.
    pub tuple: Tuple,
}

/// The StreamLoader execution engine. See the crate docs for the model.
pub struct Engine {
    pub(crate) topology: Topology,
    pub(crate) queue: EventQueue<Ev>,
    pub(crate) broker: Broker,
    pub(crate) flows: FlowTable,
    /// CPU demand per service, keyed by [`EndpointId::process`]; placed with
    /// the record and moved only by `relocate`, so it follows `Endpoint::node`.
    pub(crate) loads: LoadTracker,
    pub(crate) net_stats: NetStats,
    /// The logs, and the endpoint records with their counters.
    pub(crate) monitor: Monitor,
    /// The warehouse, the continuous queries and the staged checkpoints.
    pub(crate) storage: Storage,
    /// The sensor fleet; `crate::sources` is its only writer.
    pub(crate) sensors: BTreeMap<u64, SensorEntry>,
    /// Active deployments; each holds the name → id index of its endpoints.
    pub(crate) deployments: BTreeMap<String, Deployment>,
    /// Route cache keyed by (from, to) node.
    pub(crate) route_cache: HashMap<(u32, u32), Option<Route>>,
    pub(crate) config: EngineConfig,
    pub(crate) rng: StdRng,
    /// The last trace id handed to a tuple entering the dataflows (ids
    /// start at 1; 0 on tuple metadata means "no trace assigned").
    pub(crate) last_trace: u64,
    /// Engine-level instruments: event-loop timing, enrichment, delivery,
    /// overload, storage and shard counters, queue depth.
    pub(crate) inst: EngineInstruments,
    /// `loads.version()` the last overload scan started from. While it has
    /// not moved, the scan would read the demands and placements it read
    /// then, and it moved nothing then.
    pub(crate) overload_scanned_at: Option<u64>,
    /// The next operator call's output buffer: `forward` hands each drained
    /// output vector back here, so an emission reuses its capacity.
    pub(crate) emit_buf: Vec<Tuple>,
    /// One sensor emission's `(consumer, port, tuple)` deliveries,
    /// collected while the sources are borrowed and then sent; kept, empty,
    /// for the next emission.
    pub(crate) fanout: Vec<(EndpointId, usize, Tuple)>,
    /// Wall-clock origin for operator timings (virtual time measures the
    /// simulation; `proc_us` measures the host's processing cost).
    epoch: std::time::Instant,
    /// The shard worker pool, spawned by the first parallel run (None while
    /// `config.parallelism <= 1`).
    pool: Option<ShardPool>,
}

impl Engine {
    /// Create an engine on the given network, with the virtual clock at
    /// `start`.
    pub fn new(topology: Topology, config: EngineConfig, start: Timestamp) -> Engine {
        let mut queue = EventQueue::new(start);
        queue.schedule_in(config.monitor_period, Ev::MonitorSample);
        Engine {
            topology,
            queue,
            broker: Broker::new(),
            flows: FlowTable::new(),
            loads: LoadTracker::new(),
            net_stats: NetStats::new(),
            monitor: Monitor::with_dlq_capacity(config.dlq_capacity),
            storage: Storage::memory(),
            sensors: BTreeMap::new(),
            deployments: BTreeMap::new(),
            route_cache: HashMap::new(),
            rng: StdRng::seed_from_u64(config.seed),
            last_trace: 0,
            config,
            inst: EngineInstruments::default(),
            overload_scanned_at: None,
            emit_buf: Vec::new(),
            fanout: Vec::new(),
            epoch: std::time::Instant::now(),
            pool: None,
        }
    }

    /// Set the worker count of the sharded execution layer. `1` (the
    /// default) keeps the classic single-threaded event loop; `n > 1`
    /// executes batches of same-instant non-blocking deliveries on `n`
    /// worker threads with outputs identical to sequential execution
    /// (`DESIGN.md` §5f). Takes effect at the next [`Engine::run_until`].
    pub fn set_parallelism(&mut self, n: usize) {
        self.config.parallelism = n.max(1);
        // Rebuilt lazily with the new size.
        self.pool = None;
    }

    /// Current worker count of the sharded execution layer.
    pub fn parallelism(&self) -> usize {
        self.config.parallelism
    }

    /// Current virtual time.
    pub fn now(&self) -> Timestamp {
        self.queue.now()
    }

    /// The monitor (Figure 3 data).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// Network statistics.
    pub fn net_stats(&self) -> &NetStats {
        &self.net_stats
    }

    /// The pub/sub broker (discovery lives here).
    pub fn broker(&self) -> &Broker {
        &self.broker
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// One unified observability snapshot across every subsystem. Keys are
    /// prefixed by origin: `engine/` (event-loop timing, enrichment, dead letters,
    /// queue depth), `op/` (per-operator counters and processing latency),
    /// `broker/` (pub/sub matching), `net/` (per-link transfer latency and
    /// queued bytes), `warehouse/` (ingest latency, roll-ups), `cq/`
    /// (continuous queries: match latency, delta fan-out/drops, view and
    /// subscriber gauges), and — with a durable backend — `durable/`
    /// (fsync latency, bytes written/read, recovery duration, segment
    /// counts).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.absorb("engine", &self.inst.snapshot_with(&self.monitor.endpoints));
        snap.absorb("engine", &self.monitor.dlq_metrics());
        snap.absorb("op", &self.monitor.metrics_snapshot());
        snap.absorb("broker", &self.broker.metrics_snapshot());
        snap.absorb("net", &self.net_stats.metrics_snapshot());
        self.absorb_storage_metrics(&mut snap);
        snap
    }

    /// The load tracker (node utilisation view).
    pub fn loads(&self) -> &LoadTracker {
        &self.loads
    }

    /// Names of active deployments.
    pub fn deployment_names(&self) -> Vec<&str> {
        self.deployments.keys().map(String::as_str).collect()
    }

    fn deployment(&self, name: &str) -> Result<&Deployment, EngineError> {
        self.deployments
            .get(name)
            .ok_or_else(|| EngineError::UnknownDeployment(name.to_string()))
    }

    /// The DSN text of a deployment (demo P2's translation display).
    pub fn dsn_text(&self, deployment: &str) -> Result<&str, EngineError> {
        Ok(&self.deployment(deployment)?.dsn_text)
    }

    /// The deployed dataflow (for rendering).
    pub fn dataflow(&self, deployment: &str) -> Result<&Dataflow, EngineError> {
        Ok(&self.deployment(deployment)?.dataflow)
    }

    /// A read-only capability/placement snapshot of a deployment (see
    /// [`DeploymentView`]): per-service shard/checkpoint capabilities,
    /// current placement, and source acquisition state.
    pub fn deployment_view(&self, deployment: &str) -> Result<DeploymentView, EngineError> {
        Ok(self
            .deployment(deployment)?
            .view(deployment, &self.monitor.endpoints))
    }

    /// The live endpoint (service or sink) behind a name pair.
    pub(crate) fn endpoint(&self, deployment: &str, name: &str) -> Option<&Endpoint> {
        let id = self.deployments.get(deployment)?.endpoint(name)?;
        self.monitor.endpoints.get(id.index())
    }

    fn source(&self, deployment: &str, source: &str) -> Option<&SourceRuntime> {
        self.deployments.get(deployment)?.sources.get(source)
    }

    /// Node currently hosting a service.
    pub fn node_of(&self, deployment: &str, service: &str) -> Option<NodeId> {
        self.endpoint(deployment, service).map(|ep| ep.node)
    }

    /// Whether a source is currently acquiring.
    pub fn source_active(&self, deployment: &str, source: &str) -> Option<bool> {
        self.source(deployment, source).map(|s| s.active)
    }

    /// The last few tuples (at most 8, newest last) a source produced —
    /// what the design GUI shows as the per-source data sample (demo P1).
    pub fn recent_samples(&self, deployment: &str, source: &str) -> Vec<Tuple> {
        let src = self.source(deployment, source);
        src.map_or_else(Vec::new, |s| s.recent.iter().cloned().collect())
    }

    /// Sensors currently bound to a source.
    pub fn bound_sensors(&self, deployment: &str, source: &str) -> Vec<SensorId> {
        let src = self.source(deployment, source);
        src.map_or_else(Vec::new, |s| s.sensors.iter().copied().collect())
    }

    // ------------------------------------------------------------------
    // Deployment (Figure 1: translate → configure network → execute)
    // ------------------------------------------------------------------

    /// Deploy a conceptual dataflow: validate, translate to DSN, compile to
    /// SCN and actuate every command on the network. Names are resolved
    /// here, once: every service and sink gets its [`Endpoint`] record and
    /// every consumer list holds ids.
    pub fn deploy(&mut self, dataflow: Dataflow) -> Result<(), EngineError> {
        let name = dataflow.name.clone();
        if self.deployments.contains_key(&name) {
            return Err(EngineError::DuplicateDeployment(name));
        }
        let report = validate(&dataflow)?;
        let doc = to_dsn(&dataflow);
        let dsn_text = print_document(&doc);
        let program = compile(&doc).map_err(sl_dataflow::DataflowError::from)?;

        let mut deployment = Deployment {
            dataflow,
            dsn_text,
            sources: BTreeMap::new(),
            services: BTreeMap::new(),
            sinks: BTreeMap::new(),
            edges: Vec::new(),
            intake: self.mint(&name, "~sources", NodeId(0), Role::Sources),
        };
        for command in &program.commands {
            if let Err(e) = self.actuate(&name, &mut deployment, &report, command) {
                // Nothing of a half-actuated deployment may stay behind: its
                // endpoints would keep ticking with no name to undeploy by.
                self.teardown(deployment);
                return Err(e);
            }
        }
        // Whatever `open_durable` staged for this deployment now lives on
        // its service records.
        self.storage.staged.retain(|(dep, _), _| *dep != name);
        self.deployments.insert(name, deployment);
        Ok(())
    }

    /// Actuate one SCN command of deployment `name`.
    fn actuate(
        &mut self,
        name: &str,
        deployment: &mut Deployment,
        report: &sl_dataflow::ValidationReport,
        command: &ScnCommand,
    ) -> Result<(), EngineError> {
        match command {
            ScnCommand::BindSource {
                source,
                filter,
                active,
            } => {
                let schema = report.schemas[source].clone();
                self.bind_source(name, deployment, source, filter, schema, *active)?;
            }
            ScnCommand::SpawnProcess {
                service,
                spec,
                inputs,
            } => {
                let input_schemas: Vec<SchemaRef> =
                    inputs.iter().map(|i| report.schemas[i].clone()).collect();
                let op = spec
                    .instantiate(&input_schemas)
                    .map_err(|error| EngineError::Op {
                        deployment: name.to_string(),
                        operator: service.clone(),
                        error,
                    })?;
                let demand = INITIAL_DEMAND * op.cost_per_tuple();
                let node = self.pick_node(deployment, inputs, demand)?;
                let (blocking, period) = (op.is_blocking(), op.timer_period());
                let role = Role::Service(ServiceRuntime {
                    op,
                    replicas: Vec::new(),
                    checkpoint: None,
                    checkpoint_bytes: 0,
                    rebase: false,
                    inputs: inputs.clone(),
                    blocking,
                    consumers: Vec::new(),
                    last_backlog_migration: None,
                });
                let id = self.add_endpoint(
                    name,
                    service,
                    node,
                    role,
                    Some(demand),
                    "initial placement",
                )?;
                deployment.services.insert(service.clone(), id);
                if let Some(period) = period {
                    self.queue.schedule_in(period, Ev::Tick(id));
                }
                // A checkpoint staged under this (deployment, service)
                // — recovered from the durable log by `open_durable` —
                // re-seeds the window cache before the first tuple
                // arrives: the restart continues where the crashed
                // process checkpointed.
                let staged = self
                    .storage
                    .staged
                    .get(&(name.to_string(), service.clone()));
                let staged = staged.filter(|_| blocking);
                if let (Some(ckpt), Some(svc)) = (
                    staged.cloned(),
                    self.monitor.endpoints[id.index()].service_mut(),
                ) {
                    svc.checkpoint_bytes = ckpt.byte_size();
                    self.inst.checkpoint_bytes.add(ckpt.byte_size() as i64);
                    let restored = restore_window(&mut self.inst, &mut *svc.op, ckpt.clone());
                    svc.checkpoint = Some(ckpt);
                    self.monitor.durability.push(format!(
                        "[{}] {name}/{service}: window cache restored from checkpoint ({restored})",
                        self.queue.now()
                    ));
                }
            }
            ScnCommand::ConfigureSink { sink, kind } => {
                // Sinks live on the least-loaded node (the EDW endpoint).
                let node = self
                    .loads
                    .least_loaded(&self.topology, self.topology.node_ids(), 0.0)
                    .unwrap_or(NodeId(0));
                let role = Role::Sink(SinkRuntime { kind: *kind });
                let id = self.add_endpoint(name, sink, node, role, None, "sink endpoint")?;
                deployment.sinks.insert(sink.clone(), id);
            }
            ScnCommand::InstallFlow {
                from,
                to,
                port,
                qos,
            } => {
                let flow = match (self.node_in(deployment, from), self.node_in(deployment, to)) {
                    (Some(a), Some(b)) if a != b => {
                        Some(self.install_flow_with_fallback(a, b, qos, name, from, to)?)
                    }
                    _ => None, // source-fed edge or co-located endpoints
                };
                deployment.edges.push(EdgeRuntime {
                    from: from.clone(),
                    to: to.clone(),
                    flow,
                });
                if let Some(consumer) = deployment.endpoint(to) {
                    let producer = deployment
                        .services
                        .get(from)
                        .and_then(|id| self.monitor.endpoints.get_mut(id.index()))
                        .and_then(Endpoint::service_mut);
                    match (producer, deployment.sources.get_mut(from)) {
                        (Some(svc), _) => svc.consumers.push((consumer, *port)),
                        (None, Some(src)) => src.consumers.push((consumer, *port)),
                        (None, None) => {}
                    }
                }
            }
        }
        Ok(())
    }

    /// The initial placement: mint the record of a service or sink on
    /// `node`. A service's CPU `demand` is tracked under its id from here
    /// until `teardown`; a sink has none.
    fn add_endpoint(
        &mut self,
        deployment: &str,
        name: &str,
        node: NodeId,
        role: Role,
        demand: Option<f64>,
        reason: &str,
    ) -> Result<EndpointId, EngineError> {
        let id = EndpointId(self.monitor.endpoints.len() as u32);
        if let Some(demand) = demand {
            self.loads
                .place(&self.topology, id.process(), node, demand, false)?;
        }
        self.mint(deployment, name, node, role);
        self.monitor.placements.push(PlacementChange {
            at: self.queue.now(),
            deployment: deployment.to_string(),
            operator: name.to_string(),
            from: None,
            to: node,
            reason: reason.into(),
        });
        Ok(id)
    }

    /// Push the record (and the never-reused id) of `(deployment, name)`.
    /// It takes over the instruments of its newest namesake, retired with
    /// an earlier deployment of that name, so its counters continue theirs.
    fn mint(&mut self, deployment: &str, name: &str, node: NodeId, role: Role) -> EndpointId {
        let endpoints = &mut self.monitor.endpoints;
        let id = EndpointId(endpoints.len() as u32);
        let names = (deployment.to_string(), name.to_string());
        let namesake = endpoints.iter_mut().rev().find(|ep| ep.names == names);
        let (counters, e2e) = namesake.map_or_else(Default::default, |old| {
            (old.counters.take(), std::mem::take(&mut old.e2e))
        });
        endpoints.push(Endpoint {
            names,
            node,
            role,
            breaker: None,
            counters,
            e2e,
        });
        id
    }

    /// The node hosting a named endpoint of `deployment` (service or sink).
    pub(crate) fn node_in(&self, deployment: &Deployment, name: &str) -> Option<NodeId> {
        let id = deployment.endpoint(name)?;
        self.monitor.endpoints.get(id.index()).map(|ep| ep.node)
    }

    pub(crate) fn install_flow_with_fallback(
        &mut self,
        a: NodeId,
        b: NodeId,
        qos: &QosSpec,
        dep: &str,
        from: &str,
        to: &str,
    ) -> Result<sl_netsim::FlowId, EngineError> {
        match self.flows.install(&self.topology, a, b, qos) {
            Ok(f) => Ok(f),
            Err(NetError::QosUnsatisfiable { reason }) => {
                self.monitor.console.push(format!(
                    "[{}] warn: {dep}: QoS for {from}->{to} unsatisfiable ({reason}); best effort",
                    self.queue.now()
                ));
                Ok(self
                    .flows
                    .install(&self.topology, a, b, &QosSpec::best_effort())?)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Tear a deployment down: drop subscriptions, flows and processes, and
    /// retire its endpoints. Tuples still in flight towards them are
    /// dropped on arrival.
    pub fn undeploy(&mut self, name: &str) -> Result<(), EngineError> {
        let deployment = self
            .deployments
            .remove(name)
            .ok_or_else(|| EngineError::UnknownDeployment(name.to_string()))?;
        self.teardown(deployment);
        Ok(())
    }

    /// Release everything `actuate` installed for `deployment`.
    fn teardown(&mut self, deployment: Deployment) {
        for (_, src) in deployment.sources {
            let _ = self.broker.unsubscribe(src.subscription);
        }
        let ids = deployment
            .services
            .values()
            .chain(deployment.sinks.values());
        for id in ids.chain([&deployment.intake]) {
            let Some(ep) = self.monitor.endpoints.get_mut(id.index()) else {
                continue;
            };
            // The record's breaker, backlog stamp, operator, replicas,
            // checkpoint and queue go with it; what it shared with the rest
            // of the engine is handed back. Its counters stay.
            if let Role::Service(svc) = std::mem::replace(&mut ep.role, Role::Retired) {
                self.loads.remove(id.process());
                if svc.checkpoint_bytes > 0 {
                    self.inst
                        .checkpoint_bytes
                        .add(-(svc.checkpoint_bytes as i64));
                }
            }
            if let Some(counters) = &mut ep.counters {
                counters.ingress = Default::default();
            }
            ep.breaker = None;
        }
        for edge in deployment.edges {
            if let Some(flow) = edge.flow {
                let _ = self.flows.uninstall(flow);
            }
        }
    }

    /// Replace an operator of a running deployment on the fly (demo P3).
    /// The replacement must validate; processing state of the old operator
    /// is discarded (its window cache restarts empty).
    pub fn replace_operator(
        &mut self,
        deployment: &str,
        service: &str,
        spec: sl_ops::OpSpec,
    ) -> Result<(), EngineError> {
        let dep = self
            .deployments
            .get_mut(deployment)
            .ok_or_else(|| EngineError::UnknownDeployment(deployment.to_string()))?;
        let mut df = dep.dataflow.clone();
        df.replace_spec(service, spec.clone())?;
        let report = validate(&df)?;
        let id = dep.services.get(service).copied();
        let svc = id
            .and_then(|id| self.monitor.endpoints.get_mut(id.index()))
            .and_then(Endpoint::service_mut)
            .ok_or_else(|| EngineError::UnknownDeployment(format!("{deployment}/{service}")))?;
        let input_schemas: Vec<SchemaRef> = svc
            .inputs
            .iter()
            .map(|i| report.schemas[i].clone())
            .collect();
        let op = spec
            .instantiate(&input_schemas)
            .map_err(|error| EngineError::Op {
                deployment: deployment.to_string(),
                operator: service.to_string(),
                error,
            })?;
        let (was_blocking, stale_checkpoint) = (svc.blocking, svc.checkpoint.is_some());
        let period = op.timer_period();
        if svc.checkpoint_bytes > 0 {
            self.inst
                .checkpoint_bytes
                .add(-(svc.checkpoint_bytes as i64));
        }
        svc.set_op(op);
        if stale_checkpoint {
            // The log still holds the old operator's window; supersede it,
            // or a restart would restore it into the replacement.
            let empty_base = CheckpointDelta {
                reset: true,
                ..CheckpointDelta::default()
            };
            let console = &mut self.monitor.console;
            self.storage
                .log_checkpoint(console, "clearing", deployment, service, &empty_base);
        }
        dep.dataflow = df;
        dep.dsn_text = print_document(&to_dsn(&dep.dataflow));
        if let (false, Some(period), Some(id)) = (was_blocking, period, id) {
            self.queue.schedule_in(period, Ev::Tick(id));
        }
        self.monitor.console.push(format!(
            "[{}] {deployment}/{service} replaced on the fly",
            self.queue.now()
        ));
        Ok(())
    }

    /// The installed-flow table (reservations and routes), for inspecting
    /// consistency across link failures and repairs.
    pub fn flows(&self) -> &FlowTable {
        &self.flows
    }

    /// The dead-letter queue: terminally undeliverable tuples and the
    /// monotonic per-reason drop counters.
    pub fn dlq(&self) -> &DeadLetterQueue<DeadTuple> {
        &self.monitor.dlq
    }

    /// The active configuration (read-only).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Every live service's in-flight ingress depth, in `(deployment,
    /// service)` name order.
    pub fn ingress_depths(&self) -> impl Iterator<Item = (&(String, String), u64)> {
        let endpoints = &self.monitor.endpoints;
        self.deployments
            .values()
            .flat_map(|d| d.services.values())
            .filter_map(move |id| Some((&endpoints.get(id.index())?.names, self.depth(*id))))
    }

    /// Total in-flight deliveries across every live service's ingress queue.
    pub fn total_inflight(&self) -> u64 {
        self.ingress_depths().map(|(_, depth)| depth).sum()
    }

    /// Current circuit-breaker state for a delivery path, if one has been
    /// created (breakers materialise on the first failure of a path).
    pub fn breaker_state(&self, deployment: &str, target: &str) -> Option<BreakerState> {
        self.endpoint(deployment, target)?
            .breaker
            .as_ref()
            .map(|b| b.state())
    }

    // ------------------------------------------------------------------
    // Placement
    // ------------------------------------------------------------------

    fn pick_node(
        &mut self,
        deployment: &Deployment,
        inputs: &[String],
        demand: f64,
    ) -> Result<NodeId, EngineError> {
        match self.config.placement {
            PlacementPolicy::SourceLocal => {
                // Node of the first placed upstream service, or the node
                // hosting most sensors of the first upstream source.
                for input in inputs {
                    if let Some(node) = self.node_in(deployment, input) {
                        return Ok(node);
                    }
                    if let Some(src) = deployment.sources.get(input) {
                        let mut counts: BTreeMap<NodeId, usize> = BTreeMap::new();
                        for sid in &src.sensors {
                            if let Some(entry) = self.sensors.get(&sid.0) {
                                *counts.entry(entry.ad.node).or_insert(0) += 1;
                            }
                        }
                        if let Some((node, _)) = counts
                            .into_iter()
                            .max_by_key(|(n, c)| (*c, std::cmp::Reverse(n.0)))
                        {
                            return Ok(node);
                        }
                    }
                }
            }
            PlacementPolicy::LeastLoaded => {}
        }
        // The default, and what SourceLocal falls back to.
        Ok(self
            .loads
            .least_loaded(&self.topology, self.topology.node_ids(), demand)
            .unwrap_or(NodeId(0)))
    }

    /// Network delay of a tuple from node `a` to node `b`, recording link
    /// statistics; `None` when unreachable. A local hop crosses no link; a
    /// remote one walks its cached route in place.
    pub(crate) fn transfer(&mut self, a: NodeId, b: NodeId, bytes: usize) -> Option<Duration> {
        let mut total = Duration::ZERO;
        if a == b {
            // A crashed node cannot even deliver to itself.
            if !self.topology.node_is_up(a) {
                return None;
            }
        } else {
            let topology = &self.topology;
            let route = self.route_cache.entry((a.0, b.0)).or_insert_with(|| {
                let table = RoutingTable::compute(topology, a).ok()?;
                table.route_to(b).ok()
            });
            for &link in &route.as_ref()?.links {
                let spec = topology.link(link).ok()?;
                let d = sl_netsim::link_delay(spec.latency, spec.bandwidth_bps, bytes);
                self.net_stats.record_link(link, bytes, d);
                total = total + d;
            }
        }
        self.net_stats.record_node_rx(b, bytes);
        Some(total)
    }

    // ------------------------------------------------------------------
    // Execution loop
    // ------------------------------------------------------------------

    /// Run the virtual clock forward to `deadline`.
    ///
    /// Every event is popped by the one loop below and handled inline,
    /// except that with `config.parallelism > 1` (and a pool with live
    /// workers) eligible deliveries — consecutive queue-head events inside
    /// one processing-delay window, all targeting shardable non-blocking
    /// operators — are drained as a batch, fanned out across the shard
    /// pool, and merged back in drained order (the epoch barrier), which
    /// keeps outputs byte-identical to sequential execution.
    pub fn run_until(&mut self, deadline: Timestamp) {
        if self.config.parallelism > 1 && self.pool.is_none() {
            let pool = ShardPool::new(self.config.parallelism, self.epoch);
            if pool.workers() == 0 {
                // Thread spawning failed: degrade to sequential, don't die.
                self.monitor
                    .console
                    .push("warn: shard pool has no workers; running sequentially".into());
            }
            self.pool = Some(pool);
        }
        // Out of `self` while events run, so a batch can use both.
        let mut pool = self.pool.take();
        let mut live = pool.as_mut().filter(|p| p.workers() > 0);
        // One clock read per event boundary: an event's `ev/*_us` runs from
        // the previous event's end (its pop included) to its own end, so the
        // sums add up to this loop's wall.
        let mut stamp = self.wall_us();
        while let Some((now, ev)) = self.queue.pop_until(deadline) {
            let mut batch = Vec::new();
            if live.is_some() && batch_eligible(&self.monitor.endpoints, &ev) {
                // Drain consecutive eligible events with times in
                // [now, now + window). Children of these events are
                // scheduled at least one full window later (delay +
                // PROCESSING_DELAY), so no drained event's descendant can
                // belong to this batch — that is what makes the merge
                // order-equivalent to sequential.
                let horizon = now + PROCESSING_DELAY;
                while let Some((t, head)) = self.queue.peek() {
                    if t >= horizon
                        || t > deadline
                        || !batch_eligible(&self.monitor.endpoints, head)
                    {
                        break;
                    }
                    batch.extend(self.queue.pop());
                }
            }
            match &mut live {
                // Parallel dispatch costs more than it saves for one tuple.
                // A merged member is timed by its own bracket.
                Some(pool) if !batch.is_empty() => {
                    batch.insert(0, (now, ev));
                    self.run_sharded(pool, batch);
                    stamp = self.wall_us();
                }
                _ => stamp = self.handle(now, ev, stamp),
            }
        }
        self.pool = pool;
    }

    /// Host wall-clock µs since the engine's epoch.
    fn wall_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Execute a drained batch of eligible deliveries on the shard pool and
    /// merge the results back in drained order.
    fn run_sharded(&mut self, pool: &mut ShardPool, batch: Vec<(Timestamp, Ev)>) {
        /// Where one drained delivery went: into a job, or — its operator
        /// would not replicate — nowhere, so the merge runs it inline.
        struct Member {
            at: Timestamp,
            to: EndpointId,
            job: Result<usize, (usize, Tuple)>,
        }
        let workers = pool.workers();
        let shard_key = self.config.shard_key;

        // Group the batch into jobs keyed (endpoint, shard), in first-touch
        // order. Each job borrows one replica from its endpoint's record;
        // a member's item is the next one of its job.
        let mut jobs: Vec<ShardJob> = Vec::new();
        let mut job_index: HashMap<(EndpointId, usize), Option<usize>> = HashMap::new();
        let mut members: Vec<Member> = Vec::with_capacity(batch.len());
        for (i, (at, ev)) in batch.into_iter().enumerate() {
            let Ev::Deliver { to, port, tuple } = ev else {
                continue; // unreachable: eligibility admits only Deliver
            };
            let home = shard_key.shard_of(&tuple, i, workers);
            let job = *job_index.entry((to, home)).or_insert_with(|| {
                let svc = self.monitor.endpoints.get_mut(to.index())?.service_mut()?;
                let op = svc.replicas.pop().or_else(|| svc.op.replicate())?;
                jobs.push(ShardJob {
                    home,
                    key: to,
                    op,
                    port,
                    items: Vec::new(),
                });
                Some(jobs.len() - 1)
            });
            let job = match job {
                Some(job) => {
                    jobs[job].items.push((at, tuple));
                    Ok(job)
                }
                None => Err((port, tuple)),
            };
            members.push(Member { at, to, job });
        }

        // Submit every job, then block until all report back (the barrier).
        let num_jobs = jobs.len();
        let mut base_id = 0u64;
        for (ji, job) in jobs.into_iter().enumerate() {
            self.inst
                .shard(job.home)
                .queue_depth
                .set(job.items.len() as i64);
            let id = pool.submit(job);
            if ji == 0 {
                base_id = id;
            }
        }
        let mut results: Vec<Option<ShardJobResult>> = (0..num_jobs).map(|_| None).collect();
        for _ in 0..num_jobs {
            match pool.recv() {
                Some(r) => {
                    let idx = (r.id - base_id) as usize;
                    if idx < num_jobs {
                        results[idx] = Some(r);
                    }
                }
                None => {
                    self.monitor
                        .console
                        .push("error: shard pool worker died; batch results lost".into());
                    break;
                }
            }
        }

        // Per-shard accounting for this batch; every replica goes home.
        let mut batched_tuples = 0u64;
        let mut slots: Vec<std::vec::IntoIter<_>> = Vec::with_capacity(num_jobs);
        for r in results {
            let Some(r) = r else {
                slots.push(Vec::new().into_iter());
                continue;
            };
            let shard = r.home;
            let inst = self.inst.shard(shard);
            inst.batch_us.record(r.wall_us);
            inst.queue_depth.set(0);
            batched_tuples += r.items.len() as u64;
            let stat = self.monitor.shards.entry(shard).or_default();
            stat.batches += 1;
            stat.tuples += r.items.len() as u64;
            if r.stolen {
                stat.stolen += 1;
            }
            let lender = self.monitor.endpoints.get_mut(r.key.index());
            if let Some(svc) = lender.and_then(Endpoint::service_mut) {
                svc.replicas.push(r.op);
            }
            slots.push(r.items.into_iter());
        }
        self.inst.shard_batches.add(num_jobs as u64);
        self.inst.shard_batched_tuples.add(batched_tuples);
        let steals = pool.steals();
        self.inst
            .shard_steals
            .add(steals.saturating_sub(self.monitor.steals));
        self.monitor.steals = steals;

        // Merge in drained order: counters, forwards and controls
        // fire exactly as the sequential loop would have fired them.
        for m in members {
            let job = match m.job {
                Ok(job) => job,
                Err((port, tuple)) => {
                    let (to, wall0) = (m.to, self.wall_us());
                    self.handle(m.at, Ev::Deliver { to, port, tuple }, wall0);
                    continue;
                }
            };
            let Some((outcome, wall0, wall1)) = slots.get_mut(job).and_then(Iterator::next) else {
                self.release(m.at, m.to);
                let (dep, target) = &self.monitor.endpoints[m.to.index()].names;
                self.monitor.console.push(format!(
                    "[{}] error: {dep}/{target}: tuple lost in shard pool",
                    m.at
                ));
                continue;
            };
            self.inst.ev_deliver_us.record(wall1.saturating_sub(wall0));
            self.settle(m.at, m.to, wall0, wall1, outcome);
        }
    }

    /// Run for `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Dispatch one event, then add the wall time from `since` to its end
    /// to the `ev/*_us` histogram of its kind; returns the end.
    fn handle(&mut self, now: Timestamp, ev: Ev, since: u64) -> u64 {
        let hist: fn(&mut EngineInstruments) -> &mut Histogram = match ev {
            Ev::SensorEmit(id) => {
                self.on_sensor_emit(now, id);
                |i| &mut i.ev_emit_us
            }
            Ev::Deliver { to, port, tuple } => {
                self.on_deliver(now, to, port, tuple);
                |i| &mut i.ev_deliver_us
            }
            Ev::Tick(service) => {
                self.on_tick(now, service);
                |i| &mut i.ev_tick_us
            }
            Ev::MonitorSample => {
                self.on_monitor_sample(now);
                |i| &mut i.ev_monitor_us
            }
            Ev::Fault(action) => {
                self.apply_fault(now, action);
                |i| &mut i.ev_fault_us
            }
            Ev::RetryDeliver {
                to,
                port,
                tuple,
                from_node,
                attempt,
                first_failed_at,
            } => {
                // Placement is re-resolved by the hop, so retries survive
                // target migration and link repair.
                self.send(now, from_node, to, port, tuple, attempt, first_failed_at);
                |i| &mut i.ev_retry_us
            }
        };
        let end = self.wall_us();
        hist(&mut self.inst).record(end.saturating_sub(since));
        end
    }

    fn on_deliver(&mut self, now: Timestamp, to: EndpointId, port: usize, tuple: Tuple) {
        let Some(ep) = self.monitor.endpoints.get_mut(to.index()) else {
            return;
        };
        let (dep_name, target) = (&ep.names.0, &ep.names.1);
        let svc = match &mut ep.role {
            // Undeployed while the tuple was in flight.
            Role::Retired | Role::Sources => return,
            Role::Sink(sink) => {
                // End-to-end virtual latency: sensor sampling instant to
                // sink. Its count is the sink's total.
                let latency = now.since(tuple.meta.timestamp);
                ep.e2e.record((latency.as_secs_f64() * 1e6) as u64);
                match sink.kind {
                    SinkKind::Warehouse => self.store(now, to, &tuple),
                    SinkKind::Console => {
                        if self.monitor.console.len() < CONSOLE_CAPACITY {
                            self.monitor
                                .console
                                .push(format!("[{now}] {dep_name}/{target}: {tuple}"));
                        }
                    }
                    SinkKind::Visualization => {}
                }
                return;
            }
            Role::Service(svc) => svc,
        };
        // Overload control: a deferred shed marker condemns this arrival —
        // the oldest in flight for this operator — before it reaches the
        // operator. Its depth slot was already released at condemnation.
        let condemned = ep
            .counters
            .as_mut()
            .and_then(|counters| counters.ingress.pending.pop_front());
        if let Some(policy) = condemned {
            return self.shed(now, to, tuple, policy);
        }
        let out = std::mem::take(&mut self.emit_buf);
        let (outcome, wall0, wall1) = invoke(&mut *svc.op, port, now, tuple, out, self.epoch);
        // Log what a blocking operator absorbed, so a node crash can restore
        // the cache on the recovery placement.
        self.checkpoint(to);
        self.settle(now, to, wall0, wall1, outcome);
    }

    fn on_tick(&mut self, now: Timestamp, service: EndpointId) {
        // A tick addressed to a retired endpoint ends its chain here.
        let Some(svc) = self
            .monitor
            .endpoints
            .get_mut(service.index())
            .and_then(Endpoint::service_mut)
        else {
            return;
        };
        let Some(period) = svc.op.timer_period() else {
            return;
        };
        let mut ctx = OpContext::with_buffer(now, std::mem::take(&mut self.emit_buf));
        let wall0 = self.epoch.elapsed().as_micros() as u64;
        let result = svc.op.on_timer(now, &mut ctx);
        let wall1 = self.epoch.elapsed().as_micros() as u64;
        let (emitted, controls) = ctx.take();
        // A tick usually flushes the window: log that, so a later crash
        // doesn't resurrect old state.
        self.checkpoint(service);
        if let Some(counters) = self.counters(service) {
            counters.add_out(emitted.len() as u64);
            counters.proc_latency.record(wall1.saturating_sub(wall0));
        }
        // Re-arm the tick first (even on error — blocking ops must keep
        // ticking).
        self.queue.schedule_in(period, Ev::Tick(service));
        if let Err(e) = result {
            let (dep_name, name) = &self.monitor.endpoints[service.index()].names;
            self.monitor
                .console
                .push(format!("[{now}] error: {dep_name}/{name} tick: {e}"));
            return;
        }
        self.forward(now, service, emitted);
        self.apply_controls(now, service, controls);
    }
}

/// True if an event may join a parallel execution batch: a delivery to a
/// live *service* whose operator is shardable and non-blocking. Everything
/// else — sinks, ticks, faults, retries, monitor samples, and stateful or
/// blocking operators — is handled inline on the engine thread, exactly as
/// the sequential loop would.
fn batch_eligible(endpoints: &[Endpoint], ev: &Ev) -> bool {
    let Ev::Deliver { to, .. } = ev else {
        return false;
    };
    let Some(ep) = endpoints.get(to.index()) else {
        return false;
    };
    let Some(svc) = ep.service() else {
        return false;
    };
    // An operator with deferred shed markers pending must consume them
    // inline (in arrival order) through `on_deliver`; markers cannot appear
    // mid-collection because no events are handled while a batch drains.
    let condemned = (ep.counters.as_ref()).is_some_and(|c| !c.ingress.pending.is_empty());
    !condemned && !svc.blocking && svc.op.is_shardable()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_dataflow::DataflowBuilder;
    use sl_netsim::NodeSpec;
    use sl_pubsub::SubscriptionFilter;
    use sl_sensors::physical::TemperatureSensor;
    use sl_stt::{AttrType, Field, GeoPoint, Schema, Theme};

    fn temp_schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("temperature", AttrType::Float),
            Field::new("station", AttrType::Str),
        ])
        .unwrap()
        .into_ref()
    }

    fn start() -> Timestamp {
        Timestamp::from_civil(2016, 7, 1, 12, 0, 0)
    }

    fn engine() -> Engine {
        Engine::new(Topology::nict_testbed(), EngineConfig::default(), start())
    }

    fn temp_sensor(id: u64, node: u32) -> Box<TemperatureSensor> {
        Box::new(TemperatureSensor::new(
            SensorId(id),
            &format!("t{id}"),
            GeoPoint::new_unchecked(34.7, 135.5),
            NodeId(node),
            Duration::from_secs(10),
            false,
            false,
            id,
        ))
    }

    fn simple_flow(name: &str) -> Dataflow {
        DataflowBuilder::new(name)
            .source(
                "temp",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                temp_schema(),
            )
            .filter("all", "temp", "temperature > -100")
            .sink("out", SinkKind::Console, &["all"])
            .build()
            .unwrap()
    }

    #[test]
    fn deploy_and_run_delivers_tuples() {
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(simple_flow("d")).unwrap();
        assert_eq!(e.bound_sensors("d", "temp"), vec![SensorId(1)]);
        e.run_for(Duration::from_secs(60));
        let c = e.monitor().op("d", "all").unwrap();
        // 10 s period over 60 s: ~6 tuples.
        assert!(c.tuples_in() >= 4, "tuples_in {}", c.tuples_in());
        assert_eq!(c.tuples_in(), c.tuples_out());
        assert!(e.monitor().sink_count("d", "out") >= 4);
        assert!(!e.monitor().console.is_empty());
        // Network saw traffic.
        assert!(e.net_stats().total_msgs() > 0);
    }

    #[test]
    fn sensor_added_after_deploy_binds() {
        let mut e = engine();
        e.deploy(simple_flow("d")).unwrap();
        assert!(e.bound_sensors("d", "temp").is_empty());
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        assert_eq!(e.bound_sensors("d", "temp").len(), 1);
        e.run_for(Duration::from_secs(30));
        assert!(e.monitor().op("d", "all").unwrap().tuples_in() >= 2);
    }

    #[test]
    fn removed_sensor_stops_feeding() {
        let mut e = engine();
        let id = e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(simple_flow("d")).unwrap();
        e.run_for(Duration::from_secs(30));
        let before = e.monitor().op("d", "all").unwrap().tuples_in();
        assert!(before > 0);
        e.remove_sensor(id).unwrap();
        assert!(e.bound_sensors("d", "temp").is_empty());
        e.run_for(Duration::from_secs(60));
        let after = e.monitor().op("d", "all").unwrap().tuples_in();
        // A single in-flight tuple may still land.
        assert!(after <= before + 1, "before {before} after {after}");
        assert!(e.remove_sensor(id).is_err());
        assert!(e.monitor().membership.iter().any(|l| l.contains("left")));
    }

    #[test]
    fn gated_source_waits_for_trigger() {
        let rain_schema: SchemaRef = Schema::new(vec![
            Field::new("rain", AttrType::Float),
            Field::new("torrential", AttrType::Bool),
            Field::new("station", AttrType::Str),
        ])
        .unwrap()
        .into_ref();
        let df = DataflowBuilder::new("gated")
            .source(
                "temp",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                temp_schema(),
            )
            .gated_source(
                "rain",
                SubscriptionFilter::any().with_theme(Theme::new("weather/rain").unwrap()),
                rain_schema,
            )
            .aggregate(
                "avg",
                "temp",
                Duration::from_secs(30),
                &[],
                sl_ops::AggFunc::Avg,
                Some("temperature"),
            )
            .trigger_on(
                "hot",
                "avg",
                Duration::from_secs(30),
                "avg_temperature > 20",
                &["rain"],
            )
            .filter("wet", "rain", "rain >= 0")
            .sink("out", SinkKind::Console, &["wet"])
            .build()
            .unwrap();
        let mut e = engine();
        // Heat-wave temperature sensor: midday readings are far above 20 °C.
        let mut ts = temp_sensor(1, 3);
        ts.set_wave(sl_sensors::gen::DiurnalWave {
            base: 30.0,
            amplitude: 3.0,
            peak_hour: 14.0,
            noise_std: 0.1,
        });
        e.add_sensor(ts).unwrap();
        e.add_sensor(Box::new(sl_sensors::physical::RainSensor::new(
            SensorId(2),
            "rain-0",
            GeoPoint::new_unchecked(34.7, 135.5),
            NodeId(4),
            Duration::from_secs(5),
            9,
        )))
        .unwrap();
        e.deploy(df).unwrap();
        assert_eq!(e.source_active("gated", "rain"), Some(false));
        // Before the first trigger window closes, no rain tuples flow.
        e.run_for(Duration::from_secs(20));
        assert!(e
            .monitor()
            .op("gated", "wet")
            .is_none_or(|c| c.tuples_in() == 0));
        // After a trigger window the source activates and rain flows.
        e.run_for(Duration::from_secs(120));
        assert_eq!(e.source_active("gated", "rain"), Some(true));
        assert!(!e.monitor().controls.is_empty());
        assert!(e.monitor().op("gated", "wet").unwrap().tuples_in() > 0);
    }

    #[test]
    fn the_control_history_stays_bounded_however_often_a_trigger_fires() {
        let rain_schema: SchemaRef = Schema::new(vec![Field::new("rain", AttrType::Float)])
            .unwrap()
            .into_ref();
        let df = DataflowBuilder::new("gated")
            .source(
                "temp",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                temp_schema(),
            )
            .gated_source(
                "rain",
                SubscriptionFilter::any().with_theme(Theme::new("weather/rain").unwrap()),
                rain_schema,
            )
            .trigger_on(
                "always",
                "temp",
                Duration::from_secs(10),
                "temperature > -100",
                &["rain"],
            )
            .sink("out", SinkKind::Console, &["rain"])
            .build()
            .unwrap();
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(df).unwrap();
        // One reading per trigger period, so (nearly) every period fires.
        e.run_for(Duration::from_secs(10 * 5 * CONSOLE_CAPACITY as u64));
        let controls = e.monitor().controls.len();
        assert!(
            (CONSOLE_CAPACITY..=2 * CONSOLE_CAPACITY).contains(&controls),
            "{controls} control records"
        );
    }

    #[test]
    fn duplicate_and_unknown_deployments() {
        let mut e = engine();
        e.deploy(simple_flow("d")).unwrap();
        assert!(matches!(
            e.deploy(simple_flow("d")),
            Err(EngineError::DuplicateDeployment(_))
        ));
        assert!(e.dsn_text("d").unwrap().contains("dsn \"d\""));
        assert!(e.dsn_text("ghost").is_err());
        e.undeploy("d").unwrap();
        assert!(e.undeploy("d").is_err());
        assert!(e.deployment_names().is_empty());
    }

    #[test]
    fn undeploy_releases_resources() {
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(simple_flow("d")).unwrap();
        let placed = e.loads().len();
        assert!(placed > 0);
        e.undeploy("d").unwrap();
        assert_eq!(e.loads().len(), 0);
        // Tuples no longer delivered.
        e.run_for(Duration::from_secs(30));
        assert!(e
            .monitor()
            .op("d", "all")
            .is_none_or(|c| c.tuples_in() == 0));
    }

    fn agg_flow(name: &str) -> Dataflow {
        DataflowBuilder::new(name)
            .source(
                "temp",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                temp_schema(),
            )
            .aggregate(
                "avg",
                "temp",
                Duration::from_secs(30),
                &[],
                sl_ops::AggFunc::Avg,
                Some("temperature"),
            )
            .sink("out", SinkKind::Visualization, &["avg"])
            .build()
            .unwrap()
    }

    #[test]
    fn events_of_a_torn_down_deployment_never_reach_its_namesake() {
        // Windows the sink has received by t = 600 s, with or without a
        // same-name redeploy at t = 10 s.
        let windows = |redeploy: bool| {
            let mut e = engine();
            e.add_sensor(temp_sensor(1, 3)).unwrap();
            e.deploy(agg_flow("w")).unwrap();
            e.run_until(start() + Duration::from_secs(10));
            if redeploy {
                // The sample taken at t = 10 s is in flight towards `avg`.
                assert_eq!(e.total_inflight(), 1);
                e.undeploy("w").unwrap();
                assert_eq!(e.total_inflight(), 0);
                e.deploy(agg_flow("w")).unwrap();
                // It lands before the next sample (t = 20 s) — on the
                // retired endpoint, not on the new `avg`.
                e.run_until(start() + Duration::from_secs(15));
                assert_eq!(e.monitor().op("w", "avg").unwrap().tuples_in(), 0);
            }
            e.run_until(start() + Duration::from_secs(600));
            e.monitor().sink_count("w", "out")
        };
        // The old deployment's tick chain must not tick the new aggregate
        // beside the new chain (that doubled the windows).
        assert_eq!(windows(false), 19);
        assert_eq!(windows(true), 19);
    }

    /// Weather stations through the filter `pass` (keeping `predicate`)
    /// into the sink `out`.
    fn filter_flow(name: &str, predicate: &str) -> Dataflow {
        DataflowBuilder::new(name)
            .source(
                "temp",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                temp_schema(),
            )
            .filter("pass", "temp", predicate)
            .sink("out", SinkKind::Visualization, &["pass"])
            .build()
            .unwrap()
    }

    /// Every sink's `op/<d>/<s>/sink_tuples` is its `engine/e2e/<d>/<s>_us`
    /// count, and the two list the same sinks.
    fn assert_sink_totals_are_e2e_counts(e: &Engine) {
        let snap = e.metrics_snapshot();
        let totals: BTreeMap<&str, u64> = (snap.counters.iter())
            .filter_map(|(k, n)| Some((k.strip_prefix("op/")?.strip_suffix("/sink_tuples")?, *n)))
            .collect();
        let e2e: BTreeMap<&str, u64> = (snap.hists.iter())
            .filter_map(|(k, h)| {
                Some((k.strip_prefix("engine/e2e/")?.strip_suffix("_us")?, h.count))
            })
            .collect();
        assert!(!totals.is_empty());
        assert_eq!(totals, e2e);
    }

    #[test]
    fn a_namesake_continues_its_predecessors_counters_with_an_empty_queue() {
        type Seen = (u64, u64, u64, Vec<(Timestamp, f64)>);
        fn seen(e: &Engine, op: &str) -> Seen {
            let c = e.monitor().op("d", op).unwrap();
            let rates = c.rate_series.iter().collect();
            (c.tuples_in(), c.tuples_out(), c.dropped(), rates)
        }
        let depth = |e: &Engine| e.monitor().op("d", "pass").unwrap().ingress.depth;
        let ops = ["pass", "~sources"];
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.add_sensor(temp_sensor(2, 3)).unwrap();
        e.deploy(filter_flow("d", "station = 't2'")).unwrap();
        // Samples are taken every 10 s: at t = 60 s two are in flight.
        e.run_until(start() + Duration::from_secs(60));
        assert!(depth(&e) > 0);
        let before: Vec<Seen> = ops.iter().map(|op| seen(&e, op)).collect();
        let sunk = e.monitor().sink_count("d", "out");
        let (_, passed, dropped, _) = &before[0];
        assert!(*passed > 0 && *dropped > 0 && sunk > 0, "{before:?}");
        assert!(before[1].0 > 0, "the sources delivered");

        // Undeployed, then redeployed under the same name: the counters are
        // still there, unchanged, and the queue has restarted empty.
        e.undeploy("d").unwrap();
        for redeployed in [false, true] {
            if redeployed {
                e.deploy(filter_flow("d", "station = 't2'")).unwrap();
            }
            let now: Vec<Seen> = ops.iter().map(|op| seen(&e, op)).collect();
            assert_eq!(now, before, "redeployed: {redeployed}");
            assert_eq!(e.monitor().sink_count("d", "out"), sunk);
            assert_eq!(depth(&e), 0, "redeployed: {redeployed}");
        }

        // The namesake counts on from there and keeps the earlier samples.
        e.run_until(start() + Duration::from_secs(180));
        for (op, (b, a)) in ops
            .iter()
            .zip(before.iter().zip(ops.map(|op| seen(&e, op))))
        {
            assert!(
                a.0 > b.0 && a.1 >= b.1 && a.2 >= b.2,
                "{op}: {b:?} then {a:?}"
            );
            assert!(a.3.len() > b.3.len() && a.3.starts_with(&b.3), "{op}");
        }
        let (_, passed_after, dropped_after, _) = seen(&e, "pass");
        assert!(passed_after > *passed && dropped_after > *dropped);
        assert!(e.monitor().sink_count("d", "out") > sunk);
        assert_sink_totals_are_e2e_counts(&e);
    }

    #[test]
    fn a_sinks_total_is_its_e2e_count_through_retries_shedding_and_a_redeploy() {
        let mut t = Topology::new();
        let edge = t.add_node(NodeSpec::edge("edge", 10.0));
        let hub = t.add_node(NodeSpec::edge("hub", 1_000_000.0));
        let link = t
            .add_link(edge, hub, Duration::from_millis(1), 10_000_000)
            .unwrap();
        let mut config = EngineConfig {
            migration_enabled: false,
            ..EngineConfig::default()
        };
        config.overload.queue_capacity = Some(1);
        config.overload.policy = crate::config::OverflowPolicy::ShedOldest;
        let mut e = Engine::new(t, config, start());
        for id in 1..=4 {
            e.add_sensor(temp_sensor(id, edge.0)).unwrap();
        }
        let all = || filter_flow("d", "temperature > -100");
        e.deploy(all()).unwrap();
        assert_eq!(e.node_of("d", "pass"), Some(hub));
        e.run_until(start() + Duration::from_secs(60));
        // A dead link for 20 s: its deliveries are retried once it heals.
        e.set_link_up(link, false).unwrap();
        e.run_until(start() + Duration::from_secs(80));
        e.set_link_up(link, true).unwrap();
        e.run_until(start() + Duration::from_secs(120));
        assert_sink_totals_are_e2e_counts(&e);
        e.undeploy("d").unwrap();
        e.deploy(all()).unwrap();
        e.run_until(start() + Duration::from_secs(240));
        let snap = e.metrics_snapshot();
        assert!(snap.counters["engine/retry/delivered"] > 0, "retried");
        assert!(snap.counters["engine/backpressure/shed"] > 0, "shed");
        assert_sink_totals_are_e2e_counts(&e);
    }

    #[test]
    fn the_console_stays_bounded_however_many_tuples_fail() {
        let df = DataflowBuilder::new("d")
            .source(
                "temp",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                temp_schema(),
            )
            .filter("broken", "temp", "temperature / 0 > 0")
            .sink("out", SinkKind::Console, &["broken"])
            .build()
            .unwrap();
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(df).unwrap();
        // One reading every 10 s, each an error line.
        let failing = 2 * CONSOLE_CAPACITY as u64 + 10;
        e.run_until(start() + Duration::from_secs(10 * failing));
        assert!(e.monitor().op("d", "broken").unwrap().tuples_in() > 2 * CONSOLE_CAPACITY as u64);
        let console = &e.monitor().console;
        assert!(
            console.len() <= 2 * CONSOLE_CAPACITY,
            "{} lines",
            console.len()
        );
        assert!(console.last().unwrap().contains("division by zero"));
    }

    #[test]
    fn the_checkpoint_gauge_sums_every_live_window() {
        let df = DataflowBuilder::new("d")
            .source(
                "temp",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                temp_schema(),
            )
            .aggregate(
                "hourly",
                "temp",
                Duration::from_hours(1),
                &[],
                sl_ops::AggFunc::Avg,
                Some("temperature"),
            )
            .aggregate(
                "fast",
                "temp",
                Duration::from_secs(30),
                &[],
                sl_ops::AggFunc::Avg,
                Some("temperature"),
            )
            .sink("out", SinkKind::Visualization, &["hourly", "fast"])
            .build()
            .unwrap();
        let mut e = engine();
        // One reading a minute, the first at 60 s: by 105 s `fast` has
        // ticked it out (at 90 s) and `hourly` still holds it.
        e.add_sensor(Box::new(TemperatureSensor::new(
            SensorId(1),
            "t1",
            GeoPoint::new_unchecked(34.7, 135.5),
            NodeId(3),
            Duration::from_mins(1),
            false,
            false,
            1,
        )))
        .unwrap();
        e.deploy(df).unwrap();
        e.run_until(start() + Duration::from_secs(105));
        let bytes = |e: &Engine, service| e.checkpoint_of("d", service).unwrap().byte_size();
        assert_eq!(
            e.checkpoint_of("d", "fast").map(sl_ops::OpCheckpoint::len),
            Some(0)
        );
        assert!(bytes(&e, "hourly") > 0);
        assert_eq!(e.inst.checkpoint_bytes.get(), bytes(&e, "hourly") as i64);
        e.undeploy("d").unwrap();
        assert_eq!(e.inst.checkpoint_bytes.get(), 0, "no live window is left");
    }

    #[test]
    fn undeploy_drops_queue_depth_and_breaker_with_the_endpoint() {
        let mut t = Topology::new();
        let edge = t.add_node(NodeSpec::edge("sensor-host", 10.0));
        let hub = t.add_node(NodeSpec::edge("hub", 1_000_000.0));
        let link = t
            .add_link(edge, hub, Duration::from_millis(1), 10_000_000)
            .unwrap();
        let mut cfg = EngineConfig {
            migration_enabled: false,
            ..Default::default()
        };
        cfg.overload.queue_capacity = Some(64);
        cfg.overload.global_capacity = Some(64);
        cfg.overload.breaker_enabled = true;
        cfg.overload.breaker_threshold = 1;
        let mut e = Engine::new(t, cfg, start());
        for id in 1..=20 {
            e.add_sensor(temp_sensor(id, edge.0)).unwrap();
        }
        let depth_of_all = |e: &Engine| e.ingress_depths().map(|(_, d)| d).collect::<Vec<_>>();

        // A dead route opens the path's breaker; it goes with the endpoint.
        e.deploy(simple_flow("d")).unwrap();
        assert_eq!(e.node_of("d", "all"), Some(hub));
        e.set_link_up(link, false).unwrap();
        e.run_until(start() + Duration::from_secs(10));
        assert_eq!(e.breaker_state("d", "all"), Some(BreakerState::Open));
        e.undeploy("d").unwrap();
        e.set_link_up(link, true).unwrap();
        e.deploy(simple_flow("d")).unwrap();
        assert_eq!(e.breaker_state("d", "all"), None);

        // 20 deliveries in flight at undeploy are released with the queue.
        e.run_until(start() + Duration::from_secs(20));
        assert_eq!(depth_of_all(&e), [20]);
        assert_eq!(e.total_inflight(), 20);
        e.undeploy("d").unwrap();
        e.run_until(start() + Duration::from_secs(25));
        assert_eq!(e.total_inflight(), 0);
        assert!(depth_of_all(&e).is_empty());

        // A namesake starts from an empty queue.
        e.deploy(simple_flow("d")).unwrap();
        assert_eq!(depth_of_all(&e), [0]);
        e.run_until(start() + Duration::from_secs(30));
        assert_eq!(depth_of_all(&e), [20]);
        assert_eq!(e.total_inflight(), 20);
    }

    #[test]
    fn failed_deploy_leaves_nothing_behind() {
        let mut t = Topology::new();
        let edge = t.add_node(NodeSpec::edge("sensor-host", 10.0));
        t.add_node(NodeSpec::edge("hub", 1_000_000.0));
        let mut e = Engine::new(t, EngineConfig::default(), start());
        e.add_sensor(temp_sensor(1, edge.0)).unwrap();
        // No link: the source-fed aggregate spawns on the hub, then its
        // flow from the edge cannot be installed.
        assert!(e.deploy(agg_flow("w")).is_err());
        assert!(e.deployment_names().is_empty());
        assert_eq!(e.loads().len(), 0);
        assert_eq!(e.broker().subscription_count(), 0);
        // The spawned aggregate's tick was already scheduled; it must find
        // its endpoint retired instead of ticking an orphan for ever.
        e.run_until(start() + Duration::from_mins(5));
        assert!(e.monitor().op("w", "avg").is_none());
    }

    #[test]
    fn migration_moves_processes_off_overloaded_nodes() {
        // Tiny two-node topology: one weak node, one strong.
        let mut t = Topology::new();
        let weak = t.add_node(NodeSpec::edge("weak", 10.0));
        let strong = t.add_node(NodeSpec::edge("strong", 1_000_000.0));
        t.add_link(weak, strong, Duration::from_millis(1), 10_000_000)
            .unwrap();
        let cfg = EngineConfig {
            placement: PlacementPolicy::SourceLocal, // forces onto the sensor's node
            ..Default::default()
        };
        let mut e = Engine::new(t, cfg, start());
        // Fast sensor on the weak node drives demand above its capacity.
        let mut s = TemperatureSensor::new(
            SensorId(1),
            "t1",
            GeoPoint::new_unchecked(34.7, 135.5),
            weak,
            Duration::from_millis(100),
            false,
            false,
            1,
        );
        s.set_wave(sl_sensors::gen::DiurnalWave {
            base: 25.0,
            amplitude: 1.0,
            peak_hour: 14.0,
            noise_std: 0.1,
        });
        e.add_sensor(Box::new(s)).unwrap();
        e.deploy(simple_flow("d")).unwrap();
        assert_eq!(e.node_of("d", "all"), Some(weak));
        e.run_for(Duration::from_secs(30));
        // The filter process should have been migrated to the strong node.
        assert_eq!(e.node_of("d", "all"), Some(strong));
        assert!(e
            .monitor()
            .placements
            .iter()
            .any(|p| p.reason.contains("migration") && p.to == strong));
    }

    #[test]
    fn tracked_load_follows_its_endpoint_through_every_move() {
        // Every live service's load sits where the record says the service
        // is; a retired endpoint (and a sink) holds none.
        fn check(e: &Engine, after: &str) {
            let mut live = 0;
            for (i, ep) in e.monitor.endpoints.iter().enumerate() {
                let tracked = e.loads().node_of(EndpointId(i as u32).process());
                if ep.service().is_some() {
                    live += 1;
                    let node = e.node_of(&ep.names.0, &ep.names.1);
                    assert_eq!(tracked, node, "{after}: {:?}", ep.names);
                } else {
                    assert_eq!(tracked, None, "{after}: {:?}", ep.names);
                }
            }
            assert_eq!(e.loads().len(), live, "{after}");
        }
        let moved = |e: &Engine, why: &str| {
            let mut moves = e.monitor().placements.iter();
            moves.any(|p| p.from.is_some() && p.reason.contains(why))
        };
        // A weak sensor host and two hubs; 12 aligned sensors overflow a
        // queue of 8 every second, wherever the filter sits.
        let mut t = Topology::new();
        let host = t.add_node(NodeSpec::edge("sensor-host", 10.0));
        let hubs = [
            t.add_node(NodeSpec::edge("hub-b", 100_000.0)),
            t.add_node(NodeSpec::edge("hub-c", 90_000.0)),
        ];
        for (a, b) in [(host, hubs[0]), (host, hubs[1]), (hubs[0], hubs[1])] {
            t.add_link(a, b, Duration::from_millis(1), 10_000_000)
                .unwrap();
        }
        let mut cfg = EngineConfig {
            placement: PlacementPolicy::SourceLocal,
            ..Default::default()
        };
        cfg.overload.queue_capacity = Some(8);
        cfg.overload.policy = crate::OverflowPolicy::ShedOldest;
        let mut e = Engine::new(t, cfg, start());
        for id in 1..=12 {
            e.add_sensor(Box::new(TemperatureSensor::new(
                SensorId(id),
                &format!("t{id}"),
                GeoPoint::new_unchecked(34.7, 135.5),
                host,
                Duration::from_secs(1),
                false,
                false,
                id,
            )))
            .unwrap();
        }
        e.deploy(simple_flow("d")).unwrap();
        e.deploy(agg_flow("w")).unwrap();
        assert_eq!(e.node_of("d", "all"), Some(host));
        check(&e, "deploy");

        e.run_for(Duration::from_secs(20));
        assert!(moved(&e, "overloaded"), "CPU migration off the weak host");
        assert!(moved(&e, "backlog"), "backlog migration between the hubs");
        check(&e, "migrations");

        let crashed = e.node_of("d", "all").unwrap();
        e.inject_fault(FaultAction::NodeCrash { node: crashed.0 });
        assert!(moved(&e, "recovery"));
        assert_ne!(e.node_of("d", "all"), Some(crashed));
        check(&e, "crash recovery");

        let pass_none = sl_ops::OpSpec::Filter {
            condition: "temperature > 1000".into(),
        };
        e.replace_operator("d", "all", pass_none).unwrap();
        e.run_for(Duration::from_secs(5));
        check(&e, "replace_operator");

        e.undeploy("d").unwrap();
        check(&e, "undeploy");
        e.run_for(Duration::from_secs(5));
        e.undeploy("w").unwrap();
        check(&e, "undeploy of everything");
        assert!(e.loads().is_empty());
    }

    #[test]
    fn migration_can_be_disabled() {
        let mut t = Topology::new();
        let weak = t.add_node(NodeSpec::edge("weak", 10.0));
        let strong = t.add_node(NodeSpec::edge("strong", 1_000_000.0));
        t.add_link(weak, strong, Duration::from_millis(1), 10_000_000)
            .unwrap();
        let cfg = EngineConfig {
            placement: PlacementPolicy::SourceLocal,
            migration_enabled: false,
            ..Default::default()
        };
        let mut e = Engine::new(t, cfg, start());
        e.add_sensor(Box::new(TemperatureSensor::new(
            SensorId(1),
            "t1",
            GeoPoint::new_unchecked(34.7, 135.5),
            weak,
            Duration::from_millis(100),
            false,
            false,
            1,
        )))
        .unwrap();
        e.deploy(simple_flow("d")).unwrap();
        e.run_for(Duration::from_secs(30));
        assert_eq!(e.node_of("d", "all"), Some(weak));
    }

    #[test]
    fn warehouse_sink_stores_events() {
        let df = DataflowBuilder::new("w")
            .source(
                "temp",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                temp_schema(),
            )
            .sink("edw", SinkKind::Warehouse, &["temp"])
            .build()
            .unwrap();
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(df).unwrap();
        e.run_for(Duration::from_secs(60));
        assert!(!e.warehouse().is_empty());
        assert!(e.warehouse().stats().tuples >= 4);
    }

    #[test]
    fn replace_operator_on_the_fly() {
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(simple_flow("d")).unwrap();
        e.run_for(Duration::from_secs(30));
        let passed_before = e.monitor().op("d", "all").unwrap().tuples_out();
        assert!(passed_before > 0);
        // Replace the pass-all filter with a block-all filter.
        e.replace_operator(
            "d",
            "all",
            sl_ops::OpSpec::Filter {
                condition: "temperature > 1000".into(),
            },
        )
        .unwrap();
        e.run_for(Duration::from_secs(60));
        let c = e.monitor().op("d", "all").unwrap();
        assert_eq!(
            c.tuples_out(),
            passed_before,
            "no tuple passes the new filter"
        );
        assert!(c.dropped() > 0);
        // Replacement must still validate.
        assert!(e
            .replace_operator(
                "d",
                "all",
                sl_ops::OpSpec::Filter {
                    condition: "ghost > 1".into()
                }
            )
            .is_err());
        assert!(e
            .replace_operator(
                "ghost",
                "all",
                sl_ops::OpSpec::Filter {
                    condition: "1 > 0".into()
                }
            )
            .is_err());
    }

    #[test]
    fn replace_operator_discards_the_old_operators_checkpoint() {
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(agg_flow("w")).unwrap();
        e.run_for(Duration::from_secs(25));
        assert!(e.checkpoint_of("w", "avg").is_some_and(|c| !c.is_empty()));
        e.replace_operator(
            "w",
            "avg",
            sl_ops::OpSpec::Aggregate {
                period: Duration::from_secs(30),
                group_by: Vec::new(),
                func: sl_ops::AggFunc::Max,
                attr: Some("temperature".into()),
                sliding: None,
            },
        )
        .unwrap();
        assert!(e.checkpoint_of("w", "avg").is_none());
        // A crash right after the swap has nothing of the old window to
        // restore into the replacement.
        let node = e.node_of("w", "avg").unwrap();
        e.inject_fault(FaultAction::NodeCrash { node: node.0 });
        let recovered = e.monitor().recovery.iter().find(|l| l.contains("w/avg"));
        let recovered = recovered.expect("the aggregate was evacuated");
        assert!(
            recovered.contains("(0 tuples, 0 B restored)"),
            "{recovered}"
        );
    }

    #[test]
    fn a_shardable_operator_that_will_not_replicate_runs_inline() {
        /// Pass-through that claims to be shardable but hands out no copy.
        struct Stubborn(SchemaRef);
        impl sl_ops::Operator for Stubborn {
            fn kind(&self) -> &'static str {
                "stubborn"
            }
            fn output_schema(&self) -> SchemaRef {
                self.0.clone()
            }
            fn on_tuple(
                &mut self,
                _port: usize,
                tuple: Tuple,
                ctx: &mut OpContext,
            ) -> Result<(), sl_ops::OpError> {
                ctx.emit(tuple);
                Ok(())
            }
            fn is_shardable(&self) -> bool {
                true
            }
        }
        // Four sensors on one node and one period: every round is a batch.
        let run = |stubborn: bool| {
            let mut e = engine();
            e.set_parallelism(2);
            for id in 1..=4 {
                e.add_sensor(temp_sensor(id, 3)).unwrap();
            }
            e.deploy(simple_flow("d")).unwrap();
            if stubborn {
                let id = e.deployments["d"].services["all"];
                let svc = e.monitor.endpoints[id.index()].service_mut().unwrap();
                svc.set_op(Box::new(Stubborn(temp_schema())));
            }
            e.run_for(Duration::from_mins(2));
            let batched = e.inst.shard_batched_tuples.get();
            (batched, e.monitor().sink_count("d", "out"))
        };
        let (batched, delivered) = run(false);
        assert!(batched > 0, "the flow forms batches");
        assert_eq!(run(true), (0, delivered), "same output, no shard job");
    }

    #[test]
    fn conservation_holds_for_passthrough_operators() {
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.add_sensor(temp_sensor(2, 4)).unwrap();
        let df = DataflowBuilder::new("d")
            .source(
                "temp",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                temp_schema(),
            )
            .filter("hot", "temp", "temperature > 25")
            .sink("out", SinkKind::Visualization, &["hot"])
            .build()
            .unwrap();
        e.deploy(df).unwrap();
        e.run_for(Duration::from_mins(5));
        let keys = vec![("d".to_string(), "hot".to_string())];
        assert!(e.monitor().conservation_violations(&keys).is_empty());
        let c = e.monitor().op("d", "hot").unwrap();
        assert_eq!(c.tuples_in(), c.tuples_out() + c.dropped());
    }

    #[test]
    fn deterministic_runs() {
        let run = || {
            let mut e = engine();
            e.add_sensor(temp_sensor(1, 3)).unwrap();
            e.add_sensor(temp_sensor(2, 5)).unwrap();
            e.deploy(simple_flow("d")).unwrap();
            e.run_for(Duration::from_mins(2));
            let c = e.monitor().op("d", "all").unwrap();
            (c.tuples_in(), c.tuples_out(), e.net_stats().total_bytes())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn recent_samples_expose_source_data() {
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(simple_flow("d")).unwrap();
        assert!(e.recent_samples("d", "temp").is_empty());
        e.run_for(Duration::from_mins(5));
        let samples = e.recent_samples("d", "temp");
        assert!(
            !samples.is_empty() && samples.len() <= 8,
            "{}",
            samples.len()
        );
        // Samples conform to the declared source schema.
        for t in &samples {
            assert!(t.get("temperature").is_ok());
            assert!(t.get("station").is_ok());
        }
        // Newest-last ordering.
        for w in samples.windows(2) {
            assert!(w[0].meta.timestamp <= w[1].meta.timestamp);
        }
        assert!(e.recent_samples("d", "ghost").is_empty());
    }

    #[test]
    fn link_failure_reroutes_and_partition_drops() {
        // line: sensor-node -- mid -- strong, plus a backup path.
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::edge("a", 1_000_000.0));
        let b = t.add_node(NodeSpec::edge("b", 1_000_000.0));
        let c = t.add_node(NodeSpec::edge("c", 1_000_000.0));
        let fast = t
            .add_link(a, b, Duration::from_millis(1), 10_000_000)
            .unwrap();
        t.add_link(a, c, Duration::from_millis(5), 10_000_000)
            .unwrap();
        let backup = t
            .add_link(c, b, Duration::from_millis(5), 10_000_000)
            .unwrap();
        let cfg = EngineConfig {
            migration_enabled: false,
            ..Default::default()
        };
        let mut e = Engine::new(t, cfg, start());
        e.add_sensor(temp_sensor(1, 0)).unwrap();
        // Pin the filter onto node b by making it the only attractive node:
        // deploy with LeastLoaded places on a (sensor node) or b; force via
        // SourceLocal? Simplest: deploy and read the placement.
        e.deploy(simple_flow("d")).unwrap();
        e.run_for(Duration::from_secs(30));
        let before = e.monitor().op("d", "all").unwrap().tuples_in();
        assert!(before > 0);
        // Fail the direct link: traffic must keep flowing via the detour.
        e.set_link_up(fast, false).unwrap();
        e.run_for(Duration::from_secs(30));
        let mid = e.monitor().op("d", "all").unwrap().tuples_in();
        assert!(mid > before, "tuples must keep flowing over the detour");
        // Fail the backup too: if the operator sits off-node, tuples drop.
        e.set_link_up(backup, false).unwrap();
        e.run_for(Duration::from_secs(30));
        let after = e.monitor().op("d", "all").unwrap().tuples_in();
        let target = e.node_of("d", "all").unwrap();
        if target != NodeId(0) && target != NodeId(2) {
            assert!(after <= mid + 1, "partitioned traffic must stop");
            assert!(e.monitor().console.iter().any(|l| l.contains("no route")));
        }
        // Restore everything: flow resumes.
        e.set_link_up(fast, true).unwrap();
        e.set_link_up(backup, true).unwrap();
        e.run_for(Duration::from_secs(30));
        assert!(e.monitor().op("d", "all").unwrap().tuples_in() > after);
        assert!(e.monitor().console.iter().any(|l| l.contains("FAILED")));
        assert!(e.monitor().console.iter().any(|l| l.contains("restored")));
    }

    #[test]
    fn metrics_snapshot_spans_all_subsystems_and_round_trips() {
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(simple_flow("d")).unwrap();
        e.run_for(Duration::from_mins(2));
        let snap = e.metrics_snapshot();
        // Per-operator counters and processing latency under op/.
        assert!(snap.counters["op/d/all/tuples_in"] > 0);
        assert_eq!(
            snap.hists["op/d/all/proc_us"].count,
            snap.counters["op/d/all/tuples_in"]
        );
        // Engine-level instruments: loop timing, queue depth gauge.
        assert!(snap.hists["engine/ev/deliver_us"].count > 0);
        assert!(snap.gauges.contains_key("engine/event_queue_depth"));
        // Broker and network sections present.
        assert_eq!(snap.counters["broker/subscribes"], 1);
        assert!(snap.counters["net/total_msgs"] > 0);
        // Each tuple got a trace id of its own, in arrival order.
        let traces: Vec<u64> = e
            .recent_samples("d", "temp")
            .iter()
            .map(|t| t.meta.trace)
            .collect();
        assert!(traces.len() > 1 && traces[0] > 0, "{traces:?}");
        assert!(traces.windows(2).all(|w| w[0] < w[1]), "{traces:?}");
        // The whole snapshot survives a JSON round trip.
        let parsed = sl_obs::MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(parsed, snap);
        // And renders as a table mentioning the operator histogram.
        assert!(snap.render_table().contains("op/d/all/proc_us"));
    }

    #[test]
    fn warehouse_sink_records_e2e_latency_and_ingest_metrics() {
        let df = DataflowBuilder::new("w")
            .source(
                "temp",
                SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
                temp_schema(),
            )
            .sink("edw", SinkKind::Warehouse, &["temp"])
            .build()
            .unwrap();
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(df).unwrap();
        e.run_for(Duration::from_secs(60));
        let snap = e.metrics_snapshot();
        let e2e = &snap.hists["engine/e2e/w/edw_us"];
        assert!(e2e.count >= 4);
        // Virtual end-to-end latency includes at least the configured
        // processing delay, so the minimum cannot be zero.
        assert!(e2e.min > 0, "e2e min {}", e2e.min);
        assert_eq!(snap.counters["warehouse/tuples_ingested"], e2e.count);
        assert_eq!(snap.hists["warehouse/ingest_us"].count, e2e.count);
    }

    #[test]
    fn schema_mismatched_sensor_skipped() {
        // A source declaring an attribute the sensor lacks must not bind.
        let demanding: SchemaRef = Schema::new(vec![
            Field::new("temperature", AttrType::Float),
            Field::new("uv_index", AttrType::Float),
        ])
        .unwrap()
        .into_ref();
        let df = DataflowBuilder::new("d")
            .source("temp", SubscriptionFilter::any(), demanding)
            .sink("out", SinkKind::Console, &["temp"])
            .build()
            .unwrap();
        let mut e = engine();
        e.add_sensor(temp_sensor(1, 3)).unwrap();
        e.deploy(df).unwrap();
        assert!(e.bound_sensors("d", "temp").is_empty());
        assert!(e.monitor().membership.iter().any(|l| l.contains("skipped")));
    }
}
