//! The [`Engine`]: deployment actuation and the discrete-event execution
//! loop.
//!
//! `deploy()` resolves every name once: each service and sink becomes one
//! [`Endpoint`] record in `Engine::endpoints`, and from then on events,
//! consumer lists and shard jobs carry its [`EndpointId`]. `undeploy()`
//! retires the records; ids are never reused, so an event that outlives its
//! deployment is dropped where it lands instead of finding a namesake. The
//! hop between endpoints — route, transfer, breaker, admission, retry, DLQ,
//! and the bookkeeping after an operator ran — is `crate::delivery`; this
//! file keeps sensors, actuation, the event loop, storage and control.

use crate::config::{EngineConfig, OverflowPolicy, PlacementPolicy};
use crate::deployment::{
    Deployment, DeploymentView, EdgeRuntime, Endpoint, EndpointId, Role, ServiceRuntime,
    SinkRuntime, SourceRuntime,
};
use crate::error::EngineError;
use crate::monitor::{ControlRecord, Monitor, PlacementChange};
use crate::shard::{invoke, ShardJob, ShardJobResult, ShardPool};
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sl_cq::{CqHub, CqPoll, SubscriberId, ViewId};
use sl_dataflow::{to_dsn, validate, Dataflow};
use sl_dsn::{compile, print_document, ScnCommand, SinkKind};
use sl_durable::{CompactionStats, DurableConfig, DurableWarehouse};
use sl_faults::{BreakerState, DeadLetterQueue, DropReason, FaultAction, FaultPlan};
use sl_netsim::{
    EventQueue, FlowTable, LinkId, LoadTracker, NetError, NetStats, NodeId, ProcessId, QosSpec,
    Route, RoutingTable, Topology,
};
use sl_obs::{Metrics, MetricsSnapshot, SpanKey, Tracer};
use sl_ops::{ControlAction, OpCheckpoint, OpContext};
use sl_pubsub::enrich::{enrich, EnrichPolicy};
use sl_pubsub::{Broker, BrokerEvent, SensorAdvertisement, SubscriptionId};
use sl_sensors::{decode_payload, SensorSim};
use sl_stt::{Duration, Event, SchemaRef, SensorId, Timestamp, Tuple, Value};
use sl_warehouse::{CubeCell, CubeQuery, EventQuery, EventWarehouse};
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

pub(crate) struct SensorEntry {
    sim: Box<dyn SensorSim>,
    pub(crate) ad: SensorAdvertisement,
    /// Silently stalled (fault injection): scheduled but not emitting.
    stalled: bool,
    /// Corrupting wire payloads (fault injection).
    corrupt: bool,
    /// Clock skew applied to emitted tuple timestamps, in milliseconds.
    skew_ms: i64,
    /// Unpublished from the broker (dropout or liveness expiry); the next
    /// successful emission re-publishes the advertisement (clean rejoin).
    expired: bool,
    /// Emission-rate multiplier (fault injection: a traffic burst). 1 is
    /// the advertised period; `n` emits `n`× faster.
    rate_scale: u32,
}

/// The Event Data Warehouse backend: plain in-memory indexes, or the
/// crash-safe tier from `sl-durable` (hot indexes over the recent tail,
/// checksummed segment log underneath). Either way the hot
/// [`EventWarehouse`] is reachable, so the read-side API is identical.
enum WarehouseTier {
    Memory(Box<EventWarehouse>),
    Durable(Box<DurableWarehouse>),
}

impl WarehouseTier {
    fn hot(&self) -> &EventWarehouse {
        match self {
            WarehouseTier::Memory(w) => w,
            WarehouseTier::Durable(d) => d.hot(),
        }
    }

    fn hot_mut(&mut self) -> &mut EventWarehouse {
        match self {
            WarehouseTier::Memory(w) => w,
            WarehouseTier::Durable(d) => d.hot_mut(),
        }
    }
}

/// A terminally undeliverable tuple, parked in the engine's dead-letter
/// queue together with its [`DropReason`].
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
    flows: FlowTable,
    loads: LoadTracker,
    pub(crate) net_stats: NetStats,
    pub(crate) monitor: Monitor,
    warehouse: WarehouseTier,
    pub(crate) sensors: BTreeMap<u64, SensorEntry>,
    /// Active deployments; each holds the name → id index of its endpoints.
    pub(crate) deployments: BTreeMap<String, Deployment>,
    /// One record per service or sink ever deployed, indexed by
    /// [`EndpointId`]; `undeploy` retires a record, nothing reuses its id.
    pub(crate) endpoints: Vec<Endpoint>,
    /// subscription -> (deployment, source).
    sub_index: HashMap<u64, (String, String)>,
    /// Route cache keyed by (from, to) node.
    route_cache: HashMap<(u32, u32), Option<Route>>,
    pub(crate) config: EngineConfig,
    pub(crate) rng: StdRng,
    last_monitor_at: Timestamp,
    next_pid: u64,
    /// Terminally undeliverable tuples, classified by drop reason.
    pub(crate) dlq: DeadLetterQueue<DeadTuple>,
    /// Blocking-operator snapshots [`Engine::open_durable`] recovered from
    /// the log, keyed (deployment, service), until that deployment's
    /// `deploy()` moves them onto its service records.
    checkpoints: HashMap<(String, String), OpCheckpoint>,
    /// Engine-level instruments: event-loop timing, enrichment counters,
    /// per-tuple spans, end-to-end latency, queue depth.
    pub(crate) metrics: Metrics,
    /// Wall-clock origin for span timestamps (virtual time measures the
    /// simulation; spans measure the host's processing cost).
    epoch: std::time::Instant,
    /// The shard worker pool, spawned by the first parallel run (None while
    /// `config.parallelism <= 1`).
    pool: Option<ShardPool>,
    /// Steal count already exported to the `shard/steals` counter.
    last_steals: u64,
    /// Continuous queries: standing subscriptions and materialized views,
    /// fed inline by the warehouse ingest path. Idle (and free) until the
    /// first registration.
    cq: CqHub,
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
            monitor: Monitor::new(),
            warehouse: WarehouseTier::Memory(Box::new(EventWarehouse::with_defaults())),
            sensors: BTreeMap::new(),
            deployments: BTreeMap::new(),
            endpoints: Vec::new(),
            sub_index: HashMap::new(),
            route_cache: HashMap::new(),
            rng: StdRng::seed_from_u64(config.seed),
            last_monitor_at: start,
            dlq: DeadLetterQueue::new(config.dlq_capacity),
            checkpoints: HashMap::new(),
            config,
            next_pid: 0,
            metrics: Metrics::new(),
            epoch: std::time::Instant::now(),
            pool: None,
            last_steals: 0,
            cq: CqHub::new(),
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

    /// Create an engine whose Event Data Warehouse persists to the segment
    /// log at `durable.dir`, recovering whatever a previous incarnation
    /// left there: hot indexes are rebuilt from the non-evicted log tail,
    /// and blocking-operator checkpoints are staged so the next
    /// [`Engine::deploy`] of the same dataflow restores their window
    /// caches. A torn log tail (crash mid-write) is truncated, surfaced in
    /// the monitor's durability section, and accounted in the DLQ under
    /// [`DropReason::TornTail`].
    pub fn open_durable(
        topology: Topology,
        config: EngineConfig,
        start: Timestamp,
        durable: DurableConfig,
    ) -> Result<Engine, EngineError> {
        let mut engine = Engine::new(topology, config, start);
        let mut dw = DurableWarehouse::open(durable)?;
        let report = dw.recovery_report();
        let recovered = dw.take_checkpoints();
        engine.monitor.durability.push(format!(
            "[{start}] opened durable warehouse: {} events hot, {} checkpoints staged, {} segments",
            dw.hot().len(),
            recovered.len(),
            dw.segment_count()
        ));
        if report.lossy() {
            // The torn tail held records that were appended but never made
            // stable; they are gone by design (only fsynced bytes are
            // promised). Account the loss in the drop taxonomy.
            engine.dlq.note(DropReason::TornTail);
            engine
                .metrics
                .counter(&format!("dlq/{}", DropReason::TornTail.metric_key()))
                .inc();
            *engine
                .monitor
                .dead_letters
                .entry(DropReason::TornTail.metric_key())
                .or_insert(0) += 1;
            engine.monitor.durability.push(format!(
                "[{start}] recovery truncated a torn tail: {} bytes, {} segments dropped",
                report.truncated_bytes, report.dropped_segments
            ));
            engine.monitor.recovery.push(format!(
                "[{start}] durable log: torn tail truncated ({} bytes)",
                report.truncated_bytes
            ));
        }
        engine.checkpoints.extend(recovered);
        engine.warehouse = WarehouseTier::Durable(Box::new(dw));
        Ok(engine)
    }

    /// Current virtual time.
    pub fn now(&self) -> Timestamp {
        self.queue.now()
    }

    /// The monitor (Figure 3 data).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The Event Data Warehouse (the hot in-memory view under either
    /// backend).
    pub fn warehouse(&self) -> &EventWarehouse {
        self.warehouse.hot()
    }

    /// Mutable warehouse access (for queries, which update stats). With a
    /// durable backend this is the *hot* tier only; prefer
    /// [`Engine::query_warehouse`] and [`Engine::evict_warehouse_before`],
    /// which include the cold segments and spill instead of discarding.
    pub fn warehouse_mut(&mut self) -> &mut EventWarehouse {
        self.warehouse.hot_mut()
    }

    /// The durable warehouse, when the engine was created with
    /// [`Engine::open_durable`].
    pub fn durable_warehouse(&self) -> Option<&DurableWarehouse> {
        match &self.warehouse {
            WarehouseTier::Memory(_) => None,
            WarehouseTier::Durable(d) => Some(d),
        }
    }

    /// Answer an [`EventQuery`] against the full warehouse: hot indexes
    /// only for the in-memory backend, hot merged with the cold segment
    /// scan for the durable one.
    pub fn query_warehouse(&mut self, q: &EventQuery) -> Result<Vec<Event>, EngineError> {
        match &mut self.warehouse {
            WarehouseTier::Memory(w) => Ok(w.query(q).into_iter().cloned().collect()),
            WarehouseTier::Durable(d) => Ok(d.query(q)?),
        }
    }

    /// Apply the retention horizon: the in-memory backend discards events
    /// older than `horizon`, the durable backend spills them to cold
    /// segments (they remain queryable). Returns how many events left the
    /// hot indexes.
    pub fn evict_warehouse_before(&mut self, horizon: Timestamp) -> Result<usize, EngineError> {
        let evicted = match &mut self.warehouse {
            WarehouseTier::Memory(w) => w.evict_before(horizon),
            WarehouseTier::Durable(d) => d.evict_before(horizon)?,
        };
        // Materialized views mirror the hot tier: retract the evicted
        // events' contributions under the same horizon predicate.
        if !self.cq.is_idle() {
            self.cq.on_evict(horizon);
        }
        Ok(evicted)
    }

    /// Force all durable-log appends onto stable storage (no-op for the
    /// in-memory backend).
    pub fn sync_warehouse(&mut self) -> Result<(), EngineError> {
        match &mut self.warehouse {
            WarehouseTier::Memory(_) => Ok(()),
            WarehouseTier::Durable(d) => Ok(d.sync()?),
        }
    }

    /// True when the durable backend's compaction policy is enabled (always
    /// false for the in-memory backend). Drives the monitor-tick
    /// maintenance step and lint SL092's deployment model.
    pub fn compaction_enabled(&self) -> bool {
        match &self.warehouse {
            WarehouseTier::Memory(_) => false,
            WarehouseTier::Durable(d) => d.compaction_enabled(),
        }
    }

    /// Force-merge every sealed cold segment now, regardless of policy
    /// thresholds (`Ok(None)` for the in-memory backend or when fewer than
    /// two sealed segments exist). The background equivalent runs from the
    /// monitor tick when the policy is enabled.
    pub fn compact_warehouse(&mut self) -> Result<Option<CompactionStats>, EngineError> {
        let now = self.now();
        match &mut self.warehouse {
            WarehouseTier::Memory(_) => Ok(None),
            WarehouseTier::Durable(d) => {
                let stats = d.compact_now(now)?;
                if let Some(s) = &stats {
                    self.metrics.counter("maintenance/compactions").inc();
                    self.monitor.durability.push(format!(
                        "[{now}] compaction (explicit): {} segments -> 1 (gen {}), {} bytes reclaimed",
                        s.segments_in,
                        s.generation,
                        s.bytes_reclaimed()
                    ));
                }
                Ok(stats)
            }
        }
    }

    /// Register a standing [`EventQuery`]: every warehouse-bound event
    /// matching `q` is pushed to a per-subscriber queue of `capacity`
    /// deltas (`None` = unbounded; lint SL091 flags that under admission
    /// control), governed by `policy` on overflow — the same shed/block
    /// vocabulary as ingress overload control. Drain with
    /// [`Engine::poll_deltas`].
    pub fn subscribe_events(
        &mut self,
        name: &str,
        q: EventQuery,
        capacity: Option<usize>,
        policy: OverflowPolicy,
    ) -> SubscriberId {
        self.cq.subscribe(name, q, capacity, policy)
    }

    /// Remove a standing subscription.
    pub fn unsubscribe_events(&mut self, id: SubscriberId) -> Result<(), EngineError> {
        if self.cq.unsubscribe(id) {
            Ok(())
        } else {
            Err(EngineError::UnknownSubscriber(id.0))
        }
    }

    /// Drain a subscriber's pending deltas (matched events since the last
    /// poll). If the poll reports `lagged`, the subscriber's queue
    /// overflowed under `Block` and deltas are withheld until
    /// [`Engine::catch_up`].
    pub fn poll_deltas(&mut self, id: SubscriberId) -> Result<CqPoll, EngineError> {
        self.cq.poll(id).ok_or(EngineError::UnknownSubscriber(id.0))
    }

    /// Re-synchronise a late or lagged subscriber: returns a snapshot of
    /// the full warehouse (cold segments included under a durable backend)
    /// under the subscription's query, plus the hub sequence number the
    /// snapshot is current to, and clears the lag flag. Deltas polled
    /// afterwards strictly follow the snapshot.
    pub fn catch_up(&mut self, id: SubscriberId) -> Result<(Vec<Event>, u64), EngineError> {
        let q = self
            .cq
            .subscription_query(id)
            .ok_or(EngineError::UnknownSubscriber(id.0))?
            .clone();
        let snapshot = self.query_warehouse(&q)?;
        self.cq.mark_caught_up(id);
        Ok((snapshot, self.cq.seq()))
    }

    /// Register a materialized roll-up view over `q`: the answer is
    /// maintained incrementally from the ingest path (O(affected cells)
    /// per tuple, retraction on eviction) and read with
    /// [`Engine::view_cells`] — byte-identical to rerunning the roll-up,
    /// without the rescan. The view is seeded from the hot store, so late
    /// registration is exact too.
    pub fn register_view(&mut self, name: &str, q: CubeQuery) -> ViewId {
        let seed: Vec<Event> = self.warehouse.hot().iter().cloned().collect();
        self.cq.register_view(name, q, seed.iter())
    }

    /// The current cells of a materialized view (sorted, same order and
    /// bits as `EventWarehouse::rollup` over the hot store).
    pub fn view_cells(&self, id: ViewId) -> Result<Vec<CubeCell>, EngineError> {
        self.cq.view_cells(id).ok_or(EngineError::UnknownView(id.0))
    }

    /// Remove a materialized view.
    pub fn drop_view(&mut self, id: ViewId) -> Result<(), EngineError> {
        if self.cq.drop_view(id) {
            Ok(())
        } else {
            Err(EngineError::UnknownView(id.0))
        }
    }

    /// The continuous-query hub (registration stats for monitors/lint).
    pub fn cq(&self) -> &CqHub {
        &self.cq
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

    /// The span tracer: per-operator span latency histograms and the recent
    /// completed spans (each carries the per-tuple trace id).
    pub fn tracer(&self) -> &Tracer {
        self.metrics.tracer_ref()
    }

    /// One unified observability snapshot across every subsystem. Keys are
    /// prefixed by origin: `engine/` (event-loop timing, enrichment, spans,
    /// queue depth), `op/` (per-operator counters and processing latency),
    /// `broker/` (pub/sub matching), `net/` (per-link transfer latency and
    /// queued bytes), `warehouse/` (ingest latency, roll-ups), `cq/`
    /// (continuous queries: match latency, delta fan-out/drops, view and
    /// subscriber gauges), and — with a durable backend — `durable/`
    /// (fsync latency, bytes written/read, recovery duration, segment
    /// counts).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.absorb("engine", &self.metrics.snapshot());
        snap.absorb("op", &self.monitor.metrics_snapshot());
        snap.absorb("broker", &self.broker.metrics_snapshot());
        snap.absorb("net", &self.net_stats.metrics_snapshot());
        snap.absorb("warehouse", &self.warehouse.hot().metrics_snapshot());
        if let WarehouseTier::Durable(d) = &self.warehouse {
            snap.absorb("durable", &d.metrics_snapshot());
        }
        snap.absorb("cq", &self.cq.metrics_snapshot());
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
            .view(deployment, &self.endpoints))
    }

    /// The live endpoint (service or sink) behind a name pair.
    fn endpoint(&self, deployment: &str, name: &str) -> Option<&Endpoint> {
        let id = self.deployments.get(deployment)?.endpoint(name)?;
        self.endpoints.get(id.index())
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
    // Sensor lifecycle (demo P3: plug-and-play)
    // ------------------------------------------------------------------

    /// Plug a sensor in: publish its advertisement, bind it to matching
    /// deployed sources, and start its sampling schedule.
    pub fn add_sensor(&mut self, sim: Box<dyn SensorSim>) -> Result<SensorId, EngineError> {
        let ad = sim.advertisement();
        let id = ad.id;
        let events = self.broker.publish(ad.clone())?;
        self.apply_broker_events(events);
        self.monitor
            .membership
            .push(format!("[{}] + {} joined", self.now(), ad.name));
        // Seed the liveness watchdog so grace counts from the join instant.
        self.broker.heartbeat(id, self.now());
        self.queue.schedule_in(ad.period, Ev::SensorEmit(id.0));
        self.sensors.insert(
            id.0,
            SensorEntry {
                sim,
                ad,
                stalled: false,
                corrupt: false,
                skew_ms: 0,
                expired: false,
                rate_scale: 1,
            },
        );
        Ok(id)
    }

    /// Unplug a sensor: unbind it everywhere and stop its schedule.
    pub fn remove_sensor(&mut self, id: SensorId) -> Result<(), EngineError> {
        let entry = self
            .sensors
            .remove(&id.0)
            .ok_or(EngineError::UnknownSensor(id.0))?;
        // The liveness watchdog may already have unpublished it — a clean
        // removal of an expired sensor is not an error.
        let events = self.broker.unpublish(id).unwrap_or_default();
        self.apply_broker_events(events);
        self.monitor
            .membership
            .push(format!("[{}] - {} left", self.now(), entry.ad.name));
        Ok(())
    }

    fn apply_broker_events(&mut self, events: Vec<BrokerEvent>) {
        for ev in events {
            match ev {
                BrokerEvent::SensorJoined { subscription, ad } => {
                    let Some((dep, source)) = self.sub_index.get(&subscription.0).cloned() else {
                        continue;
                    };
                    let Some(deployment) = self.deployments.get_mut(&dep) else {
                        continue;
                    };
                    let Some(src) = deployment.sources.get_mut(&source) else {
                        continue;
                    };
                    if src.schema.subsumed_by(&ad.schema) {
                        src.sensors.insert(ad.id);
                    } else {
                        self.monitor.membership.push(format!(
                            "[{}] ! {} matches `{dep}/{source}` but lacks required attributes; skipped",
                            self.queue.now(),
                            ad.name
                        ));
                    }
                }
                BrokerEvent::SensorLeft {
                    subscription,
                    sensor,
                } => {
                    if let Some((dep, source)) = self.sub_index.get(&subscription.0).cloned() {
                        if let Some(deployment) = self.deployments.get_mut(&dep) {
                            if let Some(src) = deployment.sources.get_mut(&source) {
                                src.sensors.remove(&sensor);
                            }
                        }
                    }
                }
            }
        }
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
            sources_slot: None,
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
        self.checkpoints.retain(|(dep, _), _| *dep != name);
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
                let subscription: SubscriptionId = self.broker.subscribe(filter.clone());
                self.sub_index
                    .insert(subscription.0, (name.to_string(), source.clone()));
                let runtime = SourceRuntime {
                    filter: filter.clone(),
                    subscription,
                    schema: report.schemas[source].clone(),
                    active: *active,
                    sensors: Default::default(),
                    consumers: Vec::new(),
                    recent: Default::default(),
                };
                // Registered before the fallible lookup, so a failed deploy
                // still finds the subscription to drop.
                let src = deployment.sources.entry(source.clone()).or_insert(runtime);
                for ad in self.broker.matching(subscription)? {
                    if src.schema.subsumed_by(&ad.schema) {
                        src.sensors.insert(ad.id);
                    } else {
                        self.monitor.membership.push(format!(
                            "[{}] ! {} matches `{name}/{source}` but lacks required attributes; skipped",
                            self.queue.now(),
                            ad.name
                        ));
                    }
                }
            }
            ScnCommand::SpawnProcess {
                service,
                spec,
                inputs,
            } => {
                let input_schemas: Vec<SchemaRef> =
                    inputs.iter().map(|i| report.schemas[i].clone()).collect();
                let mut op = spec
                    .instantiate(&input_schemas)
                    .map_err(|error| EngineError::Op {
                        deployment: name.to_string(),
                        operator: service.clone(),
                        error,
                    })?;
                let demand = self.config.initial_demand * op.cost_per_tuple();
                let node = self.pick_node(deployment, inputs, demand)?;
                let process = ProcessId(self.next_pid);
                self.next_pid += 1;
                self.loads
                    .place(&self.topology, process, node, demand, false)?;
                let blocking = op.is_blocking();
                // A checkpoint staged under this (deployment, service)
                // — recovered from the durable log by `open_durable` —
                // re-seeds the window cache before the first tuple
                // arrives: the restart continues where the crashed
                // process checkpointed.
                let staged = self.checkpoints.get(&(name.to_string(), service.clone()));
                let checkpoint = staged
                    .filter(|_| self.config.checkpoint_enabled && blocking)
                    .cloned();
                if let Some(ckpt) = &checkpoint {
                    let (n_tuples, n_bytes) = (ckpt.len(), ckpt.byte_size());
                    op.restore(ckpt.clone());
                    self.metrics
                        .counter("checkpoint/restored_tuples")
                        .add(n_tuples as u64);
                    self.metrics
                        .counter("checkpoint/restored_bytes")
                        .add(n_bytes as u64);
                    self.monitor.durability.push(format!(
                        "[{}] {name}/{service}: window cache restored from checkpoint ({n_tuples} tuples, {n_bytes} B)",
                        self.queue.now()
                    ));
                }
                let period = op.timer_period();
                let role = Role::Service(ServiceRuntime {
                    process,
                    op,
                    replicas: Vec::new(),
                    checkpoint,
                    inputs: inputs.clone(),
                    blocking,
                    consumers: Vec::new(),
                    counters: None,
                    span: SpanKey::new(name, service.as_str(), node.to_string()),
                    last_backlog_migration: None,
                });
                let id = self.add_endpoint(name, service, node, role, "initial placement");
                deployment.services.insert(service.clone(), id);
                if let Some(period) = period {
                    self.queue.schedule_in(period, Ev::Tick(id));
                }
            }
            ScnCommand::ConfigureSink { sink, kind } => {
                // Sinks live on the least-loaded node (the EDW endpoint).
                let node = self
                    .loads
                    .least_loaded(&self.topology, self.topology.node_ids(), 0.0)
                    .unwrap_or(NodeId(0));
                let role = Role::Sink(SinkRuntime {
                    kind: *kind,
                    count: None,
                    e2e_key: format!("e2e/{name}/{sink}_us"),
                });
                let id = self.add_endpoint(name, sink, node, role, "sink endpoint");
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
                    port: *port,
                    flow,
                });
                if let Some(consumer) = deployment.endpoint(to) {
                    let producer = deployment
                        .services
                        .get(from)
                        .and_then(|id| self.endpoints.get_mut(id.index()))
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

    /// Mint the record (and the never-reused id) of a freshly placed
    /// service or sink.
    fn add_endpoint(
        &mut self,
        deployment: &str,
        name: &str,
        node: NodeId,
        role: Role,
        reason: &str,
    ) -> EndpointId {
        self.monitor.placements.push(PlacementChange {
            at: self.queue.now(),
            deployment: deployment.to_string(),
            operator: name.to_string(),
            from: None,
            to: node,
            reason: reason.into(),
        });
        let id = EndpointId(self.endpoints.len() as u32);
        self.endpoints.push(Endpoint {
            names: (deployment.to_string(), name.to_string()),
            node,
            role,
            breaker: None,
        });
        id
    }

    /// The node hosting a named endpoint of `deployment` (service or sink).
    fn node_in(&self, deployment: &Deployment, name: &str) -> Option<NodeId> {
        let id = deployment.endpoint(name)?;
        self.endpoints.get(id.index()).map(|ep| ep.node)
    }

    fn install_flow_with_fallback(
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
            self.sub_index.remove(&src.subscription.0);
        }
        for id in deployment
            .services
            .values()
            .chain(deployment.sinks.values())
        {
            let Some(ep) = self.endpoints.get_mut(id.index()) else {
                continue;
            };
            // The record's breaker, backlog stamp, operator, replicas and
            // checkpoint go with it; what it shared with the rest of the
            // engine is handed back.
            if let Role::Service(svc) = std::mem::replace(&mut ep.role, Role::Retired) {
                self.loads.remove(svc.process);
                if let Some(slot) = svc.counters {
                    self.monitor.op_at_mut(slot).ingress = Default::default();
                }
            }
            ep.breaker = None;
        }
        for edge in deployment.edges {
            if let Some(flow) = edge.flow {
                let _ = self.flows.uninstall(flow);
            }
        }
    }

    /// Flip a source's acquisition gate (also exercised by triggers).
    pub fn set_source_active(
        &mut self,
        deployment: &str,
        source: &str,
        active: bool,
    ) -> Result<(), EngineError> {
        let dep = self
            .deployments
            .get_mut(deployment)
            .ok_or_else(|| EngineError::UnknownDeployment(deployment.to_string()))?;
        let src = dep
            .sources
            .get_mut(source)
            .ok_or_else(|| EngineError::UnknownDeployment(format!("{deployment}/{source}")))?;
        src.active = active;
        Ok(())
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
            .and_then(|id| self.endpoints.get_mut(id.index()))
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
        svc.set_op(op);
        if let (true, WarehouseTier::Durable(d)) = (stale_checkpoint, &mut self.warehouse) {
            // The log still holds the old operator's window; supersede it,
            // or a restart would restore it into the replacement.
            if let Err(e) = d.persist_checkpoint(deployment, service, &OpCheckpoint::empty()) {
                self.monitor.console.push(format!(
                    "error: clearing checkpoint {deployment}/{service}: {e}"
                ));
            }
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

    // ------------------------------------------------------------------
    // Network failure injection (demo P3: network performance)
    // ------------------------------------------------------------------

    /// Fail or restore a link at run time. Routes recompute lazily; traffic
    /// with no remaining path is dropped (and logged) until connectivity
    /// returns.
    pub fn set_link_up(&mut self, link: sl_netsim::LinkId, up: bool) -> Result<(), EngineError> {
        self.topology.set_link_up(link, up)?;
        self.route_cache.clear();
        self.monitor.console.push(format!(
            "[{}] network: {link} {}",
            self.queue.now(),
            if up { "restored" } else { "FAILED" }
        ));
        Ok(())
    }

    /// Install a declarative chaos schedule: every [`FaultPlan`] event is
    /// queued at its offset from *now* and replayed deterministically,
    /// interleaved with regular engine events.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            self.queue.schedule_in(ev.at, Ev::Fault(ev.action));
        }
    }

    /// Apply a single fault action immediately.
    pub fn inject_fault(&mut self, action: FaultAction) {
        let now = self.now();
        self.apply_fault(now, action);
    }

    /// The installed-flow table (reservations and routes), for inspecting
    /// consistency across link failures and repairs.
    pub fn flows(&self) -> &FlowTable {
        &self.flows
    }

    /// The dead-letter queue: terminally undeliverable tuples and the
    /// monotonic per-reason drop counters.
    pub fn dlq(&self) -> &DeadLetterQueue<DeadTuple> {
        &self.dlq
    }

    /// The latest blocking-operator snapshot for `(deployment, service)` —
    /// taken live, or staged by [`Engine::open_durable`] recovery.
    pub fn checkpoint_of(&self, deployment: &str, service: &str) -> Option<&OpCheckpoint> {
        match self.endpoint(deployment, service) {
            Some(ep) => ep.service()?.checkpoint.as_ref(),
            None => self
                .checkpoints
                .get(&(deployment.to_string(), service.to_string())),
        }
    }

    /// The active configuration (read-only).
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Every live service's in-flight ingress depth, in `(deployment,
    /// service)` name order.
    pub fn ingress_depths(&self) -> impl Iterator<Item = (&(String, String), u64)> {
        self.deployments
            .values()
            .flat_map(|d| d.services.values())
            .filter_map(|id| Some((&self.endpoints.get(id.index())?.names, self.depth(*id))))
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

    fn apply_fault(&mut self, now: Timestamp, action: FaultAction) {
        self.metrics
            .counter(&format!("faults/{}", action.kind()))
            .inc();
        match action {
            FaultAction::LinkDown { link } => {
                let _ = self.set_link_up(LinkId(link), false);
            }
            FaultAction::LinkUp { link } => {
                let _ = self.set_link_up(LinkId(link), true);
            }
            FaultAction::NodeCrash { node } => self.crash_node(now, NodeId(node)),
            FaultAction::NodeRestart { node } => {
                if self.topology.set_node_up(NodeId(node), true).is_ok() {
                    self.route_cache.clear();
                    self.monitor
                        .console
                        .push(format!("[{now}] network: {} restored", NodeId(node)));
                    self.monitor
                        .recovery
                        .push(format!("[{now}] {} restarted", NodeId(node)));
                }
            }
            FaultAction::SensorStall { sensor } => {
                if let Some(entry) = self.sensors.get_mut(&sensor) {
                    entry.stalled = true;
                    let name = entry.ad.name.clone();
                    self.monitor
                        .recovery
                        .push(format!("[{now}] sensor {name} stalled silently"));
                }
            }
            FaultAction::SensorDropout { sensor } => {
                if let Some(entry) = self.sensors.get_mut(&sensor) {
                    entry.stalled = true;
                    entry.expired = true;
                    let name = entry.ad.name.clone();
                    let events = self.broker.unpublish(SensorId(sensor)).unwrap_or_default();
                    self.apply_broker_events(events);
                    self.monitor
                        .membership
                        .push(format!("[{now}] - {name} dropped out"));
                    self.monitor
                        .recovery
                        .push(format!("[{now}] sensor {name} dropped out"));
                }
            }
            FaultAction::SensorResume { sensor } => {
                if let Some(entry) = self.sensors.get_mut(&sensor) {
                    entry.stalled = false;
                    // If it was unpublished (dropout or watchdog expiry), the
                    // next emission performs the clean rejoin.
                }
            }
            FaultAction::CorruptStart { sensor } => {
                if let Some(entry) = self.sensors.get_mut(&sensor) {
                    entry.corrupt = true;
                }
            }
            FaultAction::CorruptStop { sensor } => {
                if let Some(entry) = self.sensors.get_mut(&sensor) {
                    entry.corrupt = false;
                }
            }
            FaultAction::ClockSkew { sensor, skew_ms } => {
                if let Some(entry) = self.sensors.get_mut(&sensor) {
                    entry.skew_ms = skew_ms;
                }
            }
            FaultAction::BurstStart { sensor, factor } => {
                if let Some(entry) = self.sensors.get_mut(&sensor) {
                    entry.rate_scale = factor.max(1);
                    let name = entry.ad.name.clone();
                    self.monitor.pressure.push(format!(
                        "[{now}] burst: sensor '{name}' emitting x{} faster",
                        factor.max(1)
                    ));
                }
            }
            FaultAction::BurstStop { sensor } => {
                if let Some(entry) = self.sensors.get_mut(&sensor) {
                    entry.rate_scale = 1;
                    let name = entry.ad.name.clone();
                    self.monitor.pressure.push(format!(
                        "[{now}] burst over: sensor '{name}' back to its advertised period"
                    ));
                }
            }
        }
    }

    /// Crash a node: down its links, evacuate hosted operator processes to
    /// live nodes (restoring checkpointed window state), and move sink
    /// endpoints off it.
    fn crash_node(&mut self, now: Timestamp, node: NodeId) {
        if self.topology.set_node_up(node, false).is_err() {
            return;
        }
        self.route_cache.clear();
        self.monitor
            .console
            .push(format!("[{now}] network: {node} FAILED"));
        self.monitor
            .recovery
            .push(format!("[{now}] {node} crashed"));

        // Services hosted on the crashed node are evacuated; sink endpoints
        // on it move to the least-loaded live node (their tuples would
        // otherwise dead-letter until restart).
        let on_node = |id: &&EndpointId| {
            let ep = self.endpoints.get(id.index());
            ep.is_some_and(|ep| ep.node == node)
        };
        let deployments = self.deployments.values();
        let services = deployments.clone().flat_map(|dep| dep.services.values());
        let victims: Vec<EndpointId> = services.filter(on_node).copied().collect();
        let sinks = deployments.flat_map(|dep| dep.sinks.values());
        let sink_victims: Vec<EndpointId> = sinks.filter(on_node).copied().collect();
        for id in victims {
            self.recover_service(now, id);
        }
        for id in sink_victims {
            if let Some(target) = self.recovery_node(0.0) {
                self.relocate(now, id, target, "recovery: node crash".into());
            }
        }
    }

    /// The least-loaded live node with room for `demand` (any live node when
    /// none has room: recovery beats capacity guarantees).
    fn recovery_node(&self, demand: f64) -> Option<NodeId> {
        let candidates: Vec<NodeId> = self
            .topology
            .node_ids()
            .filter(|n| self.topology.node_is_up(*n))
            .collect();
        self.loads
            .least_loaded(&self.topology, candidates.iter().copied(), demand)
            .or_else(|| candidates.first().copied())
    }

    /// Move an endpoint to `target`: record the placement change, rebuild
    /// what was derived from the old node and re-route the flows touching it.
    fn relocate(&mut self, now: Timestamp, id: EndpointId, target: NodeId, reason: String) {
        let ep = &mut self.endpoints[id.index()];
        self.monitor.placements.push(PlacementChange {
            at: now,
            deployment: ep.names.0.clone(),
            operator: ep.names.1.clone(),
            from: Some(ep.node),
            to: target,
            reason,
        });
        ep.node = target;
        if let Some(svc) = ep.service_mut() {
            svc.span.node = target.to_string();
        }
        self.reinstall_flows_for(id);
    }

    /// Re-place one service off a crashed node and restore its operator
    /// state from the latest checkpoint (or wipe it when checkpointing is
    /// off — modelling the unrecovered state loss).
    fn recover_service(&mut self, now: Timestamp, id: EndpointId) {
        let ep = &self.endpoints[id.index()];
        let Some(svc) = ep.service() else {
            return;
        };
        let process = svc.process;
        let restored = match &svc.checkpoint {
            Some(ckpt) if self.config.checkpoint_enabled => ckpt.clone(),
            _ => OpCheckpoint::empty(),
        };
        let (dep_name, svc_name) = ep.names.clone();
        let demand = self.loads.demand_of(process).unwrap_or(1.0);
        let Some(target) = self.recovery_node(demand) else {
            self.monitor.recovery.push(format!(
                "[{now}] {dep_name}/{svc_name}: no live node to recover onto"
            ));
            return;
        };
        // Non-strict placement: recovery beats capacity guarantees.
        let _ = self
            .loads
            .place(&self.topology, process, target, demand, false);
        let (n_tuples, n_bytes) = (restored.len(), restored.byte_size());
        if let Some(svc) = self.endpoints[id.index()].service_mut() {
            // The crash lost the in-memory window cache; re-seed it from the
            // checkpoint (an empty checkpoint wipes it).
            svc.op.restore(restored);
        }
        self.metrics
            .counter("checkpoint/restored_tuples")
            .add(n_tuples as u64);
        self.metrics
            .counter("checkpoint/restored_bytes")
            .add(n_bytes as u64);
        self.monitor.recovery.push(format!(
            "[{now}] {dep_name}/{svc_name}: recovered onto {target} ({n_tuples} tuples, {n_bytes} B restored)"
        ));
        self.relocate(now, id, target, "recovery: node crash".into());
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
        let fallback = || NodeId(0);
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
                Ok(self
                    .loads
                    .least_loaded(&self.topology, self.topology.node_ids(), demand)
                    .unwrap_or_else(fallback))
            }
            PlacementPolicy::LeastLoaded => Ok(self
                .loads
                .least_loaded(&self.topology, self.topology.node_ids(), demand)
                .unwrap_or_else(fallback)),
            PlacementPolicy::Random => {
                let candidates: Vec<NodeId> = self
                    .topology
                    .node_ids()
                    .filter(|n| {
                        self.topology.node(*n).is_ok_and(|spec| {
                            self.loads.demand_on(*n) + demand <= spec.cpu_capacity
                        })
                    })
                    .collect();
                if candidates.is_empty() {
                    Ok(fallback())
                } else {
                    Ok(candidates[self.rng.gen_range(0..candidates.len())])
                }
            }
        }
    }

    fn route_between(&mut self, a: NodeId, b: NodeId) -> Option<Route> {
        if a == b {
            // A crashed node cannot even deliver to itself.
            return self.topology.node_is_up(a).then(|| Route::local(a));
        }
        let key = (a.0, b.0);
        if let Some(cached) = self.route_cache.get(&key) {
            return cached.clone();
        }
        let route = RoutingTable::compute(&self.topology, a)
            .ok()
            .and_then(|rt| rt.route_to(b).ok());
        self.route_cache.insert(key, route.clone());
        route
    }

    /// Network delay of a tuple from node `a` to node `b`, recording link
    /// statistics; `None` when unreachable.
    pub(crate) fn transfer(&mut self, a: NodeId, b: NodeId, bytes: usize) -> Option<Duration> {
        let route = self.route_between(a, b)?;
        let mut total = Duration::ZERO;
        for link in route.links.clone() {
            let spec = *self.topology.link(link).ok()?;
            let d = sl_netsim::link_delay(spec.latency, spec.bandwidth_bps, bytes);
            self.net_stats.record_link(link, bytes, d);
            total = total + d;
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
        while let Some((now, ev)) = self.queue.pop_until(deadline) {
            let mut batch = Vec::new();
            if live.is_some() && batch_eligible(&self.endpoints, &self.monitor, &ev) {
                // Drain consecutive eligible events with times in
                // [now, now + window). Children of these events are
                // scheduled at least one full window later (delay +
                // processing_delay), so no drained event's descendant can
                // belong to this batch — that is what makes the merge
                // order-equivalent to sequential.
                let horizon = now + self.config.processing_delay;
                while let Some((t, head)) = self.queue.peek() {
                    if t >= horizon
                        || t > deadline
                        || !batch_eligible(&self.endpoints, &self.monitor, head)
                    {
                        break;
                    }
                    batch.extend(self.queue.pop());
                }
            }
            match &mut live {
                // Parallel dispatch costs more than it saves for one tuple.
                Some(pool) if !batch.is_empty() => {
                    batch.insert(0, (now, ev));
                    self.run_sharded(pool, batch);
                }
                _ => self.handle(now, ev),
            }
        }
        self.pool = pool;
    }

    /// Execute a drained batch of eligible deliveries on the shard pool and
    /// merge the results back in drained order.
    fn run_sharded(&mut self, pool: &mut ShardPool, batch: Vec<(Timestamp, Ev)>) {
        /// Where one drained delivery went: into a job, or — its operator
        /// would not replicate — nowhere, so the merge runs it inline.
        struct Member {
            at: Timestamp,
            to: EndpointId,
            trace: u64,
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
            let trace = tuple.meta.trace;
            let job = *job_index.entry((to, home)).or_insert_with(|| {
                let svc = self.endpoints.get_mut(to.index())?.service_mut()?;
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
            members.push(Member { at, to, trace, job });
        }

        // Submit every job, then block until all report back (the barrier).
        let num_jobs = jobs.len();
        let mut base_id = 0u64;
        for (ji, job) in jobs.into_iter().enumerate() {
            self.metrics
                .gauge(&format!("shard/{}/queue_depth", job.home))
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
            self.metrics
                .hist(&format!("shard/{shard}/batch_us"))
                .record(r.wall_us);
            self.metrics
                .gauge(&format!("shard/{shard}/queue_depth"))
                .set(0);
            batched_tuples += r.items.len() as u64;
            let stat = self.monitor.shards.entry(shard).or_default();
            stat.batches += 1;
            stat.tuples += r.items.len() as u64;
            if r.stolen {
                stat.stolen += 1;
            }
            let lender = self.endpoints.get_mut(r.key.index());
            if let Some(svc) = lender.and_then(Endpoint::service_mut) {
                svc.replicas.push(r.op);
            }
            slots.push(r.items.into_iter());
        }
        self.metrics.counter("shard/batches").add(num_jobs as u64);
        self.metrics
            .counter("shard/batched_tuples")
            .add(batched_tuples);
        let steals = pool.steals();
        self.metrics
            .counter("shard/steals")
            .add(steals.saturating_sub(self.last_steals));
        self.last_steals = steals;
        self.monitor.steals = steals;

        // Merge in drained order: counters, spans, forwards and controls
        // fire exactly as the sequential loop would have fired them.
        for m in members {
            let job = match m.job {
                Ok(job) => job,
                Err((port, tuple)) => {
                    let to = m.to;
                    self.handle(m.at, Ev::Deliver { to, port, tuple });
                    continue;
                }
            };
            let Some((outcome, wall0, wall1)) = slots.get_mut(job).and_then(Iterator::next) else {
                self.release(m.at, m.to);
                let (dep, target) = &self.endpoints[m.to.index()].names;
                self.monitor.console.push(format!(
                    "[{}] error: {dep}/{target}: tuple lost in shard pool",
                    m.at
                ));
                continue;
            };
            self.metrics
                .hist("ev/deliver_us")
                .record(wall1.saturating_sub(wall0));
            self.settle(m.at, m.to, m.trace, wall0, wall1, outcome);
        }
    }

    /// Run for `d` of virtual time.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    fn handle(&mut self, now: Timestamp, ev: Ev) {
        let t0 = self.epoch.elapsed().as_micros() as u64;
        let kind = match ev {
            Ev::SensorEmit(id) => {
                self.on_sensor_emit(now, id);
                "ev/emit_us"
            }
            Ev::Deliver { to, port, tuple } => {
                self.on_deliver(now, to, port, tuple);
                "ev/deliver_us"
            }
            Ev::Tick(service) => {
                self.on_tick(now, service);
                "ev/tick_us"
            }
            Ev::MonitorSample => {
                self.on_monitor_sample(now);
                "ev/monitor_us"
            }
            Ev::Fault(action) => {
                self.apply_fault(now, action);
                "ev/fault_us"
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
                "ev/retry_us"
            }
        };
        let t1 = self.epoch.elapsed().as_micros() as u64;
        self.metrics.hist(kind).record(t1.saturating_sub(t0));
    }

    fn on_sensor_emit(&mut self, now: Timestamp, id: u64) {
        let Some(entry) = self.sensors.get_mut(&id) else {
            return;
        };
        let ad = entry.ad.clone();
        // Fault injection: a bursting sensor emits `rate_scale`× faster
        // than its advertised period (floored at 1 ms).
        let scale = entry.rate_scale.max(1) as u64;
        let period = if scale > 1 {
            Duration::from_millis((ad.period.as_millis() / scale).max(1))
        } else {
            ad.period
        };
        if entry.stalled {
            // A stalled or dropped-out sensor keeps its emit timer alive so
            // SensorResume picks up on the next period — but produces
            // nothing and sends no heartbeat (the watchdog must notice).
            self.queue.schedule_in(period, Ev::SensorEmit(id));
            return;
        }
        let corrupt = entry.corrupt;
        let skew_ms = entry.skew_ms;
        let was_expired = entry.expired;
        // Block-mode flow control: when a saturated bound first-hop
        // operator queue is fed by this sensor, skip the sampling instant
        // entirely — no tuple is generated, so nothing can be lost — and
        // revoke the sensor's credit through the broker. The heartbeat
        // still goes out: a throttled sensor is alive, not dead, and must
        // not be expired by the liveness watchdog.
        let block_mode = self.config.overload.queue_capacity.is_some()
            && self.config.overload.policy == OverflowPolicy::Block;
        if block_mode {
            if self.blocked_by_backpressure(&ad) {
                self.queue.schedule_in(period, Ev::SensorEmit(id));
                self.broker.heartbeat(SensorId(id), now);
                self.metrics.counter("backpressure/throttled").inc();
                if self.broker.set_credit(SensorId(id), false) {
                    self.monitor.pressure.push(format!(
                        "[{now}] credit revoked for sensor '{}' (downstream queue full)",
                        ad.name
                    ));
                }
                if let Some(entry) = self.sensors.get_mut(&id) {
                    entry.sim.on_throttled(now);
                }
                return;
            }
            if self.broker.set_credit(SensorId(id), true) {
                self.monitor
                    .pressure
                    .push(format!("[{now}] credit re-granted to sensor '{}'", ad.name));
            }
        }
        let Some(entry) = self.sensors.get_mut(&id) else {
            return;
        };
        if was_expired {
            entry.expired = false;
        }
        let wire = entry.sim.wire_format();
        let (payload, raw) = entry.sim.emit(now);
        self.queue.schedule_in(period, Ev::SensorEmit(id));
        self.broker.heartbeat(SensorId(id), now);
        if was_expired {
            // Clean rejoin: a sensor the watchdog expired (or that dropped
            // out) re-publishes its advertisement the moment it produces
            // again, re-binding matching sources.
            if let Ok(events) = self.broker.publish(ad.clone()) {
                self.apply_broker_events(events);
            }
            self.metrics.counter("liveness/rejoined").inc();
            self.monitor
                .membership
                .push(format!("[{now}] + sensor '{}' rejoined", ad.name));
            self.monitor.recovery.push(format!(
                "[{now}] sensor '{}' rejoined after expiry",
                ad.name
            ));
        }
        // Fault injection: a corrupting sensor ships a truncated payload
        // ending in an invalid UTF-8 byte, so extraction fails regardless
        // of wire format.
        let payload = if corrupt {
            let mut broken = payload[..payload.len() / 2].to_vec();
            broken.push(0xFF);
            Bytes::from(broken)
        } else {
            payload
        };
        // Extraction: decode the wire payload against the advertised schema.
        let mut tuple = match decode_payload(&payload, wire, &ad.schema, raw.meta.clone()) {
            Ok(t) => t,
            Err(_) if corrupt => {
                // Undecodable garbage: account for it in the DLQ instead of
                // pretending the sample never happened.
                self.metrics.counter("drops/corrupt").inc();
                self.dead_letter(
                    now,
                    "~ingest".to_string(),
                    ad.name.clone(),
                    raw,
                    DropReason::CorruptPayload,
                );
                return;
            }
            Err(_) => raw, // decoder and encoder disagree: fall back to raw
        };
        let enriched = enrich(&mut tuple, &ad, now, &EnrichPolicy::default());
        if enriched.located {
            self.metrics.counter("enrich/located").inc();
        }
        if enriched.restamped {
            self.metrics.counter("enrich/restamped").inc();
        }
        if enriched.rethemed {
            self.metrics.counter("enrich/rethemed").inc();
        }
        if skew_ms != 0 {
            // Fault injection: the sensor's clock runs fast (positive) or
            // slow (negative) relative to virtual time.
            tuple.meta.timestamp = if skew_ms > 0 {
                tuple.meta.timestamp + Duration::from_millis(skew_ms as u64)
            } else {
                tuple
                    .meta
                    .timestamp
                    .saturating_sub(Duration::from_millis(skew_ms.unsigned_abs()))
            };
            self.metrics.counter("faults/skewed_tuples").inc();
        }
        // Every tuple entering the dataflows gets a trace id; spans recorded
        // downstream are keyed by it.
        tuple.meta.trace = self.metrics.tracer().next_trace_id();

        // Fan out to every active bound source, in (deployment, source,
        // consumer install) order.
        let mut deliveries: Vec<(usize, EndpointId, usize, Tuple)> = Vec::new();
        for (dep_name, dep) in &mut self.deployments {
            for src in dep.sources.values_mut() {
                if !src.active || !src.sensors.contains(&SensorId(id)) {
                    continue;
                }
                let Some(projected) = project(&tuple, &src.schema) else {
                    continue;
                };
                // Tuples the sources delivered are accounted under the
                // `~sources` pseudo-operator, per consumer.
                for &(to, port) in &src.consumers {
                    let sources = *dep
                        .sources_slot
                        .get_or_insert_with(|| self.monitor.bind_op(dep_name, "~sources"));
                    deliveries.push((sources, to, port, projected.clone()));
                }
                if src.recent.len() >= 8 {
                    src.recent.pop_front();
                }
                src.recent.push_back(projected);
            }
        }
        for (sources, to, port, t) in deliveries {
            self.monitor.op_at_mut(sources).record_in();
            self.send(now, ad.node, to, port, t, 0, now);
        }
    }

    /// True when `Block`-mode flow control demands this sensor skip its
    /// sampling instant: some active bound source forwards it to a service
    /// whose ingress queue is at capacity.
    fn blocked_by_backpressure(&self, ad: &SensorAdvertisement) -> bool {
        let Some(cap) = self.config.overload.queue_capacity else {
            return false;
        };
        self.deployments
            .values()
            .flat_map(|dep| dep.sources.values())
            .filter(|src| src.active && src.sensors.contains(&ad.id))
            .flat_map(|src| &src.consumers)
            .any(|(to, _)| self.depth(*to) >= cap as u64)
    }

    /// Block-mode flow control, the release half: once processing drains a
    /// bounded queue below its cap, every sensor revoked for that queue
    /// gets its credit back immediately. Waiting for the sensor's next
    /// sampling instant is not enough — sensors late in a tick's emission
    /// order would find the queue refilled by earlier emitters every time
    /// and starve permanently.
    pub(crate) fn regrant_credits(&mut self, now: Timestamp) {
        if self.config.overload.queue_capacity.is_none()
            || self.config.overload.policy != OverflowPolicy::Block
            || self.broker.credits().revoked_count() == 0
        {
            return;
        }
        let revoked: Vec<SensorId> = self.broker.credits().revoked().collect();
        for id in revoked {
            let Some(entry) = self.sensors.get(&id.0) else {
                continue;
            };
            let ad = entry.ad.clone();
            if !self.blocked_by_backpressure(&ad) && self.broker.set_credit(id, true) {
                self.monitor
                    .pressure
                    .push(format!("[{now}] credit re-granted to sensor '{}'", ad.name));
            }
        }
    }

    fn on_deliver(&mut self, now: Timestamp, to: EndpointId, port: usize, tuple: Tuple) {
        let Some(ep) = self.endpoints.get_mut(to.index()) else {
            return;
        };
        let (dep_name, target) = (&ep.names.0, &ep.names.1);
        let svc = match &mut ep.role {
            // Undeployed while the tuple was in flight.
            Role::Retired => return,
            Role::Sink(sink) => {
                let slot = *sink
                    .count
                    .get_or_insert_with(|| self.monitor.bind_sink(dep_name, target));
                self.monitor.count_sink_at(slot);
                // End-to-end virtual latency: sensor sampling instant to sink.
                let e2e = now.since(tuple.meta.timestamp);
                self.metrics
                    .hist(&sink.e2e_key)
                    .record((e2e.as_secs_f64() * 1e6) as u64);
                match sink.kind {
                    SinkKind::Warehouse => {
                        let (tgran, sgran) =
                            (self.config.warehouse_tgran, self.config.warehouse_sgran);
                        // Translate once; the same batch feeds the store and,
                        // when anything is registered, the continuous-query
                        // hub (delta evaluation, no rescans). The hub only
                        // sees events the hot store accepted, so views stay
                        // byte-identical to a rescan even if durable ingest
                        // fails.
                        let events = sl_warehouse::tuple_events(&tuple, tgran, sgran);
                        let batch = (!self.cq.is_idle()).then(|| events.clone());
                        let stored = match &mut self.warehouse {
                            WarehouseTier::Memory(w) => {
                                w.ingest_events(events);
                                true
                            }
                            WarehouseTier::Durable(d) => {
                                // Log-first ingest; an I/O failure loses this
                                // tuple's events but must not tear down the run.
                                match d.ingest_events(events) {
                                    Ok(_) => true,
                                    Err(e) => {
                                        self.monitor.console.push(format!(
                                            "[{now}] error: {dep_name}/{target}: durable ingest: {e}"
                                        ));
                                        false
                                    }
                                }
                            }
                        };
                        if let Some(batch) = batch.filter(|_| stored) {
                            self.cq.on_events(&batch);
                        }
                    }
                    SinkKind::Console => {
                        if self.monitor.console.len() < self.config.console_capacity {
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
        let condemned = svc
            .counters
            .and_then(|slot| self.monitor.op_at_mut(slot).ingress.pending.pop_front());
        if let Some(policy) = condemned {
            return self.shed(now, to, tuple, policy);
        }
        let trace = tuple.meta.trace;
        let (outcome, wall0, wall1) = invoke(&mut *svc.op, port, now, tuple, self.epoch);
        // Snapshot blocking-operator state after every absorbed tuple so a
        // node crash can restore the cache on the recovery placement.
        self.checkpoint(to);
        self.settle(now, to, trace, wall0, wall1, outcome);
    }

    /// Snapshot a blocking operator's state, if checkpointing is on: onto
    /// its record (crash recovery within this process) and — with a durable
    /// backend — into the segment log under the plain `(deployment,
    /// service)` names, so a restarted process can restore the window cache
    /// at deploy time.
    fn checkpoint(&mut self, service: EndpointId) {
        if !self.config.checkpoint_enabled {
            return;
        }
        let ep = &mut self.endpoints[service.index()];
        let svc = match &mut ep.role {
            Role::Service(svc) if svc.blocking => svc,
            _ => return,
        };
        let Some(ckpt) = svc.op.checkpoint() else {
            return;
        };
        self.metrics.counter("checkpoint/taken").inc();
        self.metrics
            .gauge("checkpoint/bytes")
            .set(ckpt.byte_size() as i64);
        if let WarehouseTier::Durable(d) = &mut self.warehouse {
            let (dep_name, name) = &ep.names;
            if let Err(e) = d.persist_checkpoint(dep_name, name, &ckpt) {
                self.monitor.console.push(format!(
                    "error: persisting checkpoint {dep_name}/{name}: {e}"
                ));
            }
        }
        svc.checkpoint = Some(ckpt);
    }

    fn on_tick(&mut self, now: Timestamp, service: EndpointId) {
        // A tick addressed to a retired endpoint ends its chain here.
        let Some(svc) = self
            .endpoints
            .get_mut(service.index())
            .and_then(Endpoint::service_mut)
        else {
            return;
        };
        let Some(period) = svc.op.timer_period() else {
            return;
        };
        let mut ctx = OpContext::new(now);
        let wall0 = self.epoch.elapsed().as_micros() as u64;
        let result = svc.op.on_timer(now, &mut ctx);
        let wall1 = self.epoch.elapsed().as_micros() as u64;
        let (emitted, controls) = ctx.take();
        // A tick usually flushes the window: checkpoint the (often empty)
        // post-emission cache so a later crash doesn't resurrect old state.
        self.checkpoint(service);
        if let Some(counters) = self.counters(service) {
            counters.add_out(emitted.len() as u64);
            counters.proc_latency.record(wall1.saturating_sub(wall0));
        }
        // Re-arm the tick first (even on error — blocking ops must keep
        // ticking).
        self.queue.schedule_in(period, Ev::Tick(service));
        if let Err(e) = result {
            let (dep_name, name) = &self.endpoints[service.index()].names;
            self.monitor
                .console
                .push(format!("[{now}] error: {dep_name}/{name} tick: {e}"));
            return;
        }
        self.forward(now, service, emitted);
        self.apply_controls(now, service, controls);
    }

    /// Apply trigger control actions: gate/ungate source acquisition.
    pub(crate) fn apply_controls(
        &mut self,
        now: Timestamp,
        operator: EndpointId,
        controls: Vec<ControlAction>,
    ) {
        for action in controls {
            let (dep_name, operator) = &self.endpoints[operator.index()].names;
            let activate = action.is_activate();
            if let Some(dep) = self.deployments.get_mut(dep_name) {
                for target in action.targets() {
                    if let Some(src) = dep.sources.get_mut(target) {
                        src.active = activate;
                    }
                }
            }
            self.monitor.controls.push(ControlRecord {
                at: now,
                deployment: dep_name.clone(),
                operator: operator.clone(),
                action,
            });
        }
    }

    // ------------------------------------------------------------------
    // Monitoring & migration
    // ------------------------------------------------------------------

    fn on_monitor_sample(&mut self, now: Timestamp) {
        let elapsed = now.since(self.last_monitor_at).as_secs_f64();
        self.last_monitor_at = now;
        self.monitor.sample_rates(now, elapsed);

        // Liveness watchdog: expire sensors whose heartbeat (last emission)
        // is older than `liveness_grace` advertised periods.
        if self.config.liveness_enabled {
            let grace = self.config.liveness_grace;
            for (ad, events) in self.broker.sweep_stale(now, grace) {
                self.apply_broker_events(events);
                if let Some(entry) = self.sensors.get_mut(&ad.id.0) {
                    entry.expired = true;
                }
                self.metrics.counter("liveness/expired").inc();
                self.monitor.membership.push(format!(
                    "[{now}] - sensor '{}' presumed dead (no heartbeat)",
                    ad.name
                ));
                self.monitor.recovery.push(format!(
                    "[{now}] liveness: sensor '{}' expired, ad withdrawn",
                    ad.name
                ));
            }
        }

        // Observability gauges: event-queue depth and per-link queued bytes.
        self.metrics
            .gauge("event_queue_depth")
            .set(self.queue.pending() as i64);
        let reserved: Vec<_> = self.flows.reserved_links().collect();
        for (link, bytes) in reserved {
            self.net_stats.set_link_queued(link, bytes);
        }

        // Refresh process demands from observed rates.
        // The same sweep drains the ingress watermarks (name order, every
        // window regardless, so they never span more than one monitor
        // period) for backlog-driven re-placement below.
        let mut watermarks: Vec<(EndpointId, u64)> = Vec::new();
        let services = self.deployments.values().flat_map(|d| d.services.values());
        for &id in services {
            let Some(svc) = self.endpoints.get(id.index()).and_then(Endpoint::service) else {
                continue;
            };
            let Some(slot) = svc.counters else {
                continue;
            };
            let counters = self.monitor.op_at_mut(slot);
            if let Some((_, rate)) = counters.rate_series.last() {
                let demand = (rate * svc.op.cost_per_tuple()).max(1.0);
                self.loads.set_demand(svc.process, demand);
            }
            watermarks.push((id, counters.ingress.drain_watermark()));
        }

        // Overload-control gauges and backlog-driven re-placement.
        let inflight = self.total_inflight();
        self.metrics
            .gauge("backpressure/inflight")
            .set(inflight as i64);
        self.metrics
            .gauge("backpressure/throttled_sensors")
            .set(self.broker.credits().revoked_count() as i64);
        if let Some(cap) = self.config.overload.queue_capacity {
            if self.config.overload.backlog_migration && self.config.migration_enabled {
                self.migrate_backlogged(now, cap, &watermarks);
            }
        }

        if self.config.migration_enabled {
            self.migrate_overloaded(now);
        }

        // Retention: age out the hot tail and retract the evicted events
        // from materialized views (the durable backend spills to cold
        // segments instead of discarding). Default-off.
        if let Some(window) = self.config.retention {
            let horizon = now.saturating_sub(window);
            match self.evict_warehouse_before(horizon) {
                Ok(evicted) if evicted > 0 => {
                    self.metrics
                        .counter("retention/evicted")
                        .add(evicted as u64);
                    self.monitor.continuous.push(format!(
                        "[{now}] retention: {evicted} events evicted before {horizon}"
                    ));
                }
                Ok(_) => {}
                Err(e) => {
                    self.monitor
                        .console
                        .push(format!("[{now}] error: retention eviction: {e}"));
                }
            }
        }

        // Storage maintenance: one policy-gated compaction step per tick,
        // like retention eviction. The policy lives on the durable config
        // (DurableConfig::compaction), so a memory-backed engine and a
        // durable one with compaction disabled both skip this for free.
        if let WarehouseTier::Durable(d) = &mut self.warehouse {
            match d.maybe_compact(now) {
                Ok(Some(stats)) => {
                    self.metrics.counter("maintenance/compactions").inc();
                    self.monitor.durability.push(format!(
                        "[{now}] compaction: {} segments -> 1 (gen {}), {} bytes reclaimed, {} records dropped",
                        stats.segments_in,
                        stats.generation,
                        stats.bytes_reclaimed(),
                        stats.records_dropped()
                    ));
                }
                Ok(None) => {}
                Err(e) => {
                    self.monitor
                        .console
                        .push(format!("[{now}] error: compaction: {e}"));
                }
            }
        }

        // Continuous-query liveness for the report: refresh the per-
        // registration summaries, noting subscribers newly fallen behind.
        if !self.cq.is_idle() {
            self.refresh_cq_monitor(now);
        }

        self.queue
            .schedule_in(self.config.monitor_period, Ev::MonitorSample);
    }

    /// Rebuild the monitor's continuous-query section from hub stats and
    /// log lag transitions (a subscriber falling behind is an operational
    /// event, not just a gauge).
    fn refresh_cq_monitor(&mut self, now: Timestamp) {
        let mut table = BTreeMap::new();
        for s in self.cq.subscription_stats() {
            let was_lagged = self
                .monitor
                .cq
                .get(&s.id.to_string())
                .is_some_and(|st| st.lagged);
            if s.lagged && !was_lagged {
                self.monitor.continuous.push(format!(
                    "[{now}] subscriber '{}' ({}) lagged: queue overflowed, awaiting catch-up",
                    s.name, s.id
                ));
            }
            table.insert(
                s.id.to_string(),
                crate::monitor::CqStat {
                    kind: format!("subscription '{}'", s.name),
                    depth: s.depth,
                    delivered: s.delivered,
                    dropped: s.dropped,
                    lagged: s.lagged,
                    cells: 0,
                    contributions: 0,
                },
            );
        }
        for v in self.cq.view_stats() {
            table.insert(
                v.id.to_string(),
                crate::monitor::CqStat {
                    kind: format!("view '{}'", v.name),
                    depth: 0,
                    delivered: 0,
                    dropped: 0,
                    lagged: false,
                    cells: v.cells,
                    contributions: v.contributions,
                },
            );
        }
        self.monitor.cq = table;
    }

    /// Re-place operators whose ingress queues stayed near their bound for
    /// a whole monitor window: sustained backlog is an overload signal CPU
    /// utilisation misses (a slow node under light average load still
    /// starves its queue). One migration per operator per cooldown window.
    fn migrate_backlogged(&mut self, now: Timestamp, cap: usize, watermarks: &[(EndpointId, u64)]) {
        let threshold =
            (((cap as f64) * self.config.overload.backlog_threshold).ceil() as u64).max(1);
        let cooldown = self.config.monitor_period.saturating_mul(4);
        for &(id, hwm) in watermarks {
            if hwm < threshold {
                continue;
            }
            let ep = &self.endpoints[id.index()];
            let Some(svc) = ep.service() else {
                continue;
            };
            if svc
                .last_backlog_migration
                .is_some_and(|last| now.since(last).as_millis() < cooldown.as_millis())
            {
                continue;
            }
            let (process, node) = (svc.process, ep.node);
            let demand = self.loads.demand_of(process).unwrap_or(1.0);
            let candidates = self.topology.node_ids().filter(|n| *n != node);
            let Some(target) = self.loads.least_loaded(&self.topology, candidates, demand) else {
                continue;
            };
            if self
                .loads
                .place(&self.topology, process, target, demand, true)
                .is_err()
            {
                continue;
            }
            let (dep_name, svc_name) = &ep.names;
            let at = format!("backlog {hwm}/{cap} at {dep_name}/{svc_name}");
            self.monitor
                .pressure
                .push(format!("[{now}] {at}: moved off {node}"));
            self.metrics
                .counter("backpressure/backlog_migrations")
                .inc();
            if let Some(svc) = self.endpoints[id.index()].service_mut() {
                svc.last_backlog_migration = Some(now);
            }
            self.relocate(now, id, target, format!("migration: {at}"));
        }
    }

    /// Move the heaviest process off every overloaded node, if a fitting
    /// target exists (the Figure 3 "assignment changes").
    fn migrate_overloaded(&mut self, now: Timestamp) {
        let overloaded: Vec<NodeId> = self
            .topology
            .node_ids()
            .filter(|n| {
                self.loads
                    .utilization(&self.topology, *n)
                    .is_ok_and(|u| u > self.config.migration_threshold)
            })
            .collect();
        for node in overloaded {
            let Some((process, demand)) = self
                .loads
                .processes_on(node)
                .into_iter()
                .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
            else {
                continue;
            };
            let candidates = self.topology.node_ids().filter(|n| *n != node);
            let Some(target) = self.loads.least_loaded(&self.topology, candidates, demand) else {
                continue;
            };
            // Find which service owns this process.
            let owns = |id: &&EndpointId| {
                let svc = self.endpoints.get(id.index()).and_then(Endpoint::service);
                svc.is_some_and(|svc| svc.process == process)
            };
            let Some(&owner) = self
                .deployments
                .values()
                .flat_map(|dep| dep.services.values())
                .find(owns)
            else {
                continue;
            };
            if self
                .loads
                .place(&self.topology, process, target, demand, true)
                .is_err()
            {
                continue;
            }
            self.relocate(now, owner, target, format!("migration: {node} overloaded"));
        }
    }

    /// After a migration, re-route the flows touching an endpoint.
    fn reinstall_flows_for(&mut self, id: EndpointId) {
        let (dep_name, name) = self.endpoints[id.index()].names.clone();
        let Some(dep) = self.deployments.get(&dep_name) else {
            return;
        };
        let affected: Vec<(usize, String, String)> = dep
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.from == name || e.to == name)
            .map(|(i, e)| (i, e.from.clone(), e.to.clone()))
            .collect();
        for (idx, from, to) in affected {
            let Some(dep) = self.deployments.get(&dep_name) else {
                return;
            };
            if let Some(f) = dep.edges[idx].flow {
                let _ = self.flows.uninstall(f);
            }
            let new_flow = match (self.node_in(dep, &from), self.node_in(dep, &to)) {
                (Some(a), Some(b)) if a != b => {
                    let qos = dep.dataflow.qos_for(&from, &to);
                    self.install_flow_with_fallback(a, b, &qos, &dep_name, &from, &to)
                        .ok()
                }
                _ => None,
            };
            if let Some(dep) = self.deployments.get_mut(&dep_name) {
                dep.edges[idx].flow = new_flow;
            }
        }
    }
}

/// True if an event may join a parallel execution batch: a delivery to a
/// live *service* whose operator is shardable and non-blocking. Everything
/// else — sinks, ticks, faults, retries, monitor samples, and stateful or
/// blocking operators — is handled inline on the engine thread, exactly as
/// the sequential loop would.
fn batch_eligible(endpoints: &[Endpoint], monitor: &Monitor, ev: &Ev) -> bool {
    let Ev::Deliver { to, .. } = ev else {
        return false;
    };
    let Some(svc) = endpoints.get(to.index()).and_then(Endpoint::service) else {
        return false;
    };
    // An operator with deferred shed markers pending must consume them
    // inline (in arrival order) through `on_deliver`; markers cannot appear
    // mid-collection because no events are handled while a batch drains.
    let condemned = svc
        .counters
        .is_some_and(|slot| !monitor.op_at(slot).ingress.pending.is_empty());
    !condemned && !svc.blocking && svc.op.is_shardable()
}

/// Project a sensor tuple onto a source's declared schema (types checked at
/// bind time via subsumption; values pass through, with Int→Float widening).
fn project(tuple: &Tuple, schema: &SchemaRef) -> Option<Tuple> {
    let mut values = Vec::with_capacity(schema.len());
    for field in schema.fields() {
        let v = tuple.get(&field.name).ok()?.clone();
        let v = match (v, field.ty) {
            (Value::Int(i), sl_stt::AttrType::Float) => Value::Float(i as f64),
            (v, _) => v,
        };
        values.push(v);
    }
    Tuple::new(schema.clone(), values, tuple.meta.clone()).ok()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)] // tests may panic freely
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
                let svc = e.endpoints[id.index()].service_mut().unwrap();
                svc.set_op(Box::new(Stubborn(temp_schema())));
            }
            e.run_for(Duration::from_mins(2));
            let batched = e.metrics.counter_value("shard/batched_tuples");
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
        // Engine-level instruments: loop timing, spans, queue depth gauge.
        assert!(snap.hists["engine/ev/deliver_us"].count > 0);
        assert!(snap.counters["engine/spans_completed"] > 0);
        assert!(snap.gauges.contains_key("engine/event_queue_depth"));
        // Span histograms are keyed deployment/operator@node.
        assert!(snap
            .hists
            .keys()
            .any(|k| k.starts_with("engine/span/d/all@node#")));
        // Broker and network sections present.
        assert_eq!(snap.counters["broker/subscribes"], 1);
        assert!(snap.counters["net/total_msgs"] > 0);
        // Each tuple got a distinct trace id; spans recorded against them.
        assert!(e.tracer().completed_spans() > 0);
        assert_eq!(e.tracer().open_spans(), 0);
        let last = e.tracer().recent_spans().last().unwrap().clone();
        assert!(last.trace > 0);
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
