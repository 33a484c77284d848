//! The high-level StreamLoader session: discover sensors, design a
//! dataflow, debug it on samples, deploy it, watch it run, query the
//! warehouse — the full demo walkthrough (paper §4) as one API.

use sl_dataflow::{debug_run, render_ascii, validate, Dataflow, SampleRun, ValidationReport};
use sl_durable::DurableConfig;
use sl_engine::{Engine, EngineConfig, EngineError};
use sl_netsim::Topology;
use sl_pubsub::{SensorAdvertisement, SubscriptionFilter};
use sl_sensors::{osaka_fleet, ScenarioConfig, SensorSim};
use sl_stt::{Duration, SensorId, Timestamp, Tuple};
use sl_warehouse::{CubeCell, CubeQuery, EventQuery};
use std::collections::HashMap;

/// A StreamLoader session: one engine plus the designer-facing helpers.
pub struct StreamLoader {
    engine: Engine,
}

impl StreamLoader {
    /// A session on an arbitrary network.
    ///
    /// The configuration is validated up front: a zero queue capacity, a
    /// `Sample` probability outside `(0, 1]`, or a deployment listed under
    /// two priority classes is a typed [`EngineError::Config`] here instead
    /// of a surprise mid-run.
    pub fn new(
        topology: Topology,
        config: EngineConfig,
        start: Timestamp,
    ) -> Result<StreamLoader, EngineError> {
        config.validate()?;
        Ok(StreamLoader {
            engine: Engine::new(topology, config, start),
        })
    }

    /// A session whose Event Data Warehouse and operator checkpoints
    /// persist to the segment log at `durable.dir`. Reopening the same
    /// directory after a crash recovers the warehouse (hot tail rebuilt,
    /// evicted events served from cold segments) and stages operator
    /// checkpoints for the next [`StreamLoader::deploy`] of the same
    /// dataflow.
    pub fn open_durable(
        topology: Topology,
        config: EngineConfig,
        start: Timestamp,
        durable: DurableConfig,
    ) -> Result<StreamLoader, EngineError> {
        config.validate()?;
        Ok(StreamLoader {
            engine: Engine::open_durable(topology, config, start, durable)?,
        })
    }

    /// Scale the session across `n` worker threads (the sharded execution
    /// layer). Outputs are identical to the single-threaded default — only
    /// wall-clock cost changes. `with_parallelism(1)` restores the classic
    /// sequential loop.
    ///
    /// ```no_run
    /// use streamloader::StreamLoader;
    /// use sl_engine::EngineConfig;
    /// use sl_sensors::ScenarioConfig;
    ///
    /// let session = StreamLoader::osaka_demo(&ScenarioConfig::default(), EngineConfig::default())
    ///     .expect("default config is valid")
    ///     .with_parallelism(4);
    /// assert_eq!(session.engine().parallelism(), 4);
    /// ```
    #[must_use]
    pub fn with_parallelism(mut self, n: usize) -> StreamLoader {
        self.engine.set_parallelism(n);
        self
    }

    /// The paper's demo setup: the NICT-like testbed with the Osaka sensor
    /// fleet plugged in, clock at 2016-07-01 08:00 UTC.
    pub fn osaka_demo(
        scenario: &ScenarioConfig,
        engine: EngineConfig,
    ) -> Result<StreamLoader, EngineError> {
        let fleet = osaka_fleet(scenario);
        let start = Timestamp::from_civil(2016, 7, 1, 8, 0, 0);
        let mut session = StreamLoader::new(fleet.topology, engine, start)?;
        for sensor in fleet.sensors {
            session.engine.add_sensor(sensor)?;
        }
        Ok(session)
    }

    /// Discovery (demo P1): sensors currently matching a filter.
    pub fn discover(&self, filter: &SubscriptionFilter) -> Vec<SensorAdvertisement> {
        self.engine
            .broker()
            .registry()
            .discover(filter)
            .cloned()
            .collect()
    }

    /// Validate a dataflow without deploying — the canvas's live checks.
    pub fn check(
        &self,
        dataflow: &Dataflow,
    ) -> Result<ValidationReport, sl_dataflow::DataflowError> {
        validate(dataflow)
    }

    /// What the analyzer knows about this session: its live topology, sensor
    /// registry and engine configuration, plus the deployment facts the
    /// `SL05x`–`SL09x` tier reasons with.
    fn lint_inputs<'a>(
        &'a self,
        fault_plan: Option<&'a sl_faults::FaultPlan>,
    ) -> (sl_lint::LintContext<'a>, sl_lint::DeployModel<'a>) {
        let ctx = sl_lint::LintContext {
            topology: Some(self.engine.topology()),
            registry: Some(self.engine.broker().registry()),
            // SL034 (unmitigated overload) is silenced when this session
            // already has an admission layer configured.
            engine: Some(self.engine.config()),
        };
        let model = sl_lint::DeployModel {
            config: self.engine.config(),
            fault_plan,
            durable: self.engine.durable_warehouse().is_some(),
            compaction: self.engine.compaction_enabled(),
        };
        (ctx, model)
    }

    /// Statically analyze a dataflow against this session's live sensor
    /// registry and network topology: granularity consistency, cache
    /// boundedness, rate/volume feasibility, and dead code, on top of the
    /// structural checks of [`StreamLoader::check`]. Never stops at the
    /// first problem — the report accumulates every finding.
    pub fn lint(&self, dataflow: &Dataflow) -> sl_lint::LintReport {
        let (ctx, _) = self.lint_inputs(None);
        sl_lint::lint_dataflow(dataflow, &ctx, None)
    }

    /// Pre-flight analysis of a *deployment*: everything
    /// [`StreamLoader::lint`] checks plus the `SL05x`–`SL08x` deployment
    /// tier, which analyzes the dataflow against this session's actual
    /// engine configuration (overflow policy, parallelism and shard key,
    /// checkpoint/durability settings) and, when given, the fault plan the
    /// run will face. Run it before [`StreamLoader::deploy`] — a clean
    /// report means the deployment cannot stall under backpressure and its
    /// measured peak queue depths stay under the predicted bounds (see
    /// [`StreamLoader::predicted_peak_depths`]).
    pub fn lint_deployment(
        &self,
        dataflow: &Dataflow,
        fault_plan: Option<&sl_faults::FaultPlan>,
    ) -> sl_lint::LintReport {
        let (ctx, model) = self.lint_inputs(fault_plan);
        sl_lint::lint_dataflow(dataflow, &ctx, Some(&model))
    }

    /// The statically predicted per-service peak ingress-depth bounds the
    /// deployment tier's resource pass reasons with — what
    /// `engine/backpressure` queue depths should never exceed if the lint
    /// report is clean.
    pub fn predicted_peak_depths(
        &self,
        dataflow: &Dataflow,
        fault_plan: Option<&sl_faults::FaultPlan>,
    ) -> std::collections::BTreeMap<String, f64> {
        let (ctx, model) = self.lint_inputs(fault_plan);
        sl_lint::predicted_peak_depths(dataflow, &ctx, &model)
    }

    /// A read-only capability/placement snapshot of a deployment: which
    /// services are shardable or checkpointable, where they run, and which
    /// sources are currently acquiring.
    pub fn deployment_view(
        &self,
        deployment: &str,
    ) -> Result<sl_engine::DeploymentView, EngineError> {
        self.engine.deployment_view(deployment)
    }

    /// Step-debug a dataflow on sample tuples (demo P1).
    pub fn debug(
        &self,
        dataflow: &Dataflow,
        samples: &HashMap<String, Vec<Tuple>>,
    ) -> Result<SampleRun, sl_dataflow::DataflowError> {
        debug_run(dataflow, samples)
    }

    /// Deploy a dataflow (demo P2: translate → DSN/SCN → network).
    pub fn deploy(&mut self, dataflow: Dataflow) -> Result<(), EngineError> {
        self.engine.deploy(dataflow)
    }

    /// Deploy directly from DSN text: parse the document, infer each
    /// source's schema from the sensors its filter currently matches, and
    /// deploy the rebuilt conceptual dataflow.
    ///
    /// Fails if any source matches no sensors (no schema to infer) — supply
    /// explicit schemas via [`sl_dataflow::from_dsn`] for cold deployments.
    pub fn deploy_dsn(&mut self, text: &str) -> Result<(), Box<dyn std::error::Error>> {
        let doc = sl_dsn::parse_document(text)?;
        let registry = self.engine.broker().registry();
        let mut schemas = HashMap::new();
        for src in &doc.sources {
            let schema =
                sl_dataflow::infer_source_schema(&src.filter, registry).ok_or_else(|| {
                    format!(
                        "source `{}`: no matching sensors to infer a schema from",
                        src.name
                    )
                })?;
            schemas.insert(src.name.clone(), schema);
        }
        let df = sl_dataflow::from_dsn(&doc, &schemas)?;
        self.engine.deploy(df)?;
        Ok(())
    }

    /// Render a density heat-map of warehouse events inside `area` — the
    /// stand-in for the Sticker visualisation sink (demo P2).
    pub fn heatmap(
        &self,
        query: &EventQuery,
        area: sl_stt::BoundingBox,
        cols: usize,
        rows: usize,
    ) -> String {
        sl_warehouse::render_heatmap(self.engine.warehouse(), query, area, cols, rows)
    }

    /// Advance virtual time.
    pub fn run_for(&mut self, d: Duration) {
        self.engine.run_for(d);
    }

    /// The "live" dataflow view (Figure 2 + Figure 3 annotations): the
    /// canvas rendering annotated with current rates and hosting nodes.
    pub fn render_live(&self, deployment: &str) -> Result<String, EngineError> {
        let df = self.engine.dataflow(deployment)?;
        let mut annotations = HashMap::new();
        for ((dep, op), counters) in self.engine.monitor().all_ops() {
            if dep != deployment {
                continue;
            }
            let rate = counters.rate_series.last().map_or(0.0, |(_, r)| r);
            let node = self
                .engine
                .node_of(deployment, op)
                .map_or(String::from("-"), |n| n.to_string());
            annotations.insert(
                op.clone(),
                format!(
                    "{rate:.1} tuples/s on {node} (in={} out={})",
                    counters.tuples_in(),
                    counters.tuples_out()
                ),
            );
        }
        Ok(render_ascii(df, &annotations))
    }

    /// The monitor report (Figure 3 text panel).
    pub fn monitor_report(&self) -> String {
        self.engine.monitor().report(self.engine.now())
    }

    /// One unified observability snapshot across every subsystem
    /// (engine event loop, per-operator counters and latency histograms,
    /// pub/sub broker, network links, warehouse). Serialize it with
    /// [`sl_obs::MetricsSnapshot::to_json`] or render it with
    /// [`sl_obs::MetricsSnapshot::render_table`].
    pub fn metrics(&self) -> sl_obs::MetricsSnapshot {
        self.engine.metrics_snapshot()
    }

    /// The metrics snapshot as a human-readable table — the textual
    /// counterpart of the Figure 3 monitoring panel.
    pub fn metrics_table(&self) -> String {
        self.metrics().render_table()
    }

    /// Query the Event Data Warehouse. With a durable backend the answer
    /// merges the hot indexes with the cold segment scan; the in-memory
    /// backend answers from the hot indexes alone (and cannot fail).
    pub fn query_warehouse(&mut self, q: &EventQuery) -> Result<Vec<sl_stt::Event>, EngineError> {
        self.engine.query_warehouse(q)
    }

    /// Apply the retention horizon: discard (in-memory backend) or spill to
    /// cold segments (durable backend) all events older than `horizon`.
    pub fn evict_warehouse_before(&mut self, horizon: Timestamp) -> Result<usize, EngineError> {
        self.engine.evict_warehouse_before(horizon)
    }

    /// Force cold-tier storage maintenance now: merge every sealed segment
    /// into one compacted generation, dropping redundant markers,
    /// superseded checkpoints, and (under the policy's `cold_retention`)
    /// expired cold events. Returns `Ok(None)` for the in-memory backend or
    /// when there is nothing to merge. With
    /// [`CompactionPolicy::enabled`](sl_durable::CompactionPolicy) the same
    /// maintenance also runs incrementally from the monitor tick.
    pub fn compact_warehouse(
        &mut self,
    ) -> Result<Option<sl_durable::CompactionStats>, EngineError> {
        self.engine.compact_warehouse()
    }

    /// Roll up the warehouse's *hot* tier: with a durable backend, events
    /// already spilled to cold segments are not in the answer (as with
    /// [`Engine::warehouse_mut`](sl_engine::Engine::warehouse_mut), which
    /// this reads through). A view registered with [`StreamLoader::view`]
    /// over the same `CubeQuery` gives the same hot-tier answer from
    /// [`StreamLoader::view_cells`], without the rescan.
    pub fn rollup(&mut self, q: &CubeQuery) -> Vec<CubeCell> {
        self.engine.warehouse_mut().rollup(q)
    }

    /// Register a standing query: warehouse-bound events matching `q` are
    /// pushed into a per-subscriber queue of `capacity` deltas (`None` =
    /// unbounded), governed by `policy` on overflow. Drain with
    /// [`StreamLoader::poll_deltas`].
    pub fn subscribe(
        &mut self,
        name: &str,
        q: EventQuery,
        capacity: Option<usize>,
        policy: sl_engine::OverflowPolicy,
    ) -> sl_engine::SubscriberId {
        self.engine.subscribe_events(name, q, capacity, policy)
    }

    /// Remove a standing subscription.
    pub fn unsubscribe(&mut self, id: sl_engine::SubscriberId) -> Result<(), EngineError> {
        self.engine.unsubscribe_events(id)
    }

    /// Drain a subscriber's pending deltas. A `lagged` poll means the
    /// queue overflowed under `Block`; call [`StreamLoader::catch_up`] to
    /// re-synchronise.
    pub fn poll_deltas(
        &mut self,
        id: sl_engine::SubscriberId,
    ) -> Result<sl_engine::CqPoll, EngineError> {
        self.engine.poll_deltas(id)
    }

    /// Snapshot + resume for a late or lagged subscriber: the full
    /// warehouse answer under the subscription's query, the delta
    /// sequence number it is current to, and a cleared lag flag.
    pub fn catch_up(
        &mut self,
        id: sl_engine::SubscriberId,
    ) -> Result<(Vec<sl_stt::Event>, u64), EngineError> {
        self.engine.catch_up(id)
    }

    /// Register a materialized roll-up view: the cells of `q`, maintained
    /// incrementally from the ingest path — every read via
    /// [`StreamLoader::view_cells`] is the same answer
    /// [`StreamLoader::rollup`] would compute, without the rescan.
    pub fn view(&mut self, name: &str, q: CubeQuery) -> sl_engine::ViewId {
        self.engine.register_view(name, q)
    }

    /// The current cells of a materialized view.
    pub fn view_cells(&self, id: sl_engine::ViewId) -> Result<Vec<CubeCell>, EngineError> {
        self.engine.view_cells(id)
    }

    /// Remove a materialized view.
    pub fn drop_view(&mut self, id: sl_engine::ViewId) -> Result<(), EngineError> {
        self.engine.drop_view(id)
    }

    /// Lint the session's live continuous-query registrations against its
    /// engine configuration: SL090 (a view whose standing query never
    /// bounds its time range, with no retention window configured — the
    /// view grows forever) and SL091 (an unbounded subscriber queue while
    /// ingress admission control is on — the serving side silently undoes
    /// the ingest side's memory bound).
    pub fn lint_cq(&self) -> sl_lint::LintReport {
        let hub = self.engine.cq();
        let config = self.engine.config();
        let model = sl_lint::CqModel {
            views: hub
                .view_stats()
                .into_iter()
                .map(|v| sl_lint::CqViewFacts {
                    name: v.name.to_string(),
                    time_bounded: v.time_bounded,
                })
                .collect(),
            subscriptions: hub
                .subscription_stats()
                .into_iter()
                .map(|s| sl_lint::CqSubFacts {
                    name: s.name.to_string(),
                    bounded: s.bounded,
                })
                .collect(),
            retention_configured: config.retention.is_some(),
            admission_enabled: config.overload.admission_enabled(),
        };
        sl_lint::lint_cq(&model)
    }

    /// Install a chaos schedule: every event in `plan` is queued at its
    /// virtual-time offset from now and replayed deterministically.
    pub fn install_fault_plan(&mut self, plan: &sl_faults::FaultPlan) {
        self.engine.install_fault_plan(plan);
    }

    /// The engine's dead-letter queue: terminally undeliverable tuples with
    /// their drop reasons.
    pub fn dlq(&self) -> &sl_faults::DeadLetterQueue<sl_engine::DeadTuple> {
        self.engine.dlq()
    }

    /// Plug a sensor in at run time (demo P3).
    pub fn add_sensor(&mut self, sensor: Box<dyn SensorSim>) -> Result<SensorId, EngineError> {
        self.engine.add_sensor(sensor)
    }

    /// Unplug a sensor (demo P3).
    pub fn remove_sensor(&mut self, id: SensorId) -> Result<(), EngineError> {
        self.engine.remove_sensor(id)
    }

    /// Direct engine access for everything else.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }
}
