//! The five benchmark workloads: their dataflows, fleets, configurations and
//! frozen sizes. Everything here drives the system through its public API
//! only and is a pure function of the seed.

use crate::stats::SplitMix;
use std::path::{Path, PathBuf};
use streamloader::dataflow::{Dataflow, DataflowBuilder};
use streamloader::dsn::SinkKind;
use streamloader::durable::{CompactionPolicy, DurableConfig, FsyncPolicy};
use streamloader::engine::{EngineConfig, OverflowPolicy, ShardKey, SubscriberId, ViewId};
use streamloader::netsim::{NodeSpec, Topology};
use streamloader::ops::AggFunc;
use streamloader::pubsub::SubscriptionFilter;
use streamloader::sensors::physical::TemperatureSensor;
use streamloader::sensors::scenario::osaka_area;
use streamloader::sensors::{osaka_fleet, ScenarioConfig, SensorSim};
use streamloader::stt::{
    AttrType, BoundingBox, Duration, Event, Field, GeoPoint, Schema, SchemaRef, SensorId,
    SpatialGranularity, TemporalGranularity, Theme, TimeInterval, Timestamp, Unit,
};
use streamloader::warehouse::{CubeQuery, EventQuery};
use streamloader::StreamLoader;

/// Workload names, in run order. Later issues cite these; they are frozen.
pub const NAMES: [&str; 5] = ["osaka", "chain", "chain_par", "edw_load", "edw_query"];

/// Workloads `run.sh` runs but `BENCHMARK.json` does not declare to the PR
/// driver. `chain_par`'s wall time depends on how fast an idle vCPU wakes
/// (one blocking hand-off per ~8-tuple batch), and on the 2-vCPU microVM this
/// was developed on that flips between ~2.3 s and ~4.6 s per repetition for
/// tens of minutes at a time: no bound of at most 25 % can hold across that.
/// Its output checks run all the same.
pub const UNDECLARED: [&str; 1] = ["chain_par"];

/// One line per workload on why it exists (mirrored in `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "osaka" => "the paper's Figure-2 flow: mixed wire formats, triggers gating sources, one checkpointed hourly window",
        "chain" => "non-blocking operators only, no checkpoints and no warehouse: the per-tuple hot path by itself",
        "chain_par" => "the chain job on two shard workers: the same layers through the pool, batching and merge",
        "edw_load" => "the storage write side: WAL, retention eviction every tick, compaction, 32 subscribers and 2 views",
        "edw_query" => "reads beside writes on one durable warehouse, working set inside and beyond the block cache",
        _ => "",
    }
}

/// Virtual clock origin of every workload (the paper's demo morning).
pub fn start() -> Timestamp {
    Timestamp::from_civil(2016, 7, 1, 8, 0, 0)
}

/// Frozen input sizes. `scale` divides every horizon (`--smoke` uses 50).
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Virtual time each timed repetition drains.
    pub horizon: Duration,
    /// Virtual time `edw_query` pre-loads during set-up.
    pub preload: Duration,
    /// Query rounds per `edw_query` repetition.
    pub rounds: u64,
}

/// Query rounds of one `edw_query` repetition: 64 x 16 = 1 024 queries, the
/// fewest that leave ten samples beyond p99.
pub const ROUNDS: u64 = 64;
/// Every this many rounds `edw_query` spills the hot tail past the hot
/// window again (four times per repetition).
pub const EVICT_EVERY: u64 = 16;
/// Virtual seconds between `edw_query` rounds.
pub const ROUND_STEP_S: u64 = 30;
/// Queries per `edw_query` round.
pub const QUERIES_PER_ROUND: usize = 16;
/// `edw_load` retention window and `edw_query` hot window.
pub const RETENTION: Duration = Duration::from_mins(30);
pub const HOT_WINDOW: Duration = Duration::from_hours(1);
/// Standing subscriptions registered by the `edw_*` workloads.
pub const SUBSCRIBERS: usize = 32;
pub const SUBSCRIBER_QUEUE: usize = 4096;

pub fn sizes(name: &str, scale: u64) -> Sizes {
    let secs = |full: u64| Duration::from_secs((full / scale).max(60));
    match name {
        "osaka" => Sizes {
            horizon: secs(12 * 3600),
            preload: Duration::ZERO,
            rounds: 0,
        },
        "chain" | "chain_par" => Sizes {
            horizon: secs(3600),
            preload: Duration::ZERO,
            rounds: 0,
        },
        "edw_load" => Sizes {
            horizon: secs(60 * 60),
            preload: Duration::ZERO,
            rounds: 0,
        },
        _ => {
            let rounds = (ROUNDS / scale).max(4);
            Sizes {
                horizon: Duration::from_secs(rounds * ROUND_STEP_S),
                preload: secs(4 * 3600),
                rounds,
            }
        }
    }
}

fn schema(fields: &[(&str, AttrType)]) -> SchemaRef {
    Schema::new(fields.iter().map(|(n, t)| Field::new(n, *t)).collect())
        .expect("static schema")
        .into_ref()
}

fn theme(t: &str) -> Theme {
    Theme::new(t).expect("static theme")
}

fn temperature_source() -> (SubscriptionFilter, SchemaRef) {
    (
        SubscriptionFilter::any()
            .with_theme(theme("weather/temperature"))
            .with_area(osaka_area())
            .require_unit("temperature", Unit::Celsius),
        schema(&[("temperature", AttrType::Float), ("station", AttrType::Str)]),
    )
}

fn rain_source() -> (SubscriptionFilter, SchemaRef) {
    (
        SubscriptionFilter::any().with_theme(theme("weather/rain")),
        schema(&[
            ("rain", AttrType::Float),
            ("torrential", AttrType::Bool),
            ("station", AttrType::Str),
        ]),
    )
}

fn tweet_source() -> (SubscriptionFilter, SchemaRef) {
    (
        SubscriptionFilter::any().with_theme(theme("social/tweet")),
        schema(&[("text", AttrType::Str), ("storm_related", AttrType::Bool)]),
    )
}

fn traffic_source() -> (SubscriptionFilter, SchemaRef) {
    (
        SubscriptionFilter::any().with_theme(theme("traffic")),
        schema(&[("congestion", AttrType::Float), ("road", AttrType::Str)]),
    )
}

/// The Figure-2 dataflow exactly as `exp_fig2_scenario` builds it, with the
/// paper's 25 °C threshold.
pub fn osaka_flow() -> Dataflow {
    let (temp_f, temp_s) = temperature_source();
    let (rain_f, rain_s) = rain_source();
    let (tweet_f, tweet_s) = tweet_source();
    let (traffic_f, traffic_s) = traffic_source();
    let gated = ["rain", "tweets", "traffic"];
    DataflowBuilder::new("osaka")
        .source("temperature", temp_f, temp_s)
        .gated_source("rain", rain_f, rain_s)
        .gated_source("tweets", tweet_f, tweet_s)
        .gated_source("traffic", traffic_f, traffic_s)
        .aggregate(
            "hourly_avg",
            "temperature",
            Duration::from_hours(1),
            &[],
            AggFunc::Avg,
            Some("temperature"),
        )
        .trigger_on(
            "hot_hour",
            "hourly_avg",
            Duration::from_hours(1),
            "avg_temperature > 25",
            &gated,
        )
        .trigger_off(
            "cool_hour",
            "hourly_avg",
            Duration::from_hours(1),
            "avg_temperature <= 25",
            &gated,
        )
        .filter("torrential", "rain", "torrential = true")
        .filter("storm_tweets", "tweets", "storm_related = true")
        .filter("congested", "traffic", "congestion > 0.6")
        .sink(
            "edw",
            SinkKind::Warehouse,
            &["torrential", "storm_tweets", "congested"],
        )
        .build()
        .expect("osaka dataflow is valid")
}

/// E9's flow without its blocking aggregate: four shardable non-blocking
/// operators into a console sink.
pub fn chain_flow() -> Dataflow {
    DataflowBuilder::new("chain")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(theme("weather/temperature")),
            schema(&[("temperature", AttrType::Float), ("station", AttrType::Str)]),
        )
        .transform("to_f", "temp", &[("temperature", "temperature * 1.8 + 32")])
        .transform(
            "norm",
            "to_f",
            &[("temperature", "(temperature - 32) / 1.8 * 1.8 + 32")],
        )
        .virtual_property("flag", "norm", "hot", "temperature > 80")
        .filter("keep", "flag", "temperature > -100")
        .sink("out", SinkKind::Console, &["keep"])
        .build()
        .expect("chain dataflow is valid")
}

/// All four Osaka source kinds un-gated into the warehouse: a one-minute
/// temperature average, rain as it comes, and the two Figure-2 filters.
pub fn edw_flow() -> Dataflow {
    let (temp_f, temp_s) = temperature_source();
    let (rain_f, rain_s) = rain_source();
    let (tweet_f, tweet_s) = tweet_source();
    let (traffic_f, traffic_s) = traffic_source();
    DataflowBuilder::new("edw")
        .source("temperature", temp_f, temp_s)
        .source("rain", rain_f, rain_s)
        .source("tweets", tweet_f, tweet_s)
        .source("traffic", traffic_f, traffic_s)
        .aggregate(
            "minute_avg",
            "temperature",
            Duration::from_mins(1),
            &[],
            AggFunc::Avg,
            Some("temperature"),
        )
        .filter("wet", "rain", "rain >= 0")
        .filter("moving", "traffic", "congestion > 0.2")
        .sink(
            "edw",
            SinkKind::Warehouse,
            &["minute_avg", "wet", "tweets", "moving"],
        )
        .build()
        .expect("edw dataflow is valid")
}

/// The dataflow a workload deploys.
pub fn flow(name: &str) -> Dataflow {
    match name {
        "osaka" => osaka_flow(),
        "chain" | "chain_par" => chain_flow(),
        _ => edw_flow(),
    }
}

/// The sensors and topology a workload runs on, rebuilt from the seed. The
/// traced replay calls this again to regenerate the identical sensor trace.
pub fn fleet(name: &str, seed: u64) -> (Vec<Box<dyn SensorSim>>, Topology) {
    match name {
        "chain" | "chain_par" => {
            let mut topology = Topology::new();
            let edge = topology.add_node(NodeSpec::edge("edge", 50.0));
            let hub = topology.add_node(NodeSpec::edge("hub", 1_000_000.0));
            topology
                .add_link(edge, hub, Duration::from_millis(1), 10_000_000)
                .expect("two fresh nodes");
            let sensors = (0..64u64)
                .map(|i| {
                    Box::new(TemperatureSensor::new(
                        SensorId(i),
                        &format!("t{i}"),
                        GeoPoint::new_unchecked(34.0 + i as f64 * 0.11, 135.0 + i as f64 * 0.07),
                        edge,
                        Duration::from_secs(1),
                        false,
                        false,
                        seed.wrapping_add(i),
                    )) as Box<dyn SensorSim>
                })
                .collect();
            (sensors, topology)
        }
        _ => {
            let fleet = osaka_fleet(&ScenarioConfig {
                seed,
                ..ScenarioConfig::default()
            });
            (fleet.sensors, fleet.topology)
        }
    }
}

/// Engine configuration of a workload.
pub fn engine_config(name: &str, seed: u64) -> EngineConfig {
    let base = EngineConfig {
        seed,
        ..EngineConfig::default()
    };
    match name {
        "chain" => EngineConfig {
            migration_enabled: false,
            parallelism: 1,
            shard_key: ShardKey::Space,
            ..base
        },
        "chain_par" => EngineConfig {
            migration_enabled: false,
            parallelism: 2,
            shard_key: ShardKey::Space,
            ..base
        },
        "edw_load" => EngineConfig {
            retention: Some(RETENTION),
            ..base
        },
        _ => base,
    }
}

/// Threads the workload's engine uses (the benchmark adds none of its own).
pub fn threads(name: &str) -> usize {
    if name == "chain_par" {
        2
    } else {
        1
    }
}

/// True for the workloads on the durable warehouse tier.
pub fn is_durable(name: &str) -> bool {
    name.starts_with("edw_")
}

/// Durable-tier configuration of the `edw_*` workloads.
pub fn durable_config(dir: &Path) -> DurableConfig {
    DurableConfig::at(dir)
        .with_fsync(FsyncPolicy::EveryN(64))
        .with_segment_max_bytes(256 * 1024)
        .with_compaction(CompactionPolicy::enabled())
}

/// The four distinct standing queries the 32 subscribers share.
pub fn standing_queries() -> [EventQuery; 4] {
    [
        EventQuery::all().with_theme(theme("weather")),
        EventQuery::all().with_theme(theme("social/tweet")),
        EventQuery::all().with_theme(theme("traffic")),
        EventQuery::all().in_area(osaka_area()),
    ]
}

/// The two materialized views.
pub fn view_queries() -> [CubeQuery; 2] {
    [
        CubeQuery {
            select: EventQuery::all(),
            tgran: TemporalGranularity::Hour,
            sgran: SpatialGranularity::grid(2),
            theme_depth: 1,
        },
        CubeQuery {
            select: EventQuery::all().with_theme(theme("weather")),
            tgran: TemporalGranularity::Minute,
            sgran: SpatialGranularity::World,
            theme_depth: 2,
        },
    ]
}

/// Width of a cold-wide query's time window.
pub const COLD_WIDE: Duration = Duration::from_mins(90);
/// Themes the hot-window queries of `edw_query` cycle through.
pub const QUERY_THEMES: [&str; 4] = [
    "weather/temperature",
    "weather/rain",
    "social/tweet",
    "traffic",
];

/// Hot-window query `i` of a round: the last ten minutes of one theme.
pub fn hot_query(now: Timestamp, i: usize) -> EventQuery {
    let window = TimeInterval::new(now.saturating_sub(Duration::from_mins(10)), now);
    EventQuery::all()
        .in_time(window)
        .with_theme(theme(QUERY_THEMES[i % QUERY_THEMES.len()]))
}

/// The four fixed ten-minute windows spread over a cold span of `cold_ms`
/// from the origin: always the same blocks, so they become cache-resident.
pub fn cold_narrow_queries(cold_ms: u64) -> Vec<EventQuery> {
    (1..=4u64)
        .map(|k| {
            let from = start() + Duration::from_millis(cold_ms * k / 6);
            EventQuery::all().in_time(TimeInterval::new(from, from + Duration::from_mins(10)))
        })
        .collect()
}

/// A random 90-minute window starting inside the first `cold_ms` after the
/// origin, over a random quarter of the Osaka box (which spans 0.45° x 0.5°):
/// more blocks than the 64-block cache holds.
pub fn cold_wide_query(rng: &mut SplitMix, cold_ms: u64) -> EventQuery {
    let from = start() + Duration::from_millis(rng.below(cold_ms.max(1)));
    let sw = osaka_area().min;
    let (lat, lon) = (sw.lat + rng.unit() * 0.225, sw.lon + rng.unit() * 0.25);
    EventQuery::all()
        .in_time(TimeInterval::new(from, from + COLD_WIDE))
        .in_area(BoundingBox::from_corners(
            GeoPoint::new_unchecked(lat, lon),
            GeoPoint::new_unchecked(lat + 0.225, lon + 0.25),
        ))
}

/// A deployed, ready-to-run workload instance.
pub struct Built {
    pub session: StreamLoader,
    /// Name of the deployed dataflow.
    pub deployment: String,
    pub subscribers: Vec<SubscriberId>,
    pub views: Vec<ViewId>,
    /// Unbounded match-all subscription of the verification repetition: the
    /// harness's own record of everything the warehouse stored.
    pub audit: Option<SubscriberId>,
    /// Every event the audit subscription has delivered, in storage order.
    pub audited: Vec<Event>,
    /// Durable directory (removed by [`Built::teardown`]).
    pub dir: Option<PathBuf>,
    /// Wall time of `deploy` alone, for the `engine.deploy_us` layer metric.
    pub deploy_us: f64,
}

impl Built {
    /// Drop the session and delete its durable directory.
    pub fn teardown(self) {
        let dir = self.dir.clone();
        drop(self);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// A session on the workload's topology with its fleet plugged in and
/// nothing deployed; on the durable tier when given a directory.
pub fn open_session(name: &str, seed: u64, durable: Option<&Path>) -> Result<StreamLoader, String> {
    let (sensors, topology) = fleet(name, seed);
    let config = engine_config(name, seed);
    let mut session = match durable {
        Some(d) => {
            std::fs::create_dir_all(d).map_err(|e| format!("create {}: {e}", d.display()))?;
            StreamLoader::open_durable(topology, config, start(), durable_config(d))
        }
        None => StreamLoader::new(topology, config, start()),
    }
    .map_err(|e| format!("open session: {e}"))?;
    for sensor in sensors {
        session
            .add_sensor(sensor)
            .map_err(|e| format!("add sensor: {e}"))?;
    }
    Ok(session)
}

/// Set a workload up from fresh state: fleet and topology, session (and
/// durable directory), pre-flight lint, deploy, subscribers and views, and
/// for `edw_query` the pre-load, spill and compaction. This whole function is
/// what `setup_s` times.
pub fn build(
    name: &str,
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
    audit: bool,
) -> Result<Built, String> {
    let durable_dir = is_durable(name).then(|| dir.to_path_buf());
    let mut session = open_session(name, seed, durable_dir.as_deref())?;
    let dataflow = flow(name);
    let deployment = dataflow.name.clone();
    let report = session.lint_deployment(&dataflow, None);
    if report.error_count() > 0 {
        return Err(format!("{name}: lint_deployment reports errors"));
    }
    let t0 = std::time::Instant::now();
    session
        .deploy(dataflow)
        .map_err(|e| format!("deploy: {e}"))?;
    let deploy_us = t0.elapsed().as_secs_f64() * 1e6;

    let mut subscribers = Vec::new();
    let mut views = Vec::new();
    if is_durable(name) {
        let queries = standing_queries();
        for i in 0..SUBSCRIBERS {
            subscribers.push(session.subscribe(
                &format!("client{i}"),
                queries[i % queries.len()].clone(),
                Some(SUBSCRIBER_QUEUE),
                OverflowPolicy::Block,
            ));
        }
        for (i, q) in view_queries().into_iter().enumerate() {
            views.push(session.view(&format!("view{i}"), q));
        }
    }
    let audit =
        audit.then(|| session.subscribe("audit", EventQuery::all(), None, OverflowPolicy::Block));
    let mut built = Built {
        session,
        deployment,
        subscribers,
        views,
        audit,
        audited: Vec::new(),
        dir: durable_dir,
        deploy_us,
    };
    if name == "edw_query" {
        // Pre-load with the subscribers polled every virtual minute, then
        // spill everything older than the hot window and merge the cold tier
        // so the timed rounds start from a compacted log.
        let minutes = sizes.preload.as_millis() / 60_000;
        for _ in 0..minutes {
            built.session.run_for(Duration::from_mins(1));
            built.poll_all()?;
            built.poll_audit()?;
        }
        let now = built.session.engine().now();
        built
            .session
            .evict_warehouse_before(now.saturating_sub(HOT_WINDOW))
            .map_err(|e| format!("evict: {e}"))?;
        built
            .session
            .compact_warehouse()
            .map_err(|e| format!("compact: {e}"))?;
    }
    Ok(built)
}

impl Built {
    /// Drain every subscriber's queue; returns the deltas received. A lagged
    /// subscriber means deltas were lost, which the workloads never expect.
    pub fn poll_all(&mut self) -> Result<u64, String> {
        let mut deltas = 0u64;
        for id in &self.subscribers {
            let poll = self
                .session
                .poll_deltas(*id)
                .map_err(|e| format!("poll: {e}"))?;
            if poll.lagged {
                return Err(format!("subscriber {} lagged", id.0));
            }
            deltas += poll.deltas.len() as u64;
        }
        Ok(deltas)
    }

    /// Move what the audit subscription saw since the last call into
    /// `audited` (a no-op without one).
    pub fn poll_audit(&mut self) -> Result<(), String> {
        if let Some(id) = self.audit {
            let poll = self
                .session
                .poll_deltas(id)
                .map_err(|e| format!("poll audit: {e}"))?;
            self.audited.extend(poll.deltas);
        }
        Ok(())
    }
}
