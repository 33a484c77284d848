//! Engine configuration: placement policy, monitoring cadence and
//! overload-control knobs — and, as constants, the values no caller varies.

use crate::shard::ShardKey;
pub use sl_faults::OverflowPolicy;
use sl_ops::PriorityClass;
use sl_stt::{Duration, SpatialGranularity, TemporalGranularity};
use std::fmt;

/// Where operator processes are initially placed (ablation A2 compares
/// these; `tests/paper_artifacts.rs` asserts the trade-off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// On the node of the process's first upstream producer (minimal first
    /// hop; concentrates load at the edge).
    SourceLocal,
    /// On the node with the lowest CPU utilisation that fits the estimated
    /// demand (the default greedy load-aware policy).
    LeastLoaded,
}

/// Utilisation above which a node sheds processes.
pub const MIGRATION_THRESHOLD: f64 = 0.9;
/// Per-tuple processing latency added at each operator hop; also the width
/// of a parallel execution batch (`DESIGN.md` §5f).
pub const PROCESSING_DELAY: Duration = Duration::from_millis(1);
/// Estimated demand (ops/sec) assumed for a fresh process before real rates
/// are observed.
pub const INITIAL_DEMAND: f64 = 50.0;
/// Temporal granularity used when loading tuples into the warehouse.
pub const WAREHOUSE_TGRAN: TemporalGranularity = TemporalGranularity::Minute;
/// Spatial granularity used when loading tuples into the warehouse.
pub const WAREHOUSE_SGRAN: SpatialGranularity = SpatialGranularity::Grid { level: 8 };
/// Cap on retained console-sink lines.
pub const CONSOLE_CAPACITY: usize = 1000;
/// Silence tolerated before the liveness watchdog presumes a sensor dead, in
/// multiples of its advertised generation period.
pub const LIVENESS_GRACE: u32 = 3;
/// Fraction of `queue_capacity` a queue's per-window high-watermark must
/// reach for its operator to count as backlogged and be re-placed.
pub const BACKLOG_THRESHOLD: f64 = 0.75;

/// Engine knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Initial placement policy.
    pub placement: PlacementPolicy,
    /// Enable runtime migration at all (CPU- and backlog-driven).
    pub migration_enabled: bool,
    /// Monitor sampling period (the Figure 3 refresh).
    pub monitor_period: Duration,
    /// RNG seed (the `OverflowPolicy::Sample` coin and nothing else —
    /// sensors own their seeds).
    pub seed: u64,
    /// Re-delivery attempts after a routing failure, spaced by
    /// [`sl_faults::backoff`]. `0` sends failed deliveries straight to the
    /// dead-letter queue as `NoRoute`.
    pub retry_attempts: u32,
    /// Dead-letter queue capacity per engine (oldest entries evicted;
    /// drop *counters* are never evicted).
    pub dlq_capacity: usize,
    /// Worker threads in the sharded execution pool. `1` (the default)
    /// runs the classic single-threaded event loop; `n > 1` batches
    /// same-instant deliveries to non-blocking operators across `n`
    /// workers with identical outputs (see `DESIGN.md` §5f).
    pub parallelism: usize,
    /// How batched tuples are partitioned across shard workers.
    pub shard_key: ShardKey,
    /// Overload control: bounded ingress queues, shedding, credits,
    /// breakers, backlog-driven migration. Default-off (unbounded queues),
    /// preserving historical byte-identical behaviour.
    pub overload: OverloadConfig,
    /// Warehouse retention window: at each monitor sample, events older
    /// than `now - retention` are evicted from the hot indexes (discarded
    /// by the in-memory backend, spilled to cold segments by the durable
    /// one) and materialized views retract their contributions. `None`
    /// (the default) keeps everything hot — the historical behaviour.
    pub retention: Option<Duration>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            placement: PlacementPolicy::LeastLoaded,
            migration_enabled: true,
            monitor_period: Duration::from_secs(1),
            seed: 7,
            retry_attempts: 6,
            dlq_capacity: 256,
            parallelism: 1,
            shard_key: ShardKey::Space,
            overload: OverloadConfig::default(),
            retention: None,
        }
    }
}

/// Overload-control knobs (see `DESIGN.md` §5g).
#[derive(Debug, Clone)]
pub struct OverloadConfig {
    /// Per-operator ingress bound (in-flight scheduled deliveries).
    /// `None` (the default) keeps queues unbounded — the historical
    /// behaviour — and disables the whole admission layer.
    pub queue_capacity: Option<usize>,
    /// What to do when a bounded queue is full.
    pub policy: OverflowPolicy,
    /// Optional cap on total in-flight deliveries across all operators;
    /// reaching it triggers priority preemption (lowest class sheds first).
    pub global_capacity: Option<usize>,
    /// QoS class per deployment name; deployments not listed are
    /// [`PriorityClass::Normal`].
    pub priorities: Vec<(String, PriorityClass)>,
    /// Enable circuit breakers on delivery paths. Off by default: breakers
    /// change retry behaviour (fail-fast instead of scheduled re-attempts).
    pub breaker_enabled: bool,
    /// Consecutive failures that open a path's breaker.
    pub breaker_threshold: u32,
    /// Open-state dwell before a half-open probe delivery.
    pub breaker_cooldown: Duration,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            queue_capacity: None,
            policy: OverflowPolicy::Block,
            global_capacity: None,
            priorities: Vec::new(),
            breaker_enabled: false,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_secs(5),
        }
    }
}

impl OverloadConfig {
    /// True if any part of the admission layer is active.
    pub fn admission_enabled(&self) -> bool {
        self.queue_capacity.is_some() || self.global_capacity.is_some()
    }

    /// True when bounded queues run the zero-loss credit policy: sensors
    /// feeding a full queue are throttled instead of shedding.
    pub fn block_mode(&self) -> bool {
        self.queue_capacity.is_some() && self.policy == OverflowPolicy::Block
    }

    /// True when bounded queues shed on overflow (any non-Block policy).
    pub fn shed_mode(&self) -> bool {
        self.queue_capacity.is_some() && self.policy != OverflowPolicy::Block
    }
}

/// A rejected [`EngineConfig`], caught at `StreamLoader` build time instead
/// of panicking mid-run.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// `overload.queue_capacity` was `Some(0)` (a queue that admits nothing).
    ZeroQueueCapacity,
    /// `overload.global_capacity` was `Some(0)`.
    ZeroGlobalCapacity,
    /// `Sample(p)` probability outside `(0, 1]`.
    SampleProbability(f64),
    /// The same deployment was assigned two priority classes.
    PriorityCollision(String),
    /// `overload.breaker_threshold` was 0 with breakers enabled.
    ZeroBreakerThreshold,
    /// `retention` was `Some(0)` (a window that evicts everything, every
    /// sample). Use `None` to disable retention instead.
    ZeroRetention,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroQueueCapacity => {
                write!(f, "overload.queue_capacity must be at least 1")
            }
            ConfigError::ZeroGlobalCapacity => {
                write!(f, "overload.global_capacity must be at least 1")
            }
            ConfigError::SampleProbability(p) => {
                write!(f, "Sample probability {p} outside (0, 1]")
            }
            ConfigError::PriorityCollision(d) => {
                write!(f, "deployment `{d}` assigned more than one priority class")
            }
            ConfigError::ZeroBreakerThreshold => {
                write!(f, "overload.breaker_threshold must be at least 1")
            }
            ConfigError::ZeroRetention => {
                write!(
                    f,
                    "retention must be a positive window (use None to keep everything)"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl EngineConfig {
    /// Validate the configuration; called by `StreamLoader` at build time
    /// so bad knobs surface as a typed error, not a runtime panic.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let o = &self.overload;
        if o.queue_capacity == Some(0) {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if o.global_capacity == Some(0) {
            return Err(ConfigError::ZeroGlobalCapacity);
        }
        if let OverflowPolicy::Sample(p) = o.policy {
            if !(p > 0.0 && p <= 1.0) {
                return Err(ConfigError::SampleProbability(p));
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for (dep, _) in &o.priorities {
            if !seen.insert(dep.as_str()) {
                return Err(ConfigError::PriorityCollision(dep.clone()));
            }
        }
        if o.breaker_enabled && o.breaker_threshold == 0 {
            return Err(ConfigError::ZeroBreakerThreshold);
        }
        if self.retention.is_some_and(|r| r.is_zero()) {
            return Err(ConfigError::ZeroRetention);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = EngineConfig::default();
        assert_eq!(c.placement, PlacementPolicy::LeastLoaded);
        assert!(c.migration_enabled);
        assert!(!c.monitor_period.is_zero());
        assert!(c.retry_attempts > 0);
        assert!(c.dlq_capacity > 0);
        assert_eq!(c.parallelism, 1);
        // Unbounded queues: neither bounded mode.
        assert!(!c.overload.block_mode() && !c.overload.shed_mode());
        assert_eq!(c.shard_key, ShardKey::Space);
        // Overload control defaults off: unbounded queues, no breakers, so
        // seed behaviour is byte-identical.
        assert_eq!(c.overload.queue_capacity, None);
        assert_eq!(c.overload.global_capacity, None);
        assert!(!c.overload.admission_enabled());
        assert!(!c.overload.breaker_enabled);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let mut c = EngineConfig::default();
        c.overload.queue_capacity = Some(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroQueueCapacity));

        let mut c = EngineConfig::default();
        c.overload.global_capacity = Some(0);
        assert_eq!(c.validate(), Err(ConfigError::ZeroGlobalCapacity));

        let mut c = EngineConfig::default();
        c.overload.policy = OverflowPolicy::Sample(0.0);
        assert_eq!(c.validate(), Err(ConfigError::SampleProbability(0.0)));
        c.overload.policy = OverflowPolicy::Sample(1.5);
        assert_eq!(c.validate(), Err(ConfigError::SampleProbability(1.5)));
        c.overload.policy = OverflowPolicy::Sample(1.0);
        assert!(c.validate().is_ok());

        let mut c = EngineConfig::default();
        c.overload.priorities = vec![
            ("alerts".into(), PriorityClass::High),
            ("alerts".into(), PriorityClass::Low),
        ];
        assert_eq!(
            c.validate(),
            Err(ConfigError::PriorityCollision("alerts".into()))
        );

        let mut c = EngineConfig::default();
        c.overload.breaker_enabled = true;
        c.overload.breaker_threshold = 0;
        assert_eq!(c.validate(), Err(ConfigError::ZeroBreakerThreshold));
        // Disabled breakers tolerate a zero threshold (it is unused).
        c.overload.breaker_enabled = false;
        assert!(c.validate().is_ok());
    }
}
