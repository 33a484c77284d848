//! # sl-engine — the StreamLoader executor and monitor
//!
//! The runtime half of Figure 1: "Processes are generated for each operation
//! of the dataflow and executed on a network. The executor module
//! coordinates their execution. For the execution, the sources are bound to
//! specific sensors handled by the network nodes, and operations located on
//! the machines that, depending on workload, apply the logic specified in
//! the conceptual dataflow. Logs of the activities are then collected by the
//! monitor module" (paper §3).
//!
//! The [`Engine`] owns:
//!
//! * the simulated **network** (`sl-netsim` topology + flow table + load
//!   tracker) and the **virtual clock** (a discrete-event queue),
//! * the **pub/sub broker** through which sensors join/leave and dataflow
//!   sources discover them,
//! * the **sensor fleet** (any [`SensorSim`]), sampled on their advertised
//!   periods; payloads travel in their wire formats and are decoded +
//!   spatio-temporally enriched on arrival,
//! * zero or more **deployments** — validated dataflows translated to
//!   DSN/SCN and actuated: operator processes placed on nodes, flows
//!   installed with QoS, blocking operators ticked every `t`,
//! * the **reactive layer**: Trigger operators' control actions activate and
//!   deactivate source acquisition at run time,
//! * the **monitor** ([`monitor::Monitor`]): per-operator tuples/sec, node
//!   workload, placement changes, the dead-letter queue, and the migration
//!   engine that moves processes off overloaded nodes,
//! * the **recovery layer** (`sl-faults`): scheduled [`FaultPlan`]s, retried
//!   delivery with a dead-letter queue, the sensor liveness watchdog, and
//!   checkpoint/restore of blocking-operator state across node crashes
//!   (see `DESIGN.md` §"Fault model & recovery"),
//! * the **sharded execution layer** (sl-par, [`shard`]): with
//!   `parallelism > 1`, deliveries to non-blocking shardable operators are
//!   drained in epoch-window batches, partitioned by a configurable
//!   [`ShardKey`] across a work-stealing `std::thread` pool, and merged
//!   back in drained order — outputs are byte-identical to the sequential
//!   loop (see `DESIGN.md` §"Parallel execution").
//!
//! [`FaultPlan`]: sl_faults::FaultPlan
//!
//! Everything advances only through [`Engine::run_until`] /
//! [`Engine::run_for`]; runs are deterministic per seed.
//!
//! [`SensorSim`]: sl_sensors::SensorSim
//!
//! ## Example
//!
//! ```
//! use sl_engine::{Engine, EngineConfig};
//! use sl_netsim::{NodeSpec, Topology};
//! use sl_stt::{Duration, Timestamp};
//!
//! let mut topo = Topology::new();
//! topo.add_node(NodeSpec::edge("edge", 50.0));
//! let start = Timestamp::from_civil(2016, 7, 1, 8, 0, 0);
//! let mut engine = Engine::new(topo, EngineConfig::default(), start);
//! engine.set_parallelism(4); // sharded execution; outputs stay identical
//! engine.run_for(Duration::from_secs(10));
//! assert_eq!(engine.now(), start + Duration::from_secs(10));
//! ```
#![warn(missing_docs)]

pub mod config;
mod control;
mod delivery;
pub mod deployment;
pub mod engine;
pub mod error;
mod instruments;
pub mod monitor;
pub mod overload;
pub mod shard;
mod sources;
mod storage;

pub use config::{
    ConfigError, EngineConfig, OverflowPolicy, OverloadConfig, PlacementPolicy, BACKLOG_THRESHOLD,
    CONSOLE_CAPACITY, INITIAL_DEMAND, LIVENESS_GRACE, MIGRATION_THRESHOLD, PROCESSING_DELAY,
    WAREHOUSE_SGRAN, WAREHOUSE_TGRAN,
};
pub use deployment::{DeploymentView, ServiceView};
pub use engine::{DeadTuple, Engine};
pub use error::EngineError;
pub use monitor::{CqStat, Log, Monitor, OpCounters, PlacementChange, ShardStat};
pub use overload::IngressState;
pub use shard::{ShardKey, ShardPool};
pub use sl_cq::{CqPoll, SubscriberId, ViewId};
