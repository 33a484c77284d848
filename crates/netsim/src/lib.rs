//! # sl-netsim — the programmable-network substrate
//!
//! The paper executes ETL dataflows "at network level" on NICT's
//! programmable network: "each node of the network is in charge of managing
//! a bunch of sensors and can execute the proposed ETL stream processing
//! operations" (paper §3, Figure 1). We do not have that hardware; this
//! crate substitutes a **deterministic discrete-event network simulator**
//! exposing the same abstract model the rest of StreamLoader programs
//! against:
//!
//! * [`EventQueue`] — the discrete-event core with virtual time,
//! * [`Topology`] — nodes (CPU capacity, attached-sensor slots) and
//!   links (latency, bandwidth),
//! * [`RoutingTable`] / [`FlowTable`] — Dijkstra shortest paths and
//!   per-flow path installation with bandwidth reservation (the SCN "data
//!   flows, segmentations, and QoS parameters"),
//! * [`LoadTracker`] — per-node CPU accounting driving operator
//!   placement and migration decisions,
//! * [`NetStats`] / [`TimeSeries`] — per-link counters and time series
//!   feeding the monitoring UI (Figure 3).
//!
//! Determinism: all randomness is seeded, all ties in the event queue break
//! by insertion order, so every experiment replays identically.
//!
//! **Failure injection**: links ([`Topology::set_link_up`]) and whole nodes
//! ([`Topology::set_node_up`]) can be failed and restored at run time; down
//! elements are invisible to routing. The `sl-faults` crate schedules
//! such failures declaratively and the engine layers retry/dead-letter
//! delivery and crash recovery on top — see the "Fault model & recovery"
//! section of the repository's `DESIGN.md` for the full model and its
//! determinism guarantee.

mod node;
mod qos;
mod routing;
mod sim;
mod stats;
mod topology;

pub use node::{LoadTracker, ProcessId};
pub use qos::QosSpec;
pub use routing::{FlowId, FlowTable, Route, RoutingTable};
pub use sim::EventQueue;
pub use stats::{NetStats, TimeSeries};
pub use topology::{LinkId, LinkSpec, NodeId, NodeSpec, Topology};

use sl_stt::Duration;
use std::fmt;

/// Errors raised by the network layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// A node id was not present in the topology.
    UnknownNode(NodeId),
    /// A link id was not present in the topology.
    UnknownLink(LinkId),
    /// No path exists between the two nodes.
    NoRoute {
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
    /// A QoS requirement could not be satisfied.
    QosUnsatisfiable {
        /// Human-readable reason (latency bound, bandwidth, ...).
        reason: String,
    },
    /// A flow id was not installed.
    UnknownFlow(FlowId),
    /// A node has no spare CPU capacity for a process.
    NodeSaturated(NodeId),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(n) => write!(f, "unknown node {n}"),
            NetError::UnknownLink(l) => write!(f, "unknown link {l}"),
            NetError::NoRoute { from, to } => write!(f, "no route from {from} to {to}"),
            NetError::QosUnsatisfiable { reason } => write!(f, "QoS unsatisfiable: {reason}"),
            NetError::UnknownFlow(id) => write!(f, "unknown flow {id}"),
            NetError::NodeSaturated(n) => write!(f, "node {n} has no spare capacity"),
        }
    }
}

impl std::error::Error for NetError {}

/// Transmission delay of `bytes` over a link with the given latency and
/// bandwidth: propagation + serialisation.
pub fn link_delay(latency: Duration, bandwidth_bps: u64, bytes: usize) -> Duration {
    let ser_ms = if bandwidth_bps == 0 {
        0
    } else {
        // bits / (bits per second) in milliseconds, rounded up.
        (bytes as u64 * 8 * 1000).div_ceil(bandwidth_bps)
    };
    Duration::from_millis(latency.as_millis() + ser_ms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_delay_components() {
        // 1 Mbps, 1000 bytes = 8000 bits -> 8 ms serialisation.
        let d = link_delay(Duration::from_millis(5), 1_000_000, 1000);
        assert_eq!(d, Duration::from_millis(13));
        // Zero bandwidth means "infinite" (no serialisation cost modelled).
        assert_eq!(
            link_delay(Duration::from_millis(5), 0, 1000),
            Duration::from_millis(5)
        );
        // Rounds up.
        assert_eq!(
            link_delay(Duration::ZERO, 1_000_000, 1),
            Duration::from_millis(1)
        );
    }
}
