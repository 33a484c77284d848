//! Per-node CPU load accounting.
//!
//! The monitor must report "the node that suffers because of high workload"
//! and the engine migrates operators off overloaded nodes (paper §3). The
//! [`LoadTracker`] is the shared bookkeeping: each placed operator process
//! declares a CPU demand (ops/sec); utilisation is demand over capacity.

use crate::topology::{NodeId, Topology};
use crate::NetError;
use std::collections::HashMap;
use std::fmt;

/// Identifier of a placed operator process (assigned by the engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub u64);

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc#{}", self.0)
    }
}

/// Tracks which processes run where and how much CPU they demand.
#[derive(Debug, Default)]
pub struct LoadTracker {
    /// process -> (node, demand ops/sec).
    placements: HashMap<ProcessId, (NodeId, f64)>,
    /// node -> total demand.
    demand: HashMap<NodeId, f64>,
    /// Bumped by every change to a placement or a demand.
    version: u64,
}

impl LoadTracker {
    /// Empty tracker.
    pub fn new() -> LoadTracker {
        LoadTracker::default()
    }

    /// Place `proc` on `node` with the given CPU demand. If `strict`, the
    /// placement is rejected when it would push utilisation above 1.0.
    pub fn place(
        &mut self,
        topo: &Topology,
        proc: ProcessId,
        node: NodeId,
        demand: f64,
        strict: bool,
    ) -> Result<(), NetError> {
        let cap = topo.node(node)?.cpu_capacity;
        let current = self.demand_on(node);
        if strict && current + demand > cap {
            return Err(NetError::NodeSaturated(node));
        }
        // Re-placing an existing process moves it.
        self.remove(proc);
        self.placements.insert(proc, (node, demand));
        *self.demand.entry(node).or_insert(0.0) += demand;
        self.version += 1;
        Ok(())
    }

    /// Remove a process; no-op if it was never placed.
    pub fn remove(&mut self, proc: ProcessId) {
        if let Some((node, d)) = self.placements.remove(&proc) {
            self.version += 1;
            if let Some(total) = self.demand.get_mut(&node) {
                *total = (*total - d).max(0.0);
                if *total == 0.0 {
                    self.demand.remove(&node);
                }
            }
        }
    }

    /// Update the demand of an already-placed process (operators' demand
    /// follows their observed tuple rate). Setting the demand it already has
    /// changes nothing.
    pub fn set_demand(&mut self, proc: ProcessId, demand: f64) {
        if let Some((node, old)) = self.placements.get_mut(&proc) {
            if *old == demand {
                return;
            }
            self.version += 1;
            let node = *node;
            let delta = demand - *old;
            *old = demand;
            *self.demand.entry(node).or_insert(0.0) += delta;
            if let Some(total) = self.demand.get_mut(&node) {
                *total = total.max(0.0);
            }
        }
    }

    /// A counter that moves whenever a placement or a demand changes: two
    /// equal readings bracket a stretch in which every answer of this
    /// tracker stayed the same.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Node a process currently runs on.
    pub fn node_of(&self, proc: ProcessId) -> Option<NodeId> {
        self.placements.get(&proc).map(|(n, _)| *n)
    }

    /// Declared demand of a process.
    pub fn demand_of(&self, proc: ProcessId) -> Option<f64> {
        self.placements.get(&proc).map(|(_, d)| *d)
    }

    /// Total demand on a node.
    pub fn demand_on(&self, node: NodeId) -> f64 {
        self.demand.get(&node).copied().unwrap_or(0.0)
    }

    /// Utilisation of a node in `[0, ∞)` (can exceed 1.0 when oversubscribed).
    pub fn utilization(&self, topo: &Topology, node: NodeId) -> Result<f64, NetError> {
        let cap = topo.node(node)?.cpu_capacity;
        Ok(if cap <= 0.0 {
            f64::INFINITY
        } else {
            self.demand_on(node) / cap
        })
    }

    /// Processes on a node, in id order (deterministic for migration picks).
    pub fn processes_on(&self, node: NodeId) -> Vec<(ProcessId, f64)> {
        let mut v: Vec<_> = self
            .placements
            .iter()
            .filter(|(_, (n, _))| *n == node)
            .map(|(p, (_, d))| (*p, *d))
            .collect();
        v.sort_by_key(|(p, _)| *p);
        v
    }

    /// The node with the *least* utilisation among `candidates` that can fit
    /// `demand` (strictly). Ties break toward the lowest node id.
    pub fn least_loaded(
        &self,
        topo: &Topology,
        candidates: impl IntoIterator<Item = NodeId>,
        demand: f64,
    ) -> Option<NodeId> {
        let mut best: Option<(f64, NodeId)> = None;
        for n in candidates {
            let Ok(spec) = topo.node(n) else { continue };
            let used = self.demand_on(n);
            if used + demand > spec.cpu_capacity {
                continue;
            }
            let util = if spec.cpu_capacity > 0.0 {
                used / spec.cpu_capacity
            } else {
                f64::INFINITY
            };
            match best {
                Some((bu, bn)) if (util, n) >= (bu, bn) => {}
                _ => best = Some((util, n)),
            }
        }
        best.map(|(_, n)| n)
    }

    /// Total number of placed processes.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// True if nothing is placed.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeSpec;

    fn topo() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::edge("a", 100.0));
        let b = t.add_node(NodeSpec::edge("b", 200.0));
        (t, a, b)
    }

    #[test]
    fn place_and_utilization() {
        let (t, a, b) = topo();
        let mut lt = LoadTracker::new();
        lt.place(&t, ProcessId(1), a, 50.0, true).unwrap();
        lt.place(&t, ProcessId(2), a, 25.0, true).unwrap();
        assert_eq!(lt.demand_on(a), 75.0);
        assert_eq!(lt.utilization(&t, a).unwrap(), 0.75);
        assert_eq!(lt.utilization(&t, b).unwrap(), 0.0);
        assert_eq!(lt.node_of(ProcessId(1)), Some(a));
        assert_eq!(lt.len(), 2);
    }

    #[test]
    fn strict_placement_rejects_overload() {
        let (t, a, _) = topo();
        let mut lt = LoadTracker::new();
        lt.place(&t, ProcessId(1), a, 90.0, true).unwrap();
        assert!(matches!(
            lt.place(&t, ProcessId(2), a, 20.0, true),
            Err(NetError::NodeSaturated(_))
        ));
        // Non-strict placement allows oversubscription (it will trigger
        // migration later).
        lt.place(&t, ProcessId(2), a, 20.0, false).unwrap();
        assert!(lt.utilization(&t, a).unwrap() > 1.0);
    }

    #[test]
    fn replace_moves_process() {
        let (t, a, b) = topo();
        let mut lt = LoadTracker::new();
        lt.place(&t, ProcessId(1), a, 50.0, true).unwrap();
        lt.place(&t, ProcessId(1), b, 50.0, true).unwrap();
        assert_eq!(lt.demand_on(a), 0.0);
        assert_eq!(lt.demand_on(b), 50.0);
        assert_eq!(lt.node_of(ProcessId(1)), Some(b));
        assert_eq!(lt.len(), 1);
    }

    #[test]
    fn remove_releases() {
        let (t, a, _) = topo();
        let mut lt = LoadTracker::new();
        lt.place(&t, ProcessId(1), a, 50.0, true).unwrap();
        lt.remove(ProcessId(1));
        assert_eq!(lt.demand_on(a), 0.0);
        assert!(lt.is_empty());
        lt.remove(ProcessId(1)); // idempotent
    }

    #[test]
    fn set_demand_adjusts_totals() {
        let (t, a, _) = topo();
        let mut lt = LoadTracker::new();
        lt.place(&t, ProcessId(1), a, 10.0, true).unwrap();
        lt.set_demand(ProcessId(1), 60.0);
        assert_eq!(lt.demand_on(a), 60.0);
        assert_eq!(lt.demand_of(ProcessId(1)), Some(60.0));
        lt.set_demand(ProcessId(1), 5.0);
        assert_eq!(lt.demand_on(a), 5.0);
        // Unknown process: no-op.
        lt.set_demand(ProcessId(9), 100.0);
        assert_eq!(lt.demand_on(a), 5.0);
    }

    #[test]
    fn version_moves_with_every_change_and_only_then() {
        let (t, a, b) = topo();
        let mut lt = LoadTracker::new();
        let mut last = lt.version();
        let mut moved = |lt: &LoadTracker| {
            let now = lt.version();
            (std::mem::replace(&mut last, now) != now, lt.demand_on(a))
        };
        lt.place(&t, ProcessId(1), a, 10.0, true).unwrap();
        assert_eq!(moved(&lt), (true, 10.0));
        lt.set_demand(ProcessId(1), 10.0); // same demand
        lt.set_demand(ProcessId(9), 5.0); // unknown process
        assert!(lt.place(&t, ProcessId(2), a, 500.0, true).is_err());
        lt.remove(ProcessId(9));
        assert_eq!(moved(&lt), (false, 10.0));
        lt.set_demand(ProcessId(1), 20.0);
        assert_eq!(moved(&lt), (true, 20.0));
        lt.place(&t, ProcessId(1), b, 20.0, true).unwrap();
        assert_eq!(moved(&lt), (true, 0.0));
        lt.remove(ProcessId(1));
        assert_eq!(moved(&lt), (true, 0.0));
    }

    #[test]
    fn least_loaded_picks_fitting_minimum() {
        let (t, a, b) = topo();
        let mut lt = LoadTracker::new();
        lt.place(&t, ProcessId(1), a, 10.0, true).unwrap(); // a at 10%
        lt.place(&t, ProcessId(2), b, 100.0, true).unwrap(); // b at 50%
        assert_eq!(lt.least_loaded(&t, [a, b], 10.0), Some(a));
        // Demand that only fits on b.
        assert_eq!(lt.least_loaded(&t, [a, b], 95.0), Some(b));
        // Demand that fits nowhere.
        assert_eq!(lt.least_loaded(&t, [a, b], 500.0), None);
    }

    #[test]
    fn processes_on_sorted() {
        let (t, a, _) = topo();
        let mut lt = LoadTracker::new();
        lt.place(&t, ProcessId(3), a, 1.0, true).unwrap();
        lt.place(&t, ProcessId(1), a, 2.0, true).unwrap();
        let procs = lt.processes_on(a);
        assert_eq!(procs, vec![(ProcessId(1), 2.0), (ProcessId(3), 1.0)]);
    }
}
