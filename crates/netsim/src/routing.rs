//! Routing and per-flow path installation.
//!
//! The SCN stack "interprets the DSN description and dynamically coordinates
//! the network configurations, such as data flows, segmentations, and QoS
//! parameters" (paper §2). In this substrate a compiled dataflow edge becomes
//! a **flow**: a latency-shortest path between two nodes with an optional
//! bandwidth reservation. The [`FlowTable`] tracks reservations per link and
//! rejects flows that would oversubscribe a link — the admission-control half
//! of QoS.

use crate::qos::QosSpec;
use crate::topology::{LinkId, NodeId, Topology};
use crate::{link_delay, NetError};
use sl_stt::Duration;
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

/// Identifier of an installed flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

/// A concrete path through the network.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// Node sequence, source first, destination last.
    pub nodes: Vec<NodeId>,
    /// Links traversed, `nodes.len() - 1` of them.
    pub links: Vec<LinkId>,
    /// Sum of link propagation latencies.
    pub latency: Duration,
}

impl Route {
    /// The trivial route from a node to itself.
    pub fn local(node: NodeId) -> Route {
        Route {
            nodes: vec![node],
            links: Vec::new(),
            latency: Duration::ZERO,
        }
    }

    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.links.len()
    }

    /// End-to-end delay of a message of `bytes` over this route: per-hop
    /// propagation + serialisation.
    pub fn transfer_delay(&self, topo: &Topology, bytes: usize) -> Result<Duration, NetError> {
        let mut total = Duration::ZERO;
        for l in &self.links {
            let spec = topo.link(*l)?;
            total = total + link_delay(spec.latency, spec.bandwidth_bps, bytes);
        }
        Ok(total)
    }
}

/// All-destinations shortest-path table from one source (Dijkstra on link
/// latency).
#[derive(Debug, Clone)]
pub struct RoutingTable {
    source: NodeId,
    /// For each node index: (distance, previous node, link into it).
    prev: Vec<Option<(Duration, NodeId, LinkId)>>,
}

impl RoutingTable {
    /// Compute the table for `source`.
    pub fn compute(topo: &Topology, source: NodeId) -> Result<RoutingTable, NetError> {
        topo.node(source)?;
        let n = topo.node_count();
        let mut dist: Vec<Option<Duration>> = vec![None; n];
        let mut prev: Vec<Option<(Duration, NodeId, LinkId)>> = vec![None; n];
        // Max-heap over Reverse(latency ms).
        let mut heap = BinaryHeap::new();
        dist[source.0 as usize] = Some(Duration::ZERO);
        // A crashed source reaches nothing: leave the heap empty so every
        // destination reports NoRoute.
        if topo.node_is_up(source) {
            heap.push(std::cmp::Reverse((0u64, source.0)));
        }
        while let Some(std::cmp::Reverse((d_ms, u))) = heap.pop() {
            let u_id = NodeId(u);
            match dist[u as usize] {
                Some(best) if best.as_millis() < d_ms => continue,
                _ => {}
            }
            for (link, v) in topo.neighbours(u_id) {
                let spec = topo.link(link)?;
                // Down links and crashed nodes carry no traffic.
                if !spec.up || !topo.node_is_up(v) {
                    continue;
                }
                let nd = d_ms + spec.latency.as_millis();
                let better = match dist[v.0 as usize] {
                    None => true,
                    Some(cur) => nd < cur.as_millis(),
                };
                if better {
                    dist[v.0 as usize] = Some(Duration::from_millis(nd));
                    prev[v.0 as usize] = Some((Duration::from_millis(nd), u_id, link));
                    heap.push(std::cmp::Reverse((nd, v.0)));
                }
            }
        }
        Ok(RoutingTable { source, prev })
    }

    /// The source this table routes from.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Shortest route to `dest`, or `NoRoute`.
    pub fn route_to(&self, dest: NodeId) -> Result<Route, NetError> {
        if dest == self.source {
            return Ok(Route::local(dest));
        }
        let mut nodes = vec![dest];
        let mut links = Vec::new();
        let mut cur = dest;
        let latency = match self.prev.get(cur.0 as usize) {
            Some(Some((d, _, _))) => *d,
            _ => {
                return Err(NetError::NoRoute {
                    from: self.source,
                    to: dest,
                })
            }
        };
        while cur != self.source {
            match self.prev.get(cur.0 as usize) {
                Some(Some((_, p, l))) => {
                    links.push(*l);
                    nodes.push(*p);
                    cur = *p;
                }
                _ => {
                    return Err(NetError::NoRoute {
                        from: self.source,
                        to: dest,
                    })
                }
            }
        }
        nodes.reverse();
        links.reverse();
        Ok(Route {
            nodes,
            links,
            latency,
        })
    }

    /// Latency to `dest`, if reachable.
    pub fn distance_to(&self, dest: NodeId) -> Option<Duration> {
        if dest == self.source {
            return Some(Duration::ZERO);
        }
        self.prev
            .get(dest.0 as usize)
            .and_then(|p| p.map(|(d, _, _)| d))
    }
}

/// An installed flow: route + reservation.
#[derive(Debug, Clone)]
pub struct Flow {
    /// The flow id.
    pub id: FlowId,
    /// Route it follows.
    pub route: Route,
    /// Reserved bandwidth in bps (0 = best effort).
    pub reserved_bps: u64,
}

/// Tracks installed flows and per-link bandwidth reservations.
#[derive(Debug, Default)]
pub struct FlowTable {
    flows: HashMap<FlowId, Flow>,
    reserved: HashMap<LinkId, u64>,
    next_id: u64,
}

impl FlowTable {
    /// Empty table.
    pub fn new() -> FlowTable {
        FlowTable::default()
    }

    /// Bandwidth currently reserved on `link`.
    pub fn reserved_on(&self, link: LinkId) -> u64 {
        self.reserved.get(&link).copied().unwrap_or(0)
    }

    /// Number of installed flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True if no flows are installed.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// The flow with the given id.
    pub fn flow(&self, id: FlowId) -> Result<&Flow, NetError> {
        self.flows.get(&id).ok_or(NetError::UnknownFlow(id))
    }

    /// All installed flows, in arbitrary order.
    pub fn flows(&self) -> impl Iterator<Item = &Flow> {
        self.flows.values()
    }

    /// Every link with a non-zero reservation and the bytes/sec reserved on
    /// it (the engine mirrors these into queued-bytes gauges).
    pub fn reserved_links(&self) -> impl Iterator<Item = (LinkId, u64)> + '_ {
        self.reserved.iter().map(|(l, r)| (*l, *r))
    }

    /// Install a flow from `src` to `dst` satisfying `qos`: shortest path,
    /// checked against the QoS latency bound and remaining link capacity.
    ///
    /// Returns the new flow id, or a QoS error explaining the violation.
    pub fn install(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        qos: &QosSpec,
    ) -> Result<FlowId, NetError> {
        let table = RoutingTable::compute(topo, src)?;
        let route = table.route_to(dst)?;
        if let Some(bound) = qos.max_latency {
            if route.latency > bound {
                return Err(NetError::QosUnsatisfiable {
                    reason: format!(
                        "shortest path latency {} exceeds bound {}",
                        route.latency, bound
                    ),
                });
            }
        }
        let want = qos.min_bandwidth_bps.unwrap_or(0);
        if want > 0 {
            for l in &route.links {
                let cap = topo.link(*l)?.bandwidth_bps;
                let used = self.reserved_on(*l);
                if used + want > cap {
                    return Err(NetError::QosUnsatisfiable {
                        reason: format!(
                            "link {l} has {} bps free, flow needs {want}",
                            cap.saturating_sub(used)
                        ),
                    });
                }
            }
            for l in &route.links {
                *self.reserved.entry(*l).or_insert(0) += want;
            }
        }
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows.insert(
            id,
            Flow {
                id,
                route,
                reserved_bps: want,
            },
        );
        Ok(id)
    }

    /// Remove a flow, releasing its reservations.
    pub fn uninstall(&mut self, id: FlowId) -> Result<(), NetError> {
        let flow = self.flows.remove(&id).ok_or(NetError::UnknownFlow(id))?;
        if flow.reserved_bps > 0 {
            for l in &flow.route.links {
                if let Some(r) = self.reserved.get_mut(l) {
                    *r = r.saturating_sub(flow.reserved_bps);
                    if *r == 0 {
                        self.reserved.remove(l);
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeSpec;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    /// Diamond: a -1ms- b -1ms- d, a -5ms- c -5ms- d.
    fn diamond() -> (Topology, NodeId, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::edge("a", 1.0));
        let b = t.add_node(NodeSpec::core("b", 1.0));
        let c = t.add_node(NodeSpec::core("c", 1.0));
        let d = t.add_node(NodeSpec::edge("d", 1.0));
        t.add_link(a, b, ms(1), 1_000_000).unwrap();
        t.add_link(b, d, ms(1), 1_000_000).unwrap();
        t.add_link(a, c, ms(5), 10_000_000).unwrap();
        t.add_link(c, d, ms(5), 10_000_000).unwrap();
        (t, a, b, c, d)
    }

    #[test]
    fn dijkstra_prefers_low_latency() {
        let (t, a, b, _c, d) = diamond();
        let rt = RoutingTable::compute(&t, a).unwrap();
        let route = rt.route_to(d).unwrap();
        assert_eq!(route.nodes, vec![a, b, d]);
        assert_eq!(route.latency, ms(2));
        assert_eq!(route.hops(), 2);
        assert_eq!(rt.distance_to(d), Some(ms(2)));
        assert_eq!(rt.distance_to(a), Some(Duration::ZERO));
    }

    #[test]
    fn route_to_self_is_local() {
        let (t, a, ..) = diamond();
        let rt = RoutingTable::compute(&t, a).unwrap();
        let r = rt.route_to(a).unwrap();
        assert_eq!(r.hops(), 0);
        assert_eq!(r.latency, Duration::ZERO);
    }

    #[test]
    fn no_route_to_disconnected() {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::edge("a", 1.0));
        let b = t.add_node(NodeSpec::edge("b", 1.0));
        let rt = RoutingTable::compute(&t, a).unwrap();
        assert!(matches!(rt.route_to(b), Err(NetError::NoRoute { .. })));
        assert_eq!(rt.distance_to(b), None);
    }

    #[test]
    fn transfer_delay_accumulates() {
        let (t, a, _b, _c, d) = diamond();
        let rt = RoutingTable::compute(&t, a).unwrap();
        let route = rt.route_to(d).unwrap();
        // Two hops of 1ms latency each + serialisation of 1000 bytes at
        // 1 Mbps = 8 ms per hop.
        let delay = route.transfer_delay(&t, 1000).unwrap();
        assert_eq!(delay, ms(2 + 16));
    }

    #[test]
    fn flow_install_reserves_bandwidth() {
        let (t, a, _b, _c, d) = diamond();
        let mut ft = FlowTable::new();
        let qos = QosSpec {
            max_latency: None,
            min_bandwidth_bps: Some(600_000),
        };
        let f1 = ft.install(&t, a, d, &qos).unwrap();
        assert_eq!(ft.len(), 1);
        assert_eq!(ft.flow(f1).unwrap().reserved_bps, 600_000);
        // Second identical flow exceeds the 1 Mbps fast path.
        let err = ft.install(&t, a, d, &qos).unwrap_err();
        assert!(matches!(err, NetError::QosUnsatisfiable { .. }));
        // Releasing frees capacity.
        ft.uninstall(f1).unwrap();
        assert!(ft.install(&t, a, d, &qos).is_ok());
        assert!(ft.uninstall(FlowId(999)).is_err());
    }

    #[test]
    fn latency_bound_enforced() {
        let (t, a, _b, _c, d) = diamond();
        let mut ft = FlowTable::new();
        let tight = QosSpec {
            max_latency: Some(ms(1)),
            min_bandwidth_bps: None,
        };
        assert!(matches!(
            ft.install(&t, a, d, &tight),
            Err(NetError::QosUnsatisfiable { .. })
        ));
        let loose = QosSpec {
            max_latency: Some(ms(2)),
            min_bandwidth_bps: None,
        };
        assert!(ft.install(&t, a, d, &loose).is_ok());
    }

    #[test]
    fn best_effort_flows_do_not_reserve() {
        let (t, a, _b, _c, d) = diamond();
        let mut ft = FlowTable::new();
        let be = QosSpec::best_effort();
        for _ in 0..10 {
            ft.install(&t, a, d, &be).unwrap();
        }
        assert_eq!(ft.len(), 10);
        assert_eq!(ft.reserved_on(LinkId(0)), 0);
    }

    #[test]
    fn failed_link_forces_detour() {
        let (mut t, a, b, c, d) = diamond();
        // Fail the fast a-b link: traffic detours via c.
        let fast = t.link_between(a, b).unwrap();
        t.set_link_up(fast, false).unwrap();
        assert!(!t.link(fast).unwrap().up);
        let rt = RoutingTable::compute(&t, a).unwrap();
        let route = rt.route_to(d).unwrap();
        assert_eq!(route.nodes, vec![a, c, d]);
        assert_eq!(route.latency, ms(10));
        // b is now only reachable via d.
        assert_eq!(rt.route_to(b).unwrap().nodes, vec![a, c, d, b]);
        // Restoring brings the short path back.
        t.set_link_up(fast, true).unwrap();
        let rt = RoutingTable::compute(&t, a).unwrap();
        assert_eq!(rt.route_to(d).unwrap().latency, ms(2));
    }

    #[test]
    fn crashed_node_forces_detour_or_partition() {
        let (mut t, a, b, c, d) = diamond();
        // Crash the fast-path transit node b: traffic detours via c.
        t.set_node_up(b, false).unwrap();
        assert!(!t.node_is_up(b));
        let rt = RoutingTable::compute(&t, a).unwrap();
        assert_eq!(rt.route_to(d).unwrap().nodes, vec![a, c, d]);
        assert!(matches!(rt.route_to(b), Err(NetError::NoRoute { .. })));
        // Crash c too: d is unreachable.
        t.set_node_up(c, false).unwrap();
        let rt = RoutingTable::compute(&t, a).unwrap();
        assert!(matches!(rt.route_to(d), Err(NetError::NoRoute { .. })));
        // Restore both: the fast path is back.
        t.set_node_up(b, true).unwrap();
        t.set_node_up(c, true).unwrap();
        let rt = RoutingTable::compute(&t, a).unwrap();
        assert_eq!(rt.route_to(d).unwrap().latency, ms(2));
        assert!(t.set_node_up(NodeId(99), true).is_err());
    }

    #[test]
    fn crashed_source_reaches_nothing() {
        let (mut t, a, _b, _c, d) = diamond();
        t.set_node_up(a, false).unwrap();
        let rt = RoutingTable::compute(&t, a).unwrap();
        assert!(matches!(rt.route_to(d), Err(NetError::NoRoute { .. })));
        // The degenerate self-route still exists.
        assert!(rt.route_to(a).is_ok());
    }

    #[test]
    fn total_failure_partitions() {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::edge("a", 1.0));
        let b = t.add_node(NodeSpec::edge("b", 1.0));
        let l = t.add_link(a, b, ms(1), 1000).unwrap();
        t.set_link_up(l, false).unwrap();
        let rt = RoutingTable::compute(&t, a).unwrap();
        assert!(matches!(rt.route_to(b), Err(NetError::NoRoute { .. })));
        assert!(t.set_link_up(LinkId(9), false).is_err());
    }

    #[test]
    fn routes_on_testbed() {
        let t = Topology::nict_testbed();
        // Every pair of nodes is mutually reachable.
        for src in t.node_ids() {
            let rt = RoutingTable::compute(&t, src).unwrap();
            for dst in t.node_ids() {
                let r = rt.route_to(dst).unwrap();
                assert_eq!(r.nodes.first(), Some(&src));
                assert_eq!(r.nodes.last(), Some(&dst));
            }
        }
    }
}
