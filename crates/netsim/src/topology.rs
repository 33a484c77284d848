//! Network topology: nodes, links and builders.
//!
//! Nodes model the machines of the programmable network ("operations located
//! on the machines that, depending on workload, apply the logic specified in
//! the conceptual dataflow", paper §3). Each has a CPU capacity in abstract
//! *ops per second*; operator processes placed on a node consume part of it.

use crate::NetError;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sl_stt::Duration;
use std::fmt;

/// Identifier of a network node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.0)
    }
}

/// Identifier of a (bidirectional) link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub u32);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link#{}", self.0)
    }
}

/// Static description of a node.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Human-readable name (shown in monitoring output).
    pub name: String,
    /// CPU capacity in abstract operator-ops per second.
    pub cpu_capacity: f64,
    /// True if sensors may attach to this node (edge nodes); core routers
    /// carry traffic but host no sensors.
    pub edge: bool,
    /// False while the node is crashed (failure injection). Down nodes are
    /// invisible to routing and host no live processes.
    pub up: bool,
}

impl NodeSpec {
    /// An edge node with the given capacity.
    pub fn edge(name: &str, cpu_capacity: f64) -> NodeSpec {
        NodeSpec {
            name: name.to_string(),
            cpu_capacity,
            edge: true,
            up: true,
        }
    }

    /// A core (transit) node with the given capacity.
    pub fn core(name: &str, cpu_capacity: f64) -> NodeSpec {
        NodeSpec {
            name: name.to_string(),
            cpu_capacity,
            edge: false,
            up: true,
        }
    }
}

/// Static description of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Propagation latency.
    pub latency: Duration,
    /// Capacity in bits per second.
    pub bandwidth_bps: u64,
    /// False while the link is failed (failure injection, demo P3's
    /// "performances of the network"). Down links carry no traffic and are
    /// invisible to routing.
    pub up: bool,
}

/// An undirected multigraph of nodes and links.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    links: Vec<LinkSpec>,
    /// adjacency[n] = list of (link index, neighbour).
    adjacency: Vec<Vec<(u32, NodeId)>>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Add a node, returning its id.
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(spec);
        self.adjacency.push(Vec::new());
        id
    }

    /// Add a bidirectional link, returning its id.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        latency: Duration,
        bandwidth_bps: u64,
    ) -> Result<LinkId, NetError> {
        self.check_node(a)?;
        self.check_node(b)?;
        Ok(self.join(a, b, latency, bandwidth_bps))
    }

    /// Link two nodes known to exist: `add_link` after its checks, and the
    /// builders below, which only join nodes they have just created.
    fn join(&mut self, a: NodeId, b: NodeId, latency: Duration, bandwidth_bps: u64) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        self.links.push(LinkSpec {
            a,
            b,
            latency,
            bandwidth_bps,
            up: true,
        });
        self.adjacency[a.0 as usize].push((id.0, b));
        self.adjacency[b.0 as usize].push((id.0, a));
        id
    }

    fn check_node(&self, n: NodeId) -> Result<(), NetError> {
        if (n.0 as usize) < self.nodes.len() {
            Ok(())
        } else {
            Err(NetError::UnknownNode(n))
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Spec of node `n`.
    pub fn node(&self, n: NodeId) -> Result<&NodeSpec, NetError> {
        self.nodes.get(n.0 as usize).ok_or(NetError::UnknownNode(n))
    }

    /// Spec of link `l`.
    pub fn link(&self, l: LinkId) -> Result<&LinkSpec, NetError> {
        self.links.get(l.0 as usize).ok_or(NetError::UnknownLink(l))
    }

    /// Fail or restore a link. Down links are skipped by routing and carry
    /// no traffic until restored.
    pub fn set_link_up(&mut self, l: LinkId, up: bool) -> Result<(), NetError> {
        self.links
            .get_mut(l.0 as usize)
            .map(|spec| spec.up = up)
            .ok_or(NetError::UnknownLink(l))
    }

    /// Crash or restore a node. Down nodes are skipped by routing (traffic
    /// neither originates, terminates, nor transits there) until restored.
    pub fn set_node_up(&mut self, n: NodeId, up: bool) -> Result<(), NetError> {
        self.nodes
            .get_mut(n.0 as usize)
            .map(|spec| spec.up = up)
            .ok_or(NetError::UnknownNode(n))
    }

    /// True if the node exists and is currently up.
    pub fn node_is_up(&self, n: NodeId) -> bool {
        self.nodes.get(n.0 as usize).is_some_and(|spec| spec.up)
    }

    /// Neighbours of `n` as `(link, neighbour)` pairs.
    pub fn neighbours(&self, n: NodeId) -> impl Iterator<Item = (LinkId, NodeId)> + '_ {
        self.adjacency
            .get(n.0 as usize)
            .into_iter()
            .flatten()
            .map(|(l, nb)| (LinkId(*l), *nb))
    }

    /// The link joining `a` and `b` directly, if any (first match).
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.neighbours(a).find(|(_, nb)| *nb == b).map(|(l, _)| l)
    }

    /// Edge nodes (sensor-hosting), in id order.
    pub fn edge_nodes(&self) -> Vec<NodeId> {
        self.node_ids()
            .filter(|n| self.nodes[n.0 as usize].edge)
            .collect()
    }

    // ---------------------------------------------------------------------
    // Builders
    // ---------------------------------------------------------------------

    /// A line of `n` edge nodes with uniform links.
    pub fn line(n: usize, latency: Duration, bandwidth_bps: u64) -> Topology {
        let mut t = Topology::new();
        let ids: Vec<_> = (0..n)
            .map(|i| t.add_node(NodeSpec::edge(&format!("n{i}"), 1_000_000.0)))
            .collect();
        for w in ids.windows(2) {
            t.join(w[0], w[1], latency, bandwidth_bps);
        }
        t
    }

    /// A star: node 0 is the core hub, nodes 1..n are edge leaves.
    pub fn star(leaves: usize, latency: Duration, bandwidth_bps: u64) -> Topology {
        let mut t = Topology::new();
        let hub = t.add_node(NodeSpec::core("hub", 4_000_000.0));
        for i in 0..leaves {
            let leaf = t.add_node(NodeSpec::edge(&format!("leaf{i}"), 1_000_000.0));
            t.join(hub, leaf, latency, bandwidth_bps);
        }
        t
    }

    /// A complete `fanout`-ary tree of the given depth; leaves are edge
    /// nodes, internal nodes are core.
    pub fn tree(fanout: usize, depth: usize, latency: Duration, bandwidth_bps: u64) -> Topology {
        let mut t = Topology::new();
        let root = t.add_node(NodeSpec::core("root", 8_000_000.0));
        let mut frontier = vec![root];
        for level in 1..=depth {
            let mut next = Vec::new();
            for (pi, parent) in frontier.iter().enumerate() {
                for c in 0..fanout {
                    let name = format!("d{level}p{pi}c{c}");
                    let spec = if level == depth {
                        NodeSpec::edge(&name, 1_000_000.0)
                    } else {
                        NodeSpec::core(&name, 4_000_000.0)
                    };
                    let child = t.add_node(spec);
                    t.join(*parent, child, latency, bandwidth_bps);
                    next.push(child);
                }
            }
            frontier = next;
        }
        t
    }

    /// A random connected topology: a spanning tree plus `extra_links`
    /// shortcuts, with latencies in `[1, 20]` ms. Deterministic per seed.
    pub fn random(n: usize, extra_links: usize, seed: u64) -> Topology {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut t = Topology::new();
        let ids: Vec<_> = (0..n)
            .map(|i| {
                let cap = rng.gen_range(500_000.0..2_000_000.0);
                // Roughly a third of nodes are core routers.
                if i % 3 == 0 && i > 0 {
                    t.add_node(NodeSpec::core(&format!("r{i}"), cap * 2.0))
                } else {
                    t.add_node(NodeSpec::edge(&format!("n{i}"), cap))
                }
            })
            .collect();
        // Random spanning tree: connect each new node to a random earlier one.
        for i in 1..n {
            let j = rng.gen_range(0..i);
            let lat = Duration::from_millis(rng.gen_range(1..=20));
            let bw = rng.gen_range(10u64..=100) * 1_000_000;
            t.join(ids[i], ids[j], lat, bw);
        }
        // Extra shortcuts.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for i in 0..n {
            for j in 0..i {
                if t.link_between(ids[i], ids[j]).is_none() {
                    pairs.push((i, j));
                }
            }
        }
        pairs.shuffle(&mut rng);
        for (i, j) in pairs.into_iter().take(extra_links) {
            let lat = Duration::from_millis(rng.gen_range(1..=20));
            let bw = rng.gen_range(10u64..=100) * 1_000_000;
            t.join(ids[i], ids[j], lat, bw);
        }
        t
    }

    /// A fixed 12-node topology shaped like the NICT Japan-wide testbed the
    /// paper demos on: three regional clusters (Osaka, Kyoto, Tokyo) of edge
    /// nodes hanging off a core ring.
    pub fn nict_testbed() -> Topology {
        let mut t = Topology::new();
        let ms = Duration::from_millis;
        let core_osaka = t.add_node(NodeSpec::core("core-osaka", 8_000_000.0));
        let core_kyoto = t.add_node(NodeSpec::core("core-kyoto", 8_000_000.0));
        let core_tokyo = t.add_node(NodeSpec::core("core-tokyo", 8_000_000.0));
        // Core ring, 100 Mbps.
        t.join(core_osaka, core_kyoto, ms(2), 100_000_000);
        t.join(core_kyoto, core_tokyo, ms(5), 100_000_000);
        t.join(core_tokyo, core_osaka, ms(6), 100_000_000);
        // Regional edges, 20-50 Mbps.
        for (city, core, n) in [
            ("osaka", core_osaka, 4),
            ("kyoto", core_kyoto, 2),
            ("tokyo", core_tokyo, 3),
        ] {
            for i in 0..n {
                let e = t.add_node(NodeSpec::edge(&format!("{city}-edge{i}"), 1_500_000.0));
                t.join(
                    core,
                    e,
                    ms(1 + i as u64),
                    20_000_000 + 10_000_000 * i as u64,
                );
            }
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// True if every node is reachable from node 0 (or the graph is empty).
    fn connected(t: &Topology) -> bool {
        let mut seen = vec![false; t.node_count()];
        let mut stack: Vec<NodeId> = t.node_ids().take(1).collect();
        while let Some(n) = stack.pop() {
            if !std::mem::replace(&mut seen[n.0 as usize], true) {
                stack.extend(t.neighbours(n).map(|(_, nb)| nb));
            }
        }
        seen.iter().all(|s| *s)
    }

    #[test]
    fn add_nodes_and_links() {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::edge("a", 1.0));
        let b = t.add_node(NodeSpec::edge("b", 1.0));
        let l = t.add_link(a, b, Duration::from_millis(3), 1000).unwrap();
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.link_count(), 1);
        assert_eq!(t.link(l).unwrap().latency, Duration::from_millis(3));
        assert_eq!(t.link_between(a, b), Some(l));
        assert_eq!(t.link_between(b, a), Some(l));
        assert_eq!(t.neighbours(a).count(), 1);
        assert!(t.add_link(a, NodeId(99), Duration::ZERO, 1).is_err());
        assert!(t.node(NodeId(5)).is_err());
    }

    #[test]
    fn line_topology() {
        let t = Topology::line(5, Duration::from_millis(1), 1000);
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.link_count(), 4);
        assert!(connected(&t));
        // Endpoints have one neighbour, middles two.
        assert_eq!(t.neighbours(NodeId(0)).count(), 1);
        assert_eq!(t.neighbours(NodeId(2)).count(), 2);
    }

    #[test]
    fn star_topology() {
        let t = Topology::star(6, Duration::from_millis(1), 1000);
        assert_eq!(t.node_count(), 7);
        assert_eq!(t.neighbours(NodeId(0)).count(), 6);
        assert_eq!(t.edge_nodes().len(), 6);
        assert!(connected(&t));
    }

    #[test]
    fn tree_topology() {
        let t = Topology::tree(2, 3, Duration::from_millis(1), 1000);
        // 1 + 2 + 4 + 8 nodes.
        assert_eq!(t.node_count(), 15);
        assert_eq!(t.link_count(), 14);
        assert_eq!(t.edge_nodes().len(), 8); // leaves only
        assert!(connected(&t));
    }

    #[test]
    fn random_topology_connected_and_deterministic() {
        let a = Topology::random(30, 10, 42);
        let b = Topology::random(30, 10, 42);
        assert!(connected(&a));
        assert_eq!(a.node_count(), 30);
        assert_eq!(a.link_count(), 29 + 10);
        // Determinism: identical structure for the same seed.
        for l in 0..a.link_count() {
            let la = a.link(LinkId(l as u32)).unwrap();
            let lb = b.link(LinkId(l as u32)).unwrap();
            assert_eq!(la, lb);
        }
        // Different seed differs somewhere.
        let c = Topology::random(30, 10, 43);
        let differs = (0..a.link_count())
            .any(|l| a.link(LinkId(l as u32)).unwrap() != c.link(LinkId(l as u32)).unwrap());
        assert!(differs);
    }

    #[test]
    fn nict_testbed_shape() {
        let t = Topology::nict_testbed();
        assert_eq!(t.node_count(), 12);
        assert!(connected(&t));
        assert_eq!(t.edge_nodes().len(), 9);
        // Cores form a triangle.
        assert!(t.link_between(NodeId(0), NodeId(1)).is_some());
        assert!(t.link_between(NodeId(1), NodeId(2)).is_some());
        assert!(t.link_between(NodeId(2), NodeId(0)).is_some());
    }

    #[test]
    fn disconnected_detected() {
        let mut t = Topology::new();
        t.add_node(NodeSpec::edge("a", 1.0));
        t.add_node(NodeSpec::edge("b", 1.0));
        assert!(!connected(&t));
    }
}
