//! Property-based tests for the network substrate: event-queue ordering,
//! routing optimality, and flow-table conservation.

use proptest::prelude::*;
use sl_netsim::{EventQueue, LinkId, NetStats, NodeId, NodeSpec, QosSpec, RoutingTable, Topology};
use sl_stt::{Duration, Timestamp};
use std::collections::{BTreeSet, HashMap};

/// What `NetStats` must report, kept in maps keyed by id.
#[derive(Default)]
struct StatsModel {
    node: HashMap<u32, (u64, u64)>,
    link: HashMap<u32, (u64, u64)>,
    queued: HashMap<u32, i64>,
    total: (u64, u64),
}

proptest! {
    /// Dense per-id counters read exactly as per-id maps would: every
    /// getter, the totals, the busiest link (ties to the lowest id) and the
    /// snapshot's key set, for any interleaving of the three recorders.
    #[test]
    fn net_stats_reads_as_a_map_model(
        calls in proptest::collection::vec((0u8..3, 0u32..12, 0u64..5_000, 0u64..40), 0..120),
    ) {
        let (mut st, mut model) = (NetStats::new(), StatsModel::default());
        for (kind, id, bytes, ms) in calls {
            match kind {
                0 => {
                    st.record_link(LinkId(id), bytes as usize, Duration::from_millis(ms));
                    let e = model.link.entry(id).or_default();
                    (e.0, e.1) = (e.0 + 1, e.1 + bytes);
                    model.total = (model.total.0 + 1, model.total.1 + bytes);
                }
                1 => {
                    st.record_node_rx(NodeId(id), bytes as usize);
                    let e = model.node.entry(id).or_default();
                    (e.0, e.1) = (e.0 + 1, e.1 + bytes);
                }
                _ => {
                    st.set_link_queued(LinkId(id), bytes);
                    model.queued.insert(id, bytes as i64);
                }
            }
        }
        for id in 0..16u32 {
            let node = model.node.get(&id).copied().unwrap_or_default();
            prop_assert_eq!((st.node_msgs(NodeId(id)), st.node_bytes(NodeId(id))), node);
            let link = model.link.get(&id).copied().unwrap_or_default();
            prop_assert_eq!((st.link_msgs(LinkId(id)), st.link_bytes(LinkId(id))), link);
            prop_assert_eq!(st.link_latency(LinkId(id)).map(|h| h.count()), model.link.get(&id).map(|l| l.0));
            prop_assert_eq!(st.link_queued(LinkId(id)), model.queued.get(&id).copied().unwrap_or(0));
        }
        prop_assert_eq!((st.total_msgs(), st.total_bytes()), model.total);
        let busiest = model
            .link
            .iter()
            .max_by_key(|(id, l)| (l.0, std::cmp::Reverse(**id)))
            .map(|(id, l)| (LinkId(*id), l.0));
        prop_assert_eq!(st.busiest_link(), busiest);
        let snap = st.metrics_snapshot();
        let hists: BTreeSet<String> = model.link.keys().map(|id| format!("{}/latency_us", LinkId(*id))).collect();
        let gauges: BTreeSet<String> = model.queued.keys().map(|id| format!("{}/queued_bytes", LinkId(*id))).collect();
        prop_assert_eq!(snap.hists.keys().cloned().collect::<BTreeSet<_>>(), hists);
        prop_assert_eq!(snap.gauges.keys().cloned().collect::<BTreeSet<_>>(), gauges);
        for (id, q) in &model.queued {
            prop_assert_eq!(snap.gauges[&format!("{}/queued_bytes", LinkId(*id))], *q);
        }
        prop_assert_eq!(snap.counters["total_msgs"], model.total.0);
    }
}

proptest! {
    /// The event queue is a stable priority queue: pops come out in
    /// non-decreasing time order, and equal-time events keep insertion order.
    #[test]
    fn event_queue_ordering(times in proptest::collection::vec(0i64..1000, 1..200)) {
        let mut q = EventQueue::new(Timestamp::EPOCH);
        for (i, t) in times.iter().enumerate() {
            q.schedule_at(Timestamp::from_secs(*t), (*t, i));
        }
        let mut last: Option<(Timestamp, usize)> = None;
        let mut popped = 0;
        while let Some((at, (t, i))) = q.pop() {
            popped += 1;
            prop_assert_eq!(at, Timestamp::from_secs(t));
            if let Some((lt, li)) = last {
                prop_assert!(at >= lt);
                if at == lt {
                    prop_assert!(i > li, "FIFO violated for equal times");
                }
            }
            last = Some((at, i));
        }
        prop_assert_eq!(popped, times.len());
    }

    /// `pending()` is exactly scheduled − popped, and `is_idle()` agrees,
    /// for any interleaving of `schedule_at`, `pop` and `pop_until`.
    #[test]
    fn event_queue_pending_counts_scheduled_minus_popped(
        ops in proptest::collection::vec((0u8..3, 0i64..100), 1..200),
    ) {
        let mut q = EventQueue::new(Timestamp::EPOCH);
        let (mut scheduled, mut popped) = (0usize, 0usize);
        for (op, t) in ops {
            match op {
                0 => {
                    q.schedule_at(Timestamp::from_secs(t), t);
                    scheduled += 1;
                }
                1 => popped += usize::from(q.pop().is_some()),
                _ => popped += usize::from(q.pop_until(Timestamp::from_secs(t)).is_some()),
            }
            prop_assert_eq!(q.pending(), scheduled - popped);
            prop_assert_eq!(q.is_idle(), scheduled == popped);
            prop_assert_eq!(q.processed(), popped as u64);
        }
    }

    /// Dijkstra routes are genuinely shortest: for every destination the
    /// reported latency never exceeds any single-link relaxation.
    #[test]
    fn routing_satisfies_triangle_inequality(n in 3usize..24, extra in 0usize..20, seed in 0u64..50) {
        let topo = Topology::random(n, extra, seed);
        let rt = RoutingTable::compute(&topo, NodeId(0)).unwrap();
        for dest in topo.node_ids() {
            let Some(d) = rt.distance_to(dest) else { continue };
            // Relaxed edges cannot improve the distance.
            for (link, nb) in topo.neighbours(dest) {
                if let Some(dn) = rt.distance_to(nb) {
                    let lat = topo.link(link).unwrap().latency;
                    prop_assert!(
                        d.as_millis() <= dn.as_millis() + lat.as_millis(),
                        "dest {dest}: {d} > {dn} + {lat}"
                    );
                }
            }
            // Route reconstruction agrees with the distance.
            let route = rt.route_to(dest).unwrap();
            prop_assert_eq!(route.latency, d);
            // And the route's links sum to its latency.
            let sum: u64 = route.links.iter().map(|l| topo.link(*l).unwrap().latency.as_millis()).sum();
            prop_assert_eq!(sum, d.as_millis());
        }
    }

    /// Flow install/uninstall conserves reservations: after removing every
    /// installed flow, all links are back to zero.
    #[test]
    fn flow_reservations_conserved(installs in proptest::collection::vec((0u32..6, 0u32..6, 1u64..500_000), 0..30)) {
        let mut topo = Topology::new();
        let nodes: Vec<NodeId> = (0..6).map(|i| topo.add_node(NodeSpec::edge(&format!("n{i}"), 1.0))).collect();
        // Ring topology.
        for i in 0..6 {
            topo.add_link(nodes[i], nodes[(i + 1) % 6], Duration::from_millis(1), 1_000_000).unwrap();
        }
        let mut ft = sl_netsim::FlowTable::new();
        let mut ids = Vec::new();
        for (a, b, bw) in installs {
            if a == b {
                continue;
            }
            let qos = QosSpec::best_effort().with_min_bandwidth(bw);
            if let Ok(id) = ft.install(&topo, NodeId(a), NodeId(b), &qos) {
                ids.push(id);
            }
        }
        for id in ids {
            ft.uninstall(id).unwrap();
        }
        prop_assert!(ft.is_empty());
        for l in 0..topo.link_count() {
            prop_assert_eq!(ft.reserved_on(sl_netsim::LinkId(l as u32)), 0);
        }
    }
}
