//! Network statistics: counters and time series backing the monitoring view.
//!
//! Figure 3 of the paper shows "the flows of data that are monitored for this
//! and other dataflows": per-operation tuples/sec, node workload, message
//! counts. [`NetStats`] aggregates raw counters; [`TimeSeries`] records
//! sampled values for plotting.

use crate::topology::{LinkId, NodeId};
use sl_obs::{Gauge, Histogram, MetricsSnapshot};
use sl_stt::{Duration, Timestamp};

/// A sampled time series with a bounded memory footprint.
///
/// Keeps up to `capacity` most-recent samples (ring semantics).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    samples: std::collections::VecDeque<(Timestamp, f64)>,
    capacity: usize,
}

impl Default for TimeSeries {
    /// A series with a 512-sample window.
    fn default() -> TimeSeries {
        TimeSeries::new(512)
    }
}

impl TimeSeries {
    /// A series retaining at most `capacity` samples.
    pub fn new(capacity: usize) -> TimeSeries {
        TimeSeries {
            samples: std::collections::VecDeque::with_capacity(capacity.min(1024)),
            capacity,
        }
    }

    /// Append a sample, evicting the oldest when full. Samples must arrive
    /// in non-decreasing time order (debug-asserted).
    pub fn push(&mut self, at: Timestamp, value: f64) {
        debug_assert!(
            self.samples.back().is_none_or(|(t, _)| *t <= at),
            "samples out of order"
        );
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back((at, value));
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Latest sample.
    pub fn last(&self) -> Option<(Timestamp, f64)> {
        self.samples.back().copied()
    }

    /// Iterate samples oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = (Timestamp, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// Mean of samples inside `[from, to)`.
    pub fn mean_in(&self, from: Timestamp, to: Timestamp) -> Option<f64> {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (t, v) in &self.samples {
            if *t >= from && *t < to {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            None
        } else {
            Some(sum / n as f64)
        }
    }

    /// Maximum sample value over the whole retained window.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().map(|(_, v)| *v).fold(None, |acc, v| {
            Some(match acc {
                None => v,
                Some(a) => a.max(v),
            })
        })
    }
}

/// Traffic one link has carried.
#[derive(Debug, Default)]
struct LinkTraffic {
    msgs: u64,
    bytes: u64,
    /// One-hop transfer latency, in microseconds.
    latency: Histogram,
}

/// Raw counters per node and link, in vectors indexed by `NodeId.0` and
/// `LinkId.0` (ids are dense: the topology mints them in order).
#[derive(Debug, Default)]
pub struct NetStats {
    /// `(messages, bytes)` delivered to each node.
    nodes: Vec<(u64, u64)>,
    /// `None` for a link that never carried traffic.
    links: Vec<Option<LinkTraffic>>,
    /// Bytes of reserved/backlogged traffic per link (set by the engine from
    /// its flow table at each monitor sample).
    link_queued: Vec<Gauge>,
    total_msgs: u64,
    total_bytes: u64,
    total_delay: Duration,
}

/// The entry of `v` at `index`, growing `v` with defaults to reach it.
fn entry<T: Default>(v: &mut Vec<T>, index: u32) -> &mut T {
    let index = index as usize;
    if index >= v.len() {
        v.resize_with(index + 1, T::default);
    }
    &mut v[index]
}

impl NetStats {
    /// Empty statistics.
    pub fn new() -> NetStats {
        NetStats::default()
    }

    /// Record a message of `bytes` delivered to `node`.
    pub fn record_node_rx(&mut self, node: NodeId, bytes: usize) {
        let (msgs, total) = entry(&mut self.nodes, node.0);
        *msgs += 1;
        *total += bytes as u64;
    }

    /// Record a message of `bytes` crossing `link` with the given one-hop
    /// delay.
    pub fn record_link(&mut self, link: LinkId, bytes: usize, delay: Duration) {
        let traffic = entry(&mut self.links, link.0).get_or_insert_with(LinkTraffic::default);
        traffic.msgs += 1;
        traffic.bytes += bytes as u64;
        traffic.latency.record((delay.as_secs_f64() * 1e6) as u64);
        self.total_msgs += 1;
        self.total_bytes += bytes as u64;
        self.total_delay = self.total_delay + delay;
    }

    /// Set the queued-bytes gauge for a link (the engine samples its flow
    /// reservations periodically).
    pub fn set_link_queued(&mut self, link: LinkId, bytes: u64) {
        entry(&mut self.link_queued, link.0).set(bytes.min(i64::MAX as u64) as i64);
    }

    /// Current queued-bytes gauge of a link (0 if never set).
    pub fn link_queued(&self, link: LinkId) -> i64 {
        self.link_queued.get(link.0 as usize).map_or(0, Gauge::get)
    }

    fn traffic(&self, link: LinkId) -> Option<&LinkTraffic> {
        self.links.get(link.0 as usize)?.as_ref()
    }

    /// Transfer-latency histogram of one link, if it ever carried traffic.
    pub fn link_latency(&self, link: LinkId) -> Option<&Histogram> {
        self.traffic(link).map(|t| &t.latency)
    }

    /// Messages delivered to a node.
    pub fn node_msgs(&self, node: NodeId) -> u64 {
        self.nodes.get(node.0 as usize).map_or(0, |n| n.0)
    }

    /// Bytes delivered to a node.
    pub fn node_bytes(&self, node: NodeId) -> u64 {
        self.nodes.get(node.0 as usize).map_or(0, |n| n.1)
    }

    /// Messages that crossed a link.
    pub fn link_msgs(&self, link: LinkId) -> u64 {
        self.traffic(link).map_or(0, |t| t.msgs)
    }

    /// Bytes that crossed a link.
    pub fn link_bytes(&self, link: LinkId) -> u64 {
        self.traffic(link).map_or(0, |t| t.bytes)
    }

    /// Total link crossings.
    pub fn total_msgs(&self) -> u64 {
        self.total_msgs
    }

    /// Total bytes across all links.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Mean per-hop delay.
    pub fn mean_hop_delay(&self) -> Option<Duration> {
        self.total_delay
            .as_millis()
            .checked_div(self.total_msgs)
            .map(Duration::from_millis)
    }

    /// Freeze the network view into an sl-obs snapshot: total counters,
    /// per-link queued-bytes gauges and per-link latency histograms.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        snap.counters.insert("total_msgs".into(), self.total_msgs);
        snap.counters.insert("total_bytes".into(), self.total_bytes);
        for (i, g) in self.link_queued.iter().enumerate() {
            g.put_into(&mut snap, &format!("{}/queued_bytes", LinkId(i as u32)));
        }
        for (link, t) in ids(&self.links) {
            t.latency.put_into(&mut snap, &format!("{link}/latency_us"));
        }
        snap
    }

    /// The busiest link by message count (ties go to the lowest id).
    pub fn busiest_link(&self) -> Option<(LinkId, u64)> {
        ids(&self.links)
            .map(|(l, t)| (l, t.msgs))
            .max_by_key(|(l, c)| (*c, std::cmp::Reverse(l.0)))
    }
}

/// The filled entries of a per-link vector, with their ids.
fn ids<T>(v: &[Option<T>]) -> impl Iterator<Item = (LinkId, &T)> {
    v.iter()
        .enumerate()
        .filter_map(|(i, x)| Some((LinkId(i as u32), x.as_ref()?)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn time_series_ring() {
        let mut s = TimeSeries::new(3);
        for i in 0..5 {
            s.push(ts(i), i as f64);
        }
        assert_eq!(s.len(), 3);
        let vals: Vec<f64> = s.iter().map(|(_, v)| v).collect();
        assert_eq!(vals, vec![2.0, 3.0, 4.0]);
        assert_eq!(s.last(), Some((ts(4), 4.0)));
        assert_eq!(s.max(), Some(4.0));
    }

    #[test]
    fn time_series_mean_in_window() {
        let mut s = TimeSeries::new(100);
        for i in 0..10 {
            s.push(ts(i), i as f64);
        }
        assert_eq!(s.mean_in(ts(2), ts(5)), Some(3.0)); // samples 2,3,4
        assert_eq!(s.mean_in(ts(50), ts(60)), None);
    }

    #[test]
    fn empty_series() {
        let s = TimeSeries::new(4);
        assert!(s.is_empty());
        assert_eq!(s.last(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn counters_accumulate() {
        let mut st = NetStats::new();
        let n = NodeId(1);
        let l = LinkId(2);
        st.record_node_rx(n, 100);
        st.record_node_rx(n, 50);
        st.record_link(l, 100, Duration::from_millis(4));
        st.record_link(l, 100, Duration::from_millis(6));
        assert_eq!(st.node_msgs(n), 2);
        assert_eq!(st.node_bytes(n), 150);
        assert_eq!(st.link_msgs(l), 2);
        assert_eq!(st.link_bytes(l), 200);
        assert_eq!(st.total_msgs(), 2);
        assert_eq!(st.total_bytes(), 200);
        assert_eq!(st.mean_hop_delay(), Some(Duration::from_millis(5)));
        assert_eq!(st.busiest_link(), Some((l, 2)));
        // Unknown ids read as zero.
        assert_eq!(st.node_msgs(NodeId(9)), 0);
        assert_eq!(st.link_bytes(LinkId(9)), 0);
    }

    #[test]
    fn a_link_beyond_every_recorded_one_reads_zero_and_stays_out_of_the_snapshot() {
        let mut st = NetStats::new();
        st.record_link(LinkId(4), 10, Duration::from_millis(1));
        st.set_link_queued(LinkId(2), 7);
        // Ids below the highest recorded one were never touched either.
        for l in [LinkId(0), LinkId(3), LinkId(5), LinkId(1_000)] {
            assert_eq!((st.link_msgs(l), st.link_bytes(l)), (0, 0));
            assert!(st.link_latency(l).is_none());
        }
        assert_eq!(st.link_queued(LinkId(9)), 0);
        let snap = st.metrics_snapshot();
        let hists: Vec<&str> = snap.hists.keys().map(String::as_str).collect();
        let gauges: Vec<&str> = snap.gauges.keys().map(String::as_str).collect();
        assert_eq!(hists, ["link#4/latency_us"]);
        assert_eq!(gauges, ["link#2/queued_bytes"]);
        assert_eq!(st.busiest_link(), Some((LinkId(4), 1)));
    }

    #[test]
    fn empty_stats() {
        let st = NetStats::new();
        assert_eq!(st.mean_hop_delay(), None);
        assert_eq!(st.busiest_link(), None);
        assert_eq!(st.link_queued(LinkId(0)), 0);
        assert!(st.link_latency(LinkId(0)).is_none());
    }

    #[test]
    fn link_latency_and_queue_feed_the_snapshot() {
        let mut st = NetStats::new();
        let l = LinkId(3);
        st.record_link(l, 256, Duration::from_millis(4));
        st.record_link(l, 256, Duration::from_millis(12));
        st.set_link_queued(l, 4096);
        let h = st.link_latency(l).unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), Some(12_000)); // 12 ms in µs
        assert_eq!(st.link_queued(l), 4096);
        let snap = st.metrics_snapshot();
        assert_eq!(snap.counters["total_msgs"], 2);
        assert_eq!(snap.gauges[&format!("{l}/queued_bytes")], 4096);
        assert_eq!(snap.hists[&format!("{l}/latency_us")].count, 2);
        // The snapshot survives the wire format.
        let back = MetricsSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }
}
