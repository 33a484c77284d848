//! A distributed broker overlay: a tree of brokers with subscription-based
//! routing and covering-based pruning.
//!
//! Models the "distributed publish/subscribe communication system" of
//! reference 3: subscriptions installed at one broker propagate through
//! the tree so that advertisements published anywhere reach every matching
//! subscriber, while links carrying no matching subscription are spared the
//! traffic. The covering optimisation suppresses propagation of a
//! subscription along a direction that already carries a covering one.

use crate::filter::SubscriptionFilter;
use crate::message::SensorAdvertisement;
use crate::PubSubError;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of a broker in the overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BrokerId(pub u32);

impl fmt::Display for BrokerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "broker#{}", self.0)
    }
}

/// A delivery produced by routing a publication through the overlay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The broker where the matching subscription lives.
    pub broker: BrokerId,
    /// The subscriber's local subscription tag at that broker.
    pub local_sub: u64,
    /// Overlay hops the publication travelled to reach it.
    pub hops: usize,
}

#[derive(Debug, Default)]
struct BrokerNode {
    neighbours: BTreeSet<u32>,
    /// Local subscriptions: tag -> filter.
    local: BTreeMap<u64, SubscriptionFilter>,
    /// Remote interest per neighbour: filters reachable via that neighbour.
    remote: BTreeMap<u32, Vec<SubscriptionFilter>>,
}

/// The broker overlay tree.
#[derive(Debug, Default)]
pub struct BrokerOverlay {
    brokers: Vec<BrokerNode>,
    next_tag: u64,
    covering_enabled: bool,
    /// Count of subscription-propagation messages (for the ablation bench).
    propagation_msgs: u64,
}

impl BrokerOverlay {
    /// An overlay with `n` brokers, no links, covering optimisation on.
    pub fn new(n: usize) -> BrokerOverlay {
        BrokerOverlay {
            brokers: (0..n).map(|_| BrokerNode::default()).collect(),
            next_tag: 0,
            covering_enabled: true,
            propagation_msgs: 0,
        }
    }

    /// Enable or disable covering-based pruning (ablation knob).
    pub fn set_covering(&mut self, enabled: bool) {
        self.covering_enabled = enabled;
    }

    /// Subscription-propagation messages sent so far.
    pub fn propagation_msgs(&self) -> u64 {
        self.propagation_msgs
    }

    /// Number of brokers.
    pub fn len(&self) -> usize {
        self.brokers.len()
    }

    /// True if the overlay has no brokers.
    pub fn is_empty(&self) -> bool {
        self.brokers.is_empty()
    }

    fn check(&self, b: BrokerId) -> Result<(), PubSubError> {
        if (b.0 as usize) < self.brokers.len() {
            Ok(())
        } else {
            Err(PubSubError::UnknownBroker(b.0))
        }
    }

    /// Connect two brokers. The overlay must remain acyclic (tree); adding a
    /// link between already-connected components is rejected.
    pub fn link(&mut self, a: BrokerId, b: BrokerId) -> Result<(), PubSubError> {
        self.check(a)?;
        self.check(b)?;
        if a == b || self.connected(a, b) {
            return Err(PubSubError::InvalidOverlayLink { child: b.0 });
        }
        self.brokers[a.0 as usize].neighbours.insert(b.0);
        self.brokers[b.0 as usize].neighbours.insert(a.0);
        Ok(())
    }

    fn connected(&self, a: BrokerId, b: BrokerId) -> bool {
        let mut seen = BTreeSet::new();
        let mut stack = vec![a.0];
        seen.insert(a.0);
        while let Some(n) = stack.pop() {
            if n == b.0 {
                return true;
            }
            for nb in &self.brokers[n as usize].neighbours {
                if seen.insert(*nb) {
                    stack.push(*nb);
                }
            }
        }
        false
    }

    /// Install a subscription at broker `at`. The filter floods through the
    /// tree (pruned by covering when enabled) so publications anywhere can
    /// find their way back.
    pub fn subscribe(
        &mut self,
        at: BrokerId,
        filter: SubscriptionFilter,
    ) -> Result<u64, PubSubError> {
        self.check(at)?;
        let tag = self.next_tag;
        self.next_tag += 1;
        self.brokers[at.0 as usize]
            .local
            .insert(tag, filter.clone());
        // Flood the filter outward from `at`.
        let mut queue: Vec<(u32, u32)> = self.brokers[at.0 as usize]
            .neighbours
            .iter()
            .map(|nb| (at.0, *nb))
            .collect();
        while let Some((from, to)) = queue.pop() {
            // At broker `to`, interest via neighbour `from` gains `filter`.
            let node = &mut self.brokers[to as usize];
            let entry = node.remote.entry(from).or_default();
            if self.covering_enabled && entry.iter().any(|f| f.covers(&filter)) {
                // A covering filter already flows this way; prune.
                continue;
            }
            entry.push(filter.clone());
            self.propagation_msgs += 1;
            let onward: Vec<(u32, u32)> = self.brokers[to as usize]
                .neighbours
                .iter()
                .filter(|nb| **nb != from)
                .map(|nb| (to, *nb))
                .collect();
            queue.extend(onward);
        }
        Ok(tag)
    }

    /// Route a publication entering at broker `at`: returns every delivery
    /// (matching local subscription anywhere in the tree) with hop counts,
    /// plus the number of overlay messages spent.
    pub fn publish(
        &self,
        at: BrokerId,
        ad: &SensorAdvertisement,
    ) -> Result<(Vec<Delivery>, u64), PubSubError> {
        self.check(at)?;
        let mut deliveries = Vec::new();
        let mut msgs = 0u64;
        // BFS guided by remote-interest tables.
        let mut queue = std::collections::VecDeque::new();
        queue.push_back((at.0, u32::MAX, 0usize));
        while let Some((cur, from, hops)) = queue.pop_front() {
            let node = &self.brokers[cur as usize];
            for (tag, f) in &node.local {
                if f.matches(ad) {
                    deliveries.push(Delivery {
                        broker: BrokerId(cur),
                        local_sub: *tag,
                        hops,
                    });
                }
            }
            for nb in &node.neighbours {
                if *nb == from {
                    continue;
                }
                // Forward only if some filter with interest via `cur` (from
                // the perspective of `nb`) matches. The neighbour's remote
                // table keyed by `cur` holds the filters that flowed from
                // beyond it toward `nb`... but interest tables point the
                // other way: nb.remote[cur] is what nb learned *from* cur.
                // For forwarding decisions we use our own view: does any
                // subscription living beyond `nb` match? That is recorded in
                // self.remote[nb] at broker `cur`.
                let interested = node
                    .remote
                    .get(nb)
                    .is_some_and(|fs| fs.iter().any(|f| f.matches(ad)));
                if interested {
                    msgs += 1;
                    queue.push_back((*nb, cur, hops + 1));
                }
            }
        }
        Ok((deliveries, msgs))
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)] // tests may panic freely
    use super::*;
    use crate::message::SensorKind;
    use sl_netsim::NodeId;
    use sl_stt::{AttrType, Duration, Field, GeoPoint, Schema, SensorId, Theme};

    fn ad(theme: &str) -> SensorAdvertisement {
        SensorAdvertisement {
            id: SensorId(1),
            name: "s".into(),
            kind: SensorKind::Physical,
            schema: Schema::new(vec![Field::new("v", AttrType::Float)])
                .unwrap()
                .into_ref(),
            theme: Theme::new(theme).unwrap(),
            period: Duration::from_secs(1),
            location: Some(GeoPoint::new_unchecked(34.7, 135.5)),
            node: NodeId(0),
        }
    }

    fn weather() -> SubscriptionFilter {
        SubscriptionFilter::any().with_theme(Theme::new("weather").unwrap())
    }

    /// A line overlay 0 - 1 - 2 - 3.
    fn line4() -> BrokerOverlay {
        let mut o = BrokerOverlay::new(4);
        o.link(BrokerId(0), BrokerId(1)).unwrap();
        o.link(BrokerId(1), BrokerId(2)).unwrap();
        o.link(BrokerId(2), BrokerId(3)).unwrap();
        o
    }

    #[test]
    fn local_delivery_zero_hops() {
        let mut o = line4();
        let tag = o.subscribe(BrokerId(2), weather()).unwrap();
        let (deliveries, _) = o.publish(BrokerId(2), &ad("weather/rain")).unwrap();
        assert_eq!(
            deliveries,
            vec![Delivery {
                broker: BrokerId(2),
                local_sub: tag,
                hops: 0
            }]
        );
    }

    #[test]
    fn remote_delivery_counts_hops() {
        let mut o = line4();
        let tag = o.subscribe(BrokerId(3), weather()).unwrap();
        let (deliveries, msgs) = o.publish(BrokerId(0), &ad("weather/rain")).unwrap();
        assert_eq!(
            deliveries,
            vec![Delivery {
                broker: BrokerId(3),
                local_sub: tag,
                hops: 3
            }]
        );
        assert_eq!(msgs, 3);
    }

    #[test]
    fn non_matching_publication_travels_nowhere() {
        let mut o = line4();
        o.subscribe(BrokerId(3), weather()).unwrap();
        let (deliveries, msgs) = o.publish(BrokerId(0), &ad("social/tweet")).unwrap();
        assert!(deliveries.is_empty());
        assert_eq!(msgs, 0, "links without matching interest must be spared");
    }

    #[test]
    fn multiple_subscribers_fan_out() {
        let mut o = BrokerOverlay::new(4);
        // Star: 0 center.
        o.link(BrokerId(0), BrokerId(1)).unwrap();
        o.link(BrokerId(0), BrokerId(2)).unwrap();
        o.link(BrokerId(0), BrokerId(3)).unwrap();
        o.subscribe(BrokerId(1), weather()).unwrap();
        o.subscribe(BrokerId(2), weather()).unwrap();
        let (deliveries, msgs) = o.publish(BrokerId(3), &ad("weather/rain")).unwrap();
        assert_eq!(deliveries.len(), 2);
        assert!(deliveries.iter().all(|d| d.hops == 2));
        // 3 -> 0 -> {1, 2}: three messages.
        assert_eq!(msgs, 3);
    }

    #[test]
    fn covering_prunes_propagation() {
        let mut with = line4();
        with.subscribe(BrokerId(0), weather()).unwrap();
        with.subscribe(
            BrokerId(0),
            weather().with_kind(SensorKind::Physical), // covered by the first
        )
        .unwrap();
        let mut without = line4();
        without.set_covering(false);
        without.subscribe(BrokerId(0), weather()).unwrap();
        without
            .subscribe(BrokerId(0), weather().with_kind(SensorKind::Physical))
            .unwrap();
        assert!(with.propagation_msgs() < without.propagation_msgs());
        // Both still deliver correctly.
        let (d1, _) = with.publish(BrokerId(3), &ad("weather/rain")).unwrap();
        let (d2, _) = without.publish(BrokerId(3), &ad("weather/rain")).unwrap();
        assert_eq!(d1.len(), 2);
        assert_eq!(d2.len(), 2);
    }

    #[test]
    fn tree_invariant_enforced() {
        let mut o = BrokerOverlay::new(3);
        o.link(BrokerId(0), BrokerId(1)).unwrap();
        o.link(BrokerId(1), BrokerId(2)).unwrap();
        // Closing the triangle would create a cycle.
        assert!(o.link(BrokerId(2), BrokerId(0)).is_err());
        // Self-link rejected.
        assert!(o.link(BrokerId(0), BrokerId(0)).is_err());
        // Unknown broker rejected.
        assert!(o.link(BrokerId(0), BrokerId(9)).is_err());
    }

    #[test]
    fn subscribe_after_disconnected_broker() {
        let mut o = BrokerOverlay::new(3);
        o.link(BrokerId(0), BrokerId(1)).unwrap();
        // Broker 2 is isolated: subscriptions there see only local traffic.
        let tag = o.subscribe(BrokerId(2), SubscriptionFilter::any()).unwrap();
        let (d, _) = o.publish(BrokerId(2), &ad("weather")).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].local_sub, tag);
        let (d, _) = o.publish(BrokerId(0), &ad("weather")).unwrap();
        assert!(d.is_empty());
    }
}
