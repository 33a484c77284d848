//! A single publish/subscribe broker: subscriptions, matching, and
//! join/leave notification events.
//!
//! The dataflow engine subscribes with a [`SubscriptionFilter`] per dataflow
//! source; when sensors join or leave (demo P3 "plug-and-play new sensors"),
//! the broker emits [`BrokerEvent`]s to every affected subscriber.

use crate::credit::CreditTable;
use crate::filter::SubscriptionFilter;
use crate::message::SensorAdvertisement;
use crate::registry::SensorRegistry;
use crate::PubSubError;
use sl_obs::{Counter, Histogram, MetricsSnapshot, Stopwatch};
use sl_stt::{SensorId, Timestamp};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Identifier of an active subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub#{}", self.0)
    }
}

/// Notification delivered to a subscriber.
#[derive(Debug, Clone)]
pub enum BrokerEvent {
    /// A sensor matching the subscription joined.
    SensorJoined {
        /// The affected subscription.
        subscription: SubscriptionId,
        /// The new sensor's advertisement (shared with the registry).
        ad: Arc<SensorAdvertisement>,
    },
    /// A sensor matching the subscription left.
    SensorLeft {
        /// The affected subscription.
        subscription: SubscriptionId,
        /// The departed sensor.
        sensor: SensorId,
    },
}

/// A broker: a registry plus active subscriptions.
#[derive(Debug, Default)]
pub struct Broker {
    registry: SensorRegistry,
    subscriptions: BTreeMap<u64, SubscriptionFilter>,
    next_sub: u64,
    /// Liveness watchdog: virtual time each sensor last produced a sample
    /// (seeded at publish).
    last_seen: BTreeMap<u64, Timestamp>,
    /// `(grace, t)`: with that grace, no registered sensor can be stale at
    /// any instant `<= t`. `None` when something may have moved the earliest
    /// deadline down (a publish, a first heartbeat, one that went backwards);
    /// forward heartbeats and unpublishes only move deadlines up or away.
    quiet_until: Option<(u32, Timestamp)>,
    /// Backpressure: which sensors currently hold generation credit.
    credits: CreditTable,
    /// Observability: publish/unpublish match latency and event counters.
    inst: BrokerInstruments,
}

sl_obs::instruments! {
    /// The broker's instruments (`broker/*` in the engine's snapshot).
    struct BrokerInstruments {
        match_us: Histogram = "match_us",
        subscribes: Counter = "subscribes",
        publishes: Counter = "publishes",
        unpublishes: Counter = "unpublishes",
        notifications: Counter = "notifications",
        expired: Counter = "expired",
        credit_grants: Counter = "credit_grants",
        credit_revokes: Counter = "credit_revokes",
    }
}

impl Broker {
    /// A broker with an empty registry.
    pub fn new() -> Broker {
        Broker::default()
    }

    /// Immutable access to the directory.
    pub fn registry(&self) -> &SensorRegistry {
        &self.registry
    }

    /// Register a subscription; the returned id tags future events.
    pub fn subscribe(&mut self, filter: SubscriptionFilter) -> SubscriptionId {
        let id = self.next_sub;
        self.next_sub += 1;
        self.subscriptions.insert(id, filter);
        self.inst.subscribes.inc();
        SubscriptionId(id)
    }

    /// Drop a subscription.
    pub fn unsubscribe(&mut self, id: SubscriptionId) -> Result<(), PubSubError> {
        self.subscriptions
            .remove(&id.0)
            .map(|_| ())
            .ok_or(PubSubError::UnknownSubscription(id.0))
    }

    /// The filter of an active subscription.
    pub fn filter_of(&self, id: SubscriptionId) -> Result<&SubscriptionFilter, PubSubError> {
        self.subscriptions
            .get(&id.0)
            .ok_or(PubSubError::UnknownSubscription(id.0))
    }

    /// Number of active subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.len()
    }

    /// Publish a sensor, returning the notifications to deliver (one per
    /// matching subscription, in subscription order).
    pub fn publish(
        &mut self,
        ad: impl Into<Arc<SensorAdvertisement>>,
    ) -> Result<Vec<BrokerEvent>, PubSubError> {
        let ad = ad.into();
        self.registry.publish(Arc::clone(&ad))?;
        // A heartbeat recorded before the ad now counts for the watchdog.
        self.quiet_until = None;
        let sw = Stopwatch::start();
        let events: Vec<BrokerEvent> = self
            .subscriptions
            .iter()
            .filter(|(_, f)| f.matches(&ad))
            .map(|(id, _)| BrokerEvent::SensorJoined {
                subscription: SubscriptionId(*id),
                ad: Arc::clone(&ad),
            })
            .collect();
        self.inst.match_us.record(sw.elapsed_us());
        self.inst.publishes.inc();
        self.inst.notifications.add(events.len() as u64);
        Ok(events)
    }

    /// Unpublish a sensor, returning leave notifications for subscriptions
    /// that were matching it.
    pub fn unpublish(&mut self, id: SensorId) -> Result<Vec<BrokerEvent>, PubSubError> {
        self.withdraw(id).map(|(_, events)| events)
    }

    /// Unpublish `id`, returning its advertisement and the leave
    /// notifications.
    fn withdraw(
        &mut self,
        id: SensorId,
    ) -> Result<(Arc<SensorAdvertisement>, Vec<BrokerEvent>), PubSubError> {
        let ad = self.registry.unpublish(id)?;
        self.last_seen.remove(&id.0);
        let sw = Stopwatch::start();
        let events: Vec<BrokerEvent> = self
            .subscriptions
            .iter()
            .filter(|(_, f)| f.matches(&ad))
            .map(|(sub, _)| BrokerEvent::SensorLeft {
                subscription: SubscriptionId(*sub),
                sensor: id,
            })
            .collect();
        self.inst.match_us.record(sw.elapsed_us());
        self.inst.unpublishes.inc();
        self.inst.notifications.add(events.len() as u64);
        Ok((ad, events))
    }

    /// Sensors currently matching a subscription (the initial binding set
    /// for a dataflow source).
    pub fn matching(&self, id: SubscriptionId) -> Result<Vec<&SensorAdvertisement>, PubSubError> {
        let f = self.filter_of(id)?;
        Ok(self.registry.discover(f).collect())
    }

    /// Record a liveness heartbeat: the sensor produced a sample at `now`
    /// (virtual time). The engine calls this on every emission; sensors
    /// without any recorded heartbeat are exempt from the watchdog.
    pub fn heartbeat(&mut self, id: SensorId, now: Timestamp) {
        match self.last_seen.insert(id.0, now) {
            Some(seen) if seen <= now => {}
            _ => self.quiet_until = None,
        }
    }

    /// Virtual time of a sensor's last heartbeat, if any was recorded.
    pub fn last_seen(&self, id: SensorId) -> Option<Timestamp> {
        self.last_seen.get(&id.0).copied()
    }

    /// Expire sensors whose heartbeat is older than `grace` advertised
    /// periods: the watchdog expects roughly one sample per advertised
    /// `period`, so silence for `period * grace` presumes the sensor dead.
    ///
    /// Each stale sensor is auto-unpublished; the return carries its (now
    /// expired) advertisement alongside the leave notifications to deliver,
    /// in sensor-id order. Expiries increment the `expired` counter.
    ///
    /// A sweep costs nothing until some sensor can have gone stale: each
    /// full pass remembers the earliest deadline it saw (`last_seen +
    /// budget`), and until `now` passes it the answer is known to be empty.
    pub fn sweep_stale(
        &mut self,
        now: Timestamp,
        grace: u32,
    ) -> Vec<(Arc<SensorAdvertisement>, Vec<BrokerEvent>)> {
        if self
            .quiet_until
            .is_some_and(|(g, quiet)| g == grace && now <= quiet)
        {
            return Vec::new();
        }
        let mut stale = Vec::new();
        let mut quiet = Timestamp::from_millis(i64::MAX);
        for (&id, &seen) in &self.last_seen {
            let Ok(ad) = self.registry.get(SensorId(id)) else {
                continue;
            };
            let budget = ad.period.saturating_mul(u64::from(grace));
            if budget.is_zero() {
                continue;
            }
            if now.since(seen) > budget {
                stale.push(SensorId(id));
            } else {
                let budget = i64::try_from(budget.as_millis()).unwrap_or(i64::MAX);
                let deadline = Timestamp::from_millis(seen.as_millis().saturating_add(budget));
                quiet = quiet.min(deadline);
            }
        }
        self.quiet_until = Some((grace, quiet));
        let mut expired = Vec::with_capacity(stale.len());
        for id in stale {
            // The scan above found it registered.
            let Ok(expiry) = self.withdraw(id) else {
                continue;
            };
            self.inst.expired.inc();
            expired.push(expiry);
        }
        expired
    }

    /// The credit ledger (which sensors may generate tuples right now).
    pub fn credits(&self) -> &CreditTable {
        &self.credits
    }

    /// Propagate a credit decision from the engine to a sensor driver;
    /// counted (`credit_grants` / `credit_revokes`) only when the state
    /// actually changed, and returned as such.
    pub fn set_credit(&mut self, id: SensorId, granted: bool) -> bool {
        let changed = self.credits.set(id, granted);
        if changed {
            if granted {
                self.inst.credit_grants.inc();
            } else {
                self.inst.credit_revokes.inc();
            }
        }
        changed
    }

    /// Freeze the broker's instruments (match latency, publish/subscribe
    /// counters) into a snapshot.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inst.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::SensorKind;
    use sl_netsim::NodeId;
    use sl_stt::{AttrType, Duration, Field, GeoPoint, Schema, Theme};

    fn ad(id: u64, theme: &str) -> SensorAdvertisement {
        SensorAdvertisement {
            id: SensorId(id),
            name: format!("s{id}"),
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

    #[test]
    fn subscribe_then_publish_notifies() {
        let mut b = Broker::new();
        let sub = b.subscribe(SubscriptionFilter::any().with_theme(Theme::new("weather").unwrap()));
        let events = b.publish(ad(1, "weather/rain")).unwrap();
        assert_eq!(events.len(), 1);
        match &events[0] {
            BrokerEvent::SensorJoined { subscription, ad } => {
                assert_eq!(*subscription, sub);
                assert_eq!(ad.id, SensorId(1));
            }
            other => panic!("{other:?}"),
        }
        // Non-matching publication notifies nobody.
        let events = b.publish(ad(2, "social/tweet")).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn unpublish_notifies_matching_subs() {
        let mut b = Broker::new();
        let s1 = b.subscribe(SubscriptionFilter::any());
        let _s2 = b.subscribe(SubscriptionFilter::any().with_theme(Theme::new("social").unwrap()));
        b.publish(ad(1, "weather/rain")).unwrap();
        let events = b.unpublish(SensorId(1)).unwrap();
        assert_eq!(events.len(), 1); // only the match-all sub
        match &events[0] {
            BrokerEvent::SensorLeft {
                subscription,
                sensor,
            } => {
                assert_eq!(*subscription, s1);
                assert_eq!(*sensor, SensorId(1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn matching_lists_current_sensors() {
        let mut b = Broker::new();
        b.publish(ad(1, "weather/rain")).unwrap();
        b.publish(ad(2, "weather/temperature")).unwrap();
        b.publish(ad(3, "social/tweet")).unwrap();
        let sub = b.subscribe(SubscriptionFilter::any().with_theme(Theme::new("weather").unwrap()));
        let m = b.matching(sub).unwrap();
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn unsubscribe_stops_notifications() {
        let mut b = Broker::new();
        let sub = b.subscribe(SubscriptionFilter::any());
        b.unsubscribe(sub).unwrap();
        assert!(b.unsubscribe(sub).is_err());
        assert!(b.filter_of(sub).is_err());
        let events = b.publish(ad(1, "weather")).unwrap();
        assert!(events.is_empty());
        assert_eq!(b.subscription_count(), 0);
    }

    #[test]
    fn broker_metrics_count_matches() {
        let mut b = Broker::new();
        b.subscribe(SubscriptionFilter::any());
        b.subscribe(SubscriptionFilter::any().with_theme(Theme::new("social").unwrap()));
        b.publish(ad(1, "weather/rain")).unwrap(); // matches 1 sub
        b.publish(ad(2, "social/tweet")).unwrap(); // matches 2 subs
        b.unpublish(SensorId(1)).unwrap();
        let snap = b.metrics_snapshot();
        assert_eq!(snap.counters["subscribes"], 2);
        assert_eq!(snap.counters["publishes"], 2);
        assert_eq!(snap.counters["unpublishes"], 1);
        assert_eq!(snap.counters["notifications"], 1 + 2 + 1);
        assert_eq!(snap.hists["match_us"].count, 3);
    }

    #[test]
    fn liveness_sweep_expires_silent_sensors() {
        let mut b = Broker::new();
        let sub = b.subscribe(SubscriptionFilter::any());
        b.publish(ad(1, "weather/rain")).unwrap(); // period 1 s
        b.publish(ad(2, "weather/rain")).unwrap();
        let t0 = sl_stt::Timestamp::from_secs(0);
        b.heartbeat(SensorId(1), t0);
        b.heartbeat(SensorId(2), t0);
        // Sensor 2 keeps beating, sensor 1 goes silent.
        b.heartbeat(SensorId(2), sl_stt::Timestamp::from_secs(9));
        // Grace 3 × 1 s period: at t=10 sensor 1 is 10 s silent -> stale.
        let expired = b.sweep_stale(sl_stt::Timestamp::from_secs(10), 3);
        assert_eq!(expired.len(), 1);
        let (dead_ad, events) = &expired[0];
        assert_eq!(dead_ad.id, SensorId(1));
        assert_eq!(events.len(), 1);
        match &events[0] {
            BrokerEvent::SensorLeft {
                subscription,
                sensor,
            } => {
                assert_eq!(*subscription, sub);
                assert_eq!(*sensor, SensorId(1));
            }
            other => panic!("{other:?}"),
        }
        // The stale ad is gone from the registry; the live one remains.
        assert!(!b.registry().contains(SensorId(1)));
        assert!(b.registry().contains(SensorId(2)));
        assert_eq!(b.last_seen(SensorId(1)), None);
        assert_eq!(b.metrics_snapshot().counters["expired"], 1);
        // A second sweep finds nothing new.
        assert!(b
            .sweep_stale(sl_stt::Timestamp::from_secs(11), 3)
            .is_empty());
    }

    #[test]
    fn sensors_without_heartbeat_are_exempt() {
        let mut b = Broker::new();
        b.publish(ad(1, "weather/rain")).unwrap();
        // Never heartbeated: the watchdog leaves it alone indefinitely.
        assert!(b
            .sweep_stale(sl_stt::Timestamp::from_secs(3600), 3)
            .is_empty());
        assert!(b.registry().contains(SensorId(1)));
    }

    #[test]
    fn rejoin_after_expiry_is_clean() {
        let mut b = Broker::new();
        let _sub = b.subscribe(SubscriptionFilter::any());
        b.publish(ad(1, "weather/rain")).unwrap();
        b.heartbeat(SensorId(1), sl_stt::Timestamp::from_secs(0));
        b.sweep_stale(sl_stt::Timestamp::from_secs(100), 3);
        assert!(!b.registry().contains(SensorId(1)));
        // The sensor comes back: publish succeeds and notifies again.
        let events = b.publish(ad(1, "weather/rain")).unwrap();
        assert_eq!(events.len(), 1);
        b.heartbeat(SensorId(1), sl_stt::Timestamp::from_secs(101));
        assert!(b
            .sweep_stale(sl_stt::Timestamp::from_secs(102), 3)
            .is_empty());
    }

    #[test]
    fn credit_propagation_counts_transitions() {
        let mut b = Broker::new();
        assert!(b.credits().granted(SensorId(1)));
        assert!(b.set_credit(SensorId(1), false));
        assert!(!b.set_credit(SensorId(1), false)); // idempotent
        assert!(!b.credits().granted(SensorId(1)));
        assert!(b.set_credit(SensorId(1), true));
        assert!(b.credits().granted(SensorId(1)));
        let snap = b.metrics_snapshot();
        assert_eq!(snap.counters["credit_revokes"], 1);
        assert_eq!(snap.counters["credit_grants"], 1);
    }

    #[test]
    fn multiple_subscriptions_all_notified_in_order() {
        let mut b = Broker::new();
        let s1 = b.subscribe(SubscriptionFilter::any());
        let s2 = b.subscribe(SubscriptionFilter::any());
        let events = b.publish(ad(1, "weather")).unwrap();
        let subs: Vec<_> = events
            .iter()
            .map(|e| match e {
                BrokerEvent::SensorJoined { subscription, .. } => *subscription,
                BrokerEvent::SensorLeft { subscription, .. } => *subscription,
            })
            .collect();
        assert_eq!(subs, vec![s1, s2]);
    }
}
