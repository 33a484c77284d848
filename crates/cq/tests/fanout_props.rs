//! Subscription fan-out against its specification: the hub's subscription
//! side from before subscribers were grouped by query, copied verbatim into
//! `reference` below, where every subscriber's own query is matched against
//! every event. It is kept as the specification because there is no
//! whole-system oracle yet to compare the grouped fan-out against.
//!
//! Over arbitrary interleavings of subscribe, unsubscribe, ingest, poll and
//! catch-up, with queries drawn from a small pool (so equal queries share a
//! group, and groups empty and fill again), every overflow policy and
//! capacities 1 to 8, every poll of the grouped hub (deltas, `dropped`,
//! `lagged`, `seq`) equals the reference's, and so do the fan-out and drop
//! counters.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::prelude::*;
use sl_cq::{CqHub, QueuePolicy, SubscriberId};
use sl_stt::{
    Event, GeoPoint, SpatialGranularity, TemporalGranularity, Theme, TimeInterval, Timestamp, Value,
};
use sl_warehouse::EventQuery;

/// The previous hub's subscription side, verbatim; names, views and
/// instruments are left out (none takes part in the fan-out), and the
/// fan-out and drop counts are summed in two fields.
mod reference {
    use sl_cq::{CqPoll, PushOutcome, PushQueue, QueuePolicy, SubscriberId};
    use sl_stt::Event;
    use sl_warehouse::EventQuery;
    use std::collections::BTreeMap;

    struct Subscription {
        query: EventQuery,
        queue: PushQueue<Event>,
    }

    #[derive(Default)]
    pub(crate) struct Hub {
        subs: BTreeMap<u64, Subscription>,
        next_sub: u64,
        seq: u64,
        pub fanout: u64,
        pub dropped: u64,
    }

    impl Hub {
        pub(crate) fn is_idle(&self) -> bool {
            self.subs.is_empty()
        }

        pub(crate) fn seq(&self) -> u64 {
            self.seq
        }

        pub(crate) fn subscribe(
            &mut self,
            query: EventQuery,
            capacity: Option<usize>,
            policy: QueuePolicy,
        ) -> SubscriberId {
            self.next_sub += 1;
            let id = self.next_sub;
            self.subs.insert(
                id,
                Subscription {
                    query,
                    queue: PushQueue::new(capacity, policy, id.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                },
            );
            SubscriberId(id)
        }

        pub(crate) fn unsubscribe(&mut self, id: SubscriberId) -> bool {
            self.subs.remove(&id.0).is_some()
        }

        pub(crate) fn on_events(&mut self, events: &[Event]) {
            if self.is_idle() || events.is_empty() {
                self.seq += events.len() as u64;
                return;
            }
            let mut fanout = 0u64;
            let mut dropped = 0u64;
            for event in events {
                self.seq += 1;
                for sub in self.subs.values_mut() {
                    if !sub.query.matches(event) {
                        continue;
                    }
                    fanout += 1;
                    match sub.queue.push(event.clone()) {
                        PushOutcome::Enqueued => {}
                        PushOutcome::DisplacedOldest
                        | PushOutcome::DroppedNewest
                        | PushOutcome::Lagged => dropped += 1,
                    }
                }
            }
            self.fanout += fanout;
            self.dropped += dropped;
        }

        pub(crate) fn poll(&mut self, id: SubscriberId) -> Option<CqPoll> {
            let sub = self.subs.get_mut(&id.0)?;
            let lagged = sub.queue.is_lagged();
            let deltas = sub.queue.drain();
            Some(CqPoll {
                deltas,
                dropped: sub.queue.dropped(),
                lagged,
                seq: self.seq,
            })
        }

        pub(crate) fn mark_caught_up(&mut self, id: SubscriberId) -> bool {
            match self.subs.get_mut(&id.0) {
                Some(sub) => {
                    sub.queue.mark_caught_up();
                    true
                }
                None => false,
            }
        }

        pub(crate) fn subscription_query(&self, id: SubscriberId) -> Option<&EventQuery> {
            self.subs.get(&id.0).map(|s| &s.query)
        }
    }
}

/// The query pool: few enough that subscribers share queries, built afresh
/// on every use so that sharing rests on equality, not identity.
fn query(i: usize) -> EventQuery {
    let theme = |t: &str| Theme::new(t).unwrap();
    match i {
        0 => EventQuery::all(),
        1 => EventQuery::all().with_theme(theme("weather")),
        2 => EventQuery::all().with_theme(theme("social/tweet")),
        _ => EventQuery::all()
            .with_theme(theme("weather"))
            .in_time(TimeInterval::new(
                Timestamp::from_secs(0),
                Timestamp::from_secs(60_000),
            )),
    }
}

fn policy(i: usize) -> QueuePolicy {
    match i {
        0 => QueuePolicy::Block,
        1 => QueuePolicy::ShedOldest,
        2 => QueuePolicy::ShedNewest,
        _ => QueuePolicy::Sample(0.5),
    }
}

fn arb_event() -> impl Strategy<Value = Event> {
    let themes = prop_oneof![
        Just("weather/temperature"),
        Just("weather/rain"),
        Just("social/tweet"),
        Just("traffic/speed"),
    ];
    (0i64..120_000, themes, -40.0f64..40.0).prop_map(|(sec, theme, v)| {
        Event::new(
            Value::Float(v),
            TemporalGranularity::Minute,
            TemporalGranularity::Minute.granule_of(Timestamp::from_secs(sec)),
            SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(34.7, 135.5)),
            Theme::new(theme).unwrap(),
        )
    })
}

#[derive(Debug, Clone)]
enum Op {
    /// Query, capacity (`None` = unbounded), policy.
    Subscribe(usize, Option<usize>, usize),
    /// The `n`-th live subscription (modulo how many there are), as below.
    Unsubscribe(usize),
    Ingest(Vec<Event>),
    Poll(usize),
    CatchUp(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    // Weighted by a discriminant (the vendored prop_oneof! has no weight
    // syntax): ingest 40 %, subscribe 20 %, poll 20 %, unsubscribe and
    // catch-up 10 % each.
    let capacity = (0usize..9).prop_map(|c| (c > 0).then_some(c));
    (
        0u8..10,
        0usize..4,
        capacity,
        0usize..4,
        0usize..64,
        proptest::collection::vec(arb_event(), 0..6),
    )
        .prop_map(|(k, q, cap, p, n, events)| match k {
            0 | 1 => Op::Subscribe(q, cap, p),
            2 => Op::Unsubscribe(n),
            3 | 4 => Op::Poll(n),
            5 => Op::CatchUp(n),
            _ => Op::Ingest(events),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn grouped_fanout_polls_like_the_per_subscriber_loop(
        ops in proptest::collection::vec(arb_op(), 1..80)
    ) {
        let mut hub = CqHub::new();
        let mut spec = reference::Hub::default();
        let mut live: Vec<SubscriberId> = Vec::new();
        let pick = |live: &[SubscriberId], n: usize| live.get(n % live.len().max(1)).copied();
        for op in ops {
            match op {
                Op::Subscribe(q, cap, p) => {
                    let id = hub.subscribe("s", query(q), cap, policy(p));
                    prop_assert_eq!(spec.subscribe(query(q), cap, policy(p)), id);
                    live.push(id);
                }
                Op::Unsubscribe(n) => {
                    if let Some(id) = pick(&live, n) {
                        live.retain(|l| *l != id);
                        prop_assert!(hub.unsubscribe(id));
                        prop_assert!(spec.unsubscribe(id));
                        prop_assert!(!hub.unsubscribe(id));
                    }
                }
                Op::Ingest(events) => {
                    hub.on_events(&events);
                    spec.on_events(&events);
                }
                Op::Poll(n) => {
                    if let Some(id) = pick(&live, n) {
                        let (got, want) = (hub.poll(id).unwrap(), spec.poll(id).unwrap());
                        prop_assert_eq!(&got.deltas, &want.deltas);
                        prop_assert_eq!(got.dropped, want.dropped);
                        prop_assert_eq!(got.lagged, want.lagged);
                        prop_assert_eq!(got.seq, want.seq);
                    }
                }
                Op::CatchUp(n) => {
                    if let Some(id) = pick(&live, n) {
                        prop_assert!(hub.mark_caught_up(id));
                        prop_assert!(spec.mark_caught_up(id));
                    }
                }
            }
            prop_assert_eq!(hub.seq(), spec.seq());
            let counters = hub.metrics_snapshot().counters;
            let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
            prop_assert_eq!(counter("fanout_deltas"), spec.fanout);
            prop_assert_eq!(counter("dropped_deltas"), spec.dropped);
            for id in &live {
                prop_assert_eq!(hub.subscription_query(*id), spec.subscription_query(*id));
            }
        }
        // What is still queued is the same too.
        for id in live {
            let (got, want) = (hub.poll(id).unwrap(), spec.poll(id).unwrap());
            prop_assert_eq!(&got.deltas, &want.deltas);
            prop_assert_eq!(got.dropped, want.dropped);
            prop_assert_eq!(got.lagged, want.lagged);
        }
    }
}
