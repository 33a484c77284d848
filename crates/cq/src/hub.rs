//! The standing-query hub.
//!
//! A [`CqHub`] owns every registration: event subscriptions (predicate +
//! per-subscriber [`PushQueue`]) and materialized roll-up views. The
//! ingest path calls [`CqHub::on_events`] with each batch of warehouse-
//! bound events and [`CqHub::on_evict`] at eviction, and the hub does all
//! delta evaluation inline — no rescans, no background threads. With
//! nothing registered the hub is [idle](CqHub::is_idle) and the ingest
//! path skips it entirely, so an unused hub costs nothing.
//!
//! ## Query groups
//!
//! Subscriptions whose standing queries are equal share one group: an
//! ingested event is matched once per distinct query, not once per
//! subscriber, and then pushed into each member's own queue. Groups are
//! kept current by [`CqHub::subscribe`] and [`CqHub::unsubscribe`], so the
//! ingest path never looks for them.
//!
//! ## Catch-up protocol
//!
//! Deltas carry a monotonic sequence number ([`CqHub::seq`], one per
//! ingested event). A late joiner (or a subscriber whose `Block`-policy
//! queue overflowed and went *lagged*) re-synchronises in three steps: the
//! caller takes a snapshot of the warehouse under the subscription's
//! query, calls [`CqHub::mark_caught_up`] (which clears the lag flag and
//! any superseded backlog), and resumes polling. Every delta polled
//! afterwards has a sequence number greater than the snapshot's, so the
//! client can splice streams without duplicates or gaps.

use crate::queue::{PushOutcome, PushQueue, QueuePolicy};
use crate::view::MaterializedView;
use sl_obs::{Counter, Gauge, Histogram, MetricsSnapshot, Stopwatch};
use sl_stt::{Event, Timestamp};
use sl_warehouse::{CubeCell, CubeQuery, EventQuery};
use std::collections::BTreeMap;

/// Handle to an event subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriberId(pub u64);

/// Handle to a materialized view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ViewId(pub u64);

impl std::fmt::Display for SubscriberId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl std::fmt::Display for ViewId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

struct Subscription {
    name: String,
    /// Index of the [`QueryGroup`] holding this subscription's query.
    group: usize,
    queue: PushQueue<Event>,
}

/// One distinct standing query and how many subscriptions share it.
struct QueryGroup {
    query: EventQuery,
    members: usize,
}

struct ViewReg {
    name: String,
    view: MaterializedView,
}

/// One poll's worth of deltas for a subscriber.
#[derive(Debug, Clone)]
pub struct CqPoll {
    /// Matched events since the last poll, oldest first.
    pub deltas: Vec<Event>,
    /// Deltas this subscriber has lost to shedding or lag, cumulative.
    pub dropped: u64,
    /// True if the subscriber fell behind under [`QueuePolicy::Block`] and
    /// must catch up from a snapshot before deltas resume.
    pub lagged: bool,
    /// Hub sequence number at poll time (one per ingested event).
    pub seq: u64,
}

/// Liveness summary of one subscription (for monitors and lint), borrowed
/// from the hub: reading one clones nothing.
#[derive(Debug, Clone, Copy)]
pub struct SubscriptionStat<'a> {
    /// The subscription's handle.
    pub id: SubscriberId,
    /// Client-supplied name.
    pub name: &'a str,
    /// Deltas currently queued.
    pub depth: usize,
    /// Deltas drained by the client so far.
    pub delivered: u64,
    /// Deltas lost to shedding or lag so far.
    pub dropped: u64,
    /// True if awaiting snapshot catch-up.
    pub lagged: bool,
    /// True if the queue has a capacity bound.
    pub bounded: bool,
}

/// Liveness summary of one materialized view (for monitors and lint),
/// borrowed from the hub like [`SubscriptionStat`].
#[derive(Debug, Clone, Copy)]
pub struct ViewStat<'a> {
    /// The view's handle.
    pub id: ViewId,
    /// Client-supplied name.
    pub name: &'a str,
    /// Live (non-empty) cells.
    pub cells: usize,
    /// Contributions currently held.
    pub contributions: usize,
    /// True if the standing query bounds its time range.
    pub time_bounded: bool,
}

sl_obs::instruments! {
    /// The hub's instruments (`cq/*` in the engine's snapshot; the
    /// per-subscriber queue depths are read off the queues).
    struct HubInstruments {
        match_us: Histogram = "match_us",
        fanout_deltas: Counter = "fanout_deltas",
        dropped_deltas: Counter = "dropped_deltas",
        delivered_deltas: Counter = "delivered_deltas",
        view_contributions: Counter = "view_contributions",
        view_retractions: Counter = "view_retractions",
        subscribers: Gauge = "subscribers",
        views: Gauge = "views",
    }
}

/// Registry and delta-evaluation engine for continuous queries.
#[derive(Default)]
pub struct CqHub {
    subs: BTreeMap<u64, Subscription>,
    /// The distinct queries of `subs`, each matched once per event.
    groups: Vec<QueryGroup>,
    /// Whether each group's query matched the event in hand; refilled per
    /// event, so it allocates only when a group is added.
    hits: Vec<bool>,
    views: BTreeMap<u64, ViewReg>,
    next_sub: u64,
    next_view: u64,
    seq: u64,
    inst: HubInstruments,
}

impl CqHub {
    /// An empty hub.
    pub fn new() -> CqHub {
        CqHub::default()
    }

    /// True if nothing is registered — the ingest path's fast-path guard.
    pub fn is_idle(&self) -> bool {
        self.subs.is_empty() && self.views.is_empty()
    }

    /// Events ingested past the hub so far (the delta sequence number).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Register a standing [`EventQuery`]. Matched events are pushed to a
    /// queue of `capacity` deltas (`None` = unbounded) governed by
    /// `policy` on overflow.
    pub fn subscribe(
        &mut self,
        name: &str,
        query: EventQuery,
        capacity: Option<usize>,
        policy: QueuePolicy,
    ) -> SubscriberId {
        self.next_sub += 1;
        let id = self.next_sub;
        let group = match self.groups.iter().position(|g| g.query == query) {
            Some(g) => {
                self.groups[g].members += 1;
                g
            }
            None => {
                self.groups.push(QueryGroup { query, members: 1 });
                self.groups.len() - 1
            }
        };
        self.subs.insert(
            id,
            Subscription {
                name: name.to_string(),
                group,
                queue: PushQueue::new(capacity, policy, id.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            },
        );
        self.inst.subscribers.set(self.subs.len() as i64);
        SubscriberId(id)
    }

    /// Remove a subscription. Returns `false` if the handle is unknown.
    pub fn unsubscribe(&mut self, id: SubscriberId) -> bool {
        let Some(sub) = self.subs.remove(&id.0) else {
            return false;
        };
        self.leave_group(sub.group);
        self.inst.subscribers.set(self.subs.len() as i64);
        true
    }

    /// A member of group `g` left. The last one takes the group with it:
    /// the last group moves into its slot, and that group's members follow.
    fn leave_group(&mut self, g: usize) {
        let Some(group) = self.groups.get_mut(g) else {
            return;
        };
        group.members -= 1;
        if group.members > 0 {
            return;
        }
        self.groups.swap_remove(g);
        let moved = self.groups.len();
        if moved != g {
            for sub in self.subs.values_mut().filter(|s| s.group == moved) {
                sub.group = g;
            }
        }
    }

    /// Register a materialized roll-up view, seeding it from `existing`
    /// (the warehouse's current hot contents, in storage order) so that
    /// the view starts byte-identical to a rescan.
    pub fn register_view<'a>(
        &mut self,
        name: &str,
        query: CubeQuery,
        existing: impl IntoIterator<Item = &'a Event>,
    ) -> ViewId {
        self.next_view += 1;
        let id = self.next_view;
        let mut view = MaterializedView::new(query);
        let mut seeded = 0u64;
        for event in existing {
            if view.absorb(event) {
                seeded += 1;
            }
        }
        self.inst.view_contributions.add(seeded);
        self.views.insert(
            id,
            ViewReg {
                name: name.to_string(),
                view,
            },
        );
        self.inst.views.set(self.views.len() as i64);
        ViewId(id)
    }

    /// Remove a view. Returns `false` if the handle is unknown.
    pub fn drop_view(&mut self, id: ViewId) -> bool {
        let removed = self.views.remove(&id.0).is_some();
        if removed {
            self.inst.views.set(self.views.len() as i64);
        }
        removed
    }

    /// Evaluate one ingest batch against every registration: each event is
    /// matched once per distinct subscription query and pushed to every
    /// subscriber of a query it matched, and each view folds in its cell
    /// updates. Call with the exact events handed to the warehouse.
    pub fn on_events(&mut self, events: &[Event]) {
        if self.is_idle() || events.is_empty() {
            self.seq += events.len() as u64;
            return;
        }
        let sw = Stopwatch::start();
        let mut fanout = 0u64;
        let mut dropped = 0u64;
        let mut contributed = 0u64;
        for event in events {
            self.seq += 1;
            self.hits.clear();
            self.hits
                .extend(self.groups.iter().map(|g| g.query.matches(event)));
            for sub in self.subs.values_mut() {
                if !self.hits[sub.group] {
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
            for reg in self.views.values_mut() {
                if reg.view.absorb(event) {
                    contributed += 1;
                }
            }
        }
        if contributed > 0 {
            self.inst.view_contributions.add(contributed);
        }
        self.inst.fanout_deltas.add(fanout);
        self.inst.dropped_deltas.add(dropped);
        self.inst.match_us.record(sw.elapsed_us());
    }

    /// Mirror a warehouse `evict_before(horizon)`: every view retracts the
    /// contributions of the evicted events.
    pub fn on_evict(&mut self, horizon: Timestamp) {
        let mut retracted = 0usize;
        for reg in self.views.values_mut() {
            retracted += reg.view.retract_before(horizon);
        }
        self.inst.view_retractions.add(retracted as u64);
    }

    /// Drain a subscriber's pending deltas. `None` if the handle is
    /// unknown.
    pub fn poll(&mut self, id: SubscriberId) -> Option<CqPoll> {
        let sub = self.subs.get_mut(&id.0)?;
        let lagged = sub.queue.is_lagged();
        let deltas = sub.queue.drain();
        self.inst.delivered_deltas.add(deltas.len() as u64);
        Some(CqPoll {
            deltas,
            dropped: sub.queue.dropped(),
            lagged,
            seq: self.seq,
        })
    }

    /// Clear a subscriber's lag flag after it re-synchronised from a
    /// snapshot (see the module docs for the protocol). Returns `false`
    /// if the handle is unknown.
    pub fn mark_caught_up(&mut self, id: SubscriberId) -> bool {
        match self.subs.get_mut(&id.0) {
            Some(sub) => {
                sub.queue.mark_caught_up();
                true
            }
            None => false,
        }
    }

    /// A subscription's standing query. `None` if the handle is unknown.
    pub fn subscription_query(&self, id: SubscriberId) -> Option<&EventQuery> {
        let sub = self.subs.get(&id.0)?;
        self.groups.get(sub.group).map(|g| &g.query)
    }

    /// A view's current cells — the incrementally maintained answer.
    /// `None` if the handle is unknown.
    pub fn view_cells(&self, id: ViewId) -> Option<Vec<CubeCell>> {
        self.views.get(&id.0).map(|r| r.view.cells())
    }

    /// Liveness summaries of every subscription, by id.
    pub fn subscription_stats(&self) -> Vec<SubscriptionStat<'_>> {
        self.subs
            .iter()
            .map(|(&id, s)| SubscriptionStat {
                id: SubscriberId(id),
                name: &s.name,
                depth: s.queue.len(),
                delivered: s.queue.delivered(),
                dropped: s.queue.dropped(),
                lagged: s.queue.is_lagged(),
                bounded: s.queue.capacity().is_some(),
            })
            .collect()
    }

    /// Liveness summaries of every view, by id.
    pub fn view_stats(&self) -> Vec<ViewStat<'_>> {
        self.views
            .iter()
            .map(|(&id, r)| ViewStat {
                id: ViewId(id),
                name: &r.name,
                cells: r.view.cell_count(),
                contributions: r.view.contribution_count(),
                time_bounded: r.view.query().select.time.is_some(),
            })
            .collect()
    }

    /// Snapshot of the hub's instruments: `match_us` latency histogram,
    /// `fanout_deltas`/`dropped_deltas`/`delivered_deltas` and
    /// `view_contributions`/`view_retractions` counters, `subscribers`/
    /// `views` gauges, and a `sub/<id>/queue_depth` gauge per subscriber —
    /// read off the subscriber's queue here, so it is exact at every
    /// snapshot and leaves the snapshot with an unsubscribed subscriber.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.inst.snapshot();
        for (id, sub) in &self.subs {
            let depth = sub.queue.len() as i64;
            snap.gauges.insert(format!("sub/{id}/queue_depth"), depth);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{GeoPoint, SpatialGranularity, TemporalGranularity, Theme, TimeInterval, Value};

    fn event(min: i64, theme: &str, v: f64) -> Event {
        Event::new(
            Value::Float(v),
            TemporalGranularity::Minute,
            TemporalGranularity::Minute.granule_of(Timestamp::from_secs(min * 60)),
            SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(34.7, 135.5)),
            Theme::new(theme).unwrap(),
        )
    }

    fn hourly() -> CubeQuery {
        CubeQuery {
            select: EventQuery::all(),
            tgran: TemporalGranularity::Hour,
            sgran: SpatialGranularity::World,
            theme_depth: 1,
        }
    }

    #[test]
    fn idle_hub_only_advances_seq() {
        let mut hub = CqHub::new();
        assert!(hub.is_idle());
        hub.on_events(&[event(0, "weather/temp", 1.0)]);
        assert_eq!(hub.seq(), 1);
        assert!(hub.metrics_snapshot().counters.is_empty());
    }

    #[test]
    fn subscription_receives_only_matches() {
        let mut hub = CqHub::new();
        let id = hub.subscribe(
            "weather",
            EventQuery::all().with_theme(Theme::new("weather").unwrap()),
            Some(16),
            QueuePolicy::Block,
        );
        hub.on_events(&[
            event(0, "weather/temp", 1.0),
            event(0, "social/tweet", 2.0),
            event(1, "weather/rain", 3.0),
        ]);
        let poll = hub.poll(id).unwrap();
        assert_eq!(poll.deltas.len(), 2);
        assert_eq!(poll.seq, 3);
        assert!(!poll.lagged);
        assert_eq!(poll.dropped, 0);
        // Second poll is empty: deltas are consumed.
        assert!(hub.poll(id).unwrap().deltas.is_empty());
    }

    #[test]
    fn equal_queries_share_one_group() {
        let mut hub = CqHub::new();
        let weather = || EventQuery::all().with_theme(Theme::new("weather").unwrap());
        let a = hub.subscribe("a", weather(), None, QueuePolicy::Block);
        let b = hub.subscribe("b", EventQuery::all(), None, QueuePolicy::Block);
        let c = hub.subscribe("c", weather(), None, QueuePolicy::Block);
        assert_eq!(hub.groups.len(), 2, "a and c share one query");
        // The first group empties, and the last one moves into its slot.
        assert!(hub.unsubscribe(a));
        assert_eq!(hub.groups.len(), 2);
        assert!(hub.unsubscribe(c));
        assert_eq!(hub.groups.len(), 1);
        assert_eq!(hub.subscription_query(b), Some(&EventQuery::all()));
        hub.on_events(&[event(0, "weather/temp", 1.0), event(0, "social/tweet", 2.0)]);
        assert_eq!(hub.poll(b).unwrap().deltas.len(), 2);
    }

    #[test]
    fn block_overflow_requires_catch_up() {
        let mut hub = CqHub::new();
        let id = hub.subscribe("slow", EventQuery::all(), Some(2), QueuePolicy::Block);
        hub.on_events(&[
            event(0, "a", 0.0),
            event(1, "a", 1.0),
            event(2, "a", 2.0), // overflow: lag
            event(3, "a", 3.0),
        ]);
        let poll = hub.poll(id).unwrap();
        assert!(poll.lagged);
        assert!(poll.deltas.is_empty());
        assert_eq!(poll.dropped, 4);
        assert!(hub.mark_caught_up(id));
        hub.on_events(&[event(4, "a", 4.0)]);
        let poll = hub.poll(id).unwrap();
        assert!(!poll.lagged);
        assert_eq!(poll.deltas.len(), 1);
    }

    #[test]
    fn view_lifecycle_with_seed_and_evict() {
        let mut hub = CqHub::new();
        let seed = [event(0, "weather/temp", 1.0), event(1, "weather/temp", 2.0)];
        let vid = hub.register_view("dash", hourly(), seed.iter());
        let cells = hub.view_cells(vid).unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].count, 2);
        hub.on_events(&[event(2, "weather/temp", 3.0)]);
        assert_eq!(hub.view_cells(vid).unwrap()[0].count, 3);
        hub.on_evict(Timestamp::from_secs(3 * 60));
        assert!(hub.view_cells(vid).unwrap().is_empty());
        assert!(hub.drop_view(vid));
        assert!(hub.view_cells(vid).is_none());
        assert!(!hub.drop_view(vid));
    }

    #[test]
    fn stats_and_metrics_track_activity() {
        let mut hub = CqHub::new();
        let sid = hub.subscribe("s", EventQuery::all(), Some(8), QueuePolicy::ShedOldest);
        let bounded_time = EventQuery::all().in_time(TimeInterval::new(
            Timestamp::from_secs(0),
            Timestamp::from_secs(3600),
        ));
        hub.register_view(
            "v",
            CubeQuery {
                select: bounded_time,
                ..hourly()
            },
            std::iter::empty(),
        );
        hub.on_events(&[event(0, "weather/temp", 1.0)]);
        let subs = hub.subscription_stats();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].depth, 1);
        assert!(subs[0].bounded);
        let views = hub.view_stats();
        assert_eq!(views.len(), 1);
        assert!(views[0].time_bounded);
        assert_eq!(views[0].contributions, 1);
        let snap = hub.metrics_snapshot();
        assert_eq!(snap.counters.get("fanout_deltas"), Some(&1));
        assert_eq!(
            snap.gauges.get(&format!("sub/{}/queue_depth", sid.0)),
            Some(&1)
        );
        hub.poll(sid);
        assert_eq!(
            hub.metrics_snapshot()
                .gauges
                .get(&format!("sub/{}/queue_depth", sid.0)),
            Some(&0)
        );
        assert!(hub.unsubscribe(sid));
        assert!(hub.poll(sid).is_none());
        assert!(hub
            .metrics_snapshot()
            .gauges
            .keys()
            .all(|k| !k.starts_with("sub/")));
    }
}
