//! Tuple caches for blocking operators.
//!
//! Blocking operations "require the maintenance of a cache of tuples that
//! are processed every t time intervals (e.g. 1 second, 2 minutes)"
//! (paper §3). Two cache disciplines are provided:
//!
//! * [`TumblingCache`] — collect everything since the last tick, drain on
//!   tick (Aggregation, Join, Trigger),
//! * [`SlidingWindow`] — retain the last `d` of virtual time.
//!
//! Both keep a cursor over their lifetime counters that says how much of the
//! cache a checkpoint log has already been told, so `take_delta` hands out
//! only what changed since ([`CheckpointDelta`]) and an undrained cursor
//! costs nothing.

use crate::checkpoint::CheckpointDelta;
use sl_stt::{Duration, Timestamp, Tuple};
use std::collections::VecDeque;

/// Everything-since-last-tick cache.
#[derive(Debug, Default)]
pub struct TumblingCache {
    tuples: Vec<Tuple>,
    /// Total tuples ever inserted (monitoring).
    inserted: u64,
    /// `inserted` as of the last [`TumblingCache::take_delta`] or emptying:
    /// the tuples pushed since are the cache's unlogged tail.
    logged: u64,
    /// Emptied (drained or cleared) since the last delta.
    reset: bool,
}

impl TumblingCache {
    /// Empty cache.
    pub fn new() -> TumblingCache {
        TumblingCache::default()
    }

    /// Buffer a tuple.
    pub fn push(&mut self, tuple: Tuple) {
        self.tuples.push(tuple);
        self.inserted += 1;
    }

    /// Tuples currently cached.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Read-only view of the cached tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Drain the cache for processing (the tick).
    pub fn drain(&mut self) -> Vec<Tuple> {
        let drained = std::mem::take(&mut self.tuples);
        self.clear();
        drained
    }

    /// Lifetime insert count.
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Discard all cached tuples without processing them (checkpoint
    /// restore / crash state-wipe). Does not count towards [`inserted`].
    ///
    /// [`inserted`]: TumblingCache::inserted
    pub fn clear(&mut self) {
        self.tuples.clear();
        (self.reset, self.logged) = (true, self.inserted);
    }

    /// What changed since the last call, with tuples tagged `port`: the
    /// tuples pushed since, after a `reset` if the cache was emptied in
    /// between. One clone per tuple handed out.
    pub fn take_delta(&mut self, port: usize) -> CheckpointDelta {
        let unlogged = (self.inserted - self.logged) as usize;
        let tail = &self.tuples[self.tuples.len() - unlogged..];
        let delta = CheckpointDelta {
            reset: self.reset,
            evicted: 0,
            appended: tail.iter().map(|t| (port, t.clone())).collect(),
        };
        (self.reset, self.logged) = (false, self.inserted);
        delta
    }
}

/// Time-based sliding window over tuple *timestamps*, kept in arrival
/// order; eviction pops from the front, O(evicted) per call.
#[derive(Debug)]
pub struct SlidingWindow {
    span: Duration,
    tuples: VecDeque<Tuple>,
    inserted: u64,
    evicted: u64,
    /// (`inserted`, `evicted`) as of the last [`SlidingWindow::take_delta`].
    logged: (u64, u64),
    /// Cleared since the last delta: the next one restarts the log.
    reset: bool,
}

impl SlidingWindow {
    /// A window retaining tuples stamped within the last `span`.
    pub fn new(span: Duration) -> SlidingWindow {
        SlidingWindow {
            span,
            tuples: VecDeque::new(),
            inserted: 0,
            evicted: 0,
            logged: (0, 0),
            reset: false,
        }
    }

    /// The window span.
    pub fn span(&self) -> Duration {
        self.span
    }

    /// Insert a tuple. Tuples are expected roughly in timestamp order:
    /// eviction stops at the first in-window tuple from the front, so a
    /// badly out-of-order tuple may survive slightly long.
    pub fn push(&mut self, tuple: Tuple, now: Timestamp) {
        self.tuples.push_back(tuple);
        self.inserted += 1;
        self.evict(now);
    }

    /// Evict tuples older than `now - span`.
    pub fn evict(&mut self, now: Timestamp) {
        let horizon = now.saturating_sub(self.span);
        while let Some(front) = self.tuples.front() {
            if front.meta.timestamp >= horizon {
                break;
            }
            self.tuples.pop_front();
            self.evicted += 1;
        }
    }

    /// Tuples currently in the window.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterate over in-window tuples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// Lifetime eviction count.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Discard all buffered tuples without evicting (checkpoint restore /
    /// crash state-wipe). Does not count towards [`evicted`].
    ///
    /// [`evicted`]: SlidingWindow::evicted
    pub fn clear(&mut self) {
        self.tuples.clear();
        self.reset = true;
    }

    /// What changed since the last call, with tuples tagged `port`: how
    /// many tuples left by the front, and the tuples pushed since that are
    /// still in the window — or, after a `reset`, the whole window. One
    /// clone per tuple handed out.
    pub fn take_delta(&mut self, port: usize) -> CheckpointDelta {
        let len = self.tuples.len();
        let pushed = (self.inserted - self.logged.0) as usize;
        let dropped = (self.evicted - self.logged.1) as usize;
        // Front eviction reaches a tuple pushed since the last delta only
        // after every older one: the survivors of those pushes are the
        // window's tail, and the rest of `dropped` came out of what the
        // log already holds.
        let (evicted, kept) = if self.reset {
            (0, len)
        } else {
            let kept = pushed.min(len);
            (dropped - (pushed - kept), kept)
        };
        let delta = CheckpointDelta {
            reset: self.reset,
            evicted,
            appended: (self.tuples.iter().skip(len - kept))
                .map(|t| (port, t.clone()))
                .collect(),
        };
        (self.reset, self.logged) = (false, (self.inserted, self.evicted));
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{AttrType, Field, Schema, SchemaRef, SensorId, SttMeta, Theme, Value};

    fn schema() -> SchemaRef {
        Schema::new(vec![Field::new("v", AttrType::Int)])
            .unwrap()
            .into_ref()
    }

    fn tuple_at(sec: i64, v: i64) -> Tuple {
        Tuple::new(
            schema(),
            vec![Value::Int(v)],
            SttMeta::without_location(
                Timestamp::from_secs(sec),
                Theme::unclassified(),
                SensorId(0),
            ),
        )
        .unwrap()
    }

    #[test]
    fn tumbling_drain_resets() {
        let mut c = TumblingCache::new();
        c.push(tuple_at(1, 1));
        c.push(tuple_at(2, 2));
        assert_eq!(c.len(), 2);
        let drained = c.drain();
        assert_eq!(drained.len(), 2);
        assert!(c.is_empty());
        assert_eq!(c.inserted(), 2);
        c.push(tuple_at(3, 3));
        assert_eq!(c.inserted(), 3);
        assert_eq!(c.tuples().len(), 1);
    }

    #[test]
    fn sliding_evicts_old_ring() {
        let mut w = SlidingWindow::new(Duration::from_secs(10));
        for s in 0..20 {
            w.push(tuple_at(s, s), Timestamp::from_secs(s));
        }
        // At t=19 the horizon is 9: tuples 9..=19 remain.
        assert_eq!(w.len(), 11);
        assert_eq!(w.evicted(), 9);
        let oldest = w.iter().next().unwrap();
        assert_eq!(oldest.meta.timestamp, Timestamp::from_secs(9));
    }

    #[test]
    fn evict_without_push() {
        let mut w = SlidingWindow::new(Duration::from_secs(5));
        w.push(tuple_at(0, 0), Timestamp::from_secs(0));
        w.evict(Timestamp::from_secs(100));
        assert!(w.is_empty());
    }

    #[test]
    fn deltas_count_only_what_the_log_already_held_as_evicted() {
        let mut w = SlidingWindow::new(Duration::from_secs(10));
        w.push(tuple_at(0, 0), Timestamp::from_secs(0));
        let first = w.take_delta(0);
        assert_eq!(
            (first.reset, first.evicted, first.appended.len()),
            (false, 0, 1)
        );
        // Two arrivals since; the second expires the logged tuple *and* the
        // first arrival, which the log never saw.
        w.push(tuple_at(5, 1), Timestamp::from_secs(5));
        w.push(tuple_at(30, 2), Timestamp::from_secs(30));
        let second = w.take_delta(0);
        assert_eq!((second.reset, second.evicted), (false, 1));
        let stamps: Vec<_> = second
            .appended
            .iter()
            .map(|(_, t)| t.meta.timestamp)
            .collect();
        assert_eq!(stamps, vec![Timestamp::from_secs(30)]);
        // An undrained cache hands everything out at once, after a reset if
        // it was emptied in between.
        let mut c = TumblingCache::new();
        c.push(tuple_at(1, 1));
        c.drain();
        c.push(tuple_at(2, 2));
        c.push(tuple_at(3, 3));
        let delta = c.take_delta(1);
        assert!(delta.reset && delta.appended.iter().all(|(port, _)| *port == 1));
        assert_eq!(delta.appended.len(), 2);
        assert!(c.take_delta(1).appended.is_empty());
    }

    #[test]
    fn empty_window_is_fine() {
        let mut w = SlidingWindow::new(Duration::from_secs(5));
        w.evict(Timestamp::from_secs(10));
        assert!(w.is_empty());
        assert_eq!(w.iter().count(), 0);
        assert_eq!(w.span(), Duration::from_secs(5));
    }
}
