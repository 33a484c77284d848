//! Bounded per-subscriber push queues.
//!
//! Every subscriber gets its own [`PushQueue`]: the hub pushes matched
//! deltas at ingest time, the client drains them at its own pace. A slow
//! client must not stall ingest or exhaust memory, so queues are bounded
//! and a [`QueuePolicy`] (the engine's ingress `OverflowPolicy`, one enum
//! defined in `sl-faults`) decides what happens when one fills up. Every
//! outcome is explicit: shed deltas are counted, and the `Block` policy
//! never silently drops — it marks the subscriber *lagged* so the client
//! knows it must re-synchronise with a snapshot.

use std::collections::VecDeque;

/// What to do when a subscriber's queue is full: the engine's ingress
/// [`OverflowPolicy`](sl_faults::OverflowPolicy) under its historical
/// `sl-cq` name. On a subscriber queue `Block` clears the backlog and marks
/// the subscriber [lagged](PushQueue::is_lagged); `Sample` draws from a
/// per-queue deterministic sampler.
pub use sl_faults::OverflowPolicy as QueuePolicy;

/// How a push was handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Enqueued without loss.
    Enqueued,
    /// Enqueued after shedding one older delta.
    DisplacedOldest,
    /// The incoming delta was dropped.
    DroppedNewest,
    /// The queue overflowed under [`QueuePolicy::Block`]: backlog cleared,
    /// subscriber now lagged (or it already was).
    Lagged,
}

/// A bounded FIFO of deltas for one subscriber.
#[derive(Debug, Clone)]
pub struct PushQueue<T> {
    items: VecDeque<T>,
    capacity: Option<usize>,
    policy: QueuePolicy,
    lagged: bool,
    delivered: u64,
    dropped: u64,
    rng: u64,
}

impl<T> PushQueue<T> {
    /// A queue holding at most `capacity` pending deltas (`None` =
    /// unbounded — lint SL091 flags this under engine admission control).
    /// `seed` keys the deterministic sampler for [`QueuePolicy::Sample`].
    pub fn new(capacity: Option<usize>, policy: QueuePolicy, seed: u64) -> PushQueue<T> {
        PushQueue {
            items: VecDeque::new(),
            capacity,
            policy,
            lagged: false,
            delivered: 0,
            dropped: 0,
            rng: seed | 1, // xorshift must not start at 0
        }
    }

    /// Offer one delta.
    pub fn push(&mut self, item: T) -> PushOutcome {
        if self.lagged {
            // The snapshot the client will fetch at catch-up already covers
            // this delta; queueing it would duplicate it.
            self.dropped += 1;
            return PushOutcome::Lagged;
        }
        let full = self.capacity.is_some_and(|c| self.items.len() >= c);
        if !full {
            self.items.push_back(item);
            return PushOutcome::Enqueued;
        }
        match self.policy {
            QueuePolicy::Block => {
                self.dropped += self.items.len() as u64 + 1;
                self.items.clear();
                self.lagged = true;
                PushOutcome::Lagged
            }
            QueuePolicy::ShedOldest => {
                self.items.pop_front();
                self.items.push_back(item);
                self.dropped += 1;
                PushOutcome::DisplacedOldest
            }
            QueuePolicy::ShedNewest => {
                self.dropped += 1;
                PushOutcome::DroppedNewest
            }
            QueuePolicy::Sample(p) => {
                if self.next_unit() < p {
                    self.items.pop_front();
                    self.items.push_back(item);
                    self.dropped += 1;
                    PushOutcome::DisplacedOldest
                } else {
                    self.dropped += 1;
                    PushOutcome::DroppedNewest
                }
            }
        }
    }

    /// Take every pending delta, oldest first.
    pub fn drain(&mut self) -> Vec<T> {
        self.delivered += self.items.len() as u64;
        self.items.drain(..).collect()
    }

    /// Pending deltas.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True if the queue overflowed under [`QueuePolicy::Block`] and the
    /// subscriber has not yet caught up from a snapshot.
    pub fn is_lagged(&self) -> bool {
        self.lagged
    }

    /// Clear the lag flag after the client re-synchronised from a snapshot.
    /// Any backlog is discarded (the snapshot supersedes it).
    pub fn mark_caught_up(&mut self) {
        self.lagged = false;
        self.items.clear();
    }

    /// Deltas handed to the client so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Deltas lost to shedding or lag so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Configured capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The overflow policy.
    pub fn policy(&self) -> QueuePolicy {
        self.policy
    }

    /// Deterministic xorshift64 draw in [0, 1). The hub is single-threaded
    /// and dependency-free, so no external RNG is pulled in for sampling.
    fn next_unit(&mut self) -> f64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        (x >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_capacity() {
        let mut q = PushQueue::new(Some(4), QueuePolicy::ShedOldest, 7);
        for i in 0..3 {
            assert_eq!(q.push(i), PushOutcome::Enqueued);
        }
        assert_eq!(q.drain(), vec![0, 1, 2]);
        assert_eq!(q.delivered(), 3);
        assert_eq!(q.dropped(), 0);
    }

    #[test]
    fn shed_oldest_keeps_newest() {
        let mut q = PushQueue::new(Some(2), QueuePolicy::ShedOldest, 7);
        q.push(1);
        q.push(2);
        assert_eq!(q.push(3), PushOutcome::DisplacedOldest);
        assert_eq!(q.drain(), vec![2, 3]);
        assert_eq!(q.dropped(), 1);
    }

    #[test]
    fn shed_newest_keeps_backlog() {
        let mut q = PushQueue::new(Some(2), QueuePolicy::ShedNewest, 7);
        q.push(1);
        q.push(2);
        assert_eq!(q.push(3), PushOutcome::DroppedNewest);
        assert_eq!(q.drain(), vec![1, 2]);
    }

    #[test]
    fn block_lags_and_catches_up() {
        let mut q = PushQueue::new(Some(2), QueuePolicy::Block, 7);
        q.push(1);
        q.push(2);
        assert_eq!(q.push(3), PushOutcome::Lagged);
        assert!(q.is_lagged());
        assert!(q.is_empty()); // backlog cleared, no stale partial state
        assert_eq!(q.dropped(), 3);
        // While lagged, pushes are absorbed by the pending snapshot.
        assert_eq!(q.push(4), PushOutcome::Lagged);
        q.mark_caught_up();
        assert!(!q.is_lagged());
        assert_eq!(q.push(5), PushOutcome::Enqueued);
        assert_eq!(q.drain(), vec![5]);
    }

    #[test]
    fn sample_is_deterministic_and_roughly_fair() {
        let run = |seed| {
            let mut q = PushQueue::new(Some(1), QueuePolicy::Sample(0.5), seed);
            q.push(0);
            (0..1000)
                .filter(|&i| q.push(i) == PushOutcome::DisplacedOldest)
                .count()
        };
        assert_eq!(run(42), run(42)); // deterministic
        let admitted = run(42);
        assert!((300..700).contains(&admitted), "admitted {admitted}");
    }

    #[test]
    fn unbounded_never_sheds() {
        let mut q = PushQueue::new(None, QueuePolicy::Block, 7);
        for i in 0..10_000 {
            assert_eq!(q.push(i), PushOutcome::Enqueued);
        }
        assert_eq!(q.len(), 10_000);
        assert_eq!(q.dropped(), 0);
    }
}
