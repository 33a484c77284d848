//! Bounded ingress accounting for the overload-control layer.
//!
//! The engine cannot remove an already-scheduled delivery from its global
//! event queue, so "shed the oldest" is implemented *deferredly*: at
//! overflow the newest tuple is admitted and a [`ShedPolicy`] marker is
//! pushed onto the target operator's pending-shed queue; the next delivery
//! to arrive at that operator (necessarily the oldest in flight) is
//! dead-lettered instead of processed. Queue depth is conserved (+1
//! admitted, −1 condemned), so every queue stays ≤ its bound at all times.
//!
//! [`IngressState`] is one operator's queue: the in-flight depth (the only
//! copy of that number — the monitor's `depth=` column and `queue_depth`
//! gauge read it), the pending-shed markers, and a per-monitor-window
//! high-watermark that feeds backlog-driven re-placement. It lives in the
//! operator's counters on its endpoint record; `crate::delivery` is its
//! only writer.

use sl_faults::ShedPolicy;
use std::collections::VecDeque;

/// Per-operator ingress state.
#[derive(Debug, Default, Clone)]
pub struct IngressState {
    /// Scheduled-but-undelivered deliveries bound for this operator.
    pub depth: u64,
    /// Deferred shed markers: each condemns the next-arriving delivery.
    pub pending: VecDeque<ShedPolicy>,
    /// Largest depth seen since the last monitor sample.
    pub high_watermark: u64,
}

impl IngressState {
    /// Record an admitted delivery (depth +1, watermark refreshed).
    pub fn admit(&mut self) {
        self.depth += 1;
        self.high_watermark = self.high_watermark.max(self.depth);
    }

    /// Condemn the oldest in-flight delivery: push a deferred shed marker
    /// and release its depth slot immediately (the marker's arrival
    /// consumes no further accounting).
    pub fn condemn_oldest(&mut self, policy: ShedPolicy) {
        self.pending.push_back(policy);
        self.release();
    }

    /// Record a delivered (processed) tuple: depth −1.
    pub fn release(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    /// This window's high-watermark, restarting the next window from the
    /// *current* depth.
    pub fn drain_watermark(&mut self) -> u64 {
        std::mem::replace(&mut self.high_watermark, self.depth)
    }
}

/// The preemption victim when the global cap is hit: among `queues` —
/// `(priority rank of the deployment, depth, queue)` in name order, the
/// incoming tuple's own queue excluded by the caller — the one with queued
/// work in the lowest class (lower rank sheds first), deepest first; ties
/// go to the first in iteration order. Returns its rank with it.
pub(crate) fn preemption_victim<Q>(queues: impl Iterator<Item = (u8, u64, Q)>) -> Option<(u8, Q)> {
    queues
        .filter(|(_, depth, _)| *depth > 0)
        .min_by(|(class_a, depth_a, _), (class_b, depth_b, _)| {
            class_a.cmp(class_b).then(depth_b.cmp(depth_a))
        })
        .map(|(class, _, queue)| (class, queue))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_and_process_conserve_depth() {
        let (mut hot, mut cold) = (IngressState::default(), IngressState::default());
        hot.admit();
        hot.admit();
        cold.admit();
        assert_eq!((hot.depth, cold.depth), (2, 1));
        hot.release();
        assert_eq!((hot.depth, cold.depth), (1, 1));
        // Releasing an empty queue (a marker-condemned arrival) saturates.
        cold.release();
        cold.release();
        assert_eq!(cold.depth, 0);
    }

    #[test]
    fn condemn_releases_slot_and_defers_the_shed() {
        let mut q = IngressState::default();
        q.admit();
        q.admit();
        // Queue full at 2: condemn the oldest, admit the newest.
        q.condemn_oldest(ShedPolicy::Oldest);
        q.admit();
        assert_eq!(q.depth, 2, "bound respected");
        // The next arrival is the condemned one: consumed, no decrement.
        assert_eq!(q.pending.pop_front(), Some(ShedPolicy::Oldest));
        assert_eq!(q.pending.pop_front(), None);
        assert_eq!(q.depth, 2);
    }

    #[test]
    fn watermarks_reset_to_current_depth() {
        let mut q = IngressState::default();
        q.admit();
        q.admit();
        q.release();
        assert_eq!(q.drain_watermark(), 2);
        // After the drain, the watermark restarts from the live depth (1).
        assert_eq!(q.drain_watermark(), 1);
    }

    #[test]
    fn preemption_picks_lowest_class_then_deepest() {
        // (deployment, operator, depth) in name order, as the engine
        // sweeps them; `high` outranks the rest.
        let queues = [
            ("high", "c", 1u64),
            ("low", "a", 1),
            ("low", "b", 2),
            ("low", "z", 2),
        ];
        let victim = |except: (&str, &str)| {
            preemption_victim(
                queues
                    .iter()
                    .filter(|(d, o, _)| (*d, *o) != except)
                    .map(|(d, o, depth)| (if *d == "high" { 3u8 } else { 0 }, *depth, (*d, *o))),
            )
            .map(|(_, q)| q)
        };
        // Lowest class wins; within it the deepest queue, ties by name.
        assert_eq!(victim(("x", "y")), Some(("low", "b")));
        // The incoming tuple's own queue is excluded.
        assert_eq!(victim(("low", "b")), Some(("low", "z")));
        // Nothing but empty queues: no victim.
        assert_eq!(preemption_victim([(0u8, 0u64, "idle")].into_iter()), None);
    }
}
