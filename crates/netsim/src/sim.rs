//! The discrete-event simulation core.
//!
//! [`EventQueue`] is a priority queue of timestamped messages with a virtual
//! clock. The execution engine (`sl-engine`) drives the loop: pop the next
//! message, dispatch it, possibly schedule more. Ties in time break by
//! insertion order (FIFO), which — together with seeded randomness
//! everywhere else — makes every run deterministic.
//!
//! The heap orders small keys, not messages: a message waits in a slot of
//! a `Vec` (freed slots are reused), and the heap sifts `(time, seq, slot)`.
//! A sift moves 24 bytes however large `M` is — the engine's event carries a
//! whole tuple — so a push or pop costs the same for any payload.

use sl_stt::{Duration, Timestamp};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap entry: when, the FIFO tie-break, and where the message waits.
struct Key {
    time: Timestamp,
    seq: u64,
    slot: u32,
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we need earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event queue over message type `M` with a virtual clock.
pub struct EventQueue<M> {
    heap: BinaryHeap<Key>,
    /// Messages by slot; `None` is a free slot, listed in `free`.
    slots: Vec<Option<M>>,
    free: Vec<u32>,
    now: Timestamp,
    seq: u64,
    processed: u64,
}

impl<M> EventQueue<M> {
    /// A queue whose clock starts at `start`.
    pub fn new(start: Timestamp) -> EventQueue<M> {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            now: start,
            seq: 0,
            processed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still scheduled.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// True if no events remain.
    pub fn is_idle(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `msg` at absolute time `at`. Scheduling in the past is
    /// clamped to `now` (the message fires immediately, preserving order).
    pub fn schedule_at(&mut self, at: Timestamp, msg: M) {
        let time = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(msg);
                slot
            }
            None => {
                self.slots.push(Some(msg));
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(Key { time, seq, slot });
    }

    /// Number of message slots allocated: the most events ever pending at
    /// once, since freed slots are reused.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Schedule `msg` after `delay` of virtual time.
    pub fn schedule_in(&mut self, delay: Duration, msg: M) {
        self.schedule_at(self.now + delay, msg)
    }

    /// Pop the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(Timestamp, M)> {
        let key = self.heap.pop()?;
        // Every key names a filled slot: a slot is freed only here.
        let msg = self.slots.get_mut(key.slot as usize)?.take()?;
        self.free.push(key.slot);
        debug_assert!(key.time >= self.now, "time went backwards");
        self.now = key.time;
        self.processed += 1;
        Some((key.time, msg))
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<Timestamp> {
        self.heap.peek().map(|top| top.time)
    }

    /// Time and message of the next event without popping it. The clock
    /// does not advance. Used by the parallel engine to test whether the
    /// queue head is eligible to join the current execution batch.
    pub fn peek(&self) -> Option<(Timestamp, &M)> {
        let top = self.heap.peek()?;
        let msg = self.slots.get(top.slot as usize)?.as_ref()?;
        Some((top.time, msg))
    }

    /// Pop only if the next event fires at or before `deadline`.
    pub fn pop_until(&mut self, deadline: Timestamp) -> Option<(Timestamp, M)> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }
}

impl<M> std::fmt::Debug for EventQueue<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new(Timestamp::EPOCH);
        q.schedule_at(Timestamp::from_secs(3), "c");
        q.schedule_at(Timestamp::from_secs(1), "a");
        q.schedule_at(Timestamp::from_secs(2), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, m)| m).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(q.now(), Timestamp::from_secs(3));
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new(Timestamp::EPOCH);
        let t = Timestamp::from_secs(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, m)| m).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new(Timestamp::from_secs(100));
        q.schedule_in(Duration::from_secs(10), ());
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Timestamp::from_secs(110));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut q = EventQueue::new(Timestamp::from_secs(100));
        q.schedule_at(Timestamp::from_secs(1), "late");
        let (t, m) = q.pop().unwrap();
        assert_eq!(t, Timestamp::from_secs(100));
        assert_eq!(m, "late");
    }

    #[test]
    fn peek_shows_the_head_without_advancing_the_clock() {
        let mut q = EventQueue::new(Timestamp::EPOCH);
        q.schedule_at(Timestamp::from_secs(2), "b");
        q.schedule_at(Timestamp::from_secs(1), "a");
        assert_eq!(q.peek_time(), Some(Timestamp::from_secs(1)));
        assert_eq!(q.peek(), Some((Timestamp::from_secs(1), &"a")));
        assert_eq!((q.now(), q.pending()), (Timestamp::EPOCH, 2));
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new(Timestamp::EPOCH);
        q.schedule_at(Timestamp::from_secs(1), "a");
        q.schedule_at(Timestamp::from_secs(5), "b");
        assert_eq!(q.pop_until(Timestamp::from_secs(3)).map(|x| x.1), Some("a"));
        assert_eq!(q.pop_until(Timestamp::from_secs(3)), None);
        // Clock does not advance past the deadline when nothing popped.
        assert_eq!(q.now(), Timestamp::from_secs(1));
    }

    #[test]
    fn is_idle() {
        let mut q: EventQueue<()> = EventQueue::new(Timestamp::EPOCH);
        assert!(q.is_idle());
        q.schedule_in(Duration::from_secs(1), ());
        assert!(!q.is_idle());
        q.pop();
        assert!(q.is_idle());
    }
}
