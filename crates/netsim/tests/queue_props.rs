//! The slot-backed event queue against its specification: the queue it
//! replaced, a `BinaryHeap` of whole `(time, seq, message)` entries, kept
//! here verbatim. Both are driven through the same random interleavings and
//! must agree on every return value and on the clock and counters after
//! every step.

use proptest::prelude::*;
use sl_netsim::EventQueue;
use sl_stt::{Duration, Timestamp};

/// The previous `EventQueue`, unchanged but for its name.
mod reference {
    use sl_stt::{Duration, Timestamp};
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct Entry<M> {
        time: Timestamp,
        seq: u64,
        msg: M,
    }

    impl<M> PartialEq for Entry<M> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<M> Eq for Entry<M> {}
    impl<M> PartialOrd for Entry<M> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<M> Ord for Entry<M> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: BinaryHeap is a max-heap, we need earliest-first.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// A discrete-event queue over message type `M` with a virtual clock.
    pub(crate) struct RefQueue<M> {
        heap: BinaryHeap<Entry<M>>,
        now: Timestamp,
        seq: u64,
        processed: u64,
    }

    impl<M> RefQueue<M> {
        /// A queue whose clock starts at `start`.
        pub(crate) fn new(start: Timestamp) -> RefQueue<M> {
            RefQueue {
                heap: BinaryHeap::new(),
                now: start,
                seq: 0,
                processed: 0,
            }
        }

        /// Current virtual time.
        pub(crate) fn now(&self) -> Timestamp {
            self.now
        }

        /// Number of events popped so far.
        pub(crate) fn processed(&self) -> u64 {
            self.processed
        }

        /// Number of events still scheduled.
        pub(crate) fn pending(&self) -> usize {
            self.heap.len()
        }

        /// True if no events remain.
        pub(crate) fn is_idle(&self) -> bool {
            self.heap.is_empty()
        }

        /// Schedule `msg` at absolute time `at`. Scheduling in the past is
        /// clamped to `now` (the message fires immediately, preserving order).
        pub(crate) fn schedule_at(&mut self, at: Timestamp, msg: M) {
            let time = at.max(self.now);
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry { time, seq, msg });
        }

        /// Schedule `msg` after `delay` of virtual time.
        pub(crate) fn schedule_in(&mut self, delay: Duration, msg: M) {
            self.schedule_at(self.now + delay, msg)
        }

        /// Pop the next event, advancing the clock to its time.
        pub(crate) fn pop(&mut self) -> Option<(Timestamp, M)> {
            let entry = self.heap.pop()?;
            debug_assert!(entry.time >= self.now, "time went backwards");
            self.now = entry.time;
            self.processed += 1;
            Some((entry.time, entry.msg))
        }

        /// Time of the next event without popping it.
        pub(crate) fn peek_time(&self) -> Option<Timestamp> {
            self.heap.peek().map(|top| top.time)
        }

        /// Time and message of the next event without popping it. The clock
        /// does not advance. Used by the parallel engine to test whether the
        /// queue head is eligible to join the current execution batch.
        pub(crate) fn peek(&self) -> Option<(Timestamp, &M)> {
            self.heap.peek().map(|top| (top.time, &top.msg))
        }

        /// Pop only if the next event fires at or before `deadline`.
        pub(crate) fn pop_until(&mut self, deadline: Timestamp) -> Option<(Timestamp, M)> {
            match self.peek_time() {
                Some(t) if t <= deadline => self.pop(),
                _ => None,
            }
        }
    }
}

use reference::RefQueue;

/// One call on both queues; `t` is seconds (absolute, a delay or a
/// deadline, by kind).
#[derive(Debug, Clone, Copy)]
enum Op {
    ScheduleAt(i64),
    ScheduleIn(i64),
    Pop,
    PopUntil(i64),
    Peek,
}

fn op() -> impl Strategy<Value = Op> {
    // Few distinct times, so equal-time ties are common, and absolute times
    // behind the clock once it has advanced, so clamping is exercised.
    (0u8..8, 0i64..12).prop_map(|(kind, t)| match kind {
        0..=2 => Op::ScheduleAt(t),
        3 => Op::ScheduleIn(t % 4),
        4 | 5 => Op::Pop,
        6 => Op::PopUntil(t),
        _ => Op::Peek,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_slot_queue_behaves_as_the_entry_heap(
        ops in proptest::collection::vec(op(), 1..300),
        start in 0i64..5,
    ) {
        let start = Timestamp::from_secs(start);
        let mut q: EventQueue<u64> = EventQueue::new(start);
        let mut r: RefQueue<u64> = RefQueue::new(start);
        let mut peak = 0usize;
        for (msg, op) in (0u64..).zip(ops) {
            match op {
                Op::ScheduleAt(t) => {
                    q.schedule_at(Timestamp::from_secs(t), msg);
                    r.schedule_at(Timestamp::from_secs(t), msg);
                }
                Op::ScheduleIn(d) => {
                    q.schedule_in(Duration::from_secs(d as u64), msg);
                    r.schedule_in(Duration::from_secs(d as u64), msg);
                }
                Op::Pop => prop_assert_eq!(q.pop(), r.pop()),
                Op::PopUntil(t) => {
                    let deadline = Timestamp::from_secs(t);
                    prop_assert_eq!(q.pop_until(deadline), r.pop_until(deadline));
                }
                Op::Peek => {
                    prop_assert_eq!(q.peek(), r.peek());
                    prop_assert_eq!(q.peek_time(), r.peek_time());
                }
            }
            prop_assert_eq!(q.now(), r.now());
            prop_assert_eq!(q.processed(), r.processed());
            prop_assert_eq!(q.pending(), r.pending());
            prop_assert_eq!(q.is_idle(), r.is_idle());
            peak = peak.max(r.pending());
            prop_assert!(
                q.slot_count() <= peak,
                "{} slots for at most {peak} pending", q.slot_count()
            );
        }
        // Draining agrees to the end.
        loop {
            let (a, b) = (q.pop(), r.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        prop_assert_eq!((q.now(), q.processed()), (r.now(), r.processed()));
    }
}
