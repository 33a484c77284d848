//! Operator-state checkpoints.
//!
//! Blocking operators buffer tuples between ticks; if the node hosting the
//! process crashes, that window cache is lost and the next tick emits a
//! wrong (partial) result. A checkpoint captures the buffered tuples so the
//! engine can restore them on the migration target after a crash — the next
//! tick then emits exactly what a fault-free run would have.
//!
//! Checkpoints are pure virtual-time data (tuples only, no wall-clock
//! state), so restoring one preserves run-to-run determinism.
//!
//! Between two ticks a window only grows at the back (and, when it slides,
//! shrinks at the front), so the engine never re-snapshots it: it keeps a
//! *fold* — the last base plus every [`CheckpointDelta`] drained since — and
//! pays per state change what that change touched.
//! [`Operator::checkpoint`](crate::Operator::checkpoint) remains the
//! specification the fold is tested against.

use sl_stt::Tuple;

/// A snapshot of one operator's buffered tuples, tagged by input port
/// (only Join distinguishes ports; everything else uses port 0).
#[derive(Debug, Clone, Default)]
pub struct OpCheckpoint {
    /// `(port, tuple)` pairs, in original arrival order per port.
    pub tuples: Vec<(usize, Tuple)>,
}

/// What changed in a blocking operator's buffered tuples since its last
/// [`Operator::checkpoint_delta`](crate::Operator::checkpoint_delta).
///
/// The law: folding an operator's drained deltas, in order, onto the
/// checkpoint it held at the previous drain ([`OpCheckpoint::apply`]) yields
/// per port, in arrival order, exactly what
/// [`Operator::checkpoint`](crate::Operator::checkpoint) returns.
#[derive(Debug, Clone, Default)]
pub struct CheckpointDelta {
    /// The window restarted from empty first — a tick drained it, or a
    /// restore replaced it. Such a delta is a *base*: it depends on nothing
    /// logged before it.
    pub reset: bool,
    /// Tuples a sliding window dropped from its front, oldest first. Only
    /// single-port operators evict, so the front of the window is the front
    /// of the fold.
    pub evicted: usize,
    /// `(port, tuple)` pairs buffered since and still held, in arrival
    /// order per port.
    pub appended: Vec<(usize, Tuple)>,
}

impl CheckpointDelta {
    /// True if applying this delta to `fold` would leave it as it is.
    pub fn is_noop_on(&self, fold: &OpCheckpoint) -> bool {
        self.evicted == 0 && self.appended.is_empty() && (!self.reset || fold.is_empty())
    }

    /// Approximate serialized size of the appended tuples (see
    /// [`OpCheckpoint::byte_size`]).
    pub fn byte_size(&self) -> usize {
        self.appended.iter().map(|(_, t)| t.byte_size()).sum()
    }
}

impl OpCheckpoint {
    /// Fold one delta onto this checkpoint: restart from empty if it is a
    /// base, drop what the window evicted from the front, then move the
    /// appended tuples in. O(delta), plus the shift of the survivors when a
    /// sliding window evicted. An eviction count beyond what is held (a log
    /// whose base was lost) empties the fold.
    pub fn apply(&mut self, delta: CheckpointDelta) {
        if delta.reset {
            self.tuples.clear();
        }
        self.tuples.drain(..delta.evicted.min(self.tuples.len()));
        self.tuples.extend(delta.appended);
    }

    /// An empty checkpoint. Restoring it wipes the operator's cache —
    /// exactly what a crash without checkpointing does.
    pub fn empty() -> OpCheckpoint {
        OpCheckpoint::default()
    }

    /// A checkpoint of a single-port operator's cache.
    pub fn single_port(tuples: Vec<Tuple>) -> OpCheckpoint {
        OpCheckpoint {
            tuples: tuples.into_iter().map(|t| (0, t)).collect(),
        }
    }

    /// Number of checkpointed tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if nothing is checkpointed.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Approximate serialized size — what a real system would ship to the
    /// migration target (feeds the `checkpoint/bytes` gauge).
    pub fn byte_size(&self) -> usize {
        self.tuples.iter().map(|(_, t)| t.byte_size()).sum()
    }

    /// Tuples destined for one port, in arrival order.
    pub fn port(&self, port: usize) -> impl Iterator<Item = &Tuple> {
        self.tuples
            .iter()
            .filter(move |(p, _)| *p == port)
            .map(|(_, t)| t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{AttrType, Field, Schema, SensorId, SttMeta, Theme, Timestamp, Value};

    fn tuple(v: i64) -> Tuple {
        Tuple::new(
            Schema::new(vec![Field::new("v", AttrType::Int)])
                .unwrap()
                .into_ref(),
            vec![Value::Int(v)],
            SttMeta::without_location(Timestamp::from_secs(v), Theme::unclassified(), SensorId(0)),
        )
        .unwrap()
    }

    #[test]
    fn empty_checkpoint() {
        let c = OpCheckpoint::empty();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
        assert_eq!(c.byte_size(), 0);
    }

    #[test]
    fn single_port_preserves_order() {
        let c = OpCheckpoint::single_port(vec![tuple(1), tuple(2), tuple(3)]);
        assert_eq!(c.len(), 3);
        assert!(c.byte_size() > 0);
        let vs: Vec<i64> = c
            .port(0)
            .map(|t| match t.get("v").unwrap() {
                Value::Int(i) => *i,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(vs, vec![1, 2, 3]);
        assert_eq!(c.port(1).count(), 0);
    }

    fn values(c: &OpCheckpoint) -> Vec<i64> {
        c.tuples
            .iter()
            .map(|(_, t)| t.meta.timestamp.as_millis() / 1000)
            .collect()
    }

    #[test]
    fn apply_folds_reset_eviction_and_appends_in_that_order() {
        let mut c = OpCheckpoint::single_port(vec![tuple(1), tuple(2), tuple(3)]);
        c.apply(CheckpointDelta {
            reset: false,
            evicted: 2,
            appended: vec![(0, tuple(4))],
        });
        assert_eq!(values(&c), vec![3, 4]);
        let noop = CheckpointDelta::default();
        assert!(noop.is_noop_on(&c));
        c.apply(noop);
        assert_eq!(values(&c), vec![3, 4]);
        let base = CheckpointDelta {
            reset: true,
            evicted: 0,
            appended: vec![(0, tuple(9))],
        };
        assert!(!base.is_noop_on(&c));
        assert_eq!(base.byte_size(), tuple(9).byte_size());
        c.apply(base);
        assert_eq!(values(&c), vec![9]);
        // A flush of an already-empty window changes nothing; evicting more
        // than is held (the base was lost) empties the fold.
        let flush = CheckpointDelta {
            reset: true,
            ..CheckpointDelta::default()
        };
        assert!(!flush.is_noop_on(&c));
        assert!(flush.is_noop_on(&OpCheckpoint::empty()));
        c.apply(CheckpointDelta {
            reset: false,
            evicted: 5,
            appended: Vec::new(),
        });
        assert!(c.is_empty());
    }

    #[test]
    fn multi_port_filtering() {
        let c = OpCheckpoint {
            tuples: vec![(0, tuple(1)), (1, tuple(2)), (0, tuple(3))],
        };
        assert_eq!(c.port(0).count(), 2);
        assert_eq!(c.port(1).count(), 1);
    }
}
