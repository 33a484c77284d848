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

use sl_stt::Tuple;

/// A snapshot of one operator's buffered tuples, tagged by input port
/// (only Join distinguishes ports; everything else uses port 0).
#[derive(Debug, Clone, Default)]
pub struct OpCheckpoint {
    /// `(port, tuple)` pairs, in original arrival order per port.
    pub tuples: Vec<(usize, Tuple)>,
}

impl OpCheckpoint {
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

    #[test]
    fn multi_port_filtering() {
        let c = OpCheckpoint {
            tuples: vec![(0, tuple(1)), (1, tuple(2)), (0, tuple(3))],
        };
        assert_eq!(c.port(0).count(), 2);
        assert_eq!(c.port(1).count(), 1);
    }
}
