//! The output context operators write into, and the control actions the
//! Trigger operators emit.

use crate::error::OpError;
use sl_stt::{Timestamp, Tuple};

/// A reactive control action produced by a Trigger operator.
///
/// "Events can be used both for triggering or stopping the acquisition and
/// elaboration of streams" (paper §2): the targets are *dataflow source
/// names*; the engine resolves them to sensor subscriptions and starts or
/// stops acquisition itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlAction {
    /// Activate acquisition on the named sources.
    Activate {
        /// Dataflow source names to activate.
        targets: Vec<String>,
    },
    /// Deactivate acquisition on the named sources.
    Deactivate {
        /// Dataflow source names to deactivate.
        targets: Vec<String>,
    },
}

impl ControlAction {
    /// The target source names, regardless of direction.
    pub fn targets(&self) -> &[String] {
        match self {
            ControlAction::Activate { targets } | ControlAction::Deactivate { targets } => targets,
        }
    }

    /// True for [`ControlAction::Activate`].
    pub fn is_activate(&self) -> bool {
        matches!(self, ControlAction::Activate { .. })
    }
}

/// Everything one input tuple produced: what [`OpContext::finish`] makes of
/// one [`crate::Operator::on_tuple`] call.
///
/// Unlike [`OpContext`], which accumulates across calls, a `TupleOutcome`
/// attributes outputs to the *individual* input tuple that caused them, so
/// a parallel executor can merge shard results back into the sequential
/// order deterministically (per-tuple forwarding, accounting, and error
/// reporting all need the attribution).
#[derive(Debug, Default)]
pub struct TupleOutcome {
    /// Tuples emitted for this input, in emission order.
    pub emitted: Vec<Tuple>,
    /// Control actions emitted for this input.
    pub controls: Vec<ControlAction>,
    /// Tuples consciously dropped (0 or 1 for the Table-1 unary operators).
    pub dropped: u64,
    /// The processing error, if the operator rejected the tuple.
    pub error: Option<OpError>,
}

/// Collects everything an operator produces during one invocation.
#[derive(Debug)]
pub struct OpContext {
    /// Current virtual time (set by the engine before each call).
    pub now: Timestamp,
    emitted: Vec<Tuple>,
    controls: Vec<ControlAction>,
    /// Tuples the operator consciously dropped (filtered out, culled);
    /// feeds the conservation accounting in the monitor.
    dropped: u64,
}

impl OpContext {
    /// A context at the given virtual time.
    pub fn new(now: Timestamp) -> OpContext {
        OpContext::with_buffer(now, Vec::new())
    }

    /// A context at the given virtual time that emits into `buffer`,
    /// cleared first: a caller that drains each call's output hands the
    /// vector back here, so emitting reuses its capacity.
    pub fn with_buffer(now: Timestamp, mut buffer: Vec<Tuple>) -> OpContext {
        buffer.clear();
        OpContext {
            now,
            emitted: buffer,
            controls: Vec::new(),
            dropped: 0,
        }
    }

    /// Emit an output tuple.
    pub fn emit(&mut self, tuple: Tuple) {
        self.emitted.push(tuple);
    }

    /// Emit a control action.
    pub fn control(&mut self, action: ControlAction) {
        self.controls.push(action);
    }

    /// Record a consciously dropped tuple.
    pub fn drop_tuple(&mut self) {
        self.dropped += 1;
    }

    /// Emitted tuples so far (in emission order).
    pub fn emitted(&self) -> &[Tuple] {
        &self.emitted
    }

    /// Control actions so far.
    pub fn controls(&self) -> &[ControlAction] {
        &self.controls
    }

    /// Count of dropped tuples.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Drain the outputs, leaving the context reusable.
    pub fn take(&mut self) -> (Vec<Tuple>, Vec<ControlAction>) {
        (
            std::mem::take(&mut self.emitted),
            std::mem::take(&mut self.controls),
        )
    }

    /// Close one invocation: everything collected so far plus the call's
    /// `result`, attributed to the input tuple that caused it.
    pub fn finish(self, result: Result<(), OpError>) -> TupleOutcome {
        TupleOutcome {
            emitted: self.emitted,
            controls: self.controls,
            dropped: self.dropped,
            error: result.err(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{Schema, SensorId, SttMeta, Theme};

    fn t() -> Tuple {
        Tuple::new(
            Schema::empty().into_ref(),
            vec![],
            SttMeta::without_location(Timestamp::EPOCH, Theme::unclassified(), SensorId(0)),
        )
        .unwrap()
    }

    #[test]
    fn collects_and_drains() {
        let mut ctx = OpContext::new(Timestamp::from_secs(5));
        ctx.emit(t());
        ctx.emit(t());
        ctx.control(ControlAction::Activate {
            targets: vec!["rain".into()],
        });
        ctx.drop_tuple();
        assert_eq!(ctx.emitted().len(), 2);
        assert_eq!(ctx.controls().len(), 1);
        assert_eq!(ctx.dropped(), 1);
        let (tuples, controls) = ctx.take();
        assert_eq!(tuples.len(), 2);
        assert_eq!(controls.len(), 1);
        assert!(ctx.emitted().is_empty());
        // dropped persists (it is an accounting counter); the next call
        // starts afresh on the handed-back buffer, keeping its capacity.
        assert_eq!(ctx.dropped(), 1);
        let ptr = tuples.as_ptr();
        let mut ctx = OpContext::with_buffer(Timestamp::from_secs(6), tuples);
        assert!(ctx.emitted().is_empty());
        assert_eq!((ctx.dropped(), ctx.now), (0, Timestamp::from_secs(6)));
        ctx.emit(t());
        assert_eq!(ctx.finish(Ok(())).emitted.as_ptr(), ptr, "no reallocation");
    }

    #[test]
    fn control_action_accessors() {
        let a = ControlAction::Activate {
            targets: vec!["x".into(), "y".into()],
        };
        assert!(a.is_activate());
        assert_eq!(a.targets().len(), 2);
        let d = ControlAction::Deactivate {
            targets: vec!["x".into()],
        };
        assert!(!d.is_activate());
        assert_eq!(d.targets(), &["x".to_string()]);
    }
}
