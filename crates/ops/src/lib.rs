//! # sl-ops — the Table-1 stream processing operations
//!
//! Implements every operation of the paper's Table 1, split exactly as the
//! paper splits them (§3):
//!
//! | Operation        | Symbol                              | Kind         | Operator |
//! |------------------|-------------------------------------|--------------|----------|
//! | Aggregation      | `@t,{a1..an} op (s)`                | blocking     | [`AggregateOp`] |
//! | Cull Time        | `γr(s, <t1, t2>)`                   | non-blocking | [`CullTimeOp`] |
//! | Cull Space       | `γr(s, <coord1, coord2>)`           | non-blocking | [`CullSpaceOp`] |
//! | Filter           | `σ(s, cond)`                        | non-blocking | [`FilterOp`] |
//! | Join             | `s1 ⋈t_pred s2`                     | blocking     | [`JoinOp`] |
//! | Transform        | `▷trans s`                          | non-blocking | [`TransformOp`] |
//! | Trigger On       | `⊕ON,t(s, {s1..sn}, cond)`          | blocking     | [`TriggerOp`] |
//! | Trigger Off      | `⊕OFF,t(s, {s1..sn}, cond)`         | blocking     | [`TriggerOp`] |
//! | Virtual property | `⊎s⟨p, spec⟩`                       | non-blocking | [`VirtualPropertyOp`] |
//!
//! Non-blocking operations "are directly applied on each tuple when they are
//! processed, whereas the others require the maintenance of a cache of
//! tuples that are processed every t time intervals" — concretely:
//! non-blocking operators implement only [`Operator::on_tuple`]; blocking
//! operators buffer in `window` caches and do their work in
//! [`Operator::on_timer`], which the engine invokes every
//! [`Operator::timer_period`].
//!
//! [`OpSpec`] is the *data* description of an operator instance (what
//! the visual editor produces, what DSN documents carry); it can report its
//! output schema for validation and instantiate the runtime operator.
//!
//! ## Example
//!
//! [`Operator::on_tuple`] is the only way a tuple reaches an operator — in
//! the sequential loop and on a shard worker alike. Outputs collect in an
//! [`OpContext`]; [`OpContext::finish`] attributes them to the one input
//! that caused them, so a parallel merge preserves sequential order:
//!
//! ```
//! use sl_ops::{FilterOp, OpContext, Operator};
//! use sl_stt::{
//!     AttrType, Field, GeoPoint, Schema, SensorId, SttMeta, Theme, Timestamp, Tuple, Value,
//! };
//!
//! let schema = Schema::new(vec![Field::new("temperature", AttrType::Float)])
//!     .unwrap()
//!     .into_ref();
//! let tuple = |v: f64| {
//!     Tuple::new(
//!         schema.clone(),
//!         vec![Value::Float(v)],
//!         SttMeta::new(
//!             Timestamp::from_secs(0),
//!             GeoPoint::new_unchecked(34.69, 135.50),
//!             Theme::new("weather/temperature").unwrap(),
//!             SensorId(1),
//!         ),
//!     )
//!     .unwrap()
//! };
//! let mut hot = FilterOp::new("temperature > 30", &schema).unwrap();
//! assert!(hot.is_shardable());
//! let mut run = |t: Tuple| {
//!     let mut ctx = OpContext::new(Timestamp::from_secs(0));
//!     let result = hot.on_tuple(0, t, &mut ctx);
//!     ctx.finish(result)
//! };
//! assert_eq!(run(tuple(35.0)).emitted.len(), 1); // 35 °C passes
//! assert_eq!(run(tuple(12.0)).dropped, 1); // 12 °C is filtered out
//! ```
#![warn(missing_docs)]

mod aggregate;
mod checkpoint;
mod context;
mod cull;
mod error;
mod filter;
mod join;
mod priority;
mod spec;
mod transform;
mod trigger;
mod virtual_prop;
mod window;

pub use aggregate::{AggFunc, AggregateOp};
pub use checkpoint::{CheckpointDelta, OpCheckpoint};
pub use context::{ControlAction, OpContext, TupleOutcome};
pub use cull::{CullSpaceOp, CullTimeOp};
pub use error::OpError;
pub use filter::FilterOp;
pub use join::JoinOp;
pub use priority::PriorityClass;
pub use spec::OpSpec;
pub use transform::TransformOp;
pub use trigger::{TriggerMode, TriggerOp};
pub use virtual_prop::VirtualPropertyOp;

use sl_stt::{Duration, SchemaRef, Timestamp, Tuple};

/// A runtime stream operator.
///
/// The engine pushes tuples in via [`on_tuple`] (with the input port index:
/// only Join has two ports) — the one tuple entry point, whether the call
/// comes from the event loop or from a shard worker running a
/// [`replicate`]d copy — and, for blocking operators, calls [`on_timer`]
/// every [`timer_period`] of virtual time. Both emit output tuples and
/// control actions through the [`OpContext`].
///
/// [`on_tuple`]: Operator::on_tuple
/// [`on_timer`]: Operator::on_timer
/// [`timer_period`]: Operator::timer_period
/// [`replicate`]: Operator::replicate
pub trait Operator: Send {
    /// Short kind name for logs and monitoring (e.g. `"filter"`).
    fn kind(&self) -> &'static str;

    /// Schema of the emitted stream.
    fn output_schema(&self) -> SchemaRef;

    /// Process one input tuple arriving on `port`.
    fn on_tuple(&mut self, port: usize, tuple: Tuple, ctx: &mut OpContext) -> Result<(), OpError>;

    /// Periodic processing tick (blocking operators only).
    fn on_timer(&mut self, _now: Timestamp, _ctx: &mut OpContext) -> Result<(), OpError> {
        Ok(())
    }

    /// Tick period; `Some` marks the operator as blocking.
    fn timer_period(&self) -> Option<Duration> {
        None
    }

    /// True if the operator buffers tuples and works on a timer.
    fn is_blocking(&self) -> bool {
        self.timer_period().is_some()
    }

    /// Approximate CPU cost per tuple in abstract ops, used by placement.
    fn cost_per_tuple(&self) -> f64 {
        1.0
    }

    /// Snapshot the operator's buffered tuples for crash recovery.
    ///
    /// `None` means the operator is stateless (nothing to recover) —
    /// the default for non-blocking operators. Blocking operators return
    /// their whole window cache, at a cost that grows with it: this is the
    /// specification of the state [`Operator::checkpoint_delta`] logs
    /// incrementally, not what the engine calls per tuple.
    fn checkpoint(&self) -> Option<OpCheckpoint> {
        None
    }

    /// Drain what changed in the buffered tuples since the last call (since
    /// creation, for the first) — `None` for stateless operators.
    ///
    /// Folding the drained deltas in order ([`OpCheckpoint::apply`]) onto
    /// the checkpoint held at the previous drain yields, per port and in
    /// arrival order, exactly [`Operator::checkpoint`]. An operator nobody
    /// drains accumulates nothing.
    fn checkpoint_delta(&mut self) -> Option<CheckpointDelta> {
        None
    }

    /// Replace the operator's buffered state with a checkpoint.
    ///
    /// Any currently cached tuples are discarded first, so restoring
    /// [`OpCheckpoint::empty`] models the state loss of an unrecovered
    /// crash. The next [`Operator::checkpoint_delta`] is a base: the
    /// restored state need not be what the log held. Default: no-op
    /// (stateless operators).
    fn restore(&mut self, _ckpt: OpCheckpoint) {}

    /// True if invocations on this operator commute: it keeps no state
    /// across tuples, so the executor may fan a batch out across parallel
    /// shard workers (each working on a [`Operator::replicate`]d copy) and
    /// merge the outcomes in input order without changing the outputs. A
    /// shardable operator must be able to [`Operator::replicate`].
    ///
    /// Default `false`. Note that non-blocking is *not* sufficient: Cull is
    /// non-blocking but keeps a decimation counter, so it must stay
    /// single-owner.
    fn is_shardable(&self) -> bool {
        false
    }

    /// Build an independent copy of this operator for a shard worker.
    ///
    /// Only meaningful (and only required) when [`Operator::is_shardable`]
    /// is true; stateless operators rebuild themselves from their compiled
    /// specification. Default `None` (the operator cannot be replicated and
    /// must be executed by its single owner).
    fn replicate(&self) -> Option<Box<dyn Operator>> {
        None
    }
}
