//! # sl-faults — fault injection and recovery primitives
//!
//! StreamLoader's demo P3 shows the system reacting to changing "network
//! performances" and plug-and-play sensors; this crate supplies the
//! machinery to *provoke* those situations deterministically and to recover
//! from them:
//!
//! * [`FaultPlan`] — a declarative, virtual-time chaos schedule (link flap
//!   windows, node crash/restart, sensor stall/dropout, corrupt payloads,
//!   per-sensor clock skew). The engine consumes the plan as ordinary
//!   scheduled events, so a chaos run replays identically for a given plan
//!   and engine seed.
//! * [`RetryPolicy`] — bounded exponential backoff in virtual time, used by
//!   the engine's delivery retry queue.
//! * [`DeadLetterQueue`] / [`DropReason`] — the terminal destination of
//!   tuples that could not be delivered, with a drop-reason taxonomy.
//!
//! Like `sl-obs`, this crate is std-only and depends only on `sl-stt`, so
//! any layer can use it without cycles. The fault model and the determinism
//! guarantee are documented in `DESIGN.md` ("Fault model & recovery").

mod breaker;
mod dlq;
mod plan;
mod retry;

pub use breaker::{BreakerDecision, BreakerState, CircuitBreaker};
pub use dlq::{DeadLetterQueue, DropReason, OverflowPolicy, ShedPolicy};
pub use plan::{FaultAction, FaultEvent, FaultPlan};
pub use retry::RetryPolicy;
