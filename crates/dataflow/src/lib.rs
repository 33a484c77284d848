//! # sl-dataflow — conceptual ETL dataflows
//!
//! The programmatic equivalent of the paper's visual canvas (Figure 2):
//! "users can drag-and-drop data-sources and apply the proposed operations
//! on streams. In a window placed at the bottom of the canvas [...] the user
//! can see the schema of data that are processed by the operation, specify
//! the conditions of each operation and visualize a data sample coming from
//! each source. The user interface provides different checks in order to
//! draw only dataflows that can be soundly translated in the DSN/SCN
//! specification" (paper §3). Concretely:
//!
//! * [`Dataflow`] — the conceptual graph: sources (with declared
//!   schemas), Table-1 operators, sinks, per-edge QoS,
//! * [`DataflowBuilder`] — the fluent construction API (the
//!   drag-and-drop analogue),
//! * [`validate()`] / [`validate_full`] — schema propagation plus every
//!   soundness check; only validated dataflows translate,
//! * [`to_dsn`] — conceptual dataflow → DSN document ([`from_dsn`] back),
//! * [`debug_run`] — sample-based step debugging ("check, step-by-step,
//!   their results on samples", demo P1),
//! * [`optimize()`] — logical rewrites ("optimize the schedule for the
//!   execution of the dataflow", §1): selective-filter pull-ahead and
//!   filter fusion,
//! * [`render_ascii`] — ASCII rendering of the canvas and its annotations.

mod builder;
mod debug;
mod error;
mod graph;
mod optimize;
mod render;
mod translate;
mod validate;

pub use builder::DataflowBuilder;
pub use debug::{debug_run, SampleRun};
pub use error::DataflowError;
pub use graph::{Dataflow, DfNode, NodeKind};
pub use optimize::{optimize, Rewrite};
pub use render::render_ascii;
pub use translate::{from_dsn, infer_source_schema, to_dsn};
pub use validate::{validate, validate_full, FullValidation, ValidationReport};
