//! # sl-dsn — the DSN/SCN declarative networking language
//!
//! StreamLoader translates the conceptual dataflow into "DSN/SCN" — the
//! Declarative Service Networking description and the Service-Controlled
//! Networking commands that actuate it: "DSN provides a method to model and
//! describe a high-level network of information services for an application
//! [...]. The network control protocol stack interprets the DSN description
//! and dynamically coordinates the network configurations, such as data
//! flows, segmentations, and QoS parameters" (paper §2, after reference 8).
//!
//! NICT's language is not fully public, so this crate defines a DSN dialect
//! covering exactly the constructs the paper names:
//!
//! * **sources** bound by content-based sensor filters, with an
//!   active/gated acquisition mode (gated sources wait for a Trigger-On),
//! * **services** — one per Table-1 operation instance,
//! * **sinks** — warehouse / console / visualisation,
//! * **channels** with QoS parameters (latency bound, bandwidth
//!   reservation),
//!
//! plus the machinery around it:
//!
//! * [`parse_document`] / [`print_document`] — a canonical textual form with a
//!   print→parse round-trip guarantee (property-tested),
//! * [`validate()`] — structural soundness checks,
//! * [`compile()`] — lowering to [`ScnCommand`]s executed by the
//!   engine against the network substrate.
//!
//! ## Example document
//!
//! ```text
//! dsn "osaka-hot-weather" {
//!   source temperature {
//!     filter: theme=weather/temperature & area=(34.5, 135.3)..(34.9, 135.7);
//!     mode: active;
//!   }
//!   service hourly_avg {
//!     op: aggregate; period: 3600000; group_by: station;
//!     func: avg; attr: temperature;
//!     inputs: temperature;
//!   }
//!   service hot {
//!     op: trigger_on; period: 3600000;
//!     condition: 'avg_temperature > 25';
//!     targets: rain, tweets, traffic;
//!     inputs: hourly_avg;
//!   }
//!   sink edw { kind: warehouse; inputs: hot; }
//!   channel temperature -> hourly_avg { qos: latency<=50, bandwidth>=100000; }
//! }
//! ```

pub mod ast;
mod compile;
mod error;
mod parser;
pub mod printer;
pub mod validate;

pub use ast::{ChannelDecl, DsnDocument, ServiceDecl, SinkDecl, SinkKind, SourceDecl, SourceMode};
pub use compile::{compile, ScnCommand, ScnProgram};
pub use error::DsnError;
pub use parser::parse_document;
pub use printer::print_document;
pub use validate::{validate, validate_full, DsnValidation};
