//! # sl-sensors — synthetic heterogeneous sensor data
//!
//! The paper demos against live Osaka-area feeds: temperatures, rain
//! levels, tweets and traffic information (§3, Scenario). Those feeds are
//! not available, so this crate simulates them with the properties the
//! system actually exercises:
//!
//! * **heterogeneous schemas and units** — different stations report
//!   different attribute sets; some temperature sensors report Fahrenheit
//!   (the Transform operator's job to fix),
//! * **heterogeneous wire formats** — CSV, JSON and key-value payloads
//!   ([`WireFormat`]), decoded by the extraction layer,
//! * **different rates and granularities** — from 1 s traffic probes to
//!   10 min rain gauges,
//! * **missing spatio-temporal metadata** — mobile tweet sources advertise
//!   no fixed position (exercising pub/sub enrichment),
//! * **event-driven dynamics** — diurnal temperature waves, bursty rain
//!   fronts, tweet storms correlated with weather ([`gen`]).
//!
//! Everything is deterministic per seed.

mod driver;
mod formats;
pub mod gen;
pub mod physical;
pub mod scenario;
mod social;

pub use driver::SensorSim;
pub use formats::{decode_payload, WireFormat};
pub use scenario::{osaka_fleet, OsakaScenario, ScenarioConfig};
