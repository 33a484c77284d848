//! # sl-stt — the Space–Time–Thematic (STT) multigranular data model
//!
//! StreamLoader sensors produce streams of tuples according to the
//! multigranular **space, time and thematic** data model (paper §3,
//! "Stream Processing Operations"). This crate provides:
//!
//! * [`Value`] / [`AttrType`] — the dynamically-typed attribute values carried
//!   by sensor tuples, together with coercion rules,
//! * [`Schema`] — per-sensor schemas (schemas are *not* global: every sensor
//!   advertises its own),
//! * [`Tuple`] — a row of values plus its STT metadata ([`SttMeta`]),
//! * [`Timestamp`] / [`Duration`] / [`TemporalGranularity`] — the temporal
//!   dimension and its granularity lattice,
//! * [`GeoPoint`] / [`CoordinateSystem`] / [`SpatialGranularity`] — the
//!   spatial dimension, coordinate conversion and spatial granules,
//! * [`Theme`] — the thematic dimension,
//! * [`Unit`] / [`Quantity`] — units of measure and their conversions
//!   (requirement §2: "changing the unit of measure"),
//! * [`Event`] — the paper's *event* concept: "a value represented at a given
//!   spatio-temporal granularity for which thematic information is added".
//!
//! Everything downstream (expressions, operators, pub/sub, the warehouse)
//! builds on these types.
//!
//! ## Example
//!
//! Build a schema, attach STT metadata to a row of values, and read an
//! attribute back:
//!
//! ```
//! use sl_stt::{
//!     AttrType, Field, GeoPoint, Schema, SensorId, SttMeta, Theme, Timestamp, Tuple, Value,
//! };
//!
//! let schema = Schema::new(vec![Field::new("temperature", AttrType::Float)])
//!     .unwrap()
//!     .into_ref();
//! let tuple = Tuple::new(
//!     schema,
//!     vec![Value::Float(31.5)],
//!     SttMeta::new(
//!         Timestamp::from_civil(2016, 7, 1, 12, 0, 0),
//!         GeoPoint::new_unchecked(34.69, 135.50), // Osaka
//!         Theme::new("weather/temperature").unwrap(),
//!         SensorId(7),
//!     ),
//! )
//! .unwrap();
//! assert_eq!(tuple.get("temperature").unwrap(), &Value::Float(31.5));
//! ```
#![warn(missing_docs)]

mod error;
mod event;
mod schema;
mod sgran;
mod space;
mod theme;
mod time;
mod tuple;
mod units;
mod value;

pub use error::SttError;
pub use event::Event;
pub use schema::{AttrType, Field, Schema, SchemaRef};
pub use sgran::{SpatialGranularity, SpatialGranule};
pub use space::{BoundingBox, CoordinateSystem, GeoPoint};
pub use theme::Theme;
pub use time::{Duration, TemporalGranularity, TimeInterval, Timestamp};
pub use tuple::{SensorId, SttMeta, Tuple};
pub use units::{Quantity, Unit};
pub use value::{trim_field, Value};
