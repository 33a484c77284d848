//! # sl-pubsub — distributed publish/subscribe for sensor discovery
//!
//! "Sensors should be handled by means of a publish-subscribe system in
//! order to handle the dynamicity with which they can join and leave the
//! network. [...] Each time a sensor is published, its type, schema, and
//! frequency of data generation are made available to subscribers"
//! (paper §2–§3). This crate provides:
//!
//! * [`message::SensorAdvertisement`] — what a sensor publishes about itself,
//! * [`filter::SubscriptionFilter`] — content-based filters over
//!   advertisements (theme, area, kind, schema requirements, name globs),
//! * [`registry::SensorRegistry`] — the directory: publish/unpublish,
//!   discovery queries and the organisation criteria of requirement §2
//!   (by theme, by hosting node, by spatial cell),
//! * [`broker::Broker`] — subscription matching with join/leave
//!   notifications,
//! * [`enrich`] — spatio-temporal enrichment of tuples from sensors that
//!   cannot produce their own position (paper §3).

mod broker;
mod credit;
pub mod enrich;
mod filter;
mod message;
pub mod registry;

pub use broker::{Broker, BrokerEvent, SubscriptionId};
pub use credit::CreditTable;
pub use filter::SubscriptionFilter;
pub use message::{SensorAdvertisement, SensorKind};
pub use registry::SensorRegistry;

use std::fmt;

/// Errors from the publish/subscribe layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PubSubError {
    /// The sensor id is not currently published.
    UnknownSensor(u64),
    /// A sensor with this id is already published.
    DuplicateSensor(u64),
    /// The subscription id is not active.
    UnknownSubscription(u64),
}

impl fmt::Display for PubSubError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PubSubError::UnknownSensor(id) => write!(f, "unknown sensor #{id}"),
            PubSubError::DuplicateSensor(id) => write!(f, "sensor #{id} already published"),
            PubSubError::UnknownSubscription(id) => write!(f, "unknown subscription #{id}"),
        }
    }
}

impl std::error::Error for PubSubError {}
