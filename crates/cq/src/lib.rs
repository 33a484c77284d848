//! # sl-cq — continuous queries over the Event Data Warehouse
//!
//! The paper's architecture (§2, Figure 1) ends at two sinks: the Event
//! Data Warehouse and a visualisation tool. One-shot `EventQuery` /
//! `CubeQuery` scans serve both, but every dashboard refresh re-pays the
//! scan. This crate adds the serving layer those sinks imply at scale:
//! clients register *standing* queries once and the ingest path keeps the
//! answers current —
//!
//! * **subscriptions** ([`CqHub::subscribe`]): a standing
//!   [`EventQuery`](sl_warehouse::EventQuery) whose matches are pushed,
//!   per-event, into a bounded [`PushQueue`] drained by [`CqHub::poll`];
//! * **materialized views** ([`CqHub::register_view`]): a standing
//!   `CubeQuery` whose roll-up cells are maintained incrementally
//!   ([`MaterializedView`]) — O(affected cells) per tuple, retraction on
//!   eviction, byte-identical to a brute-force rescan at all times;
//! * **catch-up** for late joiners and lagged subscribers: snapshot +
//!   sequence-numbered deltas (the protocol is in the `hub` module docs).
//!
//! The crate is std-only and engine-agnostic: it depends on `sl-stt`,
//! `sl-warehouse` (for the shared cube fold primitives that make
//! byte-identity possible) and `sl-obs`. The engine wires [`CqHub`] into
//! its warehouse ingest/evict path; nothing here spawns threads or holds
//! references into the store.
//!
//! ```
//! use sl_cq::{CqHub, QueuePolicy};
//! use sl_warehouse::EventQuery;
//! use sl_stt::Theme;
//!
//! let mut hub = CqHub::new();
//! let sub = hub.subscribe(
//!     "weather-watch",
//!     EventQuery::all().with_theme(Theme::new("weather").unwrap()),
//!     Some(1024),
//!     QueuePolicy::ShedOldest,
//! );
//! // ...the ingest path calls hub.on_events(&events) per batch...
//! let poll = hub.poll(sub).unwrap();
//! assert!(poll.deltas.is_empty()); // nothing ingested yet
//! ```

#![warn(missing_docs)]

mod hub;
mod queue;
mod view;

pub use hub::{CqHub, CqPoll, SubscriberId, SubscriptionStat, ViewId, ViewStat};
pub use queue::{PushOutcome, PushQueue, QueuePolicy};
pub use view::MaterializedView;
