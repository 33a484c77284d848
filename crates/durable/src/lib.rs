//! # sl-durable — crash-safe persistence for StreamLoader
//!
//! The paper's pipelines terminate in the Event Data Warehouse, "a
//! real-time platform that persists processed events" (§4, demo P2). The
//! in-memory [`EventWarehouse`](sl_warehouse::EventWarehouse) reproduces
//! its query model; this crate supplies the missing word — *persists* —
//! with the standard log-structured recipe of durable stream stores:
//!
//! * [`codec`] — a versioned binary codec for STT events, tuples, and
//!   [`OpCheckpoint`](sl_ops::OpCheckpoint) blobs: length-prefixed frames,
//!   CRC-32 checksums, bit-exact float round-trips.
//! * [`SegmentLog`] — an append-only segment log with rotation, a sparse
//!   per-segment time index, a configurable [`FsyncPolicy`]
//!   (every-write / every-N / on-seal), and torn-tail recovery: on reopen,
//!   frames are scanned and checksum-verified, the first corrupt or
//!   incomplete frame truncates the file, and the [`RecoveryReport`]
//!   accounts for every byte cut.
//! * [`DurableWarehouse`] — hot in-memory indexes over the recent tail,
//!   cold sealed segments underneath. `evict_before` *spills* instead of
//!   discarding, and queries merge cold segment scans with the hot index
//!   path (verified against a brute-force reference).
//! * [`compact`] — size-tiered storage maintenance: small sealed segments
//!   merge into generation-N segments (order preserved exactly, so query
//!   results stay byte-identical), redundant horizon markers drop,
//!   checkpoint logs collapse onto their last base, and expired cold events age out under
//!   [`CompactionPolicy::cold_retention`](compact::CompactionPolicy).
//! * [`index`] — per-block zone indexes for compacted segments: time
//!   bounds plus a bloom-style [`ThemeFilter`](index::ThemeFilter) over
//!   theme-path prefixes, kept in memory and rebuilt by the recovery scan,
//!   so cold queries prune whole blocks and seek instead of scanning. A
//!   visited block is read, verified and decoded afresh on every scan, and
//!   each record is moved to its caller, never copied.
//!
//! Engine operator checkpoints ride the same log — a base frame plus delta
//! frames per operator, folded on open — so a crashed node's
//! blocking-operator window caches restore from disk through the existing
//! recovery path (`sl-engine`'s `open_durable`).
//!
//! The crate is std-only and never panics on any disk content: damage
//! surfaces as a [`DurableError`] or as truncation in the recovery report.
//!
//! ## Example
//!
//! The codec layer round-trips every record kind bit-exactly:
//!
//! ```
//! use sl_durable::codec::Record;
//! use sl_stt::Timestamp;
//!
//! let horizon = Timestamp::from_secs(3_600);
//! let payload = Record::Horizon(horizon).encode();
//! let decoded = Record::decode(&payload).unwrap();
//! assert!(matches!(decoded, Record::Horizon(t) if t == horizon));
//! ```
#![warn(missing_docs)]

pub mod codec;
pub mod compact;
pub mod error;
pub mod index;
pub mod log;
pub mod tmp;
pub mod warehouse;

pub use codec::{crc32, Record, CODEC_VERSION};
pub use compact::{CompactionPolicy, CompactionStats};
pub use error::DurableError;
pub use index::{ColdFrontier, Pruner, ThemeFilter};
pub use log::{DurableConfig, FsyncPolicy, LogPos, RecoveryReport, SegmentLog};
pub use tmp::TempDir;
pub use warehouse::DurableWarehouse;
