//! # sl-warehouse — the Event Data Warehouse
//!
//! The destination of the demo's dataflows: "the data processed by means of
//! the dataflow can be stored in the Event Data Warehouse" (paper §4, demo
//! P2; the EDW itself is paper reference 6, a NICT-internal real-time complex
//! event platform). This substrate reproduces the role it plays for
//! StreamLoader: an embedded, append-only store of STT [`Event`]s with
//!
//! * a **temporal index** (B-tree over hour granules),
//! * a **spatial index** (grid cells at a configurable granularity),
//! * a **theme index** (prefix-matching over the theme hierarchy),
//! * [`query`] — index-backed selection with a brute-force reference
//!   implementation for property testing,
//! * [`cube`] — multigranular STT roll-ups (count/avg/sum/min/max per
//!   coarser space–time–theme cell).
//!
//! [`Event`]: sl_stt::Event

pub mod cube;
pub mod query;
pub mod store;
pub mod viz;

pub use cube::{
    cell_slot, numeric_value, CellAcc, CellKey, CellMap, CellSlot, CubeCell, CubeQuery,
};
pub use query::EventQuery;
pub use store::{tuple_events, EventWarehouse, WarehouseConfig, WarehouseStats};
pub use viz::render_heatmap;
