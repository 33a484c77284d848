//! A cold query pays heap allocations for what it returns, not for what it
//! visits: every visited block is read into one buffer the scan reuses and
//! each record is decoded by value, so a query over numeric and `Null`
//! events that matches nothing allocates fewer times than it reads blocks:
//! a theme the scan has met costs no allocation. A `Str`
//! value still costs one allocation per visited `Str` frame — the decoder
//! owns the string it hands over. One test only — the counter below is
//! process-wide, and a second test running beside it would be counted too.

use sl_durable::{DurableConfig, DurableWarehouse, FsyncPolicy, TempDir};
use sl_stt::{
    BoundingBox, Event, GeoPoint, SpatialGranularity, TemporalGranularity, Theme, Timestamp, Value,
};
use sl_warehouse::EventQuery;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Frames per index block (the log's fixed index stride).
const BLOCK_FRAMES: u32 = 64;

#[test]
fn a_query_matching_nothing_allocates_less_than_once_per_visited_block() {
    let dir = TempDir::new("scan-allocs").unwrap();
    let config = DurableConfig::at(dir.path())
        .with_fsync(FsyncPolicy::OnSeal)
        .with_segment_max_bytes(16 * 1024);
    let mut dw = DurableWarehouse::open(config).unwrap();
    let osaka = SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(34.7, 135.5));
    let themes = [
        Theme::new("weather/rain").unwrap(),
        Theme::new("traffic/congestion").unwrap(),
    ];
    for m in 0..8_000 {
        // Alternating themes, and every numeric kind of value beside `Null`.
        let value = match (m / 2) % 4 {
            0 => Value::Float(m as f64 / 10.0),
            1 => Value::Int(-m),
            2 => Value::Bool(m % 3 == 0),
            _ => Value::Null,
        };
        dw.insert(Event::new(
            value,
            TemporalGranularity::Minute,
            m,
            osaka,
            themes[(m % 2) as usize].clone(),
        ))
        .unwrap();
    }
    dw.evict_before(Timestamp::from_millis(8_000 * 60_000))
        .unwrap();
    assert_eq!(dw.hot().len(), 0, "every event is cold");
    let sealed = dw.log().sealed_metas();
    let sealed_blocks: u64 = sealed
        .iter()
        .map(|m| u64::from(m.frames.div_ceil(BLOCK_FRAMES)))
        .sum();
    let sealed_bytes: u64 = sealed.iter().map(|m| m.bytes).sum();
    assert!(sealed_blocks > 64, "only {sealed_blocks} sealed blocks");

    // No index prunes by area, so every block is visited; nothing is there.
    let elsewhere = EventQuery::all().in_area(BoundingBox::from_corners(
        GeoPoint::new_unchecked(-40.0, -70.0),
        GeoPoint::new_unchecked(-39.0, -69.0),
    ));
    let bytes_read = |dw: &DurableWarehouse| dw.metrics_snapshot().counters["log/bytes_read"];
    assert!(dw.query(&elsewhere).unwrap().is_empty()); // names every instrument
    let read_before = bytes_read(&dw);

    let before = ALLOCS.load(Relaxed);
    let found = dw.query(&elsewhere).unwrap();
    let allocs = ALLOCS.load(Relaxed) - before;

    assert!(found.is_empty());
    // Every sealed frame was read (segment headers are not).
    let header_bytes = 8 * sealed.len() as u64;
    assert!(bytes_read(&dw) - read_before + header_bytes >= sealed_bytes);
    assert!(
        allocs < sealed_blocks,
        "{allocs} allocations over {sealed_blocks} visited sealed blocks"
    );
}
