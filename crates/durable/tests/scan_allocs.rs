//! A cold query pays heap allocations for what it returns, not for what it
//! visits: over cached blocks, a query that matches nothing allocates next
//! to nothing. One test only — the counter below is process-wide, and a
//! second test running beside it would be counted too.

#![allow(clippy::disallowed_methods)] // tests may panic freely

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

#[test]
fn a_query_matching_nothing_allocates_nothing_per_cached_frame() {
    let dir = TempDir::new("scan-allocs").unwrap();
    let config = DurableConfig::at(dir.path())
        .with_fsync(FsyncPolicy::OnSeal)
        .with_segment_max_bytes(16 * 1024)
        .with_cache_blocks(256);
    let mut dw = DurableWarehouse::open(config).unwrap();
    let osaka = SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(34.7, 135.5));
    // Enough sealed frames that the active segment's (decoded afresh by
    // every query, never cached) are few beside them.
    for m in 0..8_000 {
        // A string value: cloning such an event allocates.
        dw.insert(Event::new(
            Value::Str(format!("reading {m}")),
            TemporalGranularity::Minute,
            m,
            osaka,
            Theme::new("weather/rain").unwrap(),
        ))
        .unwrap();
    }
    dw.evict_before(Timestamp::from_millis(8_000 * 60_000))
        .unwrap();
    assert_eq!(dw.hot().len(), 0, "every event is cold");
    let cached_frames: u64 = dw
        .log()
        .sealed_metas()
        .iter()
        .map(|m| u64::from(m.frames))
        .sum();
    assert!(cached_frames >= 1_000, "only {cached_frames} sealed frames");

    // No index prunes by area, so every block is visited; nothing is there.
    let elsewhere = EventQuery::all().in_area(BoundingBox::from_corners(
        GeoPoint::new_unchecked(-40.0, -70.0),
        GeoPoint::new_unchecked(-39.0, -69.0),
    ));
    let hits = |dw: &DurableWarehouse| dw.metrics_snapshot().counters["log/cache/hits"];
    assert!(dw.query(&elsewhere).unwrap().is_empty()); // fills the cache
    let hits_before = hits(&dw);

    let before = ALLOCS.load(Relaxed);
    let found = dw.query(&elsewhere).unwrap();
    let allocs = ALLOCS.load(Relaxed) - before;

    assert!(found.is_empty());
    assert!(
        (hits(&dw) - hits_before) * 64 >= cached_frames,
        "the second run was served from the cache"
    );
    assert!(
        allocs * 10 < cached_frames,
        "{allocs} allocations over {cached_frames} cached frames"
    );
}
