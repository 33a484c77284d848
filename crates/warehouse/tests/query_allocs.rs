//! A hot query allocates for the candidates of the one index it reads and
//! for its answer, not for every index that applies: the planner counts
//! each index's candidates from its list lengths and copies only the
//! cheapest. One test only — the counter below is process-wide, and a
//! second test running beside it would be counted too.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use sl_stt::{
    Event, GeoPoint, SpatialGranularity, TemporalGranularity, Theme, TimeInterval, Timestamp, Value,
};
use sl_warehouse::{EventQuery, EventWarehouse};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Counting;

/// Bytes requested from the allocator, freed or not.
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Relaxed);
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const THEMES: [&str; 4] = [
    "weather/temperature",
    "weather/rain",
    "social/tweet",
    "traffic",
];

#[test]
fn a_ten_minute_query_allocates_for_its_candidates_not_the_hot_tier() {
    let minute = TemporalGranularity::Minute;
    let origin = Timestamp::from_civil(2016, 7, 1, 0, 0, 0);
    let first = minute.granule_of(origin);
    let osaka = SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(34.7, 135.5));
    let themes = THEMES.map(|t| Theme::new(t).unwrap());
    let mut w = EventWarehouse::with_defaults();
    let minutes = 96 * 60;
    for m in 0..minutes {
        for theme in &themes {
            w.insert(Event::new(
                Value::Int(m),
                minute,
                first + m,
                osaka,
                theme.clone(),
            ));
        }
    }
    let from = Timestamp::from_civil(2016, 7, 3, 12, 0, 0);
    let q = EventQuery::all()
        .in_time(TimeInterval::new(
            from,
            Timestamp::from_civil(2016, 7, 3, 12, 10, 0),
        ))
        .with_theme(themes[1].clone());

    let before = ALLOCATED.load(Relaxed);
    let answer = w.query(&q);
    let allocated = ALLOCATED.load(Relaxed) - before;

    assert_eq!(answer.len(), 10);
    assert_eq!(answer, w.query_scan(&q));
    // The theme index alone lists a quarter of the hot tier: 5 760
    // positions, 46 080 bytes. The time index lists 4 events a minute, so
    // the chosen candidates and the answer fit in a few hundred bytes.
    assert!(
        allocated <= 1024,
        "a 10-minute one-theme query over {} events allocated {allocated} bytes",
        w.len()
    );
}
