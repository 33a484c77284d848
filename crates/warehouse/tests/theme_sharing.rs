//! The hot tier keeps one `Theme` allocation per distinct theme: events
//! whose equal themes were allocated one by one (as `tuple_events` makes
//! them, a fresh `Theme::child` per event) retain no more heap once stored
//! than events that share one `Theme` from the start. Only the thread that
//! sets `COUNTED` (the test's own) is counted, so the harness's threads do
//! not land in the measured windows.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use sl_stt::{Event, GeoPoint, SpatialGranularity, TemporalGranularity, Theme, Value};
use sl_warehouse::EventWarehouse;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Tracking;

/// Bytes allocated and not yet freed on the counted thread.
static LIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test's thread: only its allocations are counted. A
    /// `const` initializer, so reading it never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn counted() -> bool {
    COUNTED.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            LIVE.fetch_add(new_size, Relaxed);
        }
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// Events per warehouse.
const N: i64 = 4_096;

/// Heap the warehouse holds after `N` inserts, each event's theme made by
/// `theme(i)`.
fn retained(theme: impl Fn(i64) -> Theme) -> (usize, EventWarehouse) {
    let osaka = SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(34.7, 135.5));
    let before = LIVE.load(Relaxed);
    let mut w = EventWarehouse::with_defaults();
    for i in 0..N {
        w.insert(Event::new(
            Value::Int(i),
            TemporalGranularity::Minute,
            i,
            osaka,
            theme(i),
        ));
    }
    (LIVE.load(Relaxed) - before, w)
}

#[test]
fn equal_themes_allocated_apart_are_stored_once() {
    COUNTED.with(|c| c.set(true));
    let weather = Theme::new("weather").unwrap();
    let (apart, apart_w) = retained(|_| weather.child("rain").unwrap());
    let rain = weather.child("rain").unwrap();
    let (shared, shared_w) = retained(|_| rain.clone());

    assert_eq!(apart_w.len(), shared_w.len());
    assert!(apart_w.iter().zip(shared_w.iter()).all(|(a, b)| a == b));
    // The shared warehouse's one theme was made before it was measured.
    let one_theme = 64;
    assert!(
        apart.abs_diff(shared) <= one_theme,
        "{N} events retain {apart} bytes with themes allocated apart, {shared} with one shared"
    );
}
