//! A roll-up pays heap allocations per cell, not per event: an event that
//! lands in a cell already open renders no key and builds no theme, and one
//! that cannot be coarsened to the target formats no error. Allocations are
//! counted per thread, so the tests do not disturb each other.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use sl_cq::MaterializedView;
use sl_stt::{
    Event, GeoPoint, SpatialGranularity, SpatialGranule, TemporalGranularity, Theme, Timestamp,
    Value,
};
use sl_warehouse::{CubeQuery, EventQuery, EventWarehouse};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A const-initialised `Cell` has no destructor, so it is there for as
    // long as its thread is.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations `f` makes on this thread.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Three hours, two theme roots, one grid-2 cell: six cells.
fn hourly_by_root() -> CubeQuery {
    CubeQuery {
        select: EventQuery::all(),
        tgran: TemporalGranularity::Hour,
        sgran: SpatialGranularity::grid(2),
        theme_depth: 1,
    }
}

/// `n` events spread evenly over three hours, alternating between two
/// theme roots at one grid-8 cell near Osaka; every fifth is pinned to the
/// World granule, which `hourly_by_root` cannot coarsen.
fn events(n: i64) -> Vec<Event> {
    let osaka = SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(34.7, 135.5));
    let themes = [
        Theme::new("weather/temperature/t1").unwrap(),
        Theme::new("traffic/congestion").unwrap(),
    ];
    (0..n)
        .map(|i| {
            let at = Timestamp::from_millis(i * 3 * 3_600_000 / n);
            let sgranule = if i % 5 == 4 {
                SpatialGranule::World
            } else {
                osaka
            };
            Event::new(
                Value::Float(i as f64 * 0.25),
                TemporalGranularity::Second,
                TemporalGranularity::Second.granule_of(at),
                sgranule,
                themes[(i % 2) as usize].clone(),
            )
        })
        .collect()
}

fn warehouse(n: i64) -> EventWarehouse {
    let mut w = EventWarehouse::with_defaults();
    for e in events(n) {
        w.insert(e);
    }
    w
}

#[test]
fn a_rollup_allocates_per_cell_not_per_event() {
    let q = hourly_by_root();
    let mut small = warehouse(1_000);
    let mut big = warehouse(10_000);
    small.rollup(&q); // names the warehouse's instruments
    big.rollup(&q);

    let (few, cells) = allocs_of(|| small.rollup(&q));
    let (many, big_cells) = allocs_of(|| big.rollup(&q));
    let (scanned, scan_cells) = allocs_of(|| big.rollup_scan(&q));

    assert_eq!(cells.len(), 6);
    assert_eq!(big_cells.len(), 6);
    assert_eq!(scan_cells, big_cells);
    assert_eq!(
        many, few,
        "10 000 events cost {many} allocations, 1 000 cost {few}"
    );
    assert_eq!(
        scanned, many,
        "rollup_scan and rollup differ in allocations"
    );
    assert!(many <= 8 * 6, "{many} allocations for 6 cells");
}

#[test]
fn absorbing_into_an_open_cell_allocates_only_for_its_contributions() {
    let mut view = MaterializedView::new(hourly_by_root());
    let stream = events(1_001);
    // Opens the cell of the first hour, first theme and Osaka's cell.
    assert!(view.absorb(&stream[0]));

    let same_cell: Vec<&Event> = stream[1..]
        .iter()
        .filter(|e| e.theme == stream[0].theme && e.sgranule != SpatialGranule::World)
        .filter(|e| e.tgranule < 3_600)
        .collect();
    assert!(same_cell.len() > 100, "{} events", same_cell.len());
    let (spent, absorbed) = allocs_of(|| same_cell.iter().filter(|e| view.absorb(e)).count());
    assert_eq!(absorbed, same_cell.len());
    assert_eq!(view.cell_count(), 1);
    // The contribution list grows by doubling from one entry: one
    // reallocation per power of two passed, and nothing else.
    let doublings = u64::from(usize::BITS - absorbed.leading_zeros());
    assert!(
        spent <= doublings,
        "{spent} allocations for {absorbed} absorbs into one open cell"
    );

    // An event the view cannot coarsen allocates nothing at all.
    let world = stream.iter().find(|e| e.sgranule == SpatialGranule::World);
    let (spent, took) = allocs_of(|| view.absorb(world.unwrap()));
    assert!(!took);
    assert_eq!(spent, 0);
}
