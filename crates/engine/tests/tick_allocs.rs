//! A monitor tick pays for what changed in the continuous-query
//! registrations, not for how many there are: on a warmed engine, ticks
//! with 32 subscribers and 2 views allocate exactly as often as ticks with
//! one subscriber and the same views. The monitor's rows are updated in
//! place, and a row key or `kind` is rendered only for a registration the
//! monitor has not seen. The counter below counts only the allocations of
//! the thread that sets `COUNTED` (the test's own), so the harness's
//! threads do not land in the measured windows.

use sl_engine::{Engine, EngineConfig, OverflowPolicy};
use sl_netsim::Topology;
use sl_stt::{Duration, SpatialGranularity, TemporalGranularity, Theme, Timestamp};
use sl_warehouse::{CubeQuery, EventQuery};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on the test's thread: only its allocations are counted. A
    /// `const` initializer, so reading it never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Relaxed);
    }
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

/// Allocations made while the engine runs `ticks` more monitor ticks (one
/// per virtual second; nothing else is scheduled).
fn allocs_over(e: &mut Engine, ticks: u64) -> u64 {
    let (start, before) = (e.now(), ALLOCS.load(Relaxed));
    for k in 1..=ticks {
        e.run_until(start + Duration::from_secs(k));
    }
    ALLOCS.load(Relaxed) - before
}

#[test]
fn a_monitor_tick_allocates_alike_for_one_and_for_thirty_two_subscribers() {
    COUNTED.with(|c| c.set(true));
    let config = EngineConfig {
        migration_enabled: false,
        ..EngineConfig::default()
    };
    let start = Timestamp::from_civil(2016, 7, 1, 8, 0, 0);
    let mut e = Engine::new(Topology::new(), config, start);
    let theme = |t: &str| Theme::new(t).unwrap();
    let queries = [
        EventQuery::all().with_theme(theme("weather")),
        EventQuery::all().with_theme(theme("social/tweet")),
        EventQuery::all().with_theme(theme("traffic")),
        EventQuery::all(),
    ];
    for (i, select) in [EventQuery::all(), queries[0].clone()]
        .into_iter()
        .enumerate()
    {
        let q = CubeQuery {
            select,
            tgran: TemporalGranularity::Hour,
            sgran: SpatialGranularity::World,
            theme_depth: 1,
        };
        e.register_view(&format!("view{i}"), q);
    }
    let subscribe = |e: &mut Engine, i: usize| {
        let q = queries[i % queries.len()].clone();
        e.subscribe_events(&format!("client{i}"), q, Some(64), OverflowPolicy::Block)
    };

    subscribe(&mut e, 0);
    allocs_over(&mut e, 10); // the rows exist, every buffer has grown
    let one = allocs_over(&mut e, 100);

    for i in 1..32 {
        subscribe(&mut e, i);
    }
    allocs_over(&mut e, 10);
    let many = allocs_over(&mut e, 100);
    assert_eq!(
        one, many,
        "100 ticks allocated {one} times with 1 subscriber, {many} times with 32"
    );
}
