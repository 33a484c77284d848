//! A restart costs memory per hot event and per segment, not per logged
//! record: reopening a log of several MiB whose events have all gone cold
//! raises the live heap by less than a fixed bound above where it stood, and
//! the bound does not move when the log doubles. One test only — the
//! counters below are process-wide, and a second test running beside it
//! would be counted too.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use sl_durable::{DurableConfig, DurableWarehouse, FsyncPolicy, TempDir};
use sl_ops::CheckpointDelta;
use sl_stt::{
    AttrType, Event, Field, GeoPoint, Schema, SensorId, SpatialGranularity, SttMeta,
    TemporalGranularity, Theme, Timestamp, Tuple, Value,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

struct Tracking;

/// Bytes allocated and not yet freed.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// The highest `LIVE` since the last reset.
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` through this allocator.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Relaxed);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// The most a reopen may raise the live heap when nothing is hot, whatever
/// the log's length.
const BOUND: usize = 2 * 1024 * 1024;

fn tuple(v: i64) -> Tuple {
    let schema = Schema::new(vec![Field::new("v", AttrType::Int)])
        .unwrap()
        .into_ref();
    let meta = SttMeta::without_location(
        Timestamp::from_secs(v),
        Theme::new("weather/temperature").unwrap(),
        SensorId(1),
    );
    Tuple::new(schema, vec![Value::Int(v)], meta).unwrap()
}

fn minutes(m: i64) -> Timestamp {
    Timestamp::from_millis(m * 60_000)
}

/// Write `events` events in many segments, spilling every 1 000 of them
/// behind a horizon marker and extending one checkpoint log (a base, then
/// deltas) as it goes, and spill the last of them too; then reopen the log
/// and return how far the live heap rose above its level before the open,
/// with the log's size on disk.
fn reopen_peak(events: i64) -> (usize, u64) {
    let dir = TempDir::new("reopen-memory").unwrap();
    let config = DurableConfig::at(dir.path())
        .with_fsync(FsyncPolicy::OnSeal)
        .with_segment_max_bytes(256 * 1024);
    let disk = {
        let mut dw = DurableWarehouse::open(config.clone()).unwrap();
        let osaka = SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(34.7, 135.5));
        let themes = [
            Theme::new("weather/rain").unwrap(),
            Theme::new("traffic/congestion").unwrap(),
        ];
        for m in 0..events {
            let theme = themes[(m % 2) as usize].clone();
            dw.insert(Event::new(
                Value::Float(m as f64 / 4.0),
                TemporalGranularity::Minute,
                m,
                osaka,
                theme,
            ))
            .unwrap();
            if m % 1_000 == 999 {
                dw.evict_before(minutes(m - 100)).unwrap();
                dw.persist_checkpoint(
                    "edw",
                    "hourly",
                    &CheckpointDelta {
                        reset: m == 999,
                        evicted: usize::from(m != 999),
                        appended: vec![(0, tuple(m))],
                    },
                )
                .unwrap();
            }
        }
        dw.evict_before(minutes(events)).unwrap();
        assert!(dw.hot().is_empty());
        dw.log().disk_bytes()
    };

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let mut dw = DurableWarehouse::open(config).unwrap();
    let rise = PEAK.load(Relaxed) - before;

    assert!(dw.hot().is_empty(), "every event is cold");
    let report = dw.recovery_report();
    assert_eq!(report.events, events as u64);
    assert!(!report.lossy());
    let window = &dw.take_checkpoints()[&("edw".to_string(), "hourly".to_string())];
    assert_eq!(window.len(), 1, "the base and its deltas fold to one tuple");
    (rise, disk)
}

#[test]
fn a_reopen_holds_a_bounded_heap_when_nothing_is_hot() {
    let (rise, disk) = reopen_peak(80_000);
    assert!(disk >= 4 << 20, "only {disk} bytes logged");
    assert!(
        rise < BOUND,
        "reopening {disk} bytes raised the heap by {rise}"
    );

    let (rise, doubled) = reopen_peak(160_000);
    assert!(doubled >= 8 << 20, "only {doubled} bytes logged");
    assert!(
        rise < BOUND,
        "reopening {doubled} bytes raised the heap by {rise}"
    );
}
