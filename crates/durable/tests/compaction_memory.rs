//! A merge costs memory per block, not per run: compacting a log of several
//! MiB over many sealed segments — events, horizon markers and a checkpoint
//! log of one key, a base plus deltas — raises the live heap by less than a
//! fixed bound above where it stood, and the bound does not move when the
//! log doubles. One test only — the counters below are process-wide, and a
//! second test running beside it would be counted too.

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

/// The most a merge may raise the live heap, whatever its run.
const BOUND: usize = 1024 * 1024;

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

/// Write `events` events in many sealed segments, spilling every 1 000 of
/// them behind a horizon marker and extending one checkpoint log (a base,
/// then deltas) as it goes; then compact everything sealed and return how
/// far the live heap rose above its level before the call, with the bytes
/// the merge read.
fn merge_peak(events: i64) -> (usize, u64) {
    let dir = TempDir::new("compaction-memory").unwrap();
    let config = DurableConfig::at(dir.path())
        .with_fsync(FsyncPolicy::OnSeal)
        .with_segment_max_bytes(256 * 1024);
    let mut dw = DurableWarehouse::open(config).unwrap();
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
    let sealed = dw.log().sealed_metas();
    let merged: u64 = sealed.iter().map(|s| s.bytes).sum();
    assert!(sealed.len() >= 16, "only {} sealed segments", sealed.len());

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let stats = dw.compact_now(minutes(events)).unwrap().unwrap();
    let rise = PEAK.load(Relaxed) - before;

    assert_eq!(stats.segments_in, sealed.len());
    assert_eq!(stats.events_dropped, 0);
    assert!(stats.markers_dropped > 0 && stats.checkpoints_dropped > 0);
    (rise, merged)
}

#[test]
fn a_merge_holds_a_bounded_heap_whatever_its_run() {
    let (rise, merged) = merge_peak(80_000);
    assert!(merged >= 4 << 20, "only {merged} bytes merged");
    assert!(
        rise < BOUND,
        "merging {merged} bytes raised the heap by {rise}"
    );

    let (rise, doubled) = merge_peak(160_000);
    assert!(doubled >= 2 * merged - (256 << 10));
    assert!(
        rise < BOUND,
        "merging {doubled} bytes raised the heap by {rise}"
    );
}
