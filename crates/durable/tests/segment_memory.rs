//! A restart holds one read buffer, not a segment file: reopening a log
//! whose segment is over 16 MiB — one written whole, or the product of a
//! merge that a crash left beside its inputs — raises the live heap by less
//! than the bound `reopen_memory.rs` sets for a log of small segments. The
//! counters below are per thread, so each test measures only its own reopen.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use sl_durable::{DurableConfig, DurableWarehouse, FsyncPolicy, TempDir};
use sl_ops::CheckpointDelta;
use sl_stt::{
    AttrType, Event, Field, GeoPoint, Schema, SensorId, SpatialGranularity, SttMeta,
    TemporalGranularity, Theme, Timestamp, Tuple, Value,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::{Path, PathBuf};

struct Tracking;

thread_local! {
    /// Bytes this thread allocated and has not freed. A `const`
    /// initializer, so reading it never allocates.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest `LIVE` since the last reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn grew(bytes: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + bytes;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations are passed on unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grew(-(layout.size() as isize));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` through this allocator.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grew(new_size as isize - layout.size() as isize);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: Tracking = Tracking;

/// The bound of `reopen_memory.rs`: the most a reopen may raise the live
/// heap when nothing is hot.
const BOUND: isize = 2 * 1024 * 1024;

/// How large the large segment is at least.
const LARGE: u64 = 16 << 20;

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

/// Events to log for more than [`LARGE`] bytes of them.
const EVENTS: i64 = 120_000;

/// Fill a log with the shape of `reopen_memory.rs` — every 1 000 events
/// spilled behind a horizon marker, one checkpoint log extended as it goes,
/// the last events spilled too — with text values of 100 bytes, so fewer
/// events make up the large segment. `backwards` logs the batches of 1 000
/// from the latest to the earliest, each spilled whole, so every marker
/// covers less than the one before it and a merge keeps them all (forwards,
/// it keeps none: each is covered by a later one). Returns the open
/// warehouse.
fn fill(config: &DurableConfig, backwards: bool) -> DurableWarehouse {
    let mut dw = DurableWarehouse::open(config.clone()).unwrap();
    let osaka = SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(34.7, 135.5));
    let themes = [
        Theme::new("weather/rain").unwrap(),
        Theme::new("traffic/congestion").unwrap(),
    ];
    let batches = EVENTS / 1_000;
    for k in 0..batches {
        let batch = if backwards { batches - 1 - k } else { k };
        for m in batch * 1_000..(batch + 1) * 1_000 {
            let text = format!("{m:0100}");
            let theme = themes[(m % 2) as usize].clone();
            dw.insert(Event::new(
                Value::Str(text),
                TemporalGranularity::Minute,
                m,
                osaka,
                theme,
            ))
            .unwrap();
        }
        let horizon = if backwards {
            (batch + 1) * 1_000
        } else {
            batch * 1_000 + 899
        };
        dw.evict_before(minutes(horizon)).unwrap();
        dw.persist_checkpoint(
            "edw",
            "hourly",
            &CheckpointDelta {
                reset: k == 0,
                evicted: usize::from(k != 0),
                appended: vec![(0, tuple(k))],
            },
        )
        .unwrap();
    }
    dw.evict_before(minutes(EVENTS)).unwrap();
    assert!(dw.hot().is_empty());
    dw
}

/// Reopen the log and return how far the live heap rose above its level
/// before the open, checking that every event came back cold and the
/// checkpoint log folded.
fn reopen_rise(config: DurableConfig) -> (isize, DurableWarehouse) {
    let before = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(before));
    let mut dw = DurableWarehouse::open(config).unwrap();
    let rise = PEAK.with(Cell::get) - before;

    assert!(dw.hot().is_empty(), "every event is cold");
    let report = dw.recovery_report();
    assert_eq!(report.events, EVENTS as u64);
    assert!(!report.lossy());
    let window = &dw.take_checkpoints()[&("edw".to_string(), "hourly".to_string())];
    assert_eq!(window.len(), 1, "the base and its deltas fold to one tuple");
    (rise, dw)
}

/// The segment files in `dir`, by name.
fn segment_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "slg"))
        .collect();
    files.sort();
    files
}

#[test]
fn a_reopen_reads_a_large_segment_through_one_buffer() {
    let dir = TempDir::new("segment-memory-one").unwrap();
    let config = DurableConfig::at(dir.path())
        .with_fsync(FsyncPolicy::OnSeal)
        .with_segment_max_bytes(64 << 20);
    drop(fill(&config, false));
    let files = segment_files(dir.path());
    assert_eq!(files.len(), 1, "one segment holds the whole log");
    let size = fs::metadata(&files[0]).unwrap().len();
    assert!(size >= LARGE, "only {size} bytes in the segment");

    let (rise, _) = reopen_rise(config);
    assert!(
        rise < BOUND,
        "reopening a {size}-byte segment raised the heap by {rise}"
    );
}

#[test]
fn an_interrupted_merge_resolves_without_reading_its_product_whole() {
    let dir = TempDir::new("segment-memory-merge").unwrap();
    let config = DurableConfig::at(dir.path())
        .with_fsync(FsyncPolicy::OnSeal)
        .with_segment_max_bytes(1 << 20);
    let mut dw = fill(&config, true);

    // Copy the inputs aside, merge them, then put them back: the product
    // and its inputs are now both on disk, as after a crash between the
    // publishing rename and the input deletion.
    let aside = TempDir::new("segment-memory-aside").unwrap();
    let sealed = segment_files(dir.path());
    let inputs = &sealed[..sealed.len() - 1];
    for p in inputs {
        fs::copy(p, aside.path().join(p.file_name().unwrap())).unwrap();
    }
    let stats = dw.compact_now(minutes(EVENTS)).unwrap().unwrap();
    assert_eq!(stats.segments_in, inputs.len());
    drop(dw);
    for p in inputs {
        fs::copy(aside.path().join(p.file_name().unwrap()), p).unwrap();
    }
    let product = segment_files(dir.path())
        .into_iter()
        .find(|p| p.to_string_lossy().ends_with("-g1.slg"))
        .unwrap();
    let size = fs::metadata(&product).unwrap().len();
    assert!(size >= LARGE, "only {size} bytes in the product");

    let (rise, dw) = reopen_rise(config);
    assert_eq!(
        dw.recovery_report().superseded_segments,
        inputs.len() as u64,
        "the product wins"
    );
    assert!(product.exists());
    assert!(
        rise < BOUND,
        "resolving a {size}-byte product raised the heap by {rise}"
    );
}
