//! The segment log's one frame writer: every append builds its frame in one
//! buffer the log reuses, and a payload the reader would reject (over
//! `MAX_FRAME_BYTES`) is refused before a byte of it reaches the disk, so
//! it cannot make a later reopen cut the records appended after it.
//!
//! Allocations are counted on the thread that sets `COUNTED` (the test's
//! own), so the harness's threads and the other test do not land in the
//! measured window.
#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use sl_durable::codec::MAX_FRAME_BYTES;
use sl_durable::{DurableConfig, DurableError, FsyncPolicy, Record, SegmentLog, TempDir};
use sl_ops::OpCheckpoint;
use sl_stt::{Event, SpatialGranule, TemporalGranularity, Theme, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::ErrorKind;
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

fn event(minute: i64) -> Record {
    Record::Event(Event::new(
        Value::Float(minute as f64 / 10.0),
        TemporalGranularity::Minute,
        minute,
        SpatialGranule::World,
        Theme::new("weather/rain").unwrap(),
    ))
}

#[test]
fn a_thousand_appends_reuse_one_frame_buffer() {
    COUNTED.with(|c| c.set(true));
    let dir = TempDir::new("frame-allocs").unwrap();
    // One segment holds every frame, so no rotation creates a file.
    let config = DurableConfig::at(dir.path()).with_fsync(FsyncPolicy::EveryN(64));
    let (mut log, _, _) = SegmentLog::open(config).unwrap();
    let rec = event(7);
    let before = ALLOCS.load(Relaxed);
    for _ in 0..1_000 {
        log.append(&rec).unwrap();
    }
    let allocs = ALLOCS.load(Relaxed) - before;
    // The frame buffer grows to one frame, and the sparse index gains a
    // block per 64 frames; neither allocates per append.
    assert!(allocs <= 32, "1 000 appends allocated {allocs} times");
}

#[test]
fn an_oversize_payload_is_refused_and_the_log_stays_whole() {
    let dir = TempDir::new("frame-bound").unwrap();
    let huge = Record::Checkpoint {
        deployment: "d".repeat(MAX_FRAME_BYTES as usize + 1),
        service: "window".to_string(),
        state: OpCheckpoint::empty(),
    };
    {
        let (mut log, _, _) = SegmentLog::open(DurableConfig::at(dir.path())).unwrap();
        log.append(&event(1)).unwrap();
        let bytes = log.disk_bytes();
        match log.append(&huge) {
            Err(DurableError::Io(e)) => assert_eq!(e.kind(), ErrorKind::InvalidInput),
            other => panic!("an oversize frame must be refused, got {other:?}"),
        }
        assert_eq!(
            log.disk_bytes(),
            bytes,
            "nothing of the refused frame is written"
        );
        log.append(&event(2)).unwrap();
    }
    let (_, recs, report) = SegmentLog::open(DurableConfig::at(dir.path())).unwrap();
    assert!(!report.lossy(), "{report:?}");
    let values: Vec<_> = recs
        .iter()
        .map(|(_, rec)| match rec {
            Record::Event(e) => e.value.clone(),
            other => panic!("only the two events are on disk, got {other:?}"),
        })
        .collect();
    assert_eq!(values, [Value::Float(0.1), Value::Float(0.2)]);
}
