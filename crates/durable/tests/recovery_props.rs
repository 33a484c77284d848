//! Crash-recovery properties.
//!
//! * **Truncate-at-every-byte** (exhaustive): for *every* prefix of a
//!   segment file, reopening never panics, recovers exactly the records
//!   whose frames fit the prefix, and never resurrects anything past the
//!   cut.
//! * **Arbitrary bit flips** (property): a flipped byte anywhere in a
//!   segment is caught by the CRC layer; recovery yields exactly the frames
//!   before the damage.
//! * **Tiered queries match the reference** (property): after any
//!   interleaving of inserts and evictions — and a crash/reopen — the
//!   merged cold+hot query equals the brute-force log scan, and the hot
//!   tier mirrors a plain in-memory warehouse fed the same operations.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::prelude::*;
use sl_durable::{DurableConfig, DurableWarehouse, FsyncPolicy, Record, SegmentLog, TempDir};
use sl_stt::{
    Event, GeoPoint, SpatialGranularity, TemporalGranularity, Theme, TimeInterval, Timestamp, Value,
};
use sl_warehouse::{EventQuery, EventWarehouse};
use std::fs;

fn event(minute: i64, theme: &str) -> Event {
    let g = SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(34.7, 135.5));
    Event::new(
        Value::Int(minute),
        TemporalGranularity::Minute,
        minute,
        g,
        Theme::new(theme).unwrap(),
    )
}

fn minutes(m: i64) -> Timestamp {
    Timestamp::from_millis(m * 60_000)
}

/// Write `n` records into a fresh single-segment log and return the raw
/// segment bytes plus the byte offset at which each frame *ends*.
fn build_segment(dir: &TempDir, n: i64) -> (Vec<u8>, Vec<usize>) {
    let config = DurableConfig::at(dir.path()).with_fsync(FsyncPolicy::Always);
    let (mut log, _, _) = SegmentLog::open(config).unwrap();
    let mut ends = Vec::new();
    for m in 0..n {
        // Mix record kinds so truncation is tested across all of them.
        let rec = match m % 3 {
            0 | 1 => Record::Event(event(m, "weather/temperature")),
            _ => Record::Horizon(minutes(m)),
        };
        log.append(&rec).unwrap();
        ends.push(log.disk_bytes() as usize);
    }
    drop(log);
    let bytes = fs::read(dir.path().join("seg-000001.slg")).unwrap();
    assert_eq!(bytes.len(), *ends.last().unwrap());
    (bytes, ends)
}

#[test]
fn truncate_at_every_byte_recovers_exact_prefix() {
    let source = TempDir::new("trunc-src").unwrap();
    let (bytes, frame_ends) = build_segment(&source, 18);

    for cut in 0..=bytes.len() {
        let dir = TempDir::new("trunc-case").unwrap();
        fs::write(dir.path().join("seg-000001.slg"), &bytes[..cut]).unwrap();

        let (_, records, report) = SegmentLog::open(DurableConfig::at(dir.path())).unwrap();

        // Exactly the frames whose bytes fit the prefix survive — never one
        // more (no resurrection past the cut), never one fewer.
        let expected = frame_ends.iter().filter(|&&end| end <= cut).count();
        assert_eq!(
            records.len(),
            expected,
            "cut at byte {cut}: recovered {} of {} frames",
            records.len(),
            frame_ends.len()
        );
        // Losses are accounted, not silent — except at exact frame
        // boundaries (including the bare header and the empty file), where
        // the prefix *is* a well-formed shorter log and truncation is
        // undetectable by construction.
        let at_boundary = cut == 0 || cut == 8 || frame_ends.contains(&cut);
        assert_eq!(report.lossy(), !at_boundary, "cut at byte {cut}");

        // The recovered log accepts appends again (the truncation left a
        // well-formed file).
        let (mut log, _, _) = SegmentLog::open(DurableConfig::at(dir.path())).unwrap();
        log.append(&Record::Horizon(minutes(999))).unwrap();
        let (_, after, _) = SegmentLog::open(DurableConfig::at(dir.path())).unwrap();
        assert_eq!(after.len(), expected + 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A flipped byte anywhere in the segment: recovery never panics and
    /// recovers exactly the frames before the damaged one.
    #[test]
    fn bit_flip_recovers_frames_before_damage(
        n in 4i64..24,
        flip_at in any::<u64>(),
    ) {
        let source = TempDir::new("flip-src").unwrap();
        let (bytes, frame_ends) = build_segment(&source, n);

        // Flip one byte past the header (header damage resets the whole
        // segment; that path is covered by its own unit test).
        let header = 8usize;
        let i = header + (flip_at % (bytes.len() - header) as u64) as usize;
        let mut damaged = bytes.clone();
        damaged[i] ^= 0xFF;

        let dir = TempDir::new("flip-case").unwrap();
        fs::write(dir.path().join("seg-000001.slg"), &damaged).unwrap();
        let (_, records, report) = SegmentLog::open(DurableConfig::at(dir.path())).unwrap();

        // The first frame whose byte range contains `i` is damaged; every
        // frame before it must survive, nothing at or after it may.
        let intact = frame_ends.iter().filter(|&&end| end <= i).count();
        prop_assert_eq!(records.len(), intact);
        prop_assert!(report.lossy());
        prop_assert!(report.truncated_bytes > 0);
    }

    /// Merged cold+hot queries equal the brute-force reference after any
    /// interleaving of inserts and evictions, across a crash/reopen, and
    /// the hot tier stays identical to an in-memory warehouse fed the same
    /// operations.
    #[test]
    fn tiered_query_matches_reference(
        ops in proptest::collection::vec(
            (0i64..240, any::<bool>(), prop_oneof![
                Just("weather/temperature"),
                Just("weather/rain"),
                Just("social/tweet"),
            ]),
            1..60,
        ),
        q_start in 0i64..240,
        q_len in 1i64..120,
    ) {
        let dir = TempDir::new("tier-prop").unwrap();
        let config = DurableConfig::at(dir.path()).with_segment_max_bytes(512);
        let mut dw = DurableWarehouse::open(config.clone()).unwrap();
        let mut mirror = EventWarehouse::with_defaults();

        for (m, evict, theme) in &ops {
            if *evict {
                let h = minutes(*m);
                let spilled = dw.evict_before(h).unwrap();
                let discarded = mirror.evict_before(h);
                prop_assert_eq!(spilled, discarded);
            } else {
                dw.insert(event(*m, theme)).unwrap();
                mirror.insert(event(*m, theme));
            }
        }

        let queries = [
            EventQuery::all(),
            EventQuery::all().in_time(TimeInterval::new(minutes(q_start), minutes(q_start + q_len))),
            EventQuery::all().with_theme(Theme::new("weather").unwrap()),
        ];

        let render = |mut v: Vec<Event>| -> Vec<String> {
            v.sort_by_key(|e| (e.tgranule, e.theme.to_string()));
            v.into_iter().map(|e| e.to_string()).collect()
        };

        for q in &queries {
            let merged = render(dw.query(q).unwrap());
            let reference = render(dw.query_scan(q).unwrap());
            prop_assert_eq!(&merged, &reference, "pre-reopen disagreement on {:?}", q);
        }
        // The hot tier is exactly the in-memory warehouse.
        prop_assert_eq!(
            render(dw.hot().iter().cloned().collect()),
            render(mirror.iter().cloned().collect())
        );

        // Crash (drop without ceremony) and reopen: same answers.
        drop(dw);
        let mut dw = DurableWarehouse::open(config).unwrap();
        for q in &queries {
            let merged = render(dw.query(q).unwrap());
            let reference = render(dw.query_scan(q).unwrap());
            prop_assert_eq!(&merged, &reference, "post-reopen disagreement on {:?}", q);
        }
        prop_assert_eq!(
            render(dw.hot().iter().cloned().collect()),
            render(mirror.iter().cloned().collect())
        );
    }
}
