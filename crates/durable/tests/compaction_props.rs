//! Compaction correctness properties — the contract the storage
//! maintenance layer must keep:
//!
//! * **Equivalence** (property): over *any* interleaving of inserts,
//!   evictions, and forced compactions, every query answer from the
//!   compacting log is exactly — order and all — the answer from a log
//!   that never compacts, before and after a crash/reopen of both.
//! * **Torn tail over generations** (exhaustive): truncating the active
//!   segment at *every* byte of a multi-generation layout (compacted
//!   gen-N segments below a gen-0 tail) recovers exactly a prefix of the
//!   record sequence, accounts every loss, and leaves an appendable log.
//! * **Mid-compaction crash states**: for every crash point of the
//!   replace protocol (products still `.tmp`; products renamed with
//!   inputs not yet deleted; a torn product next to surviving inputs),
//!   reopening loses nothing that was ever acknowledged.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::prelude::*;
use sl_durable::{
    CompactionPolicy, DurableConfig, DurableWarehouse, FsyncPolicy, Record, SegmentLog, TempDir,
};
use sl_durable::{LogPos, Pruner};
use sl_stt::{
    Event, GeoPoint, SpatialGranularity, TemporalGranularity, Theme, TimeInterval, Timestamp, Value,
};
use sl_warehouse::EventQuery;
use std::fs;
use std::path::Path;

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

fn small_config(dir: &Path) -> DurableConfig {
    DurableConfig::at(dir)
        .with_fsync(FsyncPolicy::Always)
        .with_segment_max_bytes(512)
        .with_compaction(CompactionPolicy::enabled())
}

/// The query mix every equivalence check runs: unbounded, time-windowed,
/// theme-rooted, and combined.
fn queries() -> Vec<EventQuery> {
    vec![
        EventQuery::all(),
        EventQuery::all().in_time(TimeInterval::new(minutes(40), minutes(160))),
        EventQuery::all().with_theme(Theme::new("weather").unwrap()),
        EventQuery::all()
            .with_theme(Theme::new("social/tweet").unwrap())
            .in_time(TimeInterval::new(minutes(0), minutes(200))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of inserts, evictions, and forced compactions:
    /// the compacting warehouse answers every query *exactly* like the
    /// never-compacting one — same events, same order — before and after
    /// both are crashed and reopened.
    #[test]
    fn compaction_never_changes_an_answer(
        ops in proptest::collection::vec(
            prop_oneof![
                // Insert at some minute under one of three themes.
                (0i64..240, prop_oneof![
                    Just("weather/temperature"),
                    Just("weather/rain"),
                    Just("social/tweet"),
                ]).prop_map(|(m, t)| (0u8, m, t)),
                // Evict everything older than some minute.
                (0i64..240).prop_map(|m| (1u8, m, "")),
                // Force a full compaction (stacks generations when repeated).
                Just((2u8, 0i64, "")),
            ],
            1..48,
        ),
    ) {
        let dir_c = TempDir::new("cprop-compact").unwrap();
        let dir_p = TempDir::new("cprop-plain").unwrap();
        let mut compacting = DurableWarehouse::open(small_config(dir_c.path())).unwrap();
        let mut plain = DurableWarehouse::open(small_config(dir_p.path())).unwrap();

        let mut compactions = 0u32;
        for (op, m, theme) in &ops {
            match op {
                0 => {
                    compacting.insert(event(*m, theme)).unwrap();
                    plain.insert(event(*m, theme)).unwrap();
                }
                1 => {
                    let a = compacting.evict_before(minutes(*m)).unwrap();
                    let b = plain.evict_before(minutes(*m)).unwrap();
                    prop_assert_eq!(a, b);
                }
                _ => {
                    // No cold_retention on the policy: a forced merge may
                    // drop markers and checkpoints but never an event.
                    if let Some(stats) = compacting.compact_now(minutes(10_000)).unwrap() {
                        prop_assert_eq!(stats.events_dropped, 0);
                        compactions += 1;
                    }
                }
            }
        }
        let _ = compactions;

        for q in &queries() {
            prop_assert_eq!(
                compacting.query(q).unwrap(),
                plain.query(q).unwrap(),
                "pre-reopen answers diverged on {:?}", q
            );
        }

        // Crash both (no graceful shutdown) and reopen: still identical,
        // and each log still agrees with its own brute-force scan.
        drop(compacting);
        drop(plain);
        let mut compacting = DurableWarehouse::open(small_config(dir_c.path())).unwrap();
        let mut plain = DurableWarehouse::open(small_config(dir_p.path())).unwrap();
        prop_assert!(!compacting.recovery_report().lossy());
        prop_assert!(!plain.recovery_report().lossy());
        for q in &queries() {
            prop_assert_eq!(
                compacting.query(q).unwrap(),
                plain.query(q).unwrap(),
                "post-reopen answers diverged on {:?}", q
            );
            let sort = |mut v: Vec<Event>| {
                v.sort_by_key(|e| (e.tgranule, e.theme.to_string(), e.to_string()));
                v
            };
            prop_assert_eq!(
                sort(compacting.query(q).unwrap()),
                sort(compacting.query_scan(q).unwrap()),
                "compacted log disagrees with its own scan on {:?}", q
            );
        }
    }
}

/// The pruners the predicate-scan property runs under: none, a time
/// window, a theme subtree (which only compacted segments can prune by).
fn pruners() -> Vec<Pruner> {
    vec![
        Pruner::keep_all(),
        Pruner {
            time: Some(TimeInterval::new(minutes(40), minutes(160))),
            ..Pruner::default()
        },
        Pruner {
            theme: Some(Theme::new("weather").unwrap()),
            ..Pruner::default()
        },
    ]
}

/// The predicate-scan logs: segments of a few index blocks each.
fn predicate_config(dir: &Path) -> DurableConfig {
    small_config(dir)
        .with_fsync(FsyncPolicy::OnSeal)
        .with_segment_max_bytes(6 * 1024)
}

/// A predicate that reads both of its arguments and splits every block.
fn keep(pos: LogPos, rec: &Record) -> bool {
    match rec {
        Record::Event(e) => e.tgranule % 3 != 0 || e.theme.as_str() == "social/tweet",
        _ => pos.frame.is_multiple_of(2),
    }
}

/// Open the log at `dir` and check, under every pruner, that a visitor
/// filtering by the predicate as records arrive keeps exactly what filtering
/// the collected scan would — positions and order included — on two passes
/// over the same log.
fn check_predicate_scans(dir: &Path) {
    let (mut log, _, report) = SegmentLog::open(predicate_config(dir)).unwrap();
    assert!(!report.lossy());
    // Index blocks hold 64 frames: a sealed segment longer than one block
    // splits blocks inside a segment, not only at segment boundaries.
    assert!(log.sealed_metas().iter().any(|m| m.frames > 64));
    for pruner in &pruners() {
        for pass in 0..2 {
            let encoded = |records: Vec<(LogPos, Record)>| -> Vec<(LogPos, Vec<u8>)> {
                records.into_iter().map(|(p, r)| (p, r.encode())).collect()
            };
            let mut all = Vec::new();
            log.scan_pruned(pruner, &mut |p, r| all.push((p, r)))
                .unwrap();
            let want: Vec<(LogPos, Record)> =
                all.into_iter().filter(|(p, r)| keep(*p, r)).collect();
            let mut got = Vec::new();
            log.scan_pruned(pruner, &mut |p, r| {
                if keep(p, &r) {
                    got.push((p, r));
                }
            })
            .unwrap();
            assert_eq!(encoded(got), encoded(want), "pass {pass}, {pruner:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Over random logs (sealed segments under an active one, before and
    /// after a forced compaction), handing the scan a predicate returns
    /// exactly what filtering the full scan by it would.
    #[test]
    fn predicate_scan_equals_filtered_full_scan(
        ops in proptest::collection::vec(
            prop_oneof![
                (0i64..240, prop_oneof![
                    Just("weather/temperature"),
                    Just("weather/rain"),
                    Just("social/tweet"),
                ]).prop_map(|(m, t)| (0u8, m, t)),
                (0i64..240).prop_map(|m| (1u8, m, "")),
            ],
            400..500,
        ),
    ) {
        let dir = TempDir::new("cprop-keep").unwrap();
        let config = predicate_config(dir.path());
        {
            let mut w = DurableWarehouse::open(config.clone()).unwrap();
            for (op, m, theme) in &ops {
                match op {
                    0 => w.insert(event(*m, theme)).unwrap(),
                    _ => {
                        w.evict_before(minutes(*m)).unwrap();
                    }
                }
            }
            prop_assert!(w.segment_count() > 2, "sealed segments under an active one");
        }
        check_predicate_scans(dir.path());
        {
            let mut w = DurableWarehouse::open(config).unwrap();
            prop_assert!(w.compact_now(minutes(10_000)).unwrap().is_some());
        }
        check_predicate_scans(dir.path());
    }
}

/// Build a multi-generation layout: two batches of inserts each evicted
/// cold, a forced compaction between them (so a gen-1 segment sits under
/// later gen-0 segments), and a second compaction stacking gen 2.
fn build_multi_generation(dir: &Path) -> DurableWarehouse {
    let mut w = DurableWarehouse::open(small_config(dir)).unwrap();
    for m in 0..24 {
        w.insert(event(m, "weather/temperature")).unwrap();
    }
    w.evict_before(minutes(24)).unwrap();
    w.compact_now(minutes(10_000))
        .unwrap()
        .expect("first merge");
    for m in 24..48 {
        w.insert(event(m, "social/tweet")).unwrap();
    }
    w.evict_before(minutes(48)).unwrap();
    w.compact_now(minutes(10_000))
        .unwrap()
        .expect("second merge");
    w
}

#[test]
fn torn_tail_truncates_exactly_at_every_byte_across_generations() {
    let source = TempDir::new("tornml-src").unwrap();
    {
        let mut w = build_multi_generation(source.path());
        // A few live appends into the gen-0 tail above the compacted
        // generations — the bytes the exhaustive truncation will tear.
        for m in 48..60 {
            w.insert(event(m, "weather/rain")).unwrap();
        }
        w.sync().unwrap();
    }

    // The active segment is the plain-form file with the highest number.
    let active = fs::read_dir(source.path())
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.file_name().into_string().unwrap()))
        .filter(|n| n.ends_with(".slg") && !n.contains("-g"))
        .max()
        .expect("an active gen-0 segment");
    let tail_bytes = fs::read(source.path().join(&active)).unwrap();

    // The untruncated record sequence is the oracle: every cut must
    // recover an exact prefix of it.
    let (_, full, full_report) = SegmentLog::open(DurableConfig::at(source.path())).unwrap();
    assert!(!full_report.lossy());
    let base = full.len() - count_tail_frames(&full, &active);

    let mut prev_len = 0usize;
    let mut clean_cuts = 0usize;
    for cut in 0..=tail_bytes.len() {
        let case = TempDir::new("tornml-case").unwrap();
        copy_dir(source.path(), case.path());
        fs::write(case.path().join(&active), &tail_bytes[..cut]).unwrap();

        let (_, records, report) = SegmentLog::open(DurableConfig::at(case.path())).unwrap();

        // Exact prefix: nothing reordered, nothing resurrected past the
        // cut, and the compacted generations below are untouched.
        assert!(records.len() >= base, "cut {cut} lost compacted records");
        assert_eq!(
            records.iter().map(|(_, r)| r.encode()).collect::<Vec<_>>(),
            full[..records.len()]
                .iter()
                .map(|(_, r)| r.encode())
                .collect::<Vec<_>>(),
            "cut at byte {cut} is not a prefix of the full log"
        );
        assert!(
            records.len() >= prev_len,
            "cut {cut}: recovery went backwards"
        );
        prev_len = records.len();
        if !report.lossy() {
            clean_cuts += 1;
        }

        // The healed log accepts appends again.
        let (mut log, _, _) = SegmentLog::open(DurableConfig::at(case.path())).unwrap();
        log.append(&Record::Horizon(minutes(999))).unwrap();
    }
    // Non-lossy cuts are exactly the well-formed prefixes: the empty
    // file, the bare header, and each frame boundary of the tail.
    assert_eq!(
        clean_cuts,
        2 + (full.len() - base),
        "loss accounting drifted"
    );
}

fn count_tail_frames(records: &[(sl_durable::LogPos, Record)], active: &str) -> usize {
    // `seg-NNNNNN.slg` — the tail's segment number.
    let number: u32 = active[4..10].parse().unwrap();
    records
        .iter()
        .filter(|(pos, _)| pos.segment == number)
        .count()
}

fn copy_dir(from: &Path, to: &Path) {
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Every crash point of the segment-replacement protocol, reconstructed
/// by file manipulation. The oracle is the pre-compaction snapshot: no
/// state may answer differently than the log the writer had acknowledged.
#[test]
fn mid_compaction_crash_loses_nothing_acknowledged() {
    // Snapshot the log right before compaction runs.
    let pre = TempDir::new("crash-pre").unwrap();
    {
        let mut w = DurableWarehouse::open(small_config(pre.path())).unwrap();
        for m in 0..30 {
            w.insert(event(
                m,
                if m % 2 == 0 {
                    "weather/rain"
                } else {
                    "social/tweet"
                },
            ))
            .unwrap();
        }
        w.evict_before(minutes(30)).unwrap();
        w.sync().unwrap();
    }
    // And right after: the product generation the rename published.
    let post = TempDir::new("crash-post").unwrap();
    copy_dir(pre.path(), post.path());
    {
        let mut w = DurableWarehouse::open(small_config(post.path())).unwrap();
        w.compact_now(minutes(10_000)).unwrap().expect("merged");
        w.sync().unwrap();
    }
    let product: Vec<String> = fs::read_dir(post.path())
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.file_name().into_string().unwrap()))
        .filter(|n| n.contains("-g"))
        .collect();
    assert!(
        !product.is_empty(),
        "compaction produced no generation files"
    );

    let oracle: Vec<Vec<Event>> = {
        let mut w = DurableWarehouse::open(small_config(pre.path())).unwrap();
        queries().iter().map(|q| w.query(q).unwrap()).collect()
    };
    let check = |dir: &Path, label: &str| {
        let mut w = DurableWarehouse::open(small_config(dir)).unwrap();
        for (q, want) in queries().iter().zip(&oracle) {
            assert_eq!(
                &w.query(q).unwrap(),
                want,
                "{label}: answer changed for {q:?}"
            );
        }
    };

    // Crash point 1: killed before the renames — products exist only as
    // `.tmp` files. Recovery must sweep them and serve from the inputs.
    let state = TempDir::new("crash-tmp").unwrap();
    copy_dir(pre.path(), state.path());
    for name in &product {
        fs::copy(
            post.path().join(name),
            state.path().join(format!("{name}.tmp")),
        )
        .unwrap();
    }
    check(state.path(), "products still .tmp");

    // Crash point 2: killed between the renames and the input deletion —
    // product and inputs coexist. The verified product must win and the
    // superseded inputs must be swept.
    let state = TempDir::new("crash-overlap").unwrap();
    copy_dir(pre.path(), state.path());
    for name in &product {
        fs::copy(post.path().join(name), state.path().join(name)).unwrap();
    }
    check(state.path(), "product and inputs coexist");
    let leftovers = fs::read_dir(state.path())
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.file_name().into_string().unwrap()))
        .filter(|n| n.ends_with(".slg"))
        .count();
    let post_segments = fs::read_dir(post.path())
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.file_name().into_string().unwrap()))
        .filter(|n| n.ends_with(".slg"))
        .count();
    assert_eq!(leftovers, post_segments, "superseded inputs were not swept");

    // Crash point 3: the product's rename landed torn (corrupt payload)
    // while the inputs still exist — the inputs must win.
    let state = TempDir::new("crash-torn").unwrap();
    copy_dir(pre.path(), state.path());
    for name in &product {
        fs::copy(post.path().join(name), state.path().join(name)).unwrap();
    }
    if let Some(seg) = product.iter().find(|n| n.ends_with(".slg")) {
        let mut bytes = fs::read(state.path().join(seg)).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(state.path().join(seg), &bytes).unwrap();
    }
    check(state.path(), "torn product next to inputs");
}
