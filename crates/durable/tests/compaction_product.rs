//! The streamed merge writes the product the materializing merge wrote,
//! byte for byte. The specification is the keep/drop loop compaction ran
//! before it streamed, kept here verbatim over `SegmentLog::scan()` of a
//! copy of the directory: it reads the whole run, folds each checkpoint key
//! from its last base, drops dominated horizon markers, superseded
//! checkpoint frames and expired cold events, and frames the survivors. A
//! property over runs that mix all of these — late and expiring events,
//! dominated markers, a checkpoint key with a base in the run and one with
//! only deltas, forced and policy-planned merges — compares the product's
//! bytes, the `CompactionStats`, the query answers (live, and after a
//! reopen of both directories) and `take_checkpoints()` after a reopen.
//! Answers alone (`compaction_props.rs`) cannot see where a checkpoint
//! frame went or which markers were dropped.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::prelude::*;
use sl_durable::codec::frame;
use sl_durable::compact::{self, CompactionPolicy, CompactionStats, MergeRun, SegmentMeta};
use sl_durable::{
    DurableConfig, DurableWarehouse, FsyncPolicy, LogPos, Record, SegmentLog, TempDir,
    CODEC_VERSION,
};
use sl_ops::{CheckpointDelta, OpCheckpoint};
use sl_stt::{
    AttrType, Duration, Event, Field, GeoPoint, Schema, SensorId, SpatialGranularity, SttMeta,
    TemporalGranularity, Theme, TimeInterval, Timestamp, Tuple, Value,
};
use sl_warehouse::EventQuery;
use std::collections::{BTreeMap, HashMap};
use std::fs;
use std::path::Path;

fn minutes(m: i64) -> Timestamp {
    Timestamp::from_millis(m * 60_000)
}

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

fn policy() -> CompactionPolicy {
    CompactionPolicy::enabled().with_cold_retention(Duration::from_mins(60))
}

fn config(dir: &Path) -> DurableConfig {
    DurableConfig::at(dir)
        .with_fsync(FsyncPolicy::OnSeal)
        .with_segment_max_bytes(400)
        .with_compaction(policy())
}

fn queries() -> Vec<EventQuery> {
    vec![
        EventQuery::all(),
        EventQuery::all().in_time(TimeInterval::new(minutes(40), minutes(160))),
        EventQuery::all().with_theme(Theme::new("weather").unwrap()),
    ]
}

fn answers(dw: &mut DurableWarehouse) -> Vec<Vec<String>> {
    queries()
        .iter()
        .map(|q| {
            dw.query(q)
                .unwrap()
                .iter()
                .map(|e| format!("{e:?}"))
                .collect()
        })
        .collect()
}

/// Each key's fold, as the bytes of the base frame it would be.
fn folds(dw: &mut DurableWarehouse) -> BTreeMap<(String, String), Vec<u8>> {
    dw.take_checkpoints()
        .into_iter()
        .map(|(key, state)| {
            let rec = Record::Checkpoint {
                deployment: key.0.clone(),
                service: key.1.clone(),
                state,
            };
            (key, rec.encode())
        })
        .collect()
}

// --- The specification: compaction's keep/drop loop before it streamed ---

/// `out[i]` = max horizon (ms) over `markers[i..]`.
fn suffix_maxima(markers: &[(LogPos, Timestamp)]) -> Vec<i64> {
    let mut out = vec![0i64; markers.len()];
    let mut max = i64::MIN;
    for i in (0..markers.len()).rev() {
        max = max.max(markers[i].1.as_millis());
        out[i] = max;
    }
    out
}

fn is_cold(
    markers: &[(LogPos, Timestamp)],
    suffix_max: &[i64],
    pos: LogPos,
    event: &Event,
) -> bool {
    let i = markers.partition_point(|(mpos, _)| *mpos < pos);
    match suffix_max.get(i) {
        Some(&h) => event.time_interval().end.as_millis() <= h,
        None => false,
    }
}

/// The product of merging `run` out of the whole log `all`, and its stats
/// (`duration_us` zero).
fn reference(
    all: &[(LogPos, Record)],
    metas: &[SegmentMeta],
    run: MergeRun,
    cutoff: Option<i64>,
) -> (Vec<u8>, CompactionStats) {
    let markers: Vec<(LogPos, Timestamp)> = all
        .iter()
        .filter_map(|(pos, rec)| match rec {
            Record::Horizon(h) => Some((*pos, *h)),
            _ => None,
        })
        .collect();
    let suffix_max = suffix_maxima(&markers);
    let input: Vec<&(LogPos, Record)> = all
        .iter()
        .filter(|(pos, _)| (run.first..=run.last).contains(&pos.segment))
        .collect();

    let mut folds: HashMap<(&str, &str), (usize, OpCheckpoint)> = HashMap::new();
    for (i, (_, rec)) in input.iter().enumerate() {
        match rec {
            Record::Checkpoint {
                deployment,
                service,
                state,
            } => {
                folds.insert((deployment, service), (i, state.clone()));
            }
            Record::CheckpointDelta {
                deployment,
                service,
                evicted,
                appended,
            } => {
                if let Some((_, fold)) = folds.get_mut(&(deployment.as_str(), service.as_str())) {
                    fold.apply(CheckpointDelta {
                        reset: false,
                        evicted: *evicted,
                        appended: appended.clone(),
                    });
                }
            }
            _ => {}
        }
    }

    let mut kept: Vec<Record> = Vec::with_capacity(input.len());
    let mut events_dropped = 0u64;
    let mut markers_dropped = 0u64;
    let mut checkpoints_dropped = 0u64;
    for (i, (pos, rec)) in input.iter().enumerate() {
        match rec {
            Record::Event(e) => {
                let expired = cutoff.is_some_and(|c| e.time_interval().end.as_millis() <= c);
                if expired && is_cold(&markers, &suffix_max, *pos, e) {
                    events_dropped += 1;
                } else {
                    kept.push(rec.clone());
                }
            }
            Record::Horizon(h) => {
                let after = markers.partition_point(|(mpos, _)| *mpos <= *pos);
                let later_max = suffix_max.get(after).copied().unwrap_or(i64::MIN);
                if later_max >= h.as_millis() {
                    markers_dropped += 1;
                } else {
                    kept.push(rec.clone());
                }
            }
            Record::Checkpoint {
                deployment,
                service,
                ..
            } => match folds.get_mut(&(deployment.as_str(), service.as_str())) {
                Some((base, fold)) if *base == i => kept.push(Record::Checkpoint {
                    deployment: deployment.clone(),
                    service: service.clone(),
                    state: std::mem::take(fold),
                }),
                _ => checkpoints_dropped += 1,
            },
            Record::CheckpointDelta {
                deployment,
                service,
                ..
            } => {
                if folds.contains_key(&(deployment.as_str(), service.as_str())) {
                    checkpoints_dropped += 1;
                } else {
                    kept.push(rec.clone());
                }
            }
        }
    }

    let mut bytes = b"SLDUR".to_vec();
    bytes.extend_from_slice(&[CODEC_VERSION, 0, 0]);
    for rec in &kept {
        bytes.extend_from_slice(&frame(&rec.encode()));
    }
    let stats = CompactionStats {
        segments_in: run.inputs,
        generation: run.generation,
        bytes_before: metas
            .iter()
            .filter(|m| m.first >= run.first && m.last <= run.last)
            .map(|m| m.bytes)
            .sum(),
        bytes_after: bytes.len() as u64,
        events_dropped,
        markers_dropped,
        checkpoints_dropped,
        duration_us: 0,
    };
    (bytes, stats)
}

// --- The property ---

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, &'static str),
    Evict(i64),
    /// A base of the first key (the window reset to these tuples).
    Base(Vec<i64>),
    /// A delta of the first key (`true`) or of the second, which never has
    /// a base.
    Delta(bool, usize, Vec<i64>),
    /// Merge every sealed segment (`true`) or the policy's next run, at
    /// this minute.
    Compact(bool, i64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let insert = || {
        (
            0i64..240,
            prop_oneof![Just("weather/rain"), Just("social/tweet")],
        )
            .prop_map(|(m, t)| Op::Insert(m, t))
    };
    let tuples = || proptest::collection::vec(0i64..1_000, 0..3);
    // Inserts are the commonest step.
    prop_oneof![
        insert(),
        insert(),
        insert(),
        (0i64..240).prop_map(Op::Evict),
        tuples().prop_map(Op::Base),
        (any::<bool>(), 0usize..3, tuples()).prop_map(|(k, e, t)| Op::Delta(k, e, t)),
        (any::<bool>(), 60i64..400).prop_map(|(f, m)| Op::Compact(f, m)),
    ]
}

/// Copy every file of `from` into `to`.
fn copy_dir(from: &Path, to: &Path) {
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// The first segment number a segment file covers.
fn first_covered(name: &str) -> Option<u32> {
    name.strip_prefix("seg-")?.get(..6)?.parse().ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn the_streamed_product_is_the_materialized_product(
        ops in proptest::collection::vec(arb_op(), 40..240),
    ) {
        let dir = TempDir::new("cproduct").unwrap();
        let mut dw = DurableWarehouse::open(config(dir.path())).unwrap();
        let tuples = |vs: &[i64]| vs.iter().map(|v| (0, tuple(*v))).collect::<Vec<_>>();
        for op in &ops {
            match op {
                Op::Insert(m, theme) => dw.insert(event(*m, theme)).unwrap(),
                Op::Evict(m) => {
                    dw.evict_before(minutes(*m)).unwrap();
                }
                Op::Base(vs) => {
                    let delta = CheckpointDelta { reset: true, evicted: 0, appended: tuples(vs) };
                    dw.persist_checkpoint("edw", "hourly", &delta).unwrap();
                }
                Op::Delta(first_key, evicted, vs) => {
                    let service = if *first_key { "hourly" } else { "daily" };
                    let delta = CheckpointDelta {
                        reset: false,
                        evicted: *evicted,
                        appended: tuples(vs),
                    };
                    dw.persist_checkpoint("edw", service, &delta).unwrap();
                }
                Op::Compact(forced, now) => {
                    // The specification runs on a copy of the directory.
                    dw.sync().unwrap();
                    let spec_dir = TempDir::new("cproduct-spec").unwrap();
                    copy_dir(dir.path(), spec_dir.path());
                    let (mut log, _, _) = SegmentLog::open(config(spec_dir.path())).unwrap();
                    let all = log.scan().unwrap();
                    let metas = log.sealed_metas();
                    drop(log);
                    let planned = if *forced {
                        compact::plan_forced(&metas)
                    } else {
                        compact::plan(&metas)
                    };
                    let got = if *forced {
                        dw.compact_now(minutes(*now)).unwrap()
                    } else {
                        dw.maybe_compact(minutes(*now)).unwrap()
                    };
                    let (Some(run), Some(got)) = (planned, got) else {
                        prop_assert!(planned.is_none() && got.is_none());
                        continue;
                    };
                    let before = folds(&mut DurableWarehouse::open(config(spec_dir.path())).unwrap());

                    let cutoff = Some(minutes(*now).saturating_sub(Duration::from_mins(60)).as_millis());
                    let (want, want_stats) = reference(&all, &metas, run, cutoff);
                    prop_assert_eq!(CompactionStats { duration_us: 0, ..got }, want_stats);
                    let name = format!("seg-{:06}-{:06}-g{}.slg", run.first, run.last, run.generation);
                    prop_assert!(fs::read(dir.path().join(&name)).unwrap() == want, "product bytes differ");

                    // Put the specification's product in place of the inputs.
                    for entry in fs::read_dir(spec_dir.path()).unwrap() {
                        let path = entry.unwrap().path();
                        let file = path.file_name().unwrap().to_string_lossy().into_owned();
                        if first_covered(&file).is_some_and(|n| (run.first..=run.last).contains(&n)) {
                            fs::remove_file(&path).unwrap();
                        }
                    }
                    fs::write(spec_dir.path().join(&name), &want).unwrap();
                    let mut spec = DurableWarehouse::open(config(spec_dir.path())).unwrap();
                    let spec_answers = answers(&mut spec);
                    prop_assert_eq!(answers(&mut dw), spec_answers.clone());
                    prop_assert_eq!(folds(&mut spec), before.clone());

                    drop(dw);
                    dw = DurableWarehouse::open(config(dir.path())).unwrap();
                    prop_assert!(!dw.recovery_report().lossy());
                    prop_assert_eq!(answers(&mut dw), spec_answers);
                    prop_assert_eq!(folds(&mut dw), before);
                }
            }
        }
    }
}
