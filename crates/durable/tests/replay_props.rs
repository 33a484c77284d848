//! Restart replays the log in one ordered pass, and the two-pass rebuild it
//! replaced is its specification.
//!
//! The specification is the open as it was before, restated over the
//! public API: collect every record with [`SegmentLog::open`], take the
//! horizon markers in a first pass, then
//! keep hot, in log order, exactly the events no later marker covers (an
//! event at position `p` ending at `e` is cold iff some marker after `p`
//! carries a horizon `h ≥ e`), and fold each `(deployment, service)`
//! checkpoint log from its last base.
//!
//! Over arbitrary interleavings of ingest, eviction, checkpoint bases and
//! deltas, forced compactions (with and without cold-event age-out) and a
//! cut anywhere in any segment file, [`DurableWarehouse::open`] must leave
//! the same hot events in the same order, the same checkpoints and the same
//! recovery report as the specification run on a byte-identical copy of the
//! directory.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::prelude::*;
use sl_durable::{
    CompactionPolicy, DurableConfig, DurableWarehouse, FsyncPolicy, LogPos, Record, RecoveryReport,
    SegmentLog, TempDir,
};
use sl_ops::{CheckpointDelta, OpCheckpoint};
use sl_stt::{
    AttrType, Duration, Event, Field, GeoPoint, Schema, SensorId, SpatialGranularity, SttMeta,
    TemporalGranularity, Theme, Timestamp, Tuple, Value,
};
use std::collections::HashMap;
use std::fs;
use std::path::Path;

type Checkpoints = HashMap<(String, String), OpCheckpoint>;

/// What an open leaves behind: the hot events in storage order, the folded
/// checkpoints and the recovery report.
type Opened = (Vec<Event>, Checkpoints, RecoveryReport);

fn minutes(m: i64) -> Timestamp {
    Timestamp::from_millis(m * 60_000)
}

fn event(minute: i64, hourly: bool, theme: &str) -> Event {
    let g = SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(34.7, 135.5));
    let (tgran, granule) = if hourly {
        (TemporalGranularity::Hour, minute / 60)
    } else {
        (TemporalGranularity::Minute, minute)
    };
    Event::new(
        Value::Int(minute),
        tgran,
        granule,
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

fn config(dir: &Path, retention: bool) -> DurableConfig {
    let policy = CompactionPolicy::enabled();
    let policy = if retention {
        policy.with_cold_retention(Duration::from_mins(120))
    } else {
        policy
    };
    DurableConfig::at(dir)
        .with_fsync(FsyncPolicy::Always)
        .with_segment_max_bytes(400)
        .with_compaction(policy)
}

/// The specification: the whole log from [`SegmentLog::open`], its markers
/// first, then every event no later marker covers and every checkpoint
/// frame folded in log order.
fn two_pass_open(dir: &Path) -> Opened {
    let (_, records, report) = SegmentLog::open(DurableConfig::at(dir)).unwrap();
    let count = |kind: fn(&Record) -> bool| records.iter().filter(|(_, r)| kind(r)).count() as u64;
    assert_eq!(report.events, count(|r| matches!(r, Record::Event(_))));
    assert_eq!(report.horizons, count(|r| matches!(r, Record::Horizon(_))));
    assert_eq!(report.records(), records.len() as u64);
    let markers: Vec<(LogPos, Timestamp)> = records
        .iter()
        .filter_map(|(pos, rec)| match rec {
            Record::Horizon(h) => Some((*pos, *h)),
            _ => None,
        })
        .collect();
    let mut suffix_max = vec![0i64; markers.len()];
    let mut max = i64::MIN;
    for i in (0..markers.len()).rev() {
        max = max.max(markers[i].1.as_millis());
        suffix_max[i] = max;
    }
    let is_cold = |pos: LogPos, event: &Event| {
        let i = markers.partition_point(|(mpos, _)| *mpos < pos);
        suffix_max
            .get(i)
            .is_some_and(|&h| event.time_interval().end.as_millis() <= h)
    };

    let mut hot = Vec::new();
    let mut recovered: Checkpoints = HashMap::new();
    for (pos, rec) in records {
        match rec {
            Record::Event(event) => {
                if !is_cold(pos, &event) {
                    hot.push(event);
                }
            }
            Record::Checkpoint {
                deployment,
                service,
                state,
            } => {
                recovered.insert((deployment, service), state);
            }
            Record::CheckpointDelta {
                deployment,
                service,
                evicted,
                appended,
            } => recovered
                .entry((deployment, service))
                .or_default()
                .apply(CheckpointDelta {
                    reset: false,
                    evicted,
                    appended,
                }),
            Record::Horizon(_) => {}
        }
    }
    (hot, recovered, report)
}

/// The system under test: one ordered replay.
fn replayed_open(dir: &Path) -> Opened {
    let mut dw = DurableWarehouse::open(DurableConfig::at(dir)).unwrap();
    let hot = dw.hot().iter().cloned().collect();
    (hot, dw.take_checkpoints(), dw.recovery_report())
}

fn copy_dir(from: &Path, to: &Path) {
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// The segment files of `dir`, by name (which is log order).
fn segment_files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "slg"))
        .collect();
    files.sort();
    files
}

fn report_fields(r: &RecoveryReport) -> [u64; 6] {
    [
        r.events,
        r.checkpoints,
        r.horizons,
        r.truncated_bytes,
        r.dropped_segments,
        r.superseded_segments,
    ]
}

#[derive(Debug, Clone)]
enum Op {
    Insert(i64, bool, &'static str),
    Evict(i64),
    /// A checkpoint frame for one of two keys: a base of `n` tuples, or a
    /// delta evicting `evicted` and appending `n`.
    Checkpoint {
        key: bool,
        base: bool,
        evicted: usize,
        n: usize,
    },
    Compact,
}

fn arb_insert() -> impl Strategy<Value = Op> {
    let theme = prop_oneof![
        Just("weather/temperature"),
        Just("weather/rain"),
        Just("social/tweet"),
    ];
    (0i64..480, any::<bool>(), theme).prop_map(|(m, hourly, theme)| Op::Insert(m, hourly, theme))
}

/// Inserts are drawn three times as often as each other operation.
fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_insert(),
        arb_insert(),
        arb_insert(),
        (0i64..480).prop_map(Op::Evict),
        (any::<bool>(), any::<bool>(), 0usize..3, 0usize..3).prop_map(|(key, base, evicted, n)| {
            Op::Checkpoint {
                key,
                base,
                evicted,
                n,
            }
        }),
        Just(Op::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The one-pass replay leaves what the two-pass rebuild leaves: the
    /// same hot events in the same order, the same checkpoint folds and the
    /// same recovery report, on any log, torn or not.
    #[test]
    fn the_replay_matches_the_two_pass_rebuild(
        ops in proptest::collection::vec(arb_op(), 1..64),
        retention in any::<bool>(),
        cut in proptest::option::of((any::<u64>(), any::<u64>())),
    ) {
        let source = TempDir::new("replay-src").unwrap();
        {
            let mut dw = DurableWarehouse::open(config(source.path(), retention)).unwrap();
            let mut v = 0i64;
            for op in &ops {
                match op {
                    Op::Insert(m, hourly, theme) => dw.insert(event(*m, *hourly, theme)).unwrap(),
                    Op::Evict(m) => {
                        dw.evict_before(minutes(*m)).unwrap();
                    }
                    Op::Checkpoint { key, base, evicted, n } => {
                        let appended = (0..*n).map(|_| {
                            v += 1;
                            (0, tuple(v))
                        });
                        let service = if *key { "hourly" } else { "daily" };
                        let delta = CheckpointDelta {
                            reset: *base,
                            evicted: if *base { 0 } else { *evicted },
                            appended: appended.collect(),
                        };
                        dw.persist_checkpoint("edw", service, &delta).unwrap();
                    }
                    Op::Compact => {
                        dw.compact_now(minutes(600)).unwrap();
                    }
                }
            }
        }
        // A crash mid-write: cut one segment file (any of them) short.
        if let Some((which, at)) = cut {
            let files = segment_files(source.path());
            let file = &files[(which % files.len() as u64) as usize];
            let len = fs::metadata(file).unwrap().len();
            let f = fs::OpenOptions::new().write(true).open(file).unwrap();
            f.set_len(at % (len + 1)).unwrap();
        }

        let spec_dir = TempDir::new("replay-spec").unwrap();
        let real_dir = TempDir::new("replay-real").unwrap();
        copy_dir(source.path(), spec_dir.path());
        copy_dir(source.path(), real_dir.path());
        let (spec_hot, spec_ckpts, spec_report) = two_pass_open(spec_dir.path());
        let (hot, ckpts, report) = replayed_open(real_dir.path());

        prop_assert_eq!(hot, spec_hot);
        prop_assert_eq!(report_fields(&report), report_fields(&spec_report));
        let mut keys: Vec<_> = spec_ckpts.keys().cloned().collect();
        keys.sort();
        let mut got: Vec<_> = ckpts.keys().cloned().collect();
        got.sort();
        prop_assert_eq!(&got, &keys);
        for key in &keys {
            prop_assert_eq!(&ckpts[key].tuples, &spec_ckpts[key].tuples);
        }
        // Both opens repaired their copy the same way.
        for (a, b) in segment_files(spec_dir.path())
            .iter()
            .zip(segment_files(real_dir.path()).iter())
        {
            prop_assert_eq!(fs::read(a).unwrap(), fs::read(b).unwrap());
        }
    }
}
