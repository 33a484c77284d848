//! The checkpoint log (base frames + delta frames) under crashes and
//! compaction:
//!
//! * **Torn tail at every byte**: cutting a log that ends in base + deltas
//!   anywhere recovers the fold of exactly the frames that fit the cut.
//! * **Compaction never changes a fold** (property, plus one pinned layout):
//!   whether a merged run straddles a base or holds only deltas, a reopen
//!   answers `take_checkpoints()` exactly as the uncompacted log does.
//! * **Bases only**: a directory written before delta frames existed (kind 2
//!   frames, last write wins) opens unchanged.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::prelude::*;
use sl_durable::{
    CompactionPolicy, DurableConfig, DurableWarehouse, FsyncPolicy, Record, SegmentLog, TempDir,
};
use sl_ops::{CheckpointDelta, OpCheckpoint};
use sl_stt::{
    AttrType, Event, Field, GeoPoint, Schema, SensorId, SpatialGranularity, SttMeta,
    TemporalGranularity, Theme, Timestamp, Tuple, Value,
};
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

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

fn event(minute: i64) -> Event {
    let g = SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(34.7, 135.5));
    let theme = Theme::new("weather/rain").unwrap();
    Event::new(
        Value::Int(minute),
        TemporalGranularity::Minute,
        minute,
        g,
        theme,
    )
}

fn delta(reset: bool, evicted: usize, appended: &[i64]) -> CheckpointDelta {
    CheckpointDelta {
        reset,
        evicted,
        appended: appended.iter().map(|v| (0, tuple(*v))).collect(),
    }
}

type Folds = BTreeMap<(String, String), Vec<u8>>;

/// Canonical bytes per key — byte equality is exact structural equality.
fn canonical<'a>(
    folds: impl IntoIterator<Item = (&'a (String, String), &'a OpCheckpoint)>,
) -> Folds {
    let encode = |((deployment, service), state): (&(String, String), &OpCheckpoint)| {
        let rec = Record::Checkpoint {
            deployment: deployment.clone(),
            service: service.clone(),
            state: state.clone(),
        };
        ((deployment.clone(), service.clone()), rec.encode())
    };
    folds.into_iter().map(encode).collect()
}

fn reopen_folds(config: DurableConfig) -> Folds {
    let recovered = DurableWarehouse::open(config).unwrap().take_checkpoints();
    canonical(&recovered)
}

fn key(service: &str) -> (String, String) {
    ("d".to_string(), service.to_string())
}

#[test]
fn torn_tail_at_every_byte_recovers_the_fold_of_a_prefix() {
    let source = TempDir::new("ckpt-torn-src").unwrap();
    let config = DurableConfig::at(source.path()).with_fsync(FsyncPolicy::Always);
    let script = [
        ("a", delta(true, 0, &[1, 2])),
        ("a", delta(false, 0, &[3])),
        ("b", delta(false, 0, &[10])), // never had a base
        ("a", delta(false, 2, &[4, 5])),
        ("a", delta(true, 0, &[])), // the tick
        ("a", delta(false, 0, &[6])),
        ("b", delta(false, 1, &[11, 12])),
        ("a", delta(false, 0, &[7])),
    ];
    // After each frame: where it ends on disk, and every key's fold so far.
    let mut model: BTreeMap<(String, String), OpCheckpoint> = BTreeMap::new();
    let mut prefixes: Vec<(usize, Folds)> = vec![(0, Folds::new())];
    {
        let mut dw = DurableWarehouse::open(config).unwrap();
        for (service, d) in &script {
            dw.persist_checkpoint("d", service, d).unwrap();
            model.entry(key(service)).or_default().apply(d.clone());
            prefixes.push((dw.log().disk_bytes() as usize, canonical(&model)));
        }
    }
    let bytes = fs::read(source.path().join("seg-000001.slg")).unwrap();
    assert_eq!(bytes.len(), prefixes.last().unwrap().0);

    for cut in 0..=bytes.len() {
        let dir = TempDir::new("ckpt-torn-case").unwrap();
        fs::write(dir.path().join("seg-000001.slg"), &bytes[..cut]).unwrap();
        let complete = prefixes.iter().rev().find(|(end, _)| *end <= cut).unwrap();
        assert_eq!(
            reopen_folds(DurableConfig::at(dir.path())),
            complete.1,
            "cut at byte {cut}"
        );
    }
}

fn small_config(dir: &Path, policy: CompactionPolicy) -> DurableConfig {
    DurableConfig::at(dir)
        .with_fsync(FsyncPolicy::Always)
        .with_segment_max_bytes(400)
        .with_compaction(policy)
}

/// The frames of `service` in a directory, as `B` (base) / `D` (delta), in
/// log order.
fn frame_kinds(dir: &Path, service: &str) -> String {
    let (_, records, _) = SegmentLog::open(DurableConfig::at(dir)).unwrap();
    let kinds = records.iter().filter_map(|(_, rec)| match rec {
        Record::Checkpoint { service: s, .. } if s == service => Some('B'),
        Record::CheckpointDelta { service: s, .. } if s == service => Some('D'),
        _ => None,
    });
    kinds.collect()
}

#[test]
fn a_run_that_straddles_a_base_or_holds_only_deltas_folds_the_same() {
    let dir = TempDir::new("ckpt-compact").unwrap();
    let policy = CompactionPolicy::enabled();
    let config = || small_config(dir.path(), policy.clone());
    let mut model: BTreeMap<(String, String), OpCheckpoint> = BTreeMap::new();
    let mut log = |dw: &mut DurableWarehouse, service: &str, d: CheckpointDelta| {
        dw.persist_checkpoint("d", service, &d).unwrap();
        model.entry(key(service)).or_default().apply(d);
    };

    // Stage 1: both keys get a base and grow; merged into one gen-1 segment.
    let mut dw = DurableWarehouse::open(config()).unwrap();
    log(&mut dw, "straddled", delta(true, 0, &[1]));
    log(&mut dw, "deltas_only", delta(true, 0, &[100]));
    for v in 2..12 {
        log(&mut dw, "straddled", delta(false, 0, &[v]));
        log(&mut dw, "deltas_only", delta(false, 0, &[100 + v]));
    }
    let first = dw.maybe_compact(Timestamp::from_secs(0)).unwrap();
    let first = first.expect("stage 1 sealed enough segments to merge");
    assert_eq!(first.generation, 1);

    // Stage 2, all in fresh gen-0 segments: `straddled` grows, is flushed by
    // a tick (a new base) and grows again; `deltas_only` only slides.
    for v in 12..18 {
        log(&mut dw, "straddled", delta(false, 0, &[v]));
        log(&mut dw, "deltas_only", delta(false, 1, &[100 + v]));
    }
    log(&mut dw, "straddled", delta(true, 0, &[]));
    for v in 18..24 {
        log(&mut dw, "straddled", delta(false, 0, &[v]));
        log(&mut dw, "deltas_only", delta(false, 1, &[100 + v]));
    }
    // Seal the tail so the run covers everything above.
    for m in 0..8 {
        dw.insert(event(m)).unwrap();
    }
    drop(dw);
    let uncompacted = reopen_folds(config());
    assert_eq!(uncompacted, canonical(&model));
    let deltas_before = frame_kinds(dir.path(), "deltas_only").matches('D').count();

    let mut dw = DurableWarehouse::open(config()).unwrap();
    let second = dw.maybe_compact(Timestamp::from_secs(0)).unwrap();
    let second = second.expect("stage 2 sealed enough gen-0 segments to merge");
    assert_eq!(second.generation, 1, "the gen-0 run, not the gen-1 product");
    assert!(second.checkpoints_dropped > 0);
    drop(dw);

    assert_eq!(reopen_folds(config()), uncompacted);
    // The straddled key's run collapsed onto its last base (the first 'B' is
    // stage 1's product); the deltas-only run was kept frame for frame.
    let straddled = frame_kinds(dir.path(), "straddled");
    assert!(straddled.starts_with("BB"), "{straddled}");
    assert!(straddled.matches('D').count() < 6, "{straddled}");
    let deltas_only = frame_kinds(dir.path(), "deltas_only");
    assert_eq!(deltas_only.matches('D').count(), deltas_before);
    assert_eq!(deltas_only.matches('B').count(), 1, "{deltas_only}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of bases, deltas, events and compactions (policy
    /// runs and forced full merges): the compacting log folds every key to
    /// exactly what the never-compacting one does.
    #[test]
    fn compaction_never_changes_a_fold(
        ops in proptest::collection::vec(
            prop_oneof![
                (0usize..3, any::<bool>(), 0usize..3, 0usize..3)
                    .prop_map(|(k, reset, evicted, n)| (0u8, k, reset, evicted, n)),
                (0usize..3, Just(false), 0usize..2, 1usize..3)
                    .prop_map(|(k, reset, evicted, n)| (0u8, k, reset, evicted, n)),
                Just((1u8, 0, false, 0, 0)), // an event, to move the segments on
                Just((2u8, 0, false, 0, 0)), // policy compaction
                Just((3u8, 0, false, 0, 0)), // forced full merge
            ],
            40..240,
        ),
    ) {
        let dir_c = TempDir::new("ckpt-prop-compact").unwrap();
        let dir_p = TempDir::new("ckpt-prop-plain").unwrap();
        let policy = CompactionPolicy::enabled();
        let mut compacting = DurableWarehouse::open(small_config(dir_c.path(), policy.clone())).unwrap();
        let mut plain = DurableWarehouse::open(small_config(dir_p.path(), policy.clone())).unwrap();
        let now = Timestamp::from_secs(0);
        for (i, (op, k, reset, evicted, n)) in ops.iter().enumerate() {
            match op {
                0 => {
                    let appended: Vec<i64> = (0..*n as i64).map(|j| i as i64 * 10 + j).collect();
                    let d = delta(*reset, *evicted, &appended);
                    let service = ["a", "b", "c"][*k];
                    compacting.persist_checkpoint("d", service, &d).unwrap();
                    plain.persist_checkpoint("d", service, &d).unwrap();
                }
                1 => {
                    compacting.insert(event(i as i64)).unwrap();
                    plain.insert(event(i as i64)).unwrap();
                }
                2 => drop(compacting.maybe_compact(now).unwrap()),
                _ => drop(compacting.compact_now(now).unwrap()),
            }
        }
        drop((compacting, plain));
        prop_assert_eq!(
            reopen_folds(small_config(dir_c.path(), policy.clone())),
            reopen_folds(small_config(dir_p.path(), policy))
        );
    }
}

#[test]
fn a_directory_of_bases_only_opens_unchanged() {
    let dir = TempDir::new("ckpt-bases-only").unwrap();
    let base = |service: &str, vs: &[i64]| Record::Checkpoint {
        deployment: "d".into(),
        service: service.into(),
        state: OpCheckpoint {
            tuples: vs.iter().map(|v| (0, tuple(*v))).collect(),
        },
    };
    // What every version before delta frames wrote: a whole snapshot per
    // state change, the last one of a key winning.
    let written = [
        base("sum", &[1]),
        base("sum", &[1, 2]),
        base("other", &[9]),
        base("sum", &[1, 2, 3]),
        base("sum", &[]),
        base("sum", &[4]),
    ];
    {
        let (mut log, _, _) = SegmentLog::open(DurableConfig::at(dir.path())).unwrap();
        for rec in &written {
            log.append(rec).unwrap();
        }
    }
    let folds = reopen_folds(DurableConfig::at(dir.path()));
    assert_eq!(folds.len(), 2);
    assert_eq!(folds[&key("sum")], written[5].encode());
    assert_eq!(folds[&key("other")], written[2].encode());
}
