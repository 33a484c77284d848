//! E12 — cold-tier compaction: indexed cold queries vs. a fragmented log.
//!
//! The storage-maintenance question behind `sl_durable::compact`: after
//! weeks of retention-driven eviction the cold tier is hundreds of small
//! generation-0 segments, and every cold query opens and decodes all of
//! them. Compaction merges the fragments into one generation-1 segment
//! with a per-block zone index (time bounds + a bloom-style theme filter
//! persisted in the `.szi` sidecar), so the same queries prune whole
//! blocks and seek instead of scanning.
//!
//! Both configurations ingest the identical theme-clustered stream and
//! evict everything cold; one is then force-compacted. Every query's
//! answer must be *exactly* equal across the two logs — compaction
//! preserves record order, so this is byte-identical, not just
//! set-identical. Results land in `BENCH_e12_compaction.json`.
//!
//! ```sh
//! cargo run --release -p sl-bench --bin exp_e12_compaction           # full run
//! cargo run --release -p sl-bench --bin exp_e12_compaction -- --test # CI smoke
//! ```
//!
//! The full run asserts the headline claim: at 100+ segments, cold
//! queries over the compacted log are at least 2x faster. The smoke mode
//! runs one scale and asserts a conservative 1.3x.

use sl_durable::{CompactionPolicy, DurableConfig, DurableWarehouse, FsyncPolicy, TempDir};
use sl_stt::{
    Duration, Event, GeoPoint, SpatialGranularity, TemporalGranularity, Theme, TimeInterval,
    Timestamp, Value,
};
use sl_warehouse::EventQuery;
use std::fmt::Write as _;
use std::time::Instant;

const THEMES: [&str; 5] = [
    "weather/temperature",
    "weather/rain",
    "traffic/flow",
    "social/tweet",
    "air/pm25",
];

/// Events per theme-clustered run. Clustering is what gives the per-block
/// bloom filters their pruning power: a block holds ~64 frames, so a run
/// of 200 same-theme events yields blocks the other themes' queries skip.
const RUN_LEN: usize = 200;

/// Small segments force the fragmentation under test: ~2 KiB per segment
/// is a few dozen events, so thousands of events become 100+ segments.
const SEGMENT_BYTES: u64 = 2048;

fn base_time() -> Timestamp {
    Timestamp::from_civil(2016, 7, 1, 0, 0, 0)
}

/// Deterministic theme-clustered stream: runs of `RUN_LEN` events per
/// theme, timestamps advancing one minute per event.
fn gen_events(n: usize) -> Vec<Event> {
    (0..n)
        .map(|i| {
            let theme = Theme::new(THEMES[(i / RUN_LEN) % THEMES.len()]).expect("static theme");
            let t = base_time() + Duration::from_mins(i as u64);
            let lat = 34.60 + 0.01 * ((i % 17) as f64);
            let lon = 135.40 + 0.01 * ((i % 13) as f64);
            Event::new(
                Value::Float(20.0 + ((i * 7) % 100) as f64 / 10.0),
                TemporalGranularity::Minute,
                TemporalGranularity::Minute.granule_of(t),
                SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(lat, lon)),
                theme,
            )
        })
        .collect()
}

/// The cold-query mix: one per theme subtree, one time window over the
/// middle tenth of the stream, and one theme+time combination.
fn queries(n: usize) -> Vec<EventQuery> {
    let mut qs: Vec<EventQuery> = THEMES
        .iter()
        .map(|t| EventQuery::all().with_theme(Theme::new(t).expect("static theme")))
        .collect();
    let mid = base_time() + Duration::from_mins((n / 2) as u64);
    let window = TimeInterval::new(mid, mid + Duration::from_mins((n / 10).max(1) as u64));
    qs.push(EventQuery::all().in_time(window));
    qs.push(
        EventQuery::all()
            .with_theme(Theme::new("traffic").expect("static theme"))
            .in_time(window),
    );
    qs
}

/// Ingest the stream run by run, evicting each run to the cold tier as
/// soon as it lands — the steady state of a retention-driven deployment.
fn build(dir: &std::path::Path, events: &[Event]) -> DurableWarehouse {
    let config = DurableConfig::at(dir)
        .with_fsync(FsyncPolicy::OnSeal)
        .with_segment_max_bytes(SEGMENT_BYTES)
        .with_compaction(CompactionPolicy::enabled());
    let mut w = DurableWarehouse::open(config).expect("open durable warehouse");
    for chunk in events.chunks(RUN_LEN) {
        for ev in chunk {
            w.insert(ev.clone()).expect("insert");
        }
        // Evict everything ingested so far: end of the newest event + 1.
        let newest = chunk
            .iter()
            .map(|e| e.time_interval().end)
            .max()
            .expect("non-empty chunk");
        w.evict_before(newest + Duration::from_mins(1))
            .expect("evict");
    }
    w.sync().expect("sync");
    w
}

/// Total wall-clock of `reps` passes over the query mix.
fn time_queries(w: &mut DurableWarehouse, qs: &[EventQuery], reps: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        for q in qs {
            let _ = w.query(q).expect("query");
        }
    }
    t0.elapsed().as_secs_f64()
}

struct Sample {
    segments: usize,
    uncompacted_s: f64,
    compacted_s: f64,
}

fn run_once(n_events: usize, reps: usize) -> Sample {
    let events = gen_events(n_events);
    let qs = queries(n_events);

    let dir_a = TempDir::new("e12-uncompacted").expect("tempdir");
    let dir_b = TempDir::new("e12-compacted").expect("tempdir");
    let mut plain = build(dir_a.path(), &events);
    let mut compacted = build(dir_b.path(), &events);
    let segments = plain.segment_count();

    let stats = compacted
        .compact_now(base_time() + Duration::from_hours(24 * 365))
        .expect("compact")
        .expect("something to merge");
    // No cold_retention on the policy: maintenance must drop no events.
    assert_eq!(stats.events_dropped, 0, "no retention, no event drops");

    // The contract the whole tentpole rests on: every query's answer over
    // the compacted log is exactly the uncompacted answer.
    for q in &qs {
        let a = plain.query(q).expect("query uncompacted");
        let b = compacted.query(q).expect("query compacted");
        assert_eq!(a, b, "compaction changed a query answer");
    }

    let uncompacted_s = time_queries(&mut plain, &qs, reps);
    let compacted_s = time_queries(&mut compacted, &qs, reps);
    Sample {
        segments,
        uncompacted_s,
        compacted_s,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    // The full sweep includes the smoke scale, so `bench-compare` can pair
    // a fresh smoke row against the committed baseline by segment count.
    let (scales, reps): (&[usize], usize) = if smoke {
        (&[4_000], 5)
    } else {
        (&[1_000, 2_000, 4_000, 8_000], 25)
    };

    println!("E12 cold-tier compaction — scales {scales:?} events, {reps} query passes");

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut worst_at_scale = f64::INFINITY;
    for &n in scales {
        let s = run_once(n, reps);
        let speedup = s.uncompacted_s / s.compacted_s.max(1e-9);
        if s.segments >= 100 {
            worst_at_scale = worst_at_scale.min(speedup);
        }
        rows.push(vec![
            n.to_string(),
            s.segments.to_string(),
            format!("{:.4}", s.uncompacted_s),
            format!("{:.4}", s.compacted_s),
            format!("{speedup:.1}x"),
        ]);
        let mut j = String::new();
        let _ = write!(
            j,
            "    {{\"segments\": {}, \"uncompacted_s\": {:.6}, \
             \"compacted_s\": {:.6}, \"speedup\": {speedup:.2}}}",
            s.segments, s.uncompacted_s, s.compacted_s
        );
        json_rows.push(j);
    }

    sl_bench::print_table(
        "E12 — cold queries: fragmented gen-0 log vs. compacted + zone-indexed \
         (answers asserted exactly equal)",
        &[
            "events",
            "segments",
            "uncompacted [s]",
            "compacted [s]",
            "speedup",
        ],
        &rows,
    );

    let floor = if smoke { 1.3 } else { 2.0 };
    assert!(
        worst_at_scale >= floor,
        "compacted cold queries must be >={floor}x faster at 100+ segments \
         (got {worst_at_scale:.2}x)"
    );

    if smoke {
        println!("\nE12 smoke: answers identical, {worst_at_scale:.1}x speedup at 100+ segments");
    }

    let json = format!(
        "{{\n  \"experiment\": \"E12\",\n  \"run_len\": {RUN_LEN},\n  \
         \"segment_bytes\": {SEGMENT_BYTES},\n  \"query_passes\": {reps},\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    sl_bench::write_bench_json("BENCH_e12_compaction.json", &json, smoke);
}
