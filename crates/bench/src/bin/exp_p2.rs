//! E6 — Demo P2 reproduction: DSN translation round-trips and the Event
//! Data Warehouse's ingest/query performance, plus E8: the same ingest
//! against the crash-safe warehouse under each fsync policy.
//!
//! ```sh
//! cargo run --release -p sl-bench --bin exp_p2
//! ```

use sl_bench::{linear_dataflow, make_tuples, print_table, tuples_per_sec};
use sl_dsn::{compile, parse_document, print_document};
use sl_durable::{DurableConfig, DurableWarehouse, FsyncPolicy, TempDir};
use sl_stt::{
    BoundingBox, GeoPoint, SpatialGranularity, TemporalGranularity, Theme, TimeInterval, Timestamp,
};
use sl_warehouse::{CubeQuery, EventQuery, EventWarehouse};
use std::time::Instant;

fn main() {
    // --- DSN translate / print / parse / compile --------------------------
    let mut rows = Vec::new();
    for ops in [3usize, 10, 20, 40] {
        let df = linear_dataflow("p2", ops);
        let reps = 200;
        let t0 = Instant::now();
        let mut text = String::new();
        for _ in 0..reps {
            text = print_document(&sl_dataflow::to_dsn(&df));
        }
        let print_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let t0 = Instant::now();
        let mut doc = None;
        for _ in 0..reps {
            doc = Some(parse_document(&text).unwrap());
        }
        let parse_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
        let doc = doc.unwrap();
        let t0 = Instant::now();
        for _ in 0..reps {
            compile(&doc).unwrap();
        }
        let compile_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;
        // Round-trip identity.
        assert_eq!(print_document(&doc), text, "round trip broken");
        rows.push(vec![
            ops.to_string(),
            text.len().to_string(),
            format!("{print_us:.1}"),
            format!("{parse_us:.1}"),
            format!("{compile_us:.1}"),
        ]);
    }
    print_table(
        "E6 / P2 — DSN translation pipeline (per document)",
        &[
            "operators",
            "DSN bytes",
            "print [µs]",
            "parse [µs]",
            "compile [µs]",
        ],
        &rows,
    );

    // --- warehouse ingest ---------------------------------------------------
    let n = 100_000;
    let tuples = make_tuples(n, 11);
    let mut warehouse = EventWarehouse::with_defaults();
    let t0 = Instant::now();
    let mut events = 0usize;
    for t in &tuples {
        events +=
            warehouse.ingest_tuple(t, TemporalGranularity::Minute, SpatialGranularity::grid(8));
    }
    let ingest = t0.elapsed();
    println!(
        "\ningest: {n} tuples -> {events} events in {:.3} s ({:.0} tuples/s)",
        ingest.as_secs_f64(),
        tuples_per_sec(n, ingest)
    );

    // --- warehouse queries: index vs scan ----------------------------------
    let range = TimeInterval::new(Timestamp::from_secs(40_000), Timestamp::from_secs(41_000));
    let osaka = BoundingBox::from_corners(
        GeoPoint::new_unchecked(34.6, 135.4),
        GeoPoint::new_unchecked(34.8, 135.6),
    );
    let queries: Vec<(&str, EventQuery)> = vec![
        ("time slice (1000 s)", EventQuery::all().in_time(range)),
        (
            "theme subtree",
            EventQuery::all().with_theme(Theme::new("weather/temperature").unwrap()),
        ),
        ("area", EventQuery::all().in_area(osaka)),
        (
            "time + theme",
            EventQuery::all()
                .in_time(range)
                .with_theme(Theme::new("weather/temperature/temperature").unwrap()),
        ),
    ];
    let mut rows = Vec::new();
    for (label, q) in &queries {
        let reps = 20;
        let t0 = Instant::now();
        let mut hits = 0;
        for _ in 0..reps {
            hits = warehouse.query(q).len();
        }
        let fast_ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(reps);
        let t0 = Instant::now();
        let mut scan_hits = 0;
        for _ in 0..reps {
            scan_hits = warehouse.query_scan(q).len();
        }
        let scan_ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(reps);
        assert_eq!(hits, scan_hits, "index disagrees with scan on `{label}`");
        rows.push(vec![
            label.to_string(),
            hits.to_string(),
            format!("{fast_ms:.3}"),
            format!("{scan_ms:.3}"),
            format!("{:.1}x", scan_ms / fast_ms.max(1e-9)),
        ]);
    }
    print_table(
        "E6 / P2 — warehouse queries: index vs full scan (300k events)",
        &["query", "hits", "indexed [ms]", "scan [ms]", "speedup"],
        &rows,
    );

    // --- STT roll-up ---------------------------------------------------------
    let t0 = Instant::now();
    let cells = warehouse.rollup(&CubeQuery {
        select: EventQuery::all(),
        tgran: TemporalGranularity::Hour,
        sgran: SpatialGranularity::grid(3),
        theme_depth: 2,
    });
    println!(
        "\nroll-up to (hour, grid3, depth-2 themes): {} cells in {:.3} s",
        cells.len(),
        t0.elapsed().as_secs_f64()
    );
    let total: u64 = cells.iter().map(|c| c.count).sum();
    assert_eq!(
        total as usize,
        warehouse.len(),
        "roll-up must conserve counts"
    );
    println!("roll-up conserves counts: {total} events across cells");

    // --- E8: durable ingest across the fsync spectrum -----------------------
    // `OnSeal` (crash window = the open segment), `EveryN(64)` (bounded tail
    // loss) and `Always` (no acked loss, every append pays a sync), against
    // the in-memory warehouse as the zero-durability baseline. `Always`
    // runs a 500-tuple slice: at 5k it is seconds of fsyncs.
    let tuples = make_tuples(5_000, 11);
    let in_memory = median_rate(tuples.len(), || {
        let mut w = EventWarehouse::with_defaults();
        let t0 = Instant::now();
        for t in &tuples {
            w.ingest_tuple(t, TemporalGranularity::Minute, SpatialGranularity::grid(8));
        }
        t0.elapsed()
    });
    let mut rows = vec![vec![
        "in-memory".to_string(),
        "—".into(),
        tuples.len().to_string(),
        format!("{in_memory:.0}"),
        "1×".into(),
    ]];
    for (label, policy, n) in [
        ("on-seal", FsyncPolicy::OnSeal, 5_000usize),
        ("every 64 appends", FsyncPolicy::EveryN(64), 5_000),
        ("every append", FsyncPolicy::Always, 500),
    ] {
        let rate = median_rate(n, || {
            let dir = TempDir::new("exp-p2-ingest").expect("tempdir");
            let t0 = Instant::now();
            let config = DurableConfig::at(dir.path()).with_fsync(policy);
            let mut w = DurableWarehouse::open(config).expect("open durable warehouse");
            for t in &tuples[..n] {
                w.ingest_tuple(t, TemporalGranularity::Minute, SpatialGranularity::grid(8))
                    .expect("ingest");
            }
            t0.elapsed()
        });
        rows.push(vec![
            "durable".into(),
            label.into(),
            n.to_string(),
            format!("{rate:.0}"),
            format!("{:.3}×", rate / in_memory),
        ]);
    }
    print_table(
        "E8 — durable ingest under the fsync spectrum (median of 3 runs)",
        &[
            "backend",
            "fsync policy",
            "tuples",
            "tuples/s",
            "vs. in-memory",
        ],
        &rows,
    );
}

/// Median tuples/s over three runs of `n` tuples; `run` returns the wall
/// time of its ingest, setup excluded.
fn median_rate(n: usize, mut run: impl FnMut() -> std::time::Duration) -> f64 {
    let mut rates: Vec<f64> = (0..3).map(|_| tuples_per_sec(n, run())).collect();
    rates.sort_by(f64::total_cmp);
    rates[1]
}
