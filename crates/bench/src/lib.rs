//! # sl-bench — workloads and fixtures shared by the experiment binaries
//!
//! One experiment binary exists per paper artifact (see `DESIGN.md` §5 and
//! `EXPERIMENTS.md`); each prints its tables to stdout:
//!
//! | Experiment | Artifact | Binary |
//! |---|---|---|
//! | E1, A3 | Table 1, join ablation | `bin/exp_table1.rs` |
//! | E2 | Figure 1  | `bin/exp_fig1.rs` |
//! | E3 | Figure 2  | `bin/exp_fig2_scenario.rs` |
//! | E4 | Figure 3  | `bin/exp_fig3_monitor.rs` |
//! | E5, A1 | Demo P1, validation ablation | `bin/exp_p1.rs` |
//! | E6, E8 | Demo P2, fsync spectrum | `bin/exp_p2.rs` |
//! | E7 | Demo P3   | `bin/exp_p3.rs` |
//! | A2 | placement ablation | `bin/exp_ablation_placement.rs` |

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sl_dataflow::{Dataflow, DataflowBuilder};
use sl_dsn::SinkKind;
use sl_netsim::NodeId;
use sl_pubsub::{SensorAdvertisement, SensorKind, SubscriptionFilter};
use sl_stt::{
    AttrType, Duration, Field, GeoPoint, Schema, SchemaRef, SensorId, SttMeta, Theme, Timestamp,
    Tuple, Value,
};

/// The standard weather-tuple schema used by operator microbenchmarks.
pub fn bench_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("humidity", AttrType::Float),
        Field::new("station", AttrType::Str),
        Field::new("seq", AttrType::Int),
    ])
    .unwrap()
    .into_ref()
}

/// Deterministic workload: `n` tuples at 1 tuple/sec of virtual time,
/// temperatures uniform in [10, 35), a few station names.
pub fn make_tuples(n: usize, seed: u64) -> Vec<Tuple> {
    let schema = bench_schema();
    let theme = Theme::new("weather/temperature").unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let station = format!("st{}", i % 8);
            Tuple::new(
                schema.clone(),
                vec![
                    Value::Float(rng.gen_range(10.0..35.0)),
                    Value::Float(rng.gen_range(20.0..95.0)),
                    Value::Str(station),
                    Value::Int(i as i64),
                ],
                SttMeta::new(
                    Timestamp::from_secs(i as i64),
                    GeoPoint::new_unchecked(
                        34.5 + rng.gen::<f64>() * 0.4,
                        135.3 + rng.gen::<f64>() * 0.4,
                    ),
                    theme.clone(),
                    SensorId(i as u64 % 16),
                ),
            )
            .unwrap()
        })
        .collect()
}

/// A synthetic advertisement population for discovery benchmarks: themes,
/// kinds and positions spread over Japan.
pub fn make_ads(n: usize, seed: u64) -> Vec<SensorAdvertisement> {
    let mut rng = StdRng::seed_from_u64(seed);
    let themes = [
        "weather/temperature",
        "weather/rain",
        "weather/wind",
        "social/tweet",
        "traffic/congestion",
        "water/level",
    ];
    (0..n)
        .map(|i| {
            let theme = themes[rng.gen_range(0..themes.len())];
            SensorAdvertisement {
                id: SensorId(i as u64),
                name: format!("sensor-{i}"),
                kind: if theme.starts_with("social") || theme.starts_with("traffic") {
                    SensorKind::Social
                } else {
                    SensorKind::Physical
                },
                schema: bench_schema(),
                theme: Theme::new(theme).unwrap(),
                period: Duration::from_millis(rng.gen_range(100..60_000)),
                location: Some(GeoPoint::new_unchecked(
                    rng.gen_range(31.0..43.0),
                    rng.gen_range(130.0..143.0),
                )),
                node: NodeId(rng.gen_range(0..12)),
            }
        })
        .collect()
}

/// A linear dataflow of `ops` alternating operators over the bench schema —
/// the deployment-cost workload (E2).
pub fn linear_dataflow(name: &str, ops: usize) -> Dataflow {
    let mut b = DataflowBuilder::new(name).source(
        "src",
        SubscriptionFilter::any().with_theme(Theme::new("weather").unwrap()),
        bench_schema(),
    );
    let mut prev = "src".to_string();
    for i in 0..ops {
        let name = format!("f{i}");
        // Alternate operator kinds so the deployment exercises the mix.
        b = match i % 4 {
            0 => b.filter(&name, &prev, "temperature > 0"),
            1 => b.transform(&name, &prev, &[("humidity", "humidity * 1.0")]),
            2 => b.virtual_property(&name, &prev, &format!("v{i}"), "temperature + humidity"),
            _ => b.filter(&name, &prev, "seq >= 0"),
        };
        prev = name;
    }
    b.sink("out", SinkKind::Visualization, &[&prev])
        .build()
        .expect("bench dataflow valid")
}

/// A linear dataflow whose source schema matches the plain
/// temperature/station sensors (so deployed instances actually bind and
/// carry traffic — unlike [`linear_dataflow`], whose wider bench schema is
/// for deployment-cost measurement only).
pub fn passthrough_dataflow(name: &str, ops: usize) -> Dataflow {
    let schema: SchemaRef = Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .unwrap()
    .into_ref();
    let mut b = DataflowBuilder::new(name).source(
        "src",
        SubscriptionFilter::any().with_theme(Theme::new("weather").unwrap()),
        schema,
    );
    let mut prev = "src".to_string();
    for i in 0..ops {
        let name = format!("f{i}");
        b = match i % 3 {
            0 => b.filter(&name, &prev, "temperature > 0"),
            1 => b.transform(&name, &prev, &[("temperature", "temperature * 1.0")]),
            _ => b.filter(&name, &prev, "temperature < 1000"),
        };
        prev = name;
    }
    b.sink("out", SinkKind::Visualization, &[&prev])
        .build()
        .expect("bench dataflow valid")
}

/// Render an aligned text table (the experiment binaries' output format).
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        let mut line = String::from("| ");
        for (i, c) in cells.iter().enumerate() {
            line.push_str(&format!("{:<w$} | ", c, w = widths[i]));
        }
        line.trim_end().to_string()
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    println!("{}", fmt_row(&sep));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Throughput in tuples/sec given a wall-clock duration for `n` tuples.
pub fn tuples_per_sec(n: usize, wall: std::time::Duration) -> f64 {
    n as f64 / wall.as_secs_f64().max(1e-12)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let a = make_tuples(100, 1);
        let b = make_tuples(100, 1);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        let ads = make_ads(50, 2);
        assert_eq!(ads.len(), 50);
        assert_eq!(ads[0].name, make_ads(50, 2)[0].name);
    }

    #[test]
    fn linear_dataflow_validates() {
        for ops in [1, 5, 20] {
            let df = linear_dataflow("bench", ops);
            assert!(sl_dataflow::validate(&df).is_ok(), "ops={ops}");
            assert_eq!(df.operators().count(), ops);
        }
    }

    #[test]
    fn throughput_math() {
        let t = tuples_per_sec(1000, std::time::Duration::from_millis(500));
        assert!((t - 2000.0).abs() < 1.0);
    }
}
