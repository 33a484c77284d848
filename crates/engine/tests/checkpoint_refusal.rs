//! A checkpoint frame the durable log refuses never leaves a stale window
//! behind. One reading of a temperature station carries a station name
//! over the log's 16 MiB frame limit, so the frame that would log it is
//! refused; the readings after it are small. A restart must then restore
//! the operator's true window or an empty one — never the base logged
//! before the refusal with the later deltas folded onto it, which is a
//! window the operator never held.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use sl_dataflow::{Dataflow, DataflowBuilder};
use sl_dsn::SinkKind;
use sl_durable::codec::MAX_FRAME_BYTES;
use sl_durable::{DurableConfig, FsyncPolicy, TempDir};
use sl_engine::{Engine, EngineConfig};
use sl_netsim::{NodeSpec, Topology};
use sl_ops::{AggFunc, OpCheckpoint};
use sl_pubsub::{SensorAdvertisement, SubscriptionFilter};
use sl_sensors::physical::TemperatureSensor;
use sl_sensors::SensorSim;
use sl_stt::{
    AttrType, Duration, Field, GeoPoint, Schema, SensorId, Theme, Timestamp, Tuple, Value,
};

fn start() -> Timestamp {
    Timestamp::from_civil(2016, 7, 1, 12, 0, 0)
}

/// A temperature station whose third reading names it with more bytes than
/// one log frame holds.
struct Oversized {
    inner: TemperatureSensor,
    readings: u32,
}

impl SensorSim for Oversized {
    fn advertisement(&self) -> SensorAdvertisement {
        self.inner.advertisement()
    }

    fn sample(&mut self, now: Timestamp) -> Tuple {
        let mut tuple = self.inner.sample(now);
        self.readings += 1;
        if self.readings == 3 {
            let name = "s".repeat(MAX_FRAME_BYTES as usize + 1);
            tuple.set("station", Value::Str(name)).unwrap();
        }
        tuple
    }
}

/// One reading per second into a 10 s tumbling window.
fn flow() -> Dataflow {
    let schema = Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .unwrap()
    .into_ref();
    DataflowBuilder::new("w")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            schema,
        )
        .aggregate(
            "op",
            "temp",
            Duration::from_secs(10),
            &[],
            AggFunc::Count,
            None,
        )
        .sink("edw", SinkKind::Warehouse, &["op"])
        .build()
        .unwrap()
}

fn engine(dir: &TempDir) -> Engine {
    let mut t = Topology::new();
    let a = t.add_node(NodeSpec::edge("sensor-host", 1000.0));
    let b = t.add_node(NodeSpec::edge("host-b", 1000.0));
    t.add_link(a, b, Duration::from_millis(1), 1_000_000_000)
        .unwrap();
    let durable = DurableConfig::at(dir.path()).with_fsync(FsyncPolicy::Always);
    let mut e = Engine::open_durable(t, EngineConfig::default(), start(), durable).unwrap();
    let at = GeoPoint::new_unchecked(34.7, 135.5);
    let sensor = Oversized {
        inner: TemperatureSensor::new(
            SensorId(1),
            "s1",
            at,
            a,
            Duration::from_secs(1),
            false,
            false,
            1,
        ),
        readings: 0,
    };
    e.add_sensor(Box::new(sensor)).unwrap();
    e.deploy(flow()).unwrap();
    e
}

/// Run a fresh durable engine for `ms` of virtual time, then restart it on
/// the same directory: the window the operator held, and the one the
/// restart restored.
fn restart_after(ms: u64) -> (OpCheckpoint, OpCheckpoint) {
    let dir = TempDir::new("engine-ckpt-refused").unwrap();
    let held = {
        let mut e = engine(&dir);
        e.run_for(Duration::from_millis(ms));
        assert!(
            e.monitor()
                .console
                .iter()
                .any(|line| line.contains("error: persisting checkpoint w/op")),
            "the oversized frame was refused"
        );
        e.checkpoint_of("w", "op").unwrap().clone()
    };
    let e = engine(&dir);
    let restored = e.checkpoint_of("w", "op").expect("staged and restored");
    (held, restored.clone())
}

#[test]
fn a_refused_checkpoint_frame_leaves_no_stale_window_in_the_log() {
    // Mid-window, with the oversized reading held: the log cannot hold the
    // window, so it must say "empty", not the two readings before it with
    // the three after it.
    let (held, restored) = restart_after(6_500);
    assert_eq!(
        held.len(),
        6,
        "six readings, the oversized third among them"
    );
    let oversized = |t: &Tuple| t.byte_size() > MAX_FRAME_BYTES as usize;
    assert!(held.tuples.iter().any(|(_, t)| oversized(t)));
    assert!(
        restored.is_empty() || restored.tuples == held.tuples,
        "restored {} tuples of a window of {}",
        restored.len(),
        held.len()
    );

    // After the tick that flushed it: the first window that fits is logged
    // whole, and the log follows the window again from there.
    let (held, restored) = restart_after(13_500);
    assert!(!held.is_empty() && !held.tuples.iter().any(|(_, t)| oversized(t)));
    assert_eq!(restored.tuples, held.tuples);
}
