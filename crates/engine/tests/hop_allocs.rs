//! A tuple's trip through a chain of non-blocking operators allocates what
//! its values need, not what its hops need: no route, consumer list or
//! scratch vector is built per hop, the last consumer gets the tuple itself,
//! and operators emit into a recycled buffer. Sensor encode and decode are
//! counted too. One test only — the counter below is process-wide, and a
//! second test running beside it would be counted too.

use sl_dataflow::DataflowBuilder;
use sl_dsn::SinkKind;
use sl_engine::{Engine, EngineConfig};
use sl_netsim::{NodeSpec, Topology};
use sl_pubsub::SubscriptionFilter;
use sl_sensors::physical::TemperatureSensor;
use sl_stt::{AttrType, Duration, Field, GeoPoint, Schema, SensorId, Theme, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Sensor emissions the engine has handled so far.
fn emitted(e: &Engine) -> u64 {
    let snap = e.metrics_snapshot();
    snap.hists.get("engine/ev/emit_us").map_or(0, |h| h.count)
}

#[test]
fn a_chain_hop_allocates_at_most_fifteen_times_per_tuple() {
    let mut topology = Topology::new();
    let edge = topology.add_node(NodeSpec::edge("edge", 50.0));
    let hub = topology.add_node(NodeSpec::edge("hub", 1_000_000.0));
    topology
        .add_link(edge, hub, Duration::from_millis(1), 10_000_000)
        .unwrap();
    let config = EngineConfig {
        migration_enabled: false,
        ..EngineConfig::default()
    };
    let start = Timestamp::from_civil(2016, 7, 1, 8, 0, 0);
    let mut e = Engine::new(topology, config, start);
    for i in 0..4u64 {
        e.add_sensor(Box::new(TemperatureSensor::new(
            SensorId(i),
            &format!("t{i}"),
            GeoPoint::new_unchecked(34.0 + i as f64 * 0.11, 135.0 + i as f64 * 0.07),
            edge,
            Duration::from_secs(1),
            false,
            false,
            i,
        )))
        .unwrap();
    }
    let schema = Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .unwrap()
    .into_ref();
    let flow = DataflowBuilder::new("chain")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            schema,
        )
        .transform("to_f", "temp", &[("temperature", "temperature * 1.8 + 32")])
        .transform(
            "back",
            "to_f",
            &[("temperature", "(temperature - 32) / 1.8")],
        )
        .virtual_property("flag", "back", "hot", "temperature > 27")
        .filter("keep", "flag", "temperature > -100")
        .sink("out", SinkKind::Console, &["keep"])
        .build()
        .unwrap();
    e.deploy(flow).unwrap();

    // Steady state: the console is full, every buffer has grown to size.
    e.run_for(Duration::from_mins(5));
    assert!(e.monitor().console.len() >= 1000, "console not yet full");

    let (tuples0, allocs0) = (emitted(&e), ALLOCS.load(Relaxed));
    e.run_for(Duration::from_mins(10));
    let allocs = ALLOCS.load(Relaxed) - allocs0;
    let tuples = emitted(&e) - tuples0;
    assert_eq!(tuples, 4 * 600);
    assert!(e.monitor().sink_count("chain", "out") > 4 * 600);
    let per_tuple = allocs as f64 / tuples as f64;
    assert!(
        per_tuple <= 15.0,
        "{per_tuple:.1} allocations per tuple ({allocs} over {tuples})"
    );
}
