//! A dead letter is tallied once, in the dead-letter queue: no per-letter
//! metric key is rendered and no registry counter is looked up by a
//! formatted name. The tuple's emission is counted too. One test only — the
//! counter below is process-wide, and a second test running beside it would
//! be counted too.

use sl_dataflow::DataflowBuilder;
use sl_dsn::SinkKind;
use sl_engine::{Engine, EngineConfig, CONSOLE_CAPACITY};
use sl_faults::DropReason;
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

#[test]
fn a_no_route_dead_letter_allocates_at_most_seventeen_times() {
    let mut topology = Topology::new();
    let edge = topology.add_node(NodeSpec::edge("edge", 50.0));
    let hub = topology.add_node(NodeSpec::edge("hub", 1_000_000.0));
    let link = topology
        .add_link(edge, hub, Duration::from_millis(1), 10_000_000)
        .unwrap();
    let config = EngineConfig {
        migration_enabled: false,
        retry_attempts: 0,
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
    let flow = DataflowBuilder::new("cut")
        .source(
            "temp",
            SubscriptionFilter::any().with_theme(Theme::new("weather/temperature").unwrap()),
            schema,
        )
        .filter("keep", "temp", "temperature > -100")
        .sink("out", SinkKind::Console, &["keep"])
        .build()
        .unwrap();
    e.deploy(flow).unwrap();
    assert_eq!(e.node_of("cut", "keep"), Some(hub));
    e.set_link_up(link, false).unwrap();

    // Steady state: the DLQ evicts and the recovery log has grown to size.
    e.run_for(Duration::from_mins(10));
    assert!(e.dlq().evicted() > 0, "the DLQ is not yet full");
    assert!(e.monitor().recovery.len() >= CONSOLE_CAPACITY);

    let (letters0, allocs0) = (e.dlq().total(), ALLOCS.load(Relaxed));
    e.run_for(Duration::from_mins(10));
    let allocs = ALLOCS.load(Relaxed) - allocs0;
    let letters = e.dlq().total() - letters0;
    assert_eq!(letters, 4 * 600);
    assert_eq!(e.dlq().count(DropReason::NoRoute), e.dlq().total());
    let per_letter = allocs as f64 / letters as f64;
    assert!(
        per_letter <= 17.0,
        "{per_letter:.2} allocations per dead letter ({allocs} over {letters})"
    );
}
