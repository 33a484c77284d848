//! The first tuple through a freshly deployed flow copies no name: the first
//! delivery from its source, the first arrival at its operator and the first
//! at its sink find their counters on endpoint records minted at deploy, so
//! nothing is bound by name on the way. Only the test's own thread is
//! counted, and only allocations of exactly a name's length: the names below
//! have lengths nothing else on the path allocates.

use sl_dataflow::DataflowBuilder;
use sl_dsn::SinkKind;
use sl_engine::{Engine, EngineConfig};
use sl_netsim::{NodeSpec, Topology};
use sl_pubsub::SubscriptionFilter;
use sl_sensors::physical::TemperatureSensor;
use sl_stt::{AttrType, Duration, Field, GeoPoint, Schema, SensorId, Timestamp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

const DEPLOYMENT: &str = "first_touch_deployment_of_029";
const OPERATOR: &str = "fresh_operator_with_a_name_length_037";
const SINK: &str = "fresh_sink_with_a_name_whose_length_is_0043";

struct NameCopies;

thread_local! {
    /// Set on the test's thread while the first tuple runs. `const`
    /// initializers, so reading them never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    /// Allocations of a name's length seen while `COUNTED`.
    static COPIES: Cell<u64> = const { Cell::new(0) };
}

/// Count `size` if the counted thread allocates a name's length.
fn note(size: usize) {
    let name_sized = [DEPLOYMENT, OPERATOR, SINK].iter().any(|n| n.len() == size);
    if name_sized && COUNTED.try_with(Cell::get).unwrap_or(false) {
        let _ = COPIES.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for NameCopies {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: NameCopies = NameCopies;

#[test]
fn the_first_tuple_through_a_fresh_flow_copies_no_name() {
    assert_eq!(
        [DEPLOYMENT, OPERATOR, SINK].map(str::len),
        [29, 37, 43],
        "lengths nothing else allocates"
    );
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
    e.add_sensor(Box::new(TemperatureSensor::new(
        SensorId(1),
        "t1",
        GeoPoint::new_unchecked(34.0, 135.0),
        edge,
        Duration::from_secs(10),
        false,
        false,
        1,
    )))
    .unwrap();
    let schema = Schema::new(vec![Field::new("temperature", AttrType::Float)])
        .unwrap()
        .into_ref();
    let flow = DataflowBuilder::new(DEPLOYMENT)
        .source("temp", SubscriptionFilter::any(), schema)
        .filter(OPERATOR, "temp", "temperature > -100")
        .sink(SINK, SinkKind::Visualization, &[OPERATOR])
        .build()
        .unwrap();
    e.deploy(flow).unwrap();
    let monitor = e.monitor();
    assert!(monitor.op(DEPLOYMENT, "~sources").is_none());
    assert!(monitor.op(DEPLOYMENT, OPERATOR).is_none());
    assert_eq!(monitor.sink_count(DEPLOYMENT, SINK), 0);

    COUNTED.with(|c| c.set(true));
    e.run_until(start + Duration::from_secs(15));
    COUNTED.with(|c| c.set(false));

    let monitor = e.monitor();
    assert_eq!(monitor.op(DEPLOYMENT, "~sources").unwrap().tuples_in(), 1);
    assert_eq!(monitor.op(DEPLOYMENT, OPERATOR).unwrap().tuples_in(), 1);
    assert_eq!(monitor.sink_count(DEPLOYMENT, SINK), 1);
    assert_eq!(COPIES.with(Cell::get), 0, "allocations of a name's length");
}
