//! One lint run instantiates each service once. Propagation builds every
//! operator against its input schemas and records what the later passes
//! need from it (output schema, input rates, demand), so the rate, bounded
//! and resource passes and the deployment graph read those records instead
//! of building the operator again. A second instantiation per pass shows
//! here as a rise in the allocations of one `lint_document` with a
//! deployment model. Only the test's own thread is counted.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use sl_dsn::parse_document;
use sl_engine::EngineConfig;
use sl_lint::{lint_document, DeployModel, LintContext};
use sl_netsim::{NodeSpec, Topology};
use sl_pubsub::{SensorAdvertisement, SensorKind, SensorRegistry};
use sl_stt::{AttrType, Duration, Field, Schema, SchemaRef, SensorId, Theme};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

/// The most allocations one lint run of `FLOW` may make. Built once, the
/// three operators cost 201 in a debug build; built again in each pass that
/// reads them, they cost 296.
const MAX_ALLOCS: u64 = 240;

const FLOW: &str = "dsn \"allocs\" {
  source temp {
    filter: theme=weather/temperature & has temp:float & has station:str;
    mode: active;
  }
  service warm { op: filter; condition: 'temp > 20.5 and station != ''x'''; inputs: temp; }
  service scaled { op: transform; assign: temp := 'temp * 1.8 + 32'; inputs: warm; }
  service hourly {
    op: aggregate; period: 60000; group_by: station; func: avg; attr: temp; inputs: scaled;
  }
  sink out { kind: console; inputs: hourly; }
}";

struct Counting;

thread_local! {
    /// Set on the test's thread while the lint runs. `const` initializers,
    /// so reading them never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if COUNTED.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Four 1 kHz temperature sensors.
fn registry() -> SensorRegistry {
    let schema: SchemaRef = Schema::new(vec![
        Field::new("temp", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .unwrap()
    .into_ref();
    let mut reg = SensorRegistry::new();
    for i in 0..4 {
        reg.publish(SensorAdvertisement {
            id: SensorId(i + 1),
            name: format!("s{i}"),
            kind: SensorKind::Physical,
            schema: schema.clone(),
            theme: Theme::new("weather/temperature").unwrap(),
            period: Duration::from_millis(1),
            location: None,
            node: sl_netsim::NodeId(0),
        })
        .unwrap();
    }
    reg
}

#[test]
fn one_lint_run_instantiates_each_service_once() {
    let doc = parse_document(FLOW).unwrap();
    let schemas: HashMap<String, SchemaRef> = HashMap::from([(
        "temp".to_string(),
        Schema::new(vec![
            Field::new("temp", AttrType::Float),
            Field::new("station", AttrType::Str),
        ])
        .unwrap()
        .into_ref(),
    )]);
    let registry = registry();
    let mut topology = Topology::new();
    let core = topology.add_node(NodeSpec::core("core", 10_000.0));
    let edge = topology.add_node(NodeSpec::edge("edge", 10_000.0));
    topology
        .add_link(core, edge, Duration::from_millis(2), 10_000_000)
        .unwrap();
    let config = EngineConfig::default();
    let ctx = LintContext {
        topology: Some(&topology),
        registry: Some(&registry),
        engine: Some(&config),
    };
    let model = DeployModel {
        config: &config,
        fault_plan: None,
        durable: false,
        compaction: false,
    };

    COUNTED.with(|c| c.set(true));
    let report = lint_document(&doc, &schemas, &ctx, Some(&model));
    COUNTED.with(|c| c.set(false));
    let allocs = ALLOCS.with(Cell::get);

    assert_eq!(report.error_count(), 0, "{}", report.render());
    assert!(
        allocs <= MAX_ALLOCS,
        "{allocs} allocations in one lint run (bound {MAX_ALLOCS})"
    );
}
