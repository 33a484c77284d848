//! Golden tests: every `SL0xx` lint code has (a) a minimal document that
//! triggers it and (b) a near-miss counterexample that stays clean of it.
//! Documents are written in DSN concrete syntax and linted the way the
//! `sl-lint` CLI lints files: source schemas inferred from `has name:type`
//! filter clauses.

#![allow(clippy::field_reassign_with_default)] // goldens mutate one knob at a time
#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use sl_dsn::parse_document;
use sl_engine::{EngineConfig, OverflowPolicy, ShardKey};
use sl_faults::FaultPlan;
use sl_lint::{lint_document, DeployModel, LintCode, LintContext, LintReport};
use sl_netsim::{NodeSpec, Topology};
use sl_pubsub::{SensorAdvertisement, SensorKind, SensorRegistry};
use sl_stt::{AttrType, Duration, Field, GeoPoint, Schema, SchemaRef, SensorId, Theme};
use std::collections::HashMap;
use std::sync::Arc;

fn infer_schemas(doc: &sl_dsn::DsnDocument) -> HashMap<String, SchemaRef> {
    doc.sources
        .iter()
        .filter(|s| !s.filter.required_attrs.is_empty())
        .map(|s| {
            let fields = s
                .filter
                .required_attrs
                .iter()
                .map(|(n, t)| Field::new(n, *t))
                .collect();
            let schema: SchemaRef = Arc::new(Schema::new(fields).unwrap());
            (s.name.clone(), schema)
        })
        .collect()
}

fn lint_with(dsn: &str, ctx: &LintContext<'_>) -> LintReport {
    let doc = parse_document(dsn).unwrap_or_else(|e| panic!("parse failed: {e}\n{dsn}"));
    lint_document(&doc, &infer_schemas(&doc), ctx, None)
}

fn lint(dsn: &str) -> LintReport {
    lint_with(dsn, &LintContext::bare())
}

/// A registry with one matching sensor per `(theme, period)` entry.
fn registry(sensors: &[(&str, u64)]) -> SensorRegistry {
    let mut reg = SensorRegistry::new();
    let schema: SchemaRef = Arc::new(
        Schema::new(vec![
            Field::new("temp", AttrType::Float),
            Field::new("rain", AttrType::Float),
        ])
        .unwrap(),
    );
    for (i, (theme, period_ms)) in sensors.iter().enumerate() {
        reg.publish(SensorAdvertisement {
            id: SensorId(i as u64 + 1),
            name: format!("s{i}"),
            kind: SensorKind::Physical,
            schema: schema.clone(),
            theme: Theme::new(theme).unwrap(),
            period: Duration::from_millis(*period_ms),
            location: None,
            node: sl_netsim::NodeId(0),
        })
        .unwrap();
    }
    reg
}

/// Two nodes joined by one link.
fn topo(bandwidth_bps: u64, latency_ms: u64, cpu: f64) -> Topology {
    let mut t = Topology::new();
    let a = t.add_node(NodeSpec::core("core", cpu));
    let b = t.add_node(NodeSpec::edge("edge", cpu));
    t.add_link(a, b, Duration::from_millis(latency_ms), bandwidth_bps)
        .unwrap();
    t
}

const TEMP_SOURCE: &str = "
  source temp {
    filter: theme=weather/temperature & has temp:float;
    mode: active;
  }";

const RAIN_SOURCE: &str = "
  source rain {
    filter: theme=weather/rain & has rain:float;
    mode: active;
  }";

fn doc(body: &str) -> String {
    format!("dsn \"golden\" {{\n{body}\n}}\n")
}

fn assert_fires(code: LintCode, dsn: &str) {
    let report = lint(dsn);
    assert!(
        report.has(code),
        "{code:?} should fire, got: {:?}",
        report.codes()
    );
}

fn assert_quiet(code: LintCode, dsn: &str) {
    let report = lint(dsn);
    assert!(
        !report.has(code),
        "{code:?} should stay quiet, got: {:?}",
        report.codes()
    );
}

// ---------------------------------------------------------------- structure

#[test]
fn sl001_duplicate_name() {
    let dup = doc(&format!(
        "{TEMP_SOURCE}
  service hot {{ op: filter; condition: 'temp > 20'; inputs: temp; }}
  service hot {{ op: filter; condition: 'temp > 30'; inputs: temp; }}
  sink out {{ kind: console; inputs: hot; }}"
    ));
    assert_fires(LintCode::DuplicateName, &dup);

    let distinct = dup.replacen("service hot", "service warm", 1);
    assert_quiet(LintCode::DuplicateName, &distinct);
}

#[test]
fn sl002_unknown_input() {
    let ghost = doc(&format!(
        "{TEMP_SOURCE}
  service hot {{ op: filter; condition: 'temp > 20'; inputs: ghost; }}
  sink out {{ kind: console; inputs: hot; }}"
    ));
    assert_fires(LintCode::UnknownInput, &ghost);
    assert_quiet(
        LintCode::UnknownInput,
        &ghost.replace("inputs: ghost", "inputs: temp"),
    );
}

#[test]
fn sl003_wrong_arity() {
    let two = doc(&format!(
        "{TEMP_SOURCE}{RAIN_SOURCE}
  service hot {{ op: filter; condition: 'temp > 20'; inputs: temp, rain; }}
  sink out {{ kind: console; inputs: hot; }}"
    ));
    assert_fires(LintCode::WrongArity, &two);
    assert_quiet(
        LintCode::WrongArity,
        &two.replace("inputs: temp, rain;", "inputs: temp;"),
    );
}

#[test]
fn sl004_cycle() {
    let cyclic = doc(&format!(
        "{TEMP_SOURCE}
  service a {{ op: filter; condition: 'temp > 1'; inputs: b; }}
  service b {{ op: filter; condition: 'temp > 2'; inputs: a; }}
  sink out {{ kind: console; inputs: b; }}"
    ));
    assert_fires(LintCode::Cycle, &cyclic);
    assert_quiet(
        LintCode::Cycle,
        &cyclic.replace("inputs: b;", "inputs: temp;"),
    );
}

#[test]
fn sl005_bad_trigger_target() {
    let bad = doc(&format!(
        "{TEMP_SOURCE}
  service alarm {{
    op: trigger_on; period: 1000; condition: 'temp > 40'; targets: ghost; inputs: temp;
  }}
  service alarm2 {{
    op: trigger_on; period: 1000; condition: 'temp > 40'; targets: rain; inputs: temp;
  }}
  source rain {{ filter: theme=weather/rain & has rain:float; mode: gated; }}
  service wet {{ op: filter; condition: 'rain > 0'; inputs: rain; }}
  sink out {{ kind: console; inputs: temp, wet; }}"
    ));
    assert_fires(LintCode::BadTriggerTarget, &bad);
    assert_quiet(
        LintCode::BadTriggerTarget,
        &bad.replace("targets: ghost;", "targets: rain;"),
    );
}

#[test]
fn sl006_gated_never_activated() {
    let stuck = doc("
  source rain { filter: theme=weather/rain & has rain:float; mode: gated; }
  service wet { op: filter; condition: 'rain > 0'; inputs: rain; }
  sink out { kind: console; inputs: wet; }");
    assert_fires(LintCode::GatedNeverActivated, &stuck);
    assert_quiet(
        LintCode::GatedNeverActivated,
        &stuck.replace("mode: gated", "mode: active"),
    );
}

#[test]
fn sl007_bad_wiring() {
    let bad = doc(&format!(
        "{TEMP_SOURCE}
  service hot {{ op: filter; condition: 'temp > 20'; inputs: temp; }}
  sink out {{ kind: console; inputs: hot; }}
  channel temp -> ghost {{ qos: latency<=50; }}"
    ));
    assert_fires(LintCode::BadWiring, &bad);
    assert_quiet(
        LintCode::BadWiring,
        &bad.replace("temp -> ghost", "temp -> hot"),
    );
}

#[test]
fn sl008_schema_error() {
    let broken = doc(&format!(
        "{TEMP_SOURCE}
  service hot {{ op: filter; condition: 'humidity > 20'; inputs: temp; }}
  sink out {{ kind: console; inputs: hot; }}"
    ));
    assert_fires(LintCode::SchemaError, &broken);
    assert_quiet(
        LintCode::SchemaError,
        &broken.replace("humidity > 20", "temp > 20"),
    );
}

#[test]
fn sl009_no_schema() {
    let opaque = doc("
  source temp { filter: theme=weather/temperature; mode: active; }
  sink out { kind: console; inputs: temp; }");
    assert_fires(LintCode::NoSchema, &opaque);
    assert_quiet(
        LintCode::NoSchema,
        &opaque.replace(
            "theme=weather/temperature",
            "theme=weather/temperature & has temp:float",
        ),
    );
}

// -------------------------------------------------------------- granularity

/// Two aggregated streams joined; inner periods are the knob.
fn join_of_aggregates(left_period_ms: u64, right_period_ms: u64) -> String {
    doc(&format!(
        "{TEMP_SOURCE}{RAIN_SOURCE}
  service avg_temp {{
    op: aggregate; period: {left_period_ms}; group_by: temp; func: avg; attr: temp;
    inputs: temp;
  }}
  service avg_rain {{
    op: aggregate; period: {right_period_ms}; group_by: rain; func: avg; attr: rain;
    inputs: rain;
  }}
  service paired {{
    op: join; period: 60000; predicate: 'avg_temp > 0 and avg_rain > 0';
    inputs: avg_temp, avg_rain;
  }}
  sink out {{ kind: console; inputs: paired; }}"
    ))
}

#[test]
fn sl010_incomparable_granularity() {
    // 3 s and 7 s windows: neither divides the other.
    assert_fires(
        LintCode::IncomparableGranularity,
        &join_of_aggregates(3000, 7000),
    );
    // 3 s and 6 s nest.
    assert_quiet(
        LintCode::IncomparableGranularity,
        &join_of_aggregates(3000, 6000),
    );
}

#[test]
fn sl013_mixed_granularity_join() {
    assert_fires(
        LintCode::MixedGranularityJoin,
        &join_of_aggregates(3000, 6000),
    );
    assert_quiet(
        LintCode::MixedGranularityJoin,
        &join_of_aggregates(5000, 5000),
    );
}

#[test]
fn sl011_misaligned_aggregation() {
    let reagg = |inner: u64, outer: u64| {
        doc(&format!(
            "{TEMP_SOURCE}
  service hourly {{
    op: aggregate; period: {inner}; group_by: temp; func: avg; attr: temp;
    inputs: temp;
  }}
  service daily {{
    op: aggregate; period: {outer}; group_by: avg_temp; func: avg; attr: avg_temp;
    inputs: hourly;
  }}
  sink out {{ kind: console; inputs: daily; }}"
        ))
    };
    // 7 s granules re-aggregated into 3 s windows straddle boundaries.
    assert_fires(LintCode::MisalignedAggregation, &reagg(7000, 3000));
    // 1 s granules nest inside 4 s windows.
    assert_quiet(LintCode::MisalignedAggregation, &reagg(1000, 4000));
}

#[test]
fn sl012_spatial_collapse() {
    let collapse = doc(&format!(
        "{TEMP_SOURCE}
  service avg {{ op: aggregate; period: 5000; func: avg; attr: temp; inputs: temp; }}
  sink out {{ kind: console; inputs: avg; }}"
    ));
    assert_fires(LintCode::SpatialCollapse, &collapse);
    assert_quiet(
        LintCode::SpatialCollapse,
        &collapse.replace("period: 5000;", "period: 5000; group_by: temp;"),
    );
}

// -------------------------------------------------------------- boundedness

#[test]
fn sl020_window_gap() {
    let gap = doc(&format!(
        "{TEMP_SOURCE}
  service avg {{
    op: aggregate; period: 5000; sliding: 1000; group_by: temp; func: avg; attr: temp;
    inputs: temp;
  }}
  sink out {{ kind: console; inputs: avg; }}"
    ));
    assert_fires(LintCode::WindowGap, &gap);
    assert_quiet(
        LintCode::WindowGap,
        &gap.replace("sliding: 1000;", "sliding: 10000;"),
    );
}

#[test]
fn sl021_unconstrained_join() {
    let cross = doc(&format!(
        "{TEMP_SOURCE}{RAIN_SOURCE}
  service paired {{
    op: join; period: 5000; predicate: 'temp > 0'; inputs: temp, rain;
  }}
  sink out {{ kind: console; inputs: paired; }}"
    ));
    assert_fires(LintCode::UnconstrainedJoin, &cross);
    assert_quiet(
        LintCode::UnconstrainedJoin,
        &cross.replace("'temp > 0'", "'temp > 0 and rain > 0'"),
    );
}

#[test]
fn sl022_unbounded_cache() {
    // A 1 kHz sensor cached over a 200 s window: 200k tuples, over budget.
    let reg = registry(&[("weather/temperature", 1)]);
    let ctx = LintContext {
        registry: Some(&reg),
        ..LintContext::default()
    };
    let big = doc(&format!(
        "{TEMP_SOURCE}
  service avg {{ op: aggregate; period: 200000; func: avg; attr: temp; inputs: temp; }}
  sink out {{ kind: console; inputs: avg; }}"
    ));
    assert!(lint_with(&big, &ctx).has(LintCode::UnboundedCache));
    let small = big.replace("period: 200000;", "period: 10000;");
    assert!(!lint_with(&small, &ctx).has(LintCode::UnboundedCache));
}

// -------------------------------------------------------------- rate/volume

#[test]
fn sl030_unsatisfiable_qos() {
    let reg = registry(&[("weather/temperature", 1000)]);
    let dsn = doc(&format!(
        "{TEMP_SOURCE}
  service hot {{ op: filter; condition: 'temp > 20'; inputs: temp; }}
  sink out {{ kind: console; inputs: hot; }}
  channel temp -> hot {{ qos: latency<=1, bandwidth>=1000000000; }}"
    ));
    // Every link: 5 ms latency, 1 Mbit/s.
    let net = topo(1_000_000, 5, 100.0);
    let ctx = LintContext {
        topology: Some(&net),
        registry: Some(&reg),
        ..LintContext::default()
    };
    assert!(lint_with(&dsn, &ctx).has(LintCode::UnsatisfiableQos));

    let relaxed = dsn.replace(
        "latency<=1, bandwidth>=1000000000",
        "latency<=50, bandwidth>=500000",
    );
    assert!(!lint_with(&relaxed, &ctx).has(LintCode::UnsatisfiableQos));
}

#[test]
fn sl031_link_overload() {
    // 1 kHz × (40 + 2×8) bytes × 8 = 448 kbit/s of temperature data.
    let reg = registry(&[("weather/temperature", 1)]);
    let dsn = doc(&format!(
        "{TEMP_SOURCE}
  service hot {{ op: filter; condition: 'temp > 20'; inputs: temp; }}
  sink out {{ kind: console; inputs: hot; }}"
    ));
    let slow = topo(10_000, 5, 1e9);
    let ctx = LintContext {
        topology: Some(&slow),
        registry: Some(&reg),
        ..LintContext::default()
    };
    assert!(lint_with(&dsn, &ctx).has(LintCode::LinkOverload));

    let fast = topo(10_000_000, 5, 1e9);
    let ctx = LintContext {
        topology: Some(&fast),
        registry: Some(&reg),
        ..LintContext::default()
    };
    assert!(!lint_with(&dsn, &ctx).has(LintCode::LinkOverload));
}

#[test]
fn sl032_cpu_overload() {
    let reg = registry(&[("weather/temperature", 1)]);
    let dsn = doc(&format!(
        "{TEMP_SOURCE}
  service hot {{ op: filter; condition: 'temp > 20'; inputs: temp; }}
  sink out {{ kind: console; inputs: hot; }}"
    ));
    let tiny = topo(10_000_000, 5, 0.25);
    let ctx = LintContext {
        topology: Some(&tiny),
        registry: Some(&reg),
        ..LintContext::default()
    };
    assert!(lint_with(&dsn, &ctx).has(LintCode::CpuOverload));

    let beefy = topo(10_000_000, 5, 1e9);
    let ctx = LintContext {
        topology: Some(&beefy),
        registry: Some(&reg),
        ..LintContext::default()
    };
    assert!(!lint_with(&dsn, &ctx).has(LintCode::CpuOverload));
}

#[test]
fn sl033_silent_source() {
    let reg = registry(&[("weather/rain", 1000)]);
    let ctx = LintContext {
        registry: Some(&reg),
        ..LintContext::default()
    };
    let dsn = doc(&format!(
        "{TEMP_SOURCE}
  sink out {{ kind: console; inputs: temp; }}"
    ));
    assert!(lint_with(&dsn, &ctx).has(LintCode::SilentSource));

    let reg = registry(&[("weather/temperature", 1000)]);
    let ctx = LintContext {
        registry: Some(&reg),
        ..LintContext::default()
    };
    assert!(!lint_with(&dsn, &ctx).has(LintCode::SilentSource));
}

#[test]
fn sl034_unmitigated_overload() {
    // 1 kHz through a filter: ~1300 operator-ops/s. Two 700-capacity nodes
    // give the *cluster* headroom (SL032 quiet) but no *single* node can
    // host the operator — it falls behind on every placement.
    let reg = registry(&[("weather/temperature", 1)]);
    let dsn = doc(&format!(
        "{TEMP_SOURCE}
  service hot {{ op: filter; condition: 'temp > 20'; inputs: temp; }}
  sink out {{ kind: console; inputs: hot; }}"
    ));
    let narrow = topo(10_000_000, 5, 700.0);
    let ctx = LintContext {
        topology: Some(&narrow),
        registry: Some(&reg),
        ..LintContext::default()
    };
    let report = lint_with(&dsn, &ctx);
    assert!(
        report.has(LintCode::UnmitigatedOverload),
        "{:?}",
        report.codes()
    );
    assert!(!report.has(LintCode::CpuOverload), "{:?}", report.codes());

    // Near miss 1: the engine has an admission layer — the overshoot is
    // mitigated at run time, so the warning is silenced.
    let bounded = block_cfg(64);
    let ctx = LintContext {
        topology: Some(&narrow),
        registry: Some(&reg),
        engine: Some(&bounded),
    };
    assert!(!lint_with(&dsn, &ctx).has(LintCode::UnmitigatedOverload));

    // Near miss 2: a node that keeps up — no overload to mitigate.
    let beefy = topo(10_000_000, 5, 1e9);
    let ctx = LintContext {
        topology: Some(&beefy),
        registry: Some(&reg),
        ..LintContext::default()
    };
    assert!(!lint_with(&dsn, &ctx).has(LintCode::UnmitigatedOverload));
}

// ---------------------------------------------------------------- dead code

#[test]
fn sl040_dead_end() {
    let dangling = doc(&format!(
        "{TEMP_SOURCE}
  service hot {{ op: filter; condition: 'temp > 20'; inputs: temp; }}
  service orphan {{ op: filter; condition: 'temp > 30'; inputs: temp; }}
  sink out {{ kind: console; inputs: hot; }}"
    ));
    assert_fires(LintCode::DeadEnd, &dangling);
    assert_quiet(
        LintCode::DeadEnd,
        &dangling.replace("inputs: hot;", "inputs: hot, orphan;"),
    );
}

#[test]
fn sl041_redundant_trigger() {
    let redundant = doc(&format!(
        "{TEMP_SOURCE}{RAIN_SOURCE}
  service alarm {{
    op: trigger_on; period: 1000; condition: 'temp > 40'; targets: rain; inputs: temp;
  }}
  service wet {{ op: filter; condition: 'rain > 0'; inputs: rain; }}
  sink out {{ kind: console; inputs: wet; }}"
    ));
    assert_fires(LintCode::RedundantTrigger, &redundant);
    // A gated target actually needs the activation.
    assert_quiet(
        LintCode::RedundantTrigger,
        &redundant.replace(
            "filter: theme=weather/rain & has rain:float;\n    mode: active;",
            "filter: theme=weather/rain & has rain:float;\n    mode: gated;",
        ),
    );
}

#[test]
fn sl042_unused_property() {
    let unused = doc(&format!(
        "{TEMP_SOURCE}
  service risk {{ op: virtual_property; property: risk; spec: 'temp * 2'; inputs: temp; }}
  service avg {{
    op: aggregate; period: 5000; group_by: temp; func: avg; attr: temp; inputs: risk;
  }}
  sink out {{ kind: console; inputs: avg; }}"
    ));
    assert_fires(LintCode::UnusedProperty, &unused);
    // Grouping by the property keeps (and uses) it.
    assert_quiet(
        LintCode::UnusedProperty,
        &unused.replace("group_by: temp;", "group_by: risk;"),
    );
}

#[test]
fn sl043_always_false() {
    let dead = doc(&format!(
        "{TEMP_SOURCE}
  service hot {{ op: filter; condition: '1 > 2'; inputs: temp; }}
  sink out {{ kind: console; inputs: hot; }}"
    ));
    assert_fires(LintCode::AlwaysFalse, &dead);
    assert_quiet(
        LintCode::AlwaysFalse,
        &dead.replace("'1 > 2'", "'temp > 2'"),
    );
}

#[test]
fn sl044_always_true() {
    let noop = doc(&format!(
        "{TEMP_SOURCE}
  service hot {{ op: filter; condition: '2 > 1'; inputs: temp; }}
  sink out {{ kind: console; inputs: hot; }}"
    ));
    assert_fires(LintCode::AlwaysTrue, &noop);
    assert_quiet(LintCode::AlwaysTrue, &noop.replace("'2 > 1'", "'temp > 1'"));
}

// --------------------------------------------------- deployment tier helpers

fn lint_deploy(dsn: &str, ctx: &LintContext<'_>, model: &DeployModel<'_>) -> LintReport {
    let doc = parse_document(dsn).unwrap_or_else(|e| panic!("parse failed: {e}\n{dsn}"));
    lint_document(&doc, &infer_schemas(&doc), ctx, Some(model))
}

/// A model with no fault plan and no durability over `config`.
fn model(config: &EngineConfig) -> DeployModel<'_> {
    DeployModel {
        config,
        fault_plan: None,
        durable: false,
        compaction: false,
    }
}

fn block_cfg(cap: usize) -> EngineConfig {
    let mut c = EngineConfig::default();
    c.overload.queue_capacity = Some(cap);
    c.overload.policy = OverflowPolicy::Block;
    c
}

fn shed_cfg(cap: usize) -> EngineConfig {
    let mut c = EngineConfig::default();
    c.overload.queue_capacity = Some(cap);
    c.overload.policy = OverflowPolicy::ShedOldest;
    c
}

fn reg_ctx(reg: &SensorRegistry) -> LintContext<'_> {
    LintContext {
        registry: Some(reg),
        ..LintContext::default()
    }
}

/// A 1 kHz grouped aggregate whose tick releases ~8 group rows at once
/// into a downstream filter — the tick-burst fixture for SL051/SL082.
fn tick_burst_doc() -> String {
    doc(&format!(
        "{TEMP_SOURCE}
  service avg {{
    op: aggregate; period: 10000; group_by: temp; func: avg; attr: temp; inputs: temp;
  }}
  service post {{ op: filter; condition: 'avg_temp > 0'; inputs: avg; }}
  sink out {{ kind: console; inputs: post; }}"
    ))
}

// ------------------------------------------------------------ SL05x deadlock

#[test]
fn sl050_activation_deadlock() {
    // Two gated sources, each woken only by a trigger fed by the other:
    // neither trigger can ever observe a tuple, so neither source wakes.
    let stuck = doc("
  source a { filter: theme=weather/temperature & has temp:float; mode: gated; }
  source b { filter: theme=weather/rain & has rain:float; mode: gated; }
  service ta {
    op: trigger_on; period: 1000; condition: 'temp > 40'; targets: b; inputs: a;
  }
  service tb {
    op: trigger_on; period: 1000; condition: 'rain > 40'; targets: a; inputs: b;
  }
  sink out { kind: console; inputs: a, b; }");
    assert_fires(LintCode::ActivationDeadlock, &stuck);
    // Starting one source active breaks the cycle: a feeds ta, ta wakes b.
    assert_quiet(
        LintCode::ActivationDeadlock,
        &stuck.replacen("mode: gated;", "mode: active;", 1),
    );
}

#[test]
fn sl051_ineffective_backpressure() {
    let reg = registry(&[("weather/temperature", 1)]);
    let ctx = reg_ctx(&reg);
    // ~8 group rows per tick against a Block queue of 4: credits throttle
    // sensors, not the producer's tick, so the bound is overrun every tick.
    let tiny = block_cfg(4);
    let report = lint_deploy(&tick_burst_doc(), &ctx, &model(&tiny));
    assert!(
        report.has(LintCode::IneffectiveBackpressure),
        "{:?}",
        report.codes()
    );
    // A queue that fits the batch absorbs the tick.
    let roomy = block_cfg(1024);
    let report = lint_deploy(&tick_burst_doc(), &ctx, &model(&roomy));
    assert!(!report.has(LintCode::IneffectiveBackpressure));
}

#[test]
fn sl052_shared_credit_starvation() {
    let reg = registry(&[("weather/temperature", 1000), ("weather/rain", 1000)]);
    let ctx = reg_ctx(&reg);
    let shared = doc(&format!(
        "{TEMP_SOURCE}
  source temp2 {{ filter: theme=weather/temperature & has temp:float; mode: active; }}
  sink out {{ kind: console; inputs: temp, temp2; }}"
    ));
    let cfg = block_cfg(64);
    let report = lint_deploy(&shared, &ctx, &model(&cfg));
    assert!(
        report.has(LintCode::SharedCreditStarvation),
        "{:?}",
        report.codes()
    );
    // Disjoint sensors: throttling one source touches nothing the other uses.
    let disjoint = shared.replace(
        "source temp2 { filter: theme=weather/temperature & has temp:float;",
        "source temp2 { filter: theme=weather/rain & has rain:float;",
    );
    let report = lint_deploy(&disjoint, &ctx, &model(&cfg));
    assert!(!report.has(LintCode::SharedCreditStarvation));
}

#[test]
fn sl053_lossy_block_preemption() {
    let plain = doc(&format!(
        "{TEMP_SOURCE}
  sink out {{ kind: console; inputs: temp; }}"
    ));
    let mut cfg = block_cfg(64);
    cfg.overload.global_capacity = Some(100);
    let report = lint_deploy(&plain, &LintContext::bare(), &model(&cfg));
    assert!(
        report.has(LintCode::LossyBlockPreemption),
        "{:?}",
        report.codes()
    );
    // A shedding policy is honest about loss; no contradiction.
    let mut cfg = shed_cfg(64);
    cfg.overload.global_capacity = Some(100);
    let report = lint_deploy(&plain, &LintContext::bare(), &model(&cfg));
    assert!(!report.has(LintCode::LossyBlockPreemption));
}

// --------------------------------------------------------------- SL06x shard

#[test]
fn sl060_fruitless_parallelism() {
    let only_blocking = doc(&format!(
        "{TEMP_SOURCE}
  service avg {{
    op: aggregate; period: 5000; group_by: temp; func: avg; attr: temp; inputs: temp;
  }}
  sink out {{ kind: console; inputs: avg; }}"
    ));
    let mut cfg = EngineConfig::default();
    cfg.parallelism = 4;
    let report = lint_deploy(&only_blocking, &LintContext::bare(), &model(&cfg));
    assert!(
        report.has(LintCode::FruitlessParallelism),
        "{:?}",
        report.codes()
    );
    // One shardable stage gives the pool something to batch.
    let with_filter = only_blocking.replace(
        "inputs: temp;\n  }",
        "inputs: temp;\n  }\n  service hot { op: filter; condition: 'temp > 20'; inputs: temp; }",
    ) + "";
    let with_filter = with_filter.replace("inputs: avg;", "inputs: avg, hot;");
    let report = lint_deploy(&with_filter, &LintContext::bare(), &model(&cfg));
    assert!(!report.has(LintCode::FruitlessParallelism));
}

#[test]
fn sl061_order_sensitive_merge() {
    let cull_after_join = doc(&format!(
        "{TEMP_SOURCE}{RAIN_SOURCE}
  service paired {{
    op: join; period: 5000; predicate: 'temp > 0 and rain > 0'; inputs: temp, rain;
  }}
  service thin {{ op: cull_time; interval: 0..100000000; rate: 2; inputs: paired; }}
  sink out {{ kind: console; inputs: thin; }}"
    ));
    let mut cfg = EngineConfig::default();
    cfg.parallelism = 2;
    let report = lint_deploy(&cull_after_join, &LintContext::bare(), &model(&cfg));
    assert!(
        report.has(LintCode::OrderSensitiveMerge),
        "{:?}",
        report.codes()
    );
    // Sequential execution keeps one deterministic interleaving.
    cfg.parallelism = 1;
    let report = lint_deploy(&cull_after_join, &LintContext::bare(), &model(&cfg));
    assert!(!report.has(LintCode::OrderSensitiveMerge));
}

#[test]
fn sl062_space_shard_without_location() {
    // The shared `registry` helper advertises no sensor positions.
    let reg = registry(&[("weather/temperature", 1000)]);
    let ctx = reg_ctx(&reg);
    let dsn = doc(&format!(
        "{TEMP_SOURCE}
  service hot {{ op: filter; condition: 'temp > 20'; inputs: temp; }}
  sink out {{ kind: console; inputs: hot; }}"
    ));
    let mut cfg = EngineConfig::default();
    cfg.parallelism = 2;
    cfg.shard_key = ShardKey::Space;
    let report = lint_deploy(&dsn, &ctx, &model(&cfg));
    assert!(
        report.has(LintCode::SpaceShardWithoutLocation),
        "{:?}",
        report.codes()
    );
    // Located sensors partition spatially as intended.
    let mut located = SensorRegistry::new();
    let schema: SchemaRef = Arc::new(
        Schema::new(vec![
            Field::new("temp", AttrType::Float),
            Field::new("rain", AttrType::Float),
        ])
        .unwrap(),
    );
    located
        .publish(SensorAdvertisement {
            id: SensorId(1),
            name: "s0".into(),
            kind: SensorKind::Physical,
            schema,
            theme: Theme::new("weather/temperature").unwrap(),
            period: Duration::from_millis(1000),
            location: Some(GeoPoint::new_unchecked(34.69, 135.50)),
            node: sl_netsim::NodeId(0),
        })
        .unwrap();
    let ctx = reg_ctx(&located);
    let report = lint_deploy(&dsn, &ctx, &model(&cfg));
    assert!(!report.has(LintCode::SpaceShardWithoutLocation));
}

#[test]
fn sl063_shard_skew() {
    let one = registry(&[("weather/temperature", 1000)]);
    let ctx = reg_ctx(&one);
    let dsn = doc(&format!(
        "{TEMP_SOURCE}
  service hot {{ op: filter; condition: 'temp > 20'; inputs: temp; }}
  sink out {{ kind: console; inputs: hot; }}"
    ));
    let mut cfg = EngineConfig::default();
    cfg.parallelism = 8;
    cfg.shard_key = ShardKey::Sensor;
    let report = lint_deploy(&dsn, &ctx, &model(&cfg));
    assert!(report.has(LintCode::ShardSkew), "{:?}", report.codes());
    // Eight distinct sensors feed eight workers.
    let eight = registry(&[("weather/temperature", 1000); 8]);
    let ctx = reg_ctx(&eight);
    let report = lint_deploy(&dsn, &ctx, &model(&cfg));
    assert!(!report.has(LintCode::ShardSkew));
}

// ------------------------------------------------------------ SL07x recovery

#[test]
fn sl071_volatile_checkpoints() {
    let windowed = doc(&format!(
        "{TEMP_SOURCE}
  service avg {{
    op: aggregate; period: 5000; group_by: temp; func: avg; attr: temp; inputs: temp;
  }}
  sink out {{ kind: console; inputs: avg; }}"
    ));
    let plan = FaultPlan::new().node_crash(1, Duration::from_secs(5));
    let cfg = EngineConfig::default();
    let volatile = DeployModel {
        config: &cfg,
        fault_plan: Some(&plan),
        durable: false,
        compaction: false,
    };
    let report = lint_deploy(&windowed, &LintContext::bare(), &volatile);
    assert!(
        report.has(LintCode::VolatileCheckpoints),
        "{:?}",
        report.codes()
    );
    let durable = DeployModel {
        config: &cfg,
        fault_plan: Some(&plan),
        durable: true,
        compaction: false,
    };
    let report = lint_deploy(&windowed, &LintContext::bare(), &durable);
    assert!(!report.has(LintCode::VolatileCheckpoints));
}

#[test]
fn sl072_breaker_retry_conflict() {
    let plain = doc(&format!(
        "{TEMP_SOURCE}
  sink out {{ kind: console; inputs: temp; }}"
    ));
    let plan = FaultPlan::new().link_flap(0, Duration::from_secs(5), Duration::from_secs(2));
    // Default retry: backoffs 0.5,1,2,4,8,10 s. The breaker opens after 3
    // failures; the remaining budget (4+8+10 = 22 s) is dwarfed by a 60 s
    // cooldown, so attempts 4..6 all fail fast and the tuple dead-letters.
    let mut cfg = EngineConfig::default();
    cfg.overload.breaker_enabled = true;
    cfg.overload.breaker_cooldown = Duration::from_secs(60);
    let m = DeployModel {
        config: &cfg,
        fault_plan: Some(&plan),
        durable: false,
        compaction: false,
    };
    let report = lint_deploy(&plain, &LintContext::bare(), &m);
    assert!(
        report.has(LintCode::BreakerRetryConflict),
        "{:?}",
        report.codes()
    );
    // The default 5 s cooldown ends inside the 22 s remaining budget: the
    // half-open probe gets a real attempt before retries are exhausted.
    cfg.overload.breaker_cooldown = Duration::from_secs(5);
    let m = DeployModel {
        config: &cfg,
        fault_plan: Some(&plan),
        durable: false,
        compaction: false,
    };
    let report = lint_deploy(&plain, &LintContext::bare(), &m);
    assert!(!report.has(LintCode::BreakerRetryConflict));
}

#[test]
fn sl092_compaction_disabled() {
    let plain = doc(&format!(
        "{TEMP_SOURCE}
  sink out {{ kind: console; inputs: temp; }}"
    ));
    // Durable with a retention window but no compaction: eviction spills
    // onto a cold tier that only ever grows.
    let mut cfg = EngineConfig::default();
    cfg.retention = Some(Duration::from_secs(600));
    let m = DeployModel {
        config: &cfg,
        fault_plan: None,
        durable: true,
        compaction: false,
    };
    let report = lint_deploy(&plain, &LintContext::bare(), &m);
    assert!(
        report.has(LintCode::CompactionDisabled),
        "{:?}",
        report.codes()
    );
    // Near miss 1: compaction on — the cold tier is maintained.
    let m = DeployModel {
        config: &cfg,
        fault_plan: None,
        durable: true,
        compaction: true,
    };
    let report = lint_deploy(&plain, &LintContext::bare(), &m);
    assert!(!report.has(LintCode::CompactionDisabled));
    // Near miss 2: not durable — eviction discards, nothing accumulates.
    let m = DeployModel {
        config: &cfg,
        fault_plan: None,
        durable: false,
        compaction: false,
    };
    let report = lint_deploy(&plain, &LintContext::bare(), &m);
    assert!(!report.has(LintCode::CompactionDisabled));
    // Near miss 3: durable but no retention — nothing is ever evicted to
    // the cold tier, so an unmaintained log is a choice, not a leak.
    let cfg = EngineConfig::default();
    let m = DeployModel {
        config: &cfg,
        fault_plan: None,
        durable: true,
        compaction: false,
    };
    let report = lint_deploy(&plain, &LintContext::bare(), &m);
    assert!(!report.has(LintCode::CompactionDisabled));
}

// ------------------------------------------------------------ SL08x resource

#[test]
fn sl080_unbounded_queue_growth() {
    // The SL034 scenario with a deployment model attached: the model owns
    // the admission question, so SL080 speaks and SL034 stays quiet.
    let reg = registry(&[("weather/temperature", 1)]);
    let dsn = doc(&format!(
        "{TEMP_SOURCE}
  service hot {{ op: filter; condition: 'temp > 20'; inputs: temp; }}
  sink out {{ kind: console; inputs: hot; }}"
    ));
    let narrow = topo(10_000_000, 5, 700.0);
    let ctx = LintContext {
        topology: Some(&narrow),
        registry: Some(&reg),
        ..LintContext::default()
    };
    let cfg = EngineConfig::default(); // admission disabled
    let report = lint_deploy(&dsn, &ctx, &model(&cfg));
    assert!(
        report.has(LintCode::UnboundedQueueGrowth),
        "{:?}",
        report.codes()
    );
    assert!(
        !report.has(LintCode::UnmitigatedOverload),
        "SL034 must defer to SL080 when a model is attached: {:?}",
        report.codes()
    );
    // Bounding the queue converts unbounded growth into managed overload.
    let bounded = block_cfg(64);
    let ctx = LintContext {
        topology: Some(&narrow),
        registry: Some(&reg),
        engine: Some(&bounded),
    };
    let report = lint_deploy(&dsn, &ctx, &model(&bounded));
    assert!(!report.has(LintCode::UnboundedQueueGrowth));
}

#[test]
fn sl081_peak_memory_exceeds_budget() {
    // 1 kHz cached over a 6 h window ≈ 21.6M tuples × 56 B ≈ 1.1 GiB,
    // past the 256 MiB budget.
    let reg = registry(&[("weather/temperature", 1)]);
    let dsn = doc(&format!(
        "{TEMP_SOURCE}
  service avg {{
    op: aggregate; period: 21600000; group_by: temp; func: avg; attr: temp; inputs: temp;
  }}
  sink out {{ kind: console; inputs: avg; }}"
    ));
    let cfg = EngineConfig::default();
    let ctx = reg_ctx(&reg);
    let report = lint_deploy(&dsn, &ctx, &model(&cfg));
    assert!(
        report.has(LintCode::PeakMemoryExceedsBudget),
        "{:?}",
        report.codes()
    );
    // A 60 s window ≈ 60k tuples × 56 B ≈ 3.4 MiB: the budget holds it
    // comfortably.
    let short = dsn.replace("period: 21600000;", "period: 60000;");
    let report = lint_deploy(&short, &ctx, &model(&cfg));
    assert!(!report.has(LintCode::PeakMemoryExceedsBudget));
}

#[test]
fn sl082_tick_burst_overflow() {
    let reg = registry(&[("weather/temperature", 1)]);
    let ctx = reg_ctx(&reg);
    // Same fixture as SL051, but shedding: the overflow is condemned, not
    // absorbed, so the loss happens every tick by construction.
    let tiny = shed_cfg(4);
    let report = lint_deploy(&tick_burst_doc(), &ctx, &model(&tiny));
    assert!(
        report.has(LintCode::TickBurstOverflow),
        "{:?}",
        report.codes()
    );
    let roomy = shed_cfg(1024);
    let report = lint_deploy(&tick_burst_doc(), &ctx, &model(&roomy));
    assert!(!report.has(LintCode::TickBurstOverflow));
}

#[test]
fn sl083_dlq_undershoot() {
    let reg = registry(&[("weather/temperature", 1)]);
    let ctx = reg_ctx(&reg);
    let dsn = doc(&format!(
        "{TEMP_SOURCE}
  service hot {{ op: filter; condition: 'temp > 20'; inputs: temp; }}
  sink out {{ kind: console; inputs: hot; }}"
    ));
    // A 10× burst for 60 s on a 1 kHz sensor sheds ~540k tuples; the
    // default DLQ keeps 256 of them.
    let plan = FaultPlan::new().burst(1, Duration::from_secs(1), Duration::from_secs(60), 10);
    let cfg = shed_cfg(64);
    let m = DeployModel {
        config: &cfg,
        fault_plan: Some(&plan),
        durable: false,
        compaction: false,
    };
    let report = lint_deploy(&dsn, &ctx, &m);
    assert!(report.has(LintCode::DlqUndershoot), "{:?}", report.codes());
    // A DLQ sized for the burst keeps the full loss record.
    let mut cfg = shed_cfg(64);
    cfg.dlq_capacity = 1_000_000;
    let m = DeployModel {
        config: &cfg,
        fault_plan: Some(&plan),
        durable: false,
        compaction: false,
    };
    let report = lint_deploy(&dsn, &ctx, &m);
    assert!(!report.has(LintCode::DlqUndershoot));
}

// ----------------------------------------------------------------- plumbing

#[test]
fn every_code_has_golden_coverage() {
    // Master list vs. the cases above: if a code is added to `LintCode::ALL`
    // without a golden pair, this test names it.
    let covered = [
        LintCode::DuplicateName,
        LintCode::UnknownInput,
        LintCode::WrongArity,
        LintCode::Cycle,
        LintCode::BadTriggerTarget,
        LintCode::GatedNeverActivated,
        LintCode::BadWiring,
        LintCode::SchemaError,
        LintCode::NoSchema,
        LintCode::IncomparableGranularity,
        LintCode::MisalignedAggregation,
        LintCode::SpatialCollapse,
        LintCode::MixedGranularityJoin,
        LintCode::WindowGap,
        LintCode::UnconstrainedJoin,
        LintCode::UnboundedCache,
        LintCode::UnsatisfiableQos,
        LintCode::LinkOverload,
        LintCode::CpuOverload,
        LintCode::SilentSource,
        LintCode::UnmitigatedOverload,
        LintCode::DeadEnd,
        LintCode::RedundantTrigger,
        LintCode::UnusedProperty,
        LintCode::AlwaysFalse,
        LintCode::AlwaysTrue,
        LintCode::ActivationDeadlock,
        LintCode::IneffectiveBackpressure,
        LintCode::SharedCreditStarvation,
        LintCode::LossyBlockPreemption,
        LintCode::FruitlessParallelism,
        LintCode::OrderSensitiveMerge,
        LintCode::SpaceShardWithoutLocation,
        LintCode::ShardSkew,
        LintCode::VolatileCheckpoints,
        LintCode::BreakerRetryConflict,
        LintCode::UnboundedQueueGrowth,
        LintCode::PeakMemoryExceedsBudget,
        LintCode::TickBurstOverflow,
        LintCode::DlqUndershoot,
        LintCode::UnboundedViewGrowth,
        LintCode::UnboundedSubscriberQueue,
        LintCode::CompactionDisabled,
    ];
    for code in LintCode::ALL {
        assert!(covered.contains(code), "{code:?} has no golden test");
    }
}

#[test]
fn diagnostics_carry_dsn_lines() {
    let report = lint(&doc(&format!(
        "{TEMP_SOURCE}
  service hot {{ op: filter; condition: '1 > 2'; inputs: temp; }}
  sink out {{ kind: console; inputs: hot; }}"
    )));
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::AlwaysFalse)
        .expect("SL043 fired");
    assert_eq!(d.node.as_deref(), Some("hot"));
    assert!(
        d.dsn_line.is_some(),
        "diagnostic should map back to a DSN line"
    );
}

#[test]
fn config_threshold_is_respected() {
    let reg = registry(&[("weather/temperature", 1)]);
    let dsn = doc(&format!(
        "{TEMP_SOURCE}
  service avg {{ op: aggregate; period: 99000; func: avg; attr: temp; inputs: temp; }}
  sink out {{ kind: console; inputs: avg; }}"
    ));
    // 99 s × 1 kHz = 99k tuples: under the 100k budget; 101 s is over it.
    let ctx = reg_ctx(&reg);
    assert!(!lint_with(&dsn, &ctx).has(LintCode::UnboundedCache));
    let over = dsn.replace("period: 99000;", "period: 101000;");
    assert!(lint_with(&over, &ctx).has(LintCode::UnboundedCache));
}

// ---------------------------------------------------------------------
// SL09x — continuous queries (the run-time tier: facts about live
// registrations, not documents)
// ---------------------------------------------------------------------

#[test]
fn sl090_unbounded_view_growth() {
    use sl_lint::{lint_cq, CqModel, CqViewFacts};
    let unbounded = CqModel {
        views: vec![CqViewFacts {
            name: "dashboard".into(),
            time_bounded: false,
        }],
        ..CqModel::default()
    };
    let report = lint_cq(&unbounded);
    assert!(
        report.has(LintCode::UnboundedViewGrowth),
        "{:?}",
        report.codes()
    );
    // Near miss 1: the same view under a configured retention window — the
    // eviction horizon retracts old contributions, so memory is bounded.
    let retained = CqModel {
        retention_configured: true,
        ..unbounded.clone()
    };
    assert!(!lint_cq(&retained).has(LintCode::UnboundedViewGrowth));
    // Near miss 2: no retention, but the standing query bounds its own
    // time range — the cell set cannot grow past the window.
    let bounded = CqModel {
        views: vec![CqViewFacts {
            name: "dashboard".into(),
            time_bounded: true,
        }],
        ..CqModel::default()
    };
    assert!(!lint_cq(&bounded).has(LintCode::UnboundedViewGrowth));
}

#[test]
fn sl091_unbounded_subscriber_queue_under_admission() {
    use sl_lint::{lint_cq, CqModel, CqSubFacts};
    let model = CqModel {
        subscriptions: vec![CqSubFacts {
            name: "slow-consumer".into(),
            bounded: false,
        }],
        admission_enabled: true,
        ..CqModel::default()
    };
    let report = lint_cq(&model);
    assert!(
        report.has(LintCode::UnboundedSubscriberQueue),
        "{:?}",
        report.codes()
    );
    // Near miss 1: same subscription, admission control off — nothing
    // upstream promises bounded memory, so the queue is merely the
    // historical default, not a contradiction.
    let no_admission = CqModel {
        admission_enabled: false,
        ..model.clone()
    };
    assert!(!lint_cq(&no_admission).has(LintCode::UnboundedSubscriberQueue));
    // Near miss 2: admission on, but the queue is bounded.
    let bounded = CqModel {
        subscriptions: vec![CqSubFacts {
            name: "slow-consumer".into(),
            bounded: true,
        }],
        admission_enabled: true,
        ..CqModel::default()
    };
    assert!(!lint_cq(&bounded).has(LintCode::UnboundedSubscriberQueue));
}
