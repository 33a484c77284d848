//! The traced run's second half: regenerate the workload's sensor trace from
//! the seed and replay it through each layer's public functions, one span per
//! chunk of calls, to get the per-call costs the engine's own snapshot does
//! not break out.
//!
//! Every replay runs on every workload, whether or not the workload's
//! dataflow uses that layer: the question answered is "what does this layer
//! cost on this workload's tuples", which stays comparable across workloads.

use crate::run::Rep;
use crate::span::Recorder;
use crate::stats::SplitMix;
use crate::workloads::{self, Sizes};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use streamloader::cq::{CqHub, QueuePolicy, SubscriberId, ViewId};
use streamloader::dataflow::{to_dsn, validate, NodeKind};
use streamloader::dsn::{compile, parse_document, print_document};
use streamloader::durable::{DurableWarehouse, Record, SegmentLog};
use streamloader::expr::CompiledExpr;
use streamloader::netsim::{EventQueue, NodeId, RoutingTable};
use streamloader::obs::Metrics;
use streamloader::ops::{AggFunc, OpContext, OpSpec, Operator};
use streamloader::pubsub::enrich::{enrich, EnrichPolicy};
use streamloader::pubsub::{Broker, SensorAdvertisement, SubscriptionFilter};
use streamloader::sensors::{decode_payload, WireFormat};
use streamloader::stt::{
    AttrType, Duration, Event, Field, Schema, SchemaRef, SpatialGranularity, TemporalGranularity,
    Timestamp, Tuple, Unit,
};
use streamloader::warehouse::{tuple_events, EventWarehouse};

/// Calls per replay span.
const CHUNK: usize = 1024;
/// Calls per span of the functions that take milliseconds (cold queries,
/// roll-ups), so that the time budget below can stop them early.
const SLOW_CHUNK: usize = 16;
/// Sliding-eviction replays use short chunks: the store is refilled between
/// chunks, so a long one would measure a store far above its steady size.
const EVICT_CHUNK: usize = 64;
/// Timed microseconds after which a replay starts no further chunk: the
/// per-call mean is settled long before, and the whole traced run has to fit
/// the benchmark's time cap.
const BUDGET_US: f64 = 150_000.0;
/// Most tuples of the trace any one replay walks.
const TRACE_CAP: usize = 131_072;
/// Most tuples the storage replays load (they fsync).
const STORE_CAP: usize = 32_768;

/// One sensor emission of the regenerated trace.
struct Emit {
    sensor: usize,
    at: Timestamp,
    tuple: Tuple,
}

/// Per-call cost of one replayed function.
#[derive(Debug, Default, Clone, Copy)]
struct Cost {
    calls: u64,
    us: f64,
}

impl Cost {
    fn add(&mut self, calls: u64, us: f64) {
        self.calls += calls;
        self.us += us;
    }

    fn ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.us * 1e3 / self.calls as f64
        }
    }

    fn per_call_us(&self) -> f64 {
        self.ns() / 1e3
    }
}

struct Replay<'a> {
    rec: &'a mut Recorder,
    root: usize,
}

impl Replay<'_> {
    fn layer(&mut self, name: &str) -> usize {
        self.rec.open(name, Some(self.root))
    }

    fn end_layer(&mut self, id: usize) {
        self.rec.close(id, 0);
    }

    /// Time `call` over `items` in chunks of `chunk` calls, one span per
    /// chunk, until the items or the time budget run out; `prep` builds each
    /// call's input outside the timing.
    fn each_by<I, T>(
        &mut self,
        name: &str,
        layer: usize,
        chunk: usize,
        items: impl Iterator<Item = I>,
        mut prep: impl FnMut(I) -> T,
        mut call: impl FnMut(T),
    ) -> Cost {
        let mut cost = Cost::default();
        let mut items = items.peekable();
        while items.peek().is_some() && cost.us < BUDGET_US {
            let batch: Vec<T> = items.by_ref().take(chunk).map(&mut prep).collect();
            let n = batch.len() as u64;
            let ((), us) = self.rec.time(name, Some(layer), n, || {
                for input in batch {
                    call(input);
                }
            });
            cost.add(n, us);
        }
        cost
    }

    fn each<I, T>(
        &mut self,
        name: &str,
        layer: usize,
        items: impl Iterator<Item = I>,
        prep: impl FnMut(I) -> T,
        call: impl FnMut(T),
    ) -> Cost {
        self.each_by(name, layer, CHUNK, items, prep, call)
    }

    /// Time up to `calls` invocations of `call(i)` in chunks.
    fn times(&mut self, name: &str, layer: usize, calls: usize, call: impl FnMut(usize)) -> Cost {
        self.each(name, layer, 0..calls, |i| i, call)
    }

    /// [`Replay::times`] for calls that take milliseconds.
    fn slow_times(
        &mut self,
        name: &str,
        layer: usize,
        calls: usize,
        call: impl FnMut(usize),
    ) -> Cost {
        self.each_by(name, layer, SLOW_CHUNK, 0..calls, |i| i, call)
    }
}

/// Rebuild the fleet from the seed and sample every sensor on its schedule,
/// in time order, over the virtual span the engine ran (capped).
fn regenerate(
    name: &str,
    seed: u64,
    span: Duration,
    replay: &mut Replay<'_>,
    out: &mut BTreeMap<&'static str, f64>,
) -> (Vec<SensorAdvertisement>, Vec<WireFormat>, Vec<Emit>) {
    let (mut sims, _) = workloads::fleet(name, seed);
    let ads: Vec<SensorAdvertisement> = sims.iter().map(|s| s.advertisement()).collect();
    let formats: Vec<WireFormat> = sims.iter().map(|s| s.wire_format()).collect();
    let start = workloads::start();
    let mut schedule: Vec<(Timestamp, usize)> = Vec::new();
    for (i, ad) in ads.iter().enumerate() {
        let period = ad.period.as_millis().max(1);
        for k in 1..=span.as_millis() / period {
            schedule.push((start + Duration::from_millis(k * period), i));
        }
    }
    schedule.sort_by_key(|(at, i)| (at.as_millis(), *i));
    schedule.truncate(TRACE_CAP);

    let layer = replay.layer("sensors");
    let mut emits = Vec::with_capacity(schedule.len());
    let mut wire_bytes = 0usize;
    let cost = replay.each(
        "sensors.emit",
        layer,
        schedule.into_iter(),
        |s| s,
        |(at, sensor)| {
            let (payload, tuple) = sims[sensor].emit(at);
            wire_bytes += payload.len();
            emits.push(Emit { sensor, at, tuple });
        },
    );
    out.insert("sensors.emit_ns", cost.ns());
    out.insert(
        "sensors.wire_bytes_per_tuple",
        wire_bytes as f64 / emits.len().max(1) as f64,
    );
    // Extraction, in each wire format, of this workload's own tuples.
    for (metric, span_name, format) in [
        (
            "sensors.decode_csv_ns",
            "sensors.decode_csv",
            WireFormat::Csv,
        ),
        (
            "sensors.decode_json_ns",
            "sensors.decode_json",
            WireFormat::Json,
        ),
        (
            "sensors.decode_kv_ns",
            "sensors.decode_kv",
            WireFormat::KeyValue,
        ),
    ] {
        let cost = replay.each(
            span_name,
            layer,
            emits.iter().take(TRACE_CAP / 2),
            |e| {
                (
                    format.encode(&e.tuple),
                    &ads[e.sensor].schema,
                    e.tuple.meta.clone(),
                )
            },
            |(payload, schema, meta)| {
                let _ = black_box(decode_payload(&payload, format, schema, meta));
            },
        );
        out.insert(metric, cost.ns());
    }
    replay.end_layer(layer);
    (ads, formats, emits)
}

fn source_filters(name: &str) -> Vec<SubscriptionFilter> {
    workloads::flow(name)
        .sources()
        .filter_map(|n| match &n.kind {
            NodeKind::Source { filter, .. } => Some(filter.clone()),
            _ => None,
        })
        .collect()
}

fn pubsub(
    name: &str,
    ads: &[SensorAdvertisement],
    emits: &[Emit],
    replay: &mut Replay<'_>,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let layer = replay.layer("pubsub");
    let filters = source_filters(name);
    let rounds = (2 * CHUNK).div_ceil(ads.len().max(1));
    let mut cost = Cost::default();
    // A fresh broker per round (a sensor publishes once), built untimed.
    for _ in 0..rounds {
        let mut broker = Broker::new();
        for f in &filters {
            broker.subscribe(f.clone());
        }
        let batch = ads.to_vec();
        let n = batch.len() as u64;
        let ((), us) = replay.rec.time("pubsub.publish", Some(layer), n, || {
            for ad in batch {
                let _ = black_box(broker.publish(ad));
            }
        });
        cost.add(n, us);
    }
    out.insert("pubsub.publish_us", cost.per_call_us());

    let mut broker = Broker::new();
    for ad in ads {
        let _ = broker.publish(ad.clone());
    }
    let cost = replay.times("pubsub.discover", layer, 4 * CHUNK, |i| {
        let filter = &filters[i % filters.len()];
        black_box(broker.registry().discover(filter).count());
    });
    out.insert("pubsub.discover_us", cost.per_call_us());

    let policy = EnrichPolicy::default();
    let cost = replay.each(
        "pubsub.enrich",
        layer,
        emits.iter(),
        |e| (e.tuple.clone(), &ads[e.sensor], e.at),
        |(mut tuple, ad, at)| {
            black_box(enrich(&mut tuple, ad, at, &policy));
        },
    );
    out.insert("pubsub.enrich_ns", cost.ns());

    let cost = replay.each(
        "pubsub.heartbeat",
        layer,
        emits.iter(),
        |e| (ads[e.sensor].id, e.at),
        |(id, at)| broker.heartbeat(id, at),
    );
    out.insert("pubsub.heartbeat_ns", cost.ns());
    replay.end_layer(layer);
}

fn netsim(
    name: &str,
    seed: u64,
    ads: &[SensorAdvertisement],
    emits: &[Emit],
    traced: &Rep,
    replay: &mut Replay<'_>,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let layer = replay.layer("netsim");
    // The event queue at the depth the engine's own gauge averaged.
    let depths = &traced.traced.queue_depths;
    let depth = (depths.iter().sum::<f64>() / depths.len().max(1) as f64).round() as u64;
    let mut queue: EventQueue<u64> = EventQueue::new(workloads::start());
    for i in 0..depth.max(1) {
        queue.schedule_in(Duration::from_millis(1 + i % 1000), i);
    }
    let cost = replay.times("netsim.queue", layer, TRACE_CAP, |i| {
        let at = queue.now() + Duration::from_millis(1 + (i % 1000) as u64);
        queue.schedule_at(at, i as u64);
        black_box(queue.pop());
    });
    out.insert("netsim.queue_ns", cost.ns());

    let (_, topology) = workloads::fleet(name, seed);
    let target = traced.traced.first_op_node.unwrap_or(NodeId(0));
    let tables: BTreeMap<u32, RoutingTable> = ads
        .iter()
        .filter_map(|ad| Some((ad.node.0, RoutingTable::compute(&topology, ad.node).ok()?)))
        .collect();
    let cost = replay.each(
        "netsim.route",
        layer,
        emits.iter(),
        |e| (tables.get(&ads[e.sensor].node.0), e.tuple.byte_size()),
        |(table, bytes)| {
            if let Some(Ok(route)) = table.map(|t| t.route_to(target)) {
                let _ = black_box(route.transfer_delay(&topology, bytes));
            }
        },
    );
    out.insert("netsim.route_ns", cost.ns());
    replay.end_layer(layer);
}

fn temperature_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("temperature", AttrType::Float),
        Field::new("station", AttrType::Str),
    ])
    .expect("static schema")
    .into_ref()
}

/// The workload's Celsius temperature tuples, projected onto the
/// `temperature, station` schema every workload's temperature source has.
fn temperature_tuples(ads: &[SensorAdvertisement], emits: &[Emit]) -> Vec<Tuple> {
    let schema = temperature_schema();
    emits
        .iter()
        .filter(|e| {
            let field = ads[e.sensor].schema.field("temperature");
            field.is_ok_and(|f| f.unit.is_none_or(|u| u == Unit::Celsius))
        })
        .filter_map(|e| {
            let values = vec![
                e.tuple.get("temperature").ok()?.clone(),
                e.tuple.get("station").ok()?.clone(),
            ];
            Tuple::new(schema.clone(), values, e.tuple.meta.clone()).ok()
        })
        .collect()
}

/// Window period of the workload's blocking aggregate (E9's 20 s for the
/// chain, which has none of its own).
fn aggregate_period(name: &str) -> Duration {
    match name {
        "osaka" => Duration::from_hours(1),
        "chain" | "chain_par" => Duration::from_secs(20),
        _ => Duration::from_mins(1),
    }
}

/// Drive a blocking operator the way the engine does: tuples in time order,
/// a tick whenever virtual time crosses the period.
fn drive(op: &mut dyn Operator, period: Duration, next_tick: &mut Timestamp, tuple: Tuple) {
    let at = tuple.meta.timestamp;
    while at >= *next_tick {
        let mut ctx = OpContext::new(*next_tick);
        let _ = op.on_timer(*next_tick, &mut ctx);
        black_box(ctx.take());
        *next_tick += period;
    }
    let mut ctx = OpContext::new(at);
    let _ = op.on_tuple(0, tuple, &mut ctx);
    black_box(ctx.take());
}

fn ops_and_expr(
    name: &str,
    temps: &[Tuple],
    replay: &mut Replay<'_>,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let layer = replay.layer("ops");
    let schema = temperature_schema();
    let instantiate = |spec: &OpSpec| {
        spec.instantiate(std::slice::from_ref(&schema))
            .map_err(|e| format!("probe operator: {e}"))
    };
    // The chain's own non-blocking operators.
    let probes = [
        (
            "ops.filter_ns",
            "ops.filter",
            OpSpec::Filter {
                condition: "temperature > -100".into(),
            },
        ),
        (
            "ops.transform_ns",
            "ops.transform",
            OpSpec::Transform {
                assignments: vec![("temperature".into(), "temperature * 1.8 + 32".into())],
            },
        ),
        (
            "ops.vprop_ns",
            "ops.vprop",
            OpSpec::VirtualProperty {
                property: "hot".into(),
                spec: "temperature > 80".into(),
            },
        ),
    ];
    for (metric, span_name, spec) in &probes {
        let mut op = instantiate(spec)?;
        let cost = replay.each(
            span_name,
            layer,
            temps.iter(),
            |t| t.clone(),
            |tuple| {
                let mut ctx = OpContext::new(tuple.meta.timestamp);
                let _ = op.on_tuple(0, tuple, &mut ctx);
                black_box(ctx.take());
            },
        );
        out.insert(metric, cost.ns());
    }

    let period = aggregate_period(name);
    let aggregate = OpSpec::Aggregate {
        period,
        group_by: vec![],
        func: AggFunc::Avg,
        attr: Some("temperature".into()),
        sliding: None,
    };
    let trigger = OpSpec::TriggerOn {
        period: Duration::from_hours(1),
        condition: "temperature > 25".into(),
        targets: vec!["rain".into()],
    };
    for (metric, span_name, spec, period) in [
        ("ops.aggregate_ns", "ops.aggregate", &aggregate, period),
        (
            "ops.trigger_ns",
            "ops.trigger",
            &trigger,
            Duration::from_hours(1),
        ),
    ] {
        let mut op = instantiate(spec)?;
        let mut next_tick = workloads::start() + period;
        let cost = replay.each(
            span_name,
            layer,
            temps.iter(),
            |t| t.clone(),
            |tuple| drive(op.as_mut(), period, &mut next_tick, tuple),
        );
        out.insert(metric, cost.ns());
    }

    // Checkpoint at the window's steady fill: half a period of tuples in.
    let mut op = instantiate(&aggregate)?;
    let half = workloads::start() + Duration::from_millis(period.as_millis() / 2);
    for tuple in temps.iter().take_while(|t| t.meta.timestamp <= half) {
        let mut ctx = OpContext::new(tuple.meta.timestamp);
        let _ = op.on_tuple(0, tuple.clone(), &mut ctx);
    }
    let cost = replay.times("ops.checkpoint", layer, CHUNK / 2, |_| {
        black_box(op.checkpoint());
    });
    out.insert("ops.checkpoint_us", cost.per_call_us());
    replay.end_layer(layer);

    let layer = replay.layer("expr");
    let sources = [
        "temperature * 1.8 + 32",
        "(temperature - 32) / 1.8 * 1.8 + 32",
        "temperature > 80",
        "temperature > -100",
    ];
    let cost = replay.times("expr.compile", layer, 2 * CHUNK, |i| {
        let _ = black_box(CompiledExpr::compile(sources[i % sources.len()], &schema));
    });
    out.insert("expr.compile_us", cost.per_call_us());
    let expr = CompiledExpr::compile(sources[1], &schema).map_err(|e| format!("expr: {e}"))?;
    let cost = replay.each(
        "expr.eval",
        layer,
        temps.iter(),
        |t| t,
        |t| {
            let _ = black_box(expr.eval(t));
        },
    );
    out.insert("expr.eval_ns", cost.ns());
    replay.end_layer(layer);
    Ok(())
}

/// The 32 subscriptions over 4 queries and the 2 views of the `edw_*`
/// workloads, on a hub of the harness's own.
fn standard_hub() -> (CqHub, Vec<SubscriberId>, Vec<ViewId>) {
    let mut hub = CqHub::new();
    let queries = workloads::standing_queries();
    let subs = (0..workloads::SUBSCRIBERS)
        .map(|i| {
            hub.subscribe(
                &format!("client{i}"),
                queries[i % queries.len()].clone(),
                Some(workloads::SUBSCRIBER_QUEUE),
                QueuePolicy::Block,
            )
        })
        .collect();
    let views = workloads::view_queries()
        .into_iter()
        .enumerate()
        .map(|(i, q)| hub.register_view(&format!("view{i}"), q, std::iter::empty()))
        .collect();
    (hub, subs, views)
}

fn drain_hub(hub: &mut CqHub, subs: &[SubscriberId]) {
    for id in subs {
        black_box(hub.poll(*id));
    }
}

fn events_of(tuple: &Tuple) -> Vec<Event> {
    tuple_events(
        tuple,
        TemporalGranularity::Minute,
        SpatialGranularity::grid(8),
    )
}

/// The enriched form of each emission, as the warehouse would see it.
fn stored_tuples(ads: &[SensorAdvertisement], emits: &[Emit]) -> Vec<Tuple> {
    let policy = EnrichPolicy::default();
    emits
        .iter()
        .take(STORE_CAP)
        .map(|e| {
            let mut tuple = e.tuple.clone();
            enrich(&mut tuple, &ads[e.sensor], e.at, &policy);
            tuple
        })
        .collect()
}

/// One timed pass of a [`sliding`] replay: span name, and the call made with
/// each horizon.
type Pass<'a, S> = (&'a str, &'a mut dyn FnMut(&mut S, Timestamp));

/// What a [`sliding`] replay measured.
struct Slid {
    /// Cost of each pass, in the order given.
    costs: Vec<Cost>,
    /// Mean number of events the store held when a chunk began (eviction
    /// cost grows with it).
    mean_events: f64,
    /// Virtual time the replay got to before its time budget ran out; the
    /// store holds the retention window ending here.
    reached: Timestamp,
}

/// Slide a retention horizon over `tuples` one virtual second per call, the
/// way the monitor tick does: each chunk first stores (untimed) the tuples of
/// the seconds it is about to slide over, then times the calls.
fn sliding<S>(
    tuples: &[Tuple],
    state: &mut S,
    mut store: impl FnMut(&mut S, &Tuple),
    size: impl Fn(&S) -> usize,
    mut passes: Vec<Pass<'_, S>>,
    replay: &mut Replay<'_>,
    layer: usize,
) -> Slid {
    let start = workloads::start();
    let end = tuples.last().map_or(start, |t| t.meta.timestamp);
    let retention = workloads::RETENTION
        .as_millis()
        .min(end.since(start).as_millis() / 2);
    let mut costs = vec![Cost::default(); passes.len()];
    let (mut sizes, mut chunks) = (0.0, 0.0);
    let mut next = 0usize;
    let mut stored_until = |limit: Timestamp, state: &mut S| {
        while next < tuples.len() && tuples[next].meta.timestamp <= limit {
            store(state, &tuples[next]);
            next += 1;
        }
    };
    let mut now = start + Duration::from_millis(retention);
    stored_until(now, state);
    while now < end && costs.iter().all(|c| c.us < BUDGET_US) {
        let chunk_end = (now + Duration::from_secs(EVICT_CHUNK as u64)).min(end);
        stored_until(chunk_end, state);
        sizes += size(state) as f64;
        chunks += 1.0;
        let seconds = chunk_end.since(now).as_millis() / 1000;
        for ((span_name, call), cost) in passes.iter_mut().zip(costs.iter_mut()) {
            let ((), us) = replay.rec.time(span_name, Some(layer), seconds, || {
                for s in 1..=seconds {
                    let horizon = (now + Duration::from_secs(s))
                        .saturating_sub(Duration::from_millis(retention));
                    call(state, horizon);
                }
            });
            cost.add(seconds, us);
        }
        now = chunk_end;
        if seconds == 0 {
            break;
        }
    }
    Slid {
        costs,
        mean_events: if chunks == 0.0 { 0.0 } else { sizes / chunks },
        reached: now,
    }
}

fn warehouse_and_cq(
    stored: &[Tuple],
    replay: &mut Replay<'_>,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let layer = replay.layer("warehouse");
    let mut fresh = EventWarehouse::with_defaults();
    let cost = replay.each(
        "warehouse.ingest",
        layer,
        stored.iter(),
        |t| t,
        |t| {
            black_box(fresh.ingest_events(events_of(t)));
        },
    );
    out.insert("warehouse.ingest_ns", cost.ns());
    drop(fresh);

    // One store and one hub, slid together like the engine's tick does.
    let (hub, subs, views) = standard_hub();
    let mut state = (EventWarehouse::with_defaults(), hub);
    let cq_layer = replay.layer("cq");
    let slid = sliding(
        stored,
        &mut state,
        |(w, hub), t| {
            let events = events_of(t);
            hub.on_events(&events);
            w.ingest_events(events);
            // Keep the bounded queues from lagging while loading.
            if w.len() % 512 == 0 {
                drain_hub(hub, &subs);
            }
        },
        |(w, _)| w.len(),
        vec![
            ("warehouse.evict", &mut |(w, _), h| {
                black_box(w.evict_before(h));
            }),
            ("cq.on_evict", &mut |(_, hub), h| hub.on_evict(h)),
        ],
        replay,
        layer,
    );
    out.insert("warehouse.evict_us", slid.costs[0].per_call_us());
    out.insert("~warehouse.evict_events", slid.mean_events);
    out.insert("cq.on_evict_us", slid.costs[1].per_call_us());
    let (mut w, mut hub) = state;
    let now = slid.reached;
    let cost = replay.times("warehouse.query_hot", layer, CHUNK, |i| {
        black_box(w.query(&workloads::hot_query(now, i)).len());
    });
    out.insert("warehouse.query_hot_us", cost.per_call_us());
    let cube = &workloads::view_queries()[0];
    let cost = replay.slow_times("warehouse.rollup", layer, CHUNK / 4, |_| {
        black_box(w.rollup(cube).len());
    });
    out.insert("warehouse.rollup_us", cost.per_call_us());
    replay.end_layer(layer);

    // Fan-out per stored event, then reads of the loaded hub.
    drain_hub(&mut hub, &subs);
    let mut cost = Cost::default();
    let mut poll = Cost::default();
    for batch in stored.chunks(CHUNK / 4) {
        let events: Vec<Vec<Event>> = batch.iter().map(events_of).collect();
        let n: u64 = events.iter().map(|e| e.len() as u64).sum();
        let ((), us) = replay.rec.time("cq.on_events", Some(cq_layer), n, || {
            for e in &events {
                hub.on_events(e);
            }
        });
        cost.add(n, us);
        let n = subs.len() as u64;
        let ((), us) = replay
            .rec
            .time("cq.poll", Some(cq_layer), n, || drain_hub(&mut hub, &subs));
        poll.add(n, us);
    }
    out.insert("cq.on_events_ns", cost.ns());
    out.insert("cq.poll_us", poll.per_call_us());
    let cost = replay.times("cq.view_cells", cq_layer, CHUNK / 2, |i| {
        black_box(hub.view_cells(views[i % views.len()]));
    });
    out.insert("cq.view_cells_us", cost.per_call_us());
    replay.end_layer(cq_layer);
}

fn durable(
    seed: u64,
    stored: &[Tuple],
    dir: &Path,
    replay: &mut Replay<'_>,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let layer = replay.layer("durable");
    let err = |e| format!("durable replay: {e}");
    let records: Vec<Record> = stored
        .iter()
        .flat_map(events_of)
        .map(Record::Event)
        .collect();
    let cost = replay.each(
        "durable.encode",
        layer,
        records.iter(),
        |r| r,
        |r| {
            black_box(r.encode());
        },
    );
    out.insert("durable.encode_ns", cost.ns());

    // Append under the workloads' own fsync policy: the per-call figure
    // carries its share of the fsyncs.
    let wal_dir = dir.join("wal");
    let (mut log, _, _) = SegmentLog::open(workloads::durable_config(&wal_dir)).map_err(err)?;
    let cost = replay.each(
        "durable.append",
        layer,
        records.iter(),
        |r| r,
        |r| {
            let _ = black_box(log.append(r));
        },
    );
    out.insert("durable.append_ns", cost.ns());
    drop(log);
    drop(records);

    let store_dir = dir.join("store");
    let config = workloads::durable_config(&store_dir);
    let mut dw = DurableWarehouse::open(config.clone()).map_err(err)?;
    let slid = sliding(
        stored,
        &mut dw,
        |dw, t| {
            let _ = dw.ingest_events(events_of(t));
        },
        |dw| dw.hot().len(),
        vec![("durable.evict", &mut |dw, h| {
            let _ = black_box(dw.evict_before(h));
        })],
        replay,
        layer,
    );
    out.insert("durable.evict_us", slid.costs[0].per_call_us());
    out.insert("~durable.evict_events", slid.mean_events);

    // Compact the spilled tier, then read it back the way `edw_query` does.
    let start = workloads::start();
    let end = slid.reached;
    let _ = dw.compact_now(end).map_err(err)?;
    let cold_ms = end
        .since(start)
        .as_millis()
        .saturating_sub(workloads::RETENTION.as_millis());
    let narrow = workloads::cold_narrow_queries(cold_ms);
    let cost = replay.slow_times("durable.query_cold_narrow", layer, CHUNK / 2, |i| {
        let _ = black_box(dw.query(&narrow[i % narrow.len()]));
    });
    out.insert("durable.query_cold_narrow_us", cost.per_call_us());
    let mut rng = SplitMix(seed);
    let wide_ms = cold_ms.saturating_sub(workloads::COLD_WIDE.as_millis());
    let cost = replay.each_by(
        "durable.query_cold_wide",
        layer,
        SLOW_CHUNK,
        0..CHUNK / 8,
        |_| workloads::cold_wide_query(&mut rng, wide_ms),
        |q| {
            let _ = black_box(dw.query(&q));
        },
    );
    out.insert("durable.query_cold_wide_us", cost.per_call_us());

    let snap = dw.metrics_snapshot();
    let ratio = |part: &str, rest: &str| {
        let (a, b) = (
            crate::run::counter(&snap, part) as f64,
            crate::run::counter(&snap, rest) as f64,
        );
        if a + b == 0.0 {
            0.0
        } else {
            a / (a + b)
        }
    };
    out.insert(
        "durable.cache_hit_ratio",
        ratio("log/cache/hits", "log/cache/misses"),
    );
    out.insert(
        "durable.segments_pruned_ratio",
        ratio("log/cold/segments_pruned", "log/cold/segments_scanned"),
    );

    dw.sync().map_err(err)?;
    drop(dw);
    let mut reopen = Cost::default();
    for _ in 0..3 {
        let config = config.clone();
        let (opened, us) = replay.rec.time("durable.reopen", Some(layer), 1, || {
            DurableWarehouse::open(config)
        });
        opened.map_err(err)?;
        reopen.add(1, us);
    }
    out.insert("durable.reopen_ms", reopen.per_call_us() / 1e3);
    replay.end_layer(layer);
    Ok(())
}

fn control_plane(
    name: &str,
    seed: u64,
    replay: &mut Replay<'_>,
    out: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let layer = replay.layer("control-plane");
    let dataflow = workloads::flow(name);
    let calls = CHUNK / 4;
    let cost = replay.times("dataflow.validate", layer, calls, |_| {
        let _ = black_box(validate(&dataflow));
    });
    out.insert("dataflow.validate_us", cost.per_call_us());
    let cost = replay.times("dataflow.translate", layer, calls, |_| {
        black_box(to_dsn(&dataflow));
    });
    out.insert("dataflow.translate_us", cost.per_call_us());
    let document = to_dsn(&dataflow);
    let text = print_document(&document);
    let cost = replay.times("dsn.parse", layer, calls, |_| {
        let _ = black_box(parse_document(&text));
    });
    out.insert("dsn.parse_us", cost.per_call_us());
    let cost = replay.times("dsn.compile", layer, calls, |_| {
        let _ = black_box(compile(&document));
    });
    out.insert("dsn.compile_us", cost.per_call_us());
    let session = workloads::open_session(name, seed, None)?;
    let cost = replay.times("lint.deployment", layer, calls, |_| {
        black_box(session.lint_deployment(&dataflow, None));
    });
    out.insert("lint.deployment_us", cost.per_call_us());
    replay.end_layer(layer);

    let layer = replay.layer("obs");
    let mut metrics = Metrics::new();
    // By name, as the engine records every event it handles.
    let cost = replay.times("obs.record", layer, TRACE_CAP, |i| {
        metrics.hist("ev/deliver_us").record(i as u64 & 0xff);
    });
    out.insert("obs.record_ns", cost.ns());
    replay.end_layer(layer);
    Ok(())
}

/// Counts of the regenerated trace the ledger multiplies per-call costs by.
pub struct TraceShape {
    /// Share of emissions in each wire format (CSV, JSON, key-value).
    pub format_share: [f64; 3],
}

/// Replay the workload's sensor trace through every layer; returns the
/// per-call metrics by name.
pub fn run(
    name: &str,
    seed: u64,
    sizes: &Sizes,
    traced: &Rep,
    dir: &Path,
    rec: &mut Recorder,
    root: usize,
) -> Result<(BTreeMap<&'static str, f64>, TraceShape), String> {
    let started = Instant::now();
    let mut out = BTreeMap::new();
    let mut replay = Replay { rec, root };
    let span = sizes.preload + sizes.horizon;
    let (ads, formats, emits) = regenerate(name, seed, span, &mut replay, &mut out);
    let mut format_share = [0.0; 3];
    for e in &emits {
        let slot = WireFormat::ALL
            .iter()
            .position(|f| *f == formats[e.sensor])
            .unwrap_or(0);
        format_share[slot] += 1.0 / emits.len() as f64;
    }
    pubsub(name, &ads, &emits, &mut replay, &mut out);
    netsim(name, seed, &ads, &emits, traced, &mut replay, &mut out);
    let temps = temperature_tuples(&ads, &emits);
    ops_and_expr(name, &temps, &mut replay, &mut out)?;
    drop(temps);
    let stored = stored_tuples(&ads, &emits);
    drop(emits);
    warehouse_and_cq(&stored, &mut replay, &mut out);
    durable(seed, &stored, dir, &mut replay, &mut out)?;
    control_plane(name, seed, &mut replay, &mut out)?;
    eprintln!(
        "# {name}: replay took {:.2} s",
        started.elapsed().as_secs_f64()
    );
    Ok((out, TraceShape { format_share }))
}
