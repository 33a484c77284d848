//! One repetition of a workload from fresh state: set-up, the timed drain of
//! the virtual horizon (with `edw_query`'s query mix), and the untimed output
//! checks. The traced run reuses the same code in [`Mode::Traced`].

use crate::alloc;
use crate::span::Recorder;
use crate::stats::{Fnv, SplitMix};
use crate::workloads::{self, Built, Sizes};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use streamloader::dataflow::NodeKind;
use streamloader::durable::Record;
use streamloader::netsim::NodeId;
use streamloader::obs::MetricsSnapshot;
use streamloader::stt::{Duration, Event, TemporalGranularity, Timestamp};
use streamloader::warehouse::{CubeCell, EventQuery};

/// What one repetition measured and what its output checks found.
#[derive(Debug, Default)]
pub struct Rep {
    pub setup_s: f64,
    /// Wall time inside `run_for`: the engine's share of the timed section.
    pub run_wall_s: f64,
    /// Wall time of the whole timed section: `run_for`, subscriber polls and,
    /// on `edw_query`, the queries and evictions. `tuples_per_s` divides by
    /// this, so work the client does on the engine's thread counts.
    pub job_wall_s: f64,
    /// Sensor tuples emitted over the timed horizon.
    pub emitted: u64,
    /// Deltas the hub fanned out to subscribers / dropped on the way.
    pub fanout: u64,
    pub dropped_deltas: u64,
    pub dlq: u64,
    /// p99 of sensor stamp → sink, virtual time.
    pub virt_e2e_p99_ms: f64,
    pub disk_bytes: u64,
    /// Per-call wall time of every query, in issue order, with its class.
    pub queries: Vec<(QueryClass, f64)>,
    /// Queries whose answer differed from the brute-force reference
    /// (verification repetition only) or that returned an error.
    pub wrong_queries: u64,
    /// Digest of every query answer, to tie timed repetitions to the
    /// verified one.
    pub answers: u64,
    /// Digest of warehouse events, sink counts, operator counters, console
    /// lines and dead letters after the in-flight tuples drained.
    pub digest: u64,
    pub sunk: u64,
    pub dropped: u64,
    /// Conservation equalities that did not hold.
    pub violations: Vec<String>,
    pub deploy_us: f64,
    /// What the engine's snapshot counted over the timed section: counters
    /// and histogram counts and sums are end minus start (so `edw_query`'s
    /// pre-load is excluded), gauges and percentiles are the end values.
    pub snapshot: MetricsSnapshot,
    pub net_msgs: u64,
    pub net_bytes: u64,
    pub traced: Traced,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryClass {
    Hot,
    ColdNarrow,
    ColdWide,
    Rollup,
    ViewCells,
}

pub enum Mode<'a> {
    Timed,
    /// Untimed repetition whose query answers are checked one by one against
    /// a brute-force reference kept by the harness.
    Verify,
    /// One span per `run_for` step under `parent`, allocations counted
    /// inside them, and the [`Traced`] observations filled in.
    Traced {
        recorder: &'a mut Recorder,
        parent: usize,
    },
}

/// What only the traced repetition observes.
#[derive(Debug, Default)]
pub struct Traced {
    /// `engine/event_queue_depth` after each step.
    pub queue_depths: Vec<f64>,
    /// Allocations made inside `run_for`.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Mean wall time of `metrics_snapshot()` on the loaded engine.
    pub snapshot_us: f64,
    /// Hot-store events summed over the monitor ticks of the run: what the
    /// per-tick retention eviction walked in total.
    pub hot_event_ticks: f64,
    /// Node hosting the dataflow's first operator (the replay's route target).
    pub first_op_node: Option<NodeId>,
}

/// Virtual time drained after the horizon, with the sensors unplugged, so
/// that every in-flight tuple lands before the conservation check. Ends off
/// any tick boundary.
const SETTLE: Duration = Duration::from_millis(30_500);
/// `metrics_snapshot()` calls behind `obs.snapshot_us`.
const SNAPSHOT_CALLS: u32 = 32;

pub fn hist_count(snap: &MetricsSnapshot, key: &str) -> u64 {
    snap.hists.get(key).map_or(0, |h| h.count)
}

/// `end` with every counter and every histogram count and sum reduced by
/// what `start` had already seen.
fn since(mut end: MetricsSnapshot, start: &MetricsSnapshot) -> MetricsSnapshot {
    for (key, v) in &mut end.counters {
        *v -= counter(start, key).min(*v);
    }
    for (key, h) in &mut end.hists {
        if let Some(h0) = start.hists.get(key) {
            h.count -= h0.count.min(h.count);
            h.sum -= h0.sum.min(h.sum);
        }
    }
    end
}

pub fn counter(snap: &MetricsSnapshot, key: &str) -> u64 {
    snap.counters.get(key).copied().unwrap_or(0)
}

/// What the session had already counted when the timed section began
/// (`edw_query`'s pre-load), to be subtracted at its end.
struct Baseline {
    snapshot: MetricsSnapshot,
    net_msgs: u64,
    net_bytes: u64,
}

impl Baseline {
    fn of(built: &Built) -> Baseline {
        let net = built.session.engine().net_stats();
        Baseline {
            snapshot: built.session.metrics(),
            net_msgs: net.total_msgs(),
            net_bytes: net.total_bytes(),
        }
    }
}

/// `run_for(d)`, timed; in a traced run also one span with allocation counts.
fn step(built: &mut Built, d: Duration, mode: &mut Mode<'_>, rep: &mut Rep) {
    match mode {
        Mode::Traced { recorder, parent } => {
            let span = recorder.open("engine.run_for", Some(*parent));
            let (a0, b0) = alloc::totals();
            alloc::set_enabled(true);
            let t0 = Instant::now();
            built.session.run_for(d);
            rep.run_wall_s += t0.elapsed().as_secs_f64();
            alloc::set_enabled(false);
            let (a1, b1) = alloc::totals();
            recorder.close(span, 1);
            rep.traced.allocs += a1 - a0;
            rep.traced.alloc_bytes += b1 - b0;
            let depth = built
                .session
                .metrics()
                .gauges
                .get("engine/event_queue_depth")
                .copied()
                .unwrap_or(0);
            rep.traced.queue_depths.push(depth as f64);
            let ticks = d.as_millis()
                / built
                    .session
                    .engine()
                    .config()
                    .monitor_period
                    .as_millis()
                    .max(1);
            rep.traced.hot_event_ticks +=
                built.session.engine().warehouse().len() as f64 * ticks as f64;
        }
        _ => {
            let t0 = Instant::now();
            built.session.run_for(d);
            rep.run_wall_s += t0.elapsed().as_secs_f64();
        }
    }
}

/// Run one repetition of `name` from fresh state.
pub fn run_rep(
    name: &str,
    seed: u64,
    sizes: &Sizes,
    dir: &Path,
    mut mode: Mode<'_>,
) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let verify = matches!(mode, Mode::Verify);

    let t0 = Instant::now();
    let mut built = workloads::build(name, seed, sizes, dir, verify)?;
    rep.setup_s = t0.elapsed().as_secs_f64();
    rep.deploy_us = built.deploy_us;
    let before = Baseline::of(&built);

    let t0 = Instant::now();
    let outcome = if name == "edw_query" {
        query_rounds(&mut built, seed, sizes, &mut mode, &mut rep)
    } else {
        drain(&mut built, sizes, &mut mode, &mut rep)
    };
    rep.job_wall_s = t0.elapsed().as_secs_f64();
    if matches!(mode, Mode::Traced { .. }) {
        let t0 = Instant::now();
        for _ in 0..SNAPSHOT_CALLS {
            std::hint::black_box(built.session.metrics());
        }
        rep.traced.snapshot_us = t0.elapsed().as_secs_f64() * 1e6 / SNAPSHOT_CALLS as f64;
        let dataflow = workloads::flow(name);
        rep.traced.first_op_node = dataflow
            .operators()
            .next()
            .and_then(|op| built.session.engine().node_of(&dataflow.name, &op.name));
    }
    let outcome = outcome.and_then(|()| settle_and_check(name, &mut built, dir, &before, &mut rep));
    built.teardown();
    outcome.map(|()| rep)
}

/// Streaming workloads: drain the horizon one virtual minute at a time,
/// polling the subscribers between steps.
fn drain(
    built: &mut Built,
    sizes: &Sizes,
    mode: &mut Mode<'_>,
    rep: &mut Rep,
) -> Result<(), String> {
    let mut left = sizes.horizon.as_millis();
    while left > 0 {
        let d = left.min(60_000);
        left -= d;
        step(built, Duration::from_millis(d), mode, rep);
        built.poll_all()?;
    }
    Ok(())
}

/// The seeded event queries of one `edw_query` round: 8 hot-window, 4
/// cold-narrow, 2 cold-wide (the roll-up and the view read follow them).
fn round_queries(
    rng: &mut SplitMix,
    now: Timestamp,
    sizes: &Sizes,
) -> Vec<(QueryClass, EventQuery)> {
    let preload_ms = sizes.preload.as_millis();
    let wide_ms =
        preload_ms.saturating_sub((workloads::HOT_WINDOW + workloads::COLD_WIDE).as_millis());
    let mut qs = Vec::with_capacity(workloads::QUERIES_PER_ROUND);
    qs.extend((0..8).map(|i| (QueryClass::Hot, workloads::hot_query(now, i))));
    qs.extend(
        workloads::cold_narrow_queries(preload_ms)
            .into_iter()
            .map(|q| (QueryClass::ColdNarrow, q)),
    );
    qs.extend((0..2).map(|_| {
        (
            QueryClass::ColdWide,
            workloads::cold_wide_query(rng, wide_ms),
        )
    }));
    qs
}

/// The harness's own record of the warehouse, fed by the audit
/// subscription: everything stored, bucketed by minute granule so that a
/// time-bounded reference answer does not rescan the whole history.
#[derive(Default)]
struct Shadow {
    events: Vec<Event>,
    by_minute: BTreeMap<i64, Vec<usize>>,
}

impl Shadow {
    fn absorb(&mut self, fresh: Vec<Event>) {
        for e in fresh {
            let minute = TemporalGranularity::Minute.granule_of(e.time_interval().start);
            self.by_minute
                .entry(minute)
                .or_default()
                .push(self.events.len());
            self.events.push(e);
        }
    }

    /// Brute-force answer to `q` in storage order.
    fn answer(&self, q: &EventQuery) -> Vec<&Event> {
        let minute = |t: Timestamp| TemporalGranularity::Minute.granule_of(t);
        let mut hits: Vec<usize> = match &q.time {
            // Stored events are at most an hour wide; widen the candidate
            // range by that and let `matches` decide.
            Some(range) => self
                .by_minute
                .range(minute(range.start) - 61..=minute(range.end) + 1)
                .flat_map(|(_, ids)| ids.iter().copied())
                .collect(),
            None => (0..self.events.len()).collect(),
        };
        hits.sort_unstable();
        hits.into_iter()
            .map(|i| &self.events[i])
            .filter(|e| q.matches(e))
            .collect()
    }
}

/// Same events, ignoring order. Both tiers answer in storage order, but an
/// event can spill to the cold tier before an older-stored one does, so the
/// merged answer may differ from storage order by such swaps.
fn same_events(got: &[Event], want: &[&Event]) -> bool {
    if got.len() != want.len() {
        return false;
    }
    if got.iter().zip(want).all(|(a, b)| a == *b) {
        return true;
    }
    let key = |e: &Event| format!("{e:?}");
    let mut a: Vec<String> = got.iter().map(key).collect();
    let mut b: Vec<String> = want.iter().map(|e| key(e)).collect();
    a.sort_unstable();
    b.sort_unstable();
    a == b
}

fn fold_events(answers: &mut Fnv, events: &[Event]) {
    answers.u64(events.len() as u64);
    for e in events {
        answers.u64(e.tgranule as u64);
    }
}

fn fold_cells(answers: &mut Fnv, cells: &[CubeCell]) {
    answers.u64(cells.len() as u64);
    for c in cells {
        answers.u64(c.count);
    }
}

/// `edw_query`: closed loop, one client on the engine's own thread. Each
/// round ingests 30 virtual seconds and then issues the 16 queries.
fn query_rounds(
    built: &mut Built,
    seed: u64,
    sizes: &Sizes,
    mode: &mut Mode<'_>,
    rep: &mut Rep,
) -> Result<(), String> {
    let mut rng = SplitMix(seed);
    let mut answers = Fnv::default();
    let mut shadow = Shadow::default();
    let verify = matches!(mode, Mode::Verify);
    let view_queries = workloads::view_queries();
    for round in 0..sizes.rounds {
        step(
            built,
            Duration::from_secs(workloads::ROUND_STEP_S),
            mode,
            rep,
        );
        if round % 2 == 1 {
            built.poll_all()?;
        }
        if round % workloads::EVICT_EVERY == workloads::EVICT_EVERY - 1 {
            let now = built.session.engine().now();
            built
                .session
                .evict_warehouse_before(now.saturating_sub(workloads::HOT_WINDOW))
                .map_err(|e| format!("evict: {e}"))?;
        }
        if verify {
            built.poll_audit()?;
            shadow.absorb(std::mem::take(&mut built.audited));
        }
        let now = built.session.engine().now();
        for (class, q) in round_queries(&mut rng, now, sizes) {
            let t0 = Instant::now();
            let got = built.session.query_warehouse(&q);
            rep.queries.push((class, t0.elapsed().as_secs_f64() * 1e6));
            match got {
                Ok(events) => {
                    fold_events(&mut answers, &events);
                    if verify && !same_events(&events, &shadow.answer(&q)) {
                        rep.wrong_queries += 1;
                    }
                }
                Err(_) => rep.wrong_queries += 1,
            }
        }
        let cube = &view_queries[0];
        let t0 = Instant::now();
        let cells = built.session.rollup(cube);
        rep.queries
            .push((QueryClass::Rollup, t0.elapsed().as_secs_f64() * 1e6));
        fold_cells(&mut answers, &cells);
        if verify && cells != built.session.engine().warehouse().rollup_scan(cube) {
            rep.wrong_queries += 1;
        }
        let which = (round % 2) as usize;
        let t0 = Instant::now();
        let cells = built.session.view_cells(built.views[which]);
        rep.queries
            .push((QueryClass::ViewCells, t0.elapsed().as_secs_f64() * 1e6));
        match cells {
            Ok(cells) => {
                fold_cells(&mut answers, &cells);
                let want = &view_queries[which];
                if verify && cells != built.session.engine().warehouse().rollup_scan(want) {
                    rep.wrong_queries += 1;
                }
            }
            Err(_) => rep.wrong_queries += 1,
        }
    }
    rep.answers = answers.0;
    Ok(())
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// After the timed section: read the counters, let in-flight tuples land,
/// then digest the outputs and check tuple conservation hop by hop.
fn settle_and_check(
    name: &str,
    built: &mut Built,
    dir: &Path,
    before: &Baseline,
    rep: &mut Rep,
) -> Result<(), String> {
    let deployment = built.deployment.clone();
    built
        .session
        .engine_mut()
        .sync_warehouse()
        .map_err(|e| format!("sync: {e}"))?;
    if built.dir.is_some() {
        rep.disk_bytes = dir_bytes(dir);
    }
    let snap = since(built.session.metrics(), &before.snapshot);
    rep.emitted = hist_count(&snap, "engine/ev/emit_us");
    rep.fanout = counter(&snap, "cq/fanout_deltas");
    rep.dropped_deltas = counter(&snap, "cq/dropped_deltas");
    rep.virt_e2e_p99_ms = snap
        .hists
        .iter()
        .filter(|(k, _)| k.starts_with("engine/e2e/"))
        .map(|(_, h)| h.p99 as f64 / 1e3)
        .fold(0.0, f64::max);
    let net = built.session.engine().net_stats();
    rep.net_msgs = net.total_msgs() - before.net_msgs;
    rep.net_bytes = net.total_bytes() - before.net_bytes;
    rep.snapshot = snap;

    // Unplug every sensor and let what is in flight arrive.
    let ids: Vec<_> = built
        .session
        .engine()
        .broker()
        .registry()
        .all()
        .map(|ad| ad.id)
        .collect();
    for id in ids {
        built
            .session
            .remove_sensor(id)
            .map_err(|e| format!("remove sensor: {e}"))?;
    }
    built.session.run_for(SETTLE);
    built.poll_all()?;

    let engine = built.session.engine();
    let monitor = engine.monitor();
    rep.dlq = engine.dlq().total();
    let counters = |op: &str| {
        monitor
            .op(&deployment, op)
            .map_or((0, 0, 0), |c| (c.tuples_in(), c.tuples_out(), c.dropped()))
    };

    // Conservation: what a node's producers emitted is what it received (a
    // dead letter breaks this too, and counts as a failure of its own); a
    // non-blocking operator emits or drops every tuple it received.
    let dataflow = engine
        .dataflow(&deployment)
        .map_err(|e| format!("dataflow: {e}"))?;
    let is_source = |n: &str| {
        dataflow
            .node(n)
            .is_some_and(|n| matches!(n.kind, NodeKind::Source { .. }))
    };
    let mut from_sources = 0u64;
    for node in dataflow.nodes() {
        let received = match &node.kind {
            NodeKind::Source { .. } => continue,
            NodeKind::Sink { .. } => {
                let n = monitor.sink_count(&deployment, &node.name);
                rep.sunk += n;
                n
            }
            NodeKind::Operator { spec } => {
                let (received, out, dropped) = counters(&node.name);
                rep.dropped += dropped;
                if !spec.is_blocking() && received != out + dropped {
                    rep.violations.push(format!(
                        "{}: in {received} != out {out} + dropped {dropped}",
                        node.name
                    ));
                }
                received
            }
        };
        // Producer counters exist for operators only, so what arrived
        // from sources is the remainder, and is checked in total below.
        let produced: u64 = node
            .inputs
            .iter()
            .filter(|i| !is_source(i))
            .map(|i| counters(i).1)
            .sum();
        if node.inputs.iter().any(|i| is_source(i)) {
            from_sources += received.saturating_sub(produced);
        } else if received != produced {
            rep.violations.push(format!(
                "{}: received {received} != produced upstream {produced}",
                node.name
            ));
        }
    }
    let delivered = counters("~sources").0;
    if from_sources != delivered {
        rep.violations.push(format!(
            "sources delivered {delivered} but first-hop nodes received {from_sources}"
        ));
    }
    if name.starts_with("chain") && delivered != rep.emitted {
        rep.violations.push(format!(
            "emitted {} != delivered {delivered} (every chain sensor is bound once)",
            rep.emitted
        ));
    }

    let mut digest = Fnv::default();
    for (key, c) in monitor.all_ops() {
        if key.0 == deployment {
            digest.bytes(key.1.as_bytes());
            digest.u64(c.tuples_in());
            digest.u64(c.tuples_out());
            digest.u64(c.dropped());
        }
    }
    for node in dataflow.sinks() {
        digest.u64(monitor.sink_count(&deployment, &node.name));
    }
    for line in &monitor.console {
        digest.bytes(line.as_bytes());
    }
    let mut reasons: Vec<(String, u64)> = engine
        .dlq()
        .by_reason()
        .map(|(r, n)| (r.metric_key(), n))
        .collect();
    reasons.sort();
    for (reason, n) in reasons {
        digest.bytes(reason.as_bytes());
        digest.u64(n);
    }
    let stored = built
        .session
        .query_warehouse(&EventQuery::all())
        .map_err(|e| format!("read back warehouse: {e}"))?;
    digest.u64(stored.len() as u64);
    for event in stored {
        digest.bytes(&Record::Event(event).encode());
    }
    rep.digest = digest.0;
    Ok(())
}
