//! The monitor module.
//!
//! "We are able to report on the Web Interface the number of tuples that
//! each operation handle per second, the node that suffers because of high
//! workload, which node is in charge of executing an operation and when the
//! assignment changes" (paper §3, Figure 3). [`Monitor`] is the collection
//! point for all of it: its logs and histories, and the engine's endpoint
//! table, whose records carry each operator's counters and each sink's
//! total beside what they count.

use crate::config::CONSOLE_CAPACITY;
use crate::deployment::Endpoint;
use crate::engine::DeadTuple;
use crate::overload::IngressState;
use sl_faults::DeadLetterQueue;
use sl_netsim::{NodeId, TimeSeries};
use sl_obs::{Counter, Histogram, MetricsSnapshot};
use sl_ops::ControlAction;
use sl_stt::Timestamp;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Deref;

/// Per-operator instruments, built on `sl-obs` primitives; each lives on
/// its operator's endpoint record (`Endpoint::counters`).
///
/// The tuple counters are [`Counter`]s (monotonic); read them through the
/// accessor methods ([`OpCounters::tuples_in`] etc.), which return plain
/// `u64`s, and let the engine feed them through the `record_*`/`add_*`
/// mutators.
#[derive(Debug, Default, Clone)]
pub struct OpCounters {
    tuples_in: Counter,
    tuples_out: Counter,
    dropped: Counter,
    in_at_last_sample: u64,
    /// Sampled input rate in tuples/sec.
    pub rate_series: TimeSeries,
    /// Per-tuple processing latency (wall-clock microseconds).
    pub proc_latency: Histogram,
    /// The operator's ingress queue. Its `depth` is the tuples currently
    /// in flight *towards this operator* (scheduled deliveries not yet
    /// processed) — attributed per operator rather than per engine, so a
    /// backed-up service is visible in the report.
    pub ingress: IngressState,
}

impl OpCounters {
    /// Count one received tuple.
    pub fn record_in(&mut self) {
        self.tuples_in.inc();
    }

    /// Count `n` emitted tuples.
    pub fn add_out(&mut self, n: u64) {
        self.tuples_out.add(n);
    }

    /// Count `n` consciously dropped (filtered/culled) tuples.
    pub fn add_dropped(&mut self, n: u64) {
        self.dropped.add(n);
    }

    /// Tuples received.
    pub fn tuples_in(&self) -> u64 {
        self.tuples_in.get()
    }

    /// Tuples emitted.
    pub fn tuples_out(&self) -> u64 {
        self.tuples_out.get()
    }

    /// Tuples consciously dropped (filtered/culled).
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Sample the input rate at `now`, `elapsed_secs` after the last
    /// sample: the tuples received since, per second. A zero interval
    /// samples nothing.
    pub(crate) fn sample_rate(&mut self, now: Timestamp, elapsed_secs: f64) {
        if elapsed_secs <= 0.0 {
            return;
        }
        let tuples_in = self.tuples_in.get();
        let delta = tuples_in - self.in_at_last_sample;
        self.in_at_last_sample = tuples_in;
        self.rate_series.push(now, delta as f64 / elapsed_secs);
    }
}

/// One operator (or source/sink) re-assignment event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementChange {
    /// When it happened.
    pub at: Timestamp,
    /// Deployment name.
    pub deployment: String,
    /// Operator name.
    pub operator: String,
    /// Node it left (None at initial placement).
    pub from: Option<NodeId>,
    /// Node it moved to.
    pub to: NodeId,
    /// Why ("initial placement", "migration: node overloaded", ...).
    pub reason: String,
}

/// A fired control action, logged.
#[derive(Debug, Clone)]
pub struct ControlRecord {
    /// When it fired.
    pub at: Timestamp,
    /// Deployment name.
    pub deployment: String,
    /// The trigger operator.
    pub operator: String,
    /// What it did.
    pub action: ControlAction,
}

/// A monitor log that keeps at least its last [`CONSOLE_CAPACITY`] entries:
/// at twice that the older half goes, so an entry costs amortised O(1) and
/// a run of any length holds a bounded log. Reads as a slice, oldest first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log<T = String>(Vec<T>);

impl<T> Default for Log<T> {
    fn default() -> Self {
        Log(Vec::new())
    }
}

impl<T> Log<T> {
    /// Append an entry, first dropping all but the newest
    /// [`CONSOLE_CAPACITY`] if the log is full.
    pub fn push(&mut self, entry: T) {
        if self.0.len() >= 2 * CONSOLE_CAPACITY {
            self.0.drain(..self.0.len() - CONSOLE_CAPACITY);
        }
        self.0.push(entry);
    }
}

impl<T> Deref for Log<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.0
    }
}

impl<'a, T> IntoIterator for &'a Log<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// The monitor: the endpoint records and the logs of every deployment.
#[derive(Default)]
pub struct Monitor {
    /// One record per service, sink or deployment's `~sources` ever
    /// deployed, indexed by [`EndpointId`](crate::EndpointId); `undeploy`
    /// retires a record, nothing reuses its id. The engine drives them; the
    /// monitor reads their instruments.
    pub(crate) endpoints: Vec<Endpoint>,
    /// Placement history, oldest first (a bounded [`Log`], like every log
    /// below).
    pub placements: Log<PlacementChange>,
    /// Control-action history.
    pub controls: Log<ControlRecord>,
    /// Console-sink output and the engine's warnings and errors. The
    /// engine stops console-sink lines at [`CONSOLE_CAPACITY`].
    pub console: Log,
    /// Sensor join/leave log lines.
    pub membership: Log,
    /// Fault-recovery log lines (dead letters, crash recoveries, liveness
    /// expiries, ...).
    pub recovery: Log,
    /// Durability log lines (log recovery, torn-tail truncation, window
    /// caches restored from persisted checkpoints).
    pub durability: Log,
    /// Per-shard execution stats (empty while running sequentially).
    pub shards: BTreeMap<usize, ShardStat>,
    /// Total shard jobs executed by a non-home worker (work stealing).
    pub steals: u64,
    /// Overload-control log lines (credit revocations, breaker state
    /// transitions, burst actuations, backlog migrations).
    pub pressure: Log,
    /// Terminally undeliverable tuples, classified by drop reason. Its
    /// per-reason counters are the only dead-letter totals: the report and
    /// the `dlq/*` metrics are read off them.
    pub(crate) dlq: DeadLetterQueue<DeadTuple>,
    /// Continuous-query log lines (retention evictions, subscribers
    /// falling behind / catching up).
    pub continuous: Log,
    /// Continuous-query liveness per registration, keyed by handle
    /// (`s<n>` for subscriptions, `v<n>` for views); refreshed each
    /// monitor sample while anything is registered.
    pub cq: BTreeMap<String, CqStat>,
}

/// Liveness of one continuous-query registration.
#[derive(Debug, Default, Clone)]
pub struct CqStat {
    /// What it is (`subscription '<name>'` or `view '<name>'`).
    pub kind: String,
    /// Deltas queued, awaiting a poll (subscriptions).
    pub depth: usize,
    /// Deltas drained so far (subscriptions).
    pub delivered: u64,
    /// Deltas lost to shedding or lag (subscriptions).
    pub dropped: u64,
    /// True if awaiting snapshot catch-up (subscriptions).
    pub lagged: bool,
    /// Live roll-up cells (views).
    pub cells: usize,
    /// Contributions currently held (views).
    pub contributions: usize,
}

/// Execution stats for one shard of the parallel worker pool.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShardStat {
    /// Jobs dispatched with this shard as home.
    pub batches: u64,
    /// Tuples processed across those jobs.
    pub tuples: u64,
    /// Jobs stolen off this shard's queue by another worker.
    pub stolen: u64,
}

impl Monitor {
    /// Fresh monitor.
    pub fn new() -> Monitor {
        Monitor::default()
    }

    /// Fresh monitor whose dead-letter queue retains at most `capacity`
    /// entries.
    pub(crate) fn with_dlq_capacity(capacity: usize) -> Monitor {
        Monitor {
            dlq: DeadLetterQueue::new(capacity),
            ..Monitor::default()
        }
    }

    /// The record holding `(deployment, name)`'s instruments: the newest of
    /// that name, which took its retired namesake's over when it was minted.
    fn record(&self, deployment: &str, name: &str) -> Option<&Endpoint> {
        let names = |ep: &&Endpoint| ep.names.0 == deployment && ep.names.1 == name;
        self.endpoints.iter().rev().find(names)
    }

    /// Read-only counters, if the operator has had a tuple or a tick.
    pub fn op(&self, deployment: &str, operator: &str) -> Option<&OpCounters> {
        self.record(deployment, operator)?.counters.as_ref()
    }

    /// All per-operator counters, in `(deployment, operator)` order.
    pub fn all_ops(&self) -> impl Iterator<Item = (&(String, String), &OpCounters)> {
        self.by_name(|ep| ep.counters.as_ref())
    }

    /// What `read` finds on each record, in `(deployment, name)` order.
    fn by_name<'a, T>(
        &'a self,
        read: impl Fn(&'a Endpoint) -> Option<T>,
    ) -> impl Iterator<Item = (&'a (String, String), T)> {
        let mut rows: Vec<_> = (self.endpoints.iter())
            .filter_map(|ep| Some((&ep.names, read(ep)?)))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(b.0));
        rows.into_iter()
    }

    /// Sample every operator's input rate at `now`, `elapsed_secs` after
    /// the last sample (retired ones too, whose rate is 0).
    pub(crate) fn sample_rates(&mut self, now: Timestamp, elapsed_secs: f64) {
        for c in self.endpoints.iter_mut().flat_map(|ep| &mut ep.counters) {
            c.sample_rate(now, elapsed_secs);
        }
    }

    /// Tuples delivered to a sink so far: its end-to-end latency count.
    pub fn sink_count(&self, deployment: &str, sink: &str) -> u64 {
        self.record(deployment, sink).map_or(0, |ep| ep.e2e.count())
    }

    /// Every sink that had a tuple, with its total, in `(deployment, sink)`
    /// order.
    fn sinks(&self) -> impl Iterator<Item = (&(String, String), u64)> {
        self.by_name(|ep| (!ep.e2e.is_empty()).then(|| ep.e2e.count()))
    }

    /// Render the Figure 3 style report: per-operator rates, sink totals,
    /// recent placement changes and control actions.
    pub fn report(&self, now: Timestamp) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "monitor @ {now}");
        let _ = writeln!(out, "  operators:");
        for ((dep, op), c) in self.all_ops() {
            let rate = c.rate_series.last().map_or(0.0, |(_, r)| r);
            let mut line = format!(
                "    {dep}/{op}: in={} out={} dropped={} rate={rate:.1} tuples/s",
                c.tuples_in(),
                c.tuples_out(),
                c.dropped()
            );
            if !c.proc_latency.is_empty() {
                let _ = write!(
                    line,
                    " p50={}us p95={}us p99={}us",
                    c.proc_latency.p50().unwrap_or(0),
                    c.proc_latency.p95().unwrap_or(0),
                    c.proc_latency.p99().unwrap_or(0)
                );
            }
            let _ = write!(line, " depth={}", c.ingress.depth);
            let _ = writeln!(out, "{line}");
        }
        let _ = writeln!(out, "  sinks:");
        for ((dep, sink), n) in self.sinks() {
            let _ = writeln!(out, "    {dep}/{sink}: {n} tuples");
        }
        if !self.placements.is_empty() {
            let _ = writeln!(out, "  placements (last 10):");
            for p in self.placements.iter().rev().take(10).rev() {
                let from = p.from.map_or("-".to_string(), |n| n.to_string());
                let _ = writeln!(
                    out,
                    "    [{}] {}/{}: {} -> {} ({})",
                    p.at, p.deployment, p.operator, from, p.to, p.reason
                );
            }
        }
        if !self.controls.is_empty() {
            let _ = writeln!(out, "  control actions (last 10):");
            for c in self.controls.iter().rev().take(10).rev() {
                let verb = if c.action.is_activate() {
                    "ACTIVATE"
                } else {
                    "DEACTIVATE"
                };
                let _ = writeln!(
                    out,
                    "    [{}] {}/{} {} {:?}",
                    c.at,
                    c.deployment,
                    c.operator,
                    verb,
                    c.action.targets()
                );
            }
        }
        if !self.recovery.is_empty() {
            let _ = writeln!(out, "  recovery events (last 10):");
            for line in self.recovery.iter().rev().take(10).rev() {
                let _ = writeln!(out, "    {line}");
            }
        }
        if !self.durability.is_empty() {
            let _ = writeln!(out, "  durability (last 10):");
            for line in self.durability.iter().rev().take(10).rev() {
                let _ = writeln!(out, "    {line}");
            }
        }
        if !self.shards.is_empty() {
            let _ = writeln!(out, "  execution shards (steals={}):", self.steals);
            for (shard, s) in &self.shards {
                let _ = writeln!(
                    out,
                    "    shard#{shard}: batches={} tuples={} stolen={}",
                    s.batches, s.tuples, s.stolen
                );
            }
        }
        if !self.pressure.is_empty() {
            let _ = writeln!(out, "  pressure (last 10):");
            for line in self.pressure.iter().rev().take(10).rev() {
                let _ = writeln!(out, "    {line}");
            }
        }
        let dead_letters = self.dead_letter_totals();
        if !dead_letters.is_empty() {
            let _ = writeln!(out, "  dead letters:");
            for (reason, n) in &dead_letters {
                let _ = writeln!(out, "    {reason}: {n}");
            }
        }
        if !self.cq.is_empty() {
            let _ = writeln!(out, "  continuous queries:");
            for (id, s) in &self.cq {
                if s.kind.starts_with("view") {
                    let _ = writeln!(
                        out,
                        "    {id} {}: cells={} contributions={}",
                        s.kind, s.cells, s.contributions
                    );
                } else {
                    let lag = if s.lagged { " LAGGED" } else { "" };
                    let _ = writeln!(
                        out,
                        "    {id} {}: depth={} delivered={} dropped={}{lag}",
                        s.kind, s.depth, s.delivered, s.dropped
                    );
                }
            }
        }
        if !self.continuous.is_empty() {
            let _ = writeln!(out, "  continuous-query events (last 10):");
            for line in self.continuous.iter().rev().take(10).rev() {
                let _ = writeln!(out, "    {line}");
            }
        }
        out
    }

    /// Freeze per-operator counters, latency histograms, and sink totals
    /// into an exportable [`MetricsSnapshot`] (keys are
    /// `deployment/operator/<metric>`).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for ((dep, op), c) in self.all_ops() {
            snap.counters
                .insert(format!("{dep}/{op}/tuples_in"), c.tuples_in());
            snap.counters
                .insert(format!("{dep}/{op}/tuples_out"), c.tuples_out());
            snap.counters
                .insert(format!("{dep}/{op}/dropped"), c.dropped());
            c.proc_latency
                .put_into(&mut snap, &format!("{dep}/{op}/proc_us"));
            snap.gauges
                .insert(format!("{dep}/{op}/queue_depth"), c.ingress.depth as i64);
        }
        for ((dep, sink), n) in self.sinks() {
            snap.counters.insert(format!("{dep}/{sink}/sink_tuples"), n);
        }
        snap
    }

    /// Lifetime dead-letter totals by detailed reason (`no_route`,
    /// `shed/oldest/d/hot`, ...), evicted entries included.
    fn dead_letter_totals(&self) -> BTreeMap<String, u64> {
        self.dlq
            .by_reason()
            .map(|(reason, n)| (reason.metric_key(), n))
            .collect()
    }

    /// The dead-letter queue's instruments, rendered from it now:
    /// `dlq/<reason>` totals, the `backpressure/shed` total and the
    /// `dlq/depth` gauge, each present once it is non-zero.
    pub(crate) fn dlq_metrics(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        for (reason, n) in self.dead_letter_totals() {
            snap.counters.insert(format!("dlq/{reason}"), n);
        }
        let shed = self.dlq.shed_total();
        if shed > 0 {
            snap.counters.insert("backpressure/shed".into(), shed);
        }
        let depth = self.dlq.depth();
        if depth > 0 {
            snap.gauges.insert("dlq/depth".into(), depth as i64);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deployment::Role;
    use sl_faults::{DropReason, ShedPolicy};

    impl Monitor {
        /// Conservation check: for every operator, `in = out + dropped + cached`
        /// cannot be verified without cache sizes, but `out + dropped <= in` must
        /// hold for non-generating unary operators. Returns violating operators.
        /// (Join and Aggregation legitimately emit ≠ input counts; the engine
        /// passes only pass-through operators here.)
        pub(crate) fn conservation_violations(
            &self,
            passthrough_ops: &[(String, String)],
        ) -> Vec<String> {
            let mut bad = Vec::new();
            for key in passthrough_ops {
                if let Some(c) = self.op(&key.0, &key.1) {
                    if c.tuples_out() + c.dropped() > c.tuples_in() {
                        bad.push(format!(
                            "{}/{}: out {} + dropped {} > in {}",
                            key.0,
                            key.1,
                            c.tuples_out(),
                            c.dropped(),
                            c.tuples_in()
                        ));
                    }
                }
            }
            bad
        }
    }

    fn shed(policy: ShedPolicy) -> DropReason {
        DropReason::Shed {
            policy,
            operator: "d/hot".into(),
        }
    }

    /// Counters that have seen `tuples_in`, `tuples_out` and `dropped`.
    fn counters(tuples_in: u64, tuples_out: u64, dropped: u64) -> OpCounters {
        let mut c = OpCounters::default();
        c.tuples_in.add(tuples_in);
        c.add_out(tuples_out);
        c.add_dropped(dropped);
        c
    }

    /// A retired record of `d/<name>` holding `counters`.
    fn op(name: &str, counters: OpCounters) -> Endpoint {
        Endpoint {
            names: ("d".into(), name.into()),
            node: NodeId(0),
            role: Role::Retired,
            breaker: None,
            counters: Some(counters),
            e2e: Histogram::new(),
        }
    }

    /// A monitor over `endpoints`.
    fn monitor(endpoints: Vec<Endpoint>) -> Monitor {
        Monitor {
            endpoints,
            ..Monitor::default()
        }
    }

    /// A retired record of sink `d/<name>` that `arrivals` tuples reached.
    fn sink(name: &str, arrivals: u64) -> Endpoint {
        let mut ep = op(name, OpCounters::default());
        ep.counters = None;
        for _ in 0..arrivals {
            ep.e2e.record(1_000);
        }
        ep
    }

    #[test]
    fn counters_and_rates() {
        let mut c = counters(100, 70, 30);
        c.sample_rate(Timestamp::from_secs(1), 1.0);
        assert_eq!(c.rate_series.last().unwrap().1, 100.0);
        // Second window with 50 more tuples.
        c.tuples_in.add(50);
        c.sample_rate(Timestamp::from_secs(2), 1.0);
        assert_eq!(c.rate_series.last().unwrap().1, 50.0);
        // Zero elapsed: no sample.
        c.sample_rate(Timestamp::from_secs(2), 0.0);
        assert_eq!(c.rate_series.len(), 2);
    }

    #[test]
    fn conservation_detects_violations() {
        let m = monitor(vec![
            op("ok", counters(10, 7, 3)),
            op("bad", counters(5, 9, 0)),
        ]);
        let keys = vec![
            ("d".to_string(), "ok".to_string()),
            ("d".to_string(), "bad".to_string()),
        ];
        let violations = m.conservation_violations(&keys);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("bad"));
    }

    #[test]
    fn sink_counts_accumulate() {
        let m = monitor(vec![sink("edw", 2)]);
        assert_eq!(m.sink_count("d", "edw"), 2);
        assert_eq!(m.sink_count("d", "other"), 0);
    }

    #[test]
    fn the_newest_namesake_holds_the_counters_and_ops_list_in_name_order() {
        // A namesake took the older `f`'s counters over when it was minted.
        let mut taken = op("f", OpCounters::default());
        taken.counters = None;
        let m = monitor(vec![
            op("z", counters(1, 1, 0)),
            taken,
            op("a", counters(2, 2, 0)),
            op("f", counters(3, 3, 0)),
        ]);
        assert_eq!(m.op("d", "f").unwrap().tuples_in(), 3);
        assert!(m.op("d", "g").is_none());
        let names: Vec<_> = m.all_ops().map(|(names, _)| names.1.as_str()).collect();
        assert_eq!(names, ["a", "f", "z"]);
    }

    #[test]
    fn report_mentions_everything() {
        let mut m = monitor(vec![op("f", counters(5, 0, 0)), sink("edw", 1)]);
        m.placements.push(PlacementChange {
            at: Timestamp::from_secs(1),
            deployment: "d".into(),
            operator: "f".into(),
            from: None,
            to: NodeId(2),
            reason: "initial placement".into(),
        });
        m.controls.push(ControlRecord {
            at: Timestamp::from_secs(2),
            deployment: "d".into(),
            operator: "trig".into(),
            action: ControlAction::Activate {
                targets: vec!["rain".into()],
            },
        });
        let r = m.report(Timestamp::from_secs(3));
        assert!(r.contains("d/f: in=5"));
        assert!(r.contains("d/edw: 1 tuples"));
        assert!(r.contains("node#2"));
        assert!(r.contains("ACTIVATE"));
    }

    #[test]
    fn report_shows_latency_percentiles_when_recorded() {
        let mut c = OpCounters::default();
        c.record_in();
        c.proc_latency.record(100);
        let m = monitor(vec![op("f", c)]);
        let r = m.report(Timestamp::from_secs(1));
        assert!(r.contains("p50=100us p95=100us p99=100us"), "{r}");
    }

    #[test]
    fn sampled_rates_match_tuples_in_deltas() {
        // Regression: the rate series must always reproduce the deltas of
        // the tuples_in counter, whatever the increment pattern.
        let mut c = OpCounters::default();
        let increments: [u64; 5] = [10, 0, 37, 1, 250];
        let mut expected_total = 0u64;
        for (i, inc) in increments.iter().enumerate() {
            c.tuples_in.add(*inc);
            expected_total += inc;
            c.sample_rate(Timestamp::from_secs((i + 1) as i64), 2.0);
            assert_eq!(c.rate_series.last().unwrap().1, *inc as f64 / 2.0);
            assert_eq!(c.tuples_in(), expected_total);
        }
        // Sum of (rate * elapsed) over all windows reproduces the counter.
        let reconstructed: f64 = c.rate_series.iter().map(|(_, r)| r * 2.0).sum();
        assert_eq!(reconstructed as u64, c.tuples_in());
    }

    #[test]
    fn report_shows_pressure_and_dead_letters() {
        let mut m = Monitor::new();
        m.pressure
            .push("[1970-01-01] credit revoked for sensor 'rain'".into());
        for _ in 0..3 {
            m.dlq.note(shed(ShedPolicy::Oldest));
        }
        m.dlq.note(DropReason::NoRoute);
        m.dlq.note(DropReason::BreakerOpen);
        let r = m.report(Timestamp::from_secs(1));
        assert!(r.contains("pressure (last 10):"), "{r}");
        assert!(r.contains("credit revoked for sensor 'rain'"), "{r}");
        assert!(r.contains("shed/oldest/d/hot: 3"), "{r}");
        assert!(r.contains("no_route: 1"), "{r}");
        // Lines come in metric-key order, not in the reasons' order.
        let at = |line: &str| r.find(line).unwrap();
        assert!(at("breaker_open: 1") < at("no_route: 1"), "{r}");
        assert!(at("no_route: 1") < at("shed/oldest/d/hot: 3"), "{r}");
        // Empty sections are omitted entirely.
        let empty = Monitor::new().report(Timestamp::from_secs(1));
        assert!(!empty.contains("pressure"));
        assert!(!empty.contains("dead letters"));
    }

    #[test]
    fn metrics_snapshot_exports_dead_letter_taxonomy() {
        let mut m = Monitor::new();
        m.dlq.note(shed(ShedPolicy::Priority));
        m.dlq.note(shed(ShedPolicy::Priority));
        let snap = m.dlq_metrics();
        assert_eq!(snap.counters["dlq/shed/priority/d/hot"], 2);
        assert_eq!(snap.counters["backpressure/shed"], 2);
        // Nothing is retained, so there is no depth to report.
        assert!(snap.gauges.is_empty());
        // Each total is exported once: not again beside the operators.
        assert!(m.metrics_snapshot().counters.is_empty());
    }

    #[test]
    fn metrics_snapshot_exports_ops_and_sinks() {
        let mut c = counters(4, 3, 1);
        c.proc_latency.record(50);
        let m = monitor(vec![op("f", c), sink("edw", 1)]);
        let snap = m.metrics_snapshot();
        assert_eq!(snap.counters["d/f/tuples_in"], 4);
        assert_eq!(snap.counters["d/f/tuples_out"], 3);
        assert_eq!(snap.counters["d/f/dropped"], 1);
        assert_eq!(snap.counters["d/edw/sink_tuples"], 1);
        assert_eq!(snap.hists["d/f/proc_us"].count, 1);
        assert_eq!(snap.gauges["d/f/queue_depth"], 0);
    }
}
