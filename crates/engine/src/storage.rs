//! Loading: the Event Data Warehouse, the continuous queries fed from it,
//! and the blocking-operator checkpoints logged beside it (paper §3: the
//! third concern the engine coordinates, after acquisition and execution).
//!
//! [`Storage`] holds the backend — plain in-memory indexes, or the
//! crash-safe tier from `sl-durable` — and the [`CqHub`], both private to
//! this module. That makes three rules this module's invariant instead of a
//! convention of its callers: the hub sees exactly the events the hot store
//! accepted ([`Engine::store`] is the only ingest), views retract under the
//! horizon the hot store evicts under ([`Engine::evict_warehouse_before`]
//! is the only eviction), and a view registered late is seeded from the hot
//! store ([`Engine::register_view`]).

use crate::config::{EngineConfig, OverflowPolicy, WAREHOUSE_SGRAN, WAREHOUSE_TGRAN};
use crate::deployment::{EndpointId, Role};
use crate::engine::Engine;
use crate::error::EngineError;
use crate::instruments::EngineInstruments;
use crate::monitor::{CqStat, Log};
use sl_cq::{CqHub, CqPoll, SubscriberId, SubscriptionStat, ViewId, ViewStat};
use sl_durable::{CompactionStats, DurableConfig, DurableError, DurableWarehouse};
use sl_faults::DropReason;
use sl_netsim::Topology;
use sl_obs::MetricsSnapshot;
use sl_ops::{CheckpointDelta, OpCheckpoint, Operator};
use sl_stt::{Event, Timestamp, Tuple};
use sl_warehouse::{CubeCell, CubeQuery, EventQuery, EventWarehouse};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The Event Data Warehouse backend. Either way the hot [`EventWarehouse`]
/// is reachable, so the read-side API is identical.
enum WarehouseTier {
    Memory(Box<EventWarehouse>),
    Durable(Box<DurableWarehouse>),
}

/// Everything the engine stores: the warehouse, the continuous queries over
/// it, and the checkpoints recovered from its log.
pub(crate) struct Storage {
    tier: WarehouseTier,
    /// Standing subscriptions and materialized views, fed inline by the
    /// ingest path. Idle (and free) until the first registration.
    cq: CqHub,
    /// The monitor tick renders each registration's row key into this one
    /// buffer to look its row up.
    row_key: String,
    /// Blocking-operator windows [`Engine::open_durable`] folded out of the
    /// log, keyed (deployment, service), until that deployment's `deploy()`
    /// copies them onto its service records.
    pub(crate) staged: HashMap<(String, String), OpCheckpoint>,
}

impl Storage {
    /// An empty in-memory warehouse with nothing registered.
    pub(crate) fn memory() -> Storage {
        Storage {
            tier: WarehouseTier::Memory(Box::new(EventWarehouse::with_defaults())),
            cq: CqHub::new(),
            row_key: String::new(),
            staged: HashMap::new(),
        }
    }

    fn hot(&self) -> &EventWarehouse {
        match &self.tier {
            WarehouseTier::Memory(w) => w,
            WarehouseTier::Durable(d) => d.hot(),
        }
    }

    fn durable_mut(&mut self) -> Option<&mut DurableWarehouse> {
        match &mut self.tier {
            WarehouseTier::Memory(_) => None,
            WarehouseTier::Durable(d) => Some(d),
        }
    }

    /// Extend the checkpoint log of the plain `(deployment, service)` names
    /// on the durable tier by `delta`, so a restarted process can restore
    /// the window cache at deploy time (an empty base supersedes what the
    /// log held). The in-memory tier logs nothing. A failure is a console
    /// line, not an error, and returns `false` after closing the key's log
    /// with an empty base: a restart then finds an empty window, not an
    /// older one with the later deltas but not this one folded on.
    pub(crate) fn log_checkpoint(
        &mut self,
        console: &mut Log,
        verb: &str,
        deployment: &str,
        service: &str,
        delta: &CheckpointDelta,
    ) -> bool {
        let Some(d) = self.durable_mut() else {
            return true;
        };
        let Err(e) = d.persist_checkpoint(deployment, service, delta) else {
            return true;
        };
        console.push(format!(
            "error: {verb} checkpoint {deployment}/{service}: {e}"
        ));
        let empty_base = CheckpointDelta {
            reset: true,
            ..CheckpointDelta::default()
        };
        if let Err(e) = d.persist_checkpoint(deployment, service, &empty_base) {
            console.push(format!(
                "error: clearing checkpoint {deployment}/{service}: {e}"
            ));
        }
        false
    }
}

/// Re-seed `op`'s window cache from `ckpt` (an empty one wipes it) and
/// count what came back; returns the `N tuples, B B` of the caller's log
/// line.
pub(crate) fn restore_window(
    inst: &mut EngineInstruments,
    op: &mut dyn Operator,
    ckpt: OpCheckpoint,
) -> String {
    let (n_tuples, n_bytes) = (ckpt.len(), ckpt.byte_size());
    op.restore(ckpt);
    inst.checkpoint_restored_tuples.add(n_tuples as u64);
    inst.checkpoint_restored_bytes.add(n_bytes as u64);
    format!("{n_tuples} tuples, {n_bytes} B")
}

/// True if `key` is the monitor key of a registration in `subs` or
/// `views`, each in id order as the hub lists them.
fn is_registered(key: &str, subs: &[SubscriptionStat<'_>], views: &[ViewStat<'_>]) -> bool {
    let id = |prefix: char| -> Option<u64> { key.strip_prefix(prefix)?.parse().ok() };
    id('s').is_some_and(|n| subs.binary_search_by_key(&n, |s| s.id.0).is_ok())
        || id('v').is_some_and(|n| views.binary_search_by_key(&n, |v| v.id.0).is_ok())
}

impl Engine {
    /// Create an engine whose Event Data Warehouse persists to the segment
    /// log at `durable.dir`, recovering whatever a previous incarnation
    /// left there: hot indexes are rebuilt from the non-evicted log tail,
    /// and blocking-operator checkpoints are staged so the next
    /// [`Engine::deploy`] of the same dataflow restores their window
    /// caches. A torn log tail (crash mid-write) is truncated, surfaced in
    /// the monitor's durability section, and accounted in the DLQ under
    /// [`DropReason::TornTail`].
    pub fn open_durable(
        topology: Topology,
        config: EngineConfig,
        start: Timestamp,
        durable: DurableConfig,
    ) -> Result<Engine, EngineError> {
        let mut engine = Engine::new(topology, config, start);
        let mut dw = DurableWarehouse::open(durable)?;
        let report = dw.recovery_report();
        let recovered = dw.take_checkpoints();
        engine.monitor.durability.push(format!(
            "[{start}] opened durable warehouse: {} events hot, {} checkpoints staged, {} segments",
            dw.hot().len(),
            recovered.len(),
            dw.segment_count()
        ));
        if report.lossy() {
            // The torn tail held records that were appended but never made
            // stable; they are gone by design (only fsynced bytes are
            // promised). Account the loss in the drop taxonomy.
            engine.monitor.dlq.note(DropReason::TornTail);
            engine.monitor.durability.push(format!(
                "[{start}] recovery truncated a torn tail: {} bytes, {} segments dropped",
                report.truncated_bytes, report.dropped_segments
            ));
            engine.monitor.recovery.push(format!(
                "[{start}] durable log: torn tail truncated ({} bytes)",
                report.truncated_bytes
            ));
        }
        engine.storage.staged = recovered;
        engine.storage.tier = WarehouseTier::Durable(Box::new(dw));
        Ok(engine)
    }

    /// The Event Data Warehouse (the hot in-memory view under either
    /// backend).
    pub fn warehouse(&self) -> &EventWarehouse {
        self.storage.hot()
    }

    /// Mutable warehouse access (for queries, which update stats). With a
    /// durable backend this is the *hot* tier only; prefer
    /// [`Engine::query_warehouse`] and [`Engine::evict_warehouse_before`],
    /// which include the cold segments and spill instead of discarding.
    pub fn warehouse_mut(&mut self) -> &mut EventWarehouse {
        match &mut self.storage.tier {
            WarehouseTier::Memory(w) => w,
            WarehouseTier::Durable(d) => d.hot_mut(),
        }
    }

    /// The durable warehouse, when the engine was created with
    /// [`Engine::open_durable`].
    pub fn durable_warehouse(&self) -> Option<&DurableWarehouse> {
        match &self.storage.tier {
            WarehouseTier::Memory(_) => None,
            WarehouseTier::Durable(d) => Some(d),
        }
    }

    /// Load a tuple that reached warehouse sink `sink`. It is translated to
    /// events once, and the batch is never copied: when anything is
    /// registered, the continuous-query hub reads it in place (delta
    /// evaluation, no rescans) before it moves into the hot store. A
    /// durable ingest is log-first and shows the hub the batch only once
    /// the log holds all of it; an I/O failure loses this tuple's events
    /// without tearing down the run — the hub is then not fed either, so
    /// views stay byte-identical to a rescan.
    pub(crate) fn store(&mut self, now: Timestamp, sink: EndpointId, tuple: &Tuple) {
        let events = sl_warehouse::tuple_events(tuple, WAREHOUSE_TGRAN, WAREHOUSE_SGRAN);
        let Storage { tier, cq, .. } = &mut self.storage;
        let mut feed = |batch: &[Event]| {
            if !cq.is_idle() {
                cq.on_events(batch);
            }
        };
        let stored = match tier {
            WarehouseTier::Memory(w) => {
                feed(&events);
                w.ingest_events(events);
                Ok(())
            }
            WarehouseTier::Durable(d) => d.ingest_events_with(events, feed).map(drop),
        };
        if let Err(e) = stored {
            let (deployment, target) = &self.monitor.endpoints[sink.index()].names;
            self.monitor.console.push(format!(
                "[{now}] error: {deployment}/{target}: durable ingest: {e}"
            ));
        }
    }

    /// Answer an [`EventQuery`] against the full warehouse: hot indexes
    /// only for the in-memory backend, hot merged with the cold segment
    /// scan for the durable one.
    pub fn query_warehouse(&mut self, q: &EventQuery) -> Result<Vec<Event>, EngineError> {
        match &mut self.storage.tier {
            WarehouseTier::Memory(w) => Ok(w.query(q).into_iter().cloned().collect()),
            WarehouseTier::Durable(d) => Ok(d.query(q)?),
        }
    }

    /// Apply the retention horizon: the in-memory backend discards events
    /// older than `horizon`, the durable backend spills them to cold
    /// segments (they remain queryable). Materialized views mirror the hot
    /// tier, so they retract the evicted events' contributions under the
    /// same horizon predicate. Returns how many events left the hot indexes.
    pub fn evict_warehouse_before(&mut self, horizon: Timestamp) -> Result<usize, EngineError> {
        let evicted = match &mut self.storage.tier {
            WarehouseTier::Memory(w) => w.evict_before(horizon),
            WarehouseTier::Durable(d) => d.evict_before(horizon)?,
        };
        if !self.storage.cq.is_idle() {
            self.storage.cq.on_evict(horizon);
        }
        Ok(evicted)
    }

    /// Force all durable-log appends onto stable storage (no-op for the
    /// in-memory backend).
    pub fn sync_warehouse(&mut self) -> Result<(), EngineError> {
        match self.storage.durable_mut() {
            Some(d) => Ok(d.sync()?),
            None => Ok(()),
        }
    }

    /// True when the durable backend's compaction policy is enabled (always
    /// false for the in-memory backend). Drives the monitor-tick
    /// maintenance step and lint SL092's deployment model.
    pub fn compaction_enabled(&self) -> bool {
        self.durable_warehouse()
            .is_some_and(DurableWarehouse::compaction_enabled)
    }

    /// Force-merge every sealed cold segment now, regardless of policy
    /// thresholds (`Ok(None)` for the in-memory backend or when fewer than
    /// two sealed segments exist). The background equivalent runs from the
    /// monitor tick when the policy is enabled.
    pub fn compact_warehouse(&mut self) -> Result<Option<CompactionStats>, EngineError> {
        Ok(self.compact(self.now(), true)?)
    }

    /// One compaction step, counted and logged: `explicit` merges every
    /// sealed segment, otherwise the durable config's policy decides
    /// whether anything is due. A memory-backed engine and a durable one
    /// with the policy disabled both skip this for free.
    fn compact(
        &mut self,
        now: Timestamp,
        explicit: bool,
    ) -> Result<Option<CompactionStats>, DurableError> {
        let Some(d) = self.storage.durable_mut() else {
            return Ok(None);
        };
        let (stats, label) = if explicit {
            (d.compact_now(now)?, " (explicit)")
        } else {
            (d.maybe_compact(now)?, "")
        };
        if let Some(s) = &stats {
            self.inst.maintenance_compactions.inc();
            let mut line = format!(
                "[{now}] compaction{label}: {} segments -> 1 (gen {}), {} bytes reclaimed",
                s.segments_in,
                s.generation,
                s.bytes_reclaimed()
            );
            if !explicit {
                line += &format!(", {} records dropped", s.records_dropped());
            }
            self.monitor.durability.push(line);
        }
        Ok(stats)
    }

    /// The storage half of the monitor tick: retention, one policy-gated
    /// compaction step, and the report's continuous-query section.
    pub(crate) fn maintain_storage(&mut self, now: Timestamp) {
        // Retention: age out the hot tail (the durable backend spills to
        // cold segments instead of discarding). Default-off.
        if let Some(window) = self.config.retention {
            let horizon = now.saturating_sub(window);
            match self.evict_warehouse_before(horizon) {
                Ok(0) => {}
                Ok(evicted) => {
                    self.inst.retention_evicted.add(evicted as u64);
                    self.monitor.continuous.push(format!(
                        "[{now}] retention: {evicted} events evicted before {horizon}"
                    ));
                }
                Err(e) => {
                    self.monitor
                        .console
                        .push(format!("[{now}] error: retention eviction: {e}"));
                }
            }
        }
        if let Err(e) = self.compact(now, false) {
            self.monitor
                .console
                .push(format!("[{now}] error: compaction: {e}"));
        }
        if !self.storage.cq.is_idle() {
            self.refresh_cq_monitor(now);
        }
    }

    /// Bring the monitor's continuous-query rows up to date with the hub,
    /// in place: one pass over the registrations in id order, each row
    /// found through one reused key buffer. A row (and its `kind`) is made
    /// only for a registration not seen before, the rows of removed ones
    /// are dropped, and a subscriber falling behind is logged when it
    /// happens (an operational event, not just a gauge).
    fn refresh_cq_monitor(&mut self, now: Timestamp) {
        let (hub, key) = (&self.storage.cq, &mut self.storage.row_key);
        let (rows, log) = (&mut self.monitor.cq, &mut self.monitor.continuous);
        let subs = hub.subscription_stats();
        for s in &subs {
            key.clear();
            let _ = write!(key, "{}", s.id);
            let row = match rows.get_mut(key.as_str()) {
                Some(row) => row,
                None => rows.entry(key.clone()).or_insert_with(|| CqStat {
                    kind: format!("subscription '{}'", s.name),
                    ..CqStat::default()
                }),
            };
            if s.lagged && !row.lagged {
                log.push(format!(
                    "[{now}] subscriber '{}' ({}) lagged: queue overflowed, awaiting catch-up",
                    s.name, s.id
                ));
            }
            row.depth = s.depth;
            row.delivered = s.delivered;
            row.dropped = s.dropped;
            row.lagged = s.lagged;
        }
        let views = hub.view_stats();
        for v in &views {
            key.clear();
            let _ = write!(key, "{}", v.id);
            let row = match rows.get_mut(key.as_str()) {
                Some(row) => row,
                None => rows.entry(key.clone()).or_insert_with(|| CqStat {
                    kind: format!("view '{}'", v.name),
                    ..CqStat::default()
                }),
            };
            row.cells = v.cells;
            row.contributions = v.contributions;
        }
        // Every registration has its row by now, and handles are never
        // reused: a row is stale exactly when there are more rows.
        if rows.len() > subs.len() + views.len() {
            rows.retain(|key, _| is_registered(key, &subs, &views));
        }
    }

    /// Log what changed in a blocking operator's window since the last
    /// call: folded onto its record (crash recovery within this process)
    /// and — with a durable backend — appended to the segment log. Costs
    /// what the change touched, not what the window holds.
    pub(crate) fn checkpoint(&mut self, service: EndpointId) {
        let ep = &mut self.monitor.endpoints[service.index()];
        let svc = match &mut ep.role {
            Role::Service(svc) if svc.blocking => svc,
            _ => return,
        };
        let Some(mut delta) = svc.op.checkpoint_delta() else {
            return;
        };
        let fold = match &mut svc.checkpoint {
            // A tick on an already-empty window, say: nothing to log.
            Some(fold) if delta.is_noop_on(fold) => return,
            Some(fold) => fold,
            // Nothing of this operator is logged yet, so its first delta
            // holds everything it buffered — and must be a base: whatever
            // the log holds under these names is a predecessor's window.
            None => {
                delta.reset = true;
                svc.checkpoint.insert(OpCheckpoint::empty())
            }
        };
        self.inst.checkpoint_taken.inc();
        if svc.rebase {
            // The log lost this window at a failed record: log it whole.
            fold.apply(delta);
            delta = CheckpointDelta {
                reset: true,
                evicted: 0,
                appended: fold.tuples.clone(),
            };
        }
        let (console, (deployment, name)) = (&mut self.monitor.console, &ep.names);
        svc.rebase = !self
            .storage
            .log_checkpoint(console, "persisting", deployment, name, &delta);
        let gone: usize = if delta.reset {
            svc.checkpoint_bytes
        } else {
            let evicted = fold.tuples.iter().take(delta.evicted);
            evicted.map(|(_, t)| t.byte_size()).sum()
        };
        let bytes = svc.checkpoint_bytes - gone + delta.byte_size();
        self.inst
            .checkpoint_bytes
            .add(bytes as i64 - svc.checkpoint_bytes as i64);
        svc.checkpoint_bytes = bytes;
        fold.apply(delta);
    }

    /// The latest blocking-operator window for `(deployment, service)` — the
    /// fold of what was logged live, or staged by [`Engine::open_durable`]
    /// recovery.
    pub fn checkpoint_of(&self, deployment: &str, service: &str) -> Option<&OpCheckpoint> {
        match self.endpoint(deployment, service) {
            Some(ep) => ep.service()?.checkpoint.as_ref(),
            None => self
                .storage
                .staged
                .get(&(deployment.to_string(), service.to_string())),
        }
    }

    /// Register a standing [`EventQuery`]: every warehouse-bound event
    /// matching `q` is pushed to a per-subscriber queue of `capacity`
    /// deltas (`None` = unbounded; lint SL091 flags that under admission
    /// control), governed by `policy` on overflow — the same shed/block
    /// vocabulary as ingress overload control. Drain with
    /// [`Engine::poll_deltas`].
    pub fn subscribe_events(
        &mut self,
        name: &str,
        q: EventQuery,
        capacity: Option<usize>,
        policy: OverflowPolicy,
    ) -> SubscriberId {
        self.storage.cq.subscribe(name, q, capacity, policy)
    }

    /// Remove a standing subscription.
    pub fn unsubscribe_events(&mut self, id: SubscriberId) -> Result<(), EngineError> {
        if self.storage.cq.unsubscribe(id) {
            Ok(())
        } else {
            Err(EngineError::UnknownSubscriber(id.0))
        }
    }

    /// Drain a subscriber's pending deltas (matched events since the last
    /// poll). If the poll reports `lagged`, the subscriber's queue
    /// overflowed under `Block` and deltas are withheld until
    /// [`Engine::catch_up`].
    pub fn poll_deltas(&mut self, id: SubscriberId) -> Result<CqPoll, EngineError> {
        let poll = self.storage.cq.poll(id);
        poll.ok_or(EngineError::UnknownSubscriber(id.0))
    }

    /// Re-synchronise a late or lagged subscriber: returns a snapshot of
    /// the full warehouse (cold segments included under a durable backend)
    /// under the subscription's query, plus the hub sequence number the
    /// snapshot is current to, and clears the lag flag. Deltas polled
    /// afterwards strictly follow the snapshot.
    pub fn catch_up(&mut self, id: SubscriberId) -> Result<(Vec<Event>, u64), EngineError> {
        let q = self.storage.cq.subscription_query(id);
        let q = q.ok_or(EngineError::UnknownSubscriber(id.0))?.clone();
        let snapshot = self.query_warehouse(&q)?;
        self.storage.cq.mark_caught_up(id);
        Ok((snapshot, self.storage.cq.seq()))
    }

    /// Register a materialized roll-up view over `q`: the answer is
    /// maintained incrementally from the ingest path (O(affected cells)
    /// per tuple, retraction on eviction) and read with
    /// [`Engine::view_cells`] — byte-identical to rerunning the roll-up,
    /// without the rescan. The view is seeded from the hot store, so late
    /// registration is exact too.
    pub fn register_view(&mut self, name: &str, q: CubeQuery) -> ViewId {
        let Storage { tier, cq, .. } = &mut self.storage;
        let hot = match tier {
            WarehouseTier::Memory(w) => &**w,
            WarehouseTier::Durable(d) => d.hot(),
        };
        cq.register_view(name, q, hot.iter())
    }

    /// The current cells of a materialized view (sorted, same order and
    /// bits as `EventWarehouse::rollup` over the hot store).
    pub fn view_cells(&self, id: ViewId) -> Result<Vec<CubeCell>, EngineError> {
        let cells = self.storage.cq.view_cells(id);
        cells.ok_or(EngineError::UnknownView(id.0))
    }

    /// Remove a materialized view.
    pub fn drop_view(&mut self, id: ViewId) -> Result<(), EngineError> {
        if self.storage.cq.drop_view(id) {
            Ok(())
        } else {
            Err(EngineError::UnknownView(id.0))
        }
    }

    /// The continuous-query hub (registration stats for monitors/lint).
    pub fn cq(&self) -> &CqHub {
        &self.storage.cq
    }

    /// Add the `warehouse/`, `cq/` and — with a durable backend —
    /// `durable/` sections to a unified snapshot.
    pub(crate) fn absorb_storage_metrics(&self, snap: &mut MetricsSnapshot) {
        snap.absorb("warehouse", &self.storage.hot().metrics_snapshot());
        if let Some(d) = self.durable_warehouse() {
            snap.absorb("durable", &d.metrics_snapshot());
        }
        snap.absorb("cq", &self.storage.cq.metrics_snapshot());
    }
}
