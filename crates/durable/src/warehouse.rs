//! The durable Event Data Warehouse: hot in-memory indexes over the recent
//! tail, cold checksummed segments for everything evicted.
//!
//! Every ingested event is appended to the [`SegmentLog`] *before* it
//! becomes visible in the hot [`EventWarehouse`] (write-ahead discipline),
//! so the hot store is always reconstructible from disk. Retention flips
//! from *discard* to *spill*: [`DurableWarehouse::evict_before`] removes old
//! events from the hot indexes exactly as before, but first writes a horizon
//! marker to the log instead of forgetting them — the events stay readable
//! in the log's segments.
//!
//! # The hot/cold split
//!
//! Which log events are "cold" (evicted from the hot store) is decided
//! *positionally*: an event at log position `p` with interval end `e` is
//! cold iff some horizon marker recorded *after* `p` carries a horizon
//! `h ≥ e`. This mirrors `EventWarehouse::evict_before` exactly — including
//! the subtle case of a late-arriving old event inserted *after* an
//! eviction, which stays hot (no later marker covers it) even though its
//! interval is ancient. Queries merge a block-skipping cold-segment scan
//! with the hot index path and never see an event twice. Opening replays
//! the log in order; each marker drops what it covers, leaving that split.
//!
//! Operator checkpoints ride the same log, so a restarted process recovers
//! both its warehouse and its blocking operators' window caches from one
//! directory. A window is logged as a base (kind 2: the whole cache, as
//! every earlier version of this crate wrote it) followed by deltas (kind
//! 4: front evictions + appends), so a frame costs what the window changed
//! by, not what it holds; opening folds each frame onto its
//! `(deployment, service)` as the replay reads it.

use crate::codec::{self, Record};
use crate::compact::{self, CompactionPolicy, CompactionStats, MergeRun};
use crate::error::DurableError;
use crate::index::{ColdFrontier, Pruner};
use crate::log::{event_time, DurableConfig, LogPos, RecoveryReport, SegmentLog};
use sl_obs::{Counter, Histogram, MetricsSnapshot, Stopwatch};
use sl_ops::{CheckpointDelta, OpCheckpoint};
use sl_stt::{Event, SpatialGranularity, TemporalGranularity, Timestamp, Tuple};
use sl_warehouse::{tuple_events, EventQuery, EventWarehouse, WarehouseConfig};
use std::collections::{BTreeMap, HashMap};
use std::io::ErrorKind;

/// A crash-safe warehouse: hot `EventWarehouse` over the recent tail, cold
/// segment log underneath, one merged query surface.
pub struct DurableWarehouse {
    hot: EventWarehouse,
    log: SegmentLog,
    /// Horizon markers in log order: (position of the marker frame, horizon).
    markers: Vec<(LogPos, Timestamp)>,
    /// `suffix_max[i]` = max horizon (ms) over `markers[i..]`; decides
    /// coldness in O(log markers) per event.
    suffix_max: Vec<i64>,
    /// Checkpoints recovered at open time, keyed by (deployment, service);
    /// the engine drains these into its restart path.
    recovered: HashMap<(String, String), OpCheckpoint>,
    inst: DurableInstruments,
}

sl_obs::instruments! {
    /// The durable tier's own instruments (`durable/*` in the engine's
    /// snapshot; the log's are under `durable/log/`).
    struct DurableInstruments {
        open_us: Histogram = "open_us",
        rebuilt_hot_events: Counter = "rebuilt_hot_events",
        recovered_checkpoints: Counter = "recovered_checkpoints",
        checkpoints_persisted: Counter = "checkpoints_persisted",
        events_spilled: Counter = "events_spilled",
        compaction_runs: Counter = "compaction/runs",
        compaction_segments_in: Counter = "compaction/segments_in",
        compaction_events_dropped: Counter = "compaction/events_dropped",
        compaction_markers_dropped: Counter = "compaction/markers_dropped",
        compaction_checkpoints_dropped: Counter = "compaction/checkpoints_dropped",
        compaction_bytes_reclaimed: Counter = "compaction/bytes_reclaimed",
        compaction_pause_us: Histogram = "compaction/pause_us",
        query_us: Histogram = "query_us",
        queries: Counter = "queries",
    }
}

impl DurableWarehouse {
    /// Open (or create) a durable warehouse at `config.dir`, replaying the
    /// log in one ordered pass that applies each record as it is read: an
    /// event waits in a pending set ordered by interval end, a horizon
    /// marker drops what it covers (the rule of `EventWarehouse::evict_before`),
    /// and a checkpoint base replaces its key's fold, a delta extends it (one
    /// whose base was lost extends nothing). The events no later marker
    /// covers then go hot once, in log order, and the folds wait for
    /// [`DurableWarehouse::take_checkpoints`]. Memory: the hot set, the
    /// pending set, the folds and one read buffer, never a segment file.
    pub fn open(config: DurableConfig) -> Result<DurableWarehouse, DurableError> {
        let sw = Stopwatch::start();
        let mut pending: BTreeMap<(i64, LogPos), Event> = BTreeMap::new();
        let mut markers: Vec<(LogPos, Timestamp)> = Vec::new();
        let mut recovered: HashMap<(String, String), OpCheckpoint> = HashMap::new();
        let log = SegmentLog::replay(config, |pos, rec| match rec {
            Record::Event(event) => {
                pending.insert((event_time(&event).1, pos), event);
            }
            Record::Horizon(h) => {
                // Keep what ends after `h`: `evict_before` takes `end ≤ h`.
                pending = match h.as_millis().checked_add(1) {
                    Some(after) => pending.split_off(&(after, LogPos::default())),
                    None => BTreeMap::new(),
                };
                markers.push((pos, h));
            }
            Record::Checkpoint {
                deployment,
                service,
                state,
            } => {
                recovered.insert((deployment, service), state);
            }
            Record::CheckpointDelta {
                deployment,
                service,
                evicted,
                appended,
            } => recovered
                .entry((deployment, service))
                .or_default()
                .apply(CheckpointDelta {
                    reset: false,
                    evicted,
                    appended,
                }),
        })?;
        let mut hot = EventWarehouse::new(WarehouseConfig::default());
        let mut survivors: Vec<_> = pending.into_iter().collect();
        survivors.sort_unstable_by_key(|&((_, pos), _)| pos);
        survivors.into_iter().for_each(|(_, e)| hot.insert(e));
        let suffix_max = suffix_maxima(&markers);

        let mut inst = DurableInstruments::default();
        inst.open_us.record(sw.elapsed_us());
        inst.rebuilt_hot_events.add(hot.len() as u64);
        inst.recovered_checkpoints.add(recovered.len() as u64);
        Ok(DurableWarehouse {
            hot,
            log,
            markers,
            suffix_max,
            recovered,
            inst,
        })
    }

    /// The hot in-memory warehouse (recent tail).
    pub fn hot(&self) -> &EventWarehouse {
        &self.hot
    }

    /// Mutable hot warehouse. Evict through
    /// [`DurableWarehouse::evict_before`], not directly — a direct hot
    /// eviction discards without writing a horizon marker.
    pub fn hot_mut(&mut self) -> &mut EventWarehouse {
        &mut self.hot
    }

    /// The underlying segment log.
    pub fn log(&self) -> &SegmentLog {
        &self.log
    }

    /// The recovery report from open time.
    pub fn recovery_report(&self) -> RecoveryReport {
        self.log.recovery_report()
    }

    /// Drain the operator checkpoints recovered at open time.
    pub fn take_checkpoints(&mut self) -> HashMap<(String, String), OpCheckpoint> {
        std::mem::take(&mut self.recovered)
    }

    /// Append one event durably, then make it hot. The log write happens
    /// first: a crash between the two replays the event on reopen.
    pub fn insert(&mut self, event: Event) -> Result<(), DurableError> {
        self.log_event(&event)?;
        self.hot.insert(event);
        Ok(())
    }

    fn log_event(&mut self, event: &Event) -> Result<LogPos, DurableError> {
        let time = Some(event_time(event));
        self.log
            .append_with(time, |w| codec::put_event_payload(w, event))
    }

    /// Durable counterpart of [`EventWarehouse::ingest_tuple`]: translate
    /// once, log every event, then ingest the same events into the hot
    /// indexes. Returns how many events were stored.
    pub fn ingest_tuple(
        &mut self,
        tuple: &Tuple,
        tgran: TemporalGranularity,
        sgran: SpatialGranularity,
    ) -> Result<usize, DurableError> {
        self.ingest_events(tuple_events(tuple, tgran, sgran))
    }

    /// Durable counterpart of [`EventWarehouse::ingest_events`]: log every
    /// event, then ingest the same batch into the hot indexes. Callers that
    /// translated a tuple themselves (the engine does, so it can fan the
    /// batch out to continuous queries as well) use this directly. Returns
    /// how many events were stored.
    pub fn ingest_events(&mut self, events: Vec<Event>) -> Result<usize, DurableError> {
        self.ingest_events_with(events, |_| {})
    }

    /// [`DurableWarehouse::ingest_events`], showing `logged` the batch once
    /// every event of it is in the log and before it moves into the hot
    /// indexes: a caller that fans the batch out (the engine feeds it to
    /// its continuous queries) reads it in place instead of copying it, and
    /// sees nothing of a batch whose log write failed.
    pub fn ingest_events_with(
        &mut self,
        events: Vec<Event>,
        logged: impl FnOnce(&[Event]),
    ) -> Result<usize, DurableError> {
        for event in &events {
            self.log_event(event)?;
        }
        logged(&events);
        Ok(self.hot.ingest_events(events))
    }

    /// Extend the checkpoint log of `(deployment, service)` by what its
    /// window changed by: a delta that resets the window is written as a
    /// base frame (its appended tuples are the whole cache), anything else
    /// as a delta frame. A frame over `MAX_FRAME_BYTES` is refused, with
    /// nothing written.
    pub fn persist_checkpoint(
        &mut self,
        deployment: &str,
        service: &str,
        delta: &CheckpointDelta,
    ) -> Result<(), DurableError> {
        let (d, s, tuples) = (deployment, service, &delta.appended);
        self.log.append_with(None, |w| {
            if delta.reset {
                codec::put_checkpoint_payload(w, d, s, tuples)
            } else {
                codec::put_checkpoint_delta_payload(w, d, s, delta.evicted, tuples)
            }
        })?;
        self.inst.checkpoints_persisted.inc();
        Ok(())
    }

    /// Retention that spills instead of discarding: write a horizon marker,
    /// then evict from the hot indexes, so the evicted events are served
    /// from cold segments from now on. Returns how many events went cold.
    ///
    /// The marker goes first (write-ahead, like [`DurableWarehouse::insert`]):
    /// if the append fails nothing is evicted and both tiers still agree. A
    /// horizon that expires no hot event returns `Ok(0)` without touching
    /// the log — such a marker could change no coldness verdict, now or
    /// after a reopen, because every earlier event ending at or before it
    /// is already covered by a later marker (or it would still be hot).
    pub fn evict_before(&mut self, horizon: Timestamp) -> Result<usize, DurableError> {
        if self.hot.next_expiry().is_none_or(|end| end > horizon) {
            return Ok(0);
        }
        let pos = self.log.append(&Record::Horizon(horizon))?;
        // The new marker is the last one: it raises exactly the trailing
        // run of suffix maxima that were below it.
        let h = horizon.as_millis();
        for max in self.suffix_max.iter_mut().rev().take_while(|m| **m < h) {
            *max = h;
        }
        self.suffix_max.push(h);
        self.markers.push((pos, horizon));
        let evicted = self.hot.evict_before(horizon);
        self.inst.events_spilled.add(evicted as u64);
        Ok(evicted)
    }

    /// True when the configured [`CompactionPolicy`] is enabled (the engine
    /// drives [`DurableWarehouse::maybe_compact`] from its monitor tick
    /// only then, and lint SL092 checks the flag on durable deployments).
    pub fn compaction_enabled(&self) -> bool {
        self.log.config().compaction.enabled
    }

    /// Run one policy-gated compaction step: if a run of small sealed
    /// segments qualifies under the configured [`CompactionPolicy`], merge
    /// it and return the stats. `Ok(None)` when the policy is disabled or
    /// nothing qualifies (steady state). `now` anchors the
    /// `cold_retention` age-out cutoff.
    pub fn maybe_compact(
        &mut self,
        now: Timestamp,
    ) -> Result<Option<CompactionStats>, DurableError> {
        let policy = self.log.config().compaction.clone();
        if !policy.enabled {
            return Ok(None);
        }
        match compact::plan(&self.log.sealed_metas()) {
            Some(run) => self.run_compaction(run, &policy, now).map(Some),
            None => Ok(None),
        }
    }

    /// Force-merge every sealed segment into one, regardless of policy
    /// thresholds (the policy's `cold_retention` still applies). `Ok(None)`
    /// with fewer than two sealed segments.
    pub fn compact_now(&mut self, now: Timestamp) -> Result<Option<CompactionStats>, DurableError> {
        let policy = self.log.config().compaction.clone();
        match compact::plan_forced(&self.log.sealed_metas()) {
            Some(run) => self.run_compaction(run, &policy, now).map(Some),
            None => Ok(None),
        }
    }

    /// Execute one merge in two streaming passes over the run, holding
    /// one block of input, the product's write buffer, the run's checkpoint
    /// folds and its surviving markers — never the run itself. Pass 1 folds
    /// each checkpoint key; pass 2 drops what the policy allows and writes
    /// the survivors, in order (see [`crate::compact`] for why events are
    /// never reordered or deduplicated), into the product, which then
    /// atomically replaces the inputs. The renumbered horizon markers are
    /// spliced back into the in-memory marker list.
    fn run_compaction(
        &mut self,
        run: MergeRun,
        policy: &CompactionPolicy,
        now: Timestamp,
    ) -> Result<CompactionStats, DurableError> {
        let sw = Stopwatch::start();
        let bytes_before = self.log.bytes_in_range(run.first, run.last);
        let cutoff = policy
            .cold_retention
            .map(|w| now.saturating_sub(w).as_millis());

        // Pass 1. Recovery folds each key's checkpoint log from its last base
        // on, so within the merged range every frame before that base is
        // dead, and the base with the deltas after it is one base (unless
        // that base is over one frame's limit: pass 2 then keeps them as
        // they are). A key with deltas but no base in the range keeps them:
        // its base lives further back. Every frame is decoded here, so a
        // damaged input fails the merge before a byte of the product is
        // written.
        let mut folds: HashMap<(String, String), (LogPos, OpCheckpoint)> = HashMap::new();
        self.log.scan_range(run.first, run.last, &mut |pos, rec| {
            match rec {
                Record::Checkpoint {
                    deployment,
                    service,
                    state,
                } => {
                    folds.insert((deployment, service), (pos, state));
                }
                Record::CheckpointDelta {
                    deployment,
                    service,
                    evicted,
                    appended,
                } => {
                    if let Some((_, fold)) = folds.get_mut(&(deployment, service)) {
                        fold.apply(CheckpointDelta {
                            reset: false,
                            evicted,
                            appended,
                        });
                    }
                }
                Record::Event(_) | Record::Horizon(_) => {}
            }
            Ok(())
        })?;

        // Pass 2 writes the survivors into the product as it reads them.
        let mut product = self
            .log
            .start_product(run.first, run.last, run.generation)?;
        let (markers, suffix_max) = (&self.markers, &self.suffix_max);
        let mut renumbered: Vec<(LogPos, Timestamp)> = Vec::new();
        let mut events_dropped = 0u64;
        let mut markers_dropped = 0u64;
        let mut checkpoints_dropped = 0u64;
        self.log.scan_range(run.first, run.last, &mut |pos, rec| {
            let survivor = match rec {
                Record::Event(e) => {
                    // Only *cold* events can be aged out: a hot event (late
                    // arrival no marker covers) must survive so the hot
                    // store can be rebuilt from the log on reopen.
                    let expired = cutoff.is_some_and(|c| e.time_interval().end.as_millis() <= c);
                    if expired && is_cold(markers, suffix_max, pos, &e) {
                        events_dropped += 1;
                        None
                    } else {
                        Some(Record::Event(e))
                    }
                }
                Record::Horizon(h) => {
                    // Redundant iff a strictly later marker (anywhere in
                    // the log) carries an equal or higher horizon: removing
                    // it leaves the suffix maximum at every log position —
                    // and therefore every coldness verdict — unchanged.
                    let after = markers.partition_point(|(mpos, _)| *mpos <= pos);
                    let later_max = suffix_max.get(after).copied().unwrap_or(i64::MIN);
                    if later_max >= h.as_millis() {
                        markers_dropped += 1;
                        None
                    } else {
                        Some(Record::Horizon(h))
                    }
                }
                Record::Checkpoint {
                    deployment,
                    service,
                    state,
                } => {
                    let key = (deployment, service);
                    match folds.get_mut(&key) {
                        Some((base, fold)) if *base == pos => {
                            let folded = Record::Checkpoint {
                                deployment: key.0.clone(),
                                service: key.1.clone(),
                                state: std::mem::take(fold),
                            };
                            match product.push(&folded) {
                                Ok(_) => None,
                                // Over one frame's limit, refused unwritten:
                                // keep this base and the deltas after it.
                                Err(DurableError::Io(e)) if e.kind() == ErrorKind::InvalidInput => {
                                    folds.remove(&key);
                                    Some(Record::Checkpoint {
                                        deployment: key.0,
                                        service: key.1,
                                        state,
                                    })
                                }
                                Err(e) => return Err(e),
                            }
                        }
                        _ => {
                            checkpoints_dropped += 1;
                            None
                        }
                    }
                }
                Record::CheckpointDelta {
                    deployment,
                    service,
                    evicted,
                    appended,
                } => {
                    let key = (deployment, service);
                    if folds.contains_key(&key) {
                        checkpoints_dropped += 1;
                        None
                    } else {
                        Some(Record::CheckpointDelta {
                            deployment: key.0,
                            service: key.1,
                            evicted,
                            appended,
                        })
                    }
                }
            };
            if let Some(rec) = survivor {
                let at = product.push(&rec)?;
                if let Record::Horizon(h) = rec {
                    renumbered.push((at, h));
                }
            }
            Ok(())
        })?;
        let bytes_after = self.log.publish(product)?;

        // Markers inside the merged range now live at renumbered positions
        // (segment = run.first, frame = index among survivors); markers
        // outside it are untouched.
        let lo = self.markers.partition_point(|(p, _)| p.segment < run.first);
        let hi = self.markers.partition_point(|(p, _)| p.segment <= run.last);
        self.markers.splice(lo..hi, renumbered);
        self.suffix_max = suffix_maxima(&self.markers);

        let stats = CompactionStats {
            segments_in: run.inputs,
            generation: run.generation,
            bytes_before,
            bytes_after,
            events_dropped,
            markers_dropped,
            checkpoints_dropped,
            duration_us: sw.elapsed_us(),
        };
        let inst = &mut self.inst;
        inst.compaction_runs.inc();
        inst.compaction_segments_in.add(run.inputs as u64);
        inst.compaction_events_dropped.add(events_dropped);
        inst.compaction_markers_dropped.add(markers_dropped);
        inst.compaction_checkpoints_dropped.add(checkpoints_dropped);
        inst.compaction_bytes_reclaimed.add(stats.bytes_reclaimed());
        inst.compaction_pause_us.record(stats.duration_us);
        Ok(stats)
    }

    /// Answer a query across both tiers: a block-skipping scan over cold
    /// segment events merged with the hot index path. Cold results come
    /// first (they are older in log order), each tier in its own storage
    /// order; no event appears twice.
    pub fn query(&mut self, q: &EventQuery) -> Result<Vec<Event>, DurableError> {
        let sw = Stopwatch::start();
        let mut out = self.cold_matches(q)?;
        out.extend(self.hot.query(q).into_iter().cloned());
        self.inst.query_us.record(sw.elapsed_us());
        self.inst.queries.inc();
        Ok(out)
    }

    /// Reference implementation: decode *every* event in the log (hot
    /// events are in the log too) and filter. Property tests compare this
    /// against [`DurableWarehouse::query`].
    pub fn query_scan(&mut self, q: &EventQuery) -> Result<Vec<Event>, DurableError> {
        let mut out = Vec::new();
        for (_, rec) in self.log.scan()? {
            if let Record::Event(e) = rec {
                if q.matches(&e) {
                    out.push(e);
                }
            }
        }
        Ok(out)
    }

    /// Cold-tier matches for `q`. The zone indexes skip blocks/segments
    /// that cannot overlap `q.time`, (for compacted segments, via their
    /// theme filters) cannot contain `q.theme`, or lie past the cold
    /// frontier — the un-evicted tail of the log.
    fn cold_matches(&mut self, q: &EventQuery) -> Result<Vec<Event>, DurableError> {
        let (Some((last_marker, _)), Some(&max_horizon)) =
            (self.markers.last(), self.suffix_max.first())
        else {
            return Ok(Vec::new()); // nothing has ever been evicted
        };
        let pruner = Pruner {
            time: q.time,
            theme: q.theme.clone(),
            frontier: Some(ColdFrontier {
                last_marker_segment: last_marker.segment,
                max_horizon,
            }),
        };
        // The scan moves each verified record here; a matching cold event
        // goes straight into the answer, everything else is dropped.
        let (markers, suffix_max) = (&self.markers, &self.suffix_max);
        let mut out = Vec::new();
        self.log.scan_pruned(&pruner, &mut |pos, rec| {
            if let Record::Event(event) = rec {
                if is_cold(markers, suffix_max, pos, &event) && q.matches(&event) {
                    out.push(event);
                }
            }
        })?;
        Ok(out)
    }

    /// Force everything appended so far onto stable storage.
    pub fn sync(&mut self) -> Result<(), DurableError> {
        self.log.sync()
    }

    /// Number of on-disk segments.
    pub fn segment_count(&self) -> usize {
        self.log.segment_count()
    }

    /// Instruments of the durable tier (log + tiering). The hot store's own
    /// metrics remain available via `hot().metrics_snapshot()`.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.inst.snapshot();
        snap.absorb("log", &self.log.metrics_snapshot());
        snap
    }
}

impl Drop for DurableWarehouse {
    fn drop(&mut self) {
        // Best-effort durability for lazier fsync policies on clean
        // shutdown; crash behaviour is governed by the policy itself.
        let _ = self.log.sync();
    }
}

/// `out[i]` = max horizon (ms) over `markers[i..]`.
fn suffix_maxima(markers: &[(LogPos, Timestamp)]) -> Vec<i64> {
    let mut out = vec![0i64; markers.len()];
    let mut max = i64::MIN;
    for i in (0..markers.len()).rev() {
        max = max.max(markers[i].1.as_millis());
        out[i] = max;
    }
    out
}

/// Is the event at `pos` cold — evicted from the hot store by some horizon
/// marker written after it?
fn is_cold(
    markers: &[(LogPos, Timestamp)],
    suffix_max: &[i64],
    pos: LogPos,
    event: &Event,
) -> bool {
    // First marker strictly after the event's position (marker and event
    // frames never share a position).
    let i = markers.partition_point(|(mpos, _)| *mpos < pos);
    match suffix_max.get(i) {
        Some(&h) => event.time_interval().end.as_millis() <= h,
        None => false,
    }
}

#[cfg(test)]
mod tests {

    use super::*;
    use crate::tmp::TempDir;
    use sl_stt::{GeoPoint, Theme, TimeInterval, Value};

    fn event(minute: i64, theme: &str) -> Event {
        let g = SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(34.7, 135.5));
        Event::new(
            Value::Int(minute),
            TemporalGranularity::Minute,
            minute,
            g,
            Theme::new(theme).unwrap(),
        )
    }

    fn minutes(ts: i64) -> Timestamp {
        Timestamp::from_millis(ts * 60_000)
    }

    fn sorted(mut v: Vec<Event>) -> Vec<String> {
        v.sort_by_key(|e| (e.tgranule, e.theme.to_string()));
        v.into_iter().map(|e| e.to_string()).collect()
    }

    #[test]
    fn evict_spills_instead_of_discarding() {
        let dir = TempDir::new("dw-spill").unwrap();
        let mut dw = DurableWarehouse::open(DurableConfig::at(dir.path())).unwrap();
        for m in 0..100 {
            dw.insert(event(m, "weather/temperature")).unwrap();
        }
        assert_eq!(dw.hot().len(), 100);
        let evicted = dw.evict_before(minutes(50)).unwrap();
        assert_eq!(evicted, 50);
        assert_eq!(dw.hot().len(), 50, "hot tier keeps the recent tail");
        // The merged query still sees everything.
        let all = dw.query(&EventQuery::all()).unwrap();
        assert_eq!(all.len(), 100, "evicted events are cold, not gone");
        // And matches the brute-force reference.
        assert_eq!(
            sorted(all),
            sorted(dw.query_scan(&EventQuery::all()).unwrap())
        );
    }

    #[test]
    fn late_arriving_old_event_stays_hot() {
        let dir = TempDir::new("dw-late").unwrap();
        let mut dw = DurableWarehouse::open(DurableConfig::at(dir.path())).unwrap();
        for m in 0..10 {
            dw.insert(event(m, "weather")).unwrap();
        }
        dw.evict_before(minutes(20)).unwrap();
        assert_eq!(dw.hot().len(), 0);
        // An *old* event arriving after the eviction: the hot store keeps
        // it (no later marker covers it), and the merged query must not
        // double-count it.
        dw.insert(event(3, "weather")).unwrap();
        assert_eq!(dw.hot().len(), 1);
        let all = dw.query(&EventQuery::all()).unwrap();
        assert_eq!(all.len(), 11);
        assert_eq!(
            sorted(all),
            sorted(dw.query_scan(&EventQuery::all()).unwrap())
        );
    }

    #[test]
    fn reopen_restores_both_tiers() {
        let dir = TempDir::new("dw-reopen").unwrap();
        let before = {
            let mut dw = DurableWarehouse::open(DurableConfig::at(dir.path())).unwrap();
            for m in 0..60 {
                dw.insert(event(m, "weather/rain")).unwrap();
            }
            dw.evict_before(minutes(30)).unwrap();
            for m in 60..80 {
                dw.insert(event(m, "weather/rain")).unwrap();
            }
            sorted(dw.query(&EventQuery::all()).unwrap())
        };
        let mut dw = DurableWarehouse::open(DurableConfig::at(dir.path())).unwrap();
        assert_eq!(dw.hot().len(), 50, "30 cold, 50 hot after replay");
        assert_eq!(sorted(dw.query(&EventQuery::all()).unwrap()), before);
        assert_eq!(sorted(dw.query_scan(&EventQuery::all()).unwrap()), before);
    }

    #[test]
    fn idle_evictions_write_nothing_and_reopen_is_identical() {
        let dir = TempDir::new("dw-idle").unwrap();
        let hot_of = |dw: &DurableWarehouse| -> Vec<Event> { dw.hot().iter().cloned().collect() };
        let (hot_before, all_before) = {
            let mut dw = DurableWarehouse::open(DurableConfig::at(dir.path())).unwrap();
            // Before anything is stored, and below every stored event: idle.
            assert_eq!(dw.evict_before(minutes(5)).unwrap(), 0);
            assert_eq!(dw.log().last_pos(), None, "no frame for an empty store");
            for m in 10..40 {
                dw.insert(event(m, "weather/rain")).unwrap();
            }
            let (pos, bytes) = (dw.log().last_pos(), dw.log().disk_bytes());
            // Minute 10's interval ends at minute 11: horizon 10 expires nothing.
            assert_eq!(dw.evict_before(minutes(10)).unwrap(), 0);
            assert_eq!(dw.log().last_pos(), pos, "idle eviction appends no frame");
            assert_eq!(dw.log().disk_bytes(), bytes);

            // Real and idle evictions interleaved with late arrivals.
            assert_eq!(dw.evict_before(minutes(20)).unwrap(), 10);
            assert_eq!(dw.evict_before(minutes(20)).unwrap(), 0, "already cold");
            assert_eq!(dw.evict_before(minutes(15)).unwrap(), 0, "lower horizon");
            dw.insert(event(12, "social/tweet")).unwrap(); // late: stays hot
            assert_eq!(dw.evict_before(minutes(5)).unwrap(), 0);
            for m in 40..50 {
                dw.insert(event(m, "weather/rain")).unwrap();
            }
            assert_eq!(
                dw.evict_before(minutes(30)).unwrap(),
                11,
                "tail and late one"
            );
            assert_eq!(dw.evict_before(minutes(25)).unwrap(), 0);
            assert_eq!(dw.markers.len(), 2, "one marker per real eviction");
            (hot_of(&dw), dw.query(&EventQuery::all()).unwrap())
        };
        let mut dw = DurableWarehouse::open(DurableConfig::at(dir.path())).unwrap();
        assert_eq!(hot_of(&dw), hot_before, "same hot events in the same order");
        assert_eq!(dw.query(&EventQuery::all()).unwrap(), all_before);
        let queries = [
            EventQuery::all(),
            EventQuery::all().in_time(TimeInterval::new(minutes(15), minutes(35))),
            EventQuery::all().with_theme(Theme::new("social").unwrap()),
        ];
        for q in queries {
            assert_eq!(
                sorted(dw.query(&q).unwrap()),
                sorted(dw.query_scan(&q).unwrap()),
                "disagreement on {q:?}"
            );
        }
    }

    #[test]
    fn failed_marker_append_evicts_nothing() {
        let dir = TempDir::new("dw-wal-order").unwrap();
        // One frame per segment, so the marker append has to rotate.
        let config = DurableConfig::at(dir.path()).with_segment_max_bytes(1);
        let mut dw = DurableWarehouse::open(config).unwrap();
        for m in 0..10 {
            dw.insert(event(m, "weather")).unwrap();
        }
        // With the directory gone the rotation — and so the append — fails.
        std::fs::remove_dir_all(dir.path()).unwrap();
        assert!(dw.evict_before(minutes(5)).is_err());
        assert_eq!(dw.hot().len(), 10, "write-ahead: no marker, no eviction");
        assert!(dw.markers.is_empty() && dw.suffix_max.is_empty());
    }

    #[test]
    fn hot_window_query_skips_the_unevicted_log_tail() {
        let dir = TempDir::new("dw-frontier").unwrap();
        let config = DurableConfig::at(dir.path()).with_segment_max_bytes(400);
        let mut dw = DurableWarehouse::open(config).unwrap();
        for m in 0..40 {
            dw.insert(event(m, "weather")).unwrap();
        }
        dw.evict_before(minutes(20)).unwrap();
        for m in 40..80 {
            dw.insert(event(m, "weather")).unwrap();
        }
        let bytes_read = |dw: &DurableWarehouse| {
            let snap = dw.metrics_snapshot();
            snap.counters.get("log/bytes_read").copied().unwrap_or(0)
        };
        // Everything in [50, 70) was logged after the only marker and
        // starts past its horizon: no block can hold a cold match.
        let hot_window = EventQuery::all().in_time(TimeInterval::new(minutes(50), minutes(70)));
        let before = bytes_read(&dw);
        assert_eq!(dw.query(&hot_window).unwrap().len(), 20);
        assert_eq!(bytes_read(&dw), before, "no cold block decoded");
        // A window reaching below the horizon still finds its cold half.
        let straddling = EventQuery::all().in_time(TimeInterval::new(minutes(10), minutes(30)));
        let merged = dw.query(&straddling).unwrap();
        assert!(bytes_read(&dw) > before);
        assert_eq!(sorted(merged), sorted(dw.query_scan(&straddling).unwrap()));
    }

    #[test]
    fn damage_after_open_is_caught_on_every_read() {
        let dir = TempDir::new("dw-damage").unwrap();
        let config = DurableConfig::at(dir.path()).with_segment_max_bytes(400);
        let mut dw = DurableWarehouse::open(config).unwrap();
        for m in 0..40 {
            dw.insert(event(m, "weather")).unwrap();
        }
        dw.evict_before(minutes(40)).unwrap();
        assert!(dw.segment_count() > 2);
        assert_eq!(dw.query(&EventQuery::all()).unwrap().len(), 40);

        // Flip a payload byte of the first frame of the first (sealed)
        // segment, after it was opened, verified and read once.
        let first = dw.log().sealed_metas()[0].first;
        let path = dir.path().join(format!("seg-{first:06}.slg"));
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[8 + 4 + 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let again = dw.query(&EventQuery::all()).map(|found| found.len());
        assert!(
            matches!(again, Err(DurableError::Corrupt(_))),
            "the second read must see the damage: {again:?}"
        );
    }

    #[test]
    fn a_damaged_input_publishes_nothing() {
        use crate::codec::crc32;
        let dir = TempDir::new("dw-damaged-input").unwrap();
        let config = DurableConfig::at(dir.path()).with_segment_max_bytes(400);
        let mut dw = DurableWarehouse::open(config.clone()).unwrap();
        for m in 0..60 {
            dw.insert(event(m, "weather")).unwrap();
            if m % 20 == 19 {
                dw.evict_before(minutes(m - 5)).unwrap();
            }
        }
        let sealed = dw.log().sealed_metas();
        assert!(sealed.len() >= 3);
        let first_frames = u64::from(sealed[0].frames);

        // Flip a payload byte of the second input's first frame.
        let second = dir.path().join(format!("seg-{:06}.slg", sealed[1].first));
        let mut bytes = std::fs::read(&second).unwrap();
        let at = 8;
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        bytes[at + 4 + len / 2] ^= 0xFF;
        std::fs::write(&second, &bytes).unwrap();
        let stored = u32::from_le_bytes(bytes[at + 4 + len..at + 8 + len].try_into().unwrap());
        let computed = crc32(&bytes[at + 4..at + 4 + len]);

        let err = dw.compact_now(minutes(10_000)).unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "durable corruption: {}: frame 0: checksum mismatch \
                 (stored {stored:#010x}, computed {computed:#010x})",
                second.display()
            )
        );
        // Nothing was published, and no partial product is left behind.
        for entry in std::fs::read_dir(dir.path()).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            assert!(!name.contains("-g") && !name.ends_with(".tmp"), "{name}");
        }
        assert_eq!(dw.segment_count(), sealed.len() + 1);

        // The inputs are still the log: reopening cuts at the damaged frame
        // and keeps every frame before it.
        drop(dw);
        let dw = DurableWarehouse::open(config).unwrap();
        let report = dw.recovery_report();
        assert!(report.lossy());
        assert_eq!(report.records(), first_frames);
    }

    #[test]
    fn constrained_queries_merge_correctly() {
        let dir = TempDir::new("dw-query").unwrap();
        let mut dw = DurableWarehouse::open(DurableConfig::at(dir.path())).unwrap();
        for m in 0..40 {
            let theme = if m % 2 == 0 {
                "weather/rain"
            } else {
                "social/tweet"
            };
            dw.insert(event(m, theme)).unwrap();
        }
        dw.evict_before(minutes(20)).unwrap();
        let queries = [
            EventQuery::all(),
            EventQuery::all().in_time(TimeInterval::new(minutes(10), minutes(30))),
            EventQuery::all().with_theme(Theme::new("weather").unwrap()),
            EventQuery::all()
                .in_time(TimeInterval::new(minutes(0), minutes(25)))
                .with_theme(Theme::new("social").unwrap()),
        ];
        for q in queries {
            let merged = sorted(dw.query(&q).unwrap());
            let reference = sorted(dw.query_scan(&q).unwrap());
            assert_eq!(merged, reference, "disagreement on {q:?}");
        }
    }

    #[test]
    fn checkpoints_survive_reopen() {
        use sl_stt::{AttrType, Field, Schema, SensorId, SttMeta};
        let dir = TempDir::new("dw-ckpt").unwrap();
        let schema = Schema::new(vec![Field::new("v", AttrType::Float)])
            .unwrap()
            .into_ref();
        let tuple = Tuple::new(
            schema,
            vec![Value::Float(1.5)],
            SttMeta::without_location(
                Timestamp::from_secs(9),
                Theme::new("weather").unwrap(),
                SensorId(3),
            ),
        )
        .unwrap();
        {
            let mut dw = DurableWarehouse::open(DurableConfig::at(dir.path())).unwrap();
            let base = |tuples: &[&Tuple]| CheckpointDelta {
                reset: true,
                evicted: 0,
                appended: tuples.iter().map(|t| (0, (*t).clone())).collect(),
            };
            dw.persist_checkpoint("agg", "mean", &base(&[&tuple]))
                .unwrap();
            // A later base supersedes the earlier one; deltas extend it.
            dw.persist_checkpoint("agg", "mean", &base(&[&tuple, &tuple]))
                .unwrap();
            let grow = CheckpointDelta {
                reset: false,
                evicted: 1,
                appended: vec![(1, tuple.clone()), (1, tuple.clone())],
            };
            dw.persist_checkpoint("agg", "mean", &grow).unwrap();
            // A delta whose base was never logged extends an empty window.
            dw.persist_checkpoint("agg", "orphan", &grow).unwrap();
        }
        let mut dw = DurableWarehouse::open(DurableConfig::at(dir.path())).unwrap();
        let mut cks = dw.take_checkpoints();
        assert_eq!(cks.len(), 2);
        let ck = cks
            .remove(&("agg".to_string(), "mean".to_string()))
            .unwrap();
        let ports: Vec<usize> = ck.tuples.iter().map(|(port, _)| *port).collect();
        assert_eq!(ports, vec![0, 1, 1], "last base, one evicted, two appended");
        assert_eq!(cks[&("agg".to_string(), "orphan".to_string())].len(), 2);
        assert!(dw.take_checkpoints().is_empty(), "drained");
    }

    #[test]
    fn compaction_preserves_queries_exactly() {
        let dir = TempDir::new("dw-compact").unwrap();
        let config = DurableConfig::at(dir.path()).with_segment_max_bytes(400);
        let mut dw = DurableWarehouse::open(config.clone()).unwrap();
        for m in 0..80 {
            let theme = if m % 2 == 0 {
                "weather/rain"
            } else {
                "social/tweet"
            };
            dw.insert(event(m, theme)).unwrap();
            if m % 20 == 19 {
                dw.evict_before(minutes(m - 10)).unwrap();
            }
        }
        let segments_before = dw.segment_count();
        assert!(segments_before >= 3, "small segments must have rotated");
        let queries = [
            EventQuery::all(),
            EventQuery::all().in_time(TimeInterval::new(minutes(10), minutes(40))),
            EventQuery::all().with_theme(Theme::new("weather").unwrap()),
            EventQuery::all()
                .in_time(TimeInterval::new(minutes(0), minutes(55)))
                .with_theme(Theme::new("social").unwrap()),
        ];
        let before: Vec<Vec<String>> = queries
            .iter()
            .map(|q| dw.query(q).unwrap().iter().map(|e| e.to_string()).collect())
            .collect();

        // No cold_retention configured: nothing the queries can see drops.
        let stats = dw.compact_now(minutes(10_000)).unwrap().unwrap();
        assert!(stats.segments_in >= 2);
        assert_eq!(stats.events_dropped, 0);
        assert!(stats.markers_dropped >= 1, "superseded horizons drop");
        assert!(dw.segment_count() < segments_before);

        for (q, want) in queries.iter().zip(&before) {
            let got: Vec<String> = dw.query(q).unwrap().iter().map(|e| e.to_string()).collect();
            assert_eq!(&got, want, "byte-identical across compaction: {q:?}");
        }

        // And across a reopen of the compacted log.
        drop(dw);
        let mut dw = DurableWarehouse::open(config).unwrap();
        assert!(!dw.recovery_report().lossy());
        for (q, want) in queries.iter().zip(&before) {
            let got: Vec<String> = dw.query(q).unwrap().iter().map(|e| e.to_string()).collect();
            assert_eq!(&got, want, "byte-identical after reopen: {q:?}");
            assert_eq!(
                sorted(dw.query(q).unwrap()),
                sorted(dw.query_scan(q).unwrap()),
                "reference scan agrees: {q:?}"
            );
        }
    }

    #[test]
    fn cold_retention_ages_out_only_expired_cold_events() {
        use sl_stt::Duration;
        let dir = TempDir::new("dw-retire").unwrap();
        let config = DurableConfig::at(dir.path())
            .with_segment_max_bytes(300)
            .with_compaction(
                CompactionPolicy::enabled().with_cold_retention(Duration::from_mins(10)),
            );
        let mut dw = DurableWarehouse::open(config.clone()).unwrap();
        for m in 0..40 {
            dw.insert(event(m, "weather")).unwrap();
        }
        dw.evict_before(minutes(30)).unwrap();
        // A late-arriving *old* event: hot (no later marker covers it), so
        // compaction must keep it even though its interval is ancient.
        dw.insert(event(2, "weather")).unwrap();

        let stats = dw.compact_now(minutes(100)).unwrap().unwrap();
        assert_eq!(stats.events_dropped, 30, "all expired cold events age out");
        let all = dw.query(&EventQuery::all()).unwrap();
        assert_eq!(all.len(), 11, "10 hot tail + 1 late arrival survive");

        drop(dw);
        let mut dw = DurableWarehouse::open(config).unwrap();
        assert_eq!(dw.hot().len(), 11, "hot store rebuilds from survivors");
        assert_eq!(dw.query(&EventQuery::all()).unwrap().len(), 11);
        let snap = dw.metrics_snapshot();
        assert!(snap.counters.contains_key("log/recovered_records"));
    }

    #[test]
    fn maybe_compact_respects_policy() {
        let dir = TempDir::new("dw-policy").unwrap();
        // Disabled (the default): maybe_compact is a no-op.
        let mut dw =
            DurableWarehouse::open(DurableConfig::at(dir.path()).with_segment_max_bytes(300))
                .unwrap();
        assert!(!dw.compaction_enabled());
        for m in 0..40 {
            dw.insert(event(m, "weather")).unwrap();
        }
        assert!(dw.maybe_compact(minutes(100)).unwrap().is_none());
        drop(dw);

        // Enabled: a run of at least four small sealed segments merges on
        // the next tick.
        let config = DurableConfig::at(dir.path())
            .with_segment_max_bytes(300)
            .with_compaction(CompactionPolicy::enabled());
        let mut dw = DurableWarehouse::open(config).unwrap();
        assert!(dw.compaction_enabled());
        let segments = dw.segment_count();
        assert!(segments >= 5, "four sealed segments under the active one");
        let stats = dw.maybe_compact(minutes(100)).unwrap().unwrap();
        assert!(stats.segments_in >= 4);
        assert_eq!(stats.generation, 1);
        assert!(dw.segment_count() < segments);
        let snap = dw.metrics_snapshot();
        assert_eq!(snap.counters["compaction/runs"], 1);
        // Steady state eventually: repeated ticks stop finding work.
        for _ in 0..10 {
            dw.maybe_compact(minutes(100)).unwrap();
        }
        assert!(dw.maybe_compact(minutes(100)).unwrap().is_none());
        assert_eq!(
            sorted(dw.query(&EventQuery::all()).unwrap()),
            sorted(dw.query_scan(&EventQuery::all()).unwrap())
        );
    }

    #[test]
    fn a_fold_too_big_for_one_frame_keeps_its_base_and_deltas() {
        use sl_stt::{AttrType, Field, Schema, SensorId, SttMeta};
        // One 9 MiB tuple: a base of one and a delta appending another fit
        // a frame each, their fold does not.
        let big = |v: i64| {
            let schema = Schema::new(vec![Field::new("s", AttrType::Str)])
                .unwrap()
                .into_ref();
            let meta = SttMeta::without_location(
                Timestamp::from_secs(v),
                Theme::new("weather").unwrap(),
                SensorId(1),
            );
            let text = v.to_string().repeat(9 << 20);
            (0, Tuple::new(schema, vec![Value::Str(text)], meta).unwrap())
        };
        let dir = TempDir::new("dw-big-fold").unwrap();
        let config = DurableConfig::at(dir.path())
            .with_segment_max_bytes(1 << 20)
            .with_compaction(CompactionPolicy::enabled());
        let mut dw = DurableWarehouse::open(config.clone()).unwrap();
        let (base, appended) = (big(1), big(2));
        let mut delta = CheckpointDelta {
            reset: true,
            evicted: 0,
            appended: vec![base.clone()],
        };
        dw.persist_checkpoint("edw", "hourly", &delta).unwrap();
        (delta.reset, delta.appended) = (false, vec![appended.clone()]);
        dw.persist_checkpoint("edw", "hourly", &delta).unwrap();
        dw.insert(event(0, "weather")).unwrap(); // seals the delta's segment

        let stats = dw.compact_now(minutes(1)).unwrap();
        assert!(stats.is_some_and(|s| s.segments_in == 2 && s.checkpoints_dropped == 0));
        // The merged run is not planned again and again.
        assert!(dw.maybe_compact(minutes(1)).is_ok());
        drop(dw);

        let mut dw = DurableWarehouse::open(config).unwrap();
        let key = ("edw".to_string(), "hourly".to_string());
        let window = dw.take_checkpoints().remove(&key).unwrap();
        assert_eq!(window.tuples, vec![base, appended]);
    }
}
