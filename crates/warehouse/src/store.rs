//! The append-only event store and its indexes.

use sl_obs::{Counter, Histogram, MetricsSnapshot, Stopwatch};
use sl_stt::{
    Duration, Event, SpatialGranularity, SpatialGranule, TemporalGranularity, Theme, Timestamp,
    Tuple,
};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BinaryHeap, HashMap};

/// Temporal granularity of the time index: one position list per granule,
/// keyed by the granule an event starts in. A query counts the lists its
/// range spans, so the finer the grain, the closer that count is to the
/// events the range can hold.
pub(crate) const TIME_INDEX_GRAN: TemporalGranularity = TemporalGranularity::Minute;
/// Spatial granularity of the grid index.
const SPACE_INDEX_GRAN: SpatialGranularity = SpatialGranularity::Grid { level: 5 };

/// Store configuration.
#[derive(Debug, Clone)]
pub struct WarehouseConfig {
    /// Events per segment (bounds per-segment scan cost).
    pub segment_capacity: usize,
}

impl Default for WarehouseConfig {
    fn default() -> Self {
        WarehouseConfig {
            segment_capacity: 4096,
        }
    }
}

/// Ingest/usage counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarehouseStats {
    /// Events stored.
    pub events: u64,
    /// Tuples ingested via [`EventWarehouse::ingest_tuple`].
    pub tuples: u64,
    /// Queries answered.
    pub queries: u64,
    /// Sealed segments.
    pub segments: u64,
    /// Stored events pinned at the `World` granule.
    pub world_events: u64,
}

/// Position of an event: (segment, offset). Stable until the store repacks
/// (see [`EventWarehouse::evict_before`]).
pub(crate) type Pos = (u32, u32);

/// The Event Data Warehouse.
pub struct EventWarehouse {
    config: WarehouseConfig,
    /// Slots in insertion order; `None` is the tombstone of an evicted
    /// event, so survivors keep their [`Pos`] and the indexes stay valid.
    pub(crate) segments: Vec<Vec<Option<Event>>>,
    /// time-index granule -> positions of the events starting in it.
    pub(crate) time_index: BTreeMap<i64, Vec<Pos>>,
    /// The longest interval stored since the last repack: an event that
    /// overlaps a query range starts no earlier than this before the
    /// range does, which bounds how far back the time index is read.
    pub(crate) longest: Duration,
    /// grid cell -> positions (only for events with sub-world granules).
    pub(crate) space_index: HashMap<SpatialGranule, Vec<Pos>>,
    /// theme -> positions.
    pub(crate) theme_index: BTreeMap<Theme, Vec<Pos>>,
    stats: WarehouseStats,
    /// Stored events pinned at the `World` granule (absent from the spatial
    /// index). Maintained at ingest/eviction time so the query planner never
    /// has to scan for them — part of keeping [`EventWarehouse::query`] a
    /// pure read (`&self`).
    pub(crate) world_events: u64,
    /// Live events by interval end, earliest first: exactly one entry per
    /// live event, so eviction pops the expired ones and touches nothing
    /// else.
    expiry: BinaryHeap<Reverse<(Timestamp, Pos)>>,
    /// Tombstoned slots (and dead index entries) since the last repack.
    tombstones: usize,
    /// Queries answered. Interior-mutable so the read path stays `&self`;
    /// folded into [`WarehouseStats::queries`] by [`EventWarehouse::stats`].
    queries: Cell<u64>,
    /// Observability: ingest latency histogram, ETL and cube counters.
    pub(crate) inst: WarehouseInstruments,
}

sl_obs::instruments! {
    /// The warehouse's instruments (`warehouse/*` in the engine's snapshot).
    pub(crate) struct WarehouseInstruments {
        ingest_us: Histogram = "ingest_us",
        tuples_ingested: Counter = "tuples_ingested",
        events_stored: Counter = "events_stored",
        pub(crate) rollups: Counter = "rollups",
        pub(crate) cube_cells_updated: Counter = "cube_cells_updated",
    }
}

impl EventWarehouse {
    /// An empty warehouse.
    pub fn new(config: WarehouseConfig) -> EventWarehouse {
        EventWarehouse {
            config,
            segments: vec![Vec::new()],
            time_index: BTreeMap::new(),
            longest: Duration::ZERO,
            space_index: HashMap::new(),
            theme_index: BTreeMap::new(),
            stats: WarehouseStats::default(),
            world_events: 0,
            expiry: BinaryHeap::new(),
            tombstones: 0,
            queries: Cell::new(0),
            inst: WarehouseInstruments::default(),
        }
    }

    /// A warehouse with default configuration.
    pub fn with_defaults() -> EventWarehouse {
        EventWarehouse::new(WarehouseConfig::default())
    }

    /// Usage counters.
    pub fn stats(&self) -> WarehouseStats {
        WarehouseStats {
            queries: self.queries.get(),
            world_events: self.world_events,
            ..self.stats
        }
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.stats.events as usize
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.stats.events == 0
    }

    /// Append one event. An event whose theme is already indexed is stored
    /// with the index's `Theme`, so the hot tier keeps one theme allocation
    /// per distinct theme, not one per event (equal themes are
    /// indistinguishable, so no answer changes).
    pub fn insert(&mut self, mut event: Event) {
        // The open segment is the last one; a full one is sealed first.
        let mut slots = self.segments.pop().unwrap_or_default();
        if slots.len() >= self.config.segment_capacity {
            self.segments.push(std::mem::take(&mut slots));
            self.stats.segments += 1;
        }
        let pos = (self.segments.len() as u32, slots.len() as u32);

        // Index by the *start* of the event's interval at the index
        // granularity.
        let span = event.time_interval();
        let t_idx = TIME_INDEX_GRAN.granule_of(span.start);
        self.time_index.entry(t_idx).or_default().push(pos);
        self.longest = self.longest.max(span.length());

        if event.sgranule == SpatialGranule::World {
            self.world_events += 1;
        } else {
            let cell = SPACE_INDEX_GRAN.granule_of(&event.sgranule.center());
            self.space_index.entry(cell).or_default().push(pos);
        }
        match self.theme_index.entry(event.theme) {
            Entry::Occupied(mut indexed) => {
                event.theme = indexed.key().clone();
                indexed.get_mut().push(pos);
            }
            Entry::Vacant(new) => {
                event.theme = new.key().clone();
                new.insert(vec![pos]);
            }
        }

        self.expiry.push(Reverse((span.end, pos)));
        slots.push(Some(event));
        self.segments.push(slots);
        self.stats.events += 1;
    }

    /// Ingest a dataflow tuple: every non-null, non-string attribute becomes
    /// one event pinned at the configured granularities. Returns how many
    /// events were stored.
    ///
    /// This is the LOAD step of the ETL pipeline: the warehouse's model is
    /// events, not rows, following the STT definition (paper §3).
    pub fn ingest_tuple(
        &mut self,
        tuple: &Tuple,
        tgran: TemporalGranularity,
        sgran: SpatialGranularity,
    ) -> usize {
        self.ingest_events(tuple_events(tuple, tgran, sgran))
    }

    /// Ingest a tuple's worth of pre-expanded events (see [`tuple_events`]).
    /// Durable tiers use this to insert the same events they just logged
    /// without translating the tuple twice.
    pub fn ingest_events(&mut self, events: Vec<Event>) -> usize {
        let sw = Stopwatch::start();
        self.stats.tuples += 1;
        let stored = events.len();
        for event in events {
            self.insert(event);
        }
        self.inst.ingest_us.record(sw.elapsed_us());
        self.inst.tuples_ingested.inc();
        self.inst.events_stored.add(stored as u64);
        stored
    }

    /// Freeze the warehouse's instruments (ingest latency, ETL and cube
    /// counters) into a snapshot.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inst.snapshot()
    }

    /// Look up an event by position; `None` if it was evicted since the
    /// position was indexed.
    pub(crate) fn at(&self, pos: Pos) -> Option<&Event> {
        self.segments[pos.0 as usize][pos.1 as usize].as_ref()
    }

    /// Iterate every stored event (oldest first within segments).
    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.segments.iter().flatten().flatten()
    }

    pub(crate) fn note_query(&self) {
        self.queries.set(self.queries.get() + 1);
    }

    /// The earliest interval end among stored events: `evict_before(h)`
    /// evicts something iff this is `Some(end)` with `end <= h`. O(1).
    pub fn next_expiry(&self) -> Option<Timestamp> {
        self.expiry.peek().map(|Reverse((end, _))| *end)
    }

    /// Retention: drop every event whose interval ends at or before
    /// `horizon`. Returns how many events were evicted.
    ///
    /// O(evicted · log n): expired events are popped off the expiry order
    /// and their slots tombstoned; survivors, their positions and the
    /// indexes are untouched (queries skip dead positions). Once tombstones
    /// outnumber live events the store repacks — O(n), amortised over the
    /// evictions that caused it — so slots and index entries stay within
    /// 2× the live events even when one far-future event outlives
    /// everything inserted after it.
    pub fn evict_before(&mut self, horizon: Timestamp) -> usize {
        let mut evicted = 0;
        while let Some(&Reverse((end, pos))) = self.expiry.peek() {
            if end > horizon {
                break;
            }
            self.expiry.pop();
            // Expiry entries point at live slots: one entry per live event.
            let Some(event) = self.segments[pos.0 as usize][pos.1 as usize].take() else {
                continue;
            };
            if event.sgranule == SpatialGranule::World {
                self.world_events -= 1;
            }
            evicted += 1;
        }
        self.stats.events -= evicted as u64;
        self.tombstones += evicted;
        if self.tombstones > self.len() {
            self.repack();
        }
        evicted
    }

    /// Drop every tombstone: re-insert the live events, in order, into
    /// fresh segments and indexes.
    fn repack(&mut self) {
        let old = std::mem::replace(&mut self.segments, vec![Vec::new()]);
        self.time_index.clear();
        self.longest = Duration::ZERO; // re-measured as live events re-insert
        self.space_index.clear();
        self.theme_index.clear();
        self.expiry.clear();
        self.tombstones = 0;
        self.world_events = 0; // re-counted as live events re-insert
        self.stats.events = 0;
        self.stats.segments = 0;
        for event in old.into_iter().flatten().flatten() {
            self.insert(event);
        }
    }
}

/// The TRANSLATE step of ingestion, side-effect free: expand a tuple into
/// the events it yields at the given granularities. Every non-null,
/// non-geo attribute becomes one event whose theme is qualified with the
/// attribute name; tuples without a location pin to the World granule.
///
/// Iterates the schema by reference — no per-tuple schema clone on the
/// ingest hot path.
pub fn tuple_events(
    tuple: &Tuple,
    tgran: TemporalGranularity,
    sgran: SpatialGranularity,
) -> Vec<Event> {
    let effective_sgran = if tuple.meta.location.is_some() {
        sgran
    } else {
        SpatialGranularity::World
    };
    let mut events = Vec::with_capacity(tuple.schema().len());
    for (field, value) in tuple.schema().fields().iter().zip(tuple.values()) {
        if value.is_null() {
            continue;
        }
        // Strings carry through too (tweet text is data), but geo
        // duplicates the location; skip it.
        if matches!(value, sl_stt::Value::Geo(_)) {
            continue;
        }
        if let Ok(mut event) = Event::from_tuple(tuple, &field.name, tgran, effective_sgran) {
            // Qualify the theme with the attribute so events from one
            // tuple stay distinguishable.
            if let Ok(theme) = event.theme.child(&field.name) {
                event.theme = theme;
            }
            events.push(event);
        }
    }
    events
}

#[cfg(test)]
mod tests {

    use super::*;
    use sl_stt::{AttrType, Field, GeoPoint, Schema, SensorId, SttMeta, Value};

    fn event(sec: i64, theme: &str, lat: f64, v: f64) -> Event {
        let g = SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(lat, 135.5));
        Event::new(
            Value::Float(v),
            TemporalGranularity::Minute,
            TemporalGranularity::Minute.granule_of(Timestamp::from_secs(sec)),
            g,
            Theme::new(theme).unwrap(),
        )
    }

    #[test]
    fn insert_and_iterate() {
        let mut w = EventWarehouse::with_defaults();
        for i in 0..10 {
            w.insert(event(i * 60, "weather/temperature", 34.7, i as f64));
        }
        assert_eq!(w.len(), 10);
        assert_eq!(w.iter().count(), 10);
        assert!(!w.is_empty());
    }

    #[test]
    fn segments_roll_over() {
        let mut w = EventWarehouse::new(WarehouseConfig {
            segment_capacity: 16,
        });
        for i in 0..100 {
            w.insert(event(i, "weather", 34.7, 0.0));
        }
        assert!(w.segments.len() >= 6);
        assert_eq!(w.iter().count(), 100);
        assert!(w.stats().segments >= 5);
    }

    #[test]
    fn ingest_tuple_expands_attributes() {
        let schema = Schema::new(vec![
            Field::new("temperature", AttrType::Float),
            Field::new("humidity", AttrType::Float),
            Field::new("station", AttrType::Str),
            Field::new("missing", AttrType::Float),
        ])
        .unwrap()
        .into_ref();
        let t = Tuple::new(
            schema,
            vec![
                Value::Float(26.0),
                Value::Float(60.0),
                Value::Str("osaka".into()),
                Value::Null,
            ],
            SttMeta::new(
                Timestamp::from_secs(0),
                GeoPoint::new_unchecked(34.7, 135.5),
                Theme::new("weather/temperature").unwrap(),
                SensorId(1),
            ),
        )
        .unwrap();
        let mut w = EventWarehouse::with_defaults();
        let stored = w.ingest_tuple(&t, TemporalGranularity::Minute, SpatialGranularity::grid(8));
        // temperature + humidity + station (null skipped).
        assert_eq!(stored, 3);
        assert_eq!(w.stats().tuples, 1);
        // Attribute-qualified themes.
        let themes: Vec<String> = w.iter().map(|e| e.theme.to_string()).collect();
        assert!(themes.contains(&"weather/temperature/temperature".to_string()));
        assert!(themes.contains(&"weather/temperature/humidity".to_string()));
    }

    #[test]
    fn unlocated_tuple_stored_at_world() {
        let schema = Schema::new(vec![Field::new("v", AttrType::Float)])
            .unwrap()
            .into_ref();
        let t = Tuple::new(
            schema,
            vec![Value::Float(1.0)],
            SttMeta::without_location(
                Timestamp::from_secs(0),
                Theme::new("social/tweet").unwrap(),
                SensorId(0),
            ),
        )
        .unwrap();
        let mut w = EventWarehouse::with_defaults();
        assert_eq!(
            w.ingest_tuple(&t, TemporalGranularity::Minute, SpatialGranularity::grid(8)),
            1
        );
        assert_eq!(w.iter().next().unwrap().sgranule, SpatialGranule::World);
        // World events are not in the spatial index but remain queryable.
        assert!(w.space_index.is_empty());
    }

    #[test]
    fn retention_evicts_old_events_and_keeps_queries_correct() {
        let mut w = EventWarehouse::with_defaults();
        for i in 0..100 {
            w.insert(event(i * 60, "weather/temperature", 34.7, i as f64));
        }
        // Evict the first half (events at minutes 0..49).
        let horizon = Timestamp::from_secs(50 * 60);
        let evicted = w.evict_before(horizon);
        assert_eq!(evicted, 50);
        assert_eq!(w.len(), 50);
        // All remaining events end after the horizon.
        for e in w.iter() {
            assert!(e.time_interval().end > horizon);
        }
        // Indexes skip the evicted positions: query equals scan.
        let q =
            crate::query::EventQuery::all().with_theme(crate::store::tests::theme_of("weather"));
        let scan = w.query_scan(&q).len();
        let fast = w.query(&q).len();
        assert_eq!(scan, fast);
        assert_eq!(scan, 50);
        // Evicting everything empties the store but keeps it usable.
        assert_eq!(w.evict_before(Timestamp::from_secs(1_000_000)), 50);
        assert!(w.is_empty());
        w.insert(event(0, "weather", 34.7, 1.0));
        assert_eq!(w.len(), 1);
    }

    pub(crate) fn theme_of(s: &str) -> Theme {
        Theme::new(s).unwrap()
    }

    #[test]
    fn indexes_cover_all_events() {
        let mut w = EventWarehouse::with_defaults();
        for i in 0..50 {
            w.insert(event(i * 3600, "weather/temperature", 34.7, 0.0));
        }
        let time_total: usize = w.time_index.values().map(Vec::len).sum();
        let theme_total: usize = w.theme_index.values().map(Vec::len).sum();
        let space_total: usize = w.space_index.values().map(Vec::len).sum();
        assert_eq!(time_total, 50);
        assert_eq!(theme_total, 50);
        assert_eq!(space_total, 50);
        // 50 distinct hours -> 50 time-index entries.
        assert_eq!(w.time_index.len(), 50);
        // One theme.
        assert_eq!(w.theme_index.len(), 1);
    }

    /// A far-future event inserted first pins the front of the store while
    /// everything behind it expires: slots and index entries must still
    /// track the live population, not the eviction history.
    #[test]
    fn eviction_keeps_memory_within_twice_live() {
        let mut w = EventWarehouse::new(WarehouseConfig {
            segment_capacity: 64,
        });
        w.insert(event(1_000_000_000, "weather", 34.7, 0.0));
        const WINDOW: i64 = 100; // minutes retained behind the newest event
        for i in 0..100_000i64 {
            w.insert(event(i * 60, "weather/temperature", 34.7, 0.0));
            let evicted = w.evict_before(Timestamp::from_secs((i - WINDOW) * 60));
            assert!(evicted <= 1);
            let live = w.len();
            assert!(live <= WINDOW as usize + 2);
            let bound = 2 * live + 1;
            let slots: usize = w.segments.iter().map(Vec::len).sum();
            let time_total: usize = w.time_index.values().map(Vec::len).sum();
            let theme_total: usize = w.theme_index.values().map(Vec::len).sum();
            let space_total: usize = w.space_index.values().map(Vec::len).sum();
            for held in [slots, time_total, theme_total, space_total] {
                assert!(held <= bound, "{held} entries for {live} live events");
            }
            assert_eq!(w.expiry.len(), live);
            assert!(w.time_index.len() <= bound, "dead granules linger");
        }
        assert_eq!(w.iter().count(), w.len());
        assert_eq!(
            w.iter().next(),
            Some(&event(1_000_000_000, "weather", 34.7, 0.0))
        );
    }
}
