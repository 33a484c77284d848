//! Index-backed event selection.
//!
//! An [`EventQuery`] is a conjunction of up to three STT constraints — a
//! time range, a spatial bounding box, and a theme subtree — mirroring the
//! three dimensions of the paper's space–time–thematic event model. The
//! warehouse answers a query by intersecting candidate sets from whichever
//! of its indexes (temporal, spatial grid, theme) have a corresponding
//! constraint, then verifying each survivor with [`EventQuery::matches`];
//! with no constraints populated it degrades to a full scan. Correctness
//! against a brute-force scan over random data is property-tested in the
//! store's test suite, and every query updates the warehouse's query
//! statistics.
//!
//! Queries also pre-select the events fed into cube roll-ups
//! (`CubeQuery::select` in [`crate::cube`]).

use crate::store::{EventWarehouse, Pos};
use sl_stt::{BoundingBox, Event, Theme, TimeInterval};

/// A conjunctive selection over stored events. Equal queries select the
/// same events, which lets standing subscriptions share one match.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventQuery {
    /// Keep events whose time interval overlaps this range.
    pub time: Option<TimeInterval>,
    /// Keep events whose spatial extent intersects this area.
    pub area: Option<BoundingBox>,
    /// Keep events whose theme is this theme or a descendant.
    pub theme: Option<Theme>,
}

impl EventQuery {
    /// The match-all query.
    pub fn all() -> EventQuery {
        EventQuery::default()
    }

    /// Restrict to a time range.
    pub fn in_time(mut self, range: TimeInterval) -> EventQuery {
        self.time = Some(range);
        self
    }

    /// Restrict to an area.
    pub fn in_area(mut self, area: BoundingBox) -> EventQuery {
        self.area = Some(area);
        self
    }

    /// Restrict to a theme subtree.
    pub fn with_theme(mut self, theme: Theme) -> EventQuery {
        self.theme = Some(theme);
        self
    }

    /// True if `event` satisfies every populated constraint.
    pub fn matches(&self, event: &Event) -> bool {
        if let Some(range) = &self.time {
            if !event.time_interval().overlaps(range) {
                return false;
            }
        }
        if let Some(area) = &self.area {
            if !event.sgranule.extent().intersects(area) {
                return false;
            }
        }
        if let Some(theme) = &self.theme {
            if !event.theme.is_a(theme) {
                return false;
            }
        }
        true
    }
}

impl EventWarehouse {
    /// Answer a query using the most selective applicable index, then
    /// filtering. Results come back in storage order.
    ///
    /// A pure read: all index maintenance happens at ingest/eviction time,
    /// so standing queries (`sl-cq`) and one-shot queries share this path
    /// through a shared reference. The query counter in
    /// [`WarehouseStats`](crate::WarehouseStats) still ticks (interior
    /// mutability).
    pub fn query(&self, q: &EventQuery) -> Vec<&Event> {
        self.select(q).collect()
    }

    /// [`EventWarehouse::query`]'s answer, one event at a time: for callers
    /// that fold the answer rather than keep it (roll-ups).
    pub(crate) fn select<'a, 'q>(
        &'a self,
        q: &'q EventQuery,
    ) -> impl Iterator<Item = &'a Event> + use<'a, 'q> {
        self.note_query();
        let (indexed, scan) = match self.pick_index(q) {
            Some(mut positions) => {
                positions.sort_unstable();
                positions.dedup();
                (Some(positions), None)
            }
            None => (None, Some(self.iter())),
        };
        indexed
            .into_iter()
            .flatten()
            .filter_map(|p| self.at(p))
            .chain(scan.into_iter().flatten())
            .filter(move |e| q.matches(e))
    }

    /// Reference implementation: full scan. Property tests compare this
    /// against [`EventWarehouse::query`].
    pub fn query_scan(&self, q: &EventQuery) -> Vec<&Event> {
        self.iter().filter(|e| q.matches(e)).collect()
    }

    /// Choose the cheapest index for `q`: candidate position lists are
    /// gathered per applicable index and the shortest wins. `None` means no
    /// index applies (full scan).
    fn pick_index(&self, q: &EventQuery) -> Option<Vec<Pos>> {
        let mut best: Option<Vec<Pos>> = None;
        let mut consider = |positions: Vec<Pos>| {
            if best.as_ref().is_none_or(|b| positions.len() < b.len()) {
                best = Some(positions);
            }
        };
        if let Some(range) = &q.time {
            let g = self.config().time_index_gran;
            let lo = g.granule_of(range.start);
            let hi = g.granule_of(range.end);
            let mut positions = Vec::new();
            // Include one granule before `lo`: an event indexed earlier can
            // still overlap the range start.
            for (_, ps) in self.time_index.range(lo - 1..=hi) {
                positions.extend_from_slice(ps);
            }
            consider(positions);
        }
        if let Some(theme) = &q.theme {
            let mut positions = Vec::new();
            // All indexed themes under the queried subtree: range from the
            // theme itself and take while still a descendant.
            for (t, ps) in self.theme_index.range(theme.clone()..) {
                if !t.is_a(theme) {
                    break;
                }
                positions.extend_from_slice(ps);
            }
            consider(positions);
        }
        if let Some(area) = &q.area {
            // World-granule events are absent from the spatial index (they
            // intersect every area), so the index is only sound when none
            // are stored. The count is maintained at ingest/eviction time,
            // not discovered by a scan here.
            if self.world_events == 0 {
                let mut positions = Vec::new();
                for (cell, ps) in &self.space_index {
                    if cell.extent().intersects(area) {
                        positions.extend_from_slice(ps);
                    }
                }
                consider(positions);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {

    use super::*;
    use crate::store::WarehouseConfig;
    use sl_stt::{GeoPoint, SpatialGranularity, TemporalGranularity, Timestamp, Value};

    fn event(hour: u32, theme: &str, lat: f64, lon: f64) -> Event {
        let t = Timestamp::from_civil(2016, 7, 1, hour, 30, 0);
        Event::new(
            Value::Float(f64::from(hour)),
            TemporalGranularity::Minute,
            TemporalGranularity::Minute.granule_of(t),
            SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(lat, lon)),
            Theme::new(theme).unwrap(),
        )
    }

    fn populated() -> EventWarehouse {
        let mut w = EventWarehouse::new(WarehouseConfig::default());
        for h in 0..24 {
            w.insert(event(h, "weather/temperature", 34.7, 135.5)); // Osaka
            w.insert(event(h, "weather/rain", 34.7, 135.5));
            w.insert(event(h, "social/tweet", 35.01, 135.77)); // Kyoto
        }
        w
    }

    fn interval(h1: u32, h2: u32) -> TimeInterval {
        TimeInterval::new(
            Timestamp::from_civil(2016, 7, 1, h1, 0, 0),
            Timestamp::from_civil(2016, 7, 1, h2, 0, 0),
        )
    }

    #[test]
    fn time_query() {
        let w = populated();
        let out = w.query(&EventQuery::all().in_time(interval(6, 9)));
        assert_eq!(out.len(), 9); // 3 themes x 3 hours
        for e in out {
            assert!(e.time_interval().overlaps(&interval(6, 9)));
        }
    }

    #[test]
    fn theme_query_matches_subtree() {
        let w = populated();
        let weather = w.query(&EventQuery::all().with_theme(Theme::new("weather").unwrap()));
        assert_eq!(weather.len(), 48);
        let rain = w.query(&EventQuery::all().with_theme(Theme::new("weather/rain").unwrap()));
        assert_eq!(rain.len(), 24);
    }

    #[test]
    fn area_query() {
        let w = populated();
        let osaka_box = BoundingBox::from_corners(
            GeoPoint::new_unchecked(34.4, 135.2),
            GeoPoint::new_unchecked(34.9, 135.7),
        );
        let out = w.query(&EventQuery::all().in_area(osaka_box));
        assert_eq!(out.len(), 48); // the two Osaka themes
    }

    #[test]
    fn combined_query() {
        let w = populated();
        let q = EventQuery::all()
            .in_time(interval(10, 12))
            .with_theme(Theme::new("weather/rain").unwrap());
        let out = w.query(&q);
        assert_eq!(out.len(), 2);
        assert_eq!(w.stats().queries, 1);
    }

    #[test]
    fn query_agrees_with_scan() {
        let w = populated();
        let queries = [
            EventQuery::all(),
            EventQuery::all().in_time(interval(0, 5)),
            EventQuery::all().with_theme(Theme::new("social").unwrap()),
            EventQuery::all().in_area(BoundingBox::from_corners(
                GeoPoint::new_unchecked(34.0, 135.0),
                GeoPoint::new_unchecked(36.0, 136.0),
            )),
            EventQuery::all()
                .in_time(interval(3, 20))
                .with_theme(Theme::new("weather").unwrap()),
        ];
        for q in queries {
            let scan: Vec<String> = w.query_scan(&q).iter().map(|e| e.to_string()).collect();
            let fast: Vec<String> = w.query(&q).iter().map(|e| e.to_string()).collect();
            assert_eq!(scan, fast, "disagreement on {q:?}");
        }
    }

    #[test]
    fn empty_warehouse_answers_empty() {
        let w = EventWarehouse::with_defaults();
        assert!(w.query(&EventQuery::all()).is_empty());
        assert!(w
            .query(&EventQuery::all().in_time(interval(0, 1)))
            .is_empty());
    }

    #[test]
    fn boundary_overlap_included() {
        // An event whose minute-granule starts before the range but overlaps
        // its start must be found (the lo-1 in the index range).
        let mut w = EventWarehouse::with_defaults();
        // Event at 05:59-06:00.
        w.insert(event(5, "weather", 34.7, 135.5));
        let q = EventQuery::all().in_time(TimeInterval::new(
            Timestamp::from_civil(2016, 7, 1, 5, 30, 30),
            Timestamp::from_civil(2016, 7, 1, 7, 0, 0),
        ));
        assert_eq!(w.query(&q).len(), 1);
    }
}
