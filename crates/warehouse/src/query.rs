//! Index-backed event selection.
//!
//! An [`EventQuery`] is a conjunction of up to three STT constraints — a
//! time range, a spatial bounding box, and a theme subtree — mirroring the
//! three dimensions of the paper's space–time–thematic event model. The
//! warehouse answers a query from one of its indexes (temporal, spatial
//! grid, theme): each index with a corresponding constraint counts its
//! candidates from the lengths of its position lists, only the one with the
//! fewest copies them, and each candidate is verified with
//! [`EventQuery::matches`]; with no constraints populated it degrades to a
//! full scan. Correctness against a brute-force scan over random data is
//! property-tested in the store's test suite, and every query updates the
//! warehouse's query statistics.
//!
//! Queries also pre-select the events fed into cube roll-ups
//! (`CubeQuery::select` in [`crate::cube`]).

use crate::store::{EventWarehouse, Pos, TIME_INDEX_GRAN};
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
                // One index lists an event once (one time granule, one
                // theme, one grid cell), so sorting alone restores storage
                // order.
                positions.sort_unstable();
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

    /// Choose the cheapest index for `q`: every applicable index counts its
    /// candidates from its list lengths, and only the one with the fewest
    /// copies its positions. `None` means no index applies (full scan).
    fn pick_index(&self, q: &EventQuery) -> Option<Vec<Pos>> {
        let time = q.time.map(|range| {
            // An event overlapping the range starts after `range.start`
            // minus its own length, so at most the longest stored interval
            // before it.
            let lo = TIME_INDEX_GRAN.granule_of(range.start.saturating_sub(self.longest));
            let hi = TIME_INDEX_GRAN.granule_of(range.end);
            self.time_index.range(lo..=hi).map(|(_, ps)| ps)
        });
        // All indexed themes under the queried subtree: range from the theme
        // itself and take while still a descendant.
        let theme = q.theme.as_ref().map(|theme| {
            self.theme_index
                .range(theme.clone()..)
                .take_while(move |(t, _)| t.is_a(theme))
                .map(|(_, ps)| ps)
        });
        // World-granule events are absent from the spatial index (they
        // intersect every area), so the index is only sound when none are
        // stored. The count is maintained at ingest/eviction time, not
        // discovered by a scan here.
        let space = q
            .area
            .as_ref()
            .filter(|_| self.world_events == 0)
            .map(|area| {
                self.space_index
                    .iter()
                    .filter(move |(cell, _)| cell.extent().intersects(area))
                    .map(|(_, ps)| ps)
            });
        let counts = [
            time.clone().map(count),
            theme.clone().map(count),
            space.clone().map(count),
        ];
        let (fewest, n) = counts
            .into_iter()
            .enumerate()
            .filter_map(|(i, n)| Some((i, n?)))
            .min_by_key(|&(_, n)| n)?;
        match fewest {
            0 => time.map(|lists| copy(lists, n)),
            1 => theme.map(|lists| copy(lists, n)),
            _ => space.map(|lists| copy(lists, n)),
        }
    }
}

/// Candidates an index holds in `lists`, without touching a position.
fn count<'a>(lists: impl Iterator<Item = &'a Vec<Pos>>) -> usize {
    lists.map(Vec::len).sum()
}

/// The `n` positions in `lists`, in one allocation.
fn copy<'a>(lists: impl Iterator<Item = &'a Vec<Pos>>, n: usize) -> Vec<Pos> {
    let mut positions = Vec::with_capacity(n);
    for ps in lists {
        positions.extend_from_slice(ps);
    }
    positions
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
