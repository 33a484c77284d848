//! Multigranular STT roll-ups.
//!
//! The STT model's payoff: events stored at fine granularities can be
//! re-expressed at any coarser space–time granularity and aggregated per
//! theme — the warehouse-side counterpart of the stream Aggregation
//! operator, feeding "further analysis" and visualisation (paper §3).
//!
//! The grouping and folding primitives ([`cell_slot`], [`CellAcc`]) are
//! public so that incremental consumers — the `sl-cq` materialized views —
//! reproduce [`EventWarehouse::rollup`]'s arithmetic bit-for-bit: folding a
//! cell's contributions in storage order through a [`CellAcc`] yields
//! exactly the [`CubeCell`] a full rescan would compute.

use crate::query::EventQuery;
use crate::store::EventWarehouse;
use sl_stt::{Event, SpatialGranularity, SpatialGranule, TemporalGranularity, Theme, Value};
use std::collections::BTreeMap;

/// A roll-up request.
#[derive(Debug, Clone)]
pub struct CubeQuery {
    /// Pre-selection of events.
    pub select: EventQuery,
    /// Target temporal granularity (coarser than the stored events').
    pub tgran: TemporalGranularity,
    /// Target spatial granularity.
    pub sgran: SpatialGranularity,
    /// Theme depth to group at (1 = root segment). Events deeper in the
    /// hierarchy roll up to their ancestor at this depth.
    pub theme_depth: usize,
}

/// One cell of the roll-up.
#[derive(Debug, Clone, PartialEq)]
pub struct CubeCell {
    /// Temporal granule index (under the query's `tgran`).
    pub tgranule: i64,
    /// Spatial granule.
    pub sgranule: SpatialGranule,
    /// Theme prefix at the requested depth.
    pub theme: Theme,
    /// Events aggregated into this cell.
    pub count: u64,
    /// Mean of numeric event values (None if no numeric values).
    pub avg: Option<f64>,
    /// Sum of numeric event values.
    pub sum: f64,
    /// Minimum numeric value.
    pub min: Option<f64>,
    /// Maximum numeric value.
    pub max: Option<f64>,
}

/// The grouping key of a roll-up cell: (temporal granule, spatial granule
/// rendering, theme prefix rendering). String renderings keep the ordering
/// total and identical between one-shot roll-ups and incremental views.
pub type CellKey = (i64, String, String);

/// Where one event lands in a cube: its cell key, the cell's display
/// coordinates, and the event's numeric contribution (if any).
#[derive(Debug, Clone)]
pub struct CellSlot {
    /// The grouping key.
    pub key: CellKey,
    /// The coarsened spatial granule of the cell.
    pub sgranule: SpatialGranule,
    /// The theme prefix of the cell.
    pub theme: Theme,
    /// The event's numeric value, when it has one.
    pub numeric: Option<f64>,
}

/// Place an event in the cube described by `q`: apply the pre-selection,
/// coarsen to the target granularities, and truncate the theme. `None` if
/// the event is filtered out or cannot be coarsened (already coarser, or
/// incomparable).
pub fn cell_slot(event: &Event, q: &CubeQuery) -> Option<CellSlot> {
    if !q.select.matches(event) {
        return None;
    }
    let tgranule = event.tgran.coarsen(event.tgranule, q.tgran).ok()?;
    let sgranule = event.sgranule.coarsen(q.sgran).ok()?;
    let theme = event.theme.ancestor(q.theme_depth);
    Some(CellSlot {
        key: (tgranule, sgranule.to_string(), theme.to_string()),
        sgranule,
        theme,
        numeric: numeric_value(&event.value),
    })
}

/// Streaming accumulator for one cube cell. Absorbing a cell's
/// contributions in storage order reproduces the fold a brute-force rescan
/// performs, floating-point quirks included, so incremental maintenance
/// stays byte-identical to [`EventWarehouse::rollup`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellAcc {
    count: u64,
    sum: f64,
    nnum: u64,
    min: Option<f64>,
    max: Option<f64>,
}

impl CellAcc {
    /// A fresh, empty accumulator.
    pub fn new() -> CellAcc {
        CellAcc::default()
    }

    /// Absorb one contribution (the `numeric` field of a [`CellSlot`]).
    pub fn absorb(&mut self, numeric: Option<f64>) {
        self.count += 1;
        if let Some(v) = numeric {
            self.sum += v;
            self.nnum += 1;
            self.min = Some(self.min.map_or(v, |m| m.min(v)));
            self.max = Some(self.max.map_or(v, |m| m.max(v)));
        }
    }

    /// True if nothing has been absorbed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Events absorbed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Freeze into a [`CubeCell`] at the given coordinates.
    pub fn to_cell(&self, tgranule: i64, sgranule: SpatialGranule, theme: Theme) -> CubeCell {
        CubeCell {
            tgranule,
            sgranule,
            theme,
            count: self.count,
            avg: (self.nnum > 0).then(|| self.sum / self.nnum as f64),
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }
}

/// Fold pre-selected events (in storage order) into sorted cube cells —
/// the shared core of [`EventWarehouse::rollup`] and
/// [`EventWarehouse::rollup_scan`].
fn rollup_events<'a>(events: impl Iterator<Item = &'a Event>, q: &CubeQuery) -> Vec<CubeCell> {
    let mut cells: BTreeMap<CellKey, (SpatialGranule, Theme, CellAcc)> = BTreeMap::new();
    for event in events {
        let Some(slot) = cell_slot(event, q) else {
            continue;
        };
        let entry = cells
            .entry(slot.key)
            .or_insert_with(|| (slot.sgranule, slot.theme, CellAcc::new()));
        entry.2.absorb(slot.numeric);
    }
    cells
        .into_iter()
        .map(|((tgranule, _, _), (sgranule, theme, acc))| acc.to_cell(tgranule, sgranule, theme))
        .collect()
}

impl EventWarehouse {
    /// Compute the roll-up. Events whose granularity cannot be coarsened to
    /// the requested one (already coarser, or incomparable) are skipped.
    pub fn rollup(&mut self, q: &CubeQuery) -> Vec<CubeCell> {
        let out = rollup_events(self.query(&q.select).into_iter(), q);
        self.metrics.counter("rollups").inc();
        self.metrics
            .counter("cube_cells_updated")
            .add(out.len() as u64);
        out
    }

    /// Reference implementation of [`EventWarehouse::rollup`]: a full scan
    /// through a shared reference, with no instrument updates. The indexed
    /// path visits the selected events in the same storage order, so the
    /// two produce identical cells; equivalence suites (and `sl-cq`'s
    /// incremental views) compare against this.
    pub fn rollup_scan(&self, q: &CubeQuery) -> Vec<CubeCell> {
        rollup_events(self.iter(), q)
    }
}

/// The numeric reading of a value, if it has one (ints, floats, bools).
/// Strings and other payloads contribute to cell counts but not to the
/// numeric aggregates.
pub fn numeric_value(v: &Value) -> Option<f64> {
    match v {
        Value::Int(_) | Value::Float(_) | Value::Bool(_) => v.as_f64().ok(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)] // tests may panic freely

    use super::*;
    use sl_stt::{Event, GeoPoint, TimeInterval, Timestamp};

    fn event(min: i64, theme: &str, v: f64, lat: f64) -> Event {
        Event::new(
            Value::Float(v),
            TemporalGranularity::Minute,
            TemporalGranularity::Minute.granule_of(Timestamp::from_secs(min * 60)),
            SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(lat, 135.5)),
            Theme::new(theme).unwrap(),
        )
    }

    fn populated() -> EventWarehouse {
        let mut w = EventWarehouse::with_defaults();
        // Two hours of minute-level temperatures, plus tweets.
        for m in 0..120 {
            w.insert(event(
                m,
                "weather/temperature/t1",
                20.0 + (m % 10) as f64,
                34.7,
            ));
        }
        for m in 0..60 {
            w.insert(event(m * 2, "social/tweet/text", 1.0, 34.7));
        }
        w
    }

    #[test]
    fn hourly_rollup_by_theme_root() {
        let mut w = populated();
        let cells = w.rollup(&CubeQuery {
            select: EventQuery::all(),
            tgran: TemporalGranularity::Hour,
            sgran: SpatialGranularity::grid(2),
            theme_depth: 1,
        });
        // 2 hours x 2 theme roots = 4 cells.
        assert_eq!(cells.len(), 4);
        let weather: Vec<&CubeCell> = cells
            .iter()
            .filter(|c| c.theme.as_str() == "weather")
            .collect();
        assert_eq!(weather.len(), 2);
        for c in &weather {
            assert_eq!(c.count, 60);
            let avg = c.avg.unwrap();
            assert!((24.0..25.0).contains(&avg), "avg {avg}"); // mean of 20..29
            assert_eq!(c.min, Some(20.0));
            assert_eq!(c.max, Some(29.0));
        }
        let social: Vec<&CubeCell> = cells
            .iter()
            .filter(|c| c.theme.as_str() == "social")
            .collect();
        assert_eq!(social[0].count + social.get(1).map_or(0, |c| c.count), 60);
    }

    #[test]
    fn counts_are_conserved() {
        let mut w = populated();
        let cells = w.rollup(&CubeQuery {
            select: EventQuery::all(),
            tgran: TemporalGranularity::Day,
            sgran: SpatialGranularity::World,
            theme_depth: 1,
        });
        let total: u64 = cells.iter().map(|c| c.count).sum();
        assert_eq!(total as usize, w.len());
    }

    #[test]
    fn selection_narrows_rollup() {
        let mut w = populated();
        let cells = w.rollup(&CubeQuery {
            select: EventQuery::all()
                .with_theme(Theme::new("weather").unwrap())
                .in_time(TimeInterval::new(
                    Timestamp::from_secs(0),
                    Timestamp::from_secs(3600),
                )),
            tgran: TemporalGranularity::Hour,
            sgran: SpatialGranularity::World,
            theme_depth: 1,
        });
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].count, 60);
        assert_eq!(cells[0].theme.as_str(), "weather");
    }

    #[test]
    fn theme_depth_two_keeps_subthemes_apart() {
        let mut w = EventWarehouse::with_defaults();
        w.insert(event(0, "weather/temperature/a", 1.0, 34.7));
        w.insert(event(0, "weather/rain/b", 2.0, 34.7));
        let cells = w.rollup(&CubeQuery {
            select: EventQuery::all(),
            tgran: TemporalGranularity::Hour,
            sgran: SpatialGranularity::World,
            theme_depth: 2,
        });
        assert_eq!(cells.len(), 2);
        let themes: Vec<&str> = cells.iter().map(|c| c.theme.as_str()).collect();
        assert!(themes.contains(&"weather/temperature"));
        assert!(themes.contains(&"weather/rain"));
    }

    #[test]
    fn incoarsenable_events_skipped() {
        let mut w = EventWarehouse::with_defaults();
        // Hour-granule event cannot be rolled up to minutes.
        w.insert(Event::new(
            Value::Float(1.0),
            TemporalGranularity::Hour,
            0,
            SpatialGranule::World,
            Theme::new("weather").unwrap(),
        ));
        let cells = w.rollup(&CubeQuery {
            select: EventQuery::all(),
            tgran: TemporalGranularity::Minute,
            sgran: SpatialGranularity::World,
            theme_depth: 1,
        });
        assert!(cells.is_empty());
    }

    #[test]
    fn non_numeric_values_counted_but_not_averaged() {
        let mut w = EventWarehouse::with_defaults();
        w.insert(Event::new(
            Value::Str("heavy rain!".into()),
            TemporalGranularity::Minute,
            0,
            SpatialGranule::World,
            Theme::new("social/tweet").unwrap(),
        ));
        let cells = w.rollup(&CubeQuery {
            select: EventQuery::all(),
            tgran: TemporalGranularity::Hour,
            sgran: SpatialGranularity::World,
            theme_depth: 1,
        });
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].count, 1);
        assert_eq!(cells[0].avg, None);
        assert_eq!(cells[0].min, None);
    }

    #[test]
    fn rollup_scan_agrees_with_indexed_rollup() {
        let mut w = populated();
        let queries = [
            CubeQuery {
                select: EventQuery::all(),
                tgran: TemporalGranularity::Hour,
                sgran: SpatialGranularity::grid(2),
                theme_depth: 1,
            },
            CubeQuery {
                select: EventQuery::all().with_theme(Theme::new("weather").unwrap()),
                tgran: TemporalGranularity::Day,
                sgran: SpatialGranularity::World,
                theme_depth: 2,
            },
            CubeQuery {
                select: EventQuery::all().in_time(TimeInterval::new(
                    Timestamp::from_secs(0),
                    Timestamp::from_secs(1800),
                )),
                tgran: TemporalGranularity::Hour,
                sgran: SpatialGranularity::grid(4),
                theme_depth: 3,
            },
        ];
        for q in queries {
            assert_eq!(w.rollup_scan(&q), w.rollup(&q), "disagreement on {q:?}");
        }
    }
}
