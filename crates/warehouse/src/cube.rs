//! Multigranular STT roll-ups.
//!
//! The STT model's payoff: events stored at fine granularities can be
//! re-expressed at any coarser space–time granularity and aggregated per
//! theme — the warehouse-side counterpart of the stream Aggregation
//! operator, feeding "further analysis" and visualisation (paper §3).
//!
//! The grouping and folding primitives ([`cell_slot`], [`CellMap`],
//! [`CellAcc`]) are public so that incremental consumers — the `sl-cq`
//! materialized views — reproduce [`EventWarehouse::rollup`]'s arithmetic
//! and order bit-for-bit: folding a cell's contributions in storage order
//! through a [`CellAcc`] yields exactly the [`CubeCell`] a full rescan
//! would compute, and [`CellMap::to_cells`] lists cells in one order for
//! both.
//!
//! Cells are keyed by value — temporal granule, spatial granule, theme
//! prefix — so an event that lands in an open cell renders nothing and
//! allocates nothing. Answers list cells by temporal granule, then by the
//! spatial granule's and the theme's *renderings*, the order the cube has
//! always had (`cell8(1000, 88)` before `cell8(224, 88)`); a spatial
//! granule is rendered once, when the first cell at it opens.

use crate::query::EventQuery;
use crate::store::EventWarehouse;
use sl_stt::{Event, SpatialGranularity, SpatialGranule, TemporalGranularity, Theme, Value};
use std::collections::btree_map::Entry;
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

/// The grouping key of a roll-up cell, by value: temporal granule, spatial
/// granule and theme prefix, the prefix borrowed from the event's theme.
pub type CellKey<'a> = (i64, SpatialGranule, &'a str);

/// Where one event lands in a cube: its cell's key and the event's numeric
/// contribution (if any).
#[derive(Debug, Clone, Copy)]
pub struct CellSlot<'a> {
    /// The grouping key.
    pub key: CellKey<'a>,
    /// The event's numeric value, when it has one.
    pub numeric: Option<f64>,
    /// The event's theme and the depth `key.2` cuts it at.
    theme: &'a Theme,
    depth: usize,
}

impl CellSlot<'_> {
    /// The cell's theme prefix as a [`Theme`]: the event's own when the
    /// prefix is all of it, otherwise a new one (made when a cell opens).
    fn theme(&self) -> Theme {
        self.theme.ancestor(self.depth)
    }
}

/// Place an event in the cube described by `q`: apply the pre-selection,
/// coarsen to the target granularities, and truncate the theme. `None` if
/// the event is filtered out or cannot be coarsened (already coarser, or
/// incomparable) — decided before coarsening, so a skipped event costs no
/// error.
pub fn cell_slot<'a>(event: &'a Event, q: &CubeQuery) -> Option<CellSlot<'a>> {
    if !q.select.matches(event)
        || !event.tgran.finer_or_equal(q.tgran)
        || !event.sgranule.granularity().finer_or_equal(q.sgran)
    {
        return None;
    }
    // `finer_or_equal` is the only check either `coarsen` makes, so neither
    // fails here: the `?`s below never fire, and a rejected event never
    // reaches the error `String`s `coarsen` would format.
    let tgranule = event.tgran.coarsen(event.tgranule, q.tgran).ok()?;
    let sgranule = event.sgranule.coarsen(q.sgran).ok()?;
    Some(CellSlot {
        key: (tgranule, sgranule, event.theme.prefix(q.theme_depth)),
        numeric: numeric_value(&event.value),
        theme: &event.theme,
        depth: q.theme_depth,
    })
}

/// Roll-up cells keyed by value: by temporal and spatial granule (a
/// *column*), then by theme prefix. Finding an open cell borrows the
/// event's key and allocates nothing; opening one makes its [`Theme`], and
/// opening a column renders its spatial granule into the answer order.
#[derive(Debug, Clone)]
pub struct CellMap<V> {
    /// One slot per column. A column that closes leaves its slot empty
    /// (no cells) for the next one to open, so no slot ever moves.
    columns: Vec<Column<V>>,
    /// The empty slots of `columns`.
    free: Vec<usize>,
    /// Where each open column sits in `columns`.
    at: BTreeMap<(i64, SpatialGranule), usize>,
    /// `columns` in answer order: by temporal granule, then by the spatial
    /// granule's rendering. Kept as columns open and close, so an answer
    /// walks it and sorts nothing.
    order: BTreeMap<(i64, String, SpatialGranule), usize>,
}

/// The cells of one temporal and spatial granule, sorted by theme prefix (a
/// column holds a handful, so they sit in one vector and are found by
/// binary search).
#[derive(Debug, Clone)]
struct Column<V> {
    tgranule: i64,
    sgranule: SpatialGranule,
    themes: Vec<(Theme, V)>,
}

impl<V> Default for CellMap<V> {
    fn default() -> Self {
        CellMap {
            columns: Vec::new(),
            free: Vec::new(),
            at: BTreeMap::new(),
            order: BTreeMap::new(),
        }
    }
}

impl<V: Default> CellMap<V> {
    /// Apply `f` to the value of `slot`'s cell, opening the cell (with
    /// `V::default()`) if it is new.
    pub fn update(&mut self, slot: &CellSlot<'_>, f: impl FnOnce(&mut V)) {
        let (tgranule, sgranule, prefix) = slot.key;
        let i = match self.at.entry((tgranule, sgranule)) {
            Entry::Occupied(entry) => *entry.get(),
            Entry::Vacant(entry) => {
                let i = match self.free.pop() {
                    Some(i) => {
                        let column = &mut self.columns[i];
                        (column.tgranule, column.sgranule) = (tgranule, sgranule);
                        i
                    }
                    None => {
                        self.columns.push(Column {
                            tgranule,
                            sgranule,
                            themes: Vec::new(),
                        });
                        self.columns.len() - 1
                    }
                };
                // The one place a cell key is rendered: once per column,
                // for the answer's order.
                self.order
                    .insert((tgranule, sgranule.to_string(), sgranule), i);
                *entry.insert(i)
            }
        };
        let themes = &mut self.columns[i].themes;
        let at = match themes.binary_search_by(|(theme, _)| theme.as_str().cmp(prefix)) {
            Ok(at) => at,
            Err(at) => {
                themes.insert(at, (slot.theme(), V::default()));
                at
            }
        };
        f(&mut themes[at].1);
    }
}

impl<V> CellMap<V> {
    /// Keep the cells whose value `keep` (which may change it) returns
    /// `true` for.
    pub fn retain(&mut self, mut keep: impl FnMut(&mut V) -> bool) {
        let free = self.free.len();
        for (i, column) in self.columns.iter_mut().enumerate() {
            if column.themes.is_empty() {
                continue; // already free
            }
            column.themes.retain_mut(|(_, value)| keep(value));
            if column.themes.is_empty() {
                self.at.remove(&(column.tgranule, column.sgranule));
                self.free.push(i);
            }
        }
        if self.free.len() != free {
            let columns = &self.columns;
            self.order.retain(|_, &mut i| !columns[i].themes.is_empty());
        }
    }

    /// The cells' values.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.columns
            .iter()
            .flat_map(|column| column.themes.iter().map(|(_, value)| value))
    }

    /// Number of open cells.
    pub fn len(&self) -> usize {
        self.columns.iter().map(|column| column.themes.len()).sum()
    }

    /// True if no cell is open.
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// The answer: one [`CubeCell`] per open cell, from the accumulator
    /// `acc` finds in its value, in the cube's order — by temporal granule,
    /// then by the spatial granule's rendering, then by theme prefix.
    pub fn to_cells(&self, acc: impl Fn(&V) -> &CellAcc) -> Vec<CubeCell> {
        let mut out = Vec::with_capacity(self.len());
        for &i in self.order.values() {
            let column = &self.columns[i];
            out.extend(
                column.themes.iter().map(|(theme, v)| {
                    acc(v).to_cell(column.tgranule, column.sgranule, theme.clone())
                }),
            );
        }
        out
    }
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
    let mut cells = CellMap::<CellAcc>::default();
    for event in events {
        if let Some(slot) = cell_slot(event, q) {
            cells.update(&slot, |acc| acc.absorb(slot.numeric));
        }
    }
    cells.to_cells(|acc| acc)
}

impl EventWarehouse {
    /// Compute the roll-up. Events whose granularity cannot be coarsened to
    /// the requested one (already coarser, or incomparable) are skipped.
    pub fn rollup(&mut self, q: &CubeQuery) -> Vec<CubeCell> {
        let out = rollup_events(self.select(&q.select), q);
        self.inst.rollups.inc();
        self.inst.cube_cells_updated.add(out.len() as u64);
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
