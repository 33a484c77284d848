//! Incrementally maintained roll-up views.
//!
//! A [`MaterializedView`] keeps a `CubeQuery`'s answer current without ever
//! rescanning the warehouse: each ingested event updates exactly the one
//! cell it lands in (O(affected cells) per tuple), and eviction retracts
//! the contributions of evicted events. The correctness contract — checked
//! by the engine's equivalence suite — is that [`MaterializedView::cells`]
//! is **byte-identical** to `EventWarehouse::rollup_scan` over the hot
//! store at every point in time.
//!
//! Floating-point addition is not associative, so "byte-identical" forces
//! two design points:
//!
//! * **Appends are exact as-is.** The warehouse appends, so a new event is
//!   the *last* contribution in its cell's storage-order fold; extending
//!   the running [`CellAcc`] reproduces the rescan's fold bit for bit.
//! * **Retraction refolds.** Eviction removes arbitrary (oldest)
//!   contributions from the middle of a fold; no algebraic "subtract"
//!   gives back the bits a rescan of the survivors would produce. Each
//!   cell therefore keeps its contribution list `(interval-end, value)` in
//!   storage order and refolds the survivors on retraction.

use sl_stt::{Event, Timestamp};
use sl_warehouse::{cell_slot, CellAcc, CellMap, CubeCell, CubeQuery};

/// Per-cell state: the storage-order contribution list (for retraction
/// refolds) and the running accumulator.
#[derive(Debug, Clone, Default)]
struct CellState {
    /// `(event interval end in epoch millis, numeric value)` per absorbed
    /// event, in storage order. Eviction removes entries with
    /// `end <= horizon` — the same predicate the warehouse applies.
    contribs: Vec<(i64, Option<f64>)>,
    acc: CellAcc,
}

/// A standing `CubeQuery` whose answer is maintained event by event.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    query: CubeQuery,
    /// Cells keyed by value, as `EventWarehouse::rollup` keys them: folding
    /// an event into an open cell allocates only when its contribution list
    /// grows.
    cells: CellMap<CellState>,
    /// Earliest interval end (epoch millis) among held contributions,
    /// `i64::MAX` when there are none: a horizon below it retracts nothing.
    min_end: i64,
    contributions: u64,
    retractions: u64,
}

impl MaterializedView {
    /// An empty view over `query`. Seed it with the warehouse's current
    /// contents (in storage order) via [`MaterializedView::absorb`] before
    /// serving reads.
    pub fn new(query: CubeQuery) -> MaterializedView {
        MaterializedView {
            query,
            cells: CellMap::default(),
            min_end: i64::MAX,
            contributions: 0,
            retractions: 0,
        }
    }

    /// The standing query.
    pub fn query(&self) -> &CubeQuery {
        &self.query
    }

    /// Fold one ingested event into its cell. Returns `true` if the event
    /// contributed (matched the pre-selection and coarsened cleanly).
    pub fn absorb(&mut self, event: &Event) -> bool {
        let Some(slot) = cell_slot(event, &self.query) else {
            return false;
        };
        let end = event.time_interval().end.as_millis();
        self.cells.update(&slot, |cell| {
            cell.contribs.push((end, slot.numeric));
            cell.acc.absorb(slot.numeric);
        });
        self.min_end = self.min_end.min(end);
        self.contributions += 1;
        true
    }

    /// Retract the contributions of events the warehouse evicts at
    /// `horizon` (those whose interval ends at or before it). Touched cells
    /// refold their survivors; emptied cells disappear. Returns the number
    /// of contributions retracted. O(1) when nothing expires.
    pub fn retract_before(&mut self, horizon: Timestamp) -> usize {
        let h = horizon.as_millis();
        if h < self.min_end {
            return 0;
        }
        let mut retracted = 0;
        let mut min_end = i64::MAX;
        self.cells.retain(|cell| {
            let before = cell.contribs.len();
            cell.contribs.retain(|&(end, _)| {
                let keep = end > h;
                if keep {
                    min_end = min_end.min(end);
                }
                keep
            });
            let gone = before - cell.contribs.len();
            if gone > 0 {
                retracted += gone;
                cell.acc = CellAcc::new();
                for &(_, v) in &cell.contribs {
                    cell.acc.absorb(v);
                }
            }
            !cell.contribs.is_empty()
        });
        self.min_end = min_end;
        self.retractions += retracted as u64;
        retracted
    }

    /// The current answer, identical to what a fresh
    /// `EventWarehouse::rollup_scan` of the hot store would return.
    pub fn cells(&self) -> Vec<CubeCell> {
        self.cells.to_cells(|cell| &cell.acc)
    }

    /// Live (non-empty) cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Contributions currently held across all cells.
    pub fn contribution_count(&self) -> usize {
        self.cells.values().map(|c| c.contribs.len()).sum()
    }

    /// Total contributions ever absorbed.
    pub fn contributions(&self) -> u64 {
        self.contributions
    }

    /// Total contributions ever retracted by eviction.
    pub fn retractions(&self) -> u64 {
        self.retractions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{GeoPoint, SpatialGranularity, TemporalGranularity, Theme, Timestamp, Value};
    use sl_warehouse::{EventQuery, EventWarehouse};

    fn event(min: i64, theme: &str, v: f64) -> Event {
        Event::new(
            Value::Float(v),
            TemporalGranularity::Minute,
            TemporalGranularity::Minute.granule_of(Timestamp::from_secs(min * 60)),
            SpatialGranularity::grid(8).granule_of(&GeoPoint::new_unchecked(34.7, 135.5)),
            Theme::new(theme).unwrap(),
        )
    }

    fn hourly() -> CubeQuery {
        CubeQuery {
            select: EventQuery::all(),
            tgran: TemporalGranularity::Hour,
            sgran: SpatialGranularity::World,
            theme_depth: 1,
        }
    }

    /// The contract, in miniature: absorb == rescan at every step.
    #[test]
    fn view_tracks_rollup_scan_under_ingest() {
        let q = hourly();
        let mut view = MaterializedView::new(q.clone());
        let mut w = EventWarehouse::with_defaults();
        for m in 0..180 {
            let e = event(
                m,
                if m % 3 == 0 {
                    "social/tweet"
                } else {
                    "weather/temp"
                },
                0.1 * m as f64,
            );
            w.insert(e.clone());
            view.absorb(&e);
            assert_eq!(view.cells(), w.rollup_scan(&q), "diverged at minute {m}");
        }
        assert_eq!(view.contributions(), 180);
    }

    #[test]
    fn retraction_matches_evicted_warehouse() {
        let q = hourly();
        let mut view = MaterializedView::new(q.clone());
        let mut w = EventWarehouse::with_defaults();
        for m in 0..240 {
            let e = event(m, "weather/temp", (m % 17) as f64 * 0.3);
            w.insert(e.clone());
            view.absorb(&e);
        }
        for horizon_min in [60, 150, 240] {
            let horizon = Timestamp::from_secs(horizon_min * 60);
            w.evict_before(horizon);
            view.retract_before(horizon);
            assert_eq!(
                view.cells(),
                w.rollup_scan(&q),
                "diverged at horizon {horizon_min}"
            );
        }
        assert!(view.cells().is_empty());
        assert_eq!(view.retractions(), 240);
        assert_eq!(view.cell_count(), 0);
    }

    #[test]
    fn filtered_events_do_not_contribute() {
        let q = CubeQuery {
            select: EventQuery::all().with_theme(Theme::new("weather").unwrap()),
            ..hourly()
        };
        let mut view = MaterializedView::new(q);
        assert!(view.absorb(&event(0, "weather/temp", 1.0)));
        assert!(!view.absorb(&event(0, "social/tweet", 1.0)));
        assert_eq!(view.cells().len(), 1);
        assert_eq!(view.cells()[0].count, 1);
    }

    /// Refolding (not subtracting) keeps sums bit-exact: values chosen so
    /// that `(a + b + c) - a != b + c` in f64 arithmetic.
    #[test]
    fn retraction_refolds_rather_than_subtracts() {
        let q = hourly();
        let mut view = MaterializedView::new(q.clone());
        let mut w = EventWarehouse::with_defaults();
        let vals = [1e16, 1.0, -1e16, 3.3, 0.1];
        for (i, v) in vals.iter().enumerate() {
            let e = event(i as i64, "weather/temp", *v);
            w.insert(e.clone());
            view.absorb(&e);
        }
        let horizon = Timestamp::from_secs(2 * 60); // evicts the first two
        w.evict_before(horizon);
        view.retract_before(horizon);
        let scan = w.rollup_scan(&q);
        let cells = view.cells();
        assert_eq!(cells, scan);
        assert_eq!(cells[0].sum.to_bits(), scan[0].sum.to_bits());
    }
}
