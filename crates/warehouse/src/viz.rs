//! ASCII visualisation of stored events — the stand-in for the Sticker
//! geo-visualisation tool the paper demos as an alternative sink
//! (§4, P2: "or visualized in the Sticker visualization tool", reference 11).

use crate::query::EventQuery;
use crate::store::EventWarehouse;
use sl_stt::BoundingBox;

/// Density ramp, sparse → dense.
const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// Render a `cols`×`rows` density heat-map of the events matching `query`
/// inside `area` (events outside the area, or at world granularity, are
/// skipped). North is up. Cells are scaled to the maximum cell count.
pub fn render_heatmap(
    warehouse: &EventWarehouse,
    query: &EventQuery,
    area: BoundingBox,
    cols: usize,
    rows: usize,
) -> String {
    let cols = cols.max(1);
    let rows = rows.max(1);
    let mut counts = vec![vec![0u64; cols]; rows];
    let lat_span = (area.max.lat - area.min.lat).max(1e-12);
    let lon_span = (area.max.lon - area.min.lon).max(1e-12);
    for event in warehouse.query(query) {
        if event.sgranule == sl_stt::SpatialGranule::World {
            continue;
        }
        let p = event.sgranule.center();
        if !area.contains(&p) {
            continue;
        }
        let col = (((p.lon - area.min.lon) / lon_span) * cols as f64) as usize;
        let row = (((p.lat - area.min.lat) / lat_span) * rows as f64) as usize;
        counts[row.min(rows - 1)][col.min(cols - 1)] += 1;
    }
    let max = counts.iter().flatten().copied().max().unwrap_or(0);
    let mut out = String::with_capacity((cols + 3) * (rows + 2));
    out.push('┌');
    out.push_str(&"─".repeat(cols));
    out.push_str("┐\n");
    // Highest latitude row first (north up).
    for row in counts.iter().rev() {
        out.push('│');
        for &c in row {
            let ch = if max == 0 || c == 0 {
                ' '
            } else {
                let idx = 1 + (c - 1) * (RAMP.len() as u64 - 1) / max.max(1);
                RAMP[(idx as usize).min(RAMP.len() - 1)]
            };
            out.push(ch);
        }
        out.push_str("│\n");
    }
    out.push('└');
    out.push_str(&"─".repeat(cols));
    out.push_str("┘\n");
    out.push_str(&format!("max cell: {max} events\n"));
    out
}

#[cfg(test)]
mod tests {

    use super::*;
    use sl_stt::{Event, GeoPoint, SpatialGranularity, TemporalGranularity, Theme, Value};

    fn event_at(lat: f64, lon: f64) -> Event {
        Event::new(
            Value::Float(1.0),
            TemporalGranularity::Minute,
            0,
            SpatialGranularity::grid(12).granule_of(&GeoPoint::new_unchecked(lat, lon)),
            Theme::new("weather").unwrap(),
        )
    }

    fn osaka_box() -> BoundingBox {
        BoundingBox::from_corners(
            GeoPoint::new_unchecked(34.0, 135.0),
            GeoPoint::new_unchecked(35.0, 136.0),
        )
    }

    #[test]
    fn hot_corner_renders_dense() {
        let mut w = EventWarehouse::with_defaults();
        // Cluster in the south-west corner, singleton in the north-east.
        for _ in 0..50 {
            w.insert(event_at(34.1, 135.1));
        }
        w.insert(event_at(34.9, 135.9));
        let map = render_heatmap(&w, &EventQuery::all(), osaka_box(), 10, 6);
        let lines: Vec<&str> = map.lines().collect();
        // Frame + 6 rows + footer.
        assert_eq!(lines.len(), 9);
        // The dense cluster is in the last (southern) data row, near the left.
        let south = lines[6];
        assert!(south.contains('@'), "south row should be dense: {south:?}");
        // The singleton renders faint in the first data row, near the right.
        let north = lines[1];
        assert!(north.contains('.'), "north row should be faint: {north:?}");
        assert!(map.contains("max cell: 50"));
    }

    #[test]
    fn empty_warehouse_renders_blank() {
        let w = EventWarehouse::with_defaults();
        let map = render_heatmap(&w, &EventQuery::all(), osaka_box(), 8, 4);
        assert!(map.contains("max cell: 0"));
        for line in map.lines().skip(1).take(4) {
            assert!(line.chars().all(|c| c == ' ' || c == '│'), "{line:?}");
        }
    }

    #[test]
    fn out_of_area_and_world_events_skipped() {
        let mut w = EventWarehouse::with_defaults();
        w.insert(event_at(40.0, 140.0)); // Tokyo-ish: outside the box
        w.insert(Event::new(
            Value::Int(1),
            TemporalGranularity::Minute,
            0,
            sl_stt::SpatialGranule::World,
            Theme::new("weather").unwrap(),
        ));
        let map = render_heatmap(&w, &EventQuery::all(), osaka_box(), 8, 4);
        assert!(map.contains("max cell: 0"));
    }

    #[test]
    fn degenerate_dimensions_clamped() {
        let mut w = EventWarehouse::with_defaults();
        w.insert(event_at(34.5, 135.5));
        let map = render_heatmap(&w, &EventQuery::all(), osaka_box(), 0, 0);
        assert!(map.contains("max cell: 1"));
    }
}
