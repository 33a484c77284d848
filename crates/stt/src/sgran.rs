//! Spatial granularities: partitions of geographic space into *granules*.
//!
//! Mirrors the temporal granularity lattice in [`crate::time`]: a spatial
//! granularity maps a [`GeoPoint`] to a [`SpatialGranule`] identifier, a
//! granule back to its bounding box, and granularities compare in a
//! finer/coarser partial order. This is what lets StreamLoader state
//! consistency constraints like "temperature in a room versus temperatures in
//! a geographical area" (paper §1) and aggregate heterogeneous streams at a
//! common resolution.
//!
//! The implementation uses regular lat/lon grids whose cell edge is
//! `1/2^level` degrees: level 0 ≈ a city district block of 1°×1°, higher
//! levels halve the edge. Grids at different levels nest exactly, giving a
//! clean containment lattice. [`SpatialGranularity::Point`] (exact positions)
//! is the finest element and [`SpatialGranularity::World`] the coarsest.

use crate::error::SttError;
use crate::space::{BoundingBox, GeoPoint};
use std::fmt;

/// Maximum supported grid level (cell edge `1/2^20` degrees ≈ 10 cm).
pub(crate) const MAX_GRID_LEVEL: u8 = 20;

/// A spatial granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpatialGranularity {
    /// Exact positions; the finest granularity (every point its own granule).
    Point,
    /// Regular lat/lon grid with cell edge `1/2^level` degrees.
    Grid {
        /// Subdivision level in `0..=MAX_GRID_LEVEL`.
        level: u8,
    },
    /// The whole globe as a single granule; the coarsest granularity.
    World,
}

impl SpatialGranularity {
    /// A grid granularity, clamping the level into the supported range.
    pub fn grid(level: u8) -> SpatialGranularity {
        SpatialGranularity::Grid {
            level: level.min(MAX_GRID_LEVEL),
        }
    }

    /// Grid cell edge in degrees, if this is a grid.
    pub fn cell_deg(self) -> Option<f64> {
        match self {
            SpatialGranularity::Grid { level } => Some(1.0 / f64::from(1u32 << level)),
            _ => None,
        }
    }

    /// The granule containing point `p`.
    pub fn granule_of(self, p: &GeoPoint) -> SpatialGranule {
        match self {
            SpatialGranularity::Point => SpatialGranule::Point {
                // Quantise to 1e-7 degrees (~1 cm) so granules are hashable.
                lat_e7: (p.lat * 1e7).round() as i64,
                lon_e7: (p.lon * 1e7).round() as i64,
            },
            SpatialGranularity::Grid { level } => {
                let edge = 1.0 / f64::from(1u32 << level);
                SpatialGranule::Cell {
                    level,
                    ix: (p.lon / edge).floor() as i32,
                    iy: (p.lat / edge).floor() as i32,
                }
            }
            SpatialGranularity::World => SpatialGranule::World,
        }
    }

    /// True if `self` is finer than or equal to `other` (every granule of
    /// `other` is a union of granules of `self`).
    pub fn finer_or_equal(self, other: SpatialGranularity) -> bool {
        use SpatialGranularity::*;
        match (self, other) {
            (Point, _) | (_, World) => true,
            (Grid { level: a }, Grid { level: b }) => a >= b,
            (World, _) => matches!(other, World),
            (Grid { .. }, Point) => false,
        }
    }

    /// True if the two granularities are comparable; grids always are.
    pub fn comparable(self, other: SpatialGranularity) -> bool {
        self.finer_or_equal(other) || other.finer_or_equal(self)
    }

    /// The finer of the two granularities (grid levels take the max).
    pub fn meet(self, other: SpatialGranularity) -> SpatialGranularity {
        if self.finer_or_equal(other) {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SpatialGranularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpatialGranularity::Point => write!(f, "point"),
            SpatialGranularity::Grid { level } => write!(f, "grid{level}"),
            SpatialGranularity::World => write!(f, "world"),
        }
    }
}

impl SpatialGranularity {
    /// Parse from the identifiers used in DSN documents (`point`, `gridN`,
    /// `world`).
    pub fn parse(s: &str) -> Result<SpatialGranularity, SttError> {
        let s = s.trim();
        match s {
            "point" => Ok(SpatialGranularity::Point),
            "world" => Ok(SpatialGranularity::World),
            _ => {
                if let Some(level) = s.strip_prefix("grid") {
                    level
                        .parse::<u8>()
                        .ok()
                        .filter(|l| *l <= MAX_GRID_LEVEL)
                        .map(|level| SpatialGranularity::Grid { level })
                        .ok_or_else(|| SttError::Parse(format!("bad grid level in `{s}`")))
                } else {
                    Err(SttError::Parse(format!(
                        "unknown spatial granularity `{s}`"
                    )))
                }
            }
        }
    }
}

/// A spatial granule identifier: one unit of space at some granularity.
///
/// The derived order (points, then cells, then the world; fields in
/// declaration order) is a value order for keying maps, not the order
/// roll-up answers are listed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SpatialGranule {
    /// An exact position quantised to 1e-7 degrees.
    Point {
        /// Latitude ×1e7, rounded.
        lat_e7: i64,
        /// Longitude ×1e7, rounded.
        lon_e7: i64,
    },
    /// A grid cell.
    Cell {
        /// Grid subdivision level.
        level: u8,
        /// Column index: `floor(lon / edge)`.
        ix: i32,
        /// Row index: `floor(lat / edge)`.
        iy: i32,
    },
    /// The whole globe.
    World,
}

impl SpatialGranule {
    /// The geographic extent of this granule. Point granules get a degenerate
    /// box; the world granule spans the full domain.
    pub fn extent(&self) -> BoundingBox {
        match *self {
            SpatialGranule::Point { lat_e7, lon_e7 } => {
                let p = GeoPoint::new_unchecked(lat_e7 as f64 / 1e7, lon_e7 as f64 / 1e7);
                BoundingBox { min: p, max: p }
            }
            SpatialGranule::Cell { level, ix, iy } => {
                let edge = 1.0 / f64::from(1u32 << level);
                BoundingBox {
                    min: GeoPoint::new_unchecked(f64::from(iy) * edge, f64::from(ix) * edge),
                    max: GeoPoint::new_unchecked(
                        f64::from(iy + 1) * edge,
                        f64::from(ix + 1) * edge,
                    ),
                }
            }
            SpatialGranule::World => BoundingBox {
                min: GeoPoint::new_unchecked(-90.0, -180.0),
                max: GeoPoint::new_unchecked(90.0, 180.0),
            },
        }
    }

    /// A representative point of the granule (its centre).
    pub fn center(&self) -> GeoPoint {
        self.extent().center()
    }

    /// Coarsen this granule to a coarser granularity, returning the granule
    /// of `coarser` that contains it.
    pub fn coarsen(&self, coarser: SpatialGranularity) -> Result<SpatialGranule, SttError> {
        let own = self.granularity();
        if !own.finer_or_equal(coarser) {
            return Err(SttError::IncomparableGranularities {
                from: own.to_string(),
                to: coarser.to_string(),
            });
        }
        match (*self, coarser) {
            // Same granularity: identity.
            (g, c) if g.granularity() == c => Ok(g),
            // Nested grids coarsen by shifting indices.
            (SpatialGranule::Cell { level, ix, iy }, SpatialGranularity::Grid { level: cl }) => {
                let shift = level - cl;
                Ok(SpatialGranule::Cell {
                    level: cl,
                    ix: ix >> shift,
                    iy: iy >> shift,
                })
            }
            (_, SpatialGranularity::World) => Ok(SpatialGranule::World),
            (g, c) => Ok(c.granule_of(&g.center())),
        }
    }

    /// The granularity this granule belongs to.
    pub fn granularity(&self) -> SpatialGranularity {
        match self {
            SpatialGranule::Point { .. } => SpatialGranularity::Point,
            SpatialGranule::Cell { level, .. } => SpatialGranularity::Grid { level: *level },
            SpatialGranule::World => SpatialGranularity::World,
        }
    }
}

impl fmt::Display for SpatialGranule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpatialGranule::Point { lat_e7, lon_e7 } => {
                write!(
                    f,
                    "pt({:.7}, {:.7})",
                    *lat_e7 as f64 / 1e7,
                    *lon_e7 as f64 / 1e7
                )
            }
            SpatialGranule::Cell { level, ix, iy } => write!(f, "cell{level}({ix}, {iy})"),
            SpatialGranule::World => write!(f, "world"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn osaka() -> GeoPoint {
        GeoPoint::new_unchecked(34.6937, 135.5023)
    }

    #[test]
    fn granule_contains_its_point() {
        for level in [0u8, 3, 7, 12, MAX_GRID_LEVEL] {
            let g = SpatialGranularity::grid(level);
            let gran = g.granule_of(&osaka());
            assert!(gran.extent().contains(&osaka()), "level {level}");
        }
    }

    #[test]
    fn nearby_points_share_coarse_cell_but_not_fine() {
        let a = osaka();
        let b = GeoPoint::new_unchecked(34.6940, 135.5030); // ~60 m away
        let coarse = SpatialGranularity::grid(2);
        let fine = SpatialGranularity::grid(14);
        assert_eq!(coarse.granule_of(&a), coarse.granule_of(&b));
        assert_ne!(fine.granule_of(&a), fine.granule_of(&b));
    }

    #[test]
    fn lattice_order() {
        use SpatialGranularity as SG;
        assert!(SG::Point.finer_or_equal(SG::grid(5)));
        assert!(SG::Point.finer_or_equal(SG::World));
        assert!(SG::grid(8).finer_or_equal(SG::grid(3)));
        assert!(!SG::grid(3).finer_or_equal(SG::grid(8)));
        assert!(SG::grid(3).finer_or_equal(SG::World));
        assert!(!SG::World.finer_or_equal(SG::grid(3)));
        assert!(!SG::grid(3).finer_or_equal(SG::Point));
        assert!(SG::grid(3).comparable(SG::grid(9)));
        assert_eq!(SG::grid(3).meet(SG::grid(9)), SG::grid(9));
        assert_eq!(SG::Point.meet(SG::World), SG::Point);
    }

    #[test]
    fn coarsen_nested_grids() {
        let fine = SpatialGranularity::grid(10).granule_of(&osaka());
        let coarse = fine.coarsen(SpatialGranularity::grid(4)).unwrap();
        // The coarse granule must be the one you'd get directly.
        assert_eq!(coarse, SpatialGranularity::grid(4).granule_of(&osaka()));
        // And must spatially contain the fine one.
        assert!(coarse.extent().contains(&fine.center()));
        // Identity coarsening.
        assert_eq!(fine.coarsen(SpatialGranularity::grid(10)).unwrap(), fine);
        // Coarsening to World always works.
        assert_eq!(
            fine.coarsen(SpatialGranularity::World).unwrap(),
            SpatialGranule::World
        );
        // Refining is an error.
        assert!(fine.coarsen(SpatialGranularity::grid(12)).is_err());
        assert!(SpatialGranule::World
            .coarsen(SpatialGranularity::grid(2))
            .is_err());
    }

    #[test]
    fn coarsen_point_to_grid() {
        let pt = SpatialGranularity::Point.granule_of(&osaka());
        let cell = pt.coarsen(SpatialGranularity::grid(6)).unwrap();
        assert_eq!(cell, SpatialGranularity::grid(6).granule_of(&osaka()));
    }

    #[test]
    fn negative_coordinates_floor_correctly() {
        // Buenos Aires: both lat and lon negative.
        let ba = GeoPoint::new_unchecked(-34.6037, -58.3816);
        let g = SpatialGranularity::grid(3);
        let cell = g.granule_of(&ba);
        assert!(cell.extent().contains(&ba));
        match cell {
            SpatialGranule::Cell { ix, iy, .. } => {
                assert!(ix < 0 && iy < 0);
            }
            other => panic!("expected cell, got {other:?}"),
        }
    }

    #[test]
    fn parse_round_trip() {
        for g in [
            SpatialGranularity::Point,
            SpatialGranularity::grid(0),
            SpatialGranularity::grid(13),
            SpatialGranularity::World,
        ] {
            assert_eq!(SpatialGranularity::parse(&g.to_string()).unwrap(), g);
        }
        assert!(SpatialGranularity::parse("grid99").is_err());
        assert!(SpatialGranularity::parse("hex7").is_err());
    }

    #[test]
    fn grid_clamps_level() {
        assert_eq!(
            SpatialGranularity::grid(200),
            SpatialGranularity::Grid {
                level: MAX_GRID_LEVEL
            }
        );
    }

    #[test]
    fn world_granule() {
        let g = SpatialGranularity::World.granule_of(&osaka());
        assert_eq!(g, SpatialGranule::World);
        assert!(g.extent().contains(&osaka()));
    }
}
