//! The spatial dimension: points, bounding boxes, distances, and coordinate
//! system conversion.
//!
//! The paper's Transform operation covers "changing ... geographical
//! coordinates (from one standard to another one)" (requirement §2).
//! StreamLoader sensors report WGS84, Web Mercator, or the legacy Tokyo datum
//! (common for Japanese sensor networks, matching the NICT deployment);
//! [`CoordinateSystem::convert`] normalises between them.

use crate::error::SttError;
use std::fmt;

/// Mean Earth radius in metres (IUGG).
pub(crate) const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// A geographical position. Canonically stored as WGS84 latitude/longitude
/// in degrees; other systems are converted on ingress.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeoPoint {
    /// Latitude in degrees, `[-90, 90]`.
    pub lat: f64,
    /// Longitude in degrees, `[-180, 180]`.
    pub lon: f64,
}

impl GeoPoint {
    /// Build a point, validating the WGS84 domain.
    pub fn new(lat: f64, lon: f64) -> Result<GeoPoint, SttError> {
        if !(-90.0..=90.0).contains(&lat)
            || !(-180.0..=180.0).contains(&lon)
            || lat.is_nan()
            || lon.is_nan()
        {
            return Err(SttError::InvalidCoordinates { lat, lon });
        }
        Ok(GeoPoint { lat, lon })
    }

    /// Build a point without validation (for trusted internal call sites).
    pub const fn new_unchecked(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint { lat, lon }
    }

    /// Great-circle distance to `other` in metres (haversine formula).
    pub fn haversine_distance_m(&self, other: &GeoPoint) -> f64 {
        let (lat1, lon1) = (self.lat.to_radians(), self.lon.to_radians());
        let (lat2, lon2) = (other.lat.to_radians(), other.lon.to_radians());
        let dlat = lat2 - lat1;
        let dlon = lon2 - lon1;
        let a = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
        2.0 * EARTH_RADIUS_M * a.sqrt().asin()
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat, self.lon)
    }
}

/// An axis-aligned geographic rectangle, used by Cull-Space
/// (`γr(s, <coord1, coord2>)`, Table 1) and by discovery-by-area queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundingBox {
    /// South-west corner.
    pub min: GeoPoint,
    /// North-east corner.
    pub max: GeoPoint,
}

impl BoundingBox {
    /// Build a box from two opposite corners in any order.
    pub fn from_corners(a: GeoPoint, b: GeoPoint) -> BoundingBox {
        BoundingBox {
            min: GeoPoint::new_unchecked(a.lat.min(b.lat), a.lon.min(b.lon)),
            max: GeoPoint::new_unchecked(a.lat.max(b.lat), a.lon.max(b.lon)),
        }
    }

    /// True if `p` lies inside the box (inclusive on all edges).
    pub fn contains(&self, p: &GeoPoint) -> bool {
        p.lat >= self.min.lat
            && p.lat <= self.max.lat
            && p.lon >= self.min.lon
            && p.lon <= self.max.lon
    }

    /// True if the two boxes intersect.
    pub fn intersects(&self, other: &BoundingBox) -> bool {
        self.min.lat <= other.max.lat
            && other.min.lat <= self.max.lat
            && self.min.lon <= other.max.lon
            && other.min.lon <= self.max.lon
    }

    /// The centre point of the box.
    pub fn center(&self) -> GeoPoint {
        GeoPoint::new_unchecked(
            (self.min.lat + self.max.lat) / 2.0,
            (self.min.lon + self.max.lon) / 2.0,
        )
    }

    /// The smallest box containing both `self` and `other`.
    pub fn union(&self, other: &BoundingBox) -> BoundingBox {
        BoundingBox {
            min: GeoPoint::new_unchecked(
                self.min.lat.min(other.min.lat),
                self.min.lon.min(other.min.lon),
            ),
            max: GeoPoint::new_unchecked(
                self.max.lat.max(other.max.lat),
                self.max.lon.max(other.max.lon),
            ),
        }
    }

    /// Grow the box by `margin_deg` degrees on every side, clamped to the
    /// valid WGS84 domain.
    pub fn expanded(&self, margin_deg: f64) -> BoundingBox {
        BoundingBox {
            min: GeoPoint::new_unchecked(
                (self.min.lat - margin_deg).max(-90.0),
                (self.min.lon - margin_deg).max(-180.0),
            ),
            max: GeoPoint::new_unchecked(
                (self.max.lat + margin_deg).min(90.0),
                (self.max.lon + margin_deg).min(180.0),
            ),
        }
    }
}

impl fmt::Display for BoundingBox {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

/// A geographic coordinate reference standard.
///
/// Raw sensor payloads may carry coordinates in any of these; the extraction
/// layer and the Transform operator convert to canonical WGS84.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoordinateSystem {
    /// World Geodetic System 1984 — latitude/longitude in degrees. Canonical.
    Wgs84,
    /// Spherical Web Mercator (EPSG:3857) — metres east/north of (0°, 0°).
    WebMercator,
    /// The legacy Tokyo datum (approximate Molodensky shift), still produced
    /// by older Japanese sensor installations.
    TokyoDatum,
}

impl CoordinateSystem {
    /// Convert a coordinate pair expressed in `self` into `target`.
    ///
    /// The pair is `(a, b)` = (lat, lon) for geodetic systems, or
    /// (x, y) metres for Web Mercator.
    pub fn convert(self, a: f64, b: f64, target: CoordinateSystem) -> Result<(f64, f64), SttError> {
        if self == target {
            return Ok((a, b));
        }
        // Normalise via WGS84 (lat, lon).
        let (lat, lon) = self.to_wgs84(a, b)?;
        target.from_wgs84(lat, lon)
    }

    /// Convert a pair in `self` to a validated WGS84 [`GeoPoint`].
    pub fn to_point(self, a: f64, b: f64) -> Result<GeoPoint, SttError> {
        let (lat, lon) = self.to_wgs84(a, b)?;
        GeoPoint::new(lat, lon)
    }

    fn to_wgs84(self, a: f64, b: f64) -> Result<(f64, f64), SttError> {
        match self {
            CoordinateSystem::Wgs84 => Ok((a, b)),
            CoordinateSystem::WebMercator => {
                let lon = (a / EARTH_RADIUS_M).to_degrees();
                let lat = ((b / EARTH_RADIUS_M).exp().atan() * 2.0 - std::f64::consts::FRAC_PI_2)
                    .to_degrees();
                Ok((lat, lon))
            }
            CoordinateSystem::TokyoDatum => {
                // Standard three-parameter approximation of Tokyo → WGS84.
                let lat = a - 0.00010695 * a + 0.000017464 * b + 0.0046017;
                let lon = b - 0.000046038 * a - 0.000083043 * b + 0.010040;
                Ok((lat, lon))
            }
        }
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_wgs84(self, lat: f64, lon: f64) -> Result<(f64, f64), SttError> {
        match self {
            CoordinateSystem::Wgs84 => Ok((lat, lon)),
            CoordinateSystem::WebMercator => {
                if !(-85.06..=85.06).contains(&lat) {
                    return Err(SttError::InvalidCoordinates { lat, lon });
                }
                let x = EARTH_RADIUS_M * lon.to_radians();
                let y = EARTH_RADIUS_M
                    * ((std::f64::consts::FRAC_PI_4 + lat.to_radians() / 2.0).tan()).ln();
                Ok((x, y))
            }
            CoordinateSystem::TokyoDatum => {
                // Inverse of the forward approximation (also approximate).
                let a = lat + 0.00010696 * lat - 0.000017467 * lon - 0.0046020;
                let b = lon + 0.000046047 * lat + 0.000083049 * lon - 0.010041;
                Ok((a, b))
            }
        }
    }

    /// Parse from the identifiers used in DSN documents and sensor
    /// advertisements.
    pub fn parse(s: &str) -> Result<CoordinateSystem, SttError> {
        match s.to_ascii_lowercase().as_str() {
            "wgs84" | "epsg:4326" => Ok(CoordinateSystem::Wgs84),
            "webmercator" | "web_mercator" | "epsg:3857" => Ok(CoordinateSystem::WebMercator),
            "tokyo" | "tokyo_datum" | "epsg:4301" => Ok(CoordinateSystem::TokyoDatum),
            other => Err(SttError::Parse(format!(
                "unknown coordinate system `{other}`"
            ))),
        }
    }
}

impl fmt::Display for CoordinateSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoordinateSystem::Wgs84 => write!(f, "wgs84"),
            CoordinateSystem::WebMercator => write!(f, "web_mercator"),
            CoordinateSystem::TokyoDatum => write!(f, "tokyo_datum"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Osaka city centre, used throughout the scenario tests.
    pub(crate) fn osaka() -> GeoPoint {
        GeoPoint::new(34.6937, 135.5023).unwrap()
    }

    #[test]
    fn geopoint_validation() {
        assert!(GeoPoint::new(90.0, 180.0).is_ok());
        assert!(GeoPoint::new(-90.0, -180.0).is_ok());
        assert!(GeoPoint::new(90.1, 0.0).is_err());
        assert!(GeoPoint::new(0.0, -180.1).is_err());
        assert!(GeoPoint::new(f64::NAN, 0.0).is_err());
    }

    #[test]
    fn haversine_osaka_kyoto() {
        // Osaka → Kyoto is ~43 km.
        let kyoto = GeoPoint::new(35.0116, 135.7681).unwrap();
        let d = osaka().haversine_distance_m(&kyoto);
        assert!((40_000.0..50_000.0).contains(&d), "distance was {d}");
        // Symmetry and identity.
        assert!((d - kyoto.haversine_distance_m(&osaka())).abs() < 1e-6);
        assert_eq!(osaka().haversine_distance_m(&osaka()), 0.0);
    }

    #[test]
    fn bbox_from_corners_any_order() {
        let a = GeoPoint::new_unchecked(35.0, 136.0);
        let b = GeoPoint::new_unchecked(34.0, 135.0);
        let bb = BoundingBox::from_corners(a, b);
        assert_eq!(bb.min.lat, 34.0);
        assert_eq!(bb.max.lon, 136.0);
        assert!(bb.contains(&GeoPoint::new_unchecked(34.5, 135.5)));
        assert!(bb.contains(&bb.min));
        assert!(bb.contains(&bb.max));
        assert!(!bb.contains(&GeoPoint::new_unchecked(33.9, 135.5)));
    }

    #[test]
    fn bbox_intersects_union_center() {
        let a = BoundingBox::from_corners(
            GeoPoint::new_unchecked(34.0, 135.0),
            GeoPoint::new_unchecked(35.0, 136.0),
        );
        let b = BoundingBox::from_corners(
            GeoPoint::new_unchecked(34.5, 135.5),
            GeoPoint::new_unchecked(36.0, 137.0),
        );
        let c = BoundingBox::from_corners(
            GeoPoint::new_unchecked(40.0, 140.0),
            GeoPoint::new_unchecked(41.0, 141.0),
        );
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
        let u = a.union(&b);
        assert!(u.contains(&a.min) && u.contains(&b.max));
        let ctr = a.center();
        assert!((ctr.lat - 34.5).abs() < 1e-9 && (ctr.lon - 135.5).abs() < 1e-9);
    }

    #[test]
    fn bbox_expand_clamps() {
        let b = BoundingBox::from_corners(
            GeoPoint::new_unchecked(89.0, 179.0),
            GeoPoint::new_unchecked(89.5, 179.5),
        );
        let e = b.expanded(5.0);
        assert_eq!(e.max.lat, 90.0);
        assert_eq!(e.max.lon, 180.0);
        assert!((e.min.lat - 84.0).abs() < 1e-9);
    }

    #[test]
    fn mercator_round_trip() {
        let p = osaka();
        let (x, y) = CoordinateSystem::Wgs84
            .convert(p.lat, p.lon, CoordinateSystem::WebMercator)
            .unwrap();
        // Osaka is east of Greenwich and north of the equator.
        assert!(x > 0.0 && y > 0.0);
        let (lat, lon) = CoordinateSystem::WebMercator
            .convert(x, y, CoordinateSystem::Wgs84)
            .unwrap();
        assert!((lat - p.lat).abs() < 1e-9, "lat {lat}");
        assert!((lon - p.lon).abs() < 1e-9, "lon {lon}");
    }

    #[test]
    fn mercator_rejects_poles() {
        assert!(CoordinateSystem::Wgs84
            .convert(89.0, 0.0, CoordinateSystem::WebMercator)
            .is_err());
    }

    #[test]
    fn tokyo_datum_round_trip_approximately() {
        let p = osaka();
        let (a, b) = CoordinateSystem::Wgs84
            .convert(p.lat, p.lon, CoordinateSystem::TokyoDatum)
            .unwrap();
        // The Tokyo datum differs from WGS84 by roughly 10 arc-seconds.
        assert!((a - p.lat).abs() < 0.02 && (a - p.lat).abs() > 1e-5);
        let (lat, lon) = CoordinateSystem::TokyoDatum
            .convert(a, b, CoordinateSystem::Wgs84)
            .unwrap();
        assert!(
            (lat - p.lat).abs() < 1e-4,
            "lat error {}",
            (lat - p.lat).abs()
        );
        assert!(
            (lon - p.lon).abs() < 1e-4,
            "lon error {}",
            (lon - p.lon).abs()
        );
    }

    #[test]
    fn identity_conversion() {
        let (a, b) = CoordinateSystem::Wgs84
            .convert(1.0, 2.0, CoordinateSystem::Wgs84)
            .unwrap();
        assert_eq!((a, b), (1.0, 2.0));
    }

    #[test]
    fn parse_coordinate_systems() {
        assert_eq!(
            CoordinateSystem::parse("WGS84").unwrap(),
            CoordinateSystem::Wgs84
        );
        assert_eq!(
            CoordinateSystem::parse("epsg:3857").unwrap(),
            CoordinateSystem::WebMercator
        );
        assert_eq!(
            CoordinateSystem::parse("tokyo").unwrap(),
            CoordinateSystem::TokyoDatum
        );
        assert!(CoordinateSystem::parse("mars2000").is_err());
        // Display → parse round trip.
        for cs in [
            CoordinateSystem::Wgs84,
            CoordinateSystem::WebMercator,
            CoordinateSystem::TokyoDatum,
        ] {
            assert_eq!(CoordinateSystem::parse(&cs.to_string()).unwrap(), cs);
        }
    }
}
