//! Content-based subscription filters over sensor advertisements.
//!
//! "Sources of dataflows should be specified by means of the sensor and
//! location characteristics" (paper §2): a dataflow source names a filter,
//! not a sensor, so sensors can join and leave while the dataflow keeps
//! running (demo P3).

use crate::message::{SensorAdvertisement, SensorKind};
use sl_obs::text::glob_match;
use sl_stt::{AttrType, BoundingBox, Duration, Theme};
use std::fmt;

/// A conjunctive filter over sensor advertisements. Every populated field
/// must match; an empty filter matches every sensor.
#[derive(Debug, Clone, Default)]
pub struct SubscriptionFilter {
    /// Match sensors whose theme is this theme or a descendant of it.
    pub theme: Option<Theme>,
    /// Match sensors positioned inside this area (sensors advertising no
    /// position do NOT match an area filter).
    pub area: Option<BoundingBox>,
    /// Match only this kind of sensor.
    pub kind: Option<SensorKind>,
    /// Required attributes: the sensor's schema must contain each named
    /// attribute with a type coercible to the required one.
    pub required_attrs: Vec<(String, AttrType)>,
    /// Glob over the sensor name (`*`/`?` wildcards).
    pub name_glob: Option<String>,
    /// Match sensors at least this frequent (period ≤ bound).
    pub max_period: Option<Duration>,
    /// Required units of measure: the sensor's schema must annotate each
    /// named attribute with exactly this unit. Heterogeneous fleets mix
    /// units (Celsius vs Fahrenheit stations); a dataflow whose conditions
    /// assume one unit pins it here — or accepts all and normalises with a
    /// Transform.
    pub required_units: Vec<(String, sl_stt::Unit)>,
}

impl SubscriptionFilter {
    /// The match-all filter.
    pub fn any() -> SubscriptionFilter {
        SubscriptionFilter::default()
    }

    /// Filter by theme subtree.
    pub fn with_theme(mut self, theme: Theme) -> SubscriptionFilter {
        self.theme = Some(theme);
        self
    }

    /// Filter by containing area.
    pub fn with_area(mut self, area: BoundingBox) -> SubscriptionFilter {
        self.area = Some(area);
        self
    }

    /// Require an attribute in the sensor schema.
    pub fn require_attr(mut self, name: &str, ty: AttrType) -> SubscriptionFilter {
        self.required_attrs.push((name.to_string(), ty));
        self
    }

    /// Require an attribute to be annotated with a specific unit.
    pub fn require_unit(mut self, name: &str, unit: sl_stt::Unit) -> SubscriptionFilter {
        self.required_units.push((name.to_string(), unit));
        self
    }

    /// True if `ad` satisfies every populated constraint.
    pub fn matches(&self, ad: &SensorAdvertisement) -> bool {
        if let Some(theme) = &self.theme {
            if !ad.theme.is_a(theme) {
                return false;
            }
        }
        if let Some(area) = &self.area {
            match ad.location {
                Some(p) if area.contains(&p) => {}
                _ => return false,
            }
        }
        if let Some(kind) = self.kind {
            if ad.kind != kind {
                return false;
            }
        }
        for (name, ty) in &self.required_attrs {
            match ad.schema.field(name) {
                Ok(f) if f.ty.coercible_to(*ty) => {}
                _ => return false,
            }
        }
        if let Some(glob) = &self.name_glob {
            if !glob_match(glob, &ad.name) {
                return false;
            }
        }
        if let Some(bound) = self.max_period {
            if ad.period > bound {
                return false;
            }
        }
        for (name, unit) in &self.required_units {
            match ad.schema.field(name) {
                Ok(f) if f.unit == Some(*unit) => {}
                _ => return false,
            }
        }
        true
    }

    /// True if this is the match-all filter.
    pub fn is_any(&self) -> bool {
        self.theme.is_none()
            && self.area.is_none()
            && self.kind.is_none()
            && self.required_attrs.is_empty()
            && self.name_glob.is_none()
            && self.max_period.is_none()
            && self.required_units.is_empty()
    }
}

impl fmt::Display for SubscriptionFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_any() {
            return write!(f, "any");
        }
        let mut parts: Vec<String> = Vec::new();
        if let Some(t) = &self.theme {
            parts.push(format!("theme={t}"));
        }
        if let Some(a) = &self.area {
            parts.push(format!("area={a}"));
        }
        if let Some(k) = self.kind {
            parts.push(format!("kind={k}"));
        }
        for (n, t) in &self.required_attrs {
            parts.push(format!("has {n}:{t}"));
        }
        if let Some(g) = &self.name_glob {
            parts.push(format!("name~{g}"));
        }
        if let Some(p) = self.max_period {
            parts.push(format!("period<={p}"));
        }
        for (n, u) in &self.required_units {
            parts.push(format!("unit {n}={u}"));
        }
        write!(f, "{}", parts.join(" & "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_netsim::NodeId;
    use sl_stt::{Field, GeoPoint, Schema, SensorId};

    impl SubscriptionFilter {
        /// Filter by sensor kind.
        pub(crate) fn with_kind(mut self, kind: SensorKind) -> SubscriptionFilter {
            self.kind = Some(kind);
            self
        }
    }

    fn ad(
        name: &str,
        theme: &str,
        kind: SensorKind,
        lat: f64,
        lon: f64,
        period_s: u64,
    ) -> SensorAdvertisement {
        SensorAdvertisement {
            id: SensorId(1),
            name: name.into(),
            kind,
            schema: Schema::new(vec![
                Field::new("temperature", AttrType::Float),
                Field::new("station", AttrType::Str),
            ])
            .unwrap()
            .into_ref(),
            theme: Theme::new(theme).unwrap(),
            period: Duration::from_secs(period_s),
            location: Some(GeoPoint::new_unchecked(lat, lon)),
            node: NodeId(0),
        }
    }

    fn osaka_box() -> BoundingBox {
        BoundingBox::from_corners(
            GeoPoint::new_unchecked(34.5, 135.3),
            GeoPoint::new_unchecked(34.9, 135.7),
        )
    }

    #[test]
    fn empty_filter_matches_all() {
        let f = SubscriptionFilter::any();
        assert!(f.is_any());
        assert!(f.matches(&ad("x", "weather/rain", SensorKind::Physical, 0.0, 0.0, 1)));
    }

    #[test]
    fn theme_subtree_matching() {
        let f = SubscriptionFilter::any().with_theme(Theme::new("weather").unwrap());
        assert!(f.matches(&ad("a", "weather/rain", SensorKind::Physical, 0.0, 0.0, 1)));
        assert!(f.matches(&ad("a", "weather", SensorKind::Physical, 0.0, 0.0, 1)));
        assert!(!f.matches(&ad(
            "a",
            "traffic/congestion",
            SensorKind::Social,
            0.0,
            0.0,
            1
        )));
    }

    #[test]
    fn area_matching_requires_location() {
        let f = SubscriptionFilter::any().with_area(osaka_box());
        assert!(f.matches(&ad("a", "weather", SensorKind::Physical, 34.69, 135.50, 1)));
        assert!(!f.matches(&ad(
            "a",
            "weather",
            SensorKind::Physical,
            35.0116,
            135.7681,
            1
        )));
        let mut no_loc = ad("a", "weather", SensorKind::Physical, 0.0, 0.0, 1);
        no_loc.location = None;
        assert!(!f.matches(&no_loc));
    }

    #[test]
    fn kind_schema_name_period() {
        let f = SubscriptionFilter {
            kind: Some(SensorKind::Physical),
            name_glob: Some("osaka-*".into()),
            max_period: Some(Duration::from_secs(30)),
            ..SubscriptionFilter::any()
        }
        .require_attr("temperature", AttrType::Float);
        let good = ad(
            "osaka-temp-1",
            "weather/temperature",
            SensorKind::Physical,
            34.7,
            135.5,
            10,
        );
        assert!(f.matches(&good));
        assert!(!f.matches(&ad(
            "kyoto-temp-1",
            "weather/temperature",
            SensorKind::Physical,
            34.7,
            135.5,
            10
        )));
        assert!(!f.matches(&ad(
            "osaka-tw-1",
            "social/tweet",
            SensorKind::Social,
            34.7,
            135.5,
            10
        )));
        assert!(!f.matches(&ad(
            "osaka-temp-2",
            "weather/temperature",
            SensorKind::Physical,
            34.7,
            135.5,
            60
        )));
        // Required attr with wrong type fails; Int->Float coercion passes.
        let f2 = SubscriptionFilter::any().require_attr("temperature", AttrType::Str);
        assert!(!f2.matches(&good));
        let f3 = SubscriptionFilter::any().require_attr("temperature", AttrType::Float);
        assert!(f3.matches(&good));
        assert!(!SubscriptionFilter::any()
            .require_attr("rain", AttrType::Float)
            .matches(&good));
    }

    #[test]
    fn unit_requirement_separates_fahrenheit_stations() {
        use sl_stt::Unit;
        let mut c_ad = ad(
            "c-station",
            "weather/temperature",
            SensorKind::Physical,
            34.7,
            135.5,
            10,
        );
        let mut f_ad = c_ad.clone();
        f_ad.name = "f-station".into();
        let mk = |unit| {
            Schema::new(vec![
                Field::with_unit("temperature", AttrType::Float, unit),
                Field::new("station", AttrType::Str),
            ])
            .unwrap()
            .into_ref()
        };
        c_ad.schema = mk(Unit::Celsius);
        f_ad.schema = mk(Unit::Fahrenheit);
        let celsius_only = SubscriptionFilter::any().require_unit("temperature", Unit::Celsius);
        assert!(celsius_only.matches(&c_ad));
        assert!(!celsius_only.matches(&f_ad));
        // An unannotated attribute never satisfies a unit requirement.
        let plain = ad(
            "p",
            "weather/temperature",
            SensorKind::Physical,
            34.7,
            135.5,
            10,
        );
        assert!(!celsius_only.matches(&plain));
        assert!(!celsius_only.is_any());
        assert!(celsius_only
            .to_string()
            .contains("unit temperature=celsius"));
    }

    #[test]
    fn display_lists_constraints() {
        let f = SubscriptionFilter::any()
            .with_theme(Theme::new("weather").unwrap())
            .with_kind(SensorKind::Physical);
        let s = f.to_string();
        assert!(s.contains("theme=weather") && s.contains("kind=physical"));
        assert_eq!(SubscriptionFilter::any().to_string(), "any");
    }
}
