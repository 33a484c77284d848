//! The paper's *event* concept.
//!
//! "We exploit the concept of event, that is a value associated with a
//! spatial object at a given time according to given thematics. Therefore, an
//! event is a value represented at a given spatio-temporal granularity for
//! which thematic information is added" (paper §3).
//!
//! [`Event`] is the canonical record stored in the Event Data Warehouse and
//! the unit over which granular roll-ups operate: a value pinned to a
//! temporal granule, a spatial granule, and a theme.

use crate::error::SttError;
use crate::sgran::{SpatialGranularity, SpatialGranule};
use crate::theme::Theme;
use crate::time::{TemporalGranularity, TimeInterval};
use crate::tuple::Tuple;
use crate::value::Value;
use std::fmt;

/// A value at a spatio-temporal granularity with thematic information.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// The observed or derived value.
    pub value: Value,
    /// Temporal granularity of the observation.
    pub tgran: TemporalGranularity,
    /// Index of the temporal granule (under `tgran`).
    pub tgranule: i64,
    /// The spatial granule (which knows its own granularity).
    pub sgranule: SpatialGranule,
    /// Thematic classification.
    pub theme: Theme,
}

impl Event {
    /// Build an event directly from its parts.
    pub fn new(
        value: Value,
        tgran: TemporalGranularity,
        tgranule: i64,
        sgranule: SpatialGranule,
        theme: Theme,
    ) -> Event {
        Event {
            value,
            tgran,
            tgranule,
            sgranule,
            theme,
        }
    }

    /// Derive an event from one attribute of a tuple, placing it at the
    /// given spatio-temporal granularities.
    ///
    /// Errors if the attribute is missing, or the tuple has no location while
    /// a non-world spatial granularity is requested.
    pub fn from_tuple(
        tuple: &Tuple,
        attr: &str,
        tgran: TemporalGranularity,
        sgran: SpatialGranularity,
    ) -> Result<Event, SttError> {
        let value = tuple.get(attr)?.clone();
        let sgranule = match (tuple.meta.location, sgran) {
            (_, SpatialGranularity::World) => SpatialGranule::World,
            (Some(p), g) => g.granule_of(&p),
            (None, _) => {
                return Err(SttError::InvalidCoordinates {
                    lat: f64::NAN,
                    lon: f64::NAN,
                });
            }
        };
        Ok(Event {
            value,
            tgran,
            tgranule: tgran.granule_of(tuple.meta.timestamp),
            sgranule,
            theme: tuple.meta.theme.clone(),
        })
    }

    /// The time interval this event covers.
    pub fn time_interval(&self) -> TimeInterval {
        self.tgran.granule_interval(self.tgranule)
    }

    /// The spatial granularity of the event.
    pub fn sgran(&self) -> SpatialGranularity {
        self.sgranule.granularity()
    }

    /// Re-express the event at coarser granularities (used by warehouse
    /// roll-ups). Value is carried unchanged; aggregation across the merged
    /// granules is the warehouse's job.
    pub fn coarsened(
        &self,
        tgran: TemporalGranularity,
        sgran: SpatialGranularity,
    ) -> Result<Event, SttError> {
        let tgranule = self.tgran.coarsen(self.tgranule, tgran)?;
        let sgranule = self.sgranule.coarsen(sgran)?;
        Ok(Event {
            value: self.value.clone(),
            tgran,
            tgranule,
            sgranule,
            theme: self.theme.clone(),
        })
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} @[{} #{}] {} {}",
            self.value, self.tgran, self.tgranule, self.sgranule, self.theme
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Field, Schema};
    use crate::space::GeoPoint;
    use crate::time::Timestamp;
    use crate::tuple::{SensorId, SttMeta};

    fn sample_tuple(with_location: bool) -> Tuple {
        let schema = Schema::new(vec![Field::new("temperature", AttrType::Float)])
            .unwrap()
            .into_ref();
        let theme = Theme::new("weather/temperature").unwrap();
        let ts = Timestamp::from_civil(2016, 3, 15, 14, 30, 0);
        let meta = if with_location {
            SttMeta::new(
                ts,
                GeoPoint::new_unchecked(34.69, 135.50),
                theme,
                SensorId(1),
            )
        } else {
            SttMeta::without_location(ts, theme, SensorId(1))
        };
        Tuple::new(schema, vec![Value::Float(26.0)], meta).unwrap()
    }

    #[test]
    fn from_tuple_pins_granules() {
        let t = sample_tuple(true);
        let e = Event::from_tuple(
            &t,
            "temperature",
            TemporalGranularity::Hour,
            SpatialGranularity::grid(6),
        )
        .unwrap();
        assert_eq!(e.value, Value::Float(26.0));
        assert!(e.time_interval().contains(t.meta.timestamp));
        assert_eq!(
            e.time_interval().start,
            Timestamp::from_civil(2016, 3, 15, 14, 0, 0)
        );
        assert!(e.sgranule.extent().contains(&t.meta.location.unwrap()));
        assert_eq!(e.theme.as_str(), "weather/temperature");
    }

    #[test]
    fn from_tuple_missing_attr() {
        let t = sample_tuple(true);
        assert!(Event::from_tuple(
            &t,
            "rain",
            TemporalGranularity::Hour,
            SpatialGranularity::World
        )
        .is_err());
    }

    #[test]
    fn from_tuple_without_location_needs_world() {
        let t = sample_tuple(false);
        assert!(Event::from_tuple(
            &t,
            "temperature",
            TemporalGranularity::Hour,
            SpatialGranularity::grid(4)
        )
        .is_err());
        let e = Event::from_tuple(
            &t,
            "temperature",
            TemporalGranularity::Hour,
            SpatialGranularity::World,
        )
        .unwrap();
        assert_eq!(e.sgranule, SpatialGranule::World);
    }

    #[test]
    fn coarsen_event() {
        let t = sample_tuple(true);
        let e = Event::from_tuple(
            &t,
            "temperature",
            TemporalGranularity::Minute,
            SpatialGranularity::grid(10),
        )
        .unwrap();
        let c = e
            .coarsened(TemporalGranularity::Day, SpatialGranularity::grid(2))
            .unwrap();
        assert_eq!(c.tgran, TemporalGranularity::Day);
        assert!(c.time_interval().contains(t.meta.timestamp));
        assert_eq!(c.sgran(), SpatialGranularity::grid(2));
        // Refining is rejected.
        assert!(e
            .coarsened(TemporalGranularity::Second, SpatialGranularity::grid(10))
            .is_err());
        assert!(e
            .coarsened(TemporalGranularity::Day, SpatialGranularity::Point)
            .is_err());
    }

    #[test]
    fn display_is_readable() {
        let t = sample_tuple(true);
        let e = Event::from_tuple(
            &t,
            "temperature",
            TemporalGranularity::Hour,
            SpatialGranularity::World,
        )
        .unwrap();
        let s = e.to_string();
        assert!(s.contains("26") && s.contains("hour") && s.contains("weather/temperature"));
    }
}
