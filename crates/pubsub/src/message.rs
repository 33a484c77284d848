//! Sensor advertisements: what a sensor publishes about itself when joining.

use sl_netsim::NodeId;
use sl_stt::{Duration, GeoPoint, SchemaRef, SensorId, Theme};
use std::fmt;

/// Physical vs social sensors (paper §1: "Beside the physical sensors ...
/// there is a proliferation of social sensors").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SensorKind {
    /// Measures a physical phenomenon (temperature, rain, pressure, ...).
    Physical,
    /// Collects data from people (tweets, traffic reports, schedules, ...).
    Social,
}

impl fmt::Display for SensorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SensorKind::Physical => write!(f, "physical"),
            SensorKind::Social => write!(f, "social"),
        }
    }
}

/// Everything a sensor makes known when it is published: "its type, schema,
/// and frequency of data generation are made available to subscribers"
/// (paper §3), plus position and hosting network node.
#[derive(Debug, Clone)]
pub struct SensorAdvertisement {
    /// Registry-wide unique id.
    pub id: SensorId,
    /// Human-readable name (e.g. `osaka-temp-3`).
    pub name: String,
    /// Physical or social.
    pub kind: SensorKind,
    /// Schema of the tuples this sensor emits.
    pub schema: SchemaRef,
    /// Thematic classification of the stream.
    pub theme: Theme,
    /// Nominal period between measurements.
    pub period: Duration,
    /// Fixed position, if the sensor knows it. Mobile or position-less
    /// sensors advertise `None` and rely on enrichment.
    pub location: Option<GeoPoint>,
    /// The network node managing this sensor (paper §3: "each node of the
    /// network is in charge of managing a bunch of sensors").
    pub node: NodeId,
}

impl SensorAdvertisement {
    /// Nominal tuple rate in tuples per second.
    pub fn rate_hz(&self) -> f64 {
        let ms = self.period.as_millis();
        if ms == 0 {
            0.0
        } else {
            1000.0 / ms as f64
        }
    }
}

impl fmt::Display for SensorAdvertisement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} theme={} period={} @{}",
            self.name, self.id, self.kind, self.theme, self.period, self.node
        )?;
        if let Some(p) = self.location {
            write!(f, " loc={p}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{AttrType, Field, Schema};

    fn ad() -> SensorAdvertisement {
        SensorAdvertisement {
            id: SensorId(1),
            name: "osaka-temp-0".into(),
            kind: SensorKind::Physical,
            schema: Schema::new(vec![Field::new("temperature", AttrType::Float)])
                .unwrap()
                .into_ref(),
            theme: Theme::new("weather/temperature").unwrap(),
            period: Duration::from_secs(10),
            location: Some(GeoPoint::new_unchecked(34.69, 135.50)),
            node: NodeId(3),
        }
    }

    #[test]
    fn rate_from_period() {
        let mut a = ad();
        assert_eq!(a.rate_hz(), 0.1);
        a.period = Duration::from_millis(250);
        assert_eq!(a.rate_hz(), 4.0);
        a.period = Duration::ZERO;
        assert_eq!(a.rate_hz(), 0.0);
    }

    #[test]
    fn display_mentions_key_facts() {
        let s = ad().to_string();
        assert!(s.contains("osaka-temp-0"));
        assert!(s.contains("physical"));
        assert!(s.contains("weather/temperature"));
        assert!(s.contains("node#3"));
    }
}
