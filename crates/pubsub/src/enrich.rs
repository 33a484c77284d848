//! Spatio-temporal enrichment of sensor tuples.
//!
//! "Whenever a sensor is not able to produce the spatio-temporal information
//! of the produced data, this information is added by the Publish-Subscribe
//! system that we adopt in our architecture" (paper §3). Enrichment fills a
//! tuple's missing location from the sensor's advertised position, clamps
//! obviously-wrong timestamps to the receive time, and normalises the theme
//! to the advertised one.

use crate::message::SensorAdvertisement;
use sl_stt::{Duration, Timestamp, Tuple};

/// Policy knobs for enrichment.
#[derive(Debug, Clone, Copy)]
pub struct EnrichPolicy {
    /// Tuples stamped further than this into the future (relative to the
    /// receive time) get re-stamped to the receive time — sensors with
    /// drifting clocks are common in heterogeneous fleets.
    pub max_future_skew: Duration,
    /// Replace a tuple's theme with the advertisement's when they disagree.
    pub normalize_theme: bool,
}

impl Default for EnrichPolicy {
    fn default() -> Self {
        EnrichPolicy {
            max_future_skew: Duration::from_secs(60),
            normalize_theme: true,
        }
    }
}

/// What enrichment changed about a tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnrichReport {
    /// The location was filled in from the advertisement.
    pub located: bool,
    /// The timestamp was clamped.
    pub restamped: bool,
    /// The theme was replaced.
    pub rethemed: bool,
}

/// Enrich `tuple` in place using the sensor's advertisement and the
/// engine-side receive time. Returns what was changed.
pub fn enrich(
    tuple: &mut Tuple,
    ad: &SensorAdvertisement,
    received_at: Timestamp,
    policy: &EnrichPolicy,
) -> EnrichReport {
    let mut report = EnrichReport::default();
    if tuple.meta.location.is_none() {
        if let Some(p) = ad.location {
            tuple.meta.location = Some(p);
            report.located = true;
        }
    }
    if tuple.meta.timestamp > received_at + policy.max_future_skew {
        tuple.meta.timestamp = received_at;
        report.restamped = true;
    }
    if policy.normalize_theme && tuple.meta.theme != ad.theme {
        tuple.meta.theme = ad.theme.clone();
        report.rethemed = true;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::SensorKind;
    use sl_netsim::NodeId;
    use sl_stt::{AttrType, Field, GeoPoint, Schema, SensorId, SttMeta, Theme, Value};

    fn ad() -> SensorAdvertisement {
        SensorAdvertisement {
            id: SensorId(1),
            name: "s".into(),
            kind: SensorKind::Physical,
            schema: Schema::new(vec![Field::new("v", AttrType::Float)])
                .unwrap()
                .into_ref(),
            theme: Theme::new("weather/temperature").unwrap(),
            period: Duration::from_secs(1),
            location: Some(GeoPoint::new_unchecked(34.7, 135.5)),
            node: NodeId(0),
        }
    }

    fn bare_tuple(ts: Timestamp) -> Tuple {
        Tuple::new(
            Schema::new(vec![Field::new("v", AttrType::Float)])
                .unwrap()
                .into_ref(),
            vec![Value::Float(1.0)],
            SttMeta::without_location(ts, Theme::unclassified(), SensorId(1)),
        )
        .unwrap()
    }

    #[test]
    fn fills_missing_location() {
        let mut t = bare_tuple(Timestamp::from_secs(100));
        let r = enrich(
            &mut t,
            &ad(),
            Timestamp::from_secs(100),
            &EnrichPolicy::default(),
        );
        assert!(r.located);
        assert_eq!(t.meta.location, ad().location);
    }

    #[test]
    fn keeps_existing_location() {
        let mut t = bare_tuple(Timestamp::from_secs(100));
        let own = GeoPoint::new_unchecked(35.0, 136.0);
        t.meta.location = Some(own);
        let r = enrich(
            &mut t,
            &ad(),
            Timestamp::from_secs(100),
            &EnrichPolicy::default(),
        );
        assert!(!r.located);
        assert_eq!(t.meta.location, Some(own));
    }

    #[test]
    fn clamps_future_timestamps() {
        let recv = Timestamp::from_secs(100);
        let mut t = bare_tuple(Timestamp::from_secs(500));
        let r = enrich(&mut t, &ad(), recv, &EnrichPolicy::default());
        assert!(r.restamped);
        assert_eq!(t.meta.timestamp, recv);
        // Slight skew within tolerance is preserved.
        let mut t = bare_tuple(Timestamp::from_secs(130));
        let r = enrich(&mut t, &ad(), recv, &EnrichPolicy::default());
        assert!(!r.restamped);
        assert_eq!(t.meta.timestamp, Timestamp::from_secs(130));
    }

    #[test]
    fn normalizes_theme() {
        let mut t = bare_tuple(Timestamp::from_secs(1));
        let r = enrich(
            &mut t,
            &ad(),
            Timestamp::from_secs(1),
            &EnrichPolicy::default(),
        );
        assert!(r.rethemed);
        assert_eq!(t.meta.theme.as_str(), "weather/temperature");
        // Disabled by policy.
        let mut t = bare_tuple(Timestamp::from_secs(1));
        let policy = EnrichPolicy {
            normalize_theme: false,
            ..Default::default()
        };
        let r = enrich(&mut t, &ad(), Timestamp::from_secs(1), &policy);
        assert!(!r.rethemed);
        assert_eq!(t.meta.theme, Theme::unclassified());
    }

    #[test]
    fn sensor_without_position_cannot_locate() {
        let mut a = ad();
        a.location = None;
        let mut t = bare_tuple(Timestamp::from_secs(1));
        let r = enrich(
            &mut t,
            &a,
            Timestamp::from_secs(1),
            &EnrichPolicy::default(),
        );
        assert!(!r.located);
        assert!(t.meta.location.is_none());
    }
}
