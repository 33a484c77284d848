//! Social sensors: geo-microblog (tweet) streams and traffic information
//! (paper §1: "social sensors able to collect data from people (like,
//! twitter data, traffic information, train or flight schedule)").

use crate::driver::SensorSim;
use crate::formats::WireFormat;
use crate::gen::BoundedWalk;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sl_netsim::NodeId;
use sl_pubsub::{SensorAdvertisement, SensorKind};
use sl_stt::{
    AttrType, Duration, Field, GeoPoint, Schema, SensorId, SttMeta, Theme, Timestamp, Tuple, Value,
};

/// Weather-correlated tweet templates; `{}` receives the area name.
const CALM_TEMPLATES: [&str; 5] = [
    "nice day in {}",
    "lunch break at {} station",
    "train on time for once #commute",
    "cherry blossoms near {} are lovely",
    "anyone up for coffee in {}?",
];

const STORM_TEMPLATES: [&str; 6] = [
    "insane rain in {} right now #storm",
    "streets flooding near {} station!",
    "thunder woke me up, {} is getting hammered",
    "my umbrella just died #rain #{}wind",
    "trains stopped at {} because of the storm",
    "stay safe {} people, torrential rain out there",
];

/// The advertisement of a social sensor.
#[allow(clippy::expect_used)] // static literals: distinct field names and a valid theme path
fn advertise(
    id: SensorId,
    name: &str,
    fields: Vec<Field>,
    theme: &str,
    location: Option<GeoPoint>,
    node: NodeId,
    period: Duration,
) -> SensorAdvertisement {
    SensorAdvertisement {
        id,
        name: name.to_string(),
        kind: SensorKind::Social,
        schema: Schema::new(fields).expect("static schema").into_ref(),
        theme: Theme::new(theme).expect("static theme"),
        period,
        location,
        node,
    }
}

/// A sample of `ad`'s stream taken at `now` at `location`: `values` in its
/// schema's order.
#[allow(clippy::expect_used)] // both sensors below pass one value per field of their own schema
fn sample_tuple(
    ad: &SensorAdvertisement,
    values: Vec<Value>,
    now: Timestamp,
    location: Option<GeoPoint>,
) -> Tuple {
    let meta = SttMeta {
        timestamp: now,
        location,
        theme: ad.theme.clone(),
        sensor: ad.id,
        trace: 0,
    };
    Tuple::new(ad.schema.clone(), values, meta).expect("schema matches")
}

/// A geo-tagged microblog feed around an area.
///
/// Rate and content react to an external *excitement* level (set from the
/// scenario's weather): excited feeds tweet storm content more often. A
/// fraction of tweets carry no position — mobile clients with GPS off —
/// exercising the pub/sub enrichment path; the advertisement itself also has
/// no fixed location.
pub struct TweetSensor {
    ad: SensorAdvertisement,
    area: String,
    center: GeoPoint,
    spread_deg: f64,
    excitement: f64,
    geotag_prob: f64,
    rng: StdRng,
}

impl TweetSensor {
    /// Build a feed centred on `center` for the named area.
    pub fn new(
        id: SensorId,
        name: &str,
        area: &str,
        center: GeoPoint,
        node: NodeId,
        period: Duration,
        seed: u64,
    ) -> TweetSensor {
        let ad = advertise(
            id,
            name,
            vec![
                Field::new("text", AttrType::Str),
                Field::new("user", AttrType::Str),
                Field::new("storm_related", AttrType::Bool),
            ],
            "social/tweet",
            None, // mobile feed: no fixed position
            node,
            period,
        );
        TweetSensor {
            ad,
            area: area.to_string(),
            center,
            spread_deg: 0.05,
            excitement: 0.0,
            geotag_prob: 0.7,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Set the excitement level in `[0, 1]` (scenario couples this to rain
    /// intensity: storms make people tweet about storms).
    pub fn set_excitement(&mut self, level: f64) {
        self.excitement = level.clamp(0.0, 1.0);
    }
}

impl SensorSim for TweetSensor {
    fn advertisement(&self) -> SensorAdvertisement {
        self.ad.clone()
    }

    fn sample(&mut self, now: Timestamp) -> Tuple {
        let stormy = self.rng.gen::<f64>() < self.excitement;
        let template = if stormy {
            STORM_TEMPLATES[self.rng.gen_range(0..STORM_TEMPLATES.len())]
        } else {
            CALM_TEMPLATES[self.rng.gen_range(0..CALM_TEMPLATES.len())]
        };
        let text = template.replace("{}", &self.area);
        let user = format!("user{:04}", self.rng.gen_range(0..2000));
        let location = if self.rng.gen::<f64>() < self.geotag_prob {
            Some(GeoPoint::new_unchecked(
                self.center.lat + (self.rng.gen::<f64>() - 0.5) * self.spread_deg,
                self.center.lon + (self.rng.gen::<f64>() - 0.5) * self.spread_deg,
            ))
        } else {
            None
        };
        let values = vec![Value::Str(text), Value::Str(user), Value::Bool(stormy)];
        sample_tuple(&self.ad, values, now, location)
    }

    fn wire_format(&self) -> WireFormat {
        WireFormat::Json
    }
}

/// A road-segment congestion probe.
pub struct TrafficSensor {
    ad: SensorAdvertisement,
    congestion: BoundedWalk,
    road: String,
    incident_prob: f64,
    incident_left: u32,
    rng: StdRng,
}

impl TrafficSensor {
    /// Build a probe for the named road segment.
    pub fn new(
        id: SensorId,
        name: &str,
        road: &str,
        location: GeoPoint,
        node: NodeId,
        period: Duration,
        seed: u64,
    ) -> TrafficSensor {
        let ad = advertise(
            id,
            name,
            vec![
                Field::new("congestion", AttrType::Float),
                Field::new("incident", AttrType::Bool),
                Field::new("road", AttrType::Str),
            ],
            "traffic/congestion",
            Some(location),
            node,
            period,
        );
        TrafficSensor {
            ad,
            congestion: BoundedWalk::new(0.3, 0.0, 1.0, 0.05, 0.03),
            road: road.to_string(),
            incident_prob: 0.01,
            incident_left: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl SensorSim for TrafficSensor {
    fn advertisement(&self) -> SensorAdvertisement {
        self.ad.clone()
    }

    fn sample(&mut self, now: Timestamp) -> Tuple {
        // Incidents spike congestion for a while.
        if self.incident_left == 0 && self.rng.gen::<f64>() < self.incident_prob {
            self.incident_left = self.rng.gen_range(5..20);
        }
        let mut level = self.congestion.step(&mut self.rng);
        let incident = self.incident_left > 0;
        if incident {
            self.incident_left -= 1;
            level = (level + 0.5).min(1.0);
        }
        let values = vec![
            Value::Float((level * 1000.0).round() / 1000.0),
            Value::Bool(incident),
            Value::Str(self.road.clone()),
        ];
        sample_tuple(&self.ad, values, now, self.ad.location)
    }

    fn wire_format(&self) -> WireFormat {
        WireFormat::KeyValue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn osaka() -> GeoPoint {
        GeoPoint::new_unchecked(34.6937, 135.5023)
    }

    #[test]
    fn calm_feed_rarely_storm_related() {
        let mut s = TweetSensor::new(
            SensorId(1),
            "osaka-tweets",
            "osaka",
            osaka(),
            NodeId(1),
            Duration::from_secs(2),
            42,
        );
        s.set_excitement(0.0);
        for i in 0..100 {
            let t = s.sample(Timestamp::from_secs(i * 2));
            assert_eq!(t.get("storm_related").unwrap(), &Value::Bool(false));
            assert!(t.get("text").unwrap().as_str().unwrap().len() > 3);
        }
    }

    #[test]
    fn excited_feed_tweets_storm_content() {
        let mut s = TweetSensor::new(
            SensorId(1),
            "osaka-tweets",
            "osaka",
            osaka(),
            NodeId(1),
            Duration::from_secs(2),
            42,
        );
        s.set_excitement(1.0);
        let t = s.sample(Timestamp::from_secs(0));
        assert_eq!(t.get("storm_related").unwrap(), &Value::Bool(true));
        let text = t.get("text").unwrap().as_str().unwrap().to_string();
        assert!(
            text.contains("osaka") || text.contains("storm") || text.contains("rain"),
            "{text}"
        );
    }

    #[test]
    fn some_tweets_lack_location() {
        let mut s = TweetSensor::new(
            SensorId(1),
            "t",
            "osaka",
            osaka(),
            NodeId(1),
            Duration::from_secs(2),
            9,
        );
        assert_eq!(s.advertisement().location, None);
        let mut located = 0;
        let mut unlocated = 0;
        for i in 0..200 {
            let t = s.sample(Timestamp::from_secs(i));
            match t.meta.location {
                Some(p) => {
                    located += 1;
                    // Near the area centre.
                    assert!(p.haversine_distance_m(&osaka()) < 10_000.0);
                }
                None => unlocated += 1,
            }
        }
        assert!(located > 100, "located {located}");
        assert!(unlocated > 20, "unlocated {unlocated}");
    }

    #[test]
    fn traffic_incidents_spike_congestion() {
        let mut s = TrafficSensor::new(
            SensorId(2),
            "r1-probe",
            "route-1",
            osaka(),
            NodeId(1),
            Duration::from_secs(1),
            4,
        );
        let mut incident_levels = Vec::new();
        let mut normal_levels = Vec::new();
        for i in 0..3000 {
            let t = s.sample(Timestamp::from_secs(i));
            let level = t.get("congestion").unwrap().as_f64().unwrap();
            assert!((0.0..=1.0).contains(&level));
            if t.get("incident").unwrap() == &Value::Bool(true) {
                incident_levels.push(level);
            } else {
                normal_levels.push(level);
            }
        }
        assert!(!incident_levels.is_empty(), "no incidents in 3000 samples");
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&incident_levels) > mean(&normal_levels) + 0.2);
    }

    #[test]
    fn social_sensors_advertise_social_kind() {
        let s = TweetSensor::new(
            SensorId(1),
            "t",
            "a",
            osaka(),
            NodeId(0),
            Duration::from_secs(1),
            0,
        );
        assert_eq!(s.advertisement().kind, SensorKind::Social);
        let s = TrafficSensor::new(
            SensorId(2),
            "p",
            "r",
            osaka(),
            NodeId(0),
            Duration::from_secs(1),
            0,
        );
        assert_eq!(s.advertisement().kind, SensorKind::Social);
        assert_eq!(s.wire_format(), WireFormat::KeyValue);
    }
}
