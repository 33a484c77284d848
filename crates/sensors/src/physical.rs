//! Physical sensor models: temperature, humidity, rain, wind, pressure and
//! water level (the phenomena paper §1 lists).

use crate::driver::SensorSim;
use crate::formats::WireFormat;
use crate::gen::{BoundedWalk, DiurnalWave, RainProcess};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sl_netsim::NodeId;
use sl_pubsub::{SensorAdvertisement, SensorKind};
use sl_stt::{
    AttrType, Duration, Field, GeoPoint, Schema, SensorId, SttMeta, Theme, Timestamp, Tuple, Unit,
    Value,
};

/// The advertisement of a physical sensor at a fixed `location`.
#[allow(clippy::expect_used)] // static literals: distinct field names and a valid theme path
fn advertise(
    id: SensorId,
    name: &str,
    fields: Vec<Field>,
    theme: &str,
    location: GeoPoint,
    node: NodeId,
    period: Duration,
) -> SensorAdvertisement {
    SensorAdvertisement {
        id,
        name: name.to_string(),
        kind: SensorKind::Physical,
        schema: Schema::new(fields).expect("static schema").into_ref(),
        theme: Theme::new(theme).expect("static theme"),
        period,
        location: Some(location),
        node,
    }
}

/// A sample of `ad`'s stream taken at `now`: `values` in its schema's order.
#[allow(clippy::expect_used)] // every sensor below passes one value per field of its own schema
fn sample_tuple(ad: &SensorAdvertisement, values: Vec<Value>, now: Timestamp) -> Tuple {
    let meta = SttMeta {
        timestamp: now,
        location: ad.location,
        theme: ad.theme.clone(),
        sensor: ad.id,
        trace: 0,
    };
    Tuple::new(ad.schema.clone(), values, meta).expect("schema matches")
}

/// A weather station reporting temperature (and optionally humidity).
///
/// Heterogeneity knobs: the reporting unit (Celsius or Fahrenheit — a
/// downstream Transform normalises) and whether humidity is included in the
/// schema at all.
pub struct TemperatureSensor {
    ad: SensorAdvertisement,
    wave: DiurnalWave,
    humidity_wave: Option<DiurnalWave>,
    unit: Unit,
    station: String,
    format: WireFormat,
    rng: StdRng,
}

impl TemperatureSensor {
    /// Build a station. `fahrenheit` selects the legacy-unit variant;
    /// `with_humidity` adds a humidity attribute.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: SensorId,
        name: &str,
        location: GeoPoint,
        node: NodeId,
        period: Duration,
        fahrenheit: bool,
        with_humidity: bool,
        seed: u64,
    ) -> TemperatureSensor {
        let unit = if fahrenheit {
            Unit::Fahrenheit
        } else {
            Unit::Celsius
        };
        let mut fields = vec![
            Field::with_unit("temperature", AttrType::Float, unit),
            Field::new("station", AttrType::Str),
        ];
        if with_humidity {
            fields.insert(
                1,
                Field::with_unit("humidity", AttrType::Float, Unit::Percent),
            );
        }
        let ad = advertise(
            id,
            name,
            fields,
            "weather/temperature",
            location,
            node,
            period,
        );
        TemperatureSensor {
            ad,
            wave: DiurnalWave {
                base: 22.0,
                amplitude: 7.0,
                peak_hour: 14.0,
                noise_std: 0.6,
            },
            humidity_wave: with_humidity.then_some(DiurnalWave {
                base: 60.0,
                amplitude: 15.0,
                peak_hour: 4.0,
                noise_std: 3.0,
            }),
            unit,
            station: name.to_string(),
            format: if fahrenheit {
                WireFormat::KeyValue
            } else {
                WireFormat::Csv
            },
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Override the diurnal profile (scenario heat waves).
    pub fn set_wave(&mut self, wave: DiurnalWave) {
        self.wave = wave;
    }
}

impl SensorSim for TemperatureSensor {
    fn advertisement(&self) -> SensorAdvertisement {
        self.ad.clone()
    }

    fn sample(&mut self, now: Timestamp) -> Tuple {
        let celsius = self.wave.value(now, &mut self.rng);
        // `unit` is Celsius or Fahrenheit, both temperatures: this converts.
        let reported = Unit::Celsius.convert(celsius, self.unit).unwrap_or(celsius);
        let mut values = vec![Value::Float((reported * 10.0).round() / 10.0)];
        if let Some(hw) = &self.humidity_wave {
            let h = hw.value(now, &mut self.rng).clamp(5.0, 100.0);
            values.push(Value::Float((h * 10.0).round() / 10.0));
        }
        values.push(Value::Str(self.station.clone()));
        sample_tuple(&self.ad, values, now)
    }

    fn wire_format(&self) -> WireFormat {
        self.format
    }
}

/// A rain gauge: bursty precipitation in mm/h, plus a torrential flag.
pub struct RainSensor {
    ad: SensorAdvertisement,
    process: RainProcess,
    station: String,
    rng: StdRng,
}

impl RainSensor {
    /// Build a rain gauge.
    pub fn new(
        id: SensorId,
        name: &str,
        location: GeoPoint,
        node: NodeId,
        period: Duration,
        seed: u64,
    ) -> RainSensor {
        let ad = advertise(
            id,
            name,
            vec![
                Field::with_unit("rain", AttrType::Float, Unit::MillimeterRain),
                Field::new("torrential", AttrType::Bool),
                Field::new("station", AttrType::Str),
            ],
            "weather/rain",
            location,
            node,
            period,
        );
        RainSensor {
            ad,
            process: RainProcess::new(0.04, 0.15, 12.0),
            station: name.to_string(),
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Force the burst parameters (scenario storms).
    pub fn set_process(&mut self, process: RainProcess) {
        self.process = process;
    }
}

impl SensorSim for RainSensor {
    fn advertisement(&self) -> SensorAdvertisement {
        self.ad.clone()
    }

    fn sample(&mut self, now: Timestamp) -> Tuple {
        let mm = self.process.step(&mut self.rng);
        let values = vec![
            Value::Float((mm * 100.0).round() / 100.0),
            Value::Bool(mm > 20.0),
            Value::Str(self.station.clone()),
        ];
        sample_tuple(&self.ad, values, now)
    }

    fn wire_format(&self) -> WireFormat {
        WireFormat::Json
    }
}

/// A combined wind/pressure station.
pub struct WindPressureSensor {
    ad: SensorAdvertisement,
    wind: BoundedWalk,
    pressure: BoundedWalk,
    rng: StdRng,
}

impl WindPressureSensor {
    /// Build a station.
    pub fn new(
        id: SensorId,
        name: &str,
        location: GeoPoint,
        node: NodeId,
        period: Duration,
        seed: u64,
    ) -> WindPressureSensor {
        let ad = advertise(
            id,
            name,
            vec![
                Field::with_unit("wind_speed", AttrType::Float, Unit::MeterPerSecond),
                Field::with_unit("pressure", AttrType::Float, Unit::Hectopascal),
            ],
            "weather/wind",
            location,
            node,
            period,
        );
        WindPressureSensor {
            ad,
            wind: BoundedWalk::new(4.0, 0.0, 40.0, 0.8, 0.02),
            pressure: BoundedWalk::new(1013.0, 960.0, 1050.0, 0.5, 0.01),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl SensorSim for WindPressureSensor {
    fn advertisement(&self) -> SensorAdvertisement {
        self.ad.clone()
    }

    fn sample(&mut self, now: Timestamp) -> Tuple {
        let values = vec![
            Value::Float((self.wind.step(&mut self.rng) * 10.0).round() / 10.0),
            Value::Float((self.pressure.step(&mut self.rng) * 10.0).round() / 10.0),
        ];
        sample_tuple(&self.ad, values, now)
    }
}

/// A water-level sensor (sea/river level, paper §1) that rises during rain.
pub struct WaterLevelSensor {
    ad: SensorAdvertisement,
    level: BoundedWalk,
    rng: StdRng,
}

impl WaterLevelSensor {
    /// Build a level sensor.
    pub fn new(
        id: SensorId,
        name: &str,
        location: GeoPoint,
        node: NodeId,
        period: Duration,
        seed: u64,
    ) -> WaterLevelSensor {
        let ad = advertise(
            id,
            name,
            vec![
                Field::with_unit("level", AttrType::Float, Unit::Meter),
                Field::new("gauge", AttrType::Str),
            ],
            "water/level",
            location,
            node,
            period,
        );
        WaterLevelSensor {
            ad,
            level: BoundedWalk::new(1.2, 0.0, 6.0, 0.05, 0.01),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl SensorSim for WaterLevelSensor {
    fn advertisement(&self) -> SensorAdvertisement {
        self.ad.clone()
    }

    fn sample(&mut self, now: Timestamp) -> Tuple {
        let name = self.ad.name.clone();
        let values = vec![
            Value::Float((self.level.step(&mut self.rng) * 100.0).round() / 100.0),
            Value::Str(name),
        ];
        sample_tuple(&self.ad, values, now)
    }

    fn wire_format(&self) -> WireFormat {
        WireFormat::KeyValue
    }
}

/// Convenience: is a value plausibly a temperature in the advertised unit?
/// Used by tests and failure-injection checks.
pub fn plausible_temperature(v: f64, unit: Unit) -> bool {
    let celsius = unit.convert(v, Unit::Celsius).unwrap_or(f64::NAN);
    (-40.0..=50.0).contains(&celsius)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn osaka() -> GeoPoint {
        GeoPoint::new_unchecked(34.6937, 135.5023)
    }

    fn noon() -> Timestamp {
        Timestamp::from_civil(2016, 7, 1, 12, 0, 0)
    }

    #[test]
    fn temperature_sensor_celsius() {
        let mut s = TemperatureSensor::new(
            SensorId(1),
            "osaka-temp-0",
            osaka(),
            NodeId(0),
            Duration::from_secs(10),
            false,
            true,
            42,
        );
        let t = s.sample(noon());
        let v = t.get("temperature").unwrap().as_f64().unwrap();
        assert!(plausible_temperature(v, Unit::Celsius), "{v}");
        let h = t.get("humidity").unwrap().as_f64().unwrap();
        assert!((5.0..=100.0).contains(&h));
        assert_eq!(
            t.get("station").unwrap(),
            &Value::Str("osaka-temp-0".into())
        );
        assert_eq!(t.meta.theme.as_str(), "weather/temperature");
        assert_eq!(t.meta.location, Some(osaka()));
    }

    #[test]
    fn fahrenheit_variant_reports_fahrenheit() {
        let mut s = TemperatureSensor::new(
            SensorId(2),
            "legacy",
            osaka(),
            NodeId(0),
            Duration::from_secs(10),
            true,
            false,
            42,
        );
        assert_eq!(
            s.advertisement().schema.field("temperature").unwrap().unit,
            Some(Unit::Fahrenheit)
        );
        let t = s.sample(noon());
        let v = t.get("temperature").unwrap().as_f64().unwrap();
        // Midday in July: roughly 70–100 °F.
        assert!((40.0..120.0).contains(&v), "{v}");
        assert!(plausible_temperature(v, Unit::Fahrenheit));
        // No humidity attribute in this variant.
        assert!(t.get("humidity").is_err());
        assert_eq!(s.wire_format(), WireFormat::KeyValue);
    }

    #[test]
    fn determinism_per_seed() {
        let mk = || {
            TemperatureSensor::new(
                SensorId(1),
                "s",
                osaka(),
                NodeId(0),
                Duration::from_secs(10),
                false,
                true,
                7,
            )
        };
        let mut a = mk();
        let mut b = mk();
        for i in 0..20 {
            let t = Timestamp::from_secs(i * 10);
            assert_eq!(a.sample(t), b.sample(t));
        }
    }

    #[test]
    fn rain_sensor_flags_torrential() {
        let mut s = RainSensor::new(
            SensorId(3),
            "rain-0",
            osaka(),
            NodeId(0),
            Duration::from_secs(60),
            1,
        );
        // Force a violent process so we observe both states.
        s.set_process(RainProcess::new(0.5, 0.1, 30.0));
        let mut saw_torrential = false;
        let mut saw_dry = false;
        for i in 0..500 {
            let t = s.sample(Timestamp::from_secs(i * 60));
            let mm = t.get("rain").unwrap().as_f64().unwrap();
            let flag = t.get("torrential").unwrap().as_bool().unwrap();
            assert_eq!(flag, mm > 20.0);
            saw_torrential |= flag;
            saw_dry |= mm == 0.0;
        }
        assert!(saw_torrential && saw_dry);
    }

    #[test]
    fn wind_pressure_in_physical_ranges() {
        let mut s = WindPressureSensor::new(
            SensorId(4),
            "wp-0",
            osaka(),
            NodeId(0),
            Duration::from_secs(30),
            5,
        );
        for i in 0..200 {
            let t = s.sample(Timestamp::from_secs(i * 30));
            let w = t.get("wind_speed").unwrap().as_f64().unwrap();
            let p = t.get("pressure").unwrap().as_f64().unwrap();
            assert!((0.0..=40.0).contains(&w));
            assert!((960.0..=1050.0).contains(&p));
        }
    }

    #[test]
    fn water_level_bounded() {
        let mut s = WaterLevelSensor::new(
            SensorId(5),
            "river-0",
            osaka(),
            NodeId(0),
            Duration::from_mins(5),
            5,
        );
        for i in 0..100 {
            let t = s.sample(Timestamp::from_secs(i * 300));
            let l = t.get("level").unwrap().as_f64().unwrap();
            assert!((0.0..=6.0).contains(&l));
        }
        assert_eq!(s.advertisement().theme.as_str(), "water/level");
    }

    #[test]
    fn wire_round_trip_through_formats() {
        let mut s = TemperatureSensor::new(
            SensorId(1),
            "s",
            osaka(),
            NodeId(0),
            Duration::from_secs(10),
            false,
            true,
            7,
        );
        let (payload, original) = s.emit(noon());
        let decoded = crate::formats::decode_payload(
            &payload,
            s.wire_format(),
            &s.advertisement().schema,
            original.meta.clone(),
        )
        .unwrap();
        assert_eq!(
            decoded.get("temperature").unwrap(),
            original.get("temperature").unwrap()
        );
        assert_eq!(
            decoded.get("station").unwrap(),
            original.get("station").unwrap()
        );
    }
}
