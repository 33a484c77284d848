//! The sensor simulation interface.

use crate::formats::WireFormat;
use sl_pubsub::SensorAdvertisement;
use sl_stt::{Timestamp, Tuple};

/// A simulated sensor: advertises itself to the pub/sub layer and produces
/// one measurement per sampling instant.
///
/// Implementations own their RNG (seeded at construction) so that a fleet
/// replays identically run to run. The engine schedules calls every
/// [`SensorAdvertisement::period`] of virtual time.
pub trait SensorSim: Send {
    /// The advertisement published when this sensor joins.
    fn advertisement(&self) -> SensorAdvertisement;

    /// Produce the measurement taken at `now`.
    fn sample(&mut self, now: Timestamp) -> Tuple;

    /// The wire encoding this sensor transmits in.
    fn wire_format(&self) -> WireFormat {
        WireFormat::Csv
    }

    /// Sample and encode — what actually leaves the device. The default
    /// implementation encodes [`SensorSim::sample`] with
    /// [`SensorSim::wire_format`]; the tuple's metadata travels out of band.
    fn emit(&mut self, now: Timestamp) -> (Vec<u8>, Tuple) {
        let tuple = self.sample(now);
        (self.wire_format().encode(&tuple), tuple)
    }

    /// Called instead of [`SensorSim::emit`] when the broker has revoked
    /// this sensor's generation credit (`Block`-mode backpressure): the
    /// device skips the sampling instant entirely — no tuple is generated,
    /// so nothing can be lost. Drivers that buffer or coalesce on-device
    /// can override this to model that behaviour; the default does nothing.
    fn on_throttled(&mut self, _now: Timestamp) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_netsim::NodeId;
    use sl_pubsub::SensorKind;
    use sl_stt::{
        AttrType, Duration, Field, GeoPoint, Schema, SchemaRef, SensorId, SttMeta, Theme, Value,
    };

    struct Constant {
        schema: SchemaRef,
    }

    impl SensorSim for Constant {
        fn advertisement(&self) -> SensorAdvertisement {
            SensorAdvertisement {
                id: SensorId(1),
                name: "const".into(),
                kind: SensorKind::Physical,
                schema: self.schema.clone(),
                theme: Theme::new("weather").unwrap(),
                period: Duration::from_secs(1),
                location: Some(GeoPoint::new_unchecked(34.7, 135.5)),
                node: NodeId(0),
            }
        }

        fn sample(&mut self, now: Timestamp) -> Tuple {
            Tuple::new(
                self.schema.clone(),
                vec![Value::Float(1.5)],
                SttMeta::new(
                    now,
                    GeoPoint::new_unchecked(34.7, 135.5),
                    Theme::new("weather").unwrap(),
                    SensorId(1),
                ),
            )
            .unwrap()
        }
    }

    #[test]
    fn default_emit_encodes_sample() {
        let schema = Schema::new(vec![Field::new("v", AttrType::Float)])
            .unwrap()
            .into_ref();
        let mut s = Constant {
            schema: schema.clone(),
        };
        let (payload, tuple) = s.emit(Timestamp::from_secs(9));
        assert_eq!(&payload[..], b"1.5");
        assert_eq!(tuple.meta.timestamp, Timestamp::from_secs(9));
        let decoded =
            crate::formats::decode_payload(&payload, WireFormat::Csv, &schema, tuple.meta.clone())
                .unwrap();
        assert_eq!(decoded.get("v").unwrap(), &Value::Float(1.5));
    }
}
