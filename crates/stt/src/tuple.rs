//! Tuples: the unit of data flowing through every stream.
//!
//! A [`Tuple`] is a row of [`Value`]s conforming to a shared [`SchemaRef`],
//! plus the STT metadata ([`SttMeta`]) that positions it in space, time and
//! theme. When "a sensor is not able to produce the spatio-temporal
//! information of the produced data, this information is added by the
//! Publish-Subscribe system" (paper §3) — hence location is optional at the
//! sensor and enriched before tuples enter a dataflow.

use crate::error::SttError;
use crate::schema::SchemaRef;
use crate::space::GeoPoint;
use crate::theme::Theme;
use crate::time::Timestamp;
use crate::value::Value;
use std::fmt;

/// Identifier of a sensor, assigned by the publish/subscribe registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SensorId(pub u64);

impl fmt::Display for SensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sensor#{}", self.0)
    }
}

/// Space–time–thematic metadata attached to every tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct SttMeta {
    /// When the measurement was taken (sensor clock, UTC).
    pub timestamp: Timestamp,
    /// Where it was taken; `None` until enriched by the pub/sub layer.
    pub location: Option<GeoPoint>,
    /// Thematic classification of the producing stream.
    pub theme: Theme,
    /// The producing sensor.
    pub sensor: SensorId,
    /// Observability trace id threading the tuple through span-traced
    /// operators; 0 means "no trace assigned" (the engine assigns ids as
    /// tuples enter a dataflow).
    pub trace: u64,
}

impl SttMeta {
    /// Metadata for a sensor at a fixed, known position.
    pub fn new(
        timestamp: Timestamp,
        location: GeoPoint,
        theme: Theme,
        sensor: SensorId,
    ) -> SttMeta {
        SttMeta {
            timestamp,
            location: Some(location),
            theme,
            sensor,
            trace: 0,
        }
    }

    /// Metadata lacking a position (to be enriched by the pub/sub layer).
    pub fn without_location(timestamp: Timestamp, theme: Theme, sensor: SensorId) -> SttMeta {
        SttMeta {
            timestamp,
            location: None,
            theme,
            sensor,
            trace: 0,
        }
    }
}

/// A row of values plus its STT metadata.
///
/// The schema is shared via [`SchemaRef`]; cloning a tuple clones the values
/// but only bumps the schema's reference count.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    schema: SchemaRef,
    values: Vec<Value>,
    /// STT metadata (public: operators routinely read and rewrite it).
    pub meta: SttMeta,
}

impl Tuple {
    /// Build a tuple, checking arity against the schema.
    pub fn new(schema: SchemaRef, values: Vec<Value>, meta: SttMeta) -> Result<Tuple, SttError> {
        if values.len() != schema.len() {
            return Err(SttError::ArityMismatch {
                schema: schema.len(),
                tuple: values.len(),
            });
        }
        Ok(Tuple {
            schema,
            values,
            meta,
        })
    }

    /// The tuple's schema.
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// The values, in schema order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value of the attribute named `name`.
    pub fn get(&self, name: &str) -> Result<&Value, SttError> {
        self.schema.index_of(name).map(|i| &self.values[i])
    }

    /// Value at position `idx`.
    pub fn get_at(&self, idx: usize) -> Option<&Value> {
        self.values.get(idx)
    }

    /// Overwrite the attribute named `name`.
    pub fn set(&mut self, name: &str, value: Value) -> Result<(), SttError> {
        let i = self.schema.index_of(name)?;
        self.values[i] = value;
        Ok(())
    }

    /// This tuple under a wider schema with one value appended (Virtual
    /// Property): the value is pushed onto the moved values. The caller
    /// supplies the new schema so that a single `SchemaRef` is shared by the
    /// whole output stream.
    pub fn extended(mut self, new_schema: SchemaRef, value: Value) -> Result<Tuple, SttError> {
        if new_schema.len() != self.values.len() + 1 {
            return Err(SttError::ArityMismatch {
                schema: new_schema.len(),
                tuple: self.values.len() + 1,
            });
        }
        self.values.push(value);
        self.schema = new_schema;
        Ok(self)
    }

    /// Concatenate two tuples under a pre-computed join schema.
    ///
    /// STT metadata of the combined tuple: the *later* timestamp (the join
    /// result exists once both inputs do), the left location, and the left
    /// theme — the left stream is the "driving" stream of the join.
    pub fn joined(&self, right: &Tuple, join_schema: SchemaRef) -> Result<Tuple, SttError> {
        if join_schema.len() != self.values.len() + right.values.len() {
            return Err(SttError::ArityMismatch {
                schema: join_schema.len(),
                tuple: self.values.len() + right.values.len(),
            });
        }
        let mut values = Vec::with_capacity(join_schema.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&right.values);
        let meta = SttMeta {
            timestamp: self.meta.timestamp.max(right.meta.timestamp),
            location: self.meta.location.or(right.meta.location),
            theme: self.meta.theme.clone(),
            sensor: self.meta.sensor,
            // The driving (left) stream's trace follows the join result.
            trace: self.meta.trace,
        };
        Ok(Tuple {
            schema: join_schema,
            values,
            meta,
        })
    }

    /// Consume the tuple, returning its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Approximate wire size in bytes (values + fixed metadata overhead),
    /// used for network-level accounting.
    pub fn byte_size(&self) -> usize {
        let meta = 8 /* ts */ + 17 /* loc tag+point */ + self.meta.theme.as_str().len() + 8 /* sensor */;
        self.values.iter().map(Value::byte_size).sum::<usize>() + meta
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (field, v)) in self.schema.fields().iter().zip(&self.values).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}={}", field.name, v)?;
        }
        write!(f, "}} @{} {}", self.meta.timestamp, self.meta.theme)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{AttrType, Field, Schema};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("temperature", AttrType::Float),
            Field::new("station", AttrType::Str),
        ])
        .unwrap()
        .into_ref()
    }

    fn meta() -> SttMeta {
        SttMeta::new(
            Timestamp::from_secs(100),
            GeoPoint::new_unchecked(34.69, 135.50),
            Theme::new("weather/temperature").unwrap(),
            SensorId(7),
        )
    }

    fn tuple() -> Tuple {
        Tuple::new(
            schema(),
            vec![Value::Float(25.5), Value::Str("osaka-1".into())],
            meta(),
        )
        .unwrap()
    }

    #[test]
    fn arity_checked() {
        let err = Tuple::new(schema(), vec![Value::Float(1.0)], meta()).unwrap_err();
        assert_eq!(
            err,
            SttError::ArityMismatch {
                schema: 2,
                tuple: 1
            }
        );
    }

    #[test]
    fn get_set_by_name() {
        let mut t = tuple();
        assert_eq!(t.get("temperature").unwrap(), &Value::Float(25.5));
        assert_eq!(t.get("station").unwrap(), &Value::Str("osaka-1".into()));
        assert!(t.get("missing").is_err());
        t.set("temperature", Value::Float(30.0)).unwrap();
        assert_eq!(t.get("temperature").unwrap(), &Value::Float(30.0));
        assert!(t.set("missing", Value::Null).is_err());
        assert_eq!(t.get_at(1), Some(&Value::Str("osaka-1".into())));
        assert_eq!(t.get_at(9), None);
    }

    #[test]
    fn extended_appends_value() {
        let t = tuple();
        let wide = t
            .schema()
            .with_field(Field::new("apparent", AttrType::Float))
            .unwrap()
            .into_ref();
        let t2 = t.clone().extended(wide, Value::Float(27.1)).unwrap();
        assert_eq!(t2.values().len(), 3);
        assert_eq!(t2.get("apparent").unwrap(), &Value::Float(27.1));
        assert_eq!(t2.meta, t.meta);
        // Wrong target schema arity is rejected.
        assert!(t.extended(schema(), Value::Null).is_err());
    }

    #[test]
    fn joined_concatenates_and_takes_later_timestamp() {
        let left = tuple();
        let right_schema = Schema::new(vec![Field::new("rain", AttrType::Float)])
            .unwrap()
            .into_ref();
        let mut rmeta = meta();
        rmeta.timestamp = Timestamp::from_secs(150);
        rmeta.sensor = SensorId(9);
        let right = Tuple::new(right_schema.clone(), vec![Value::Float(12.0)], rmeta).unwrap();
        let join_schema = left.schema().join(&right_schema).into_ref();
        let j = left.joined(&right, join_schema).unwrap();
        assert_eq!(j.values().len(), 3);
        assert_eq!(j.meta.timestamp, Timestamp::from_secs(150));
        assert_eq!(j.meta.sensor, SensorId(7)); // left is driving
        assert_eq!(j.get("rain").unwrap(), &Value::Float(12.0));
    }

    #[test]
    fn joined_falls_back_to_right_location() {
        let mut lmeta = meta();
        lmeta.location = None;
        let left = Tuple::new(
            schema(),
            vec![Value::Float(1.0), Value::Str("s".into())],
            lmeta,
        )
        .unwrap();
        let right = tuple();
        let js = left.schema().join(right.schema()).into_ref();
        let j = left.joined(&right, js).unwrap();
        assert_eq!(j.meta.location, right.meta.location);
    }

    #[test]
    fn display_shows_attributes() {
        let t = tuple();
        let s = t.to_string();
        assert!(s.contains("temperature=25.5"));
        assert!(s.contains("weather/temperature"));
    }

    #[test]
    fn byte_size_counts_values_and_meta() {
        let t = tuple();
        // 8 (float) + 7 ("osaka-1") + meta(8+17+19+8).
        assert_eq!(
            t.byte_size(),
            8 + 7 + 8 + 17 + "weather/temperature".len() + 8
        );
    }

    #[test]
    fn schema_sharing_is_cheap() {
        let t = tuple();
        let t2 = t.clone();
        assert!(std::sync::Arc::ptr_eq(t.schema(), t2.schema()));
    }
}
