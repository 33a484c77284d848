//! Dynamically-typed attribute values.
//!
//! Sensor data is heterogeneous: schemas "are not fixed but depend on the
//! sensors" (paper §3). [`Value`] is the runtime representation of one
//! attribute of one tuple; type checking against a [`crate::Schema`] happens
//! at dataflow-validation time, and coercions follow the rules defined here.

use crate::error::SttError;
use crate::schema::AttrType;
use crate::space::GeoPoint;
use crate::time::Timestamp;
use std::cmp::Ordering;
use std::fmt;

/// A single attribute value flowing through the system.
///
/// `Value` deliberately keeps the set of shapes small — the paper's sensors
/// produce scalar measurements, text (tweets) and positions. Structured
/// payloads are flattened into attributes by the extraction layer
/// (`sl-sensors::formats`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absent / unknown value (a sensor omitted the attribute).
    Null,
    /// Boolean flag.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit IEEE float.
    Float(f64),
    /// UTF-8 text (tweet bodies, status strings, ...).
    Str(String),
    /// Point in time.
    Time(Timestamp),
    /// Geographical position (WGS84).
    Geo(GeoPoint),
}

impl Value {
    /// The runtime [`AttrType`] of this value, or `None` for [`Value::Null`]
    /// (null inhabits every type).
    pub fn attr_type(&self) -> Option<AttrType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(AttrType::Bool),
            Value::Int(_) => Some(AttrType::Int),
            Value::Float(_) => Some(AttrType::Float),
            Value::Str(_) => Some(AttrType::Str),
            Value::Time(_) => Some(AttrType::Time),
            Value::Geo(_) => Some(AttrType::Geo),
        }
    }

    /// True if the value is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value: `Int` and `Float` map to `f64`, `Bool`
    /// maps to 0.0/1.0, `Time` maps to its epoch-milliseconds.
    ///
    /// Returns an error for `Str`, `Geo` and `Null`.
    pub fn as_f64(&self) -> Result<f64, SttError> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            Value::Bool(b) => Ok(if *b { 1.0 } else { 0.0 }),
            Value::Time(t) => Ok(t.as_millis() as f64),
            other => Err(SttError::TypeMismatch {
                expected: "numeric".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// Integer view of the value (`Int` only, plus `Bool` as 0/1).
    pub fn as_i64(&self) -> Result<i64, SttError> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Bool(b) => Ok(i64::from(*b)),
            other => Err(SttError::TypeMismatch {
                expected: "Int".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// String view of the value.
    pub fn as_str(&self) -> Result<&str, SttError> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(SttError::TypeMismatch {
                expected: "Str".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// Timestamp view of the value.
    pub fn as_time(&self) -> Result<Timestamp, SttError> {
        match self {
            Value::Time(t) => Ok(*t),
            other => Err(SttError::TypeMismatch {
                expected: "Time".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// Geographic view of the value.
    pub fn as_geo(&self) -> Result<GeoPoint, SttError> {
        match self {
            Value::Geo(g) => Ok(*g),
            other => Err(SttError::TypeMismatch {
                expected: "Geo".into(),
                found: other.type_name().into(),
            }),
        }
    }

    /// Human-readable name of the runtime type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "Null",
            Value::Bool(_) => "Bool",
            Value::Int(_) => "Int",
            Value::Float(_) => "Float",
            Value::Str(_) => "Str",
            Value::Time(_) => "Time",
            Value::Geo(_) => "Geo",
        }
    }

    /// Total comparison used by MIN/MAX aggregation and ORDER-like logic.
    ///
    /// Values of different type classes compare by a fixed type rank
    /// (`Null < Bool < numeric < Str < Time < Geo`); numeric values compare
    /// across `Int`/`Float`; `NaN` sorts greater than every other float so the
    /// ordering stays total.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::Time(_) => 4,
                Value::Geo(_) => 5,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).total_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Time(a), Value::Time(b)) => a.cmp(b),
            (Value::Geo(a), Value::Geo(b)) => a
                .lat
                .total_cmp(&b.lat)
                .then_with(|| a.lon.total_cmp(&b.lon)),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Equality with `Int`/`Float` cross-comparison (used by join predicates
    /// and filter conditions, where `temperature = 25` should match `25.0`).
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Float(b)) => (*a as f64) == *b,
            (Value::Float(a), Value::Int(b)) => *a == (*b as f64),
            (a, b) => a == b,
        }
    }

    /// Parse a textual representation into the given target type.
    ///
    /// Used by the extraction layer when decoding heterogeneous wire formats
    /// and by validation-rule checks (paper §2: "data conform to given
    /// validation rules").
    pub fn parse_as(text: &str, ty: AttrType) -> Result<Value, SttError> {
        let text = trim_field(text);
        match ty {
            AttrType::Bool => {
                let is = |words: [&str; 4]| words.iter().any(|w| text.eq_ignore_ascii_case(w));
                if is(["true", "1", "yes", "t"]) {
                    Ok(Value::Bool(true))
                } else if is(["false", "0", "no", "f"]) {
                    Ok(Value::Bool(false))
                } else {
                    Err(SttError::Parse(format!("`{text}` is not a Bool")))
                }
            }
            AttrType::Int => text
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| SttError::Parse(format!("`{text}` is not an Int"))),
            AttrType::Float => text
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| SttError::Parse(format!("`{text}` is not a Float"))),
            AttrType::Str => Ok(Value::Str(text.to_string())),
            AttrType::Time => text
                .parse::<i64>()
                .map(|ms| Value::Time(Timestamp::from_millis(ms)))
                .map_err(|_| SttError::Parse(format!("`{text}` is not a Time (epoch ms)"))),
            AttrType::Geo => {
                let (lat, lon) = text
                    .split_once(',')
                    .ok_or_else(|| SttError::Parse(format!("`{text}` is not a Geo pair")))?;
                let lat = lat
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| SttError::Parse(format!("bad latitude in `{text}`")))?;
                let lon = lon
                    .trim()
                    .parse::<f64>()
                    .map_err(|_| SttError::Parse(format!("bad longitude in `{text}`")))?;
                GeoPoint::new(lat, lon).map(Value::Geo)
            }
        }
    }

    /// Approximate in-memory footprint in bytes, used by the monitor's
    /// byte-throughput statistics and the network simulator's message sizing.
    pub fn byte_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) | Value::Time(_) => 8,
            Value::Str(s) => s.len(),
            Value::Geo(_) => 16,
        }
    }
}

/// `text.trim()`, without decoding a char when both ends are visible ASCII
/// — the usual shape of a field cut out of a wire payload.
pub fn trim_field(text: &str) -> &str {
    let visible = |b: Option<&u8>| b.is_some_and(u8::is_ascii_graphic);
    if visible(text.as_bytes().first()) && visible(text.as_bytes().last()) {
        text
    } else {
        text.trim()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Time(t) => write!(f, "{t}"),
            Value::Geo(g) => write!(f, "({}, {})", g.lat, g.lon),
        }
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}
impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}
impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}
impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}
impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}
impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}
impl From<Timestamp> for Value {
    fn from(t: Timestamp) -> Self {
        Value::Time(t)
    }
}
impl From<GeoPoint> for Value {
    fn from(g: GeoPoint) -> Self {
        Value::Geo(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attr_type_of_each_variant() {
        assert_eq!(Value::Null.attr_type(), None);
        assert_eq!(Value::Bool(true).attr_type(), Some(AttrType::Bool));
        assert_eq!(Value::Int(1).attr_type(), Some(AttrType::Int));
        assert_eq!(Value::Float(1.0).attr_type(), Some(AttrType::Float));
        assert_eq!(Value::Str("x".into()).attr_type(), Some(AttrType::Str));
        assert_eq!(
            Value::Time(Timestamp::from_millis(0)).attr_type(),
            Some(AttrType::Time)
        );
    }

    #[test]
    fn numeric_views() {
        assert_eq!(Value::Int(4).as_f64().unwrap(), 4.0);
        assert_eq!(Value::Float(2.5).as_f64().unwrap(), 2.5);
        assert_eq!(Value::Bool(true).as_f64().unwrap(), 1.0);
        assert!(Value::Str("x".into()).as_f64().is_err());
        assert_eq!(Value::Int(4).as_i64().unwrap(), 4);
        assert!(Value::Float(4.0).as_i64().is_err());
    }

    #[test]
    fn total_cmp_is_total_on_mixed_types() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Int(1),
            Value::Float(2.0),
            Value::Str("a".into()),
            Value::Time(Timestamp::from_millis(5)),
        ];
        for a in &vals {
            assert_eq!(a.total_cmp(a), Ordering::Equal);
            for b in &vals {
                let ab = a.total_cmp(b);
                let ba = b.total_cmp(a);
                assert_eq!(ab, ba.reverse());
            }
        }
    }

    #[test]
    fn total_cmp_numeric_cross_type() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(
            Value::Float(3.0).total_cmp(&Value::Int(2)),
            Ordering::Greater
        );
        assert_eq!(Value::Int(2).total_cmp(&Value::Float(2.0)), Ordering::Equal);
    }

    #[test]
    fn nan_sorts_last_among_floats() {
        assert_eq!(
            Value::Float(f64::NAN).total_cmp(&Value::Float(f64::INFINITY)),
            Ordering::Greater
        );
    }

    #[test]
    fn loose_eq_across_int_float() {
        assert!(Value::Int(25).loose_eq(&Value::Float(25.0)));
        assert!(Value::Float(25.0).loose_eq(&Value::Int(25)));
        assert!(!Value::Int(25).loose_eq(&Value::Float(25.5)));
        assert!(Value::Str("a".into()).loose_eq(&Value::Str("a".into())));
    }

    #[test]
    fn parse_each_type() {
        assert_eq!(
            Value::parse_as("true", AttrType::Bool).unwrap(),
            Value::Bool(true)
        );
        assert_eq!(
            Value::parse_as("0", AttrType::Bool).unwrap(),
            Value::Bool(false)
        );
        assert_eq!(
            Value::parse_as(" 42 ", AttrType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::parse_as("2.5", AttrType::Float).unwrap(),
            Value::Float(2.5)
        );
        assert_eq!(
            Value::parse_as("hello", AttrType::Str).unwrap(),
            Value::Str("hello".into())
        );
        assert_eq!(
            Value::parse_as("1000", AttrType::Time).unwrap(),
            Value::Time(Timestamp::from_millis(1000))
        );
        let geo = Value::parse_as("34.69, 135.50", AttrType::Geo).unwrap();
        match geo {
            Value::Geo(g) => {
                assert!((g.lat - 34.69).abs() < 1e-9);
                assert!((g.lon - 135.50).abs() < 1e-9);
            }
            other => panic!("expected Geo, got {other:?}"),
        }
    }

    #[test]
    fn trim_field_is_trim() {
        for text in [
            "",
            " ",
            "a",
            " a",
            "a\t",
            "\u{3000}x",
            "x\u{3000}",
            "é",
            " é ",
            "a b",
        ] {
            assert_eq!(trim_field(text), text.trim(), "{text:?}");
        }
    }

    #[test]
    fn bool_parsing_ignores_ascii_case() {
        for (text, b) in [("TRUE", true), ("Yes", true), ("T", true), ("No", false)] {
            assert_eq!(
                Value::parse_as(text, AttrType::Bool).unwrap(),
                Value::Bool(b)
            );
        }
        assert!(Value::parse_as("truth", AttrType::Bool).is_err());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Value::parse_as("maybe", AttrType::Bool).is_err());
        assert!(Value::parse_as("4.2", AttrType::Int).is_err());
        assert!(Value::parse_as("abc", AttrType::Float).is_err());
        assert!(Value::parse_as("91.0,0.0", AttrType::Geo).is_err()); // lat out of range
        assert!(Value::parse_as("nopair", AttrType::Geo).is_err());
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::Bool(true).to_string(), "true");
        assert_eq!(Value::Null.to_string(), "null");
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Value::Null.byte_size(), 1);
        assert_eq!(Value::Int(0).byte_size(), 8);
        assert_eq!(Value::Str("abcd".into()).byte_size(), 4);
        assert_eq!(Value::Geo(GeoPoint::new(0.0, 0.0).unwrap()).byte_size(), 16);
    }
}
