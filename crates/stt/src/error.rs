//! Error type shared by the STT data-model layer.

use std::fmt;

/// Errors raised while constructing or manipulating STT values, schemas,
/// granularities and coordinates.
#[derive(Debug, Clone, PartialEq)]
pub enum SttError {
    /// A value had a different runtime type than the operation required.
    TypeMismatch {
        /// What the operation expected (e.g. `"Float"`).
        expected: String,
        /// What it actually found.
        found: String,
    },
    /// An attribute name was not present in a schema.
    UnknownAttribute(String),
    /// A schema declared the same attribute name twice.
    DuplicateAttribute(String),
    /// A tuple's arity did not match its schema.
    ArityMismatch {
        /// Number of fields in the schema.
        schema: usize,
        /// Number of values in the tuple.
        tuple: usize,
    },
    /// Two units measure different physical quantities and cannot be
    /// converted into each other (e.g. Celsius → metres).
    IncompatibleUnits {
        /// Source unit name.
        from: String,
        /// Destination unit name.
        to: String,
    },
    /// Two granularities are not comparable in the granularity lattice, so a
    /// conversion between them is undefined (e.g. weeks ↔ months).
    IncomparableGranularities {
        /// Source granularity.
        from: String,
        /// Destination granularity.
        to: String,
    },
    /// A latitude/longitude pair was outside the valid WGS84 domain.
    InvalidCoordinates {
        /// Latitude in degrees.
        lat: f64,
        /// Longitude in degrees.
        lon: f64,
    },
    /// A textual theme path was malformed (empty, or empty segment).
    InvalidTheme(String),
    /// A value could not be parsed from text.
    Parse(String),
}

impl fmt::Display for SttError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SttError::TypeMismatch { expected, found } => {
                write!(f, "type mismatch: expected {expected}, found {found}")
            }
            SttError::UnknownAttribute(name) => write!(f, "unknown attribute `{name}`"),
            SttError::DuplicateAttribute(name) => write!(f, "duplicate attribute `{name}`"),
            SttError::ArityMismatch { schema, tuple } => {
                write!(
                    f,
                    "arity mismatch: schema has {schema} fields, tuple has {tuple} values"
                )
            }
            SttError::IncompatibleUnits { from, to } => {
                write!(f, "incompatible units: cannot convert {from} to {to}")
            }
            SttError::IncomparableGranularities { from, to } => {
                write!(f, "granularities {from} and {to} are not comparable")
            }
            SttError::InvalidCoordinates { lat, lon } => {
                write!(f, "invalid coordinates lat={lat} lon={lon}")
            }
            SttError::InvalidTheme(t) => write!(f, "invalid theme path `{t}`"),
            SttError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for SttError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SttError::TypeMismatch {
            expected: "Float".into(),
            found: "Str".into(),
        };
        assert_eq!(e.to_string(), "type mismatch: expected Float, found Str");
        let e = SttError::UnknownAttribute("temp".into());
        assert!(e.to_string().contains("temp"));
        let e = SttError::ArityMismatch {
            schema: 3,
            tuple: 2,
        };
        assert!(e.to_string().contains('3') && e.to_string().contains('2'));
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_: &dyn std::error::Error) {}
        takes_err(&SttError::InvalidTheme(String::new()));
    }
}
