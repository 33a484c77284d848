//! Dataflow-layer errors.

use sl_dsn::DsnError;
use sl_ops::OpError;
use std::fmt;

/// Errors from building, validating, optimising or debugging dataflows.
#[derive(Debug, Clone, PartialEq)]
pub enum DataflowError {
    /// A node name is declared twice.
    DuplicateNode(String),
    /// A referenced node does not exist.
    UnknownNode(String),
    /// An edge references a non-producer (sink used as input).
    NotAProducer(String),
    /// Structural error surfaced from the DSN layer.
    Dsn(DsnError),
    /// Schema-level error at a specific node.
    AtNode {
        /// The node where validation failed.
        node: String,
        /// The underlying operator error.
        error: OpError,
    },
    /// A sample-run input is missing or malformed.
    BadSample(String),
}

impl fmt::Display for DataflowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataflowError::DuplicateNode(n) => write!(f, "duplicate node `{n}`"),
            DataflowError::UnknownNode(n) => write!(f, "unknown node `{n}`"),
            DataflowError::NotAProducer(n) => write!(f, "`{n}` cannot be used as an input"),
            DataflowError::Dsn(e) => write!(f, "{e}"),
            DataflowError::AtNode { node, error } => write!(f, "at node `{node}`: {error}"),
            DataflowError::BadSample(msg) => write!(f, "bad sample: {msg}"),
        }
    }
}

impl std::error::Error for DataflowError {}

impl From<DsnError> for DataflowError {
    fn from(e: DsnError) -> Self {
        DataflowError::Dsn(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        let e = DataflowError::AtNode {
            node: "f1".into(),
            error: OpError::BadSpec("x".into()),
        };
        assert!(e.to_string().contains("f1"));
        let e: DataflowError = DsnError::DuplicateName("a".into()).into();
        assert!(e.to_string().contains('a'));
    }
}
