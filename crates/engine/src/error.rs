//! Engine-layer errors.

use crate::config::ConfigError;
use sl_dataflow::DataflowError;
use sl_netsim::NetError;
use sl_ops::OpError;
use sl_pubsub::PubSubError;
use std::fmt;

/// Errors raised while deploying or running dataflows.
#[derive(Debug)]
pub enum EngineError {
    /// The dataflow failed validation.
    Dataflow(DataflowError),
    /// A network operation failed (routing, QoS admission, placement).
    Net(NetError),
    /// A pub/sub operation failed.
    PubSub(PubSubError),
    /// A runtime operator error (a tuple could not be processed).
    Op {
        /// The deployment.
        deployment: String,
        /// The operator.
        operator: String,
        /// Underlying error.
        error: OpError,
    },
    /// A deployment with this name already exists.
    DuplicateDeployment(String),
    /// No deployment with this name.
    UnknownDeployment(String),
    /// A sensor id is unknown to the engine.
    UnknownSensor(u64),
    /// No continuous-query subscription with this handle.
    UnknownSubscriber(u64),
    /// No materialized view with this handle.
    UnknownView(u64),
    /// The durable storage layer failed (I/O or corruption past recovery).
    Durable(String),
    /// The engine configuration failed validation at build time.
    Config(ConfigError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Dataflow(e) => write!(f, "{e}"),
            EngineError::Net(e) => write!(f, "{e}"),
            EngineError::PubSub(e) => write!(f, "{e}"),
            EngineError::Op {
                deployment,
                operator,
                error,
            } => {
                write!(f, "in `{deployment}`/`{operator}`: {error}")
            }
            EngineError::DuplicateDeployment(n) => write!(f, "deployment `{n}` already exists"),
            EngineError::UnknownDeployment(n) => write!(f, "unknown deployment `{n}`"),
            EngineError::UnknownSensor(id) => write!(f, "unknown sensor #{id}"),
            EngineError::UnknownSubscriber(id) => write!(f, "unknown subscriber s{id}"),
            EngineError::UnknownView(id) => write!(f, "unknown view v{id}"),
            EngineError::Durable(e) => write!(f, "durable storage: {e}"),
            EngineError::Config(e) => write!(f, "invalid engine config: {e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DataflowError> for EngineError {
    fn from(e: DataflowError) -> Self {
        EngineError::Dataflow(e)
    }
}
impl From<NetError> for EngineError {
    fn from(e: NetError) -> Self {
        EngineError::Net(e)
    }
}
impl From<PubSubError> for EngineError {
    fn from(e: PubSubError) -> Self {
        EngineError::PubSub(e)
    }
}
impl From<sl_durable::DurableError> for EngineError {
    fn from(e: sl_durable::DurableError) -> Self {
        EngineError::Durable(e.to_string())
    }
}
impl From<ConfigError> for EngineError {
    fn from(e: ConfigError) -> Self {
        EngineError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_paths() {
        let e = EngineError::Op {
            deployment: "d".into(),
            operator: "f".into(),
            error: OpError::BadSpec("x".into()),
        };
        assert!(e.to_string().contains('d') && e.to_string().contains('f'));
        let e: EngineError = NetError::UnknownNode(sl_netsim::NodeId(3)).into();
        assert!(e.to_string().contains("node#3"));
    }
}
