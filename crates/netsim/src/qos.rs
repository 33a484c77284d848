//! QoS parameters requested by a compiled dataflow channel.
//!
//! DSN "aims at capturing application requirements and requesting appropriate
//! configuration to the network platform" (paper §2); a channel's QoS spec is
//! the concrete form of those requirements at the network layer.

use sl_stt::Duration;
use std::fmt;

/// Quality-of-service requirements for one flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QosSpec {
    /// Upper bound on end-to-end propagation latency.
    pub max_latency: Option<Duration>,
    /// Bandwidth to reserve along the path, in bits per second.
    pub min_bandwidth_bps: Option<u64>,
}

impl QosSpec {
    /// No requirements: route on the shortest path, reserve nothing.
    pub fn best_effort() -> QosSpec {
        QosSpec::default()
    }

    /// Reserve `bps` of bandwidth on every traversed link.
    pub fn with_min_bandwidth(mut self, bps: u64) -> QosSpec {
        self.min_bandwidth_bps = Some(bps);
        self
    }

    /// True if this spec imposes no constraints.
    pub fn is_best_effort(&self) -> bool {
        self.max_latency.is_none() && self.min_bandwidth_bps.is_none()
    }
}

impl fmt::Display for QosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_best_effort() {
            return write!(f, "best-effort");
        }
        let mut first = true;
        if let Some(l) = self.max_latency {
            write!(f, "latency<={l}")?;
            first = false;
        }
        if let Some(b) = self.min_bandwidth_bps {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "bandwidth>={b}bps")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl QosSpec {
        /// Require at most `latency` of propagation delay.
        fn with_max_latency(mut self, latency: Duration) -> QosSpec {
            self.max_latency = Some(latency);
            self
        }
    }

    #[test]
    fn builders() {
        let q = QosSpec::best_effort();
        assert!(q.is_best_effort());
        let q = q
            .with_max_latency(Duration::from_millis(10))
            .with_min_bandwidth(1_000_000);
        assert!(!q.is_best_effort());
        assert_eq!(q.max_latency, Some(Duration::from_millis(10)));
        assert_eq!(q.min_bandwidth_bps, Some(1_000_000));
    }

    #[test]
    fn display() {
        assert_eq!(QosSpec::best_effort().to_string(), "best-effort");
        let q = QosSpec::best_effort().with_max_latency(Duration::from_millis(10));
        assert_eq!(q.to_string(), "latency<=10ms");
        let q = q.with_min_bandwidth(5000);
        assert_eq!(q.to_string(), "latency<=10ms, bandwidth>=5000bps");
    }
}
