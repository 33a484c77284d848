//! Declarative, virtual-time chaos schedules.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultEvent`]s: *at* a virtual-time
//! offset, perform one [`FaultAction`]. The engine installs the plan into its
//! discrete-event queue, so faults interleave with sensor emissions and
//! deliveries exactly the same way on every run — chaos tests are replayable
//! bit for bit.
//!
//! Identifiers are raw (`u32` links/nodes, `u64` sensors) so the crate stays
//! free of `sl-netsim`/`sl-pubsub` dependencies; the engine converts them to
//! its typed ids when actuating.

use sl_stt::Duration;

/// One injectable fault (or the repair undoing it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail a network link (traffic reroutes or is retried/dropped).
    LinkDown {
        /// The link id.
        link: u32,
    },
    /// Restore a previously failed link.
    LinkUp {
        /// The link id.
        link: u32,
    },
    /// Crash a node: its links carry no traffic, hosted operator processes
    /// are migrated and their checkpointed state restored elsewhere.
    NodeCrash {
        /// The node id.
        node: u32,
    },
    /// Bring a crashed node back (processes do not move back automatically).
    NodeRestart {
        /// The node id.
        node: u32,
    },
    /// Silent stall: the sensor stops emitting *without* leaving the broker.
    /// Only the liveness watchdog can detect this.
    SensorStall {
        /// The sensor id.
        sensor: u64,
    },
    /// Clean dropout: the sensor leaves the broker (leave notifications
    /// fire) and stops emitting.
    SensorDropout {
        /// The sensor id.
        sensor: u64,
    },
    /// Resume a stalled or dropped-out sensor; an expired sensor re-publishes
    /// its advertisement (rejoin) on its next emission.
    SensorResume {
        /// The sensor id.
        sensor: u64,
    },
    /// Start corrupting the sensor's wire payloads (truncated bytes that
    /// fail extraction).
    CorruptStart {
        /// The sensor id.
        sensor: u64,
    },
    /// Stop corrupting the sensor's payloads.
    CorruptStop {
        /// The sensor id.
        sensor: u64,
    },
    /// Skew the sensor's clock: emitted tuples are stamped `skew_ms` away
    /// from virtual time (positive = fast clock, negative = slow).
    ClockSkew {
        /// The sensor id.
        sensor: u64,
        /// Signed skew in milliseconds (0 clears the skew).
        skew_ms: i64,
    },
    /// Start a traffic burst: the sensor emits `factor` times faster than
    /// its advertised period (factor 1 is a no-op), deterministically
    /// provoking overload at its downstream operators.
    BurstStart {
        /// The sensor id.
        sensor: u64,
        /// Rate multiplier (clamped to at least 1 by the engine).
        factor: u32,
    },
    /// End a burst: the sensor re-arms at its advertised period on its
    /// next emission.
    BurstStop {
        /// The sensor id.
        sensor: u64,
    },
}

impl FaultAction {
    /// Every kind name, in declaration order:
    /// `KINDS[a.kind_index()] == a.kind()`.
    pub const KINDS: [&'static str; 12] = [
        "link_down",
        "link_up",
        "node_crash",
        "node_restart",
        "sensor_stall",
        "sensor_dropout",
        "sensor_resume",
        "corrupt_start",
        "corrupt_stop",
        "clock_skew",
        "burst_start",
        "burst_stop",
    ];

    /// Short kind name, used as a metrics-counter suffix.
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }

    /// Position of this action's kind in [`FaultAction::KINDS`], so a
    /// per-kind tally is an array.
    pub fn kind_index(&self) -> usize {
        match self {
            FaultAction::LinkDown { .. } => 0,
            FaultAction::LinkUp { .. } => 1,
            FaultAction::NodeCrash { .. } => 2,
            FaultAction::NodeRestart { .. } => 3,
            FaultAction::SensorStall { .. } => 4,
            FaultAction::SensorDropout { .. } => 5,
            FaultAction::SensorResume { .. } => 6,
            FaultAction::CorruptStart { .. } => 7,
            FaultAction::CorruptStop { .. } => 8,
            FaultAction::ClockSkew { .. } => 9,
            FaultAction::BurstStart { .. } => 10,
            FaultAction::BurstStop { .. } => 11,
        }
    }
}

/// A fault scheduled at a virtual-time offset from plan installation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Offset from the instant the plan is installed.
    pub at: Duration,
    /// What happens.
    pub action: FaultAction,
}

/// A chaos schedule: fault events ordered by offset (ties keep insertion
/// order, matching the engine's FIFO event queue).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedule a raw action at `at`.
    pub fn at(mut self, at: Duration, action: FaultAction) -> FaultPlan {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// Fail a link at `at` and restore it `outage` later (a flap window).
    pub fn link_flap(self, link: u32, at: Duration, outage: Duration) -> FaultPlan {
        self.at(at, FaultAction::LinkDown { link })
            .at(at + outage, FaultAction::LinkUp { link })
    }

    /// Crash a node at `at`.
    pub fn node_crash(self, node: u32, at: Duration) -> FaultPlan {
        self.at(at, FaultAction::NodeCrash { node })
    }

    /// Restart a node at `at`.
    pub fn node_restart(self, node: u32, at: Duration) -> FaultPlan {
        self.at(at, FaultAction::NodeRestart { node })
    }

    /// Silently stall a sensor at `at`, resuming `outage` later.
    pub fn sensor_stall(self, sensor: u64, at: Duration, outage: Duration) -> FaultPlan {
        self.at(at, FaultAction::SensorStall { sensor })
            .at(at + outage, FaultAction::SensorResume { sensor })
    }

    /// Drop a sensor out (clean leave) at `at`, resuming `outage` later.
    pub fn sensor_dropout(self, sensor: u64, at: Duration, outage: Duration) -> FaultPlan {
        self.at(at, FaultAction::SensorDropout { sensor })
            .at(at + outage, FaultAction::SensorResume { sensor })
    }

    /// Corrupt a sensor's payloads between `at` and `at + window`.
    pub fn corrupt_window(self, sensor: u64, at: Duration, window: Duration) -> FaultPlan {
        self.at(at, FaultAction::CorruptStart { sensor })
            .at(at + window, FaultAction::CorruptStop { sensor })
    }

    /// Skew a sensor's clock by `skew_ms` starting at `at`.
    pub fn clock_skew(self, sensor: u64, at: Duration, skew_ms: i64) -> FaultPlan {
        self.at(at, FaultAction::ClockSkew { sensor, skew_ms })
    }

    /// Multiply a sensor's emission rate by `factor` between `at` and
    /// `at + window` (the overload-provoking burst).
    pub fn burst(self, sensor: u64, at: Duration, window: Duration, factor: u32) -> FaultPlan {
        self.at(at, FaultAction::BurstStart { sensor, factor })
            .at(at + window, FaultAction::BurstStop { sensor })
    }

    /// Events sorted by offset, ties in insertion order (stable sort).
    pub fn events(&self) -> Vec<FaultEvent> {
        let mut sorted = self.events.clone();
        sorted.sort_by_key(|e| e.at.as_millis());
        sorted
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The largest offset in the plan (when the chaos is over).
    pub fn horizon(&self) -> Duration {
        self.events
            .iter()
            .map(|e| e.at)
            .max_by_key(|d| d.as_millis())
            .unwrap_or(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flap_expands_to_down_then_up() {
        let plan = FaultPlan::new().link_flap(3, Duration::from_secs(10), Duration::from_secs(5));
        let evs = plan.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].at, Duration::from_secs(10));
        assert_eq!(evs[0].action, FaultAction::LinkDown { link: 3 });
        assert_eq!(evs[1].at, Duration::from_secs(15));
        assert_eq!(evs[1].action, FaultAction::LinkUp { link: 3 });
        assert_eq!(plan.horizon(), Duration::from_secs(15));
    }

    #[test]
    fn events_sort_stably_by_offset() {
        let plan = FaultPlan::new()
            .node_crash(1, Duration::from_secs(20))
            .sensor_stall(7, Duration::from_secs(5), Duration::from_secs(15))
            .at(Duration::from_secs(20), FaultAction::LinkDown { link: 0 });
        let evs = plan.events();
        let offsets: Vec<u64> = evs.iter().map(|e| e.at.as_millis() / 1000).collect();
        assert_eq!(offsets, vec![5, 20, 20, 20]);
        // The two t=20 events keep insertion order: crash before link-down.
        assert_eq!(evs[1].action, FaultAction::NodeCrash { node: 1 });
        assert_eq!(evs[3].action, FaultAction::LinkDown { link: 0 });
    }

    #[test]
    fn builders_cover_every_action() {
        let plan = FaultPlan::new()
            .link_flap(0, Duration::from_secs(1), Duration::from_secs(1))
            .node_crash(1, Duration::from_secs(2))
            .node_restart(1, Duration::from_secs(3))
            .sensor_stall(2, Duration::from_secs(4), Duration::from_secs(1))
            .sensor_dropout(3, Duration::from_secs(6), Duration::from_secs(1))
            .corrupt_window(4, Duration::from_secs(8), Duration::from_secs(1))
            .clock_skew(5, Duration::from_secs(10), -250)
            .burst(6, Duration::from_secs(11), Duration::from_secs(2), 3);
        // flap(2) + crash(1) + restart(1) + stall(2) + dropout(2) +
        // corrupt(2) + skew(1) + burst(2) = 13 scheduled events.
        assert_eq!(plan.len(), 13);
        assert!(!plan.is_empty());
        let kinds: Vec<&str> = plan.events().iter().map(|e| e.action.kind()).collect();
        for k in [
            "link_down",
            "link_up",
            "node_crash",
            "node_restart",
            "sensor_stall",
            "sensor_dropout",
            "sensor_resume",
            "corrupt_start",
            "corrupt_stop",
            "clock_skew",
            "burst_start",
            "burst_stop",
        ] {
            assert!(kinds.contains(&k), "missing {k}");
        }
    }

    #[test]
    fn empty_plan() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.horizon(), Duration::ZERO);
        assert!(plan.events().is_empty());
    }
}
