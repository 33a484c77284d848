//! Dead-letter queues and the drop-reason taxonomy.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;

/// How an overloaded ingress queue sheds work (the overload-control layer's
/// drop disciplines; `Block` never sheds and so has no entry here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShedPolicy {
    /// The oldest in-flight tuple was condemned to admit the newest.
    Oldest,
    /// The incoming tuple was dropped, keeping what was already queued.
    Newest,
    /// A seeded coin decided which end of the queue to shed.
    Sample,
    /// Preempted at the global in-flight cap by a higher-priority dataflow.
    Priority,
}

impl ShedPolicy {
    /// Stable snake_case name, used as a metrics-key segment.
    pub fn name(self) -> &'static str {
        match self {
            ShedPolicy::Oldest => "oldest",
            ShedPolicy::Newest => "newest",
            ShedPolicy::Sample => "sample",
            ShedPolicy::Priority => "priority",
        }
    }
}

impl fmt::Display for ShedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a full bounded queue does with overflow — the one vocabulary for
/// both ends of the pipeline (the engine's per-operator ingress queues and
/// `sl-cq`'s per-subscriber delta queues).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OverflowPolicy {
    /// Never shed silently. Ingress: revoke generation credit from the
    /// sensors feeding the saturated operator until the queue drains.
    /// Subscriber queues cannot pause the single-threaded ingest loop, so
    /// there overflow clears the backlog and marks the subscriber lagged
    /// until it catches up from a snapshot.
    Block,
    /// Shed the oldest queued item to admit the newest (freshness wins).
    ShedOldest,
    /// Drop the incoming item, keeping what was already queued.
    ShedNewest,
    /// On overflow a seeded coin decides: with probability `p` the oldest
    /// queued item is shed (the new one is admitted), otherwise the
    /// incoming item is. Either way the queue never exceeds its bound.
    Sample(f64),
}

impl OverflowPolicy {
    /// The drop discipline this policy's sheds are accounted under
    /// (`None` for [`OverflowPolicy::Block`], which never sheds).
    pub fn shed_policy(self) -> Option<ShedPolicy> {
        match self {
            OverflowPolicy::Block => None,
            OverflowPolicy::ShedOldest => Some(ShedPolicy::Oldest),
            OverflowPolicy::ShedNewest => Some(ShedPolicy::Newest),
            OverflowPolicy::Sample(_) => Some(ShedPolicy::Sample),
        }
    }
}

/// Why a tuple could not be delivered. Every terminal drop in the engine is
/// classified under exactly one of these.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// No network path between producer and consumer, and retrying is
    /// disabled.
    NoRoute,
    /// Retries were attempted but the retry budget ran out.
    RetriesExhausted,
    /// The delivery target disappeared mid-retry (undeployed or removed).
    TargetVanished,
    /// The wire payload failed extraction (corrupt or truncated bytes).
    CorruptPayload,
    /// The producing or consuming node was down at send time.
    NodeDown,
    /// Lost to a torn durable-log tail: appended but not yet fsynced when
    /// the process died, truncated away on recovery.
    TornTail,
    /// Shed by the overload-control layer: the target operator's bounded
    /// ingress queue was full (or the global in-flight cap was hit) and the
    /// configured policy sacrificed this tuple.
    Shed {
        /// The drop discipline that condemned the tuple.
        policy: ShedPolicy,
        /// The `deployment/operator` whose full queue shed it.
        operator: String,
    },
    /// Fail-fast: the delivery path's circuit breaker was open, so the
    /// tuple was dead-lettered without burning a retry budget.
    BreakerOpen,
}

impl DropReason {
    /// One exemplar per reason, in declaration order (the `Shed` exemplar
    /// carries an empty operator — real sheds name the full queue).
    pub const ALL: [DropReason; 8] = [
        DropReason::NoRoute,
        DropReason::RetriesExhausted,
        DropReason::TargetVanished,
        DropReason::CorruptPayload,
        DropReason::NodeDown,
        DropReason::TornTail,
        DropReason::Shed {
            policy: ShedPolicy::Oldest,
            operator: String::new(),
        },
        DropReason::BreakerOpen,
    ];

    /// Stable snake_case kind name, used as a metrics-key suffix (every
    /// `Shed` variant shares the `"shed"` kind).
    pub fn name(&self) -> &'static str {
        match self {
            DropReason::NoRoute => "no_route",
            DropReason::RetriesExhausted => "retries_exhausted",
            DropReason::TargetVanished => "target_vanished",
            DropReason::CorruptPayload => "corrupt_payload",
            DropReason::NodeDown => "node_down",
            DropReason::TornTail => "torn_tail",
            DropReason::Shed { .. } => "shed",
            DropReason::BreakerOpen => "breaker_open",
        }
    }

    /// Fully qualified metrics key: the kind name, extended for `Shed` with
    /// the policy and the operator whose queue shed the tuple
    /// (`shed/oldest/d/hot`).
    pub fn metric_key(&self) -> String {
        match self {
            DropReason::Shed { policy, operator } if !operator.is_empty() => {
                format!("shed/{policy}/{operator}")
            }
            DropReason::Shed { policy, .. } => format!("shed/{policy}"),
            other => other.name().to_string(),
        }
    }
}

impl fmt::Display for DropReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A bounded dead-letter queue.
///
/// Terminally undeliverable items land here with their [`DropReason`]; the
/// per-reason counters are monotonic even when old entries are evicted to
/// respect the capacity bound (eviction drops the *oldest* entry — the DLQ
/// is a diagnostic window, the counters are the ground truth).
#[derive(Debug)]
pub struct DeadLetterQueue<T> {
    entries: VecDeque<(DropReason, T)>,
    capacity: usize,
    by_reason: BTreeMap<DropReason, u64>,
    total: u64,
    evicted: u64,
}

impl<T> Default for DeadLetterQueue<T> {
    /// A queue retaining at most 256 entries.
    fn default() -> Self {
        DeadLetterQueue::new(256)
    }
}

impl<T> DeadLetterQueue<T> {
    /// A queue retaining at most `capacity` entries.
    pub fn new(capacity: usize) -> DeadLetterQueue<T> {
        DeadLetterQueue {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
            by_reason: BTreeMap::new(),
            total: 0,
            evicted: 0,
        }
    }

    /// Record a dead letter.
    pub fn push(&mut self, reason: DropReason, item: T) {
        self.total += 1;
        *self.by_reason.entry(reason.clone()).or_insert(0) += 1;
        if self.entries.len() >= self.capacity {
            self.entries.pop_front();
            self.evicted += 1;
        }
        self.entries.push_back((reason, item));
    }

    /// Account a loss whose payload no longer exists (e.g. a record cut
    /// from a torn log tail during crash recovery): bumps the counters —
    /// the ground truth — without retaining an entry.
    pub fn note(&mut self, reason: DropReason) {
        self.total += 1;
        *self.by_reason.entry(reason).or_insert(0) += 1;
    }

    /// Entries currently retained (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = &(DropReason, T)> {
        self.entries.iter()
    }

    /// Number of entries currently retained.
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was ever dead-lettered *and* the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime count of dead letters, including evicted ones.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Lifetime count for one reason.
    pub fn count(&self, reason: DropReason) -> u64 {
        self.by_reason.get(&reason).copied().unwrap_or(0)
    }

    /// Lifetime count across every [`DropReason::Shed`] variant (the total
    /// loss attributable to the overload-control layer).
    pub fn shed_total(&self) -> u64 {
        self.by_reason
            .iter()
            .filter(|(r, _)| matches!(r, DropReason::Shed { .. }))
            .map(|(_, n)| n)
            .sum()
    }

    /// Lifetime counts per reason (only reasons seen at least once).
    pub fn by_reason(&self) -> impl Iterator<Item = (DropReason, u64)> + '_ {
        self.by_reason.iter().map(|(r, n)| (r.clone(), *n))
    }

    /// Entries evicted to respect the capacity bound.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Drain all retained entries (counters are untouched).
    pub fn drain(&mut self) -> Vec<(DropReason, T)> {
        self.entries.drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_count() {
        let mut q: DeadLetterQueue<&str> = DeadLetterQueue::new(10);
        assert!(q.is_empty());
        q.push(DropReason::NoRoute, "a");
        q.push(DropReason::NoRoute, "b");
        q.push(DropReason::CorruptPayload, "c");
        assert_eq!(q.depth(), 3);
        assert_eq!(q.total(), 3);
        assert_eq!(q.count(DropReason::NoRoute), 2);
        assert_eq!(q.count(DropReason::CorruptPayload), 1);
        assert_eq!(q.count(DropReason::RetriesExhausted), 0);
        let reasons: Vec<_> = q.by_reason().collect();
        assert_eq!(
            reasons,
            vec![(DropReason::NoRoute, 2), (DropReason::CorruptPayload, 1)]
        );
    }

    #[test]
    fn capacity_evicts_oldest_but_counters_persist() {
        let mut q: DeadLetterQueue<u32> = DeadLetterQueue::new(2);
        for i in 0..5 {
            q.push(DropReason::RetriesExhausted, i);
        }
        assert_eq!(q.depth(), 2);
        assert_eq!(q.evicted(), 3);
        assert_eq!(q.total(), 5);
        assert_eq!(q.count(DropReason::RetriesExhausted), 5);
        let retained: Vec<u32> = q.iter().map(|(_, v)| *v).collect();
        assert_eq!(retained, vec![3, 4]);
    }

    #[test]
    fn drain_keeps_counters() {
        let mut q: DeadLetterQueue<()> = DeadLetterQueue::new(4);
        q.push(DropReason::TargetVanished, ());
        let drained = q.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].0, DropReason::TargetVanished);
        assert!(q.is_empty());
        assert_eq!(q.total(), 1);
    }

    #[test]
    fn reason_names_are_stable() {
        for r in DropReason::ALL {
            assert!(!r.name().is_empty());
            assert_eq!(r.to_string(), r.name());
        }
        assert_eq!(DropReason::NodeDown.name(), "node_down");
        assert_eq!(DropReason::BreakerOpen.name(), "breaker_open");
    }

    #[test]
    fn shed_reason_carries_policy_and_operator() {
        let shed = DropReason::Shed {
            policy: ShedPolicy::Oldest,
            operator: "d/hot".into(),
        };
        assert_eq!(shed.name(), "shed");
        assert_eq!(shed.metric_key(), "shed/oldest/d/hot");
        assert_eq!(DropReason::NoRoute.metric_key(), "no_route");
        let mut q: DeadLetterQueue<()> = DeadLetterQueue::new(4);
        q.push(shed.clone(), ());
        q.push(shed.clone(), ());
        q.push(
            DropReason::Shed {
                policy: ShedPolicy::Priority,
                operator: "d/cold".into(),
            },
            (),
        );
        q.push(DropReason::NoRoute, ());
        // Per-variant counters stay distinct; shed_total sums every Shed.
        assert_eq!(q.count(shed), 2);
        assert_eq!(q.shed_total(), 3);
        assert_eq!(q.total(), 4);
    }

    #[test]
    fn zero_capacity_clamped() {
        let q: DeadLetterQueue<()> = DeadLetterQueue::new(0);
        assert_eq!(q.capacity(), 1);
    }
}
