//! The engine's instruments, declared: one field per `engine/*` snapshot
//! key, plus the families `faults/<kind>` (by [`FaultAction::kind_index`])
//! and `shard/<n>/*` (by shard). Sinks keep `e2e/*` on their [`Endpoint`]
//! records, as operators keep their counters.

use crate::deployment::Endpoint;
use sl_faults::FaultAction;
use sl_obs::{Counter, Gauge, Histogram, MetricsSnapshot};

sl_obs::instruments! {
    /// One shard worker's `shard/<n>/*` instruments.
    pub(crate) struct ShardInstruments {
        pub(crate) batch_us: Histogram = "batch_us",
        pub(crate) queue_depth: Gauge = "queue_depth",
    }
}

sl_obs::instruments! {
    /// Event-loop timing, acquisition, delivery, overload, storage and
    /// shard instruments of one engine.
    pub(crate) struct EngineInstruments {
        pub(crate) ev_emit_us: Histogram = "ev/emit_us",
        pub(crate) ev_deliver_us: Histogram = "ev/deliver_us",
        pub(crate) ev_tick_us: Histogram = "ev/tick_us",
        pub(crate) ev_monitor_us: Histogram = "ev/monitor_us",
        pub(crate) ev_fault_us: Histogram = "ev/fault_us",
        pub(crate) ev_retry_us: Histogram = "ev/retry_us",
        pub(crate) enrich_located: Counter = "enrich/located",
        pub(crate) enrich_restamped: Counter = "enrich/restamped",
        pub(crate) enrich_rethemed: Counter = "enrich/rethemed",
        pub(crate) drops_corrupt: Counter = "drops/corrupt",
        pub(crate) drops_no_route: Counter = "drops/no_route",
        pub(crate) liveness_expired: Counter = "liveness/expired",
        pub(crate) liveness_rejoined: Counter = "liveness/rejoined",
        pub(crate) faults_skewed_tuples: Counter = "faults/skewed_tuples",
        pub(crate) retry_scheduled: Counter = "retry/scheduled",
        pub(crate) retry_delivered: Counter = "retry/delivered",
        pub(crate) recovery_redelivery_ms: Histogram = "recovery/redelivery_ms",
        pub(crate) breaker_opened: Counter = "breaker/opened",
        pub(crate) breaker_closed: Counter = "breaker/closed",
        pub(crate) breaker_probes: Counter = "breaker/probes",
        pub(crate) breaker_fail_fast: Counter = "breaker/fail_fast",
        pub(crate) backpressure_throttled: Counter = "backpressure/throttled",
        pub(crate) backpressure_preempted: Counter = "backpressure/preempted",
        pub(crate) backpressure_block_overflow: Counter = "backpressure/block_overflow",
        pub(crate) backpressure_backlog_migrations: Counter = "backpressure/backlog_migrations",
        pub(crate) backpressure_inflight: Gauge = "backpressure/inflight",
        pub(crate) backpressure_throttled_sensors: Gauge = "backpressure/throttled_sensors",
        pub(crate) event_queue_depth: Gauge = "event_queue_depth",
        pub(crate) checkpoint_taken: Counter = "checkpoint/taken",
        /// The checkpointed windows of every live service, summed.
        pub(crate) checkpoint_bytes: Gauge = "checkpoint/bytes",
        pub(crate) checkpoint_restored_tuples: Counter = "checkpoint/restored_tuples",
        pub(crate) checkpoint_restored_bytes: Counter = "checkpoint/restored_bytes",
        pub(crate) maintenance_compactions: Counter = "maintenance/compactions",
        pub(crate) retention_evicted: Counter = "retention/evicted",
        pub(crate) shard_batches: Counter = "shard/batches",
        pub(crate) shard_batched_tuples: Counter = "shard/batched_tuples",
        pub(crate) shard_steals: Counter = "shard/steals",
        /// `faults/<kind>`, indexed by [`FaultAction::kind_index`].
        pub(crate) faults: [Counter; FaultAction::KINDS.len()],
        /// `shard/<n>/*`, indexed by shard.
        shards: Vec<ShardInstruments>,
    }
}

impl EngineInstruments {
    /// Shard `n`'s instruments.
    pub(crate) fn shard(&mut self, n: usize) -> &mut ShardInstruments {
        if self.shards.len() <= n {
            self.shards.resize_with(n + 1, ShardInstruments::default);
        }
        &mut self.shards[n]
    }

    /// [`EngineInstruments::snapshot`] plus the families, and each sink's
    /// `e2e/<deployment>/<sink>_us` read off `endpoints`, retired ones
    /// included (one record per name holds it: a namesake takes its
    /// predecessor's over when it is minted).
    pub(crate) fn snapshot_with(&self, endpoints: &[Endpoint]) -> MetricsSnapshot {
        let mut s = self.snapshot();
        let faults = FaultAction::KINDS.iter().zip(&self.faults);
        for (kind, c) in faults.filter(|(_, c)| c.get() > 0) {
            c.put_into(&mut s, &format!("faults/{kind}"));
        }
        for (n, shard) in self.shards.iter().enumerate() {
            s.absorb(&format!("shard/{n}"), &shard.snapshot());
        }
        for ep in endpoints.iter().filter(|ep| !ep.e2e.is_empty()) {
            let (deployment, sink) = &ep.names;
            ep.e2e
                .put_into(&mut s, &format!("e2e/{deployment}/{sink}_us"));
        }
        s
    }
}
