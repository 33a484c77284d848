//! The delivery chokepoint: the one hop between endpoints and the one
//! settlement after an operator ran.
//!
//! [`Engine::send`] is every tuple's way to a service or sink — sensor
//! fan-out, operator forwarding and retry redelivery all call it:
//!
//! ```text
//! send: route → transfer ─ ok ──→ breaker closes → global cap / priority →
//!                  │                per-operator policy → schedule `Deliver`
//!                  └─ no route ─→ breaker → retry with backoff | dead letter
//! ```
//!
//! [`Engine::settle`] is what happens once an operator has produced its
//! outcome for a delivered tuple — inline in the sequential loop, or merged
//! out of a parallel batch: the ingress slot is released (and sensor credit
//! re-granted), the counters and the operator's `proc_us` updated, an error
//! logged, outputs forwarded and control actions applied.
//!
//! Both address their target by [`EndpointId`] and read what they need off
//! its [`Endpoint`](crate::deployment::Endpoint) record; names are only
//! cloned into what a human reads (dead letters, log lines). A target
//! retired by `undeploy` makes the hop a drop — or a `TargetVanished` dead
//! letter for a retry — and the settlement a no-op.

use crate::config::{OverflowPolicy, PROCESSING_DELAY};
use crate::deployment::{EndpointId, Role};
use crate::engine::{DeadTuple, Engine, Ev};
use crate::monitor::OpCounters;
use crate::overload::preemption_victim;
use rand::Rng;
use sl_faults::{BreakerDecision, BreakerState, CircuitBreaker, DropReason, ShedPolicy};
use sl_netsim::NodeId;
use sl_ops::{PriorityClass, TupleOutcome};
use sl_stt::{Timestamp, Tuple};

impl Engine {
    /// Deliver `tuple` from `from_node` to input `port` of endpoint `to`.
    ///
    /// `base` is the virtual time the producing event fired at. The arrival
    /// is scheduled at `base + delay + PROCESSING_DELAY` absolutely (not
    /// relative to the clock): in the sequential loop `base` *is* the clock,
    /// and in a parallel merge the clock has already advanced past earlier
    /// batch members — absolute scheduling keeps child times identical
    /// either way. `attempt` is 0 for a first delivery and the 1-based retry
    /// number for a redelivery, whose original failure was at
    /// `first_failed_at`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send(
        &mut self,
        base: Timestamp,
        from_node: NodeId,
        to: EndpointId,
        port: usize,
        tuple: Tuple,
        attempt: u32,
        first_failed_at: Timestamp,
    ) {
        let Some(ep) = self.monitor.endpoints.get_mut(to.index()) else {
            return;
        };
        if matches!(ep.role, Role::Retired) {
            // Undeployed while the tuple waited; a first delivery has no
            // target to have been promised to.
            if attempt > 0 {
                self.dead_letter_at(base, to, tuple, DropReason::TargetVanished);
            }
            return;
        }
        if attempt > 0 && self.config.overload.breaker_enabled {
            match ep.breaker.as_mut().map(|br| br.decide(base)) {
                Some(BreakerDecision::FailFast) => {
                    self.inst.breaker_fail_fast.inc();
                    return self.dead_letter_at(base, to, tuple, DropReason::BreakerOpen);
                }
                Some(BreakerDecision::Probe) => {
                    self.inst.breaker_probes.inc();
                    self.monitor.pressure.push(format!(
                        "[{base}] breaker half-open: probing {}/{}",
                        ep.names.0, ep.names.1
                    ));
                }
                Some(BreakerDecision::Allow) | None => {}
            }
        }
        let target_node = ep.node;
        match self.transfer(from_node, target_node, tuple.byte_size()) {
            Some(delay) => {
                if attempt > 0 {
                    self.inst.retry_delivered.inc();
                    self.inst
                        .recovery_redelivery_ms
                        .record(base.since(first_failed_at).as_millis());
                }
                let deliver_at = base + delay + PROCESSING_DELAY;
                self.admit(base, deliver_at, to, port, tuple);
            }
            None => self.fail(base, from_node, to, port, tuple, attempt, first_failed_at),
        }
    }

    /// Admission control for a delivery whose transfer succeeded: the path's
    /// breaker closes, the global cap triggers priority preemption, a full
    /// per-operator queue applies the configured [`OverflowPolicy`], and
    /// what survives is scheduled as a `Deliver` event with its ingress slot
    /// accounted. With the overload layer off (the default) this reduces to
    /// depth bookkeeping plus scheduling.
    fn admit(
        &mut self,
        now: Timestamp,
        deliver_at: Timestamp,
        to: EndpointId,
        port: usize,
        tuple: Tuple,
    ) {
        let ep = &mut self.monitor.endpoints[to.index()];
        let is_service = matches!(ep.role, Role::Service(_));
        if self.config.overload.breaker_enabled
            && ep.breaker.as_mut().is_some_and(CircuitBreaker::on_success)
        {
            self.inst.breaker_closed.inc();
            self.monitor.pressure.push(format!(
                "[{now}] breaker CLOSED for {}/{} (probe succeeded)",
                ep.names.0, ep.names.1
            ));
        }

        if is_service && self.config.overload.admission_enabled() {
            // Global cap: shed from the lowest-priority backlog first. The
            // incoming tuple is only dropped when nothing of lower-or-equal
            // priority has queued work to preempt.
            if self
                .config
                .overload
                .global_capacity
                .is_some_and(|gcap| self.total_inflight() >= gcap as u64)
            {
                let priorities = &self.config.overload.priorities;
                let rank = |d: &str| {
                    priorities
                        .iter()
                        .find(|(name, _)| name == d)
                        .map_or(PriorityClass::Normal as u8, |(_, c)| *c as u8)
                };
                let own = rank(&self.monitor.endpoints[to.index()].names.0);
                // Candidates in (deployment, operator) name order: ties
                // between equally deep queues go to the first name.
                let this = &*self;
                let victim = preemption_victim(this.deployments.iter().flat_map(|(name, dep)| {
                    let class = rank(name);
                    dep.services
                        .values()
                        .filter(|id| **id != to)
                        .map(move |id| (class, this.depth(*id), *id))
                }));
                match victim {
                    Some((class, victim)) if class <= own => {
                        self.condemn_oldest(victim, ShedPolicy::Priority);
                        self.inst.backpressure_preempted.inc();
                    }
                    _ => return self.shed(now, to, tuple, ShedPolicy::Priority),
                }
            }
            // Per-operator bound: apply the configured overflow policy.
            let policy = self.config.overload.policy;
            if self
                .config
                .overload
                .queue_capacity
                .is_some_and(|cap| self.depth(to) >= cap as u64)
            {
                match policy.shed_policy() {
                    // Block: sources are credit-gated before they emit;
                    // overshoot on an interior edge cannot be blocked
                    // retroactively, so it is admitted (and visible in this
                    // counter).
                    None => self.inst.backpressure_block_overflow.inc(),
                    Some(shed) => {
                        // Condemn the oldest and admit the newcomer, or shed
                        // the newcomer; `Sample` lets the seeded coin pick.
                        // The queue stays bounded either way.
                        let oldest = match policy {
                            OverflowPolicy::Sample(p) => self.rng.gen::<f64>() < p,
                            _ => shed == ShedPolicy::Oldest,
                        };
                        if !oldest {
                            return self.shed(now, to, tuple, shed);
                        }
                        self.condemn_oldest(to, shed);
                    }
                }
            }
        }

        if let Some(counters) = self.counters(to) {
            counters.ingress.admit();
        }
        self.queue
            .schedule_at(deliver_at, Ev::Deliver { to, port, tuple });
    }

    /// Handle a delivery that found no route: log and count the failure,
    /// then either schedule a backed-off retry or dead-letter the tuple.
    #[allow(clippy::too_many_arguments)]
    fn fail(
        &mut self,
        now: Timestamp,
        from_node: NodeId,
        to: EndpointId,
        port: usize,
        tuple: Tuple,
        attempt: u32,
        first_failed_at: Timestamp,
    ) {
        let ep = &mut self.monitor.endpoints[to.index()];
        let (deployment, target) = (&ep.names.0, &ep.names.1);
        if attempt == 0 {
            // Never a silent drop: the failure is logged and counted even
            // when retries are disabled.
            self.inst.drops_no_route.inc();
            self.monitor.console.push(format!(
                "[{now}] warn: no route {from_node} -> {} for {deployment}/{target}",
                ep.node
            ));
        }
        if self.config.overload.breaker_enabled {
            // Record the failure on the path's breaker; once it is open the
            // tuple fails fast to the DLQ instead of feeding a retry storm
            // against a route that is known dead.
            let threshold = self.config.overload.breaker_threshold;
            let cooldown = self.config.overload.breaker_cooldown;
            let br = ep
                .breaker
                .get_or_insert_with(|| CircuitBreaker::new(threshold, cooldown));
            if br.on_failure(now) {
                self.inst.breaker_opened.inc();
                self.monitor.pressure.push(format!(
                    "[{now}] breaker OPEN for {deployment}/{target}: failing fast for {} ms",
                    cooldown.as_millis()
                ));
            }
            if br.state() == BreakerState::Open {
                self.inst.breaker_fail_fast.inc();
                return self.dead_letter_at(now, to, tuple, DropReason::BreakerOpen);
            }
        }
        if attempt < self.config.retry_attempts {
            let backoff = sl_faults::backoff(attempt);
            self.inst.retry_scheduled.inc();
            // Absolute time off the failing event's timestamp, so retries
            // fire at the same instant whether the failure was handled
            // sequentially or merged out of a parallel batch. (If a backoff
            // is ever shorter than the batch window the retry clamps to the
            // clock — a bounded deviation the fixed schedule never hits.)
            self.queue.schedule_at(
                now + backoff,
                Ev::RetryDeliver {
                    to,
                    port,
                    tuple,
                    from_node,
                    attempt: attempt + 1,
                    first_failed_at,
                },
            );
        } else {
            let reason = if self.config.retry_attempts > 0 {
                DropReason::RetriesExhausted
            } else {
                DropReason::NoRoute
            };
            self.dead_letter_at(now, to, tuple, reason);
        }
    }

    /// Settle one delivered tuple after its operator produced `outcome`
    /// between wall instants `wall0` and `wall1`: release the ingress slot,
    /// count and time the call, log an error, forward the outputs and apply
    /// the control actions — in this order, for the sequential loop and the
    /// parallel merge alike.
    pub(crate) fn settle(
        &mut self,
        at: Timestamp,
        service: EndpointId,
        wall0: u64,
        wall1: u64,
        outcome: TupleOutcome,
    ) {
        if self.monitor.endpoints[service.index()].service().is_none() {
            return;
        }
        self.release(at, service);
        let Some(counters) = self.counters(service) else {
            return;
        };
        counters.record_in();
        counters.add_out(outcome.emitted.len() as u64);
        counters.add_dropped(outcome.dropped);
        counters.proc_latency.record(wall1.saturating_sub(wall0));
        if let Some(e) = outcome.error {
            let (deployment, name) = &self.monitor.endpoints[service.index()].names;
            self.monitor.console.push(format!(
                "[{at}] error: {deployment}/{name}: {e}; tuple dropped"
            ));
            return;
        }
        self.forward(at, service, outcome.emitted);
        self.apply_controls(at, service, outcome.controls);
    }

    /// Forward operator outputs to their consumers over the network, each
    /// tuple to every consumer in install order: the last consumer gets the
    /// tuple itself, the others a copy. The drained `emitted` becomes the
    /// buffer the next operator call emits into.
    pub(crate) fn forward(&mut self, base: Timestamp, from: EndpointId, mut emitted: Vec<Tuple>) {
        let ep = &self.monitor.endpoints[from.index()];
        let consumers = ep.service().map_or(0, |svc| svc.consumers.len());
        if let Some(last) = consumers.checked_sub(1) {
            let from_node = ep.node;
            for tuple in emitted.drain(..) {
                for i in 0..last {
                    if let Some((to, port)) = self.consumer(from, i) {
                        self.send(base, from_node, to, port, tuple.clone(), 0, base);
                    }
                }
                if let Some((to, port)) = self.consumer(from, last) {
                    self.send(base, from_node, to, port, tuple, 0, base);
                }
            }
        }
        emitted.clear();
        self.emit_buf = emitted;
    }

    /// The `i`-th (consumer, port) of service `from`, in install order.
    fn consumer(&self, from: EndpointId, i: usize) -> Option<(EndpointId, usize)> {
        let svc = self.monitor.endpoints.get(from.index())?.service()?;
        svc.consumers.get(i).copied()
    }

    /// Current in-flight depth of an endpoint's ingress queue (0 for sinks
    /// and for services nothing was ever admitted to).
    pub(crate) fn depth(&self, id: EndpointId) -> u64 {
        let ep = self.monitor.endpoints.get(id.index());
        ep.and_then(|ep| ep.counters.as_ref())
            .map_or(0, |c| c.ingress.depth)
    }

    /// The counters (with the ingress queue) of a live service, created on
    /// first touch; `None` for sinks and retired endpoints.
    pub(crate) fn counters(&mut self, service: EndpointId) -> Option<&mut OpCounters> {
        let ep = self.monitor.endpoints.get_mut(service.index())?;
        ep.service()?;
        Some(ep.counters_mut())
    }

    /// A delivered tuple left `service`'s ingress queue: depth −1, and — in
    /// `Block` mode — credit back to the sensors that queue had throttled.
    pub(crate) fn release(&mut self, now: Timestamp, service: EndpointId) {
        if let Some(counters) = self.counters(service) {
            counters.ingress.release();
        }
        self.regrant_credits(now);
    }

    /// Condemn the oldest in-flight delivery of `service` (see
    /// [`crate::overload`]): its slot is free for the newcomer at once.
    fn condemn_oldest(&mut self, service: EndpointId, policy: ShedPolicy) {
        if let Some(counters) = self.counters(service) {
            counters.ingress.condemn_oldest(policy);
        }
    }

    /// Dead-letter a tuple the overload layer sacrificed at `to`'s queue.
    pub(crate) fn shed(
        &mut self,
        now: Timestamp,
        to: EndpointId,
        tuple: Tuple,
        policy: ShedPolicy,
    ) {
        let (deployment, target) = &self.monitor.endpoints[to.index()].names;
        let operator = format!("{deployment}/{target}");
        self.dead_letter_at(now, to, tuple, DropReason::Shed { policy, operator });
    }

    /// Park a tuple that was headed for endpoint `to` in the DLQ.
    fn dead_letter_at(&mut self, now: Timestamp, to: EndpointId, tuple: Tuple, reason: DropReason) {
        let (deployment, target) = self.monitor.endpoints[to.index()].names.clone();
        self.dead_letter(now, deployment, target, tuple, reason);
    }

    /// Park a terminally undeliverable tuple in the DLQ, whose counters are
    /// the only tally of it.
    pub(crate) fn dead_letter(
        &mut self,
        now: Timestamp,
        deployment: String,
        target: String,
        tuple: Tuple,
        reason: DropReason,
    ) {
        self.monitor.recovery.push(format!(
            "[{now}] {deployment}/{target}: tuple dead-lettered ({reason})"
        ));
        self.monitor.dlq.push(
            reason,
            DeadTuple {
                deployment,
                target,
                tuple,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EngineConfig, CONSOLE_CAPACITY};
    use sl_dataflow::DataflowBuilder;
    use sl_dsn::SinkKind;
    use sl_netsim::{LinkId, NodeSpec, Topology};
    use sl_pubsub::SubscriptionFilter;
    use sl_stt::{
        AttrType, Duration, Field, GeoPoint, Schema, SchemaRef, SensorId, SttMeta, Theme, Value,
    };
    use std::collections::BTreeMap;

    /// Two nodes and one link, no sensors: every tuple in the engine is one
    /// a test sent from `edge` itself. Operators and sinks land on `hub`.
    struct Rig {
        e: Engine,
        edge: NodeId,
        link: LinkId,
    }

    fn t0() -> Timestamp {
        Timestamp::from_civil(2016, 7, 1, 12, 0, 0)
    }

    fn schema() -> SchemaRef {
        Schema::new(vec![Field::new("temperature", AttrType::Float)])
            .unwrap()
            .into_ref()
    }

    fn tuple() -> Tuple {
        let meta = SttMeta::new(
            t0(),
            GeoPoint::new_unchecked(34.7, 135.5),
            Theme::unclassified(),
            SensorId(1),
        );
        Tuple::new(schema(), vec![Value::Float(21.0)], meta).unwrap()
    }

    fn rig(deployments: &[&str], tweak: impl FnOnce(&mut EngineConfig)) -> Rig {
        let mut t = Topology::new();
        let edge = t.add_node(NodeSpec::edge("edge", 10.0));
        let hub = t.add_node(NodeSpec::edge("hub", 1_000_000.0));
        let link = t
            .add_link(edge, hub, Duration::from_millis(1), 10_000_000)
            .unwrap();
        let mut cfg = EngineConfig {
            migration_enabled: false,
            ..Default::default()
        };
        tweak(&mut cfg);
        let mut e = Engine::new(t, cfg, t0());
        for name in deployments {
            let flow = DataflowBuilder::new(name)
                .source("temp", SubscriptionFilter::any(), schema())
                .filter("all", "temp", "temperature > -100")
                .sink("out", SinkKind::Visualization, &["all"])
                .build()
                .unwrap();
            e.deploy(flow).unwrap();
            assert_eq!(e.node_of(name, "all"), Some(hub));
        }
        Rig { e, edge, link }
    }

    impl Rig {
        fn id(&self, deployment: &str, name: &str) -> EndpointId {
            self.e.deployments[deployment].endpoint(name).unwrap()
        }

        /// A first delivery from `edge` to `deployment/all`, now.
        fn send(&mut self, deployment: &str) {
            let (now, to) = (self.e.now(), self.id(deployment, "all"));
            self.e.send(now, self.edge, to, 0, tuple(), 0, now);
        }

        fn run(&mut self, d: Duration) {
            let deadline = self.e.now() + d;
            self.e.run_until(deadline);
        }

        fn counter(&self, name: &str) -> u64 {
            let snap = self.e.metrics_snapshot();
            snap.counters
                .get(&format!("engine/{name}"))
                .map_or(0, |n| *n)
        }

        fn processed(&self, deployment: &str) -> u64 {
            let op = self.e.monitor.op(deployment, "all");
            op.map_or(0, |c| c.tuples_in())
        }

        fn shed(&self, policy: ShedPolicy, deployment: &str) -> u64 {
            let operator = format!("{deployment}/all");
            self.e.dlq().count(DropReason::Shed { policy, operator })
        }
    }

    #[test]
    fn a_routed_tuple_is_scheduled_processed_and_forwarded() {
        let mut r = rig(&["d"], |_| {});
        r.send("d");
        assert_eq!((r.e.depth(r.id("d", "all")), r.e.total_inflight()), (1, 1));
        assert_eq!(r.processed("d"), 0);
        r.run(Duration::from_millis(10));
        assert_eq!((r.e.depth(r.id("d", "all")), r.e.total_inflight()), (0, 0));
        assert_eq!(r.processed("d"), 1);
        assert_eq!(r.e.monitor.sink_count("d", "out"), 1);
        assert_eq!(
            r.e.monitor.endpoints[r.id("d", "out").index()].e2e.count(),
            1
        );
        assert!(r.e.dlq().is_empty());
        // Sinks are not queued: nothing was ever counted against `out`.
        assert_eq!(r.e.depth(r.id("d", "out")), 0);
    }

    #[test]
    fn no_route_is_retried_until_the_route_heals() {
        let mut r = rig(&["d"], |_| {});
        r.e.set_link_up(r.link, false).unwrap();
        r.send("d");
        assert_eq!(r.counter("drops/no_route"), 1);
        assert_eq!(r.counter("retry/scheduled"), 1);
        assert!(r.e.monitor.console.iter().any(|l| l.contains("no route")));
        assert_eq!(r.e.total_inflight(), 0, "a waiting retry holds no slot");
        // The first retry (500 ms) fails again, the second (1 s later) lands.
        r.run(Duration::from_millis(600));
        assert_eq!(r.counter("retry/scheduled"), 2);
        r.e.set_link_up(r.link, true).unwrap();
        r.run(Duration::from_secs(2));
        assert_eq!(r.counter("retry/delivered"), 1);
        assert_eq!(r.counter("drops/no_route"), 1, "logged once, not per retry");
        let waited = &r.e.inst.recovery_redelivery_ms;
        assert_eq!((waited.count(), waited.max()), (1, Some(1_500)));
        assert_eq!(r.processed("d"), 1);
        assert!(r.e.dlq().is_empty());
    }

    #[test]
    fn a_dead_route_exhausts_the_retry_budget() {
        let mut r = rig(&["d"], |_| {});
        r.e.set_link_up(r.link, false).unwrap();
        r.send("d");
        r.run(Duration::from_mins(2));
        assert_eq!(r.counter("retry/scheduled"), 6);
        assert_eq!(r.e.dlq().count(DropReason::RetriesExhausted), 1);
        assert_eq!(r.counter("dlq/retries_exhausted"), 1);
        assert_eq!(r.e.total_inflight(), 0);

        // With retrying off the same failure is terminal at once.
        let mut r = rig(&["d"], |cfg| cfg.retry_attempts = 0);
        r.e.set_link_up(r.link, false).unwrap();
        r.send("d");
        assert_eq!(r.counter("retry/scheduled"), 0);
        assert_eq!(r.e.dlq().count(DropReason::NoRoute), 1);
    }

    #[test]
    fn the_recovery_log_stays_bounded_however_many_tuples_dead_letter() {
        let mut r = rig(&["d"], |cfg| cfg.retry_attempts = 0);
        r.e.set_link_up(r.link, false).unwrap();
        for _ in 0..5 * CONSOLE_CAPACITY {
            r.send("d");
        }
        let log = &r.e.monitor.recovery;
        assert!(
            (CONSOLE_CAPACITY..=2 * CONSOLE_CAPACITY).contains(&log.len()),
            "{} recovery lines",
            log.len()
        );
        assert!(log.iter().all(|l| l.contains("dead-lettered")));
        assert_eq!(
            r.e.dlq().count(DropReason::NoRoute),
            5 * CONSOLE_CAPACITY as u64
        );
    }

    #[test]
    fn each_dead_letter_is_tallied_once_in_the_queue() {
        let mut r = rig(&["d"], |cfg| {
            cfg.dlq_capacity = 4;
            cfg.overload.queue_capacity = Some(1);
            cfg.overload.policy = OverflowPolicy::ShedNewest;
            cfg.retry_attempts = 0;
        });
        for _ in 0..6 {
            r.send("d"); // one admitted, five shed
        }
        r.e.set_link_up(r.link, false).unwrap();
        for _ in 0..3 {
            r.send("d"); // no route
        }
        let dlq = r.e.dlq();
        assert_eq!((dlq.total(), dlq.depth()), (8, 4), "entries were evicted");
        let snap = r.e.metrics_snapshot();
        let tallied: BTreeMap<String, u64> = dlq
            .by_reason()
            .map(|(reason, n)| (format!("engine/dlq/{}", reason.metric_key()), n))
            .collect();
        let exported: BTreeMap<String, u64> = snap
            .counters
            .range("engine/dlq/".to_string()..)
            .take_while(|(k, _)| k.starts_with("engine/dlq/"))
            .map(|(k, n)| (k.clone(), *n))
            .collect();
        assert_eq!(exported, tallied);
        assert_eq!(snap.counters["engine/backpressure/shed"], dlq.shed_total());
        assert_eq!(snap.gauges["engine/dlq/depth"], 4);
        let keys = snap.counters.keys().chain(snap.gauges.keys());
        let mut keys = keys.chain(snap.hists.keys());
        assert!(
            !keys.any(|k| k.starts_with("op/dlq/") || k.starts_with("engine/span")),
            "a second tally in the snapshot"
        );
        // The report lists lifetime totals, not what the queue still holds.
        let report = r.e.monitor().report(r.e.now());
        assert!(report.contains("    no_route: 3\n"), "{report}");
        assert!(report.contains("    shed/newest/d/all: 5\n"), "{report}");
    }

    #[test]
    fn an_open_breaker_fails_fast_then_probes_and_closes() {
        let mut r = rig(&["d"], |cfg| {
            cfg.overload.breaker_enabled = true;
            cfg.overload.breaker_threshold = 2;
        });
        let all = r.id("d", "all");
        r.e.set_link_up(r.link, false).unwrap();
        r.send("d"); // failure 1: retry scheduled
        assert_eq!(r.e.breaker_state("d", "all"), Some(BreakerState::Closed));
        r.send("d"); // failure 2: opens, and this tuple fails fast
        assert_eq!(r.e.breaker_state("d", "all"), Some(BreakerState::Open));
        assert_eq!(r.counter("breaker/opened"), 1);
        assert_eq!(r.counter("breaker/fail_fast"), 1);
        // The first tuple's retry finds the breaker open: no transfer.
        r.run(Duration::from_secs(1));
        assert_eq!(r.counter("breaker/fail_fast"), 2);
        assert_eq!(r.counter("retry/scheduled"), 1);
        assert_eq!(r.e.dlq().count(DropReason::BreakerOpen), 2);
        // After the cooldown one redelivery probes the healed route.
        r.e.set_link_up(r.link, true).unwrap();
        let later = t0() + Duration::from_secs(6);
        r.e.send(later, r.edge, all, 0, tuple(), 1, t0());
        assert_eq!(r.counter("breaker/probes"), 1);
        assert_eq!(r.counter("breaker/closed"), 1);
        assert_eq!(r.e.breaker_state("d", "all"), Some(BreakerState::Closed));
        assert_eq!(r.e.depth(all), 1);
        assert!(r
            .e
            .monitor
            .pressure
            .iter()
            .any(|l| l.contains("probing d/all")));
    }

    #[test]
    fn shed_newest_drops_the_newcomer_at_the_bound() {
        let mut r = rig(&["d"], |cfg| {
            cfg.overload.queue_capacity = Some(2);
            cfg.overload.policy = OverflowPolicy::ShedNewest;
        });
        for _ in 0..3 {
            r.send("d");
        }
        assert_eq!(r.shed(ShedPolicy::Newest, "d"), 1);
        assert_eq!(r.counter("backpressure/shed"), 1);
        assert_eq!((r.e.depth(r.id("d", "all")), r.e.total_inflight()), (2, 2));
        r.run(Duration::from_millis(10));
        assert_eq!(r.processed("d"), 2);
        assert_eq!(r.e.total_inflight(), 0);
    }

    #[test]
    fn shed_oldest_condemns_the_next_arrival() {
        let mut r = rig(&["d"], |cfg| {
            cfg.overload.queue_capacity = Some(2);
            cfg.overload.policy = OverflowPolicy::ShedOldest;
        });
        for _ in 0..3 {
            r.send("d");
        }
        // The newcomer is in; the marker waits for the oldest to arrive.
        assert!(r.e.dlq().is_empty());
        assert_eq!((r.e.depth(r.id("d", "all")), r.e.total_inflight()), (2, 2));
        r.run(Duration::from_millis(10));
        assert_eq!(r.shed(ShedPolicy::Oldest, "d"), 1);
        assert_eq!(r.counter("dlq/shed/oldest/d/all"), 1);
        assert_eq!(r.processed("d"), 2);
        assert_eq!((r.e.depth(r.id("d", "all")), r.e.total_inflight()), (0, 0));
    }

    #[test]
    fn sample_sheds_either_end_and_accounts_for_both() {
        let mut r = rig(&["d"], |cfg| {
            cfg.overload.queue_capacity = Some(1);
            cfg.overload.policy = OverflowPolicy::Sample(0.5);
        });
        for _ in 0..40 {
            r.send("d");
        }
        let all = r.id("d", "all");
        // Tails shed the newcomer now; heads left a marker for the oldest.
        let tails = r.shed(ShedPolicy::Sample, "d");
        let heads = r.e.counters(all).unwrap().ingress.pending.len() as u64;
        assert!(tails > 0 && heads > 0, "tails {tails} heads {heads}");
        assert_eq!(tails + heads, 39);
        assert_eq!(r.e.depth(all), 1);
        r.run(Duration::from_millis(10));
        assert_eq!(r.shed(ShedPolicy::Sample, "d"), 39);
        assert_eq!(r.processed("d"), 1);
        assert_eq!(r.e.total_inflight(), 0);
    }

    #[test]
    fn global_cap_preempts_lower_classes_else_sheds_the_newcomer() {
        let mut r = rig(&["high", "low"], |cfg| {
            cfg.overload.global_capacity = Some(2);
            cfg.overload.priorities = vec![
                ("high".into(), PriorityClass::High),
                ("low".into(), PriorityClass::Low),
            ];
        });
        r.send("low");
        r.send("low");
        // At the cap: `high` preempts the oldest of `low`.
        r.send("high");
        assert_eq!(r.counter("backpressure/preempted"), 1);
        let depths: Vec<u64> = r.e.ingress_depths().map(|(_, d)| d).collect();
        assert_eq!((depths, r.e.total_inflight()), (vec![1, 1], 2));
        // At the cap again: `low` outranks nothing queued, so it sheds itself.
        r.send("low");
        assert_eq!(r.shed(ShedPolicy::Priority, "low"), 1);
        assert_eq!(r.e.total_inflight(), 2);
        r.run(Duration::from_millis(10));
        assert_eq!(r.shed(ShedPolicy::Priority, "low"), 2);
        assert_eq!((r.processed("high"), r.processed("low")), (1, 1));
        assert_eq!(r.e.total_inflight(), 0);
    }

    #[test]
    fn a_vanished_target_drops_first_deliveries_and_dead_letters_retries() {
        let mut r = rig(&["d"], |_| {});
        let all = r.id("d", "all");
        r.e.undeploy("d").unwrap();
        r.e.send(t0(), r.edge, all, 0, tuple(), 0, t0());
        assert!(r.e.dlq().is_empty());
        r.e.send(t0(), r.edge, all, 0, tuple(), 3, t0());
        assert_eq!(r.e.dlq().count(DropReason::TargetVanished), 1);
        let (_, dead) = r.e.dlq().iter().next().unwrap();
        assert_eq!(
            (dead.deployment.as_str(), dead.target.as_str()),
            ("d", "all")
        );
        assert_eq!(r.e.net_stats.total_msgs(), 0, "nothing was transferred");
        assert_eq!(r.e.total_inflight(), 0);
    }
}
