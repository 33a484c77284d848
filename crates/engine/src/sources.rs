//! Acquisition: the sensor table and everything between a sensor and the
//! sources it feeds (paper §3: "the sources are bound to specific sensors
//! handled by the network nodes"; demo P3: plug-and-play).
//!
//! The only writer of `Engine::sensors`. Here live the sensor lifecycle
//! (plug, unplug, the fault actions aimed at one sensor, watchdog expiry,
//! rejoin), binding (a sensor joins a source's bound set in one function,
//! at deploy time or on a broker notification), the sampling instant
//! (decode, enrich, project, fan out into `crate::delivery`), `Block`-mode
//! credits, and the acquisition gate that triggers flip.

use crate::config::OverflowPolicy;
use crate::deployment::{Deployment, EndpointId, SourceRuntime};
use crate::engine::{Engine, Ev};
use crate::error::EngineError;
use crate::monitor::{ControlRecord, Log};
use sl_faults::{DropReason, FaultAction};
use sl_ops::ControlAction;
use sl_pubsub::enrich::{enrich, EnrichPolicy};
use sl_pubsub::{BrokerEvent, SensorAdvertisement, SubscriptionFilter};
use sl_sensors::{decode_payload, SensorSim};
use sl_stt::{Duration, SchemaRef, SensorId, Timestamp, Tuple, Value};
use std::sync::Arc;

pub(crate) struct SensorEntry {
    sim: Box<dyn SensorSim>,
    /// Resolved once at plug-in and shared with the broker's registry: an
    /// emission, a credit re-grant or a rejoin bumps it, never copies it.
    pub(crate) ad: Arc<SensorAdvertisement>,
    /// Silently stalled (fault injection): scheduled but not emitting.
    stalled: bool,
    /// Corrupting wire payloads (fault injection).
    corrupt: bool,
    /// Clock skew applied to emitted tuple timestamps, in milliseconds.
    skew_ms: i64,
    /// Unpublished from the broker (dropout or liveness expiry); the next
    /// successful emission re-publishes the advertisement (clean rejoin).
    expired: bool,
    /// Emission-rate multiplier (fault injection: a traffic burst). 1 is
    /// the advertised period; `n` emits `n`× faster.
    rate_scale: u32,
}

impl Engine {
    /// Plug a sensor in: publish its advertisement, bind it to matching
    /// deployed sources, and start its sampling schedule.
    pub fn add_sensor(&mut self, sim: Box<dyn SensorSim>) -> Result<SensorId, EngineError> {
        let ad = Arc::new(sim.advertisement());
        let id = ad.id;
        let events = self.broker.publish(Arc::clone(&ad))?;
        self.apply_broker_events(events);
        self.monitor
            .membership
            .push(format!("[{}] + {} joined", self.now(), ad.name));
        // Seed the liveness watchdog so grace counts from the join instant.
        self.broker.heartbeat(id, self.now());
        self.queue.schedule_in(ad.period, Ev::SensorEmit(id.0));
        self.sensors.insert(
            id.0,
            SensorEntry {
                sim,
                ad,
                stalled: false,
                corrupt: false,
                skew_ms: 0,
                expired: false,
                rate_scale: 1,
            },
        );
        Ok(id)
    }

    /// Unplug a sensor: unbind it everywhere and stop its schedule.
    pub fn remove_sensor(&mut self, id: SensorId) -> Result<(), EngineError> {
        let entry = self
            .sensors
            .remove(&id.0)
            .ok_or(EngineError::UnknownSensor(id.0))?;
        // The liveness watchdog may already have unpublished it — a clean
        // removal of an expired sensor is not an error.
        let events = self.broker.unpublish(id).unwrap_or_default();
        self.apply_broker_events(events);
        self.monitor
            .membership
            .push(format!("[{}] - {} left", self.now(), entry.ad.name));
        Ok(())
    }

    /// Actuate `BindSource`: subscribe `source` of the deployment being
    /// built to the broker and bind every sensor already published.
    pub(crate) fn bind_source(
        &mut self,
        name: &str,
        deployment: &mut Deployment,
        source: &str,
        filter: &SubscriptionFilter,
        schema: SchemaRef,
        active: bool,
    ) -> Result<(), EngineError> {
        let subscription = self.broker.subscribe(filter.clone());
        let runtime = SourceRuntime {
            subscription,
            schema,
            active,
            sensors: Default::default(),
            consumers: Vec::new(),
            recent: Default::default(),
        };
        // Registered before the fallible lookup, so a failed deploy still
        // finds the subscription to drop.
        let src = deployment
            .sources
            .entry(source.to_string())
            .or_insert(runtime);
        let (log, now) = (&mut self.monitor.membership, self.queue.now());
        for ad in self.broker.matching(subscription)? {
            bind_sensor(src, ad, log, now, name, source);
        }
        Ok(())
    }

    /// Follow the broker's join/leave notifications on deployed sources.
    pub(crate) fn apply_broker_events(&mut self, events: Vec<BrokerEvent>) {
        let now = self.queue.now();
        for ev in events {
            let (BrokerEvent::SensorJoined { subscription, .. }
            | BrokerEvent::SensorLeft { subscription, .. }) = &ev;
            // Joins and leaves are rare: the source is found by its
            // subscription, not through a second index.
            let found = self.deployments.iter_mut().find_map(|(dep, d)| {
                let mut sources = d.sources.iter_mut();
                let held = sources.find(|(_, s)| s.subscription == *subscription);
                held.map(|(source, src)| (dep, source, src))
            });
            let Some((dep, source, src)) = found else {
                continue;
            };
            match &ev {
                BrokerEvent::SensorJoined { ad, .. } => {
                    bind_sensor(src, ad, &mut self.monitor.membership, now, dep, source);
                }
                BrokerEvent::SensorLeft { sensor, .. } => {
                    src.sensors.remove(sensor);
                }
            }
        }
    }

    /// Apply trigger control actions: gate/ungate source acquisition.
    pub(crate) fn apply_controls(
        &mut self,
        now: Timestamp,
        operator: EndpointId,
        controls: Vec<ControlAction>,
    ) {
        for action in controls {
            let (dep_name, operator) = &self.monitor.endpoints[operator.index()].names;
            let activate = action.is_activate();
            if let Some(dep) = self.deployments.get_mut(dep_name) {
                for target in action.targets() {
                    if let Some(src) = dep.sources.get_mut(target) {
                        src.active = activate;
                    }
                }
            }
            self.monitor.controls.push(ControlRecord {
                at: now,
                deployment: dep_name.clone(),
                operator: operator.clone(),
                action,
            });
        }
    }

    /// Apply a fault-plan action aimed at one sensor (an unknown id is
    /// ignored; link and node actions are `crate::control`'s).
    pub(crate) fn sensor_fault(&mut self, now: Timestamp, action: FaultAction) {
        let (FaultAction::SensorStall { sensor }
        | FaultAction::SensorDropout { sensor }
        | FaultAction::SensorResume { sensor }
        | FaultAction::CorruptStart { sensor }
        | FaultAction::CorruptStop { sensor }
        | FaultAction::ClockSkew { sensor, .. }
        | FaultAction::BurstStart { sensor, .. }
        | FaultAction::BurstStop { sensor }) = action
        else {
            return;
        };
        let Some(entry) = self.sensors.get_mut(&sensor) else {
            return;
        };
        let name = &entry.ad.name;
        match action {
            FaultAction::SensorStall { .. } => {
                entry.stalled = true;
                self.monitor
                    .recovery
                    .push(format!("[{now}] sensor {name} stalled silently"));
            }
            FaultAction::SensorDropout { .. } => {
                entry.stalled = true;
                entry.expired = true;
                let name = name.clone();
                let events = self.broker.unpublish(SensorId(sensor)).unwrap_or_default();
                self.apply_broker_events(events);
                self.monitor
                    .membership
                    .push(format!("[{now}] - {name} dropped out"));
                self.monitor
                    .recovery
                    .push(format!("[{now}] sensor {name} dropped out"));
            }
            // If it was unpublished (dropout or watchdog expiry), the next
            // emission performs the clean rejoin.
            FaultAction::SensorResume { .. } => entry.stalled = false,
            FaultAction::CorruptStart { .. } => entry.corrupt = true,
            FaultAction::CorruptStop { .. } => entry.corrupt = false,
            FaultAction::ClockSkew { skew_ms, .. } => entry.skew_ms = skew_ms,
            FaultAction::BurstStart { factor, .. } => {
                entry.rate_scale = factor.max(1);
                self.monitor.pressure.push(format!(
                    "[{now}] burst: sensor '{name}' emitting x{} faster",
                    factor.max(1)
                ));
            }
            FaultAction::BurstStop { .. } => {
                entry.rate_scale = 1;
                self.monitor.pressure.push(format!(
                    "[{now}] burst over: sensor '{name}' back to its advertised period"
                ));
            }
            _ => {}
        }
    }

    /// The liveness watchdog withdrew `ad` (its heartbeat is stale): unbind
    /// the sensor and mark it for the clean rejoin.
    pub(crate) fn expire_sensor(
        &mut self,
        now: Timestamp,
        ad: &SensorAdvertisement,
        events: Vec<BrokerEvent>,
    ) {
        self.apply_broker_events(events);
        if let Some(entry) = self.sensors.get_mut(&ad.id.0) {
            entry.expired = true;
        }
        self.inst.liveness_expired.inc();
        self.monitor.membership.push(format!(
            "[{now}] - sensor '{}' presumed dead (no heartbeat)",
            ad.name
        ));
        self.monitor.recovery.push(format!(
            "[{now}] liveness: sensor '{}' expired, ad withdrawn",
            ad.name
        ));
    }

    pub(crate) fn on_sensor_emit(&mut self, now: Timestamp, id: u64) {
        let Some(entry) = self.sensors.get_mut(&id) else {
            return;
        };
        let ad = Arc::clone(&entry.ad);
        // Fault injection: a bursting sensor emits `rate_scale`× faster
        // than its advertised period (floored at 1 ms).
        let scale = entry.rate_scale.max(1) as u64;
        let period = if scale > 1 {
            Duration::from_millis((ad.period.as_millis() / scale).max(1))
        } else {
            ad.period
        };
        if entry.stalled {
            // A stalled or dropped-out sensor keeps its emit timer alive so
            // SensorResume picks up on the next period — but produces
            // nothing and sends no heartbeat (the watchdog must notice).
            self.queue.schedule_in(period, Ev::SensorEmit(id));
            return;
        }
        let corrupt = entry.corrupt;
        let skew_ms = entry.skew_ms;
        let was_expired = entry.expired;
        // Block-mode flow control: when a saturated bound first-hop
        // operator queue is fed by this sensor, skip the sampling instant
        // entirely — no tuple is generated, so nothing can be lost — and
        // revoke the sensor's credit through the broker. The heartbeat
        // still goes out: a throttled sensor is alive, not dead, and must
        // not be expired by the liveness watchdog.
        let block_mode = self.config.overload.queue_capacity.is_some()
            && self.config.overload.policy == OverflowPolicy::Block;
        if block_mode {
            if self.blocked_by_backpressure(&ad) {
                self.queue.schedule_in(period, Ev::SensorEmit(id));
                self.broker.heartbeat(SensorId(id), now);
                self.inst.backpressure_throttled.inc();
                if self.broker.set_credit(SensorId(id), false) {
                    self.monitor.pressure.push(format!(
                        "[{now}] credit revoked for sensor '{}' (downstream queue full)",
                        ad.name
                    ));
                }
                if let Some(entry) = self.sensors.get_mut(&id) {
                    entry.sim.on_throttled(now);
                }
                return;
            }
            if self.broker.set_credit(SensorId(id), true) {
                self.monitor
                    .pressure
                    .push(format!("[{now}] credit re-granted to sensor '{}'", ad.name));
            }
        }
        let Some(entry) = self.sensors.get_mut(&id) else {
            return;
        };
        if was_expired {
            entry.expired = false;
        }
        let wire = entry.sim.wire_format();
        let (mut payload, raw) = entry.sim.emit(now);
        self.queue.schedule_in(period, Ev::SensorEmit(id));
        self.broker.heartbeat(SensorId(id), now);
        if was_expired {
            // Clean rejoin: a sensor the watchdog expired (or that dropped
            // out) re-publishes its advertisement the moment it produces
            // again, re-binding matching sources.
            if let Ok(events) = self.broker.publish(Arc::clone(&ad)) {
                self.apply_broker_events(events);
            }
            self.inst.liveness_rejoined.inc();
            self.monitor
                .membership
                .push(format!("[{now}] + sensor '{}' rejoined", ad.name));
            self.monitor.recovery.push(format!(
                "[{now}] sensor '{}' rejoined after expiry",
                ad.name
            ));
        }
        // Fault injection: a corrupting sensor ships a truncated payload
        // ending in an invalid UTF-8 byte, so extraction fails regardless
        // of wire format.
        if corrupt {
            payload.truncate(payload.len() / 2);
            payload.push(0xFF);
        }
        // Extraction: decode the wire payload against the advertised schema.
        let mut tuple = match decode_payload(&payload, wire, &ad.schema, raw.meta.clone()) {
            Ok(t) => t,
            Err(_) if corrupt => {
                // Undecodable garbage: account for it in the DLQ instead of
                // pretending the sample never happened.
                self.inst.drops_corrupt.inc();
                self.dead_letter(
                    now,
                    "~ingest".to_string(),
                    ad.name.clone(),
                    raw,
                    DropReason::CorruptPayload,
                );
                return;
            }
            Err(_) => raw, // decoder and encoder disagree: fall back to raw
        };
        let enriched = enrich(&mut tuple, &ad, now, &EnrichPolicy::default());
        if enriched.located {
            self.inst.enrich_located.inc();
        }
        if enriched.restamped {
            self.inst.enrich_restamped.inc();
        }
        if enriched.rethemed {
            self.inst.enrich_rethemed.inc();
        }
        if skew_ms != 0 {
            // Fault injection: the sensor's clock runs fast (positive) or
            // slow (negative) relative to virtual time.
            tuple.meta.timestamp = if skew_ms > 0 {
                tuple.meta.timestamp + Duration::from_millis(skew_ms as u64)
            } else {
                tuple
                    .meta
                    .timestamp
                    .saturating_sub(Duration::from_millis(skew_ms.unsigned_abs()))
            };
            self.inst.faults_skewed_tuples.inc();
        }
        // Every tuple entering the dataflows gets the next trace id.
        self.last_trace += 1;
        tuple.meta.trace = self.last_trace;

        // Fan out to every active bound source, in (deployment, source,
        // consumer install) order.
        let mut deliveries = std::mem::take(&mut self.fanout);
        for dep in self.deployments.values_mut() {
            for src in dep.sources.values_mut() {
                if !src.active || !src.sensors.contains(&SensorId(id)) {
                    continue;
                }
                let Some(projected) = project(&tuple, &src.schema) else {
                    continue;
                };
                // Tuples the sources delivered are accounted under the
                // `~sources` pseudo-operator, per consumer.
                for &(to, port) in &src.consumers {
                    self.monitor.endpoints[dep.intake.index()]
                        .counters_mut()
                        .record_in();
                    deliveries.push((to, port, projected.clone()));
                }
                if src.recent.len() >= 8 {
                    src.recent.pop_front();
                }
                src.recent.push_back(projected);
            }
        }
        for (to, port, t) in deliveries.drain(..) {
            self.send(now, ad.node, to, port, t, 0, now);
        }
        self.fanout = deliveries;
    }

    /// True when `Block`-mode flow control demands this sensor skip its
    /// sampling instant: some active bound source forwards it to a service
    /// whose ingress queue is at capacity.
    fn blocked_by_backpressure(&self, ad: &SensorAdvertisement) -> bool {
        let Some(cap) = self.config.overload.queue_capacity else {
            return false;
        };
        self.deployments
            .values()
            .flat_map(|dep| dep.sources.values())
            .filter(|src| src.active && src.sensors.contains(&ad.id))
            .flat_map(|src| &src.consumers)
            .any(|(to, _)| self.depth(*to) >= cap as u64)
    }

    /// Block-mode flow control, the release half: once processing drains a
    /// bounded queue below its cap, every sensor revoked for that queue
    /// gets its credit back immediately. Waiting for the sensor's next
    /// sampling instant is not enough — sensors late in a tick's emission
    /// order would find the queue refilled by earlier emitters every time
    /// and starve permanently.
    pub(crate) fn regrant_credits(&mut self, now: Timestamp) {
        if self.config.overload.queue_capacity.is_none()
            || self.config.overload.policy != OverflowPolicy::Block
            || self.broker.credits().revoked_count() == 0
        {
            return;
        }
        let revoked: Vec<SensorId> = self.broker.credits().revoked().collect();
        for id in revoked {
            let Some(entry) = self.sensors.get(&id.0) else {
                continue;
            };
            let ad = Arc::clone(&entry.ad);
            if !self.blocked_by_backpressure(&ad) && self.broker.set_credit(id, true) {
                self.monitor
                    .pressure
                    .push(format!("[{now}] credit re-granted to sensor '{}'", ad.name));
            }
        }
    }
}

/// The one place a sensor joins a source's bound set: it must provide every
/// attribute the source declares, or the membership log says why not.
fn bind_sensor(
    src: &mut SourceRuntime,
    ad: &SensorAdvertisement,
    log: &mut Log,
    now: Timestamp,
    deployment: &str,
    source: &str,
) {
    if src.schema.subsumed_by(&ad.schema) {
        src.sensors.insert(ad.id);
    } else {
        log.push(format!(
            "[{now}] ! {} matches `{deployment}/{source}` but lacks required attributes; skipped",
            ad.name
        ));
    }
}

/// Project a sensor tuple onto a source's declared schema (types checked at
/// bind time via subsumption; values pass through, with Int→Float widening).
fn project(tuple: &Tuple, schema: &SchemaRef) -> Option<Tuple> {
    let mut values = Vec::with_capacity(schema.len());
    for field in schema.fields() {
        let v = tuple.get(&field.name).ok()?.clone();
        let v = match (v, field.ty) {
            (Value::Int(i), sl_stt::AttrType::Float) => Value::Float(i as f64),
            (v, _) => v,
        };
        values.push(v);
    }
    Tuple::new(schema.clone(), values, tuple.meta.clone()).ok()
}
