//! Control: what the engine does *about* the running dataflows rather than
//! *for* them (paper §3: "depending on workload" operations move; Figure 3
//! shows the assignment changes).
//!
//! The monitor sample (rates, liveness sweep, gauges, demand refresh), the
//! two migrations it drives, the link and node actions of a [`FaultPlan`]
//! (sensor actions are `crate::sources`') and crash recovery.
//!
//! Every placement change ends in [`Engine::relocate`], the one function in
//! which an endpoint and its tracked load move; beside the initial
//! placement it is the only caller of `LoadTracker::place`, so the load
//! tracker and `Endpoint::node` cannot disagree.

use crate::config::{BACKLOG_THRESHOLD, LIVENESS_GRACE, MIGRATION_THRESHOLD};
use crate::deployment::{EndpointId, Role};
use crate::engine::{Engine, Ev};
use crate::error::EngineError;
use crate::monitor::PlacementChange;
use crate::storage::restore_window;
use sl_faults::{FaultAction, FaultPlan};
use sl_netsim::{LinkId, NodeId};
use sl_ops::OpCheckpoint;
use sl_stt::Timestamp;

impl Engine {
    /// Fail or restore a link at run time. Routes recompute lazily; traffic
    /// with no remaining path is dropped (and logged) until connectivity
    /// returns.
    pub fn set_link_up(&mut self, link: LinkId, up: bool) -> Result<(), EngineError> {
        self.topology.set_link_up(link, up)?;
        self.route_cache.clear();
        self.monitor.console.push(format!(
            "[{}] network: {link} {}",
            self.queue.now(),
            if up { "restored" } else { "FAILED" }
        ));
        Ok(())
    }

    /// Install a declarative chaos schedule: every [`FaultPlan`] event is
    /// queued at its offset from *now* and replayed deterministically,
    /// interleaved with regular engine events.
    pub fn install_fault_plan(&mut self, plan: &FaultPlan) {
        for ev in plan.events() {
            self.queue.schedule_in(ev.at, Ev::Fault(ev.action));
        }
    }

    /// Apply a single fault action immediately.
    pub fn inject_fault(&mut self, action: FaultAction) {
        let now = self.now();
        self.apply_fault(now, action);
    }

    pub(crate) fn apply_fault(&mut self, now: Timestamp, action: FaultAction) {
        self.inst.faults[action.kind_index()].inc();
        match action {
            FaultAction::LinkDown { link } => {
                let _ = self.set_link_up(LinkId(link), false);
            }
            FaultAction::LinkUp { link } => {
                let _ = self.set_link_up(LinkId(link), true);
            }
            FaultAction::NodeCrash { node } => self.crash_node(now, NodeId(node)),
            FaultAction::NodeRestart { node } => {
                if self.topology.set_node_up(NodeId(node), true).is_ok() {
                    self.route_cache.clear();
                    self.monitor
                        .console
                        .push(format!("[{now}] network: {} restored", NodeId(node)));
                    self.monitor
                        .recovery
                        .push(format!("[{now}] {} restarted", NodeId(node)));
                }
            }
            sensor_action => self.sensor_fault(now, sensor_action),
        }
    }

    /// Crash a node: down its links, evacuate hosted operator processes to
    /// live nodes (restoring checkpointed window state), and move sink
    /// endpoints off it.
    fn crash_node(&mut self, now: Timestamp, node: NodeId) {
        if self.topology.set_node_up(node, false).is_err() {
            return;
        }
        self.route_cache.clear();
        self.monitor
            .console
            .push(format!("[{now}] network: {node} FAILED"));
        self.monitor
            .recovery
            .push(format!("[{now}] {node} crashed"));

        // Services hosted on the crashed node are evacuated; sink endpoints
        // on it move to the least-loaded live node (their tuples would
        // otherwise dead-letter until restart).
        let on_node = |id: &&EndpointId| {
            let ep = self.monitor.endpoints.get(id.index());
            ep.is_some_and(|ep| ep.node == node)
        };
        let deployments = self.deployments.values();
        let services = deployments.clone().flat_map(|dep| dep.services.values());
        let victims: Vec<EndpointId> = services.filter(on_node).copied().collect();
        let sinks = deployments.flat_map(|dep| dep.sinks.values());
        let sink_victims: Vec<EndpointId> = sinks.filter(on_node).copied().collect();
        for id in victims {
            self.recover_service(now, id);
        }
        for id in sink_victims {
            if let Some(target) = self.recovery_node(0.0) {
                self.relocate(now, id, target, false, "recovery: node crash".into());
            }
        }
    }

    /// The least-loaded live node with room for `demand` (any live node when
    /// none has room: recovery beats capacity guarantees).
    fn recovery_node(&self, demand: f64) -> Option<NodeId> {
        let candidates: Vec<NodeId> = self
            .topology
            .node_ids()
            .filter(|n| self.topology.node_is_up(*n))
            .collect();
        self.loads
            .least_loaded(&self.topology, candidates.iter().copied(), demand)
            .or_else(|| candidates.first().copied())
    }

    /// Re-place one service off a crashed node and restore its operator
    /// state from the latest checkpoint.
    fn recover_service(&mut self, now: Timestamp, id: EndpointId) {
        let demand = self.loads.demand_of(id.process()).unwrap_or(1.0);
        let target = self.recovery_node(demand);
        let ep = &mut self.monitor.endpoints[id.index()];
        let Role::Service(svc) = &mut ep.role else {
            return;
        };
        let (deployment, name) = &ep.names;
        let Some(target) = target else {
            self.monitor.recovery.push(format!(
                "[{now}] {deployment}/{name}: no live node to recover onto"
            ));
            return;
        };
        // The crash lost the in-memory window cache; re-seed it from the
        // checkpoint (an empty checkpoint wipes it).
        let restored = svc.checkpoint.clone().unwrap_or_else(OpCheckpoint::empty);
        let restored = restore_window(&mut self.inst, &mut *svc.op, restored);
        self.monitor.recovery.push(format!(
            "[{now}] {deployment}/{name}: recovered onto {target} ({restored} restored)"
        ));
        // Non-strict placement: recovery beats capacity guarantees.
        self.relocate(now, id, target, false, "recovery: node crash".into());
    }

    /// Move an endpoint to `target` — and, for a service, its tracked load
    /// with it — then record the placement change, rebuild what was derived
    /// from the old node and re-route the flows touching it. A `strict`
    /// move is refused (nothing moves, `false`) when the load does not fit.
    fn relocate(
        &mut self,
        now: Timestamp,
        id: EndpointId,
        target: NodeId,
        strict: bool,
        reason: String,
    ) -> bool {
        let process = id.process();
        if let Some(demand) = self.loads.demand_of(process) {
            let placed = self
                .loads
                .place(&self.topology, process, target, demand, strict);
            if placed.is_err() {
                return false;
            }
        }
        let ep = &mut self.monitor.endpoints[id.index()];
        self.monitor.placements.push(PlacementChange {
            at: now,
            deployment: ep.names.0.clone(),
            operator: ep.names.1.clone(),
            from: Some(ep.node),
            to: target,
            reason,
        });
        ep.node = target;
        self.reinstall_flows_for(id);
        true
    }

    /// After a move, re-route the flows touching an endpoint.
    fn reinstall_flows_for(&mut self, id: EndpointId) {
        let (dep_name, name) = self.monitor.endpoints[id.index()].names.clone();
        // Out of `self` while its flows are re-installed through `&mut self`.
        let Some(mut dep) = self.deployments.remove(&dep_name) else {
            return;
        };
        for idx in 0..dep.edges.len() {
            let (from, to) = (&dep.edges[idx].from, &dep.edges[idx].to);
            if *from != name && *to != name {
                continue;
            }
            if let Some(f) = dep.edges[idx].flow {
                let _ = self.flows.uninstall(f);
            }
            let flow = match (self.node_in(&dep, from), self.node_in(&dep, to)) {
                (Some(a), Some(b)) if a != b => {
                    let qos = dep.dataflow.qos_for(from, to);
                    self.install_flow_with_fallback(a, b, &qos, &dep_name, from, to)
                        .ok()
                }
                _ => None,
            };
            dep.edges[idx].flow = flow;
        }
        self.deployments.insert(dep_name, dep);
    }

    pub(crate) fn on_monitor_sample(&mut self, now: Timestamp) {
        // Samples are exactly one period apart: each schedules the next.
        let elapsed = self.config.monitor_period.as_secs_f64();
        self.monitor.sample_rates(now, elapsed);

        // Liveness watchdog: expire sensors whose heartbeat (last emission)
        // is older than `LIVENESS_GRACE` advertised periods.
        for (ad, events) in self.broker.sweep_stale(now, LIVENESS_GRACE) {
            self.expire_sensor(now, &ad, events);
        }

        // Observability gauges: event-queue depth and per-link queued bytes.
        self.inst.event_queue_depth.set(self.queue.pending() as i64);
        for (link, bytes) in self.flows.reserved_links() {
            self.net_stats.set_link_queued(link, bytes);
        }

        // Refresh process demands from observed rates (the tracker ignores
        // an unchanged one). The same sweep drains the ingress watermarks
        // (name order, every window regardless, so they never span more
        // than one monitor period); backlog-driven re-placement below reads
        // them when it runs.
        let backlog_cap = self.config.overload.queue_capacity;
        let backlog_cap = backlog_cap.filter(|_| self.config.migration_enabled);
        let mut watermarks: Vec<(EndpointId, u64)> = Vec::new();
        let services = self.deployments.values().flat_map(|d| d.services.values());
        for &id in services {
            let Some(ep) = self.monitor.endpoints.get_mut(id.index()) else {
                continue;
            };
            let (Role::Service(svc), Some(counters)) = (&ep.role, &mut ep.counters) else {
                continue;
            };
            if let Some((_, rate)) = counters.rate_series.last() {
                let demand = (rate * svc.op.cost_per_tuple()).max(1.0);
                self.loads.set_demand(id.process(), demand);
            }
            let hwm = counters.ingress.drain_watermark();
            if backlog_cap.is_some() {
                watermarks.push((id, hwm));
            }
        }

        // Overload-control gauges.
        let inflight = self.total_inflight() as i64;
        self.inst.backpressure_inflight.set(inflight);
        let throttled = self.broker.credits().revoked_count() as i64;
        self.inst.backpressure_throttled_sensors.set(throttled);

        if self.config.migration_enabled {
            if let Some(cap) = backlog_cap {
                self.migrate_backlogged(now, cap, &watermarks);
            }
            // Nothing the scan reads moved since it last found nothing to
            // move: it would find the same.
            let version = self.loads.version();
            if self.overload_scanned_at != Some(version) {
                self.overload_scanned_at = Some(version);
                self.migrate_overloaded(now);
            }
        }

        self.maintain_storage(now);

        self.queue
            .schedule_in(self.config.monitor_period, Ev::MonitorSample);
    }

    /// Re-place operators whose ingress queues stayed near their bound for
    /// a whole monitor window: sustained backlog is an overload signal CPU
    /// utilisation misses (a slow node under light average load still
    /// starves its queue). One migration per operator per cooldown window.
    fn migrate_backlogged(&mut self, now: Timestamp, cap: usize, watermarks: &[(EndpointId, u64)]) {
        let threshold = (((cap as f64) * BACKLOG_THRESHOLD).ceil() as u64).max(1);
        let cooldown = self.config.monitor_period.saturating_mul(4);
        for &(id, hwm) in watermarks {
            if hwm < threshold {
                continue;
            }
            let ep = &self.monitor.endpoints[id.index()];
            let cooling = ep.service().is_none_or(|svc| {
                svc.last_backlog_migration
                    .is_some_and(|last| now.since(last).as_millis() < cooldown.as_millis())
            });
            if cooling {
                continue;
            }
            let (node, (dep_name, svc_name)) = (ep.node, &ep.names);
            let at = format!("backlog {hwm}/{cap} at {dep_name}/{svc_name}");
            if !self.migrate(now, id, format!("migration: {at}")) {
                continue;
            }
            self.monitor
                .pressure
                .push(format!("[{now}] {at}: moved off {node}"));
            self.inst.backpressure_backlog_migrations.inc();
            if let Some(svc) = self.monitor.endpoints[id.index()].service_mut() {
                svc.last_backlog_migration = Some(now);
            }
        }
    }

    /// Move the heaviest process off every overloaded node, if a fitting
    /// target exists (the Figure 3 "assignment changes").
    fn migrate_overloaded(&mut self, now: Timestamp) {
        let overloaded: Vec<NodeId> = self
            .topology
            .node_ids()
            .filter(|n| {
                self.loads
                    .utilization(&self.topology, *n)
                    .is_ok_and(|u| u > MIGRATION_THRESHOLD)
            })
            .collect();
        for node in overloaded {
            let heaviest = self
                .loads
                .processes_on(node)
                .into_iter()
                .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
            if let Some((process, _)) = heaviest {
                let owner = EndpointId::of_process(process);
                self.migrate(now, owner, format!("migration: {node} overloaded"));
            }
        }
    }

    /// Re-place service `id` on the least-loaded other node with room for
    /// its demand; `false` (and nothing moved) when there is none.
    fn migrate(&mut self, now: Timestamp, id: EndpointId, reason: String) -> bool {
        let node = self.monitor.endpoints[id.index()].node;
        let demand = self.loads.demand_of(id.process()).unwrap_or(1.0);
        let candidates = self.topology.node_ids().filter(|n| *n != node);
        match self.loads.least_loaded(&self.topology, candidates, demand) {
            Some(target) => self.relocate(now, id, target, true, reason),
            None => false,
        }
    }
}
