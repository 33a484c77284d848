//! The deployment-graph IR for the second analysis tier.
//!
//! The SL00x–SL04x passes see only the document; the SL05x–SL08x passes
//! additionally see *how* the document will be run: the [`DeployModel`]
//! (engine configuration, optional fault plan, durability) and the
//! [`DeployGraph`] — per-operator facts joined from the document, the
//! propagated stream properties and service facts (input rates), and the
//! live sensor registry. Everything here is read-only and static: nothing
//! is deployed to compute it.

use crate::analysis::{width_bytes, Propagation};
use sl_dsn::DsnDocument;
use sl_engine::{EngineConfig, PROCESSING_DELAY};
use sl_faults::{FaultAction, FaultPlan};
use sl_netsim::{LinkId, Topology};
use sl_pubsub::{SensorRegistry, SubscriptionFilter};
use sl_stt::Duration;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Everything the deployment-tier passes know about the target engine:
/// the `(EngineConfig, optional FaultPlan, durability)` half of the
/// analyzed tuple. Borrowed, read-only — build one per lint run.
pub struct DeployModel<'a> {
    /// The engine configuration the dataflow will run under.
    pub config: &'a EngineConfig,
    /// The chaos schedule that will be installed, when one is known.
    pub fault_plan: Option<&'a FaultPlan>,
    /// Whether the engine persists checkpoints and the warehouse to a
    /// write-ahead log (`Engine::open_durable`).
    pub durable: bool,
    /// Whether the durable warehouse runs cold-tier compaction (segment
    /// merging plus retention-driven age-out of cold events).
    pub compaction: bool,
}

/// One burst window extracted from the fault plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct BurstWindow {
    /// The bursting sensor.
    pub(crate) sensor: u64,
    /// Window length (BurstStart → BurstStop, or to the plan horizon).
    pub(crate) window: Duration,
    /// Rate multiplier.
    pub(crate) factor: u32,
}

impl DeployModel<'_> {
    /// The plan crashes at least one node.
    pub(crate) fn crash_bearing(&self) -> bool {
        self.has_action(|a| matches!(a, FaultAction::NodeCrash { .. }))
    }

    /// The plan takes at least one link down (a flap).
    pub(crate) fn flap_bearing(&self) -> bool {
        self.has_action(|a| matches!(a, FaultAction::LinkDown { .. }))
    }

    /// The largest burst multiplier the plan schedules (1 when none).
    pub(crate) fn burst_factor(&self) -> f64 {
        self.burst_windows()
            .iter()
            .map(|w| w.factor.max(1) as f64)
            .fold(1.0, f64::max)
    }

    /// Every burst window in the plan, `BurstStart` paired with the next
    /// `BurstStop` for the same sensor (or the plan horizon).
    pub(crate) fn burst_windows(&self) -> Vec<BurstWindow> {
        let Some(plan) = self.fault_plan else {
            return Vec::new();
        };
        let events = plan.events();
        let mut out = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            if let FaultAction::BurstStart { sensor, factor } = ev.action {
                let end = events[i..]
                    .iter()
                    .find(|e| e.action == FaultAction::BurstStop { sensor })
                    .map(|e| e.at)
                    .unwrap_or_else(|| plan.horizon());
                out.push(BurstWindow {
                    sensor,
                    window: Duration::from_millis(
                        end.as_millis().saturating_sub(ev.at.as_millis()),
                    ),
                    factor,
                });
            }
        }
        out
    }

    fn has_action(&self, pred: impl Fn(&FaultAction) -> bool) -> bool {
        self.fault_plan
            .is_some_and(|p| p.events().iter().any(|e| pred(&e.action)))
    }
}

/// Static facts about one service, joined from the spec, the propagated
/// stream properties, and the registry.
#[derive(Debug, Clone)]
pub(crate) struct OpFacts {
    /// Blocking (tick-driven window) operator.
    pub(crate) blocking: bool,
    /// Safe to replicate across shard workers.
    pub(crate) shardable: bool,
    /// Output depends on input arrival order (decimation counters).
    pub(crate) order_sensitive: bool,
    /// Tick period, in seconds, for blocking operators.
    pub(crate) period_s: Option<f64>,
    /// Estimated steady-state input rate (sum over input ports), when the
    /// registry advertises the feeding sensors.
    pub(crate) in_rate_hz: Option<f64>,
    /// Estimated bytes per input tuple (widest input schema).
    pub(crate) in_width_bytes: Option<f64>,
    /// Sensors bound to this operator's direct source inputs (first-hop
    /// simultaneity: that many deliveries can land at one instant).
    pub(crate) first_hop_sensors: usize,
    /// Expected per-tick output batch of direct blocking producers (the
    /// abstract-domain estimate, `out_rate × period`).
    pub(crate) tick_burst_est: f64,
    /// Worst-case per-tick batch of direct blocking producers (everything
    /// a producer buffered over one period released at once).
    pub(crate) tick_burst_max: f64,
    /// A join lies transitively upstream (the stream is a merge of two
    /// independently-timed streams).
    pub(crate) downstream_of_join: bool,
}

/// The deployment graph: [`OpFacts`] per service plus the model-derived
/// constants the resource bounds need.
pub(crate) struct DeployGraph {
    /// Facts per service name.
    pub(crate) ops: BTreeMap<String, OpFacts>,
    /// The largest burst multiplier of the analyzed plan (≥ 1).
    pub(crate) burst_factor: f64,
    /// The in-flight window of one delivery, in seconds: processing delay
    /// plus worst-case route latency plus margin.
    pub(crate) window_s: f64,
}

impl DeployGraph {
    /// Join the document, the propagated properties, and the environment
    /// into per-service facts.
    pub(crate) fn build(
        doc: &DsnDocument,
        propagation: &Propagation,
        registry: Option<&SensorRegistry>,
        topology: Option<&Topology>,
        model: &DeployModel<'_>,
    ) -> DeployGraph {
        let source_names: BTreeSet<&str> = doc.sources.iter().map(|s| s.name.as_str()).collect();
        let sensors_of: HashMap<&str, usize> = doc
            .sources
            .iter()
            .map(|s| (s.name.as_str(), count_sensors(registry, &s.filter)))
            .collect();

        // Transitive join-reachability, computed in declaration order with a
        // fixpoint (documents are validated acyclic, so this converges).
        let mut merged: BTreeSet<String> = BTreeSet::new();
        let mut changed = true;
        while changed {
            changed = false;
            for svc in &doc.services {
                let is_merged =
                    svc.spec.input_ports() > 1 || svc.inputs.iter().any(|i| merged.contains(i));
                if is_merged && merged.insert(svc.name.clone()) {
                    changed = true;
                }
            }
        }

        let props = &propagation.props;
        let in_rate_of = |name: &str| propagation.services.get(name)?.in_rate_hz;
        let mut ops = BTreeMap::new();
        for svc in &doc.services {
            let in_width = svc
                .inputs
                .iter()
                .filter_map(|i| props.get(i).and_then(|p| p.schema.as_ref()))
                .map(|s| width_bytes(s))
                .fold(None, |acc: Option<f64>, w| {
                    Some(acc.map_or(w, |a| a.max(w)))
                });
            let first_hop_sensors = svc
                .inputs
                .iter()
                .filter(|i| source_names.contains(i.as_str()))
                .map(|i| sensors_of.get(i.as_str()).copied().unwrap_or(0))
                .sum();
            let mut tick_burst_est = 0.0;
            let mut tick_burst_max = 0.0;
            for input in &svc.inputs {
                let Some(producer) = doc.service(input) else {
                    continue;
                };
                let Some(period) = producer.spec.period() else {
                    continue;
                };
                let period_s = period.as_secs_f64();
                // Expected: the producer's estimated output rate over one
                // period. Worst case: everything the producer buffered in a
                // period comes out at once (groups ≤ buffered tuples).
                if let Some(out_rate) = props.get(input).and_then(|p| p.rate_hz) {
                    tick_burst_est += out_rate * period_s;
                }
                if let Some(prod_in) = in_rate_of(input) {
                    tick_burst_max += prod_in * period_s;
                }
            }
            ops.insert(
                svc.name.clone(),
                OpFacts {
                    blocking: svc.spec.is_blocking(),
                    shardable: svc.spec.is_shardable(),
                    order_sensitive: svc.spec.is_order_sensitive(),
                    period_s: svc.spec.period().map(|p| p.as_secs_f64()),
                    in_rate_hz: in_rate_of(&svc.name),
                    in_width_bytes: in_width,
                    first_hop_sensors,
                    tick_burst_est,
                    tick_burst_max,
                    downstream_of_join: merged.contains(&svc.name),
                },
            );
        }

        // In-flight window: a delivery is scheduled ahead by its route
        // latency (bounded by a few worst-case hops) plus the engine's
        // per-hop processing delay; 5 ms of margin absorbs serialization
        // delay.
        let max_latency_s = topology
            .map(|t| {
                (0..t.link_count() as u32)
                    .filter_map(|i| t.link(LinkId(i)).ok())
                    .map(|l| l.latency.as_secs_f64())
                    .fold(0.0, f64::max)
            })
            .unwrap_or(0.0);
        let window_s = PROCESSING_DELAY.as_secs_f64() + 4.0 * max_latency_s + 0.005;

        DeployGraph {
            ops,
            burst_factor: model.burst_factor(),
            window_s,
        }
    }

    /// The statically predicted upper bound on one service's in-flight
    /// ingress depth: burst-amplified arrivals over one in-flight window,
    /// plus first-hop sensor simultaneity, plus worst-case tick batches of
    /// blocking producers, plus slack. `None` when the input rate is
    /// unknown (no registry). The soundness property test holds measured
    /// peaks against exactly this number.
    pub(crate) fn peak_depth_bound(&self, service: &str) -> Option<f64> {
        let f = self.ops.get(service)?;
        let rate = f.in_rate_hz?;
        Some(
            self.burst_factor * rate * self.window_s
                + self.burst_factor * f.first_hop_sensors as f64
                + f.tick_burst_max
                + 16.0,
        )
    }

    /// [`DeployGraph::peak_depth_bound`] for every service with a known
    /// input rate.
    pub(crate) fn peak_depth_bounds(&self) -> BTreeMap<String, f64> {
        self.ops
            .keys()
            .filter_map(|name| self.peak_depth_bound(name).map(|b| (name.clone(), b)))
            .collect()
    }
}

/// Sensors currently advertised that a source filter binds.
fn count_sensors(registry: Option<&SensorRegistry>, filter: &SubscriptionFilter) -> usize {
    registry.map_or(0, |r| r.discover(filter).count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn burst_windows_pair_start_with_stop() {
        let plan = FaultPlan::new()
            .burst(3, Duration::from_secs(10), Duration::from_secs(60), 4)
            .node_crash(1, Duration::from_secs(5));
        let cfg = EngineConfig::default();
        let model = DeployModel {
            config: &cfg,
            fault_plan: Some(&plan),
            durable: false,
            compaction: false,
        };
        assert_eq!(
            model.burst_windows(),
            vec![BurstWindow {
                sensor: 3,
                window: Duration::from_secs(60),
                factor: 4,
            }]
        );
        assert_eq!(model.burst_factor(), 4.0);
        assert!(model.crash_bearing());
        assert!(!model.flap_bearing());
    }

    #[test]
    fn no_plan_means_no_chaos() {
        let cfg = EngineConfig::default();
        let model = DeployModel {
            config: &cfg,
            fault_plan: None,
            durable: true,
            compaction: false,
        };
        assert!(!model.crash_bearing());
        assert!(!model.flap_bearing());
        assert_eq!(model.burst_factor(), 1.0);
        assert!(model.burst_windows().is_empty());
    }
}
