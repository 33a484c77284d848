//! Deadlock pass (`SL050`–`SL053`): credit/backpressure stall analysis.
//!
//! `SL050` is pure document analysis (trigger activation liveness) and runs
//! on every lint. `SL051`–`SL053` model the engine's `Block` overflow
//! policy — credit-based flow control that pauses *sensors* when a bounded
//! queue fills (`overload.rs`) — and only run when a [`DeployModel`] is
//! attached.
//!
//! [`DeployModel`]: crate::model::DeployModel

use super::PassCx;
use crate::diag::{Diagnostic, LintCode};
use sl_dsn::SourceMode;
use std::collections::{BTreeSet, HashSet};

pub(crate) fn run(cx: &PassCx<'_>, out: &mut Vec<Diagnostic>) {
    activation_liveness(cx, out);

    let Some(model) = cx.model else {
        return;
    };

    // SL051: a bounded Block queue smaller than the expected per-tick
    // batch of an upstream blocking producer. Credits throttle *sensors*,
    // not interior operators: a tick releases its whole batch at one
    // instant regardless of queue depth, so the engine absorbs the
    // overflow past the bound (counted as `backpressure/block_overflow`)
    // and the configured capacity is fiction for this edge.
    if model.config.overload.block_mode() {
        if let (Some(cap), Some(graph)) = (model.config.overload.queue_capacity, cx.graph) {
            for (name, facts) in &graph.ops {
                if facts.tick_burst_est > cap as f64 {
                    out.push(Diagnostic::new(
                        LintCode::IneffectiveBackpressure,
                        name,
                        format!(
                            "service `{name}` sits behind a blocking producer whose tick \
                             releases an estimated {:.0} tuples at once, but the Block \
                             queue holds {cap}: credits throttle sensors, not ticks, so \
                             the bound is overrun on every tick — raise `queue_capacity` \
                             above the batch size or shorten the producer's period",
                            facts.tick_burst_est
                        ),
                    ));
                }
            }
        }
    }

    // SL052: two sources bound to the *same* physical sensors under Block.
    // Revoking a sensor's generation credit to drain one source's queue
    // silences every stream that sensor feeds — the other source starves
    // through no fault of its own consumers.
    if model.config.overload.block_mode() {
        if let Some(registry) = cx.registry {
            let bindings: Vec<(&str, BTreeSet<u64>)> = cx
                .doc
                .sources
                .iter()
                .map(|s| {
                    let ids = registry.discover(&s.filter).map(|ad| ad.id.0).collect();
                    (s.name.as_str(), ids)
                })
                .collect();
            for (i, (a, ids_a)) in bindings.iter().enumerate() {
                for (b, ids_b) in &bindings[i + 1..] {
                    let shared = ids_a.intersection(ids_b).count();
                    if shared > 0 {
                        out.push(Diagnostic::new(
                            LintCode::SharedCreditStarvation,
                            *a,
                            format!(
                                "sources `{a}` and `{b}` bind {shared} of the same \
                                 sensor(s) under the Block policy: throttling a sensor to \
                                 drain one source's queue starves the other — split the \
                                 filters over disjoint sensors or use a shedding policy",
                            ),
                        ));
                    }
                }
            }
        }
    }

    // SL053: Block promises zero loss, but a global capacity triggers
    // priority preemption that condemns in-flight tuples to the DLQ even
    // under Block. The two knobs contradict each other.
    if matches!(
        model.config.overload.policy,
        sl_engine::OverflowPolicy::Block
    ) && model.config.overload.global_capacity.is_some()
    {
        out.push(Diagnostic::global(
            LintCode::LossyBlockPreemption,
            "the Block policy promises zero loss, but `overload.global_capacity` is set: \
             reaching the global bound preempts in-flight tuples to the dead-letter queue \
             regardless of policy — drop the global capacity or accept a shedding policy"
                .to_string(),
        ));
    }
}

/// SL050: fixpoint liveness over trigger activation. A gated source is only
/// ever woken by a live Trigger-On that targets it; a trigger is live only
/// when all of its transitive inputs are live. Gated sources whose
/// activators can never fire (mutual gating cycles) are dead on arrival —
/// and so is everything downstream of them.
fn activation_liveness(cx: &PassCx<'_>, out: &mut Vec<Diagnostic>) {
    let mut live: HashSet<&str> = cx
        .doc
        .sources
        .iter()
        .filter(|s| s.mode == SourceMode::Active)
        .map(|s| s.name.as_str())
        .collect();

    // Documents are validated acyclic over data edges, so this converges;
    // trigger→gated-source activation edges are the only back edges and
    // each iteration can only grow `live`.
    let mut changed = true;
    while changed {
        changed = false;
        for svc in &cx.doc.services {
            let inputs_live =
                !svc.inputs.is_empty() && svc.inputs.iter().all(|i| live.contains(i.as_str()));
            if !inputs_live {
                continue;
            }
            if live.insert(svc.name.as_str()) {
                changed = true;
            }
            if svc.spec.kind() == "trigger_on" {
                if let Some(targets) = svc.spec.trigger_targets() {
                    for t in targets {
                        if live.insert(t.as_str()) {
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    for src in &cx.doc.sources {
        if src.mode != SourceMode::Gated || live.contains(src.name.as_str()) {
            continue;
        }
        // Only flag sources that *have* an activator somewhere — a gated
        // source nothing targets is a structural problem the validator and
        // dead-code passes own.
        let activators: Vec<&str> = cx
            .doc
            .services
            .iter()
            .filter(|s| {
                s.spec.kind() == "trigger_on"
                    && s.spec
                        .trigger_targets()
                        .is_some_and(|t| t.iter().any(|n| n == &src.name))
            })
            .map(|s| s.name.as_str())
            .collect();
        if !activators.is_empty() {
            out.push(Diagnostic::new(
                LintCode::ActivationDeadlock,
                &src.name,
                format!(
                    "gated source `{}` is only activated by {} — which can never fire \
                     because its own inputs transitively depend on gated sources: the \
                     activation graph has a cycle no trigger can break; start one of the \
                     sources active",
                    src.name,
                    activators
                        .iter()
                        .map(|a| format!("`{a}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ));
        }
    }
}
