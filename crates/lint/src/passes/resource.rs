//! Resource-bound pass (`SL080`–`SL083`): worst-case queue depth, memory,
//! and shedding volume by abstract interpretation of advertised rates.
//!
//! All checks need a [`DeployModel`]; the depth arithmetic lives in
//! [`DeployGraph`](crate::model::DeployGraph), shared with
//! `predicted_peak_depths` so the soundness property test holds measured
//! peaks against exactly the numbers these diagnostics reason about.
//!
//! [`DeployModel`]: crate::model::DeployModel

use super::PassCx;
use crate::diag::{Diagnostic, LintCode};

/// Peak-memory budget for `SL081`: in-flight queues plus blocking window
/// caches at advertised rates.
const MEMORY_BUDGET_BYTES: f64 = 256.0 * 1024.0 * 1024.0;

pub(crate) fn run(cx: &PassCx<'_>, out: &mut Vec<Diagnostic>) {
    let Some(model) = cx.model else {
        return;
    };
    let Some(graph) = cx.graph else {
        return;
    };
    let cfg = model.config;

    // SL080: sustained demand beyond the best single node with the whole
    // admission layer off. No queue bound, no credits, no shedding: the
    // ingress queue of the overloaded operator grows forever. This is the
    // deployment-tier refinement of SL034 (which covers the no-model CLI
    // path and is silenced when a model is attached).
    if !cfg.overload.admission_enabled() {
        let (best_node, over) = cx.over_best_node();
        for (name, demand) in over {
            out.push(Diagnostic::new(
                LintCode::UnboundedQueueGrowth,
                name,
                format!(
                    "service `{name}` demands an estimated {demand:.0} \
                     operator-ops/s against a best node of {best_node:.0} \
                     with admission control disabled: its ingress queue \
                     grows without bound at the advertised rates — set \
                     `overload.queue_capacity` or cull upstream"
                ),
            ));
        }
    }

    // SL081: predicted peak memory across in-flight queues and blocking
    // window caches vs. the analysis budget. Queue term: peak depth bound ×
    // tuple width. Cache term: a blocking operator retains one period of
    // input before its tick flushes it.
    let mut peak_bytes = 0.0;
    let mut any_known = false;
    for (name, facts) in &graph.ops {
        let Some(width) = facts.in_width_bytes else {
            continue;
        };
        if let Some(bound) = graph.peak_depth_bound(name) {
            peak_bytes += bound * width;
            any_known = true;
        }
        if let (true, Some(rate), Some(period)) = (facts.blocking, facts.in_rate_hz, facts.period_s)
        {
            peak_bytes += graph.burst_factor * rate * period * width;
            any_known = true;
        }
    }
    if any_known && peak_bytes > MEMORY_BUDGET_BYTES {
        out.push(Diagnostic::global(
            LintCode::PeakMemoryExceedsBudget,
            format!(
                "predicted peak memory is {:.1} MiB (in-flight queues + blocking window \
                 caches at advertised rates, burst factor {:.0}) against a budget of \
                 {:.1} MiB — cull or aggregate earlier, or shorten windows",
                peak_bytes / (1024.0 * 1024.0),
                graph.burst_factor,
                MEMORY_BUDGET_BYTES / (1024.0 * 1024.0)
            ),
        ));
    }

    // SL082: a shedding policy with a queue bound smaller than a blocking
    // producer's per-tick batch. The whole batch lands at one instant, the
    // queue keeps `cap`, and the rest is condemned — every tick, by
    // design, not just under bursts.
    if cfg.overload.shed_mode() {
        if let Some(cap) = cfg.overload.queue_capacity {
            for (name, facts) in &graph.ops {
                if facts.tick_burst_est > cap as f64 {
                    out.push(Diagnostic::new(
                        LintCode::TickBurstOverflow,
                        name,
                        format!(
                            "service `{name}` receives an estimated {:.0}-tuple batch \
                             per upstream tick but its shedding queue holds {cap}: \
                             roughly {:.0} tuples are condemned on every tick — raise \
                             `queue_capacity` above the batch size or aggregate harder \
                             upstream",
                            facts.tick_burst_est,
                            facts.tick_burst_est - cap as f64
                        ),
                    ));
                }
            }
        }
    }

    // SL083: shedding during a planned burst produces more dead letters
    // than the DLQ retains — the loss accounting the shed policy promises
    // is silently evicted.
    if cfg.overload.shed_mode() {
        if let Some(registry) = cx.registry {
            let mut shed_est = 0.0;
            for w in model.burst_windows() {
                let Some(ad) = registry.all().find(|ad| ad.id.0 == w.sensor) else {
                    continue;
                };
                shed_est += (w.factor.max(1) as f64 - 1.0) * ad.rate_hz() * w.window.as_secs_f64();
            }
            if shed_est > cfg.dlq_capacity as f64 {
                out.push(Diagnostic::global(
                    LintCode::DlqUndershoot,
                    format!(
                        "the fault plan's bursts shed an estimated {shed_est:.0} tuples \
                         under the configured shedding policy but the dead-letter queue \
                         retains {}: early dead letters are evicted and the loss record \
                         is incomplete — raise `dlq_capacity` or absorb the burst with \
                         a larger queue",
                        cfg.dlq_capacity
                    ),
                ));
            }
        }
    }
}
