//! Recovery-coverage pass (`SL071`–`SL072`, `SL092`): will the configured
//! checkpoint/retry/breaker machinery actually survive the faults the
//! attached plan schedules, and will the durable store it recovers from
//! stay bounded?
//!
//! The fault checks need a [`DeployModel`] with a `FaultPlan`: absent a
//! plan the deployment faces no modelled faults and silence is correct.
//! `SL092` is the exception — it inspects only the durability half of the
//! model (retention without compaction), so it runs with or without a plan.
//!
//! [`DeployModel`]: crate::model::DeployModel

use super::PassCx;
use crate::diag::{Diagnostic, LintCode};
use sl_stt::Duration;

pub(crate) fn run(cx: &PassCx<'_>, out: &mut Vec<Diagnostic>) {
    let Some(model) = cx.model else {
        return;
    };

    // SL092: retention evicts hot events onto the cold tier, but nothing
    // ever rewrites the sealed segments — the log only grows, and expired
    // cold events are never dropped. Retention without compaction is a
    // slow-motion disk leak on any long-running durable deployment.
    if model.durable && model.config.retention.is_some() && !model.compaction {
        out.push(Diagnostic::global(
            LintCode::CompactionDisabled,
            "the engine is durable with a retention window, but cold-tier \
             compaction is disabled: eviction spills hot events into sealed \
             segments that are never merged or aged out, so the log grows \
             without bound — enable `DurableConfig::compaction` (with \
             `cold_retention` matching the intent of the retention window) \
             or drop the retention setting"
                .to_string(),
        ));
    }

    if model.fault_plan.is_none() {
        return;
    }
    let cfg = model.config;

    // SL071: checkpoints exist but only in memory. A crash takes the
    // checkpoint store down with the node it protects against.
    if model.crash_bearing() && !model.durable {
        let any_blocking = cx.graph.is_some_and(|g| g.ops.values().any(|f| f.blocking));
        if any_blocking {
            out.push(Diagnostic::global(
                LintCode::VolatileCheckpoints,
                "the fault plan crashes a node and checkpoints are not durable: \
                 in-memory checkpoints survive engine-simulated crashes only, \
                 not a real process loss — open the engine durable (WAL-backed \
                 checkpoint store) to make recovery meaningful"
                    .to_string(),
            ));
        }
    }

    // SL072: a link flap with breakers on. The breaker opens after
    // `threshold` consecutive failures and then fail-fasts *every* retry
    // for `cooldown`; if the retry policy's remaining backoff budget after
    // the threshold is shorter than the cooldown, all remaining attempts
    // land while the breaker is open and the tuple is guaranteed to
    // dead-letter on the first flap — retries and breaker cancel out.
    if model.flap_bearing() && cfg.overload.breaker_enabled {
        let threshold = cfg.overload.breaker_threshold;
        if threshold < cfg.retry_attempts {
            let remaining = Duration::from_millis(
                sl_faults::budget(cfg.retry_attempts).as_millis()
                    - sl_faults::budget(threshold).as_millis(),
            );
            let cooldown = cfg.overload.breaker_cooldown;
            if remaining.as_millis() < cooldown.as_millis() {
                out.push(Diagnostic::global(
                    LintCode::BreakerRetryConflict,
                    format!(
                        "the fault plan flaps a link and breakers are enabled: after \
                         {threshold} failures the breaker opens for {cooldown}, but the \
                         remaining retry backoff budget is only {remaining} — every \
                         remaining attempt fail-fasts against the open breaker and the \
                         tuple dead-letters on the first flap; raise `retry_attempts` or \
                         `breaker_threshold`, or shorten `breaker_cooldown`",
                    ),
                ));
            }
        }
    }
}
