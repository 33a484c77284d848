//! Boundedness pass (`SL020`–`SL022`): blocking operators cache tuples
//! between ticks (paper §2's blocking Table-1 operations); this pass bounds
//! those caches statically. A sliding window shorter than its tick period
//! leaks tuples; a join predicate that never constrains one side turns the
//! tick into a cross product; and a cache whose estimated population
//! exceeds the budget needs a cull upstream.

use super::PassCx;
use crate::analysis::join_sides;
use crate::diag::{Diagnostic, LintCode};
use sl_ops::OpSpec;

/// Estimated tuples a blocking operator may cache per window before `SL022`
/// fires.
const CACHE_BUDGET_TUPLES: f64 = 100_000.0;

pub(crate) fn run(cx: &PassCx<'_>, out: &mut Vec<Diagnostic>) {
    for svc in &cx.doc.services {
        match &svc.spec {
            OpSpec::Aggregate {
                period,
                sliding: Some(span),
                ..
            } if span < period => {
                out.push(Diagnostic::new(
                    LintCode::WindowGap,
                    &svc.name,
                    format!(
                        "sliding aggregation `{}` keeps a {span} window but only ticks \
                         every {period}: tuples arriving more than {span} before a tick \
                         are evicted unseen — widen the window to at least the period",
                        svc.name
                    ),
                ));
            }
            OpSpec::Join { predicate, .. } => {
                if let Some(sides) = cx
                    .service(&svc.name)
                    .and_then(|f| join_sides(predicate, &f.inputs))
                {
                    let unconstrained =
                        match (sides.left_refs.is_empty(), sides.right_refs.is_empty()) {
                            (true, true) => Some("either"),
                            (true, false) => Some("the left"),
                            (false, true) => Some("the right"),
                            (false, false) => None,
                        };
                    if let Some(side) = unconstrained {
                        out.push(Diagnostic::new(
                            LintCode::UnconstrainedJoin,
                            &svc.name,
                            format!(
                                "join `{}` never constrains {side} input in its predicate \
                                 `{predicate}`: every cached tuple on an unconstrained side \
                                 matches, so each tick emits a cross product — correlate \
                                 the sides (e.g. an equality on a shared key)",
                                svc.name
                            ),
                        ));
                    }
                }
            }
            _ => {}
        }

        // Cache population estimate for every blocking operator.
        let Some(period) = svc.spec.period() else {
            continue;
        };
        let span = match &svc.spec {
            OpSpec::Aggregate {
                sliding: Some(span),
                ..
            } => (*span).max(period),
            _ => period,
        };
        let mut est = 0.0;
        let mut known = true;
        for input in &svc.inputs {
            match cx.props_of(input).and_then(|p| p.rate_hz) {
                Some(rate) => est += rate * span.as_secs_f64(),
                None => known = false,
            }
        }
        if known && est > CACHE_BUDGET_TUPLES {
            let remedy = if has_cull_upstream(cx, &svc.name) {
                "shorten the window or cull harder upstream"
            } else {
                "add a cull_time/cull_space upstream or shorten the window"
            };
            out.push(Diagnostic::new(
                LintCode::UnboundedCache,
                &svc.name,
                format!(
                    "blocking operator `{}` caches an estimated {est:.0} tuples per \
                     {span} window (budget: {CACHE_BUDGET_TUPLES:.0}); {remedy}",
                    svc.name
                ),
            ));
        }
    }
}

/// True when any transitive input of `name` is a cull operator.
fn has_cull_upstream(cx: &PassCx<'_>, name: &str) -> bool {
    let mut stack: Vec<&str> = match cx.doc.service(name) {
        Some(svc) => svc.inputs.iter().map(String::as_str).collect(),
        None => return false,
    };
    let mut seen = std::collections::HashSet::new();
    while let Some(n) = stack.pop() {
        if !seen.insert(n) {
            continue;
        }
        if let Some(svc) = cx.doc.service(n) {
            if matches!(svc.spec, OpSpec::CullTime { .. } | OpSpec::CullSpace { .. }) {
                return true;
            }
            stack.extend(svc.inputs.iter().map(String::as_str));
        }
    }
    false
}
