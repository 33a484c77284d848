//! Rate/volume pass (`SL030`–`SL034`): abstract interpretation of
//! advertised sensor frequencies and schema widths against the target
//! netsim topology, catching placements the network cannot carry *before*
//! deployment (the paper's premise that a dataflow activates only "once it
//! can be soundly activated at network level").

use super::PassCx;
use crate::analysis::width_bytes;
use crate::diag::{Diagnostic, LintCode};
use sl_netsim::{LinkId, LinkSpec, Topology};

pub(crate) fn run(cx: &PassCx<'_>, out: &mut Vec<Diagnostic>) {
    // SL033: sources whose filter matches nothing in the live registry.
    if let Some(registry) = cx.registry {
        for src in &cx.doc.sources {
            let bindable = registry.discover(&src.filter).filter(|ad| {
                cx.schemas
                    .get(&src.name)
                    .is_none_or(|schema| schema.subsumed_by(&ad.schema))
            });
            if bindable.count() == 0 {
                out.push(Diagnostic::new(
                    LintCode::SilentSource,
                    &src.name,
                    format!(
                        "source `{}` matches no advertised sensor (filter: {}), so the \
                         stream will be silent — broaden the filter or register sensors \
                         before deploying",
                        src.name,
                        sl_dsn::printer::print_filter(&src.filter)
                    ),
                ));
            }
        }
    }

    let links: Vec<LinkSpec> = cx.topology.map(up_links).unwrap_or_default();

    // SL030: channel QoS no link can satisfy.
    if !links.is_empty() {
        for ch in &cx.doc.channels {
            if ch.qos.is_best_effort() {
                continue;
            }
            let satisfiable = links.iter().any(|l| {
                ch.qos
                    .min_bandwidth_bps
                    .is_none_or(|bw| l.bandwidth_bps >= bw)
                    && ch.qos.max_latency.is_none_or(|lat| l.latency <= lat)
            });
            if !satisfiable {
                out.push(Diagnostic {
                    node: Some(format!("{} -> {}", ch.from, ch.to)),
                    ..Diagnostic::global(
                        LintCode::UnsatisfiableQos,
                        format!(
                            "channel {} -> {} requests QoS no link in the target topology \
                             can provide; the engine would fall back to best-effort \
                             delivery — relax the QoS or upgrade the network",
                            ch.from, ch.to
                        ),
                    )
                });
            }
        }
    }

    // SL031: estimated per-edge volume vs. link capacity / QoS reservation.
    let max_bw = links.iter().map(|l| l.bandwidth_bps).max();
    for (from, to, _) in cx.doc.edges() {
        let Some(props) = cx.props_of(&from) else {
            continue;
        };
        let (Some(rate), Some(schema)) = (props.rate_hz, props.schema.as_ref()) else {
            continue;
        };
        let est_bps = rate * width_bytes(schema) * 8.0;
        if let Some(max_bw) = max_bw {
            if est_bps > max_bw as f64 {
                out.push(Diagnostic::new(
                    LintCode::LinkOverload,
                    &from,
                    format!(
                        "edge {from} -> {to} carries an estimated {:.0} kbit/s, more than \
                         the fastest link in the target topology ({:.0} kbit/s): it will \
                         saturate wherever it is placed — cull or aggregate upstream",
                        est_bps / 1000.0,
                        max_bw as f64 / 1000.0
                    ),
                ));
                continue;
            }
        }
        if let Some(reserved) = cx.doc.qos_for(&from, &to).min_bandwidth_bps {
            if est_bps > reserved as f64 {
                out.push(Diagnostic::new(
                    LintCode::LinkOverload,
                    &from,
                    format!(
                        "edge {from} -> {to} reserves {:.0} kbit/s of bandwidth but is \
                         estimated to carry {:.0} kbit/s — raise the reservation or \
                         reduce the stream",
                        reserved as f64 / 1000.0,
                        est_bps / 1000.0
                    ),
                ));
            }
        }
    }

    // SL032: total operator demand vs. total up-node CPU capacity.
    if let Some(topology) = cx.topology {
        let capacity: f64 = topology
            .node_ids()
            .filter_map(|n| topology.node(n).ok())
            .filter(|n| n.up)
            .map(|n| n.cpu_capacity)
            .sum();
        let mut demand = 0.0;
        let mut known = true;
        for svc in &cx.doc.services {
            match cx.service(&svc.name).and_then(|f| f.demand) {
                Some(d) => demand += d,
                None => known = false,
            }
        }
        if known && capacity > 0.0 && demand > capacity {
            out.push(Diagnostic::global(
                LintCode::CpuOverload,
                format!(
                    "the dataflow demands an estimated {demand:.0} operator-ops/s but the \
                     target topology provides {capacity:.0}: placement will overload nodes \
                     — cull upstream or provision more capacity"
                ),
            ));
        }

        // SL034: a single operator whose advertised input rate exceeds the
        // best *single* node's capacity. Such an operator falls behind on
        // every possible placement; without a shedding/backpressure policy
        // its ingress queue grows without bound. Silenced when the session
        // engine has an admission layer configured — the overshoot is then
        // mitigated (shed or absorbed via credits) at run time, and when a
        // deployment model is attached — the resource pass (SL080) then
        // owns the question with the real admission settings in hand.
        if !cx.engine.is_some_and(|c| c.overload.admission_enabled()) && cx.model.is_none() {
            let (best_node, over) = cx.over_best_node();
            for (name, svc_demand) in over {
                out.push(Diagnostic::new(
                    LintCode::UnmitigatedOverload,
                    name,
                    format!(
                        "service `{name}` receives an estimated {svc_demand:.0} \
                         operator-ops/s but the fastest node provides {best_node:.0}: \
                         it will fall behind on any placement and no overload policy \
                         is configured — bound its queue with a shedding or \
                         backpressure policy, or slow the sensors"
                    ),
                ));
            }
        }
    }
}

/// Every up link of the topology.
fn up_links(topology: &Topology) -> Vec<LinkSpec> {
    (0..topology.link_count() as u32)
        .filter_map(|i| topology.link(LinkId(i)).ok())
        .filter(|l| l.up)
        .cloned()
        .collect()
}
