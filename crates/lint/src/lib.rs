//! # sl-lint — static analysis for streamLoader dataflows
//!
//! The paper activates a dataflow only "once the dataflow is consistent
//! (i.e. it can be soundly activated at network level)" (§1). The hard
//! half of that gate is `sl-dsn`'s accumulating structural validator plus
//! this crate's front half, which propagates schemas, rates and
//! granularities source→sink and reports every schema error (`SL001`–`SL009`);
//! `sl_dataflow::validate` is the fail-fast form of the same gate. Each
//! service's operator is built once, by that propagation, which records
//! what the passes read of it (input properties, summed input rate,
//! demand). The *advisory* half is a multi-pass static analyzer over the
//! dataflow, its canonical DSN document, and the target netsim topology.
//!
//! Passes (the `passes` module):
//!
//! 1. **granularity** — the finer/coarser STT granule lattice (paper §2)
//!    applied to joins and aggregations (`SL010`–`SL013`);
//! 2. **bounded** — blocking-operator cache boundedness (`SL020`–`SL022`);
//! 3. **rate** — abstract interpretation of advertised sensor frequencies
//!    and schema widths against network bandwidth/CPU (`SL030`–`SL034`);
//! 4. **deadcode** — unreachable operators, redundant triggers, unused
//!    virtual properties, constant predicates (`SL040`–`SL044`).
//!
//! A second, deployment tier analyzes the full `(dataflow, DSN,
//! EngineConfig, optional FaultPlan)` tuple via [`DeployModel`] and the
//! per-service deployment facts derived from it (rates, widths, tick
//! bursts, join lineage):
//!
//! 5. **deadlock** — trigger activation liveness and credit/backpressure
//!    stalls under the `Block` policy (`SL050`–`SL053`);
//! 6. **shard** — does the configured parallelism help, and can it change
//!    observable behaviour (`SL060`–`SL063`);
//! 7. **recovery** — checkpoint/durability/retry coverage of the attached
//!    fault plan (`SL071`–`SL072`);
//! 8. **resource** — worst-case queue depth, memory, and shedding volume
//!    by abstract interpretation of advertised rates (`SL080`–`SL083`).
//!
//! A third, run-time tier ([`lint_cq`], the `Session::lint_cq` path) checks a
//! live session's continuous-query registrations against its engine
//! configuration: unbounded materialized-view growth and unbounded
//! subscriber queues under admission control (`SL090`–`SL091`).
//!
//! Every finding is a [`Diagnostic`] with a stable `SL0xx` [`LintCode`], a
//! severity, and node + DSN-line attribution; a run never stops at the
//! first problem. Entry points: [`lint_dataflow`] for conceptual dataflows
//! (the `Session::lint` and `Session::lint_deployment` paths) and
//! [`lint_document`] for DSN text (the `sl-lint` CLI path); each takes an
//! optional [`DeployModel`] that turns the deployment tier on.

mod analysis;
mod cq;
pub mod deployfile;
mod diag;
mod model;
mod passes;

pub use cq::{lint_cq, CqModel, CqSubFacts, CqViewFacts};
pub use deployfile::DeploySpec;
pub use diag::{Diagnostic, LintCode, LintReport, Severity};
pub use model::DeployModel;

use sl_dataflow::{to_dsn, Dataflow, NodeKind};
use sl_dsn::DsnDocument;
use sl_engine::EngineConfig;
use sl_netsim::Topology;
use sl_pubsub::SensorRegistry;
use sl_stt::SchemaRef;
use std::collections::{BTreeMap, HashMap};

/// What the analyzer knows about the deployment environment. Everything is
/// optional: absent knowledge skips the passes that need it.
#[derive(Default)]
pub struct LintContext<'a> {
    /// The target network (enables `SL030`–`SL032`).
    pub topology: Option<&'a Topology>,
    /// The live sensor registry (enables rate estimation and `SL033`).
    pub registry: Option<&'a SensorRegistry>,
    /// The deploying engine's configuration. An admission layer there
    /// (bounded queues or a global capacity, see
    /// [`admission_enabled`](sl_engine::OverloadConfig::admission_enabled))
    /// mitigates demand overshoot at run time and silences `SL034`.
    pub engine: Option<&'a EngineConfig>,
}

impl<'a> LintContext<'a> {
    /// A context that knows nothing about the environment: structural,
    /// granularity, boundedness, and dead-code passes only.
    pub fn bare() -> LintContext<'a> {
        LintContext::default()
    }
}

/// Lint a conceptual dataflow (the `Session::lint` and
/// `Session::lint_deployment` paths): translate to the canonical document,
/// carry the sources' declared schemas over, and run [`lint_document`].
pub fn lint_dataflow(
    df: &Dataflow,
    ctx: &LintContext<'_>,
    model: Option<&DeployModel<'_>>,
) -> LintReport {
    let (doc, schemas) = canonical(df);
    lint_document(&doc, &schemas, ctx, model)
}

/// Lint a DSN document against the source schemas that are known.
///
/// Hand-authored documents may not determine every schema (`sl-lint` the
/// CLI infers them from `has name:type` filter clauses); sources missing
/// from `schemas` get an `SL009` note and the schema-dependent checks skip
/// the affected region rather than guessing.
///
/// With a deployment model the `SL05x`–`SL08x` deployment passes run too
/// (deadlock, shard-safety, recovery coverage, resource bounds), and
/// `SL034` hands its question to `SL080`, which sees the real admission
/// settings.
pub fn lint_document(
    doc: &DsnDocument,
    schemas: &HashMap<String, SchemaRef>,
    ctx: &LintContext<'_>,
    model: Option<&DeployModel<'_>>,
) -> LintReport {
    let mut diagnostics = Vec::new();
    let propagation = front_half(doc, schemas, ctx, &mut diagnostics);

    // The pass pipeline.
    let consumers = consumer_map(doc);
    let graph =
        model.map(|m| model::DeployGraph::build(doc, &propagation, ctx.registry, ctx.topology, m));
    let cx = passes::PassCx {
        doc,
        schemas,
        propagation: &propagation,
        consumers: &consumers,
        topology: ctx.topology,
        registry: ctx.registry,
        engine: ctx.engine,
        model,
        graph: graph.as_ref(),
    };
    for (_, pass) in passes::PIPELINE {
        pass(&cx, &mut diagnostics);
    }

    // DSN-span attribution against the canonical text.
    let spans = declaration_lines(doc);
    for d in &mut diagnostics {
        if let Some(node) = &d.node {
            d.dsn_line = spans.get(node.as_str()).copied();
        }
    }

    LintReport::new(doc.name.clone(), diagnostics)
}

/// The statically predicted per-service peak ingress-depth bounds for a
/// dataflow under a deployment model — the exact numbers the `SL080`-tier
/// abstract interpretation reasons with, exposed so the soundness property
/// test (and operators sizing queues) can hold measured behaviour against
/// the prediction. Services whose input rates are unknown (no registry)
/// are omitted.
pub fn predicted_peak_depths(
    df: &Dataflow,
    ctx: &LintContext<'_>,
    model: &DeployModel<'_>,
) -> BTreeMap<String, f64> {
    let (doc, schemas) = canonical(df);
    let propagation = front_half(&doc, &schemas, ctx, &mut Vec::new());
    model::DeployGraph::build(&doc, &propagation, ctx.registry, ctx.topology, model)
        .peak_depth_bounds()
}

/// A dataflow's canonical document and its sources' declared schemas.
fn canonical(df: &Dataflow) -> (DsnDocument, HashMap<String, SchemaRef>) {
    let mut schemas = HashMap::new();
    for node in df.sources() {
        if let NodeKind::Source { schema, .. } = &node.kind {
            schemas.insert(node.name.clone(), schema.clone());
        }
    }
    (to_dsn(df), schemas)
}

/// What every analysis starts from: the structural mapping (`SL001`–`SL007`)
/// via `sl-dsn`'s accumulating validator, `SL009` for sources of unknown
/// schema, source rate estimates, and property propagation, which builds
/// each service once and reports its schema errors (`SL008`). Findings are
/// appended to `diagnostics`.
fn front_half(
    doc: &DsnDocument,
    schemas: &HashMap<String, SchemaRef>,
    ctx: &LintContext<'_>,
    diagnostics: &mut Vec<Diagnostic>,
) -> analysis::Propagation {
    let structural = sl_dsn::validate::validate_full(doc);
    passes::structure::from_dsn_errors(&structural.errors, diagnostics);
    let topo_order = structural.topo_order.unwrap_or_default();

    for src in &doc.sources {
        if !schemas.contains_key(&src.name) {
            diagnostics.push(Diagnostic::new(
                LintCode::NoSchema,
                &src.name,
                format!(
                    "source `{}` has no known schema (no `has name:type` clauses and no \
                     registry to infer from); schema-dependent checks are skipped \
                     downstream of it",
                    src.name
                ),
            ));
        }
    }
    let source_rates = estimate_source_rates(doc, schemas, ctx);

    let propagation = analysis::propagate(doc, schemas, &source_rates, &topo_order);
    for (service, err) in &propagation.schema_errors {
        diagnostics.push(passes::structure::schema_error(service, err));
    }
    propagation
}

/// Advertised source rates from the registry: the sum of matching sensors'
/// rates, filtered to sensors whose schema satisfies the source's declared
/// schema (when one is known).
fn estimate_source_rates(
    doc: &DsnDocument,
    schemas: &HashMap<String, SchemaRef>,
    ctx: &LintContext<'_>,
) -> HashMap<String, f64> {
    let mut source_rates = HashMap::new();
    if let Some(registry) = ctx.registry {
        for src in &doc.sources {
            let rate: f64 = registry
                .discover(&src.filter)
                .filter(|ad| {
                    schemas
                        .get(&src.name)
                        .is_none_or(|schema| schema.subsumed_by(&ad.schema))
                })
                .map(|ad| ad.rate_hz())
                .sum();
            if rate > 0.0 {
                source_rates.insert(src.name.clone(), rate);
            }
        }
    }
    source_rates
}

/// `producer → (consumer, port)` adjacency of the document.
fn consumer_map(doc: &DsnDocument) -> HashMap<String, Vec<(String, usize)>> {
    let mut map: HashMap<String, Vec<(String, usize)>> = HashMap::new();
    for (from, to, port) in doc.edges() {
        map.entry(from).or_default().push((to, port));
    }
    map
}

/// 1-based line of each declaration in the canonical DSN text. Channel
/// diagnostics are keyed `from -> to`, matching their `node` attribution.
fn declaration_lines(doc: &DsnDocument) -> HashMap<String, usize> {
    let text = sl_dsn::print_document(doc);
    let mut lines = HashMap::new();
    for (i, line) in text.lines().enumerate() {
        let trimmed = line.trim_start();
        let mut words = trimmed.split_whitespace();
        match words.next() {
            Some("source") | Some("service") | Some("sink") => {
                if let Some(name) = words.next() {
                    lines.entry(name.to_string()).or_insert(i + 1);
                }
            }
            Some("channel") => {
                let decl: Vec<&str> = words.take_while(|w| *w != "{").collect();
                lines.entry(decl.join(" ")).or_insert(i + 1);
            }
            _ => {}
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_dataflow::DataflowBuilder;
    use sl_dsn::SinkKind;
    use sl_pubsub::SubscriptionFilter;
    use sl_stt::{AttrType, Field, Schema};

    fn schema() -> SchemaRef {
        Schema::new(vec![
            Field::new("temperature", AttrType::Float),
            Field::new("humidity", AttrType::Float),
            Field::new("station", AttrType::Str),
        ])
        .unwrap()
        .into_ref()
    }

    /// The services blamed with `SL008`, and the propagated schemas.
    fn schema_errors(df: &Dataflow) -> (Vec<String>, BTreeMap<String, bool>) {
        let report = lint_dataflow(df, &LintContext::bare(), None);
        let blamed = report
            .diagnostics
            .iter()
            .filter(|d| d.code == LintCode::SchemaError)
            .filter_map(|d| d.node.clone())
            .collect();
        let (doc, schemas) = canonical(df);
        let resolved = front_half(&doc, &schemas, &LintContext::bare(), &mut Vec::new())
            .props
            .into_iter()
            .map(|(name, p)| (name, p.schema.is_some()))
            .collect();
        (blamed, resolved)
    }

    #[test]
    fn independent_schema_errors_are_each_reported() {
        // Two independent bad branches off the same source: both are
        // reported, and the good branch's schema still resolves.
        let df = DataflowBuilder::new("multi")
            .source("temp", SubscriptionFilter::any(), schema())
            .filter("bad_a", "temp", "wind_speed > 5") // unknown attribute
            .transform("bad_b", "temp", &[("station", "station + 1")]) // str + int
            .filter("good", "temp", "temperature > 25")
            .sink("out", SinkKind::Console, &["bad_a", "bad_b", "good"])
            .build()
            .unwrap();
        let (mut blamed, resolved) = schema_errors(&df);
        blamed.sort();
        assert_eq!(blamed, ["bad_a", "bad_b"]);
        assert_eq!(resolved.get("good"), Some(&true));
        assert_eq!(resolved.get("bad_a"), Some(&false));
        assert!(sl_dataflow::validate(&df).is_err());
    }

    #[test]
    fn a_starved_downstream_service_is_not_blamed() {
        // `bad` fails, so `after` has no input schema: it is skipped, not
        // blamed for its upstream's failure.
        let df = DataflowBuilder::new("cascade")
            .source("temp", SubscriptionFilter::any(), schema())
            .filter("bad", "temp", "wind_speed > 5")
            .filter("after", "bad", "temperature > 0")
            .sink("out", SinkKind::Console, &["after"])
            .build()
            .unwrap();
        let (blamed, resolved) = schema_errors(&df);
        assert_eq!(blamed, ["bad"]);
        assert_eq!(resolved.get("after"), Some(&false));
    }
}
