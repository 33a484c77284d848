//! # sl-lint — static analysis for streamLoader dataflows
//!
//! The paper activates a dataflow only "once the dataflow is consistent
//! (i.e. it can be soundly activated at network level)" (§1). The
//! accumulating validators in `sl-dsn`/`sl-dataflow` implement the hard
//! structural half of that gate; this crate layers the *advisory* half on
//! top: a multi-pass static analyzer over the validated dataflow, its
//! canonical DSN document, and the target netsim topology.
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
//! derived [`DeployGraph`]:
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
//! (the `Session::lint` path) and [`lint_document`] for DSN text (the
//! `sl-lint` CLI path).

mod analysis;
mod cq;
pub mod deployfile;
mod diag;
mod model;
mod passes;

pub use analysis::StreamProps;
pub use cq::{lint_cq, CqModel, CqSubFacts, CqViewFacts};
pub use deployfile::DeploySpec;
pub use diag::{Diagnostic, LintCode, LintReport, Severity};
pub use model::{BurstWindow, DeployGraph, DeployModel, OpFacts};

use sl_dataflow::{to_dsn, Dataflow, NodeKind};
use sl_dsn::DsnDocument;
use sl_engine::EngineConfig;
use sl_netsim::Topology;
use sl_pubsub::SensorRegistry;
use sl_stt::SchemaRef;
use std::collections::{BTreeMap, HashMap};

/// Thresholds for the heuristic passes.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Estimated tuples a blocking operator may cache per window before
    /// `SL022` fires.
    pub cache_budget_tuples: f64,
    /// The deploying engine has an overload-control policy configured
    /// (bounded queues with shedding or backpressure). Silences `SL034`:
    /// demand overshoot is mitigated at run time instead of being a silent
    /// unbounded queue.
    pub overload_policy_configured: bool,
    /// Peak-memory budget for `SL081` (in-flight queues plus blocking
    /// window caches at advertised rates).
    pub memory_budget_bytes: f64,
}

impl Default for LintConfig {
    fn default() -> LintConfig {
        LintConfig {
            cache_budget_tuples: 100_000.0,
            overload_policy_configured: false,
            memory_budget_bytes: 256.0 * 1024.0 * 1024.0,
        }
    }
}

impl LintConfig {
    /// Thresholds derived from an engine configuration: the overload flag
    /// follows [`admission_enabled`](sl_engine::OverloadConfig::admission_enabled)
    /// — bounded queues *or* a global capacity both mitigate demand
    /// overshoot, so either silences `SL034`.
    pub fn for_engine(config: &EngineConfig) -> LintConfig {
        LintConfig {
            overload_policy_configured: config.overload.admission_enabled(),
            ..LintConfig::default()
        }
    }
}

/// What the analyzer knows about the deployment environment. Everything is
/// optional: absent knowledge skips the passes that need it.
#[derive(Default)]
pub struct LintContext<'a> {
    /// The target network (enables `SL030`–`SL032`).
    pub topology: Option<&'a Topology>,
    /// The live sensor registry (enables rate estimation and `SL033`).
    pub registry: Option<&'a SensorRegistry>,
    /// Thresholds.
    pub config: LintConfig,
}

impl<'a> LintContext<'a> {
    /// A context that knows nothing about the environment: structural,
    /// granularity, boundedness, and dead-code passes only.
    pub fn bare() -> LintContext<'a> {
        LintContext::default()
    }
}

/// Lint a conceptual dataflow (the `Session::lint` path): translate to the
/// canonical document, carry the sources' declared schemas over, and run
/// the full pipeline.
pub fn lint_dataflow(df: &Dataflow, ctx: &LintContext<'_>) -> LintReport {
    let doc = to_dsn(df);
    let mut schemas = HashMap::new();
    for node in df.sources() {
        if let NodeKind::Source { schema, .. } = &node.kind {
            schemas.insert(node.name.clone(), schema.clone());
        }
    }
    lint_document(&doc, &schemas, ctx)
}

/// Lint a DSN document against the source schemas that are known.
///
/// Hand-authored documents may not determine every schema (`sl-lint` the
/// CLI infers them from `has name:type` filter clauses); sources missing
/// from `schemas` get an `SL009` note and the schema-dependent checks skip
/// the affected region rather than guessing.
pub fn lint_document(
    doc: &DsnDocument,
    schemas: &HashMap<String, SchemaRef>,
    ctx: &LintContext<'_>,
) -> LintReport {
    lint_document_with_model(doc, schemas, ctx, None)
}

/// Lint a conceptual dataflow against a full deployment model: the
/// document tier plus the `SL05x`–`SL08x` deployment passes (deadlock,
/// shard-safety, recovery coverage, resource bounds). This is the
/// `Session::lint_deployment` path.
pub fn lint_deployment(
    df: &Dataflow,
    ctx: &LintContext<'_>,
    model: &DeployModel<'_>,
) -> LintReport {
    let doc = to_dsn(df);
    let mut schemas = HashMap::new();
    for node in df.sources() {
        if let NodeKind::Source { schema, .. } = &node.kind {
            schemas.insert(node.name.clone(), schema.clone());
        }
    }
    lint_document_with_model(&doc, &schemas, ctx, Some(model))
}

/// [`lint_document`] with an optional deployment model attached. With a
/// model the deployment passes run and `SL034` hands its question to
/// `SL080` (which sees the real admission settings).
pub fn lint_document_with_model(
    doc: &DsnDocument,
    schemas: &HashMap<String, SchemaRef>,
    ctx: &LintContext<'_>,
    model: Option<&DeployModel<'_>>,
) -> LintReport {
    let mut diagnostics = Vec::new();

    // Structural mapping (SL001–SL007) via the accumulating validator.
    let structural = sl_dsn::validate::validate_full(doc);
    passes::structure::from_dsn_errors(&structural.errors, &mut diagnostics);
    let topo_order = structural.topo_order.unwrap_or_default();

    // SL009 + source rate estimation.
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

    // Property propagation + schema errors (SL008).
    let propagation = analysis::propagate(doc, schemas, &source_rates, &topo_order);
    for (service, err) in &propagation.schema_errors {
        diagnostics.push(passes::structure::schema_error(service, err));
    }

    // The pass pipeline.
    let consumers = consumer_map(doc);
    let graph = model
        .map(|m| model::DeployGraph::build(doc, &propagation.props, ctx.registry, ctx.topology, m));
    let cx = passes::PassCx {
        doc,
        schemas,
        props: &propagation.props,
        consumers: &consumers,
        topology: ctx.topology,
        registry: ctx.registry,
        config: &ctx.config,
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
    let doc = to_dsn(df);
    let mut schemas = HashMap::new();
    for node in df.sources() {
        if let NodeKind::Source { schema, .. } = &node.kind {
            schemas.insert(node.name.clone(), schema.clone());
        }
    }
    let structural = sl_dsn::validate::validate_full(&doc);
    let topo_order = structural.topo_order.unwrap_or_default();
    let source_rates = estimate_source_rates(&doc, &schemas, ctx);
    let propagation = analysis::propagate(&doc, &schemas, &source_rates, &topo_order);
    model::DeployGraph::build(&doc, &propagation.props, ctx.registry, ctx.topology, model)
        .peak_depth_bounds()
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
