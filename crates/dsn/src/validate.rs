//! Structural validation of DSN documents.
//!
//! These are the document-level halves of the "different checks in order to
//! draw only dataflows that can be soundly translated" (paper §3); the
//! schema-level checks live in `sl-dataflow::validate`, which runs *before*
//! translation. Validation here is what the SCN side re-checks on receipt
//! of a document (defence in depth: documents can also be authored by hand).
//!
//! Validation *accumulates*: [`validate_full`] runs every check and returns
//! all structural problems at once, so a designer fixing a hand-authored
//! document sees the complete picture rather than one error per round trip.
//! [`validate`] keeps the original fail-fast contract (first error wins) on
//! top of the same machinery.

use crate::ast::{DsnDocument, SourceMode};
use crate::error::DsnError;
use std::collections::{HashMap, HashSet};

/// The full outcome of structural validation: every problem found, plus the
/// topological service order when the dependency graph is well-formed.
#[derive(Debug, Clone, Default)]
pub struct DsnValidation {
    /// Every structural problem, in check order (names, inputs, arity,
    /// triggers, gating, channels, cycles).
    pub errors: Vec<DsnError>,
    /// Service names in a valid execution order; `None` when a cycle (or a
    /// dependency problem that prevents ordering) was found.
    pub topo_order: Option<Vec<String>>,
}

/// Validate a document's structure. Returns the service names in a valid
/// topological execution order, or the first structural error found.
pub fn validate(doc: &DsnDocument) -> Result<Vec<String>, DsnError> {
    let mut full = validate_full(doc);
    if full.errors.is_empty() {
        Ok(full.topo_order.take().unwrap_or_default())
    } else {
        Err(full.errors.remove(0))
    }
}

/// Run every structural check and collect all diagnostics.
pub fn validate_full(doc: &DsnDocument) -> DsnValidation {
    let mut errors = Vec::new();

    // 1. Unique names.
    let mut seen = HashSet::new();
    for name in doc.names() {
        if !seen.insert(name) {
            errors.push(DsnError::DuplicateName(name.to_string()));
        }
    }

    // 2. Every input references a declared source or service (not a sink).
    let producers: HashSet<&str> = doc
        .sources
        .iter()
        .map(|s| s.name.as_str())
        .chain(doc.services.iter().map(|s| s.name.as_str()))
        .collect();
    for svc in &doc.services {
        for input in &svc.inputs {
            if !producers.contains(input.as_str()) {
                errors.push(DsnError::UnknownInput {
                    consumer: svc.name.clone(),
                    input: input.clone(),
                });
            }
        }
        // 3. Arity.
        let expected = svc.spec.input_ports();
        if svc.inputs.len() != expected {
            errors.push(DsnError::WrongArity {
                service: svc.name.clone(),
                expected,
                found: svc.inputs.len(),
            });
        }
    }
    for sink in &doc.sinks {
        if sink.inputs.is_empty() {
            errors.push(DsnError::Invalid(format!(
                "sink `{}` has no inputs",
                sink.name
            )));
        }
        for input in &sink.inputs {
            if !producers.contains(input.as_str()) {
                errors.push(DsnError::UnknownInput {
                    consumer: sink.name.clone(),
                    input: input.clone(),
                });
            }
        }
    }

    // 4. Trigger targets reference declared sources.
    let source_names: HashSet<&str> = doc.sources.iter().map(|s| s.name.as_str()).collect();
    for svc in &doc.services {
        if let Some(targets) = svc.spec.trigger_targets() {
            for t in targets {
                if !source_names.contains(t.as_str()) {
                    errors.push(DsnError::UnknownTriggerTarget {
                        service: svc.name.clone(),
                        target: t.clone(),
                    });
                }
            }
        }
    }

    // 5. Gated sources must be targeted by some Trigger-On, otherwise they
    //    can never produce data.
    let mut activated: HashSet<&str> = HashSet::new();
    for svc in &doc.services {
        if let sl_ops::OpSpec::TriggerOn { targets, .. } = &svc.spec {
            for t in targets {
                activated.insert(t.as_str());
            }
        }
    }
    for src in &doc.sources {
        if src.mode == SourceMode::Gated && !activated.contains(src.name.as_str()) {
            errors.push(DsnError::Invalid(format!(
                "gated source `{}` is never activated by a trigger",
                src.name
            )));
        }
    }

    // 6. Channels connect declared names that form an actual edge.
    let edges: HashSet<(String, String)> = doc
        .edges()
        .into_iter()
        .map(|(from, to, _)| (from, to))
        .collect();
    for ch in &doc.channels {
        if !producers.contains(ch.from.as_str()) && doc.sink(&ch.from).is_none() {
            errors.push(DsnError::UnknownChannelEndpoint(ch.from.clone()));
        }
        if doc.service(&ch.to).is_none() && doc.sink(&ch.to).is_none() {
            errors.push(DsnError::UnknownChannelEndpoint(ch.to.clone()));
        } else if !edges.contains(&(ch.from.clone(), ch.to.clone())) {
            errors.push(DsnError::Invalid(format!(
                "channel {} -> {} does not correspond to a dataflow edge",
                ch.from, ch.to
            )));
        }
    }

    // 7. Acyclicity + topological order of services (Kahn's algorithm over
    //    service-to-service dependencies).
    let service_idx: HashMap<&str, usize> = doc
        .services
        .iter()
        .enumerate()
        .map(|(i, s)| (s.name.as_str(), i))
        .collect();
    let n = doc.services.len();
    let mut indegree = vec![0usize; n];
    let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, svc) in doc.services.iter().enumerate() {
        for input in &svc.inputs {
            if let Some(&j) = service_idx.get(input.as_str()) {
                dependents[j].push(i);
                indegree[i] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|i| indegree[*i] == 0).collect();
    queue.sort_unstable();
    let mut order = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let i = queue[head];
        head += 1;
        order.push(doc.services[i].name.clone());
        for &d in &dependents[i] {
            indegree[d] -= 1;
            if indegree[d] == 0 {
                queue.push(d);
            }
        }
    }
    let topo_order = if order.len() == n {
        Some(order)
    } else {
        let witness = doc
            .services
            .iter()
            .enumerate()
            .find(|(i, _)| indegree[*i] > 0)
            .map(|(_, s)| s.name.clone())
            .unwrap_or_default();
        errors.push(DsnError::Cycle { witness });
        None
    };

    DsnValidation { errors, topo_order }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ServiceDecl, SinkDecl, SinkKind, SourceDecl};
    use sl_ops::OpSpec;
    use sl_pubsub::SubscriptionFilter;
    use sl_stt::Duration;

    fn source(name: &str, mode: SourceMode) -> SourceDecl {
        SourceDecl {
            name: name.into(),
            filter: SubscriptionFilter::any(),
            mode,
        }
    }

    fn filter_svc(name: &str, input: &str) -> ServiceDecl {
        ServiceDecl {
            name: name.into(),
            spec: OpSpec::Filter {
                condition: "true".into(),
            },
            inputs: vec![input.into()],
        }
    }

    fn valid_doc() -> DsnDocument {
        let mut d = DsnDocument::new("t");
        d.sources.push(source("a", SourceMode::Active));
        d.services.push(filter_svc("f1", "a"));
        d.services.push(filter_svc("f2", "f1"));
        d.sinks.push(SinkDecl {
            name: "out".into(),
            kind: SinkKind::Console,
            inputs: vec!["f2".into()],
        });
        d
    }

    #[test]
    fn valid_document_passes_with_topo_order() {
        let order = validate(&valid_doc()).unwrap();
        assert_eq!(order, vec!["f1".to_string(), "f2".to_string()]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut d = valid_doc();
        d.sources.push(source("f1", SourceMode::Active));
        assert!(matches!(validate(&d), Err(DsnError::DuplicateName(_))));
    }

    #[test]
    fn unknown_input_rejected() {
        let mut d = valid_doc();
        d.services.push(filter_svc("f3", "ghost"));
        assert!(matches!(validate(&d), Err(DsnError::UnknownInput { .. })));
    }

    #[test]
    fn sink_cannot_feed_service() {
        let mut d = valid_doc();
        d.services.push(filter_svc("f3", "out"));
        assert!(matches!(validate(&d), Err(DsnError::UnknownInput { .. })));
    }

    #[test]
    fn join_arity_enforced() {
        let mut d = valid_doc();
        d.services.push(ServiceDecl {
            name: "j".into(),
            spec: OpSpec::Join {
                period: Duration::from_secs(1),
                predicate: "true".into(),
            },
            inputs: vec!["a".into()],
        });
        assert!(matches!(
            validate(&d),
            Err(DsnError::WrongArity {
                expected: 2,
                found: 1,
                ..
            })
        ));
    }

    #[test]
    fn cycle_detected() {
        let mut d = DsnDocument::new("c");
        d.sources.push(source("a", SourceMode::Active));
        d.services.push(ServiceDecl {
            name: "x".into(),
            spec: OpSpec::Join {
                period: Duration::from_secs(1),
                predicate: "true".into(),
            },
            inputs: vec!["a".into(), "y".into()],
        });
        d.services.push(filter_svc("y", "x"));
        assert!(matches!(validate(&d), Err(DsnError::Cycle { .. })));
    }

    #[test]
    fn trigger_target_must_be_source() {
        let mut d = valid_doc();
        d.services.push(ServiceDecl {
            name: "t".into(),
            spec: OpSpec::TriggerOn {
                period: Duration::from_secs(1),
                condition: "true".into(),
                targets: vec!["f1".into()], // service, not source
            },
            inputs: vec!["a".into()],
        });
        assert!(matches!(
            validate(&d),
            Err(DsnError::UnknownTriggerTarget { .. })
        ));
    }

    #[test]
    fn gated_source_needs_activator() {
        let mut d = valid_doc();
        d.sources.push(source("dormant", SourceMode::Gated));
        assert!(matches!(validate(&d), Err(DsnError::Invalid(_))));
        // Adding a Trigger-On naming it fixes the document.
        d.services.push(ServiceDecl {
            name: "trig".into(),
            spec: OpSpec::TriggerOn {
                period: Duration::from_secs(1),
                condition: "true".into(),
                targets: vec!["dormant".into()],
            },
            inputs: vec!["a".into()],
        });
        // `dormant` feeds nothing, which is allowed (acquisition only).
        assert!(validate(&d).is_ok());
    }

    #[test]
    fn channel_must_match_edge() {
        let mut d = valid_doc();
        d.channels.push(crate::ast::ChannelDecl {
            from: "a".into(),
            to: "f2".into(), // a feeds f1, not f2
            qos: Default::default(),
        });
        assert!(matches!(validate(&d), Err(DsnError::Invalid(_))));
        let mut d = valid_doc();
        d.channels.push(crate::ast::ChannelDecl {
            from: "ghost".into(),
            to: "f1".into(),
            qos: Default::default(),
        });
        assert!(matches!(
            validate(&d),
            Err(DsnError::UnknownChannelEndpoint(_))
        ));
    }

    #[test]
    fn empty_sink_rejected() {
        let mut d = valid_doc();
        d.sinks.push(SinkDecl {
            name: "empty".into(),
            kind: SinkKind::Console,
            inputs: vec![],
        });
        assert!(matches!(validate(&d), Err(DsnError::Invalid(_))));
    }

    #[test]
    fn validate_full_accumulates_every_problem() {
        let mut d = valid_doc();
        d.sources.push(source("f1", SourceMode::Active)); // duplicate name
        d.services.push(filter_svc("f3", "ghost")); // unknown input
        d.sinks.push(SinkDecl {
            name: "empty".into(),
            kind: SinkKind::Console,
            inputs: vec![],
        });
        let full = validate_full(&d);
        assert!(!full.errors.is_empty());
        assert!(
            full.errors.len() >= 3,
            "expected 3+ accumulated errors, got {:?}",
            full.errors
        );
        assert!(full
            .errors
            .iter()
            .any(|e| matches!(e, DsnError::DuplicateName(_))));
        assert!(full
            .errors
            .iter()
            .any(|e| matches!(e, DsnError::UnknownInput { .. })));
        assert!(full
            .errors
            .iter()
            .any(|e| matches!(e, DsnError::Invalid(_))));
        // The fail-fast API surfaces the first of them.
        assert!(matches!(validate(&d), Err(DsnError::DuplicateName(_))));
        // Ordering survives independent problems elsewhere in the document.
        assert!(full.topo_order.is_some());
    }

    #[test]
    fn validate_full_clean_document_reports_nothing() {
        let full = validate_full(&valid_doc());
        assert!(full.errors.is_empty());
        assert_eq!(
            full.topo_order.as_deref(),
            Some(&["f1".to_string(), "f2".to_string()][..])
        );
    }
}
