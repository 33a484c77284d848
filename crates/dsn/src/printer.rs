//! Canonical pretty-printer for DSN documents.
//!
//! The printer defines the *canonical form*: `parse(print(doc))` must yield
//! a structurally identical document (property-tested in
//! `tests/roundtrip.rs`). Expressions are embedded as single-quoted strings
//! using the expression language's own `''` escaping.

use crate::ast::{ChannelDecl, DsnDocument, ServiceDecl, SinkDecl, SourceDecl};
use sl_netsim::QosSpec;
use sl_ops::OpSpec;
use sl_pubsub::SubscriptionFilter;
use std::fmt::Write as _;

/// Render a document in canonical form.
pub fn print_document(doc: &DsnDocument) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "dsn \"{}\" {{", escape_dq(&doc.name));
    for s in &doc.sources {
        print_source(&mut out, s);
    }
    for s in &doc.services {
        print_service(&mut out, s);
    }
    for s in &doc.sinks {
        print_sink(&mut out, s);
    }
    for c in &doc.channels {
        print_channel(&mut out, c);
    }
    out.push_str("}\n");
    out
}

fn escape_dq(s: &str) -> String {
    s.replace('"', "\\\"")
}

/// Quote an expression / free text as a single-quoted DSN string.
fn q(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

fn print_source(out: &mut String, s: &SourceDecl) {
    let _ = writeln!(out, "  source {} {{", s.name);
    let _ = writeln!(out, "    filter: {};", print_filter(&s.filter));
    let _ = writeln!(out, "    mode: {};", s.mode);
    out.push_str("  }\n");
}

/// Render a subscription filter in DSN syntax.
pub fn print_filter(f: &SubscriptionFilter) -> String {
    if f.is_any() {
        return "any".into();
    }
    let mut parts: Vec<String> = Vec::new();
    if let Some(t) = &f.theme {
        parts.push(format!("theme={t}"));
    }
    if let Some(a) = &f.area {
        parts.push(format!(
            "area=({}, {})..({}, {})",
            a.min.lat, a.min.lon, a.max.lat, a.max.lon
        ));
    }
    if let Some(k) = f.kind {
        parts.push(format!("kind={k}"));
    }
    for (n, t) in &f.required_attrs {
        parts.push(format!("has {n}:{t}"));
    }
    if let Some(g) = &f.name_glob {
        parts.push(format!("name~{g}"));
    }
    if let Some(p) = f.max_period {
        parts.push(format!("period<={}", p.as_millis()));
    }
    for (n, u) in &f.required_units {
        parts.push(format!("unit {n}={u}"));
    }
    parts.join(" & ")
}

fn print_service(out: &mut String, s: &ServiceDecl) {
    let _ = writeln!(out, "  service {} {{", s.name);
    match &s.spec {
        OpSpec::Filter { condition } => {
            let _ = writeln!(out, "    op: filter;");
            let _ = writeln!(out, "    condition: {};", q(condition));
        }
        OpSpec::Transform { assignments } => {
            let _ = writeln!(out, "    op: transform;");
            let rendered: Vec<String> = assignments
                .iter()
                .map(|(a, e)| format!("{a} := {}", q(e)))
                .collect();
            let _ = writeln!(out, "    assign: {};", rendered.join(", "));
        }
        OpSpec::VirtualProperty { property, spec } => {
            let _ = writeln!(out, "    op: virtual_property;");
            let _ = writeln!(out, "    property: {property};");
            let _ = writeln!(out, "    spec: {};", q(spec));
        }
        OpSpec::CullTime { interval, rate } => {
            let _ = writeln!(out, "    op: cull_time;");
            let _ = writeln!(
                out,
                "    interval: {}..{};",
                interval.start.as_millis(),
                interval.end.as_millis()
            );
            let _ = writeln!(out, "    rate: {rate};");
        }
        OpSpec::CullSpace { area, rate } => {
            let _ = writeln!(out, "    op: cull_space;");
            let _ = writeln!(
                out,
                "    area: ({}, {})..({}, {});",
                area.min.lat, area.min.lon, area.max.lat, area.max.lon
            );
            let _ = writeln!(out, "    rate: {rate};");
        }
        OpSpec::Aggregate {
            period,
            group_by,
            func,
            attr,
            sliding,
        } => {
            let _ = writeln!(out, "    op: aggregate;");
            let _ = writeln!(out, "    period: {};", period.as_millis());
            if let Some(span) = sliding {
                let _ = writeln!(out, "    sliding: {};", span.as_millis());
            }
            if !group_by.is_empty() {
                let _ = writeln!(out, "    group_by: {};", group_by.join(", "));
            }
            let _ = writeln!(out, "    func: {func};");
            if let Some(a) = attr {
                let _ = writeln!(out, "    attr: {a};");
            }
        }
        OpSpec::Join { period, predicate } => {
            let _ = writeln!(out, "    op: join;");
            let _ = writeln!(out, "    period: {};", period.as_millis());
            let _ = writeln!(out, "    predicate: {};", q(predicate));
        }
        OpSpec::TriggerOn {
            period,
            condition,
            targets,
        } => {
            let _ = writeln!(out, "    op: trigger_on;");
            let _ = writeln!(out, "    period: {};", period.as_millis());
            let _ = writeln!(out, "    condition: {};", q(condition));
            let _ = writeln!(out, "    targets: {};", targets.join(", "));
        }
        OpSpec::TriggerOff {
            period,
            condition,
            targets,
        } => {
            let _ = writeln!(out, "    op: trigger_off;");
            let _ = writeln!(out, "    period: {};", period.as_millis());
            let _ = writeln!(out, "    condition: {};", q(condition));
            let _ = writeln!(out, "    targets: {};", targets.join(", "));
        }
    }
    let _ = writeln!(out, "    inputs: {};", s.inputs.join(", "));
    out.push_str("  }\n");
}

fn print_sink(out: &mut String, s: &SinkDecl) {
    let _ = writeln!(out, "  sink {} {{", s.name);
    let _ = writeln!(out, "    kind: {};", s.kind);
    let _ = writeln!(out, "    inputs: {};", s.inputs.join(", "));
    out.push_str("  }\n");
}

fn print_channel(out: &mut String, c: &ChannelDecl) {
    let _ = writeln!(out, "  channel {} -> {} {{", c.from, c.to);
    let _ = writeln!(out, "    qos: {};", print_qos(&c.qos));
    out.push_str("  }\n");
}

/// Render a QoS spec in DSN syntax.
pub fn print_qos(q: &QosSpec) -> String {
    if q.is_best_effort() {
        return "best-effort".into();
    }
    let mut parts = Vec::new();
    if let Some(l) = q.max_latency {
        parts.push(format!("latency<={}", l.as_millis()));
    }
    if let Some(b) = q.min_bandwidth_bps {
        parts.push(format!("bandwidth>={b}"));
    }
    parts.join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{SinkKind, SourceMode};
    use sl_stt::{Duration, Theme};

    #[test]
    fn prints_scenario_shaped_document() {
        let mut d = DsnDocument::new("osaka");
        d.sources.push(SourceDecl {
            name: "temperature".into(),
            filter: SubscriptionFilter::any()
                .with_theme(Theme::new("weather/temperature").unwrap()),
            mode: SourceMode::Active,
        });
        d.services.push(ServiceDecl {
            name: "hourly".into(),
            spec: OpSpec::Aggregate {
                period: Duration::from_hours(1),
                group_by: vec![],
                func: sl_ops::AggFunc::Avg,
                attr: Some("temperature".into()),
                sliding: None,
            },
            inputs: vec!["temperature".into()],
        });
        d.sinks.push(SinkDecl {
            name: "edw".into(),
            kind: SinkKind::Warehouse,
            inputs: vec!["hourly".into()],
        });
        let text = print_document(&d);
        assert!(text.starts_with("dsn \"osaka\" {"));
        assert!(text.contains("source temperature {"));
        assert!(text.contains("filter: theme=weather/temperature;"));
        assert!(text.contains("op: aggregate;"));
        assert!(text.contains("period: 3600000;"));
        assert!(text.contains("func: avg;"));
        assert!(text.contains("kind: warehouse;"));
        assert!(text.trim_end().ends_with('}'));
    }

    #[test]
    fn quoting_escapes_single_quotes() {
        assert_eq!(q("a = 'x'"), "'a = ''x'''");
    }

    #[test]
    fn qos_rendering() {
        assert_eq!(print_qos(&QosSpec::best_effort()), "best-effort");
        let q = QosSpec {
            max_latency: Some(Duration::from_millis(50)),
            ..QosSpec::best_effort()
        }
        .with_min_bandwidth(1000);
        assert_eq!(print_qos(&q), "latency<=50, bandwidth>=1000");
    }
}
