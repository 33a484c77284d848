//! Lowering DSN documents into SCN command sequences.
//!
//! "The network control protocol stack interprets the DSN description and
//! dynamically coordinates the network configurations" (paper §2). The
//! output of [`compile`] is the ordered list of [`ScnCommand`]s the
//! execution engine performs against the network substrate: bind sources to
//! sensors through the pub/sub layer, spawn one process per service, install
//! flows with the declared QoS, wire sinks, and gate dormant sources.

use crate::ast::{DsnDocument, SinkKind, SourceMode};
use crate::error::DsnError;
use crate::validate::validate;
use sl_netsim::QosSpec;
use sl_ops::OpSpec;
use sl_pubsub::SubscriptionFilter;
use std::fmt;

/// One actuation step on the programmable network.
#[derive(Debug, Clone)]
pub enum ScnCommand {
    /// Subscribe the named source to matching sensors.
    BindSource {
        /// Source name.
        source: String,
        /// Sensor filter.
        filter: SubscriptionFilter,
        /// False for gated sources (deployed dormant).
        active: bool,
    },
    /// Spawn an operator process for a service (placement is decided by the
    /// engine's placement policy at execution time).
    SpawnProcess {
        /// Service name.
        service: String,
        /// Operation it runs.
        spec: OpSpec,
        /// Producer names, in port order.
        inputs: Vec<String>,
    },
    /// Install a data flow between two deployed endpoints.
    InstallFlow {
        /// Producer name.
        from: String,
        /// Consumer name.
        to: String,
        /// Consumer input port.
        port: usize,
        /// Requested QoS.
        qos: QosSpec,
    },
    /// Configure a sink endpoint.
    ConfigureSink {
        /// Sink name.
        sink: String,
        /// Destination kind.
        kind: SinkKind,
    },
}

impl fmt::Display for ScnCommand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScnCommand::BindSource {
                source,
                filter,
                active,
            } => {
                write!(
                    f,
                    "BIND {source} <- [{filter}] {}",
                    if *active { "ACTIVE" } else { "GATED" }
                )
            }
            ScnCommand::SpawnProcess { service, spec, .. } => {
                write!(f, "SPAWN {service} := {spec}")
            }
            ScnCommand::InstallFlow {
                from,
                to,
                port,
                qos,
            } => {
                write!(f, "FLOW {from} -> {to}:{port} [{qos}]")
            }
            ScnCommand::ConfigureSink { sink, kind } => write!(f, "SINK {sink} ({kind})"),
        }
    }
}

/// A compiled SCN program.
#[derive(Debug, Clone, Default)]
pub struct ScnProgram {
    /// Dataflow name.
    pub name: String,
    /// Commands in execution order.
    pub commands: Vec<ScnCommand>,
}

impl ScnProgram {
    /// Render the program as the text shown in the demo's P2 step.
    pub fn listing(&self) -> String {
        let mut out = format!("scn program \"{}\"\n", self.name);
        for (i, c) in self.commands.iter().enumerate() {
            out.push_str(&format!("  {i:>3}. {c}\n"));
        }
        out
    }

    /// Count commands of each kind `(binds, spawns, flows, sinks)`.
    pub fn census(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for c in &self.commands {
            match c {
                ScnCommand::BindSource { .. } => counts.0 += 1,
                ScnCommand::SpawnProcess { .. } => counts.1 += 1,
                ScnCommand::InstallFlow { .. } => counts.2 += 1,
                ScnCommand::ConfigureSink { .. } => counts.3 += 1,
            }
        }
        counts
    }
}

/// Compile a document: validate, then emit commands in dependency order
/// (sources → services in topological order → sinks → flows).
pub fn compile(doc: &DsnDocument) -> Result<ScnProgram, DsnError> {
    let topo = validate(doc)?;
    let mut commands = Vec::new();
    for src in &doc.sources {
        commands.push(ScnCommand::BindSource {
            source: src.name.clone(),
            filter: src.filter.clone(),
            active: src.mode == SourceMode::Active,
        });
    }
    for svc in topo.iter().filter_map(|name| doc.service(name)) {
        commands.push(ScnCommand::SpawnProcess {
            service: svc.name.clone(),
            spec: svc.spec.clone(),
            inputs: svc.inputs.clone(),
        });
    }
    for sink in &doc.sinks {
        commands.push(ScnCommand::ConfigureSink {
            sink: sink.name.clone(),
            kind: sink.kind,
        });
    }
    for (from, to, port) in doc.edges() {
        commands.push(ScnCommand::InstallFlow {
            qos: doc.qos_for(&from, &to),
            from,
            to,
            port,
        });
    }
    Ok(ScnProgram {
        name: doc.name.clone(),
        commands,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{ServiceDecl, SinkDecl, SourceDecl};
    use sl_stt::Duration;

    fn doc() -> DsnDocument {
        let mut d = DsnDocument::new("scenario");
        d.sources.push(SourceDecl {
            name: "temp".into(),
            filter: SubscriptionFilter::any(),
            mode: SourceMode::Active,
        });
        d.sources.push(SourceDecl {
            name: "rain".into(),
            filter: SubscriptionFilter::any(),
            mode: SourceMode::Gated,
        });
        d.services.push(ServiceDecl {
            name: "trig".into(),
            spec: OpSpec::TriggerOn {
                period: Duration::from_secs(60),
                condition: "true".into(),
                targets: vec!["rain".into()],
            },
            inputs: vec!["agg".into()],
        });
        d.services.push(ServiceDecl {
            name: "agg".into(),
            spec: OpSpec::Aggregate {
                period: Duration::from_secs(60),
                group_by: vec![],
                func: sl_ops::AggFunc::Count,
                attr: None,
                sliding: None,
            },
            inputs: vec!["temp".into()],
        });
        d.sinks.push(SinkDecl {
            name: "edw".into(),
            kind: SinkKind::Warehouse,
            inputs: vec!["trig".into()],
        });
        d
    }

    #[test]
    fn compiles_in_dependency_order() {
        let prog = compile(&doc()).unwrap();
        assert_eq!(prog.name, "scenario");
        let kinds: Vec<&str> = prog
            .commands
            .iter()
            .map(|c| match c {
                ScnCommand::BindSource { .. } => "bind",
                ScnCommand::SpawnProcess { .. } => "spawn",
                ScnCommand::InstallFlow { .. } => "flow",
                ScnCommand::ConfigureSink { .. } => "sink",
            })
            .collect();
        // binds, then spawns, then sink configs, then flows.
        assert_eq!(
            kinds,
            vec!["bind", "bind", "spawn", "spawn", "sink", "flow", "flow", "flow"]
        );
        // Declaration order `trig, agg` is corrected to topological `agg, trig`.
        let spawns: Vec<&str> = prog
            .commands
            .iter()
            .filter_map(|c| match c {
                ScnCommand::SpawnProcess { service, .. } => Some(service.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(spawns, vec!["agg", "trig"]);
        assert_eq!(prog.census(), (2, 2, 3, 1));
    }

    #[test]
    fn gated_source_binds_inactive() {
        let prog = compile(&doc()).unwrap();
        let rain_bind = prog
            .commands
            .iter()
            .find_map(|c| match c {
                ScnCommand::BindSource { source, active, .. } if source == "rain" => Some(*active),
                _ => None,
            })
            .unwrap();
        assert!(!rain_bind);
    }

    #[test]
    fn invalid_document_fails_compile() {
        let mut d = doc();
        d.services[0].inputs = vec!["ghost".into()];
        assert!(compile(&d).is_err());
    }

    #[test]
    fn listing_is_readable() {
        let prog = compile(&doc()).unwrap();
        let listing = prog.listing();
        assert!(listing.contains("scn program \"scenario\""));
        assert!(listing.contains("BIND temp"));
        assert!(listing.contains("SPAWN agg"));
        assert!(listing.contains("SINK edw (warehouse)"));
        assert!(listing.contains("FLOW"));
    }
}
