//! `sl-lint` — lint DSN dataflow documents from the command line.
//!
//! ```sh
//! sl-lint [--deny-warnings] [--nict] [--format text|json]
//!         [--config FILE] [--fault-plan FILE] FILE...
//! ```
//!
//! Each file is parsed as a DSN document; source schemas are inferred from
//! `has name:type` filter clauses (sources without them get an `SL009` note
//! and schema-dependent checks are skipped). `--nict` additionally checks
//! rate/QoS feasibility against the paper's NICT testbed topology. Pass `-`
//! to read a document from stdin.
//!
//! `--config` attaches an engine deployment description (`key = value`
//! lines, see `sl_lint::deployfile`) and enables the deployment analysis
//! tier (`SL050`–`SL083`); `--fault-plan` additionally attaches a chaos
//! schedule so the recovery and burst-resource checks run.
//!
//! Exit status (the CI contract): `0` — every document clean (no errors,
//! and no warnings under `--deny-warnings`); `1` — diagnostics at or above
//! the failing threshold; `2` — usage, I/O, or config/plan parse problems.

use sl_lint::{lint_document, DeployModel, LintContext, Severity};
use sl_stt::{Field, Schema, SchemaRef};
use std::collections::HashMap;
use std::io::Read as _;
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: sl-lint [--deny-warnings] [--nict] [--format text|json] \
[--config FILE] [--fault-plan FILE] FILE...";

const HELP: &str = "\
lint DSN dataflow documents; `-` reads from stdin

options:
  --deny-warnings     fail (exit 1) on warnings, not just errors
  --nict              check rate/QoS feasibility against the NICT testbed
  --format text|json  report format (default text)
  --config FILE       engine deployment description (`key = value` lines:
                      queue_capacity, policy, global_capacity, parallelism,
                      shard_key, durable, retention_ms, compaction,
                      retry_attempts, breaker, breaker_threshold,
                      breaker_cooldown_ms, dlq_capacity); enables the
                      deployment tier SL050-SL092
  --fault-plan FILE   chaos schedule (one verb per line: crash, restart,
                      flap, stall, burst); enables recovery/burst checks

json schema (one object per document, stable across releases):
  {\"dataflow\": str,
   \"summary\": {\"errors\": int, \"warnings\": int, \"infos\": int},
   \"diagnostics\": [{\"code\": \"SL0xx\", \"severity\": \"error|warning|info\",
                    \"node\": str|null, \"span\": {\"line\": int}|null,
                    \"message\": str}]}

exit status: 0 clean; 1 errors (or warnings with --deny-warnings);
             2 usage, I/O, or config/plan parse problems";

fn main() -> ExitCode {
    let mut deny_warnings = false;
    let mut nict = false;
    let mut json = false;
    let mut config_file: Option<String> = None;
    let mut plan_file: Option<String> = None;
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny-warnings" => deny_warnings = true,
            "--nict" => nict = true,
            "--format" => match args.next().as_deref() {
                Some("text") => json = false,
                Some("json") => json = true,
                other => {
                    eprintln!(
                        "sl-lint: --format takes `text` or `json`, got `{}`",
                        other.unwrap_or("nothing")
                    );
                    return ExitCode::from(2);
                }
            },
            "--config" => match args.next() {
                Some(f) => config_file = Some(f),
                None => {
                    eprintln!("sl-lint: --config needs a file");
                    return ExitCode::from(2);
                }
            },
            "--fault-plan" => match args.next() {
                Some(f) => plan_file = Some(f),
                None => {
                    eprintln!("sl-lint: --fault-plan needs a file");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                println!("{HELP}");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with("--") => {
                eprintln!("sl-lint: unknown flag `{flag}` (try --help)");
                return ExitCode::from(2);
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }

    // The deployment model, when a config is attached. A fault plan
    // without a config runs against the default engine configuration.
    let spec = match &config_file {
        Some(f) => match std::fs::read_to_string(f).map_err(|e| e.to_string()) {
            Ok(text) => match sl_lint::deployfile::parse_deploy_config(&text) {
                Ok(spec) => {
                    if let Err(e) = spec.config.validate() {
                        eprintln!("sl-lint: {f}: invalid engine config: {e}");
                        return ExitCode::from(2);
                    }
                    Some(spec)
                }
                Err(e) => {
                    eprintln!("sl-lint: {f}: {e}");
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("sl-lint: {f}: {e}");
                return ExitCode::from(2);
            }
        },
        None => plan_file.as_ref().map(|_| sl_lint::DeploySpec::default()),
    };
    let plan = match &plan_file {
        Some(f) => match std::fs::read_to_string(f).map_err(|e| e.to_string()) {
            Ok(text) => match sl_lint::deployfile::parse_fault_plan(&text) {
                Ok(plan) => Some(plan),
                Err(e) => {
                    eprintln!("sl-lint: {f}: {e}");
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("sl-lint: {f}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let topology = nict.then(sl_netsim::Topology::nict_testbed);
    let ctx = LintContext {
        topology: topology.as_ref(),
        engine: spec.as_ref().map(|spec| &spec.config),
        ..LintContext::default()
    };
    let model = spec.as_ref().map(|spec| DeployModel {
        config: &spec.config,
        fault_plan: plan.as_ref(),
        durable: spec.durable,
        compaction: spec.compaction,
    });

    let mut failed = false;
    for file in &files {
        let text = match read_input(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("sl-lint: {file}: {e}");
                return ExitCode::from(2);
            }
        };
        let doc = match sl_dsn::parse_document(&text) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("{file}: parse error: {e}");
                failed = true;
                continue;
            }
        };
        let report = lint_document(&doc, &inferred_schemas(&doc), &ctx, model.as_ref());
        if json {
            println!("{}", report.to_json());
        } else {
            print!("{}", report.render());
        }
        if report.error_count() > 0
            || (deny_warnings && report.at(Severity::Warning).next().is_some())
        {
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn read_input(file: &str) -> std::io::Result<String> {
    if file == "-" {
        let mut text = String::new();
        std::io::stdin().read_to_string(&mut text)?;
        Ok(text)
    } else {
        std::fs::read_to_string(file)
    }
}

/// Schemas declared through `has name:type` filter clauses.
fn inferred_schemas(doc: &sl_dsn::DsnDocument) -> HashMap<String, SchemaRef> {
    let mut schemas = HashMap::new();
    for src in &doc.sources {
        if src.filter.required_attrs.is_empty() {
            continue;
        }
        let fields = src
            .filter
            .required_attrs
            .iter()
            .map(|(n, t)| Field::new(n, *t))
            .collect();
        match Schema::new(fields) {
            Ok(schema) => {
                let schema: SchemaRef = Arc::new(schema);
                schemas.insert(src.name.clone(), schema);
            }
            Err(e) => {
                eprintln!("{}: source `{}`: bad schema: {e}", doc.name, src.name);
            }
        }
    }
    schemas
}
