//! The diagnostics framework: stable lint codes, severities, and the
//! accumulated report.
//!
//! Codes are grouped by decade — `SL00x` structural, `SL01x` granularity,
//! `SL02x` boundedness, `SL03x` rate/volume, `SL04x` dead code — and are
//! stable identifiers: tooling (and DESIGN.md) may reference them by name.

use sl_obs::json;
use std::collections::BTreeSet;
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Worth knowing; the dataflow is still sound.
    Info,
    /// Almost certainly a mistake; deployment proceeds but will misbehave.
    Warning,
    /// The dataflow cannot be soundly activated (paper §1's consistency gate).
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

macro_rules! lint_codes {
    ($( $variant:ident = ($code:literal, $sev:ident, $title:literal), )*) => {
        /// A stable lint code.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum LintCode {
            $(
                #[doc = $title]
                $variant,
            )*
        }

        impl LintCode {
            /// Every code, in numeric order.
            pub const ALL: &'static [LintCode] = &[$(LintCode::$variant),*];

            /// The stable `SL0xx` identifier.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(LintCode::$variant => $code,)*
                }
            }

            /// The code's default severity.
            pub fn severity(self) -> Severity {
                match self {
                    $(LintCode::$variant => Severity::$sev,)*
                }
            }

            /// One-line description of what the code means.
            pub fn title(self) -> &'static str {
                match self {
                    $(LintCode::$variant => $title,)*
                }
            }
        }
    };
}

lint_codes! {
    // SL00x — structural consistency (the paper §3 "checks in order to draw
    // only dataflows that can be soundly translated").
    DuplicateName = ("SL001", Error, "duplicate declaration name"),
    UnknownInput = ("SL002", Error, "input references a name that is not a producer"),
    WrongArity = ("SL003", Error, "operator consumes the wrong number of streams"),
    Cycle = ("SL004", Error, "dataflow contains a dependency cycle"),
    BadTriggerTarget = ("SL005", Error, "trigger targets a name that is not a source"),
    GatedNeverActivated = ("SL006", Error, "gated source is never activated by a trigger-on"),
    BadWiring = ("SL007", Error, "malformed sink or channel wiring"),
    SchemaError = ("SL008", Error, "expression or schema error at an operator"),
    NoSchema = ("SL009", Info, "source schema unknown; schema-dependent passes skipped"),
    // SL01x — STT granularity consistency (paper §2).
    IncomparableGranularity = ("SL010", Warning, "join composes incomparable temporal granularities"),
    MisalignedAggregation = ("SL011", Warning, "aggregation window does not align with input granularity"),
    SpatialCollapse = ("SL012", Info, "ungrouped aggregation collapses spatial granularity"),
    MixedGranularityJoin = ("SL013", Info, "join composes streams at different temporal granularities"),
    // SL02x — boundedness of blocking-operator caches.
    WindowGap = ("SL020", Warning, "sliding window span shorter than its evaluation period"),
    UnconstrainedJoin = ("SL021", Warning, "join predicate leaves one side unconstrained"),
    UnboundedCache = ("SL022", Warning, "blocking-operator cache exceeds the tuple budget"),
    // SL03x — rate/volume feasibility against the target network.
    UnsatisfiableQos = ("SL030", Warning, "channel QoS cannot be satisfied by any link"),
    LinkOverload = ("SL031", Warning, "estimated stream volume exceeds link capacity"),
    CpuOverload = ("SL032", Warning, "estimated operator demand exceeds cluster capacity"),
    SilentSource = ("SL033", Warning, "source filter matches no advertised sensors"),
    UnmitigatedOverload = ("SL034", Warning, "sensor rates exceed operator capacity with no overload policy"),
    // SL04x — dead code.
    DeadEnd = ("SL040", Warning, "operator output reaches no sink or trigger"),
    RedundantTrigger = ("SL041", Warning, "trigger-on activates an already-active source"),
    UnusedProperty = ("SL042", Warning, "virtual property is never used downstream"),
    AlwaysFalse = ("SL043", Warning, "predicate is constantly false"),
    AlwaysTrue = ("SL044", Info, "filter predicate is constantly true"),
    // SL05x — deployment concurrency: activation liveness and the
    // credit-based backpressure layer (DESIGN.md §5g). Warnings, not
    // errors: the validator accepts these documents; they misbehave only
    // under the analyzed engine configuration.
    ActivationDeadlock = ("SL050", Warning, "gated sources form an activation cycle no trigger can break"),
    IneffectiveBackpressure = ("SL051", Warning, "Block policy cannot absorb a blocking producer's tick burst"),
    SharedCreditStarvation = ("SL052", Warning, "sources share sensors, so Block throttling one starves the other"),
    LossyBlockPreemption = ("SL053", Warning, "global-capacity preemption sheds despite the Block policy"),
    // SL06x — shard safety under `parallelism > 1` (DESIGN.md §5f).
    FruitlessParallelism = ("SL060", Warning, "parallelism configured but no operator is shardable"),
    OrderSensitiveMerge = ("SL061", Warning, "order-sensitive operator downstream of a merge under parallelism"),
    SpaceShardWithoutLocation = ("SL062", Warning, "Space shard key with unlocated sensors degrades to sensor hashing"),
    ShardSkew = ("SL063", Warning, "fewer distinct bound sensors than shard workers"),
    // SL07x — recovery coverage under the analyzed fault plan. SL070 is
    // retired (it warned about a checkpoint switch the engine no longer
    // has) and is never reused.
    VolatileCheckpoints = ("SL071", Warning, "checkpoints kept only in memory under a crash plan"),
    BreakerRetryConflict = ("SL072", Warning, "breaker opens mid-retry and outlives the remaining backoff budget"),
    // SL08x — worst-case resource bounds (abstract interpretation of
    // advertised rates against the overload-control configuration).
    UnboundedQueueGrowth = ("SL080", Warning, "ingress queue grows without bound at advertised rates"),
    PeakMemoryExceedsBudget = ("SL081", Warning, "predicted peak memory exceeds the configured budget"),
    TickBurstOverflow = ("SL082", Warning, "blocking producer's tick burst overflows the bounded queue"),
    DlqUndershoot = ("SL083", Warning, "predicted burst shedding exceeds dead-letter capacity"),

    // SL09x — continuous queries (live sl-cq registrations checked
    // against the session's engine configuration).
    UnboundedViewGrowth = ("SL090", Warning, "materialized view with unbounded time range and no retention horizon"),
    UnboundedSubscriberQueue = ("SL091", Warning, "unbounded subscriber queue while ingress admission control is on"),
    CompactionDisabled = ("SL092", Warning, "retention configured but cold-tier compaction disabled on a durable deployment"),
}

impl fmt::Display for LintCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a coded, severity-ranked message attributed to a dataflow
/// node and (when the document form is available) a DSN source line.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The stable code.
    pub code: LintCode,
    /// Severity (defaults to the code's).
    pub severity: Severity,
    /// The node (source/service/sink) or channel the finding is about, when
    /// attributable.
    pub node: Option<String>,
    /// 1-based line of the node's declaration in the canonical DSN text.
    pub dsn_line: Option<usize>,
    /// Human-readable explanation, including the remedy where one exists.
    pub message: String,
}

impl Diagnostic {
    /// A diagnostic at the code's default severity, attributed to `node`.
    pub fn new(code: LintCode, node: impl Into<String>, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            node: Some(node.into()),
            dsn_line: None,
            message: message.into(),
        }
    }

    /// A diagnostic about the document as a whole.
    pub fn global(code: LintCode, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            code,
            severity: code.severity(),
            node: None,
            dsn_line: None,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)?;
        if let Some(node) = &self.node {
            write!(f, "\n  --> `{node}`")?;
            if let Some(line) = self.dsn_line {
                write!(f, " (dsn line {line})")?;
            }
        }
        Ok(())
    }
}

/// Every finding from one lint run, ordered worst-first.
#[derive(Debug, Clone, Default)]
pub struct LintReport {
    /// The dataflow name (the DSN document name).
    pub dataflow: String,
    /// All findings, sorted by severity (errors first), then code.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Build a report, sorting findings worst-first (then by code and site).
    pub fn new(dataflow: impl Into<String>, mut diagnostics: Vec<Diagnostic>) -> LintReport {
        diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then(a.code.cmp(&b.code))
                .then(a.node.cmp(&b.node))
        });
        LintReport {
            dataflow: dataflow.into(),
            diagnostics,
        }
    }

    /// Findings at exactly this severity.
    pub fn at(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }

    /// Number of errors.
    pub fn error_count(&self) -> usize {
        self.at(Severity::Error).count()
    }

    /// Number of warnings.
    pub fn warning_count(&self) -> usize {
        self.at(Severity::Warning).count()
    }

    /// True when the report has no errors and no warnings (infos allowed) —
    /// the bar the bundled examples are held to.
    pub fn is_clean(&self) -> bool {
        self.error_count() == 0 && self.warning_count() == 0
    }

    /// True when at least one finding carries this code.
    pub fn has(&self, code: LintCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The distinct codes present.
    pub fn codes(&self) -> BTreeSet<LintCode> {
        self.diagnostics.iter().map(|d| d.code).collect()
    }

    /// Render the report as one line of JSON with the stable schema the
    /// `sl-lint --format json` contract documents:
    ///
    /// ```json
    /// {"dataflow": "...",
    ///  "summary": {"errors": 0, "warnings": 0, "infos": 0},
    ///  "diagnostics": [{"code": "SL0xx", "severity": "...",
    ///                   "node": "..."|null, "span": {"line": 1}|null,
    ///                   "message": "..."}]}
    /// ```
    ///
    /// Field order, names, and the `null` encodings are stable; CI tooling
    /// may parse this without a version guard.
    pub fn to_json(&self) -> String {
        let quoted = |s: &str| {
            let mut out = String::with_capacity(s.len() + 2);
            json::write_str(&mut out, s);
            out
        };
        let mut out = String::new();
        out.push_str(&format!(
            "{{\"dataflow\":{},\"summary\":{{\"errors\":{},\"warnings\":{},\"infos\":{}}},\"diagnostics\":[",
            quoted(&self.dataflow),
            self.error_count(),
            self.warning_count(),
            self.diagnostics.len() - self.error_count() - self.warning_count(),
        ));
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let node = d.node.as_deref().map_or_else(|| "null".to_string(), quoted);
            let span = match d.dsn_line {
                Some(line) => format!("{{\"line\":{line}}}"),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"code\":\"{}\",\"severity\":\"{}\",\"node\":{node},\"span\":{span},\"message\":{}}}",
                d.code,
                d.severity,
                quoted(&d.message),
            ));
        }
        out.push_str("]}");
        out
    }

    /// Render the whole report in `rustc` style, with a one-line summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        let (e, w) = (self.error_count(), self.warning_count());
        let i = self.diagnostics.len() - e - w;
        out.push_str(&format!(
            "{}: {e} error(s), {w} warning(s), {i} info(s)\n",
            self.dataflow
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for c in LintCode::ALL {
            assert!(c.as_str().starts_with("SL0"), "{c}");
            assert_eq!(c.as_str().len(), 5, "{c}");
            assert!(seen.insert(c.as_str()), "duplicate code {c}");
            assert!(!c.title().is_empty());
        }
        assert!(LintCode::ALL.len() >= 8);
    }

    #[test]
    fn report_sorts_errors_first_and_counts() {
        let report = LintReport::new(
            "t",
            vec![
                Diagnostic::new(LintCode::AlwaysTrue, "f", "noop"),
                Diagnostic::new(LintCode::DuplicateName, "x", "dup"),
                Diagnostic::new(LintCode::WindowGap, "w", "gap"),
            ],
        );
        assert_eq!(report.diagnostics[0].code, LintCode::DuplicateName);
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.warning_count(), 1);
        assert!(!report.is_clean());
        assert!(report.has(LintCode::WindowGap));
        assert!(report.render().contains("error[SL001]"));
    }

    #[test]
    fn json_schema_is_stable() {
        let mut d = Diagnostic::new(LintCode::WindowGap, "w\"in", "a \"gap\"\nhere");
        d.dsn_line = Some(7);
        let report = LintReport::new("t", vec![d, Diagnostic::global(LintCode::NoSchema, "n")]);
        let json = report.to_json();
        assert_eq!(
            json,
            "{\"dataflow\":\"t\",\"summary\":{\"errors\":0,\"warnings\":1,\"infos\":1},\
             \"diagnostics\":[\
             {\"code\":\"SL020\",\"severity\":\"warning\",\"node\":\"w\\\"in\",\
             \"span\":{\"line\":7},\"message\":\"a \\\"gap\\\"\\nhere\"},\
             {\"code\":\"SL009\",\"severity\":\"info\",\"node\":null,\
             \"span\":null,\"message\":\"n\"}]}"
        );
    }

    #[test]
    fn json_escape_controls() {
        let json = LintReport::new("a\tb\u{1}", vec![]).to_json();
        assert!(
            json.starts_with("{\"dataflow\":\"a\\tb\\u0001\","),
            "{json}"
        );
    }

    #[test]
    fn info_only_report_is_clean() {
        let report = LintReport::new(
            "t",
            vec![Diagnostic::global(LintCode::NoSchema, "no schema")],
        );
        assert!(report.is_clean());
        assert_eq!(report.codes().len(), 1);
    }
}
