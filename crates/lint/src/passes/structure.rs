//! Mapping of the accumulating validators' errors onto stable lint codes
//! (`SL001`–`SL008`). The structural checks themselves live in
//! `sl_dsn::validate_full` / the schema propagation in `crate::analysis`;
//! this module only attributes and classifies.

use crate::diag::{Diagnostic, LintCode};
use sl_dsn::DsnError;

/// Classify one structural DSN error.
pub(crate) fn classify(err: &DsnError) -> Diagnostic {
    match err {
        DsnError::DuplicateName(name) => {
            Diagnostic::new(LintCode::DuplicateName, name, err.to_string())
        }
        DsnError::UnknownInput { consumer, .. } => {
            Diagnostic::new(LintCode::UnknownInput, consumer, err.to_string())
        }
        DsnError::WrongArity { service, .. } => {
            Diagnostic::new(LintCode::WrongArity, service, err.to_string())
        }
        DsnError::Cycle { witness } => Diagnostic::new(LintCode::Cycle, witness, err.to_string()),
        DsnError::UnknownTriggerTarget { service, .. } => {
            Diagnostic::new(LintCode::BadTriggerTarget, service, err.to_string())
        }
        DsnError::UnknownChannelEndpoint(name) => {
            Diagnostic::new(LintCode::BadWiring, name, err.to_string())
        }
        DsnError::Invalid(msg) => {
            let code = if msg.contains("gated source") {
                LintCode::GatedNeverActivated
            } else {
                LintCode::BadWiring
            };
            match backticked(msg) {
                Some(name) => Diagnostic::new(code, name, err.to_string()),
                None => Diagnostic::global(code, err.to_string()),
            }
        }
        DsnError::Parse { .. } => {
            // Parse errors never reach validation; classify defensively.
            Diagnostic::global(LintCode::BadWiring, err.to_string())
        }
    }
}

/// Map every accumulated structural error.
pub(crate) fn from_dsn_errors(errors: &[DsnError], out: &mut Vec<Diagnostic>) {
    out.extend(errors.iter().map(classify));
}

/// A schema-resolution failure at one operator (`SL008`). The underlying
/// expression errors name the offending parameter and sub-expression.
pub(crate) fn schema_error(service: &str, err: &sl_ops::OpError) -> Diagnostic {
    Diagnostic::new(
        LintCode::SchemaError,
        service,
        format!("service `{service}`: {err}"),
    )
}

/// The first `-delimited name in a message, for node attribution.
fn backticked(msg: &str) -> Option<&str> {
    let start = msg.find('`')? + 1;
    let len = msg[start..].find('`')?;
    Some(&msg[start..start + len])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    #[test]
    fn errors_map_to_stable_codes_with_attribution() {
        let d = classify(&DsnError::DuplicateName("x".into()));
        assert_eq!(d.code, LintCode::DuplicateName);
        assert_eq!(d.node.as_deref(), Some("x"));
        assert_eq!(d.severity, Severity::Error);

        let d = classify(&DsnError::Invalid(
            "gated source `g` is never activated".into(),
        ));
        assert_eq!(d.code, LintCode::GatedNeverActivated);
        assert_eq!(d.node.as_deref(), Some("g"));

        let d = classify(&DsnError::Invalid("sink `s` has no inputs".into()));
        assert_eq!(d.code, LintCode::BadWiring);
    }
}
