//! # sl-expr — the StreamLoader expression language
//!
//! The Table-1 operations are parameterised by *conditions* and
//! *specifications*: Filter's `cond`, Join's `pred`, Trigger's `cond`,
//! Transform's `trans` and Virtual Property's `spec` (paper §3, Table 1).
//! StreamLoader exposes these to the user as a small expression language;
//! this crate implements it end to end:
//!
//! * [`lexer`] — tokenisation,
//! * [`ast`] / [`parser`] — syntax tree and a recursive-descent parser,
//! * [`typecheck()`] — static validation against a sensor [`Schema`], used by
//!   the dataflow validator to guarantee "sound translation" before
//!   deployment,
//! * [`eval()`] — tuple-at-a-time evaluation,
//! * [`functions`] — the builtin library: math, string matching, validation
//!   rules, unit and coordinate conversion, and the paper's running example
//!   `apparent_temperature(t, rh)`.
//!
//! ## Syntax overview
//!
//! ```text
//! temperature > 24 and humidity >= 60
//! apparent_temperature(temperature, humidity)
//! convert_unit(distance, 'yd', 'm')
//! station = right_station and abs(temperature - right_temperature) < 2
//! is_valid_date(when, 'YYYY-MM-DD')
//! ```
//!
//! Attribute names refer to the tuple's schema; the pseudo-attributes `_ts`,
//! `_lat`, `_lon`, `_theme` and `_sensor` expose the STT metadata.
//!
//! [`Schema`]: sl_stt::Schema

pub mod ast;
pub mod error;
pub mod eval;
pub mod functions;
pub mod lexer;
pub mod parser;
pub mod typecheck;

pub use ast::{BinOp, Expr, UnOp};
pub use error::ExprError;
pub use eval::{eval, eval_on_tuple, Bindings};
pub use parser::parse;
pub use typecheck::{typecheck, ExprType};

use sl_stt::{AttrType, Schema, SttError, Tuple, Value};

/// A parsed *and* schema-checked expression, ready for repeated evaluation.
///
/// This is the form operators hold at runtime: construction front-loads all
/// the parsing/typing work (and all the user-facing error reporting), so the
/// per-tuple path is a pure tree walk.
#[derive(Debug, Clone)]
pub struct CompiledExpr {
    expr: Expr,
    ty: ExprType,
    source: String,
}

impl CompiledExpr {
    /// Parse `source` and typecheck it against `schema`.
    pub fn compile(source: &str, schema: &Schema) -> Result<CompiledExpr, ExprError> {
        let expr = parse(source)?;
        let ty = typecheck(&expr, schema)?;
        Ok(CompiledExpr {
            expr,
            ty,
            source: source.to_string(),
        })
    }

    /// Compile and additionally require the result type to be boolean
    /// (filter/join/trigger conditions).
    pub fn compile_predicate(source: &str, schema: &Schema) -> Result<CompiledExpr, ExprError> {
        let compiled = Self::compile(source, schema)?;
        match compiled.ty {
            ExprType::Exact(AttrType::Bool) | ExprType::Null => Ok(compiled),
            ExprType::Exact(other) => Err(ExprError::NotAPredicate(other)),
        }
    }

    /// The static result type.
    pub fn result_type(&self) -> ExprType {
        self.ty
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The underlying AST.
    pub fn expr(&self) -> &Expr {
        &self.expr
    }

    /// Evaluate against a tuple.
    pub fn eval(&self, tuple: &Tuple) -> Result<Value, ExprError> {
        eval_on_tuple(&self.expr, tuple)
    }

    /// Evaluate as a predicate: null counts as *false* (SQL-like semantics —
    /// a tuple with missing data does not satisfy a condition).
    pub fn eval_predicate(&self, tuple: &Tuple) -> Result<bool, ExprError> {
        match self.eval(tuple)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(ExprError::Stt(SttError::TypeMismatch {
                expected: "Bool".into(),
                found: other.type_name().into(),
            })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_stt::{Field, GeoPoint, SensorId, SttMeta, Theme, Timestamp};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("temperature", AttrType::Float),
            Field::new("humidity", AttrType::Float),
            Field::new("station", AttrType::Str),
        ])
        .unwrap()
    }

    fn tuple(temp: f64, hum: f64) -> Tuple {
        Tuple::new(
            schema().into_ref(),
            vec![
                Value::Float(temp),
                Value::Float(hum),
                Value::Str("osaka-1".into()),
            ],
            SttMeta::new(
                Timestamp::from_secs(1000),
                GeoPoint::new_unchecked(34.69, 135.5),
                Theme::new("weather/temperature").unwrap(),
                SensorId(3),
            ),
        )
        .unwrap()
    }

    #[test]
    fn compile_and_eval_scenario_condition() {
        // The paper's trigger: temperature above 25 °C.
        let c = CompiledExpr::compile_predicate("temperature > 25", &schema()).unwrap();
        assert!(c.eval_predicate(&tuple(26.0, 50.0)).unwrap());
        assert!(!c.eval_predicate(&tuple(24.0, 50.0)).unwrap());
    }

    #[test]
    fn predicate_requires_bool() {
        assert!(CompiledExpr::compile_predicate("temperature + 1", &schema()).is_err());
        assert!(CompiledExpr::compile_predicate("temperature > 25", &schema()).is_ok());
    }

    #[test]
    fn compile_rejects_unknown_attribute() {
        assert!(CompiledExpr::compile("wind > 3", &schema()).is_err());
    }

    #[test]
    fn apparent_temperature_virtual_property() {
        let c = CompiledExpr::compile("apparent_temperature(temperature, humidity)", &schema())
            .unwrap();
        let v = c.eval(&tuple(30.0, 70.0)).unwrap();
        let at = v.as_f64().unwrap();
        // Hot humid day feels hotter than the dry-bulb temperature.
        assert!(at > 30.0, "apparent temperature {at}");
    }

    #[test]
    fn null_predicate_is_false() {
        let s = Schema::new(vec![Field::new("x", AttrType::Float)]).unwrap();
        let t = Tuple::new(
            s.clone().into_ref(),
            vec![Value::Null],
            SttMeta::without_location(Timestamp::EPOCH, Theme::unclassified(), SensorId(0)),
        )
        .unwrap();
        let c = CompiledExpr::compile_predicate("x > 0", &s).unwrap();
        assert!(!c.eval_predicate(&t).unwrap());
    }

    /// One expression per way of nesting — brackets, a sum inside each
    /// bracket, an operator chain, `not`, `-` and calls — each `n` deep.
    fn nested(n: usize) -> [String; 6] {
        let x = "temperature";
        [
            format!("{}{x}{}", "(".repeat(n), ")".repeat(n)),
            format!("{}{x}{}", "(".repeat(n - 1), " + 1)".repeat(n - 1)),
            vec![x; n].join(" + "),
            format!("{}true", "not ".repeat(n - 1)),
            format!("{}{x}", "-".repeat(n - 1)),
            format!("{}{x}{}", "abs(".repeat(n - 1), ")".repeat(n - 1)),
        ]
    }

    #[test]
    fn nesting_at_the_limit_runs_on_a_small_stack() {
        let run = || {
            for src in nested(parser::MAX_DEPTH) {
                let c = CompiledExpr::compile(&src, &schema()).unwrap();
                c.eval(&tuple(20.0, 50.0)).unwrap();
                assert_eq!(&parse(&c.expr().to_string()).unwrap(), c.expr());
            }
        };
        let small = std::thread::Builder::new().stack_size(2 << 20);
        small.spawn(run).unwrap().join().unwrap();
    }

    #[test]
    fn nesting_past_the_limit_is_a_syntax_error() {
        for n in [parser::MAX_DEPTH + 1, 100_000] {
            for src in nested(n) {
                assert!(
                    matches!(parse(&src), Err(ExprError::Syntax { .. })),
                    "{n} deep: {}…",
                    &src[..40]
                );
            }
        }
    }

    #[test]
    fn meta_pseudo_attributes() {
        let c = CompiledExpr::compile_predicate("_lat > 34 and _lon < 136", &schema()).unwrap();
        assert!(c.eval_predicate(&tuple(20.0, 50.0)).unwrap());
        let c = CompiledExpr::compile("_theme", &schema()).unwrap();
        assert_eq!(
            c.eval(&tuple(20.0, 50.0)).unwrap(),
            Value::Str("weather/temperature".into())
        );
    }
}
