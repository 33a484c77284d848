//! Tuple-at-a-time expression evaluation.
//!
//! Evaluation is strict and null-propagating, matching the semantics defined
//! by [`crate::functions`]: any operand of an arithmetic/comparison operator
//! being null makes the result null, while `and`/`or` use three-valued logic
//! (`false and null = false`, `true or null = true`) so that partially
//! missing sensor data filters predictably.

use crate::ast::{BinOp, Expr, UnOp};
use crate::error::ExprError;
use crate::functions;
use sl_stt::{Tuple, Value};

/// Source of attribute values during evaluation.
///
/// Implemented by [`Tuple`] (schema attributes + STT metadata
/// pseudo-attributes) and by test fixtures.
pub trait Bindings {
    /// The value bound to `name`, or an error if the name is unknown.
    fn lookup(&self, name: &str) -> Result<Value, ExprError>;
}

impl Bindings for Tuple {
    fn lookup(&self, name: &str) -> Result<Value, ExprError> {
        match name {
            "_ts" => Ok(Value::Time(self.meta.timestamp)),
            "_lat" => Ok(self
                .meta
                .location
                .map_or(Value::Null, |p| Value::Float(p.lat))),
            "_lon" => Ok(self
                .meta
                .location
                .map_or(Value::Null, |p| Value::Float(p.lon))),
            "_theme" => Ok(Value::Str(self.meta.theme.as_str().to_string())),
            "_sensor" => Ok(Value::Int(self.meta.sensor.0 as i64)),
            _ => self.get(name).cloned().map_err(ExprError::from),
        }
    }
}

/// Evaluate `expr` against a tuple.
pub fn eval_on_tuple(expr: &Expr, tuple: &Tuple) -> Result<Value, ExprError> {
    eval(expr, tuple)
}

/// Evaluate `expr` against any [`Bindings`].
pub fn eval(expr: &Expr, env: &dyn Bindings) -> Result<Value, ExprError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Attr(name) => env.lookup(name),
        Expr::Unary { op, expr } => {
            let v = eval(expr, env)?;
            match (op, v) {
                (_, Value::Null) => Ok(Value::Null),
                (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(-i)),
                (UnOp::Neg, Value::Float(x)) => Ok(Value::Float(-x)),
                (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                (op, v) => Err(ExprError::Type {
                    message: format!("cannot apply {op:?} to a {} at runtime", v.type_name()),
                }),
            }
        }
        Expr::Binary { op, left, right } => match op {
            BinOp::And => {
                // Three-valued logic with short-circuit.
                match eval(left, env)? {
                    Value::Bool(false) => Ok(Value::Bool(false)),
                    Value::Bool(true) => eval_bool3(right, env),
                    Value::Null => match eval_bool3(right, env)? {
                        Value::Bool(false) => Ok(Value::Bool(false)),
                        _ => Ok(Value::Null),
                    },
                    v => Err(type_err("and", &v)),
                }
            }
            BinOp::Or => match eval(left, env)? {
                Value::Bool(true) => Ok(Value::Bool(true)),
                Value::Bool(false) => eval_bool3(right, env),
                Value::Null => match eval_bool3(right, env)? {
                    Value::Bool(true) => Ok(Value::Bool(true)),
                    _ => Ok(Value::Null),
                },
                v => Err(type_err("or", &v)),
            },
            _ => {
                let l = eval(left, env)?;
                let r = eval(right, env)?;
                eval_binop(*op, l, r)
            }
        },
        Expr::Call { function, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval(a, env)?);
            }
            functions::call(function, &vals)
        }
    }
}

fn eval_bool3(expr: &Expr, env: &dyn Bindings) -> Result<Value, ExprError> {
    match eval(expr, env)? {
        v @ (Value::Bool(_) | Value::Null) => Ok(v),
        v => Err(type_err("boolean operator", &v)),
    }
}

fn type_err(what: &str, v: &Value) -> ExprError {
    ExprError::Type {
        message: format!("{what} applied to a {} at runtime", v.type_name()),
    }
}

fn eval_binop(op: BinOp, l: Value, r: Value) -> Result<Value, ExprError> {
    use BinOp::*;
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    match op {
        Eq => Ok(Value::Bool(l.loose_eq(&r))),
        Ne => Ok(Value::Bool(!l.loose_eq(&r))),
        Lt | Le | Gt | Ge => {
            let ord = match (&l, &r) {
                // Only same-class orderings are allowed (the type checker
                // enforces this; the runtime double-checks for safety).
                (Value::Str(a), Value::Str(b)) => a.cmp(b),
                (Value::Time(a), Value::Time(b)) => a.cmp(b),
                (a, b) => match (a.as_f64(), b.as_f64()) {
                    (Ok(x), Ok(y)) => x.total_cmp(&y),
                    _ => {
                        return Err(ExprError::Type {
                            message: format!(
                                "cannot order {} against {}",
                                a.type_name(),
                                b.type_name()
                            ),
                        })
                    }
                },
            };
            let b = match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        Add => match (&l, &r) {
            (Value::Str(a), Value::Str(b)) => {
                let mut s = String::with_capacity(a.len() + b.len());
                s.push_str(a);
                s.push_str(b);
                Ok(Value::Str(s))
            }
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_add(*b))),
            _ => Ok(Value::Float(l.as_f64()? + r.as_f64()?)),
        },
        Sub => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_sub(*b))),
            _ => Ok(Value::Float(l.as_f64()? - r.as_f64()?)),
        },
        Mul => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_mul(*b))),
            _ => Ok(Value::Float(l.as_f64()? * r.as_f64()?)),
        },
        Div => {
            let d = r.as_f64()?;
            if d == 0.0 {
                return Err(ExprError::DivisionByZero);
            }
            Ok(Value::Float(l.as_f64()? / d))
        }
        Mod => match (&l, &r) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(ExprError::DivisionByZero)
                } else {
                    Ok(Value::Int(a.rem_euclid(*b)))
                }
            }
            _ => {
                let d = r.as_f64()?;
                if d == 0.0 {
                    Err(ExprError::DivisionByZero)
                } else {
                    Ok(Value::Float(l.as_f64()?.rem_euclid(d)))
                }
            }
        },
        And | Or => unreachable!("handled with short-circuit"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use std::collections::HashMap;

    /// Simple map-backed bindings for tests.
    struct Env(HashMap<String, Value>);

    impl Bindings for Env {
        fn lookup(&self, name: &str) -> Result<Value, ExprError> {
            self.0
                .get(name)
                .cloned()
                .ok_or_else(|| ExprError::Stt(sl_stt::SttError::UnknownAttribute(name.into())))
        }
    }

    fn env(pairs: &[(&str, Value)]) -> Env {
        Env(pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect())
    }

    fn run(src: &str, e: &Env) -> Result<Value, ExprError> {
        eval(&parse(src).unwrap(), e)
    }

    #[test]
    fn arithmetic() {
        let e = env(&[("x", Value::Int(10)), ("y", Value::Float(2.5))]);
        assert_eq!(run("x + 5", &e).unwrap(), Value::Int(15));
        assert_eq!(run("x * y", &e).unwrap(), Value::Float(25.0));
        assert_eq!(run("x / 4", &e).unwrap(), Value::Float(2.5));
        assert_eq!(run("x % 3", &e).unwrap(), Value::Int(1));
        assert_eq!(run("-x + 1", &e).unwrap(), Value::Int(-9));
        assert_eq!(run("'a' + 'b'", &e).unwrap(), Value::Str("ab".into()));
    }

    #[test]
    fn division_by_zero() {
        let e = env(&[]);
        assert_eq!(run("1 / 0", &e), Err(ExprError::DivisionByZero));
        assert_eq!(run("1 % 0", &e), Err(ExprError::DivisionByZero));
        assert_eq!(run("1.0 % 0.0", &e), Err(ExprError::DivisionByZero));
    }

    #[test]
    fn modulo_is_euclidean() {
        let e = env(&[]);
        assert_eq!(run("-7 % 3", &e).unwrap(), Value::Int(2));
    }

    #[test]
    fn comparisons() {
        let e = env(&[("t", Value::Float(26.0))]);
        assert_eq!(run("t > 25", &e).unwrap(), Value::Bool(true));
        assert_eq!(run("t <= 25", &e).unwrap(), Value::Bool(false));
        assert_eq!(run("t = 26", &e).unwrap(), Value::Bool(true));
        assert_eq!(run("'abc' < 'abd'", &e).unwrap(), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        let e = env(&[
            ("u", Value::Null),
            ("t", Value::Bool(true)),
            ("f", Value::Bool(false)),
        ]);
        assert_eq!(run("f and u", &e).unwrap(), Value::Bool(false));
        assert_eq!(run("u and f", &e).unwrap(), Value::Bool(false));
        assert_eq!(run("t and u", &e).unwrap(), Value::Null);
        assert_eq!(run("t or u", &e).unwrap(), Value::Bool(true));
        assert_eq!(run("u or t", &e).unwrap(), Value::Bool(true));
        assert_eq!(run("u or f", &e).unwrap(), Value::Null);
        assert_eq!(run("not u", &e).unwrap(), Value::Null);
    }

    #[test]
    fn short_circuit_avoids_errors() {
        // Right side would divide by zero, but the left decides.
        let e = env(&[("f", Value::Bool(false)), ("t", Value::Bool(true))]);
        assert_eq!(run("f and 1 / 0 > 0", &e).unwrap(), Value::Bool(false));
        assert_eq!(run("t or 1 / 0 > 0", &e).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_propagation_in_arith() {
        let e = env(&[("u", Value::Null)]);
        assert_eq!(run("u + 1", &e).unwrap(), Value::Null);
        assert_eq!(run("u = 1", &e).unwrap(), Value::Null);
        assert_eq!(run("-u", &e).unwrap(), Value::Null);
    }

    #[test]
    fn nested_calls() {
        let e = env(&[("x", Value::Float(-9.0))]);
        assert_eq!(run("sqrt(abs(x))", &e).unwrap(), Value::Float(3.0));
        assert_eq!(
            run("if(x < 0, 'neg', 'pos')", &e).unwrap(),
            Value::Str("neg".into())
        );
    }

    #[test]
    fn unknown_attribute_errors() {
        let e = env(&[]);
        assert!(run("nope + 1", &e).is_err());
    }

    #[test]
    fn int_overflow_wraps() {
        let e = env(&[("big", Value::Int(i64::MAX))]);
        // Wrapping, not panicking: sensor data can be garbage and the
        // operator pipeline must not crash.
        assert_eq!(run("big + 1", &e).unwrap(), Value::Int(i64::MIN));
    }
}
