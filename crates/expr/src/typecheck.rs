//! Static type checking of expressions against a schema.
//!
//! This is the machinery behind the GUI's "different checks in order to draw
//! only dataflows that can be soundly translated" (paper §3): every
//! condition and specification is validated against the schema of the stream
//! it will observe *before* the dataflow is translated to DSN/SCN.

use crate::ast::{BinOp, Expr, UnOp};
use crate::error::ExprError;
use crate::functions;
use sl_stt::{AttrType, Schema};
use std::fmt;

/// Static type of an expression: an exact attribute type, or the type of the
/// `null` literal (which inhabits every type).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExprType {
    /// Exactly this attribute type.
    Exact(AttrType),
    /// The `null` literal (joins with anything).
    Null,
}

impl ExprType {
    /// True if a value of this type can appear where `target` is expected.
    pub fn fits(self, target: AttrType) -> bool {
        match self {
            ExprType::Null => true,
            ExprType::Exact(t) => t.coercible_to(target),
        }
    }

    /// The exact type, if known.
    pub fn exact(self) -> Option<AttrType> {
        match self {
            ExprType::Exact(t) => Some(t),
            ExprType::Null => None,
        }
    }

    fn is_numeric_or_null(self) -> bool {
        match self {
            ExprType::Null => true,
            ExprType::Exact(t) => t.is_numeric(),
        }
    }
}

impl fmt::Display for ExprType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprType::Exact(t) => write!(f, "{t}"),
            ExprType::Null => write!(f, "null"),
        }
    }
}

/// Pseudo-attributes exposing the tuple's STT metadata: `(name, type)`.
pub const META_ATTRS: [(&str, AttrType); 5] = [
    ("_ts", AttrType::Time),
    ("_lat", AttrType::Float),
    ("_lon", AttrType::Float),
    ("_theme", AttrType::Str),
    ("_sensor", AttrType::Int),
];

/// Resolve the type of an attribute reference: schema first, then the
/// metadata pseudo-attributes.
pub fn attr_type(schema: &Schema, name: &str) -> Result<AttrType, ExprError> {
    if let Ok(field) = schema.field(name) {
        return Ok(field.ty);
    }
    META_ATTRS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, t)| *t)
        .ok_or_else(|| ExprError::Stt(sl_stt::SttError::UnknownAttribute(name.to_string())))
}

/// Compute the static type of `expr` under `schema`, or fail with the first
/// type error found.
pub fn typecheck(expr: &Expr, schema: &Schema) -> Result<ExprType, ExprError> {
    match expr {
        Expr::Literal(v) => Ok(match v.attr_type() {
            Some(t) => ExprType::Exact(t),
            None => ExprType::Null,
        }),
        Expr::Attr(name) => attr_type(schema, name).map(ExprType::Exact),
        Expr::Unary { op, expr } => {
            let inner = typecheck(expr, schema)?;
            match op {
                UnOp::Neg => {
                    if inner.is_numeric_or_null() {
                        Ok(inner)
                    } else {
                        Err(ExprError::Type {
                            message: format!("cannot negate `{expr}` (type {inner})"),
                        })
                    }
                }
                UnOp::Not => {
                    if inner.fits(AttrType::Bool) {
                        Ok(ExprType::Exact(AttrType::Bool))
                    } else {
                        Err(ExprError::Type {
                            message: format!(
                                "`not` needs a boolean, but `{expr}` has type {inner}"
                            ),
                        })
                    }
                }
            }
        }
        Expr::Binary { op, left, right } => {
            let lt = typecheck(left, schema)?;
            let rt = typecheck(right, schema)?;
            match op {
                BinOp::And | BinOp::Or => {
                    for (side, t) in [("left", lt), ("right", rt)] {
                        if !t.fits(AttrType::Bool) {
                            return Err(ExprError::Type {
                                message: format!(
                                    "{side} operand of `{}` must be boolean, found {t} in `{left} {} {right}`",
                                    op.symbol(),
                                    op.symbol()
                                ),
                            });
                        }
                    }
                    Ok(ExprType::Exact(AttrType::Bool))
                }
                BinOp::Eq | BinOp::Ne => {
                    if compatible_for_comparison(lt, rt) {
                        Ok(ExprType::Exact(AttrType::Bool))
                    } else {
                        Err(ExprError::Type {
                            message: format!(
                                "cannot compare `{left}` ({lt}) with `{right}` ({rt})"
                            ),
                        })
                    }
                }
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let ordered = |t: ExprType| match t {
                        ExprType::Null => true,
                        ExprType::Exact(a) => {
                            a.is_numeric() || a == AttrType::Str || a == AttrType::Time
                        }
                    };
                    if ordered(lt) && ordered(rt) && compatible_for_comparison(lt, rt) {
                        Ok(ExprType::Exact(AttrType::Bool))
                    } else {
                        Err(ExprError::Type {
                            message: format!(
                                "cannot order `{left}` ({lt}) against `{right}` ({rt})"
                            ),
                        })
                    }
                }
                BinOp::Add => {
                    // `+` is numeric addition or string concatenation.
                    if lt == ExprType::Exact(AttrType::Str) && rt == ExprType::Exact(AttrType::Str)
                    {
                        Ok(ExprType::Exact(AttrType::Str))
                    } else {
                        numeric_binop("+", lt, rt, left, right)
                    }
                }
                BinOp::Sub | BinOp::Mul | BinOp::Mod => {
                    numeric_binop(op.symbol(), lt, rt, left, right)
                }
                BinOp::Div => {
                    // Division always yields Float (avoids silent integer
                    // truncation surprising non-programmer users).
                    numeric_binop("/", lt, rt, left, right)?;
                    Ok(ExprType::Exact(AttrType::Float))
                }
            }
        }
        Expr::Call { function, args } => {
            let mut arg_types = Vec::with_capacity(args.len());
            for a in args {
                arg_types.push(typecheck(a, schema)?);
            }
            functions::check(function, &arg_types)
        }
    }
}

fn compatible_for_comparison(a: ExprType, b: ExprType) -> bool {
    match (a, b) {
        (ExprType::Null, _) | (_, ExprType::Null) => true,
        (ExprType::Exact(x), ExprType::Exact(y)) => x == y || (x.is_numeric() && y.is_numeric()),
    }
}

fn numeric_binop(
    sym: &str,
    lt: ExprType,
    rt: ExprType,
    left: &Expr,
    right: &Expr,
) -> Result<ExprType, ExprError> {
    if !lt.is_numeric_or_null() || !rt.is_numeric_or_null() {
        return Err(ExprError::Type {
            message: format!(
                "operator `{sym}` needs numeric operands, found {lt} and {rt} in `{left} {sym} {right}`"
            ),
        });
    }
    Ok(match (lt, rt) {
        (ExprType::Exact(AttrType::Int), ExprType::Exact(AttrType::Int)) => {
            ExprType::Exact(AttrType::Int)
        }
        (ExprType::Null, ExprType::Null) => ExprType::Null,
        _ => ExprType::Exact(AttrType::Float),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use sl_stt::Field;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("t", AttrType::Float),
            Field::new("n", AttrType::Int),
            Field::new("name", AttrType::Str),
            Field::new("ok", AttrType::Bool),
            Field::new("at", AttrType::Time),
            Field::new("pos", AttrType::Geo),
        ])
        .unwrap()
    }

    fn ty(src: &str) -> Result<ExprType, ExprError> {
        typecheck(&parse(src).unwrap(), &schema())
    }

    #[test]
    fn literals() {
        assert_eq!(ty("1").unwrap(), ExprType::Exact(AttrType::Int));
        assert_eq!(ty("1.5").unwrap(), ExprType::Exact(AttrType::Float));
        assert_eq!(ty("'x'").unwrap(), ExprType::Exact(AttrType::Str));
        assert_eq!(ty("true").unwrap(), ExprType::Exact(AttrType::Bool));
        assert_eq!(ty("null").unwrap(), ExprType::Null);
    }

    #[test]
    fn attribute_resolution() {
        assert_eq!(ty("t").unwrap(), ExprType::Exact(AttrType::Float));
        assert_eq!(ty("_ts").unwrap(), ExprType::Exact(AttrType::Time));
        assert_eq!(ty("_theme").unwrap(), ExprType::Exact(AttrType::Str));
        assert!(ty("missing").is_err());
    }

    #[test]
    fn arithmetic_types() {
        assert_eq!(ty("n + 1").unwrap(), ExprType::Exact(AttrType::Int));
        assert_eq!(ty("n + t").unwrap(), ExprType::Exact(AttrType::Float));
        assert_eq!(ty("n / 2").unwrap(), ExprType::Exact(AttrType::Float));
        assert_eq!(ty("'a' + 'b'").unwrap(), ExprType::Exact(AttrType::Str));
        assert!(ty("'a' + 1").is_err());
        assert!(ty("pos * 2").is_err());
    }

    #[test]
    fn comparisons() {
        assert_eq!(ty("t > 25").unwrap(), ExprType::Exact(AttrType::Bool));
        assert_eq!(ty("n = t").unwrap(), ExprType::Exact(AttrType::Bool));
        assert_eq!(
            ty("name = 'osaka'").unwrap(),
            ExprType::Exact(AttrType::Bool)
        );
        assert_eq!(ty("at < _ts").unwrap(), ExprType::Exact(AttrType::Bool));
        assert!(ty("name > 1").is_err());
        assert!(ty("pos < pos").is_err()); // Geo is unordered
        assert_eq!(ty("pos = pos").unwrap(), ExprType::Exact(AttrType::Bool));
        assert_eq!(ty("name = null").unwrap(), ExprType::Exact(AttrType::Bool));
    }

    #[test]
    fn logic() {
        assert_eq!(ty("ok and t > 1").unwrap(), ExprType::Exact(AttrType::Bool));
        assert_eq!(ty("not ok").unwrap(), ExprType::Exact(AttrType::Bool));
        assert!(ty("ok and 1").is_err());
        assert!(ty("not name").is_err());
    }

    #[test]
    fn negation() {
        assert_eq!(ty("-n").unwrap(), ExprType::Exact(AttrType::Int));
        assert_eq!(ty("-t").unwrap(), ExprType::Exact(AttrType::Float));
        assert!(ty("-name").is_err());
    }

    #[test]
    fn calls_are_checked() {
        assert_eq!(ty("abs(n)").unwrap(), ExprType::Exact(AttrType::Int));
        assert_eq!(
            ty("apparent_temperature(t, 60)").unwrap(),
            ExprType::Exact(AttrType::Float)
        );
        assert!(ty("abs(name)").is_err());
        assert!(ty("abs()").is_err());
        assert!(ty("frobnicate(1)").is_err());
    }

    #[test]
    fn null_fits_everywhere() {
        assert_eq!(ty("null + 1").unwrap(), ExprType::Exact(AttrType::Float));
        assert_eq!(ty("null and ok").unwrap(), ExprType::Exact(AttrType::Bool));
        assert_eq!(ty("null + null").unwrap(), ExprType::Null);
    }
}
