//! Property-based tests for the expression language: print→parse round
//! trips, evaluation determinism, and typechecker/evaluator agreement.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::prelude::*;
use sl_expr::{parse, typecheck, CompiledExpr, Expr, ExprType};
use sl_stt::{
    AttrType, Field, GeoPoint, Schema, SensorId, SttMeta, Theme, Timestamp, Tuple, Value,
};

/// Schema used by all generated expressions.
fn test_schema() -> Schema {
    Schema::new(vec![
        Field::new("a", AttrType::Float),
        Field::new("b", AttrType::Float),
        Field::new("n", AttrType::Int),
        Field::new("s", AttrType::Str),
        Field::new("flag", AttrType::Bool),
    ])
    .unwrap()
}

fn test_tuple(a: f64, b: f64, n: i64, s: String, flag: bool) -> Tuple {
    Tuple::new(
        test_schema().into_ref(),
        vec![
            Value::Float(a),
            Value::Float(b),
            Value::Int(n),
            Value::Str(s),
            Value::Bool(flag),
        ],
        SttMeta::new(
            Timestamp::from_secs(42),
            GeoPoint::new_unchecked(34.69, 135.50),
            Theme::new("weather/temperature").unwrap(),
            SensorId(1),
        ),
    )
    .unwrap()
}

/// Generate arbitrary *numeric* expressions over attributes a, b, n.
fn arb_numeric_expr() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (-1000i64..1000).prop_map(|i| Expr::Literal(Value::Int(i))),
        (-1000.0f64..1000.0).prop_map(|x| Expr::Literal(Value::Float(x))),
        Just(Expr::attr("a")),
        Just(Expr::attr("b")),
        Just(Expr::attr("n")),
    ];
    leaf.prop_recursive(4, 32, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(
                sl_expr::BinOp::Add,
                l,
                r
            )),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(
                sl_expr::BinOp::Sub,
                l,
                r
            )),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(
                sl_expr::BinOp::Mul,
                l,
                r
            )),
            // Mirror the parser's literal folding so generated trees are in
            // canonical (reparseable) form.
            (inner.clone(),).prop_map(|(e,)| match e {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(x)) => Expr::Literal(Value::Float(-x)),
                other => Expr::unary(sl_expr::UnOp::Neg, other),
            }),
            (inner.clone(),).prop_map(|(e,)| Expr::Call {
                function: "abs".into(),
                args: vec![e]
            }),
            (inner.clone(), inner).prop_map(|(l, r)| Expr::Call {
                function: "max".into(),
                args: vec![l, r]
            }),
        ]
    })
    .boxed()
}

/// Generate arbitrary boolean expressions (predicates).
fn arb_predicate() -> BoxedStrategy<Expr> {
    let num = arb_numeric_expr();
    let cmp = (num.clone(), num, 0u8..6).prop_map(|(l, r, op)| {
        let op = match op {
            0 => sl_expr::BinOp::Eq,
            1 => sl_expr::BinOp::Ne,
            2 => sl_expr::BinOp::Lt,
            3 => sl_expr::BinOp::Le,
            4 => sl_expr::BinOp::Gt,
            _ => sl_expr::BinOp::Ge,
        };
        Expr::binary(op, l, r)
    });
    let leaf = prop_oneof![
        cmp,
        Just(Expr::attr("flag")),
        any::<bool>().prop_map(|b| Expr::Literal(Value::Bool(b))),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(
                sl_expr::BinOp::And,
                l,
                r
            )),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::binary(
                sl_expr::BinOp::Or,
                l,
                r
            )),
            (inner,).prop_map(|(e,)| Expr::unary(sl_expr::UnOp::Not, e)),
        ]
    })
    .boxed()
}

proptest! {
    /// The canonical printer and the parser are inverse: parse(print(e)) == e.
    #[test]
    fn print_parse_round_trip_numeric(e in arb_numeric_expr()) {
        let printed = e.to_string();
        let reparsed = parse(&printed).unwrap_or_else(|err| panic!("`{printed}`: {err}"));
        prop_assert_eq!(reparsed, e);
    }

    /// Same round-trip for boolean expressions.
    #[test]
    fn print_parse_round_trip_predicate(e in arb_predicate()) {
        let printed = e.to_string();
        let reparsed = parse(&printed).unwrap_or_else(|err| panic!("`{printed}`: {err}"));
        prop_assert_eq!(reparsed, e);
    }

    /// Every generated numeric expression typechecks to a numeric type.
    #[test]
    fn numeric_exprs_typecheck(e in arb_numeric_expr()) {
        let ty = typecheck(&e, &test_schema()).unwrap();
        match ty {
            ExprType::Exact(t) => prop_assert!(t.is_numeric()),
            ExprType::Null => {}
        }
    }

    /// Evaluation is deterministic and, when the checker says Bool, yields a
    /// Bool (or fails with division-by-zero — never a type error).
    #[test]
    fn checker_and_evaluator_agree(
        e in arb_predicate(),
        a in -100.0f64..100.0,
        b in -100.0f64..100.0,
        n in -100i64..100,
        flag in any::<bool>(),
    ) {
        let schema = test_schema();
        let ty = typecheck(&e, &schema).unwrap();
        prop_assert_eq!(ty, ExprType::Exact(AttrType::Bool));
        let tuple = test_tuple(a, b, n, "x".into(), flag);
        let compiled = CompiledExpr::compile_predicate(&e.to_string(), &schema).unwrap();
        match compiled.eval(&tuple) {
            Ok(v) => prop_assert!(matches!(v, Value::Bool(_)), "got {v:?}"),
            Err(sl_expr::ExprError::DivisionByZero) => {}
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
        // Determinism: same tuple, same result.
        let r1 = compiled.eval(&tuple);
        let r2 = compiled.eval(&tuple);
        prop_assert_eq!(format!("{r1:?}"), format!("{r2:?}"));
    }

    /// Filter semantics foundation: eval_predicate never panics on valid
    /// compiled predicates over in-domain tuples.
    #[test]
    fn eval_predicate_total(
        e in arb_predicate(),
        a in -1e6f64..1e6,
        n in any::<i64>(),
    ) {
        let schema = test_schema();
        let compiled = CompiledExpr::compile_predicate(&e.to_string(), &schema).unwrap();
        let tuple = test_tuple(a, -a, n, "y".into(), false);
        let _ = compiled.eval_predicate(&tuple); // must not panic
    }

    /// Glob matching: a pattern equal to the text always matches; `*` alone
    /// matches everything.
    #[test]
    fn glob_identity(s in "[a-zA-Z0-9 ]{0,16}") {
        prop_assert!(sl_expr::functions::glob_match(&s, &s));
        prop_assert!(sl_expr::functions::glob_match("*", &s));
    }

    /// A prefix pattern `p*` matches exactly strings starting with p.
    #[test]
    fn glob_prefix(p in "[a-z]{1,6}", rest in "[a-z]{0,6}") {
        let pat = format!("{p}*");
        let text = format!("{p}{rest}");
        prop_assert!(sl_expr::functions::glob_match(&pat, &text));
    }
}
