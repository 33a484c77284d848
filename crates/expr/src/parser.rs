//! Recursive-descent parser for the expression language, with the binary
//! levels of the grammar read by one precedence-climbing loop.
//!
//! Grammar (lowest precedence first):
//!
//! ```text
//! expr    := or
//! or      := and ( "or" and )*
//! and     := cmp ( "and" cmp )*
//! cmp     := add ( ("=" | "!=" | "<" | "<=" | ">" | ">=") add )?
//! add     := mul ( ("+" | "-") mul )*
//! mul     := unary ( ("*" | "/" | "%") unary )*
//! unary   := ("-" | "not") unary | primary
//! primary := literal | ident | ident "(" args ")" | "(" expr ")"
//! ```
//!
//! Comparisons are non-associative (`a < b < c` is a syntax error), matching
//! the behaviour users expect from condition boxes in the visual editor.

use crate::ast::{BinOp, Expr, UnOp};
use crate::error::ExprError;
use crate::lexer::{tokenize, Token, TokenKind};
use sl_stt::Value;

/// How deep an expression may nest, counted both ways it can: brackets,
/// calls and prefix operators open while parsing, and the height of the
/// tree built. Parsing, typechecking, evaluation, printing and dropping all
/// recurse once per level, so this bound is what keeps a hostile condition
/// from exhausting the stack. Past it, [`parse`] returns
/// [`ExprError::Syntax`].
pub(crate) const MAX_DEPTH: usize = 256;

/// Parse a complete expression; trailing tokens are an error.
pub fn parse(src: &str) -> Result<Expr, ExprError> {
    let mut tokens = tokenize(src)?;
    tokens.reverse();
    let mut p = Parser {
        tokens,
        src_len: src.len(),
        open: 0,
    };
    let (expr, _) = p.parse_binary(0)?;
    if let Some(t) = p.peek() {
        return Err(ExprError::Syntax {
            pos: t.pos,
            message: format!("unexpected trailing token `{}`", t.kind),
        });
    }
    Ok(expr)
}

/// A parsed subtree and its height.
type Node = (Expr, usize);

struct Parser {
    /// The tokens not read yet, last first, so that reading one moves it.
    tokens: Vec<Token>,
    src_len: usize,
    /// Brackets, calls and prefix operators being parsed.
    open: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.last()
    }

    fn next(&mut self) -> Option<Token> {
        self.tokens.pop()
    }

    fn here(&self) -> usize {
        self.peek().map_or(self.src_len, |t| t.pos)
    }

    fn too_deep(&self) -> ExprError {
        ExprError::Syntax {
            pos: self.here(),
            message: format!("expression nested deeper than {MAX_DEPTH} levels"),
        }
    }

    /// Parse one more level down, within [`MAX_DEPTH`].
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Node, ExprError>,
    ) -> Result<Node, ExprError> {
        if self.open == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.open += 1;
        let node = parse(self);
        self.open -= 1;
        node
    }

    /// `expr` as a node `height` high, within [`MAX_DEPTH`].
    fn node(&self, expr: Expr, height: usize) -> Result<Node, ExprError> {
        if height > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok((expr, height))
    }

    fn expect(&mut self, kind: &TokenKind, what: &str) -> Result<(), ExprError> {
        match self.next() {
            Some(t) if &t.kind == kind => Ok(()),
            Some(t) => Err(ExprError::Syntax {
                pos: t.pos,
                message: format!("expected {what}, found `{}`", t.kind),
            }),
            None => Err(ExprError::Syntax {
                pos: self.src_len,
                message: format!("expected {what}, found end of input"),
            }),
        }
    }

    /// True if the next token is the (case-insensitive) keyword `kw`.
    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token { kind: TokenKind::Ident(s), .. }) if s.eq_ignore_ascii_case(kw))
    }

    /// The binary operator the next token spells, if any.
    fn peek_binop(&self) -> Option<BinOp> {
        Some(match &self.peek()?.kind {
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("or") => BinOp::Or,
            TokenKind::Ident(s) if s.eq_ignore_ascii_case("and") => BinOp::And,
            TokenKind::Eq => BinOp::Eq,
            TokenKind::Ne => BinOp::Ne,
            TokenKind::Lt => BinOp::Lt,
            TokenKind::Le => BinOp::Le,
            TokenKind::Gt => BinOp::Gt,
            TokenKind::Ge => BinOp::Ge,
            TokenKind::Plus => BinOp::Add,
            TokenKind::Minus => BinOp::Sub,
            TokenKind::Star => BinOp::Mul,
            TokenKind::Slash => BinOp::Div,
            TokenKind::Percent => BinOp::Mod,
            _ => return None,
        })
    }

    /// Operators binding at least as tight as `min`, by precedence
    /// climbing. Only an operator binding no tighter than the previous one
    /// continues the chain, and never a comparison after a comparison: a
    /// tighter one is left over only where the right operand stopped at a
    /// second comparison, and `a < b < c` is for the caller to reject.
    fn parse_binary(&mut self, min: u8) -> Result<Node, ExprError> {
        let mut left = self.parse_unary()?;
        let mut last = u8::MAX;
        while let Some(op) = self.peek_binop() {
            let prec = op.precedence();
            if prec < min || prec > last || (prec == last && op.is_comparison()) {
                break;
            }
            self.next();
            let ((l, hl), (r, hr)) = (left, self.parse_binary(prec + 1)?);
            left = self.node(Expr::binary(op, l, r), 1 + hl.max(hr))?;
            last = prec;
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Node, ExprError> {
        if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Minus)) {
            self.next();
            // Fold negation into numeric literals so `-3` prints back as `-3`
            // rather than `-(3)`.
            return match self.nested(Self::parse_unary)? {
                (Expr::Literal(Value::Int(i)), h) => Ok((Expr::Literal(Value::Int(-i)), h)),
                (Expr::Literal(Value::Float(x)), h) => Ok((Expr::Literal(Value::Float(-x)), h)),
                (other, h) => self.node(Expr::unary(UnOp::Neg, other), h + 1),
            };
        }
        if self.peek_keyword("not") {
            self.next();
            let (inner, h) = self.nested(Self::parse_unary)?;
            return self.node(Expr::unary(UnOp::Not, inner), h + 1);
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Node, ExprError> {
        let pos = self.here();
        let Some(Token { kind, pos }) = self.next() else {
            return Err(ExprError::Syntax {
                pos,
                message: "expected an expression, found end of input".into(),
            });
        };
        let literal = match kind {
            TokenKind::Int(i) => Value::Int(i),
            TokenKind::Float(x) => Value::Float(x),
            TokenKind::Str(s) => Value::Str(s),
            TokenKind::LParen => {
                let e = self.nested(|p| p.parse_binary(0))?;
                self.expect(&TokenKind::RParen, "`)`")?;
                return Ok(e);
            }
            TokenKind::Ident(name) => {
                let lower = name.to_ascii_lowercase();
                match lower.as_str() {
                    "true" => Value::Bool(true),
                    "false" => Value::Bool(false),
                    "null" => Value::Null,
                    _ if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LParen)) => {
                        return self.parse_call(lower);
                    }
                    // Attribute names keep their case: sensor schemas may be
                    // case-sensitive.
                    _ => return Ok((Expr::Attr(name), 1)),
                }
            }
            other => {
                return Err(ExprError::Syntax {
                    pos,
                    message: format!("expected an expression, found `{other}`"),
                })
            }
        };
        Ok((Expr::Literal(literal), 1))
    }

    /// The argument list of a call to `function`, from its `(`.
    fn parse_call(&mut self, function: String) -> Result<Node, ExprError> {
        self.next();
        let mut args = Vec::new();
        let mut height = 0;
        if !matches!(self.peek().map(|t| &t.kind), Some(TokenKind::RParen)) {
            loop {
                let (arg, h) = self.nested(|p| p.parse_binary(0))?;
                args.push(arg);
                height = height.max(h);
                if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Comma)) {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.expect(&TokenKind::RParen, "`)` to close argument list")?;
        self.node(Expr::Call { function, args }, height + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(src: &str) -> String {
        parse(src).unwrap().to_string()
    }

    #[test]
    fn precedence_and_or() {
        // and binds tighter than or.
        let e = parse("a or b and c").unwrap();
        assert_eq!(
            e,
            Expr::binary(
                BinOp::Or,
                Expr::attr("a"),
                Expr::binary(BinOp::And, Expr::attr("b"), Expr::attr("c"))
            )
        );
    }

    #[test]
    fn precedence_arith_vs_cmp() {
        let e = parse("a + 1 > b * 2").unwrap();
        match e {
            Expr::Binary { op: BinOp::Gt, .. } => {}
            other => panic!("expected Gt at top, got {other:?}"),
        }
    }

    #[test]
    fn keywords_case_insensitive() {
        assert_eq!(parse("a AND b").unwrap(), parse("a and b").unwrap());
        assert_eq!(parse("NOT a").unwrap(), parse("not a").unwrap());
        assert_eq!(parse("TRUE").unwrap(), Expr::Literal(Value::Bool(true)));
        assert_eq!(parse("Null").unwrap(), Expr::Literal(Value::Null));
    }

    #[test]
    fn function_calls() {
        let e = parse("max(a, b + 1, 3)").unwrap();
        match &e {
            Expr::Call { function, args } => {
                assert_eq!(function, "max");
                assert_eq!(args.len(), 3);
            }
            other => panic!("{other:?}"),
        }
        // Function names are lowercased.
        let e = parse("ABS(x)").unwrap();
        assert!(matches!(e, Expr::Call { ref function, .. } if function == "abs"));
        // Zero-arg call.
        assert!(matches!(parse("pi()").unwrap(), Expr::Call { ref args, .. } if args.is_empty()));
    }

    #[test]
    fn negative_literals_fold() {
        assert_eq!(parse("-3").unwrap(), Expr::Literal(Value::Int(-3)));
        assert_eq!(parse("-2.5").unwrap(), Expr::Literal(Value::Float(-2.5)));
        assert_eq!(parse("- -3").unwrap(), Expr::Literal(Value::Int(3)));
        // Negating an attribute stays a unary node.
        assert!(matches!(
            parse("-a").unwrap(),
            Expr::Unary { op: UnOp::Neg, .. }
        ));
    }

    #[test]
    fn double_comparison_rejected() {
        assert!(parse("a < b < c").is_err());
    }

    #[test]
    fn trailing_tokens_rejected() {
        assert!(parse("a + b c").is_err());
        assert!(parse("a)").is_err());
    }

    #[test]
    fn unbalanced_parens_rejected() {
        assert!(parse("(a + b").is_err());
        assert!(parse("f(a, b").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn print_parse_round_trip_examples() {
        for src in [
            "temperature > 24 and humidity >= 60.5",
            "apparent_temperature(temperature, humidity)",
            "not (a or b) and c != 'x''y'",
            "(a + b) * c - d / e % f",
            "-x + -3",
            "coalesce(a, null, true, false)",
            "_lat > 34.5 or _theme = 'weather/rain'",
        ] {
            let e1 = parse(src).unwrap();
            let printed = e1.to_string();
            let e2 = parse(&printed).unwrap();
            assert_eq!(e1, e2, "round trip failed for `{src}` -> `{printed}`");
        }
    }

    #[test]
    fn deep_nesting_parses() {
        let mut src = String::from("x");
        for _ in 0..200 {
            src = format!("({src} + 1)");
        }
        assert!(parse(&src).is_ok());
    }

    #[test]
    fn roundtrip_preserves_meaning_not_spelling() {
        assert_eq!(roundtrip("a==b"), "a = b");
        assert_eq!(roundtrip("a<>b"), "a != b");
        assert_eq!(roundtrip("((a))"), "a");
    }
}
