//! The three text readers against their specification: the expression
//! `tokenize` and `parse`, DSN `parse_document` and JSON `parse` of the
//! commit before they moved onto one `sl_obs::text::Cursor` (and the
//! expression parser onto one precedence-climbing loop with a nesting
//! bound), copied verbatim into the `reference_*` modules below (only their
//! import paths differ).
//!
//! * every reader returns what its reference returns — the same `Ok`
//!   value, or the same error variant, text and position (`pos`, `line`,
//!   `at`) — on arbitrary strings, on expression tokens in random order and
//!   on every prefix cut and single-byte flip of the example DSN documents,
//!   of printed random expressions and of `MetricsSnapshot::to_json`
//!   output, all far below the nesting bounds;
//! * no reader panics on any of those inputs, and neither do
//!   `parse_deploy_config` and `parse_fault_plan` on the same treatment of
//!   the example deployment files.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test helpers may panic freely

use proptest::TestRng;
use streamloader::expr::{BinOp, Expr, UnOp};
use streamloader::lint::deployfile::{parse_deploy_config, parse_fault_plan};
use streamloader::obs::{json, Metrics, MetricsSnapshot};
use streamloader::stt::Value;

// ------------------------------------------------------------------ inputs

/// Bytes every grammar gives a meaning to.
const SPECIAL: &[u8] = b"'\";,:{}()[]#\\\n\t =<>!-+*/.eE0_&~";

fn pick<T: Copy>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize]
}

/// Arbitrary text: syntax bytes, letters, digits and multi-byte characters.
fn arbitrary(rng: &mut TestRng) -> String {
    (0..rng.below(48))
        .map(|_| match rng.below(5) {
            0 | 1 => pick(rng, SPECIAL) as char,
            2 => (b'a' + rng.below(26) as u8) as char,
            3 => (b'0' + rng.below(10) as u8) as char,
            _ => pick(rng, &['é', '日', '\u{0}', '\u{1F600}', '\r', 'u']),
        })
        .collect()
}

/// Expression tokens in any order: every way a parse can go wrong.
fn token_soup(rng: &mut TestRng) -> String {
    const WORDS: &[&str] = &[
        "a", "x_1", "1", "2.5", "1e3", "'s'", "'it''s'", "(", ")", ",", "and", "OR", "not", "true",
        "Null", "abs", "max(", "=", "==", "!=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/",
        "%",
    ];
    let words: Vec<&str> = (0..rng.below(24)).map(|_| pick(rng, WORDS)).collect();
    words.join(" ")
}

/// `bytes` as text, any split character replaced.
fn lossy(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// Every prefix cut of `text`, then every single-byte flip of it: one bit
/// flipped and one substitution by a syntax byte per position.
fn damaged(rng: &mut TestRng, text: &str) -> Vec<String> {
    let bytes = text.as_bytes();
    let mut out: Vec<String> = (0..=bytes.len()).map(|at| lossy(&bytes[..at])).collect();
    for at in 0..bytes.len() {
        for b in [bytes[at] ^ (1 << rng.below(8)), pick(rng, SPECIAL)] {
            let mut flipped = bytes.to_vec();
            flipped[at] = b;
            out.push(lossy(&flipped));
        }
    }
    out
}

/// Every file in the repository directory `dir`, in name order.
fn example(dir: &str) -> Vec<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).unwrap())
        .collect()
}

/// A random expression tree, up to `depth` deep.
fn expr(rng: &mut TestRng, depth: u32) -> Expr {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(6) {
            0 => Expr::Literal(Value::Int(rng.below(2_000) as i64 - 1_000)),
            1 => Expr::Literal(Value::Float((rng.unit_f64() - 0.5) * 1e4)),
            2 => Expr::Literal(Value::Str(arbitrary(rng))),
            3 => Expr::Literal(Value::Bool(rng.below(2) == 0)),
            4 => Expr::Literal(Value::Null),
            _ => Expr::attr(pick(rng, &["a", "_lat", "weather.temp", "x_1"])),
        };
    }
    match rng.below(4) {
        0 => Expr::unary(pick(rng, &[UnOp::Neg, UnOp::Not]), expr(rng, depth - 1)),
        1 => Expr::Call {
            function: pick(rng, &["abs", "max", "f"]).to_string(),
            args: (0..rng.below(3)).map(|_| expr(rng, depth - 1)).collect(),
        },
        _ => {
            let ops = [
                BinOp::Or,
                BinOp::And,
                BinOp::Eq,
                BinOp::Ne,
                BinOp::Lt,
                BinOp::Le,
                BinOp::Gt,
                BinOp::Ge,
                BinOp::Add,
                BinOp::Sub,
                BinOp::Mul,
                BinOp::Div,
                BinOp::Mod,
            ];
            Expr::binary(pick(rng, &ops), expr(rng, depth - 1), expr(rng, depth - 1))
        }
    }
}

/// A small snapshot with names that need escaping, as JSON.
fn snapshot_json(rng: &mut TestRng) -> String {
    let mut m = Metrics::new();
    for _ in 0..1 + rng.below(3) {
        let name = arbitrary(rng);
        match rng.below(3) {
            0 => m.counter(&name).add(rng.next_u64() >> rng.below(64)),
            1 => m.gauge(&name).set(rng.next_u64() as i64 >> rng.below(64)),
            _ => m.hist(&name).record(rng.below(1 << 20)),
        }
    }
    m.snapshot().to_json()
}

// ------------------------------------------------------------------ properties

#[test]
fn expressions_read_as_the_reference_reads_them() {
    let mut rng = TestRng::deterministic("expressions_read_as_the_reference");
    let mut inputs: Vec<String> = (0..2_000).map(|_| arbitrary(&mut rng)).collect();
    inputs.extend((0..4_000).map(|_| token_soup(&mut rng)));
    for _ in 0..256 {
        let printed = expr(&mut rng, 5).to_string();
        inputs.extend(damaged(&mut rng, &printed));
    }
    let mut outcomes = [0usize; 2];
    for src in &inputs {
        let got = streamloader::expr::lexer::tokenize(src);
        outcomes[usize::from(got.is_ok())] += 1;
        assert_eq!(got, reference_expr::tokenize(src), "{src:?}");
        assert_eq!(
            streamloader::expr::parse(src),
            reference_expr::parse(src),
            "{src:?}"
        );
    }
    assert!(outcomes.iter().all(|&n| n > 1_000), "{outcomes:?}");
}

#[test]
fn dsn_parse_matches_the_reference_and_never_panics() {
    let mut rng = TestRng::deterministic("dsn_parse_matches_the_reference");
    let mut inputs: Vec<String> = (0..2_000).map(|_| arbitrary(&mut rng)).collect();
    for text in example("examples/dsn") {
        let printed =
            streamloader::dsn::print_document(&reference_dsn::parse_document(&text).unwrap());
        inputs.extend(damaged(&mut rng, &text));
        inputs.extend(damaged(&mut rng, &printed));
    }
    let mut outcomes = [0usize; 2];
    for src in &inputs {
        let got = streamloader::dsn::parse_document(src);
        outcomes[usize::from(got.is_ok())] += 1;
        let want = reference_dsn::parse_document(src);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{src:?}");
    }
    assert!(outcomes.iter().all(|&n| n > 1_000), "{outcomes:?}");
}

#[test]
fn json_parse_matches_the_reference_and_never_panics() {
    let mut rng = TestRng::deterministic("json_parse_matches_the_reference");
    let mut inputs: Vec<String> = (0..2_000).map(|_| arbitrary(&mut rng)).collect();
    for _ in 0..256 {
        let doc = snapshot_json(&mut rng);
        inputs.extend(damaged(&mut rng, &doc));
    }
    let mut outcomes = [0usize; 2];
    for src in &inputs {
        let got = json::parse(src);
        outcomes[usize::from(got.is_ok())] += 1;
        assert_eq!(got, reference_json::parse(src), "{src:?}");
        let _ = MetricsSnapshot::from_json(src);
    }
    assert!(outcomes.iter().all(|&n| n > 1_000), "{outcomes:?}");
}

#[test]
fn deployment_files_never_panic() {
    let mut rng = TestRng::deterministic("deployment_files_never_panic");
    let mut inputs: Vec<String> = (0..2_000).map(|_| arbitrary(&mut rng)).collect();
    for text in example("examples/deploy") {
        inputs.extend(damaged(&mut rng, &text));
    }
    // Offsets and windows at the edge of their range.
    for (verb, span) in [
        ("flap link=0", "outage_ms"),
        ("stall sensor=1", "outage_ms"),
        ("burst sensor=1 factor=2", "window_ms"),
    ] {
        inputs.push(format!("{verb} at_ms={} {span}=1", u64::MAX));
    }
    for src in &inputs {
        let _ = parse_deploy_config(src);
        let _ = parse_fault_plan(src);
    }
}

// ------------------------------------------------------------------ references

mod reference_expr {
    use streamloader::expr::lexer::{Token, TokenKind};
    use streamloader::expr::{BinOp, Expr, ExprError, UnOp};
    use streamloader::stt::Value;

    /// Tokenise the whole source string.
    pub(crate) fn tokenize(src: &str) -> Result<Vec<Token>, ExprError> {
        let bytes = src.as_bytes();
        let mut tokens = Vec::new();
        let mut i = 0;
        while i < bytes.len() {
            let start = i;
            let b = bytes[i];
            match b {
                b' ' | b'\t' | b'\r' | b'\n' => {
                    i += 1;
                }
                b'(' => {
                    tokens.push(Token {
                        kind: TokenKind::LParen,
                        pos: start,
                    });
                    i += 1;
                }
                b')' => {
                    tokens.push(Token {
                        kind: TokenKind::RParen,
                        pos: start,
                    });
                    i += 1;
                }
                b',' => {
                    tokens.push(Token {
                        kind: TokenKind::Comma,
                        pos: start,
                    });
                    i += 1;
                }
                b'+' => {
                    tokens.push(Token {
                        kind: TokenKind::Plus,
                        pos: start,
                    });
                    i += 1;
                }
                b'-' => {
                    tokens.push(Token {
                        kind: TokenKind::Minus,
                        pos: start,
                    });
                    i += 1;
                }
                b'*' => {
                    tokens.push(Token {
                        kind: TokenKind::Star,
                        pos: start,
                    });
                    i += 1;
                }
                b'/' => {
                    tokens.push(Token {
                        kind: TokenKind::Slash,
                        pos: start,
                    });
                    i += 1;
                }
                b'%' => {
                    tokens.push(Token {
                        kind: TokenKind::Percent,
                        pos: start,
                    });
                    i += 1;
                }
                b'=' => {
                    // Accept both `=` and `==`.
                    i += 1;
                    if bytes.get(i) == Some(&b'=') {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Eq,
                        pos: start,
                    });
                }
                b'!' => {
                    if bytes.get(i + 1) == Some(&b'=') {
                        tokens.push(Token {
                            kind: TokenKind::Ne,
                            pos: start,
                        });
                        i += 2;
                    } else {
                        return Err(ExprError::Lex {
                            pos: start,
                            ch: '!',
                        });
                    }
                }
                b'<' => match bytes.get(i + 1) {
                    Some(b'=') => {
                        tokens.push(Token {
                            kind: TokenKind::Le,
                            pos: start,
                        });
                        i += 2;
                    }
                    Some(b'>') => {
                        tokens.push(Token {
                            kind: TokenKind::Ne,
                            pos: start,
                        });
                        i += 2;
                    }
                    _ => {
                        tokens.push(Token {
                            kind: TokenKind::Lt,
                            pos: start,
                        });
                        i += 1;
                    }
                },
                b'>' => {
                    if bytes.get(i + 1) == Some(&b'=') {
                        tokens.push(Token {
                            kind: TokenKind::Ge,
                            pos: start,
                        });
                        i += 2;
                    } else {
                        tokens.push(Token {
                            kind: TokenKind::Gt,
                            pos: start,
                        });
                        i += 1;
                    }
                }
                b'\'' => {
                    let mut s = String::new();
                    i += 1;
                    loop {
                        match bytes.get(i) {
                            None => return Err(ExprError::UnterminatedString { pos: start }),
                            Some(b'\'') => {
                                // Doubled quote is an escaped quote.
                                if bytes.get(i + 1) == Some(&b'\'') {
                                    s.push('\'');
                                    i += 2;
                                } else {
                                    i += 1;
                                    break;
                                }
                            }
                            Some(_) => {
                                // Consume one UTF-8 character.
                                let ch_start = i;
                                i += 1;
                                while i < bytes.len() && (bytes[i] & 0xC0) == 0x80 {
                                    i += 1;
                                }
                                s.push_str(&src[ch_start..i]);
                            }
                        }
                    }
                    tokens.push(Token {
                        kind: TokenKind::Str(s),
                        pos: start,
                    });
                }
                b'0'..=b'9' => {
                    let mut is_float = false;
                    i += 1;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    if i < bytes.len()
                        && bytes[i] == b'.'
                        && bytes.get(i + 1).is_some_and(u8::is_ascii_digit)
                    {
                        is_float = true;
                        i += 1;
                        while i < bytes.len() && bytes[i].is_ascii_digit() {
                            i += 1;
                        }
                    }
                    if i < bytes.len() && (bytes[i] == b'e' || bytes[i] == b'E') {
                        let mut j = i + 1;
                        if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                            j += 1;
                        }
                        if j < bytes.len() && bytes[j].is_ascii_digit() {
                            is_float = true;
                            i = j;
                            while i < bytes.len() && bytes[i].is_ascii_digit() {
                                i += 1;
                            }
                        }
                    }
                    let text = &src[start..i];
                    let kind = if is_float {
                        TokenKind::Float(text.parse().map_err(|_| ExprError::BadNumber {
                            pos: start,
                            text: text.to_string(),
                        })?)
                    } else {
                        TokenKind::Int(text.parse().map_err(|_| ExprError::BadNumber {
                            pos: start,
                            text: text.to_string(),
                        })?)
                    };
                    tokens.push(Token { kind, pos: start });
                }
                b'A'..=b'Z' | b'a'..=b'z' | b'_' => {
                    i += 1;
                    while i < bytes.len()
                        && (bytes[i].is_ascii_alphanumeric()
                            || bytes[i] == b'_'
                            || bytes[i] == b'.')
                    {
                        i += 1;
                    }
                    tokens.push(Token {
                        kind: TokenKind::Ident(src[start..i].to_string()),
                        pos: start,
                    });
                }
                _ => {
                    let ch = src[start..].chars().next().unwrap_or('?');
                    return Err(ExprError::Lex { pos: start, ch });
                }
            }
        }
        Ok(tokens)
    }

    /// Parse a complete expression; trailing tokens are an error.
    pub(crate) fn parse(src: &str) -> Result<Expr, ExprError> {
        let tokens = tokenize(src)?;
        let mut p = Parser {
            tokens,
            pos: 0,
            src_len: src.len(),
        };
        let expr = p.parse_or()?;
        if let Some(t) = p.peek() {
            return Err(ExprError::Syntax {
                pos: t.pos,
                message: format!("unexpected trailing token `{}`", t.kind),
            });
        }
        Ok(expr)
    }

    struct Parser {
        tokens: Vec<Token>,
        pos: usize,
        src_len: usize,
    }

    impl Parser {
        fn peek(&self) -> Option<&Token> {
            self.tokens.get(self.pos)
        }

        fn next(&mut self) -> Option<Token> {
            let t = self.tokens.get(self.pos).cloned();
            if t.is_some() {
                self.pos += 1;
            }
            t
        }

        fn here(&self) -> usize {
            self.peek().map_or(self.src_len, |t| t.pos)
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

        fn parse_or(&mut self) -> Result<Expr, ExprError> {
            let mut left = self.parse_and()?;
            while self.peek_keyword("or") {
                self.next();
                let right = self.parse_and()?;
                left = Expr::binary(BinOp::Or, left, right);
            }
            Ok(left)
        }

        fn parse_and(&mut self) -> Result<Expr, ExprError> {
            let mut left = self.parse_cmp()?;
            while self.peek_keyword("and") {
                self.next();
                let right = self.parse_cmp()?;
                left = Expr::binary(BinOp::And, left, right);
            }
            Ok(left)
        }

        fn parse_cmp(&mut self) -> Result<Expr, ExprError> {
            let left = self.parse_add()?;
            let op = match self.peek().map(|t| &t.kind) {
                Some(TokenKind::Eq) => Some(BinOp::Eq),
                Some(TokenKind::Ne) => Some(BinOp::Ne),
                Some(TokenKind::Lt) => Some(BinOp::Lt),
                Some(TokenKind::Le) => Some(BinOp::Le),
                Some(TokenKind::Gt) => Some(BinOp::Gt),
                Some(TokenKind::Ge) => Some(BinOp::Ge),
                _ => None,
            };
            if let Some(op) = op {
                self.next();
                let right = self.parse_add()?;
                // Non-associative: a second comparison operator is an error and
                // will surface as a trailing-token / unexpected-token error in
                // the caller.
                Ok(Expr::binary(op, left, right))
            } else {
                Ok(left)
            }
        }

        fn parse_add(&mut self) -> Result<Expr, ExprError> {
            let mut left = self.parse_mul()?;
            loop {
                let op = match self.peek().map(|t| &t.kind) {
                    Some(TokenKind::Plus) => BinOp::Add,
                    Some(TokenKind::Minus) => BinOp::Sub,
                    _ => break,
                };
                self.next();
                let right = self.parse_mul()?;
                left = Expr::binary(op, left, right);
            }
            Ok(left)
        }

        fn parse_mul(&mut self) -> Result<Expr, ExprError> {
            let mut left = self.parse_unary()?;
            loop {
                let op = match self.peek().map(|t| &t.kind) {
                    Some(TokenKind::Star) => BinOp::Mul,
                    Some(TokenKind::Slash) => BinOp::Div,
                    Some(TokenKind::Percent) => BinOp::Mod,
                    _ => break,
                };
                self.next();
                let right = self.parse_unary()?;
                left = Expr::binary(op, left, right);
            }
            Ok(left)
        }

        fn parse_unary(&mut self) -> Result<Expr, ExprError> {
            if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Minus)) {
                self.next();
                // Fold negation into numeric literals so `-3` prints back as `-3`
                // rather than `-(3)`.
                let inner = self.parse_unary()?;
                return Ok(match inner {
                    Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                    Expr::Literal(Value::Float(x)) => Expr::Literal(Value::Float(-x)),
                    other => Expr::unary(UnOp::Neg, other),
                });
            }
            if self.peek_keyword("not") {
                self.next();
                let inner = self.parse_unary()?;
                return Ok(Expr::unary(UnOp::Not, inner));
            }
            self.parse_primary()
        }

        fn parse_primary(&mut self) -> Result<Expr, ExprError> {
            let pos = self.here();
            match self.next() {
                Some(Token {
                    kind: TokenKind::Int(i),
                    ..
                }) => Ok(Expr::Literal(Value::Int(i))),
                Some(Token {
                    kind: TokenKind::Float(x),
                    ..
                }) => Ok(Expr::Literal(Value::Float(x))),
                Some(Token {
                    kind: TokenKind::Str(s),
                    ..
                }) => Ok(Expr::Literal(Value::Str(s))),
                Some(Token {
                    kind: TokenKind::LParen,
                    ..
                }) => {
                    let e = self.parse_or()?;
                    self.expect(&TokenKind::RParen, "`)`")?;
                    Ok(e)
                }
                Some(Token {
                    kind: TokenKind::Ident(name),
                    ..
                }) => {
                    let lower = name.to_ascii_lowercase();
                    match lower.as_str() {
                        "true" => return Ok(Expr::Literal(Value::Bool(true))),
                        "false" => return Ok(Expr::Literal(Value::Bool(false))),
                        "null" => return Ok(Expr::Literal(Value::Null)),
                        _ => {}
                    }
                    if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::LParen)) {
                        self.next();
                        let mut args = Vec::new();
                        if !matches!(self.peek().map(|t| &t.kind), Some(TokenKind::RParen)) {
                            loop {
                                args.push(self.parse_or()?);
                                if matches!(self.peek().map(|t| &t.kind), Some(TokenKind::Comma)) {
                                    self.next();
                                } else {
                                    break;
                                }
                            }
                        }
                        self.expect(&TokenKind::RParen, "`)` to close argument list")?;
                        Ok(Expr::Call {
                            function: lower,
                            args,
                        })
                    } else {
                        // Attribute names keep their case: sensor schemas may be
                        // case-sensitive.
                        Ok(Expr::Attr(name))
                    }
                }
                Some(t) => Err(ExprError::Syntax {
                    pos: t.pos,
                    message: format!("expected an expression, found `{}`", t.kind),
                }),
                None => Err(ExprError::Syntax {
                    pos,
                    message: "expected an expression, found end of input".into(),
                }),
            }
        }
    }
}

mod reference_dsn {
    use streamloader::dsn::ast::{
        ChannelDecl, DsnDocument, ServiceDecl, SinkDecl, SinkKind, SourceDecl, SourceMode,
    };
    use streamloader::dsn::DsnError;
    use streamloader::netsim::QosSpec;
    use streamloader::ops::{AggFunc, OpSpec};
    use streamloader::pubsub::{SensorKind, SubscriptionFilter};
    use streamloader::stt::{
        AttrType, BoundingBox, Duration, GeoPoint, Theme, TimeInterval, Timestamp,
    };

    /// Parse a DSN document from text.
    pub(crate) fn parse_document(src: &str) -> Result<DsnDocument, DsnError> {
        let mut c = Cursor::new(src);
        c.skip_ws();
        c.expect_word("dsn")?;
        let name = c.read_dq_string()?;
        c.expect_char('{')?;
        let mut doc = DsnDocument::new(&name);
        loop {
            c.skip_ws();
            if c.try_char('}') {
                break;
            }
            let kw = c.read_ident()?;
            match kw.as_str() {
                "source" => {
                    let name = c.read_ident()?;
                    let props = c.read_block()?;
                    doc.sources.push(build_source(&name, props, c.line)?);
                }
                "service" => {
                    let name = c.read_ident()?;
                    let props = c.read_block()?;
                    doc.services.push(build_service(&name, props, c.line)?);
                }
                "sink" => {
                    let name = c.read_ident()?;
                    let props = c.read_block()?;
                    doc.sinks.push(build_sink(&name, props, c.line)?);
                }
                "channel" => {
                    let from = c.read_ident()?;
                    c.expect_word("->")?;
                    let to = c.read_ident()?;
                    let props = c.read_block()?;
                    doc.channels.push(build_channel(&from, &to, props, c.line)?);
                }
                other => {
                    return Err(c.err(format!(
                        "expected source/service/sink/channel, found `{other}`"
                    )));
                }
            }
        }
        c.skip_ws();
        if !c.at_end() {
            return Err(c.err("trailing content after closing `}`".into()));
        }
        Ok(doc)
    }

    // ---------------------------------------------------------------------------
    // Cursor
    // ---------------------------------------------------------------------------

    struct Cursor<'a> {
        src: &'a [u8],
        text: &'a str,
        pos: usize,
        line: usize,
    }

    type Props = Vec<(String, String, usize)>; // key, raw value, line

    impl<'a> Cursor<'a> {
        fn new(text: &'a str) -> Cursor<'a> {
            Cursor {
                src: text.as_bytes(),
                text,
                pos: 0,
                line: 1,
            }
        }

        fn err(&self, message: String) -> DsnError {
            DsnError::Parse {
                line: self.line,
                message,
            }
        }

        fn at_end(&self) -> bool {
            self.pos >= self.src.len()
        }

        fn bump(&mut self) -> Option<u8> {
            let b = self.src.get(self.pos).copied();
            if let Some(b) = b {
                self.pos += 1;
                if b == b'\n' {
                    self.line += 1;
                }
            }
            b
        }

        fn peek(&self) -> Option<u8> {
            self.src.get(self.pos).copied()
        }

        fn skip_ws(&mut self) {
            loop {
                match self.peek() {
                    Some(b' ' | b'\t' | b'\r' | b'\n') => {
                        self.bump();
                    }
                    Some(b'#') => {
                        while let Some(b) = self.bump() {
                            if b == b'\n' {
                                break;
                            }
                        }
                    }
                    _ => break,
                }
            }
        }

        fn try_char(&mut self, ch: char) -> bool {
            self.skip_ws();
            if self.peek() == Some(ch as u8) {
                self.bump();
                true
            } else {
                false
            }
        }

        fn expect_char(&mut self, ch: char) -> Result<(), DsnError> {
            if self.try_char(ch) {
                Ok(())
            } else {
                Err(self.err(format!("expected `{ch}`")))
            }
        }

        fn expect_word(&mut self, word: &str) -> Result<(), DsnError> {
            self.skip_ws();
            if self.text[self.pos..].starts_with(word) {
                for _ in 0..word.len() {
                    self.bump();
                }
                Ok(())
            } else {
                Err(self.err(format!("expected `{word}`")))
            }
        }

        fn read_ident(&mut self) -> Result<String, DsnError> {
            self.skip_ws();
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.' || b == b'/' {
                    self.bump();
                } else {
                    break;
                }
            }
            if self.pos == start {
                return Err(self.err("expected an identifier".into()));
            }
            Ok(self.text[start..self.pos].to_string())
        }

        fn read_dq_string(&mut self) -> Result<String, DsnError> {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a double-quoted string".into()));
            }
            self.bump();
            let mut out = String::new();
            loop {
                match self.bump() {
                    None => return Err(self.err("unterminated string".into())),
                    Some(b'\\') => match self.bump() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b) => {
                            out.push('\\');
                            out.push(b as char);
                        }
                        None => return Err(self.err("unterminated escape".into())),
                    },
                    Some(b'"') => break,
                    Some(_) => {
                        // Re-read the full UTF-8 character.
                        let start = self.pos - 1;
                        while self.peek().is_some_and(|b| (b & 0xC0) == 0x80) {
                            self.bump();
                        }
                        out.push_str(&self.text[start..self.pos]);
                    }
                }
            }
            Ok(out)
        }

        /// Read a `{ key: value; ... }` block, values raw (quotes respected).
        fn read_block(&mut self) -> Result<Props, DsnError> {
            self.expect_char('{')?;
            let mut props = Vec::new();
            loop {
                self.skip_ws();
                if self.try_char('}') {
                    break;
                }
                let key = self.read_ident()?;
                self.expect_char(':')?;
                let line = self.line;
                let value = self.read_raw_value()?;
                props.push((key, value, line));
            }
            Ok(props)
        }

        /// Raw property value: everything up to the terminating `;`, skipping
        /// over single-quoted segments (with `''` escaping).
        fn read_raw_value(&mut self) -> Result<String, DsnError> {
            self.skip_ws();
            let start = self.pos;
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated property (missing `;`)".into())),
                    Some(b';') => {
                        let raw = self.text[start..self.pos].trim().to_string();
                        self.bump();
                        return Ok(raw);
                    }
                    Some(b'\'') => {
                        self.bump();
                        loop {
                            match self.bump() {
                                None => return Err(self.err("unterminated quoted value".into())),
                                Some(b'\'') => {
                                    if self.peek() == Some(b'\'') {
                                        self.bump();
                                    } else {
                                        break;
                                    }
                                }
                                Some(_) => {}
                            }
                        }
                    }
                    Some(_) => {
                        self.bump();
                    }
                }
            }
        }
    }

    // ---------------------------------------------------------------------------
    // Declaration builders
    // ---------------------------------------------------------------------------

    fn perr(line: usize, message: String) -> DsnError {
        DsnError::Parse { line, message }
    }

    fn take<'p>(props: &'p Props, key: &str) -> Option<&'p (String, String, usize)> {
        props.iter().find(|(k, _, _)| k == key)
    }

    fn require<'p>(props: &'p Props, key: &str, line: usize) -> Result<&'p str, DsnError> {
        take(props, key)
            .map(|(_, v, _)| v.as_str())
            .ok_or_else(|| perr(line, format!("missing required property `{key}`")))
    }

    /// Strip single quotes from a quoted value (or return it raw).
    fn unquote(v: &str) -> String {
        let v = v.trim();
        if v.len() >= 2 && v.starts_with('\'') && v.ends_with('\'') {
            v[1..v.len() - 1].replace("''", "'")
        } else {
            v.to_string()
        }
    }

    /// Split on top-level commas, respecting single quotes.
    fn split_commas(v: &str) -> Vec<String> {
        let mut parts = Vec::new();
        let mut cur = String::new();
        let mut in_q = false;
        let mut chars = v.chars().peekable();
        while let Some(ch) = chars.next() {
            match ch {
                '\'' => {
                    if in_q && chars.peek() == Some(&'\'') {
                        cur.push('\'');
                        cur.push(chars.next().expect("peeked"));
                    } else {
                        in_q = !in_q;
                        cur.push('\'');
                    }
                }
                ',' if !in_q => {
                    parts.push(cur.trim().to_string());
                    cur.clear();
                }
                _ => cur.push(ch),
            }
        }
        if !cur.trim().is_empty() {
            parts.push(cur.trim().to_string());
        }
        parts
    }

    fn parse_u64(v: &str, what: &str, line: usize) -> Result<u64, DsnError> {
        v.trim()
            .parse::<u64>()
            .map_err(|_| perr(line, format!("`{v}` is not a valid {what}")))
    }

    fn parse_f64(v: &str, what: &str, line: usize) -> Result<f64, DsnError> {
        v.trim()
            .parse::<f64>()
            .map_err(|_| perr(line, format!("`{v}` is not a valid {what}")))
    }

    /// Parse `(lat, lon)..(lat, lon)` into a bounding box.
    fn parse_box(v: &str, line: usize) -> Result<BoundingBox, DsnError> {
        let parts: Vec<&str> = v.split("..").collect();
        if parts.len() != 2 {
            return Err(perr(
                line,
                format!("`{v}` is not a `(lat, lon)..(lat, lon)` box"),
            ));
        }
        let mut corners = Vec::with_capacity(2);
        for p in parts {
            let p = p.trim();
            let inner = p
                .strip_prefix('(')
                .and_then(|s| s.strip_suffix(')'))
                .ok_or_else(|| perr(line, format!("`{p}` is not a `(lat, lon)` pair")))?;
            let nums: Vec<&str> = inner.split(',').collect();
            if nums.len() != 2 {
                return Err(perr(line, format!("`{p}` is not a `(lat, lon)` pair")));
            }
            let lat = parse_f64(nums[0], "latitude", line)?;
            let lon = parse_f64(nums[1], "longitude", line)?;
            corners.push(GeoPoint::new(lat, lon).map_err(|e| perr(line, e.to_string()))?);
        }
        Ok(BoundingBox::from_corners(corners[0], corners[1]))
    }

    /// Parse a DSN filter expression (the inverse of
    /// [`sl_dsn::printer::print_filter`]).
    pub(crate) fn parse_filter(v: &str, line: usize) -> Result<SubscriptionFilter, DsnError> {
        let v = v.trim();
        if v == "any" {
            return Ok(SubscriptionFilter::any());
        }
        let mut f = SubscriptionFilter::any();
        for part in v.split('&') {
            let part = part.trim();
            if let Some(theme) = part.strip_prefix("theme=") {
                f.theme = Some(Theme::new(theme).map_err(|e| perr(line, e.to_string()))?);
            } else if let Some(area) = part.strip_prefix("area=") {
                f.area = Some(parse_box(area, line)?);
            } else if let Some(kind) = part.strip_prefix("kind=") {
                f.kind = Some(match kind.trim() {
                    "physical" => SensorKind::Physical,
                    "social" => SensorKind::Social,
                    other => return Err(perr(line, format!("unknown sensor kind `{other}`"))),
                });
            } else if let Some(req) = part.strip_prefix("has ") {
                let (name, ty) = req
                    .split_once(':')
                    .ok_or_else(|| perr(line, format!("`{req}` is not `name:type`")))?;
                let ty = AttrType::parse(ty).map_err(|e| perr(line, e.to_string()))?;
                f.required_attrs.push((name.trim().to_string(), ty));
            } else if let Some(glob) = part.strip_prefix("name~") {
                f.name_glob = Some(glob.trim().to_string());
            } else if let Some(p) = part.strip_prefix("period<=") {
                f.max_period = Some(Duration::from_millis(parse_u64(p, "period", line)?));
            } else if let Some(req) = part.strip_prefix("unit ") {
                let (name, unit) = req
                    .split_once('=')
                    .ok_or_else(|| perr(line, format!("`{req}` is not `attr=unit`")))?;
                let unit = sl_stt::Unit::parse(unit).map_err(|e| perr(line, e.to_string()))?;
                f.required_units.push((name.trim().to_string(), unit));
            } else {
                return Err(perr(line, format!("unknown filter constraint `{part}`")));
            }
        }
        Ok(f)
    }

    /// Parse a QoS value (the inverse of [`sl_dsn::printer::print_qos`]).
    pub(crate) fn parse_qos(v: &str, line: usize) -> Result<QosSpec, DsnError> {
        let v = v.trim();
        if v == "best-effort" {
            return Ok(QosSpec::best_effort());
        }
        let mut q = QosSpec::best_effort();
        for part in v.split(',') {
            let part = part.trim();
            if let Some(l) = part.strip_prefix("latency<=") {
                q.max_latency = Some(Duration::from_millis(parse_u64(l, "latency", line)?));
            } else if let Some(b) = part.strip_prefix("bandwidth>=") {
                q.min_bandwidth_bps = Some(parse_u64(b, "bandwidth", line)?);
            } else {
                return Err(perr(line, format!("unknown QoS constraint `{part}`")));
            }
        }
        Ok(q)
    }

    fn build_source(name: &str, props: Props, line: usize) -> Result<SourceDecl, DsnError> {
        let filter = parse_filter(require(&props, "filter", line)?, line)?;
        let mode = match take(&props, "mode").map(|(_, v, _)| v.as_str()) {
            None | Some("active") => SourceMode::Active,
            Some("gated") => SourceMode::Gated,
            Some(other) => return Err(perr(line, format!("unknown source mode `{other}`"))),
        };
        Ok(SourceDecl {
            name: name.to_string(),
            filter,
            mode,
        })
    }

    fn parse_names(v: &str) -> Vec<String> {
        split_commas(v)
            .into_iter()
            .filter(|s| !s.is_empty())
            .collect()
    }

    fn build_service(name: &str, props: Props, line: usize) -> Result<ServiceDecl, DsnError> {
        let op = require(&props, "op", line)?;
        let period = |key: &str| -> Result<Duration, DsnError> {
            Ok(Duration::from_millis(parse_u64(
                require(&props, key, line)?,
                "period",
                line,
            )?))
        };
        let spec = match op {
            "filter" => OpSpec::Filter {
                condition: unquote(require(&props, "condition", line)?),
            },
            "transform" => {
                let raw = require(&props, "assign", line)?;
                let mut assignments = Vec::new();
                for part in split_commas(raw) {
                    let (attr, expr) = part
                        .split_once(":=")
                        .ok_or_else(|| perr(line, format!("`{part}` is not `attr := 'expr'`")))?;
                    assignments.push((attr.trim().to_string(), unquote(expr)));
                }
                OpSpec::Transform { assignments }
            }
            "virtual_property" => OpSpec::VirtualProperty {
                property: require(&props, "property", line)?.to_string(),
                spec: unquote(require(&props, "spec", line)?),
            },
            "cull_time" => {
                let raw = require(&props, "interval", line)?;
                let (a, b) = raw
                    .split_once("..")
                    .ok_or_else(|| perr(line, format!("`{raw}` is not `start..end`")))?;
                let start = a
                    .trim()
                    .parse::<i64>()
                    .map_err(|_| perr(line, format!("bad interval start `{a}`")))?;
                let end = b
                    .trim()
                    .parse::<i64>()
                    .map_err(|_| perr(line, format!("bad interval end `{b}`")))?;
                if end < start {
                    return Err(perr(line, "interval end before start".into()));
                }
                OpSpec::CullTime {
                    interval: TimeInterval::new(
                        Timestamp::from_millis(start),
                        Timestamp::from_millis(end),
                    ),
                    rate: parse_u64(require(&props, "rate", line)?, "rate", line)?,
                }
            }
            "cull_space" => OpSpec::CullSpace {
                area: parse_box(require(&props, "area", line)?, line)?,
                rate: parse_u64(require(&props, "rate", line)?, "rate", line)?,
            },
            "aggregate" => OpSpec::Aggregate {
                period: period("period")?,
                group_by: take(&props, "group_by")
                    .map(|(_, v, _)| parse_names(v))
                    .unwrap_or_default(),
                func: AggFunc::parse(require(&props, "func", line)?)
                    .map_err(|e| perr(line, e.to_string()))?,
                attr: take(&props, "attr").map(|(_, v, _)| v.to_string()),
                sliding: match take(&props, "sliding") {
                    Some((_, v, l)) => {
                        Some(Duration::from_millis(parse_u64(v, "sliding span", *l)?))
                    }
                    None => None,
                },
            },
            "join" => OpSpec::Join {
                period: period("period")?,
                predicate: unquote(require(&props, "predicate", line)?),
            },
            "trigger_on" => OpSpec::TriggerOn {
                period: period("period")?,
                condition: unquote(require(&props, "condition", line)?),
                targets: parse_names(require(&props, "targets", line)?),
            },
            "trigger_off" => OpSpec::TriggerOff {
                period: period("period")?,
                condition: unquote(require(&props, "condition", line)?),
                targets: parse_names(require(&props, "targets", line)?),
            },
            other => return Err(perr(line, format!("unknown operation `{other}`"))),
        };
        let inputs = parse_names(require(&props, "inputs", line)?);
        Ok(ServiceDecl {
            name: name.to_string(),
            spec,
            inputs,
        })
    }

    fn build_sink(name: &str, props: Props, line: usize) -> Result<SinkDecl, DsnError> {
        let kind = SinkKind::parse(require(&props, "kind", line)?)
            .ok_or_else(|| perr(line, "unknown sink kind".into()))?;
        let inputs = parse_names(require(&props, "inputs", line)?);
        Ok(SinkDecl {
            name: name.to_string(),
            kind,
            inputs,
        })
    }

    fn build_channel(
        from: &str,
        to: &str,
        props: Props,
        line: usize,
    ) -> Result<ChannelDecl, DsnError> {
        let qos = parse_qos(require(&props, "qos", line)?, line)?;
        Ok(ChannelDecl {
            from: from.to_string(),
            to: to.to_string(),
            qos,
        })
    }
}

mod reference_json {
    use std::collections::BTreeMap;
    use streamloader::obs::json::{Json, ParseError};

    /// Parse a complete JSON document (rejects trailing garbage).
    pub(crate) fn parse(input: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(v)
    }

    struct Parser<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl Parser<'_> {
        fn err(&self, msg: &str) -> ParseError {
            ParseError {
                at: self.pos,
                msg: msg.to_string(),
            }
        }

        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn expect(&mut self, b: u8) -> Result<(), ParseError> {
            if self.peek() == Some(b) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.err(&format!("expected '{}'", b as char)))
            }
        }

        fn value(&mut self) -> Result<Json, ParseError> {
            self.skip_ws();
            match self.peek() {
                Some(b'{') => self.object(),
                Some(b'[') => self.array(),
                Some(b'"') => Ok(Json::Str(self.string()?)),
                Some(b't') => self.literal("true", Json::Bool(true)),
                Some(b'f') => self.literal("false", Json::Bool(false)),
                Some(b'n') => self.literal("null", Json::Null),
                Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
                _ => Err(self.err("expected a JSON value")),
            }
        }

        fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
            if self.bytes[self.pos..].starts_with(word.as_bytes()) {
                self.pos += word.len();
                Ok(value)
            } else {
                Err(self.err(&format!("expected '{word}'")))
            }
        }

        fn number(&mut self) -> Result<Json, ParseError> {
            let start = self.pos;
            if self.peek() == Some(b'-') {
                self.pos += 1;
            }
            while let Some(b) = self.peek() {
                if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
            text.parse::<f64>().map(Json::Num).map_err(|_| ParseError {
                at: start,
                msg: format!("invalid number '{text}'"),
            })
        }

        fn string(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.err("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.err("invalid \\u escape"))?;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                                self.pos += 4;
                            }
                            _ => return Err(self.err("invalid escape")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (input is a &str, so slicing
                        // on char boundaries is safe).
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| self.err("invalid UTF-8"))?;
                        let Some(c) = rest.chars().next() else {
                            return Err(self.err("unterminated string"));
                        };
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Json, ParseError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek() == Some(b']') {
                self.pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(self.value()?);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b']') => {
                        self.pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(self.err("expected ',' or ']'")),
                }
            }
        }

        fn object(&mut self) -> Result<Json, ParseError> {
            self.expect(b'{')?;
            let mut map = BTreeMap::new();
            self.skip_ws();
            if self.peek() == Some(b'}') {
                self.pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                let value = self.value()?;
                map.insert(key, value);
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                    }
                    Some(b'}') => {
                        self.pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(self.err("expected ',' or '}'")),
                }
            }
        }
    }
}
