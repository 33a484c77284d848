//! Tokenisation of expression source text.

use crate::error::ExprError;
use sl_obs::text::{unescape_quotes, Cursor};
use std::fmt;

/// One lexical token with its byte offset in the source.
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokenKind,
    /// Byte offset where the token starts.
    pub pos: usize,
}

/// The kinds of token the language has.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// Single-quoted string literal (quotes doubled to escape).
    Str(String),
    /// Identifier or keyword (`and`, `or`, `not`, `true`, `false`, `null`
    /// are recognised by the parser, not the lexer).
    Ident(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `!=` (also `<>`)
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Int(i) => write!(f, "{i}"),
            TokenKind::Float(x) => write!(f, "{x}"),
            TokenKind::Str(s) => write!(f, "'{s}'"),
            TokenKind::Ident(s) => write!(f, "{s}"),
            TokenKind::LParen => write!(f, "("),
            TokenKind::RParen => write!(f, ")"),
            TokenKind::Comma => write!(f, ","),
            TokenKind::Plus => write!(f, "+"),
            TokenKind::Minus => write!(f, "-"),
            TokenKind::Star => write!(f, "*"),
            TokenKind::Slash => write!(f, "/"),
            TokenKind::Percent => write!(f, "%"),
            TokenKind::Eq => write!(f, "="),
            TokenKind::Ne => write!(f, "!="),
            TokenKind::Lt => write!(f, "<"),
            TokenKind::Le => write!(f, "<="),
            TokenKind::Gt => write!(f, ">"),
            TokenKind::Ge => write!(f, ">="),
        }
    }
}

/// Tokenise the whole source string.
pub fn tokenize(src: &str) -> Result<Vec<Token>, ExprError> {
    let mut c = Cursor::new(src);
    let mut tokens = Vec::new();
    loop {
        c.skip_ws(None);
        let pos = c.pos();
        let kind = match c.peek() {
            None => return Ok(tokens),
            Some(b'\'') => match c.quoted() {
                Some(body) => TokenKind::Str(unescape_quotes(body)),
                None => return Err(ExprError::UnterminatedString { pos }),
            },
            Some(b'0'..=b'9') => number(&mut c)?,
            Some(b'A'..=b'Z' | b'a'..=b'z' | b'_') => TokenKind::Ident(
                c.take_while(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
                    .to_string(),
            ),
            Some(_) => operator(&mut c, pos)?,
        };
        tokens.push(Token { kind, pos });
    }
}

/// An operator or bracket; `=` may be written `==` and `!=` as `<>`.
fn operator(c: &mut Cursor, pos: usize) -> Result<TokenKind, ExprError> {
    let ch = c.bump().unwrap_or_default();
    // Each `if c.eat(..)` guard reads the second character of a
    // two-character operator, and only when it is there.
    Ok(match ch {
        '(' => TokenKind::LParen,
        ')' => TokenKind::RParen,
        ',' => TokenKind::Comma,
        '+' => TokenKind::Plus,
        '-' => TokenKind::Minus,
        '*' => TokenKind::Star,
        '/' => TokenKind::Slash,
        '%' => TokenKind::Percent,
        '=' => {
            c.eat(b'=');
            TokenKind::Eq
        }
        '!' if c.eat(b'=') => TokenKind::Ne,
        '<' if c.eat(b'=') => TokenKind::Le,
        '<' if c.eat(b'>') => TokenKind::Ne,
        '<' => TokenKind::Lt,
        '>' if c.eat(b'=') => TokenKind::Ge,
        '>' => TokenKind::Gt,
        _ => return Err(ExprError::Lex { pos, ch }),
    })
}

/// Digits, then an optional `.digits` and `e[+-]digits`: a float when
/// either is present.
fn number(c: &mut Cursor) -> Result<TokenKind, ExprError> {
    let pos = c.pos();
    let digits = |b: u8| b.is_ascii_digit();
    c.take_while(digits);
    let fraction = matches!(c.rest().as_bytes(), [b'.', b'0'..=b'9', ..]);
    if fraction {
        c.bump();
        c.take_while(digits);
    }
    let exponent = match c.rest().as_bytes() {
        [b'e' | b'E', b'0'..=b'9', ..] => 1,
        [b'e' | b'E', b'+' | b'-', b'0'..=b'9', ..] => 2,
        _ => 0,
    };
    if exponent > 0 {
        for _ in 0..exponent {
            c.bump();
        }
        c.take_while(digits);
    }
    let text = c.since(pos);
    let bad = || ExprError::BadNumber {
        pos,
        text: text.to_string(),
    };
    Ok(if fraction || exponent > 0 {
        TokenKind::Float(text.parse().map_err(|_| bad())?)
    } else {
        TokenKind::Int(text.parse().map_err(|_| bad())?)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn basic_tokens() {
        assert_eq!(
            kinds("a + 1 * 2.5"),
            vec![
                TokenKind::Ident("a".into()),
                TokenKind::Plus,
                TokenKind::Int(1),
                TokenKind::Star,
                TokenKind::Float(2.5),
            ]
        );
    }

    #[test]
    fn comparisons_and_aliases() {
        assert_eq!(kinds("a = b"), kinds("a == b"));
        assert_eq!(kinds("a != b"), kinds("a <> b"));
        assert_eq!(
            kinds("< <= > >="),
            vec![TokenKind::Lt, TokenKind::Le, TokenKind::Gt, TokenKind::Ge]
        );
    }

    #[test]
    fn string_literals_with_escapes() {
        assert_eq!(kinds("'hello'"), vec![TokenKind::Str("hello".into())]);
        assert_eq!(kinds("'it''s'"), vec![TokenKind::Str("it's".into())]);
        assert_eq!(kinds("'日本'"), vec![TokenKind::Str("日本".into())]);
    }

    #[test]
    fn unterminated_string_fails() {
        assert!(matches!(
            tokenize("'oops"),
            Err(ExprError::UnterminatedString { pos: 0 })
        ));
    }

    #[test]
    fn scientific_notation() {
        assert_eq!(kinds("1e3"), vec![TokenKind::Float(1000.0)]);
        assert_eq!(kinds("2.5e-2"), vec![TokenKind::Float(0.025)]);
        // `e` not followed by digits is a separate identifier.
        assert_eq!(
            kinds("1 e"),
            vec![TokenKind::Int(1), TokenKind::Ident("e".into())]
        );
    }

    #[test]
    fn stray_dot_is_an_error() {
        // A dot is only meaningful inside a float or identifier.
        assert!(matches!(
            tokenize("1 . 2"),
            Err(ExprError::Lex { ch: '.', .. })
        ));
    }

    #[test]
    fn identifiers_allow_underscore_and_dot() {
        assert_eq!(
            kinds("_lat weather.temp right_station"),
            vec![
                TokenKind::Ident("_lat".into()),
                TokenKind::Ident("weather.temp".into()),
                TokenKind::Ident("right_station".into()),
            ]
        );
    }

    #[test]
    fn rejects_stray_characters() {
        assert!(matches!(
            tokenize("a # b"),
            Err(ExprError::Lex { ch: '#', .. })
        ));
        assert!(matches!(
            tokenize("a ! b"),
            Err(ExprError::Lex { ch: '!', .. })
        ));
    }

    #[test]
    fn positions_recorded() {
        let toks = tokenize("ab + cd").unwrap();
        assert_eq!(toks[0].pos, 0);
        assert_eq!(toks[1].pos, 3);
        assert_eq!(toks[2].pos, 5);
    }

    #[test]
    fn whitespace_only_is_empty() {
        assert!(tokenize("  \t\n ").unwrap().is_empty());
    }
}
