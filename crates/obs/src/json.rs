//! Minimal JSON reader/writer used by the snapshot format.
//!
//! Std-only by design (the build environment has no registry access), this
//! supports exactly the JSON subset a [`crate::MetricsSnapshot`] emits:
//! objects, arrays, strings, unsigned/signed integers, and `null`/booleans
//! on the read side. Floats are intentionally not produced by the writer —
//! gauges are integral — but the parser accepts them and truncates.

use crate::text::Cursor;
use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, kept as f64 (integral values round-trip exactly up
    /// to 2^53, far beyond any latency or count this system snapshots).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// The value as an object, if it is one.
    #[must_use]
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is a non-negative number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as a signed integer, if it is a number.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Json::Num(n) => Some(*n as i64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Append a JSON-escaped string literal (with quotes) to `out`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// How many arrays and objects may enclose one another. The reader
/// recurses once per level, so this bound is what keeps a hostile document
/// from exhausting the stack; a snapshot nests three deep.
pub const MAX_NESTING: usize = 128;

/// Parse a complete JSON document (rejects trailing garbage).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut c = Cursor::new(input);
    let v = value(&mut c, 0)?;
    c.skip_ws(None);
    if !c.at_end() {
        return Err(err(&c, "trailing characters after document"));
    }
    Ok(v)
}

fn fail(at: usize, msg: &str) -> ParseError {
    ParseError {
        at,
        msg: msg.to_string(),
    }
}

fn err(c: &Cursor, msg: &str) -> ParseError {
    fail(c.pos(), msg)
}

fn expect(c: &mut Cursor, b: u8) -> Result<(), ParseError> {
    if c.eat(b) {
        Ok(())
    } else {
        Err(err(c, &format!("expected '{}'", b as char)))
    }
}

/// One value, inside `depth` arrays and objects.
fn value(c: &mut Cursor, depth: usize) -> Result<Json, ParseError> {
    c.skip_ws(None);
    match c.peek() {
        Some(b'{' | b'[') if depth == MAX_NESTING => Err(err(
            c,
            &format!("nested deeper than {MAX_NESTING} arrays and objects"),
        )),
        Some(b'{') => object(c, depth + 1),
        Some(b'[') => array(c, depth + 1),
        Some(b'"') => Ok(Json::Str(string(c)?)),
        Some(b't') => literal(c, "true", Json::Bool(true)),
        Some(b'f') => literal(c, "false", Json::Bool(false)),
        Some(b'n') => literal(c, "null", Json::Null),
        Some(b) if b == b'-' || b.is_ascii_digit() => number(c),
        _ => Err(err(c, "expected a JSON value")),
    }
}

fn literal(c: &mut Cursor, word: &str, value: Json) -> Result<Json, ParseError> {
    if c.eat_str(word) {
        Ok(value)
    } else {
        Err(err(c, &format!("expected '{word}'")))
    }
}

fn number(c: &mut Cursor) -> Result<Json, ParseError> {
    let start = c.pos();
    c.take_while(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'));
    let text = c.since(start);
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| fail(start, &format!("invalid number '{text}'")))
}

fn string(c: &mut Cursor) -> Result<String, ParseError> {
    expect(c, b'"')?;
    let mut out = String::new();
    loop {
        match c.bump() {
            None => return Err(err(c, "unterminated string")),
            Some('"') => return Ok(out),
            Some('\\') => {
                let at = c.pos();
                out.push(match c.bump() {
                    Some('"') => '"',
                    Some('\\') => '\\',
                    Some('/') => '/',
                    Some('n') => '\n',
                    Some('r') => '\r',
                    Some('t') => '\t',
                    Some('u') => {
                        let hex = c
                            .rest()
                            .get(..4)
                            .ok_or_else(|| fail(at, "truncated \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| fail(at, "invalid \\u escape"))?;
                        c.eat_str(hex);
                        char::from_u32(code).unwrap_or('\u{fffd}')
                    }
                    _ => return Err(fail(at, "invalid escape")),
                });
            }
            Some(ch) => out.push(ch),
        }
    }
}

fn array(c: &mut Cursor, depth: usize) -> Result<Json, ParseError> {
    expect(c, b'[')?;
    let mut items = Vec::new();
    c.skip_ws(None);
    if c.eat(b']') {
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(value(c, depth)?);
        c.skip_ws(None);
        if c.eat(b']') {
            return Ok(Json::Arr(items));
        }
        if !c.eat(b',') {
            return Err(err(c, "expected ',' or ']'"));
        }
    }
}

fn object(c: &mut Cursor, depth: usize) -> Result<Json, ParseError> {
    expect(c, b'{')?;
    let mut map = BTreeMap::new();
    c.skip_ws(None);
    if c.eat(b'}') {
        return Ok(Json::Obj(map));
    }
    loop {
        c.skip_ws(None);
        let key = string(c)?;
        c.skip_ws(None);
        expect(c, b':')?;
        map.insert(key, value(c, depth)?);
        c.skip_ws(None);
        if c.eat(b'}') {
            return Ok(Json::Obj(map));
        }
        if !c.eat(b',') {
            return Err(err(c, "expected ',' or '}'"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#" {"a": [1, 2.5, -3], "b": {"x": "y\n\"z\""}, "c": true, "d": null} "#;
        let v = parse(doc).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj["a"].as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(obj["a"].as_arr().unwrap()[2].as_i64(), Some(-3));
        assert_eq!(obj["b"].as_obj().unwrap()["x"].as_str(), Some("y\n\"z\""));
        assert_eq!(obj["c"], Json::Bool(true));
        assert_eq!(obj["d"], Json::Null);
    }

    #[test]
    fn escaped_strings_round_trip() {
        let original = "tab\there \"quoted\" back\\slash\nnewline \u{1}ctrl";
        let mut buf = String::new();
        write_str(&mut buf, original);
        let parsed = parse(&buf).unwrap();
        assert_eq!(parsed.as_str(), Some(original));
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_NESTING)).is_ok());
        assert_eq!(parse(&deep(MAX_NESTING + 1)).unwrap_err().at, MAX_NESTING);
        assert!(parse(&"[".repeat(100_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
    }
}
